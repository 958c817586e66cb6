"""The part of mmpsim's API that the benchmark in perfbench/ relies on.

perfbench records a span per public function it finds and reports a layer
whose function it cannot find as absent instead of failing, so a rename
would silently blank a benchmark metric.  These tests read perfbench's
sources without importing them as modules (nothing is written under
perfbench/) and check that every span target resolves and that every
``mmpsim`` name the benchmark worker uses exists and accepts the
arguments the worker passes.  The transforms that mmpsim splits over
threads must open no span, because the tracer's span stack is not
thread-safe.
"""

import ast
import importlib
import inspect
import sys
import threading
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mmpsim
from mmpsim import spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans() -> dict:
    return load_source("spans.py", "perfbench_spans")


def load_source(name: str, module: str) -> dict:
    """The namespace of perfbench/<name> run as the module ``module``,
    which is registered while it runs (dataclasses look it up)."""
    path = PERFBENCH / name
    sys.modules[module] = types.ModuleType(module)
    try:
        namespace = sys.modules[module].__dict__
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             namespace)
    finally:
        del sys.modules[module]
    return namespace


def load_translate():
    """`translate` of perfbench/worker.py, compiled alone: the worker's own
    imports put perfbench/ on the path."""
    path = PERFBENCH / "worker.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef)
               and n.name == "translate"]
    namespace = {"mmpsim": mmpsim, "np": np}
    exec(compile(ast.Module([node], type_ignores=[]), str(path), "exec"),
         namespace)
    return namespace["translate"]


def test_every_span_target_resolves():
    spans = load_spans()
    assert len(spans["TARGETS"]) == 18
    tracer = spans["Tracer"]()
    originals = {name: getattr(mmpsim, name) for name in
                 ("run", "step", "stable_dt", "compute_record")}
    try:
        tracer.install(spans["TARGETS"], fft=False)
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(mmpsim, name) is fn


def test_worker_names_exist_and_accept_its_arguments():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    attributes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "mmpsim"]
    names = {node.attr for node in attributes}
    assert {"run", "step", "stable_dt", "compute_record"} <= names
    for name in sorted(names):
        assert hasattr(mmpsim, name), f"mmpsim.{name}"

    # e.g. stable_dt(state, p, grid, cfg) must keep four positional arguments
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.func in attributes]
    for call in calls:
        signature = inspect.signature(getattr(mmpsim, call.func.attr))
        keywords = {kw.arg: None for kw in call.keywords}
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            # a starred argument's length is not in the source
            signature.bind_partial(**keywords)
        else:
            signature.bind(*range(len(call.args)), **keywords)

    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("mmpsim.")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_split_transforms_open_spans_on_the_calling_thread(monkeypatch):
    # the threads of a spectral.StepEngine run array kernels only, never a
    # span target, so every span opens and closes on the calling thread:
    # the transform tasks, and the row tasks of the band stages, which
    # propagate through StiffPropagator._apply_rows, not the traced apply
    spans = load_spans()
    opened, transformed, propagated = set(), set(), set()

    class Recording(spans["Tracer"]):
        def span(self, name):
            opened.add(threading.get_ident())
            return super().span(name)

    original = spectral.BandWorkspace.to_spectral

    def tracked(ws, out, *factors):
        transformed.add(threading.get_ident())
        original(ws, out, *factors)
    monkeypatch.setattr(spectral.BandWorkspace, "to_spectral", tracked)
    original_rows = mmpsim.dynamics.StiffPropagator._apply_rows

    def tracked_rows(*args):
        propagated.add(threading.get_ident())
        return original_rows(*args)
    monkeypatch.setattr(mmpsim.dynamics.StiffPropagator, "_apply_rows",
                        tracked_rows)
    monkeypatch.setattr(spectral, "WORKERS", 2)
    monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
    monkeypatch.setattr(spectral, "ROW_SPLIT_MIN_N", 8)
    variant = mmpsim.SystemVariant.FULL
    state = mmpsim.make_random_state(
        mmpsim.GridSpec(16), mmpsim.InitSpec(epsilon=1.0, seed=4), variant)
    tracer = Recording()
    tracer.install(spans["TARGETS"])
    try:
        mmpsim.run(state, mmpsim.PhysParams(mu=0.2, chi=1.0, kappa=0.4,
                                            eta=1.0, nu=0.5),
                   variant, mmpsim.StepperConfig(dt=0.01, t_end=0.02,
                                                 record_interval=0.01))
    finally:
        tracer.uninstall()
    caller = threading.get_ident()
    assert opened == {caller}
    assert transformed - {caller}
    assert propagated - {caller}
    assert {"integrator.step", "dynamics.energy_flux_audit"} <= {
        s.name for s in tracer.spans}


@pytest.mark.parametrize("workload", ["pert32", "zk32_cfl"])
def test_translated_state_is_the_phase_shifted_band(workload):
    # the worker moves the initial state on the torus by multiplying each
    # full-spectrum field (3, n, n, n) by a phase per mode and building a
    # State of the products; the state then holds the band of those, so
    # run() starts from the band the parent's full state gave it
    w = load_source("workloads.py", "perfbench_workloads")["WORKLOADS"][
        workload]
    cfg = mmpsim.parse_config(w.config_text(2024, "unused"))
    state = mmpsim.make_random_state(cfg.grid(), cfg.init, cfg.variant)
    grid = state.grid
    for f in (state.u, state.omega, state.magnetic):
        assert f.coeffs.shape == (3, grid.n, grid.n, grid.n)
    shift = w.shift(2024)
    moved = load_translate()(state, shift)
    assert isinstance(moved, mmpsim.State)
    assert moved.variant is state.variant and moved.t == state.t
    k1, k2, k3 = grid.band.k_vectors
    phase = np.exp(-1j * grid.spacing
                   * (k1 * shift[0] + k2 * shift[1] + k3 * shift[2]))
    for got, band in zip(moved.arrays, state.arrays):
        assert got.tobytes() == (band * phase).tobytes()


def test_micro_sweep_stiff_calls_run_on_full_layout_symbols():
    # the worker's micro sweep times these calls with the full-layout
    # symbols of `stiff_symbols`, on the smallest of its grids; a layout
    # mismatch would otherwise show only in a traced benchmark run.  `step`
    # ignores ``symbols``: band symbols of other parameters change nothing
    pert = load_source("workloads.py", "perfbench_workloads")["WORKLOADS"][
        "pert32"]
    w = replace(pert, keys={**pert.keys, "grid.n": 16})
    cfg = mmpsim.parse_config(w.config_text(2024, "unused"))
    grid, p, variant = cfg.grid(), cfg.params, cfg.variant
    state = mmpsim.make_random_state(grid, cfg.init, variant)
    symbols = mmpsim.stiff_symbols(grid, p, variant)
    dt = cfg.stepper.dt
    propagated = symbols.propagator(dt).apply(
        state.u.coeffs, state.omega.coeffs, state.magnetic.coeffs)
    assert [a.shape for a in propagated] == [(3, grid.n, grid.n, grid.n)] * 3
    other = mmpsim.dynamics.layout_stiff_symbols(
        grid.band, replace(p, eta=50.0), variant)
    want = mmpsim.step(state, p, variant, dt)
    for given in (symbols, other):
        got = mmpsim.step(state, p, variant, dt, symbols=given)
        for a, b in zip(got.arrays, want.arrays):
            assert a.tobytes() == b.tobytes()
