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
import threading
from pathlib import Path

import mmpsim
from mmpsim import spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans() -> dict:
    path = PERFBENCH / "spans.py"
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         namespace)
    return namespace


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
    # span target, so every span opens and closes on the calling thread
    spans = load_spans()
    opened, transformed = set(), set()

    class Recording(spans["Tracer"]):
        def span(self, name):
            opened.add(threading.get_ident())
            return super().span(name)

    original = spectral.BandWorkspace.to_spectral

    def tracked(ws, phys, out):
        transformed.add(threading.get_ident())
        original(ws, phys, out)
    monkeypatch.setattr(spectral.BandWorkspace, "to_spectral", tracked)
    monkeypatch.setattr(spectral, "WORKERS", 2)
    monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
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
    assert {"integrator.step", "dynamics.energy_flux_audit"} <= {
        s.name for s in tracer.spans}
