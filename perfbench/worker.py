"""One benchmark process, started by run.py in a fresh interpreter:

    python3 perfbench/worker.py '<json spec>'

Modes:
  import  import mmpsim once (writes the bytecode cache before any timing)
  setup   what precedes the first step: imports, config parsing, GridSpec,
          make_random_state and stiff_symbols; reports the monotonic time at
          which it finished
  run     one repetition of a workload, timed, then its output checks;
          with "trace" every public module-boundary function is wrapped and
          the per-layer metrics are derived from the spans
  micro   the per-layer micro sweep: single calls at n = 16, 32, 64

mmpsim is imported from the checkout's src/.  The result is written as JSON
to the spec's "result" path.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mmpsim  # noqa: E402
import numpy as np  # noqa: E402

import checks as checks_mod  # noqa: E402
from workloads import Workload  # noqa: E402


def translate(state, shift):
    """The state moved on the torus by whole grid points:
    f(x) -> f(x - shift * h), a phase factor per Fourier mode."""
    grid = state.grid
    k1, k2, k3 = grid.k_vectors
    phase = np.exp(-1j * grid.spacing
                   * (k1 * shift[0] + k2 * shift[1] + k3 * shift[2]))
    return mmpsim.State(
        *(mmpsim.SpectralVectorField(f.coeffs * phase, grid)
          for f in (state.u, state.omega, state.magnetic)),
        state.variant, t=state.t)


def initial_state(cfg, shift):
    state = mmpsim.make_random_state(cfg.grid(), cfg.init, cfg.variant)
    return state if shift is None else translate(state, shift)


def do_setup(spec) -> dict:
    w = Workload(**spec["workload"])
    cfg = mmpsim.parse_config(w.config_text(spec["seed"], "unused"))
    initial_state(cfg, w.shift(spec["seed"]))
    mmpsim.stiff_symbols(cfg.grid(), cfg.params, cfg.variant)
    return {"setup_done": time.monotonic()}


def _run_direct(text, shift, out, tracer, checks):
    """Set up, then time run() plus the output files it leads to."""
    cfg = mmpsim.parse_config(text)
    state = initial_state(cfg, shift)
    with tracer.span("bench.solve"):
        start = time.perf_counter()
        result = mmpsim.run(state, cfg.params, cfg.variant, cfg.stepper,
                            settings=cfg.diagnostics_settings())
        mmpsim.write_diagnostics(result.records, out / "diagnostics.csv")
        mmpsim.save_checkpoint(out / "final.mmp", result.state, cfg.params,
                               result.steps, cfg.init.seed)
        run_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    checks.check("status.completed", result.status.value == "completed",
                 result.status.value)
    checks.check("state.finite", all(
        np.all(np.isfinite(f.coeffs))
        for f in (result.state.u, result.state.omega, result.state.magnetic)))
    checks.check("state.t_end",
                 abs(result.state.t - cfg.stepper.t_end) <= 1e-9,
                 f"{result.state.t!r}")
    records = [asdict(r) for r in
               mmpsim.read_diagnostics(out / "diagnostics.csv")]
    checks.check("csv.roundtrip",
                 records == [asdict(r) for r in result.records])
    return run_s, peak, records


def _run_cli(w, seed, out, tracer, checks):
    """`mmpsim run`, then `--resume` from its first checkpoint into a fresh
    directory; time both calls."""
    from mmpsim.cli import cli_main
    first, resumed = out / "first", out / "resumed"
    paths = []
    for d in (first, resumed):
        d.mkdir()
        paths.append(d.with_suffix(".cfg"))
        paths[-1].write_text(w.config_text(seed, str(d)))
    ckpt = first / "checkpoint_00000001.mmp"
    stdout = io.StringIO()
    with tracer.span("bench.solve"), contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        code_first = cli_main(["run", "--config", str(paths[0])])
        code_resumed = cli_main(["run", "--config", str(paths[1]),
                                 "--resume", str(ckpt)])
        run_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    printed = stdout.getvalue()
    checks.check("cli.exit_codes", code_first == 0 and code_resumed == 0,
                 f"{code_first}, {code_resumed}")
    checks.check("status.completed",
                 printed.count("status = completed") == 2, printed)
    records = [asdict(r) for r in
               mmpsim.read_diagnostics(first / "diagnostics.csv")]
    t_ckpt = mmpsim.load_checkpoint(ckpt).state.t
    first_rows = (first / "diagnostics.csv").read_text().splitlines()
    resumed_rows = (resumed / "diagnostics.csv").read_text().splitlines()
    after = [row for row in first_rows[1:]
             if float(row.split(",", 1)[0]) > t_ckpt]
    checks.check("resume.csv_rows", resumed_rows[1:] == after,
                 f"{len(resumed_rows) - 1} rows vs {len(after)}")
    for name in ("final.mmp", "checkpoint_00000002.mmp"):
        checks.check(f"resume.{name}.identical",
                     (first / name).read_bytes() == (resumed / name).read_bytes())
    return run_s, peak, records


def do_run(spec) -> dict:
    from spans import STEP_TARGETS, TARGETS, Tracer
    w = Workload(**spec["workload"])
    seed = spec["seed"]
    out = Path(spec["out_dir"])
    out.mkdir(parents=True)
    tracer = Tracer()
    tracer.install(TARGETS if spec["trace"] else STEP_TARGETS,
                   fft=spec["trace"])
    checks = checks_mod.Checks()
    try:
        if w.kind == "cli":
            run_s, peak, records = _run_cli(w, seed, out, tracer, checks)
        else:
            run_s, peak, records = _run_direct(
                w.config_text(seed, str(out)), w.shift(seed), out, tracer,
                checks)
    finally:
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)

    checks_mod.check_records(checks, records)
    reference = checks_mod.load_reference(w.name, w.init_seed(seed), w.n)
    if reference is not None and records:
        checks_mod.check_reference(checks, records[-1], reference)

    steps = [s for s in tracer.spans if s.name == "integrator.step"]
    result = {
        "run_s": run_s,
        "step_s": [s.dur for s in steps],
        "peak_rss_bytes": peak,
        "checks": checks.items,
        "final_record": records[-1] if records else None,
        "reference_checked": reference is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if spec["trace"]:
        from layers import derive
        result["layers"], result["absent"] = derive(tracer.spans,
                                                    tracer.absent, peak)
        result["absent_spans"] = tracer.absent
        tracer.dump(spec["spans"])
    return result


def do_micro(spec) -> dict:
    """Single calls of each layer's public functions, MICRO_REPEATS times
    at each size; one untimed warm-up call of each at the smallest size."""
    from layers import MICRO_REPEATS, MICRO_SIZES
    from workloads import WORKLOADS
    pert = WORKLOADS["pert32"]
    out = Path(spec["out_dir"])
    out.mkdir(parents=True)
    samples: dict[str, list[float]] = {}
    try:
        for i, n in enumerate(MICRO_SIZES):
            w = replace(pert, keys={**pert.keys, "grid.n": n})
            cfg = mmpsim.parse_config(w.config_text(spec["seed"], str(out)))
            grid, p, variant = cfg.grid(), cfg.params, cfg.variant
            state = mmpsim.make_random_state(grid, cfg.init, variant)
            symbols = mmpsim.stiff_symbols(grid, p, variant)
            settings = cfg.diagnostics_settings()
            phys = mmpsim.inverse_transform(state.u)
            record = mmpsim.compute_record(state, p, settings)
            ckpt, csv = out / f"micro{n}.mmp", out / f"micro{n}.csv"
            dt = cfg.stepper.dt
            calls = {
                "forward_transform": lambda: mmpsim.forward_transform(phys, grid),
                "inverse_transform": lambda: mmpsim.inverse_transform(state.u),
                "rhs": lambda: mmpsim.rhs(state, p, variant),
                "propagator_apply": lambda: symbols.propagator(dt).apply(
                    state.u.coeffs, state.omega.coeffs, state.magnetic.coeffs),
                "step": lambda: mmpsim.step(state, p, variant, dt,
                                            symbols=symbols),
                "stable_dt": lambda: mmpsim.stable_dt(state, p, grid,
                                                      cfg.stepper),
                "compute_record": lambda: mmpsim.compute_record(state, p,
                                                                settings),
                "energy_flux_audit": lambda: mmpsim.energy_flux_audit(
                    state, p, variant),
                "save_checkpoint": lambda: mmpsim.save_checkpoint(
                    ckpt, state, p, 0, spec["seed"]),
                "load_checkpoint": lambda: mmpsim.load_checkpoint(ckpt),
                "write_diagnostics": lambda: mmpsim.write_diagnostics(
                    [record] * 9, csv),
            }
            for name, call in calls.items():
                if i == 0:
                    call()
                times = []
                for _ in range(MICRO_REPEATS):
                    start = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - start)
                samples[f"n{n}.{name}"] = times
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"samples": samples}


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "import":
        result = {}
    elif mode == "setup":
        result = do_setup(spec)
    elif mode == "run":
        result = do_run(spec)
    elif mode == "micro":
        result = do_micro(spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    Path(spec["result"]).write_text(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
