"""mmpsim benchmark.  One command prints every metric by name with its unit
and checks the program's outputs:

    python3 perfbench/run.py --workload pert32 --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
one traced repetition plus the micro sweep.  Every repetition runs in a
fresh interpreter (perfbench/worker.py), one at a time, with BLAS/OpenMP
threads pinned to 1.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller result file
with provenance goes to .bench_out/.

Exit codes: 0 all checks passed, 1 a check failed or a worker died,
2 mmpsim's sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from layers import MICRO_FUNCS, MICRO_SIZES, METRICS, tail  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Set-up processes per invocation, half before the repetitions and half
# after, so that their median samples the same stretch of host time.
SETUP_REPEATS = 30
# Every invocation must end within 180 s; stop starting repetitions once
# one more would likely end past this.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: unit for name, (unit, _) in METRICS.items()},
    "trace.overhead_frac": "fraction",
    **{f"layers.n{n}.{fn}_s": "s" for n in MICRO_SIZES for fn in MICRO_FUNCS},
}


class WorkerError(RuntimeError):
    pass


class Session:
    """Starts the worker processes of one invocation, one at a time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    def spawn(self, spec: dict) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and the
        monotonic time just before it was started."""
        self.count += 1
        tag = f"{os.getpid()}-{self.count}"
        result_path = OUT / "tmp" / f"result-{tag}.json"
        spec = {**spec, "result": str(result_path),
                "out_dir": str(OUT / "tmp" / f"work-{tag}")}
        timeout = max(1.0, self.deadline + 10.0 - time.monotonic())
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env={**os.environ, **THREAD_ENV},
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{spec['mode']} worker timed out after "
                              f"{timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{spec['mode']} worker exited with "
                              f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result, started


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes of cpu0, read from /sys."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes or {"L2": "unknown", "L3": "unknown"}


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "thread_env": THREAD_ENV,
        "seed": seed,
    }


def measure_e2e(session: Session, w: Workload, seed: int,
                seconds: float) -> dict:
    """End-to-end metrics, tracing off: repetitions of the workload for
    about ``seconds``, and the median of SETUP_REPEATS set-up processes."""
    session.spawn({"mode": "import"})
    setups = []

    def set_up(count: int) -> None:
        for _ in range(count):
            result, started = session.spawn({"mode": "setup",
                                             "workload": asdict(w),
                                             "seed": seed})
            setups.append(result["setup_done"] - started)

    set_up(SETUP_REPEATS // 2)
    reps = max(1, round(seconds / w.nominal_s))
    runs = []
    for _ in range(reps):
        last = runs[-1]["wall"] if runs else 0.0
        if runs and time.monotonic() + last > session.deadline:
            break
        begin = time.monotonic()
        result, _ = session.spawn({"mode": "run", "workload": asdict(w),
                                   "seed": seed, "trace": False})
        result["wall"] = time.monotonic() - begin
        runs.append(result)
    set_up(SETUP_REPEATS - len(setups))

    steps = [s for r in runs for s in r["step_s"]]
    tail_value, tail_pct, beyond = tail(steps)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in runs)
        / 1e6,
    }
    return {
        "values": values,
        "units": END_TO_END,
        "runs": runs,
        "notes": {
            "setup_s": f"median of {len(setups)} set-ups",
            "run_s": f"median of {len(runs)} repetitions",
            "peak_rss_mb": f"median of {len(runs)} processes",
            "step_s_p50": f"median of {len(steps)} steps; not gated",
            "step_s_tail": (f"p{tail_pct:.1f} of {len(steps)} steps, "
                            f"{beyond} beyond; not gated"),
        },
        # Printed, not gated: neither repeats within a tenth on this kind of
        # host (README.md); integrator.step_s and step_s_tail trace them.
        "extra": {"step_s_p50": {"value": statistics.median(steps),
                                 "unit": "s"},
                  "step_s_tail": {"value": tail_value, "unit": "s"}},
        "detail": {"setup_s": setups, "run_s": [r["run_s"] for r in runs],
                   "step_s": steps},
    }


def measure_layers(session: Session, w: Workload, seed: int) -> dict:
    """Per-layer metrics: one untraced and one traced repetition (their
    run_s ratio is the tracing overhead), then the micro sweep."""
    session.spawn({"mode": "import"})
    spans_path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    plain, _ = session.spawn({"mode": "run", "workload": asdict(w),
                              "seed": seed, "trace": False})
    traced, _ = session.spawn({"mode": "run", "workload": asdict(w),
                               "seed": seed, "trace": True,
                               "spans": str(spans_path)})
    micro, _ = session.spawn({"mode": "micro", "seed": seed})
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    spreads = {}
    for key, samples in micro["samples"].items():
        values[f"layers.{key}_s"] = statistics.median(samples)
        spreads[f"layers.{key}_s"] = quartile_spread(samples)
    notes = {name: f"quartile spread {spread:.1%} of "
             f"{len(micro['samples'][name[7:-2]])} calls"
             for name, spread in spreads.items()}
    notes.update({name: "ABSENT: a wrapped public name is missing"
                  for name in traced["absent"]})
    return {
        "values": values,
        "units": PER_LAYER,
        "runs": [plain, traced],
        "notes": notes,
        "extra": {},
        "detail": {"absent_spans": traced["absent_spans"],
                   "micro_samples": micro["samples"],
                   "spans_file": str(spans_path.relative_to(ROOT))},
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 session: Session) -> dict:
    if trace:
        measured = measure_layers(session, w, seed)
    else:
        measured = measure_e2e(session, w, seed, seconds)
    checks = [c for r in measured["runs"] for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    return {
        "workload": w.name,
        "trace": trace,
        "provenance": provenance(seed, measured["runs"][0]["numpy"]),
        "metrics": {name: {"value": measured["values"][name], "unit": unit}
                    for name, unit in measured["units"].items()},
        "extra": measured["extra"],
        "notes": measured["notes"],
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "reference_checked": any(r["reference_checked"]
                                 for r in measured["runs"]),
        "detail": measured["detail"],
    }


def report(result: dict) -> None:
    name = result["workload"]
    for metric, m in {**result["metrics"], **result["extra"]}.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        note = result["notes"].get(metric)
        print(f"{name}: {metric} = {value} {m['unit']}"
              + (f"  ({note})" if note else ""))
    rate = result["failed"] / result["attempted"]
    print(f"{name}: error_rate = {rate:.6g} ({result['failed']} of "
          f"{result['attempted']} checks failed; reference "
          f"{'checked' if result['reference_checked'] else 'not stored for this seed'})")
    for check in result["failed_checks"]:
        print(f"{name}: FAILED {check[0]}: {check[2][:200]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmpsim" / "__init__.py").is_file():
        print(f"error: mmpsim sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            session = Session(time.monotonic() + DEADLINE_S)
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), session)
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1))
            report(result)
            results.append(result)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
