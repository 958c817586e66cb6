"""Per-layer metrics derived from the spans of one traced repetition.

Conventions (see README.md for the table of what each metric should move):
* ``*_s`` on a compute kernel is the median over its calls; ``*_s`` on an
  I/O function (checkpoint, diagio, cli) is the total over the run.
* self time = span duration minus the durations of its direct child spans.
* ``*_per_step`` sums over the ``integrator.step`` spans and divides by
  their number.
* FFT counts are scalar-3D-equivalent transforms: an FFT of a (3, n, n, n)
  array over its last three axes counts 3.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import FFT, Span

# The micro sweep: one call of each of these at each size, repeated.
MICRO_SIZES = (16, 32, 64)
MICRO_REPEATS = 5
MICRO_FUNCS = ("forward_transform", "inverse_transform", "rhs",
               "propagator_apply", "step", "stable_dt", "compute_record",
               "energy_flux_audit", "save_checkpoint", "load_checkpoint",
               "write_diagnostics")

RHS = ("dynamics.explicit_rhs_arrays", "dynamics.rhs")
PROPAGATOR = ("dynamics.propagator", "dynamics.propagator_apply")


class Absent(Exception):
    """A span the metric needs was not installed: the public name is gone."""


class SpanIndex:
    def __init__(self, spans: list[Span], absent: list[str]):
        self.absent = set(absent)
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.child_time: dict[int, float] = defaultdict(float)
        # FFT (calls, seconds, bytes) inside each span's subtree; children
        # are recorded before their parents, so one pass accumulates them.
        self.fft: dict[int, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        for s in spans:
            self.by_name[s.name].append(s)
            agg = self.fft[s.id]
            if s.name == FFT:
                agg[0] += s.attrs["calls"]
                agg[1] += s.dur
                agg[2] += s.attrs["bytes"]
            if s.parent is not None:
                self.child_time[s.parent] += s.dur
                up = self.fft[s.parent]
                for i in range(3):
                    up[i] += agg[i]

    def named(self, *names: str) -> list[Span]:
        if all(n in self.absent for n in names):
            raise Absent(names[0])
        return [s for n in names for s in self.by_name.get(n, [])]

    def self_time(self, s: Span) -> float:
        return s.dur - self.child_time[s.id]

    def ancestors(self, s: Span):
        while s.parent is not None:
            s = self.by_id[s.parent]
            yield s

    def inside(self, spans: list[Span], names) -> list[Span]:
        """The spans with an ancestor named in ``names`` and no ancestor of
        their own name (outermost calls only)."""
        out = []
        for s in spans:
            up = [a.name for a in self.ancestors(s)]
            if any(n in names for n in up) and s.name not in up:
                out.append(s)
        return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    value with exactly ten larger samples.  Returns (value, percentile,
    samples beyond); with fewer than eleven samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per(ix: SpanIndex, anchor: str, field: int) -> float:
    spans = ix.named(anchor)
    return _ratio(sum(ix.fft[s.id][field] for s in spans), len(spans))


def _rhs_in_steps(ix: SpanIndex) -> list[Span]:
    ix.named("integrator.step")
    return ix.inside(ix.named(*RHS), ("integrator.step",))


def _propagator_per_step(ix: SpanIndex) -> float:
    steps = ix.named("integrator.step")
    props = ix.inside(ix.named(*PROPAGATOR), ("integrator.step",))
    return _ratio(sum(s.dur for s in props), len(steps))


def _dt_reuse(ix: SpanIndex) -> float:
    steps = sorted(ix.named("integrator.step"), key=lambda s: s.start)
    dts = [s.attrs["dt"] for s in steps]
    reused = sum(1 for a, b in zip(dts, dts[1:]) if a == b)
    return _ratio(reused, len(dts))


def _solve(ix: SpanIndex) -> Span:
    return ix.by_name["bench.solve"][0]


def _state_bytes(ix: SpanIndex) -> int:
    return ix.named("fields.make_random_state")[0].attrs["state_bytes"]


# name -> (unit, function of (SpanIndex, peak RSS bytes)).  Whether lower
# or higher is better is stated once, in BENCHMARK.json.
METRICS = {
    "spectral.fft_calls_per_step": (
        "count", lambda ix, rss: _per(ix, "integrator.step", 0)),
    "spectral.fft_calls_per_record": (
        "count", lambda ix, rss: _per(ix, "norms.compute_record", 0)),
    "spectral.fft_calls_per_stable_dt": (
        "count", lambda ix, rss: _per(ix, "integrator.stable_dt", 0)),
    "spectral.fft_s_per_step": (
        "s", lambda ix, rss: _per(ix, "integrator.step", 1)),
    "spectral.fft_share": (
        "fraction",
        lambda ix, rss: _ratio(sum(s.dur for s in ix.by_name[FFT]),
                               _solve(ix).dur)),
    "spectral.fft_mb_per_step": (
        "MB_computed", lambda ix, rss: _per(ix, "integrator.step", 2) / 1e6),
    "dynamics.rhs_calls_per_step": (
        "count",
        lambda ix, rss: _ratio(len(_rhs_in_steps(ix)),
                               len(ix.named("integrator.step")))),
    "dynamics.rhs_s": (
        "s", lambda ix, rss: _median(s.dur for s in _rhs_in_steps(ix))),
    "dynamics.rhs_self_s": (
        "s",
        lambda ix, rss: _median(ix.self_time(s) for s in _rhs_in_steps(ix))),
    "dynamics.propagator_s_per_step": (
        "s", lambda ix, rss: _propagator_per_step(ix)),
    "dynamics.audit_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in
                                ix.named("dynamics.energy_flux_audit"))),
    "integrator.steps": (
        "count", lambda ix, rss: len(ix.named("integrator.step"))),
    "integrator.step_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in ix.named("integrator.step"))),
    "integrator.step_s_tail": (
        "s",
        lambda ix, rss: tail([s.dur for s in ix.named("integrator.step")])[0]),
    "integrator.step_self_s": (
        "s",
        lambda ix, rss: _median(ix.self_time(s)
                                for s in ix.named("integrator.step"))),
    "integrator.stable_dt_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in
                                ix.named("integrator.stable_dt"))),
    "integrator.dt_reuse_ratio": (
        "fraction", lambda ix, rss: _dt_reuse(ix)),
    "norms.records": (
        "count", lambda ix, rss: len(ix.named("norms.compute_record"))),
    "norms.record_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in ix.named("norms.compute_record"))),
    "norms.record_self_s": (
        "s",
        lambda ix, rss: _median(ix.self_time(s)
                                for s in ix.named("norms.compute_record"))),
    "fields.init_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in
                                ix.named("fields.make_random_state"))),
    "fields.state_mb": (
        "MB", lambda ix, rss: _state_bytes(ix) / 1e6),
    "mem.peak_over_state": (
        "ratio", lambda ix, rss: rss / _state_bytes(ix)),
    "config.parse_s": (
        "s",
        lambda ix, rss: _median(s.dur for s in ix.named("config.parse_config"))),
    "checkpoint.save_s": (
        "s",
        lambda ix, rss: sum(s.dur for s in
                            ix.named("checkpoint.save_checkpoint"))),
    "checkpoint.load_s": (
        "s",
        lambda ix, rss: sum(s.dur for s in
                            ix.named("checkpoint.load_checkpoint"))),
    "checkpoint.mb_written": (
        "MB",
        lambda ix, rss: sum(s.attrs["bytes"] for s in
                            ix.named("checkpoint.save_checkpoint")) / 1e6),
    "diagio.write_s": (
        "s",
        lambda ix, rss: sum(s.dur for s in
                            ix.named("diagio.write_diagnostics"))),
    "diagio.rows": (
        "count",
        lambda ix, rss: sum(s.attrs["rows"] for s in
                            ix.named("diagio.write_diagnostics"))),
    "cli.self_s": (
        "s",
        lambda ix, rss: sum(ix.self_time(s) for s in ix.named("cli.cli_main"))),
}


def derive(spans: list[Span], absent: list[str], peak_rss_bytes: int
           ) -> tuple[dict[str, float | None], list[str]]:
    """Every metric of METRICS; a metric whose spans are absent reads None
    and is listed in the second return value."""
    ix = SpanIndex(spans, absent)
    values, missing = {}, []
    for name, (_, fn) in METRICS.items():
        try:
            values[name] = float(fn(ix, peak_rss_bytes))
        except Absent:
            values[name] = None
            missing.append(name)
    return values, missing
