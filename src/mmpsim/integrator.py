"""Time advancement: integrating-factor RK4 with the stiff diagonal symbols
treated exactly, a priori step-size control, and the simulation driver.

One step advances y' = -Lambda y + N(y) per mode, multiplying by
exp(-Lambda * delta) between the four classical stages:

    N1 = N(y0)
    y2 = Eh (y0 + dt/2 N1)          Eh = exp(-Lambda dt/2)
    y3 = Eh y0 + dt/2 N(y2)
    y4 = Ef y0 + dt Eh N(y3)        Ef = exp(-Lambda dt)
    y  = Ef y0 + dt/6 (Ef N1 + 2 Eh (N2 + N3) + N4)

The velocity and magnetic fields are re-projected and the k=0 modes
re-zeroed once per full step.  Each block of propagations between the
explicit evaluations forms the band's stiff symbols Lambda from the step's
parameters and variant, and from them the factors it applies (Eh for y2
and y3, Eh and Ef for y4, Ef for the new state), so a step whose dt
differs from the last one's costs the same as any other, and no operator
formed elsewhere can enter a step.  The symbols and factors live in views
of two idle pool grid buffers for the block's duration only
(`dynamics.band_propagators`), so the step holds no factor while it
evaluates N.

The step works on the retained-band coefficients that a `State` holds
(see `spectral`), and `run` carries band `State`s from step to step, to
the state sink and into its result; no full-spectrum copy of a state is
formed on the way (the audit's pairings still sum transient n^3
expansions, see `dynamics`).  Each explicit evaluation makes 27 pruned
real transforms of scalar fields, 108 per step; each is three 1D passes
(324 per step) over n^2 + n(kc+1) + (2kc+1)(kc+1) lines, kc = n//3.

`run` builds one `spectral.StepEngine` for the whole run and passes it to
every `stable_dt`, `step` and diagnostics record.  The step's stage and
accumulator arrays, the grid values and products of its explicit
evaluations, |u| on the grid and the audit's buffers all come from the
engine's one pool, reused from step to step, so a run does not hand its
working set back to the allocator and fault it in again on every step
(see `_step_arrays`); the pool is kept across state-sink calls too.  A
step takes 8 grid and 7 band vector buffers and 2 product slabs from it
on two threads (7, 7 and 1 on one): the stages' 6 band buffers and, per
evaluation, the grid values of u and b, one grid buffer per thread for
omega_i, one product slab per thread in which its products are formed
slab by slab (see `spectral.BandWorkspace`), and one band buffer for the
emf, then for 2 chi curl u, the linear terms and the projections' scratch
(see `dynamics`; the stress is formed in the evaluation's output).  The
stages fill three band triples beside y0: the third evaluation writes N3
over its own input y3 and forms y3 again for its linear terms.  The
blocks between the evaluations, and that evaluation once its transforms
are done, take their factors' and y3's memory from the grid buffers,
which are idle there.  Only the triple that becomes the new state is
allocated per step, outside the pool, so the caller owns it from the
start.  The audit takes no product slab; it releases the pool
(`StepEngine.release`, which drops every buffer that no open scope
holds: there every grid buffer and slab, and every band buffer but, the
second time, the audit's 5) before its transforms, which take 5 band
and 12 grid buffers, and again before its pairings, which expand into
one n^3 buffer of their own; so a step after a record takes 2 band
buffers anew.
Within an evaluation the transforms run on the engine's helper thread as
well from n = `spectral.SPLIT_MIN_N` up, and from n =
`spectral.ROW_SPLIT_MIN_N` up so does one k1-row half of the band-level
work: the one stage of each evaluation and the four blocks of
propagations, sums and the final projection between and after them, 8
row phases per step (`StepEngine.run_rows`; the scratch of each block is
one pool buffer, of which each range takes its rows).  The four RK
stages stay sequential, and a step's result is the single-thread,
whole-band one bit for bit.  A public `step` or `stable_dt` without an
engine builds a transient one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import band_propagators, explicit_rhs_arrays, grid_tasks
from .fields import PhysParams, State, SystemVariant, check_solver_arguments
from .norms import DiagnosticsRecord, DiagnosticsSettings, compute_record
from .spectral import (
    GridSpec,
    IntegrityError,
    StepEngine,
    project_coeffs,
    using_engine,
)


@dataclass(frozen=True)
class StepperConfig:
    """Base step, CFL safety factor, horizon, step cap and diagnostics
    cadence.

    ``t_end=0`` is allowed and means "record the initial state only".
    ``max_steps`` caps the trajectory's steps, not one call's: `run` counts
    them from its ``start_step``, a resumed checkpoint's step included.
    """

    dt: float
    t_end: float
    cfl_advective: float = 0.5
    max_steps: int = 1_000_000
    record_interval: float = 0.25

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if not (0.0 < self.cfl_advective <= 1.0):
            raise ValueError(f"cfl_advective must lie in (0, 1], "
                             f"got {self.cfl_advective}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        check_interval("record_interval", self.record_interval, self.t_end)


def check_interval(name: str, interval: float, t_end: float,
                   t: float = 0.0) -> None:
    """Refuse a record or state-dump interval that is not positive and
    finite, or so small that t_end / interval or t / interval overflows,
    t the time a run starts from: `run` counts the interval's boundaries
    as floor(t / interval)."""
    if not (interval > 0.0 and math.isfinite(interval)
            and math.isfinite(t_end / interval)):
        raise ValueError(f"{name} must be positive and finite with "
                         f"t_end/{name} finite, got {interval}")
    if not math.isfinite(t / interval):
        raise ValueError(f"{name} {interval} is too small for the start "
                         f"time t = {t}: t/{name} overflows")


def stable_dt(state: State, p: PhysParams, grid: GridSpec,
              cfg: StepperConfig, engine: StepEngine | None = None) -> float:
    """Largest step honouring the base step, the advective CFL bound, the
    micro-rotation coupling bound cfl/(6 chi + 1), and the background
    transport bound.  Floors with a warning at cfg.dt * 1e-6, or at the
    coupling or transport bound if that is smaller.  |u| is formed from
    the velocity's band on the grid in three grid buffers of ``engine`` (a
    transient one if None), as sqrt((u_0^2 + u_1^2) + u_2^2).  ``grid``
    must have the state's size."""
    if grid.n != state.grid.n:
        raise ValueError(f"stable_dt got a grid of n={grid.n} for a state "
                         f"on n={state.grid.n}")
    with using_engine(engine, grid) as engine, engine.scope():
        u_phys = engine.grid_buffers(3)
        engine.run([grid_tasks(state.arrays[:1], [u_phys])])
        speed = np.square(u_phys[0], out=u_phys[0])
        for c in u_phys[1:]:
            np.add(speed, np.square(c, out=c), out=speed)
        umax = float(np.sqrt(speed, out=speed).max())
    if not math.isfinite(umax):
        raise IntegrityError("non-finite velocity in stable_dt")

    h = grid.spacing
    cfl = cfg.cfl_advective
    chi = p.coupling_chi(state.variant)
    bounds = [cfg.dt, cfl / (6.0 * chi + 1.0)]
    if state.variant.uses_background:
        alpha_mag = math.sqrt(p.alpha_norm_sq)
        if alpha_mag > 0.0:
            bounds.append(cfl * h / alpha_mag)
    # capped by the bounds that do not depend on the state, so only a
    # collapsing advective bound can reach the floor
    floor = min(cfg.dt * 1e-6, *bounds[1:])
    if umax > 0.0:
        bounds.append(cfl * h / umax)
    dt = min(bounds)
    if dt < floor:
        warnings.warn(f"stable_dt floored at {floor:.3e} "
                      f"(computed bound {dt:.3e})")
        return floor
    return dt


def _axpy(y, x, c, out, scratch):
    """out = y + c x per field of the triples, c x formed in the triple
    ``scratch`` first (which may be x or out)."""
    for yi, xi, oi, si in zip(y, x, out, scratch):
        np.multiply(c, xi, out=si)
        np.add(yi, si, out=oi)
    return out


def _step_arrays(arrays, p: PhysParams, variant: SystemVariant, dt: float,
                 linearized: bool, engine: StepEngine):
    """One step on retained-band arrays of ``engine``'s grid, whose band
    and transforms the evaluations use; e_half and e_full are the Eh and
    Ef above, formed from the band symbols of ``p`` and ``variant`` for
    each block that applies them, in views of pool grid buffers taken in
    the block's scope (`dynamics.band_propagators`, on the calling thread
    before the block's row tasks).

    Every stage lives in three band triples beside y0, each value written
    with ``out=`` over one whose last use has passed.  t1 and t3 are
    buffers of ``engine``'s pool; t2 is three new arrays, which the caller
    owns from the start:

        block                   t1              t3              t2
        N1 = N(y0)              N1
        to_y2, N2 = N(y2)                       N2              y2
        to_y3, N3 = N(y3)                                       y3, then N3
        to_y4                   Ef N1           N2 + N3, Eh of  Eh N3, then
                                + 2 Eh(N2+N3)   it, then Ef y0  y4
        N4 = N(y4)                              N4
        to_new                  + N4            (its scratch)   Ef y0, then
                                                                the new state

    N3 is written over its own input y3 (`explicit_rhs_arrays` with
    ``again``): once the transforms are done, its band stage forms
    y3 = Eh y0 + dt/2 N2 again for the linear terms, by `to_y3`'s
    operations, in three band vectors of idle pool grid buffers
    (`StepEngine.band_vectors`), and Ef y0 is formed twice rather than
    held.  Between the explicit
    evaluations, each block of propagations, sums and the final projection
    runs through `StepEngine.run_rows`, on the k1-rows of every stage
    (``cut``), with one more band buffer as scratch (the parallel part of
    omega in a propagation, dt/2 N2, the projection's parallel part),
    taken above the stages for each block, so the explicit evaluations
    reuse it: the pool holds 7 band buffers.  Each value is formed by the
    operations of the formulas above, in their order, so the step is
    bit-identical to evaluating them with a new array per operation,
    whatever the row split."""
    def explicit(y, out, again=None):
        return explicit_rhs_arrays(*y, engine.grid, p, variant,
                                   linearized=linearized, engine=engine,
                                   out=out, again=again)

    def rows_of(rows):
        return lambda triple: tuple(map(rows.part, triple))

    def block(task, *dts):
        with engine.scope():
            (scratch,) = engine.band_buffers(1)
            factors = band_propagators(engine, p, variant, dts)
            engine.run_rows(lambda rows: task(
                rows, rows.part(scratch), rows_of(rows), *factors))

    t2 = tuple(np.empty_like(a) for a in arrays)
    with engine.scope():
        buffers = engine.band_buffers(6)
        t1, t3 = tuple(buffers[:3]), tuple(buffers[3:])

        def to_y2(rows, s, cut, e_half):
            y2 = cut(t2)
            e_half._apply_rows(rows, *_axpy(cut(arrays), cut(t1), 0.5 * dt,
                                            y2, y2), y2, s)

        def to_y3(rows, s, cut, e_half, into=t2):
            y3 = cut(into)
            return _axpy(e_half._apply_rows(rows, *cut(arrays), y3, s),
                         cut(t3), 0.5 * dt, y3, (s,) * 3)

        def y3_again():
            into = engine.band_vectors(3)
            (e_half,) = band_propagators(engine, p, variant, (0.5 * dt,))
            return lambda rows, s: to_y3(rows, s, rows_of(rows), e_half,
                                         into)

        def to_y4(rows, s, cut, e_half, e_full):
            n1, n23, n3 = map(cut, (t1, t3, t2))
            for a, b in zip(n23, n3):
                np.add(a, b, out=a)
            _axpy(e_full._apply_rows(rows, *n1, n1, s),
                  e_half._apply_rows(rows, *n23, n23, s), 2.0, n1, n23)
            _axpy(e_full._apply_rows(rows, *cut(arrays), n23, s),
                  e_half._apply_rows(rows, *n3, n3, s), dt, n3, n3)

        def to_new(rows, s, cut, e_full):
            accum, n4, new = map(cut, (t1, t3, t2))
            _axpy(accum, n4, 1.0, accum, n4)
            u_new, _, m_new = _axpy(
                e_full._apply_rows(rows, *cut(arrays), new, s), accum,
                dt / 6.0, new, accum)
            project_coeffs(u_new, rows, out=u_new, scratch=s)
            project_coeffs(m_new, rows, out=m_new, scratch=s)

        explicit(arrays, t1)
        block(to_y2, 0.5 * dt)
        explicit(t2, t3)
        block(to_y3, 0.5 * dt)
        explicit(t2, t2, again=y3_again)
        block(to_y4, 0.5 * dt, dt)
        explicit(t2, t3)
        block(to_new, dt)
    u_new, w_new, m_new = t2
    w_new[:, 0, 0, 0] = 0.0
    return u_new, w_new, m_new


def step(state: State, p: PhysParams, variant: SystemVariant, dt: float,
         linearized: bool = False, symbols=None,
         engine: StepEngine | None = None) -> State:
    """Advance one integrating-factor RK4 step of size dt on the state's
    band and return the new state.  The stiff operator is always the band
    symbols of ``p`` and ``variant`` (`layout_stiff_symbols`), formed on
    every call.  ``symbols`` is unused; it is kept until the benchmark
    harness stops passing it.  The step runs on ``engine``, or on a
    transient `StepEngine` closed before the call returns.

    Refuses, with a ValueError, a ``dt`` that is not positive and finite,
    an engine made for a grid of another size (`using_engine`) and what
    `check_solver_arguments` refuses: a state tagged with another variant,
    and coefficients the variant forces to zero."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"step requires a positive, finite dt, got dt={dt}")
    check_solver_arguments(state, p, variant, "step")
    grid = state.grid
    with using_engine(engine, grid) as engine:
        arrays = _step_arrays(state.arrays, p, variant, dt, linearized,
                              engine)
    for name, arr in zip(("u", "omega", "magnetic"), arrays):
        if not np.all(np.isfinite(arr)):
            raise IntegrityError(f"non-finite {name} after step")
    return State.from_band(arrays, grid, variant, t=state.t + dt)


class RunStatus(Enum):
    COMPLETED = "completed"
    STEP_CAP = "step_cap"
    BLOW_UP = "blow_up"


@dataclass
class RunResult:
    """How a `run` ended: its last state, the records this call made, its
    status and the trajectory's step count (``steps``, counted from the
    run's ``start_step``; on a blow-up the steps taken before the failing
    step, stable_dt or record)."""

    state: State
    records: list[DiagnosticsRecord]
    status: RunStatus
    steps: int


class SinkWriteError(OSError):
    """A diagnostics or state sink raised an OSError; the run stopped there
    and returns no result.  The message names the sink and the error."""


def _next_boundary(t: float, interval: float) -> float:
    return (math.floor(t / interval + 1e-9) + 1.0) * interval


def _zero_mean_copy(c: np.ndarray) -> np.ndarray:
    """A copy of the band vector c with its k=0 mode zeroed."""
    c = c.copy()
    c[:, 0, 0, 0] = 0.0
    return c


def _end_tolerance(t_end: float) -> float:
    """How near t_end a run's time counts as t_end: there `run` takes no
    further step."""
    return 1e-12 * max(1.0, t_end)


def check_run_arguments(state: State, p: PhysParams, variant: SystemVariant,
                        cfg: StepperConfig,
                        state_sink_interval: float | None = None,
                        state_sink=None) -> None:
    """The entry contract of `run`: raise ValueError for what
    `check_solver_arguments` refuses (a state tagged with another variant,
    coefficients the variant forces to zero), for a ``cfg.record_interval``
    or ``state_sink_interval`` that `check_interval` refuses at the state's
    time, for a ``state_sink`` without a ``state_sink_interval``, and for
    a state whose time is past ``cfg.t_end`` by more than the run's end
    tolerance.  `mmpsim run` calls it before it touches its outputs."""
    check_solver_arguments(state, p, variant, "run")
    check_interval("record_interval", cfg.record_interval, cfg.t_end,
                   state.t)
    if state_sink is not None and state_sink_interval is None:
        raise ValueError("a state_sink needs a state_sink_interval")
    if state_sink_interval is not None:
        check_interval("state_sink_interval", state_sink_interval, cfg.t_end,
                       state.t)
    if state.t > cfg.t_end + _end_tolerance(cfg.t_end):
        raise ValueError(f"the start time t = {state.t} is past t_end = "
                         f"{cfg.t_end}")


def run(state: State, p: PhysParams, variant: SystemVariant,
        cfg: StepperConfig, settings: DiagnosticsSettings | None = None,
        record_sink=None, state_sink=None,
        state_sink_interval: float | None = None,
        start_step: int | None = None) -> RunResult:
    """Advance to t_end recording diagnostics every record_interval.

    The run counts the steps of its trajectory.  With ``start_step`` None
    the state starts a trajectory: it is recorded, and steps count from 0.
    An int means the state is that step of a trajectory whose records up
    to the state's time were already delivered, as on a resume from a
    checkpoint: no initial record is made, and steps count from
    ``start_step``.  The step count is what the ``cfg.max_steps`` cap
    checks, what ``state_sink`` gets with each state and what the result
    carries, so a resumed trajectory stops where the uninterrupted one
    does.

    Stops at t_end, when the trajectory has taken max_steps steps, or on a
    detected blow-up (the terminal status distinguishes the three):
    non-finite data in `stable_dt`, a step or a diagnostics record, with
    ``steps`` the count before it.  ``state_sink`` is invoked with the
    current state and the step count every ``state_sink_interval`` of
    simulation time.  An OSError from either sink stops the run with a
    `SinkWriteError`; what the sinks took before it stays delivered.

    Refuses, before the first record, what `check_run_arguments`
    refuses.

    The input's band is copied once, with its k=0 modes zeroed, so the
    caller's state is left as it is, and the reference to the input is
    dropped, so a caller that holds none frees it; the copy itself is
    freed once the first step replaces it.  Each step is one call
    of the module-level `step` with its ``dt`` and the run's `StepEngine`,
    made for the state's grid and entered with ``with``, so its pool is
    kept from step to step and released, and its helper thread joined,
    when the run returns or raises; each step forms its own stiff
    operator.  ``state_sink`` and the result get the run's current `State`
    itself; a step never writes into the arrays of a state it has
    returned.
    """
    check_run_arguments(state, p, variant, cfg, state_sink_interval,
                        state_sink)
    grid = state.grid
    current = State.from_band(map(_zero_mean_copy, state.arrays), grid,
                              variant, t=state.t)
    del state

    engine = StepEngine(grid)
    records: list[DiagnosticsRecord] = []
    steps = start_step or 0

    def result(status: RunStatus) -> RunResult:
        return RunResult(current, records, status, steps)

    def deliver(name: str, sink, *args) -> None:
        if sink is not None:
            try:
                sink(*args)
            except OSError as exc:
                raise SinkWriteError(f"{name} sink failed: {exc}") from exc

    def emit_record() -> None:
        rec = compute_record(current, p, settings, engine=engine)
        records.append(rec)
        deliver("diagnostics", record_sink, rec)

    next_record = _next_boundary(current.t, cfg.record_interval)
    next_state_dump = (None if state_sink_interval is None
                       else _next_boundary(current.t, state_sink_interval))
    t_tol = _end_tolerance(cfg.t_end)

    with engine:
        try:
            if start_step is None:
                emit_record()
            while current.t < cfg.t_end - t_tol:
                if steps >= cfg.max_steps:
                    return result(RunStatus.STEP_CAP)
                dt = min(stable_dt(current, p, grid, cfg, engine=engine),
                         cfg.t_end - current.t)
                current = step(current, p, variant, dt, engine=engine)
                steps += 1
                if current.t >= next_record - 1e-9 * cfg.record_interval:
                    emit_record()
                    next_record = _next_boundary(current.t,
                                                 cfg.record_interval)
                if next_state_dump is not None and current.t >= \
                        next_state_dump - 1e-9 * state_sink_interval:
                    deliver("state", state_sink, current, steps)
                    next_state_dump = _next_boundary(current.t,
                                                     state_sink_interval)
            return result(RunStatus.COMPLETED)
        except IntegrityError:
            return result(RunStatus.BLOW_UP)
