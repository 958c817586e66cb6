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
re-zeroed once per full step.

The step works on retained-band coefficients (see `spectral`).  At the
public API the state stays full-spectrum: `step` on a `State` gathers the
2/3-rule box on entry and expands the result on exit.  `run` is
band-resident: it takes the band of its input once and carries the
`BandState` from step to step, building a full-spectrum `State` only for
the state sink and its result.  Each explicit evaluation makes 27 pruned
real transforms of scalar fields, 108 per step; each is three 1D passes
(324 per step) over n^2 + n(kc+1) + (2kc+1)(kc+1) lines, kc = n//3.  Each
stage is freed after its last use (see `_step_arrays`).  Within an
evaluation the transforms run on two threads from n =
`spectral.SPLIT_MIN_N` up (`spectral.run_tasks`); the four stages stay
sequential, and a step's result is the single-thread one bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import StiffSymbols, explicit_rhs_arrays, stiff_symbols
from .fields import BandState, PhysParams, State, SystemVariant, as_band
from .norms import DiagnosticsRecord, DiagnosticsSettings, compute_record
from .spectral import (
    GridSpec,
    IntegrityError,
    project_coeffs,
    to_physical,
)


@dataclass(frozen=True)
class StepperConfig:
    """Base step, CFL safety factor, horizon, and diagnostics cadence.

    ``t_end=0`` is allowed and means "record the initial state only".
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
        if self.record_interval <= 0.0:
            raise ValueError("record_interval must be positive")


def stable_dt(state: State | BandState, p: PhysParams, grid: GridSpec,
              cfg: StepperConfig) -> float:
    """Largest step honouring the base step, the advective CFL bound, the
    micro-rotation coupling bound cfl/(6 chi + 1), and the background
    transport bound.  Floors at cfg.dt * 1e-6 with a warning.  Reads only
    the retained 2/3-rule box of the velocity: content outside it is
    dropped, as `run` does on entry."""
    u_phys = to_physical(as_band(state).u, grid)
    umax = float(np.sqrt((u_phys ** 2).sum(axis=0)).max())
    if not math.isfinite(umax):
        raise IntegrityError("non-finite velocity in stable_dt")

    h = grid.spacing
    cfl = cfg.cfl_advective
    chi = p.coupling_chi(state.variant)
    bounds = [cfg.dt, cfl / (6.0 * chi + 1.0)]
    if umax > 0.0:
        bounds.append(cfl * h / umax)
    if state.variant.uses_background:
        alpha_mag = math.sqrt(p.alpha_norm_sq)
        if alpha_mag > 0.0:
            bounds.append(cfl * h / alpha_mag)
    dt = min(bounds)
    floor = cfg.dt * 1e-6
    if dt < floor:
        warnings.warn(f"stable_dt floored at {floor:.3e} "
                      f"(computed bound {dt:.3e})")
        return floor
    return dt


def _axpy(y, x, c):
    return tuple(yi + c * xi for yi, xi in zip(y, x))


def _step_arrays(arrays, symbols: StiffSymbols, grid: GridSpec,
                 p: PhysParams, variant: SystemVariant, dt: float,
                 linearized: bool):
    """One step on retained-band arrays, with retained-band symbols;
    e_half and e_full are the Eh and Ef above.

    Each stage triple is released after its last use, and the Ef N1 +
    2 Eh (N2 + N3) part of the sum is formed before the fourth evaluation,
    so that evaluation runs with y0, Ef y0, that partial sum and y4 alive:
    four band triples besides its own temporaries.  The arithmetic and its
    order are those of the formulas above."""
    def explicit(u, w, m):
        return explicit_rhs_arrays(u, w, m, grid, p, variant,
                                   linearized=linearized)

    e_half, e_full = symbols.step_propagators(dt)

    n1 = explicit(*arrays)
    s2 = e_half.apply(*_axpy(arrays, n1, 0.5 * dt))
    n2 = explicit(*s2)
    del s2
    s3 = _axpy(e_half.apply(*arrays), n2, 0.5 * dt)
    n3 = explicit(*s3)
    del s3
    n23 = tuple(a + b for a, b in zip(n2, n3))
    del n2
    full_y0 = e_full.apply(*arrays)
    s4 = _axpy(full_y0, e_half.apply(*n3), dt)
    del n3
    accum = _axpy(e_full.apply(*n1), e_half.apply(*n23), 2.0)
    del n1, n23
    n4 = explicit(*s4)
    accum = _axpy(accum, n4, 1.0)
    out = _axpy(full_y0, accum, dt / 6.0)

    u_new = project_coeffs(out[0], grid.band)
    m_new = project_coeffs(out[2], grid.band)
    w_new = out[1]
    w_new[:, 0, 0, 0] = 0.0
    return u_new, w_new, m_new


def step(state: State | BandState, p: PhysParams, variant: SystemVariant,
         dt: float, linearized: bool = False,
         symbols: StiffSymbols | None = None) -> State | BandState:
    """Advance one integrating-factor RK4 step of size dt and return the
    new state of the same kind: a full-spectrum `State` for a `State`, a
    `BandState` for the `BandState` that `run` carries.  Reads only the
    retained 2/3-rule box of the state: content outside it is dropped, as
    `run` does on entry, and the new state is zero outside it.
    ``symbols`` may be full-layout (`stiff_symbols`) or band-layout."""
    if state.variant is not variant:
        raise ValueError(f"state is tagged {state.variant.value!r}, "
                         f"step was asked for {variant.value!r}")
    grid = state.grid
    if symbols is None:
        symbols = stiff_symbols(grid, p, variant)
    band = as_band(state)
    u, w, m = _step_arrays(band.arrays, symbols.band, grid, p, variant, dt,
                           linearized)
    for name, arr in (("u", u), ("omega", w), ("magnetic", m)):
        if not np.all(np.isfinite(arr)):
            raise IntegrityError(f"non-finite {name} after step")
    new = BandState(u, w, m, grid, variant, t=state.t + dt)
    return new if band is state else new.to_state()


class RunStatus(Enum):
    COMPLETED = "completed"
    STEP_CAP = "step_cap"
    BLOW_UP = "blow_up"


@dataclass
class RunResult:
    state: State
    records: list[DiagnosticsRecord]
    status: RunStatus
    steps: int
    failure_step: int | None = None


class SinkWriteError(OSError):
    """A diagnostics or checkpoint sink failed; partial results attached."""

    def __init__(self, message: str, result: RunResult):
        super().__init__(message)
        self.result = result


def _next_boundary(t: float, interval: float) -> float:
    return (math.floor(t / interval + 1e-9) + 1.0) * interval


def run(state: State, p: PhysParams, variant: SystemVariant,
        cfg: StepperConfig, settings: DiagnosticsSettings | None = None,
        record_sink=None, state_sink=None,
        state_sink_interval: float | None = None,
        initial_record: bool = True) -> RunResult:
    """Advance to t_end recording diagnostics every record_interval.

    Stops at t_end, at max_steps, or on a detected blow-up (the terminal
    status distinguishes the three): non-finite data in `stable_dt`, a
    step or a diagnostics record, with ``failure_step`` the number of
    steps taken before it.  ``state_sink`` is invoked with the
    current state every ``state_sink_interval`` of simulation time.
    Sink failures abort the run and raise SinkWriteError carrying the
    partial result.

    Band-resident: the retained box of the input is copied once, with its
    k=0 modes zeroed, and the reference to the input is dropped, so a
    caller that holds none frees the full-spectrum arrays.  Between steps
    only the `BandState` is kept; a full-spectrum `State` is built for each
    ``state_sink`` call and for the result's state (final, blow-up or
    sink-failure partial).  Each step is one call of the module-level
    `step` with its ``dt``.
    """
    if state.variant is not variant:
        raise ValueError("state variant does not match run variant")
    current = as_band(state)
    del state
    for c in current.arrays:
        c[:, 0, 0, 0] = 0.0
    grid = current.grid

    symbols = stiff_symbols(grid, p, variant).band
    records: list[DiagnosticsRecord] = []
    steps = 0

    def result(status: RunStatus, failure_step=None) -> RunResult:
        return RunResult(current.to_state(), records, status, steps,
                         failure_step)

    def emit_record() -> None:
        rec = compute_record(current, p, settings)
        records.append(rec)
        if record_sink is not None:
            try:
                record_sink(rec)
            except OSError as exc:
                raise SinkWriteError(f"diagnostics sink failed: {exc}",
                                     result(RunStatus.STEP_CAP)) from exc

    def emit_state() -> None:
        if state_sink is not None:
            try:
                state_sink(current.to_state(), steps)
            except OSError as exc:
                raise SinkWriteError(f"state sink failed: {exc}",
                                     result(RunStatus.STEP_CAP)) from exc

    next_record = _next_boundary(current.t, cfg.record_interval)
    next_state_dump = (None if state_sink_interval is None
                       else _next_boundary(current.t, state_sink_interval))
    t_tol = 1e-12 * max(1.0, cfg.t_end)

    try:
        if initial_record:
            emit_record()
        while current.t < cfg.t_end - t_tol:
            if steps >= cfg.max_steps:
                return result(RunStatus.STEP_CAP)
            dt = min(stable_dt(current, p, grid, cfg), cfg.t_end - current.t)
            current = step(current, p, variant, dt, symbols=symbols)
            steps += 1
            if current.t >= next_record - 1e-9 * cfg.record_interval:
                emit_record()
                next_record = _next_boundary(current.t, cfg.record_interval)
            if next_state_dump is not None and \
                    current.t >= next_state_dump - 1e-9 * state_sink_interval:
                emit_state()
                next_state_dump = _next_boundary(current.t,
                                                 state_sink_interval)
    except IntegrityError:
        return result(RunStatus.BLOW_UP, failure_step=steps)

    return result(RunStatus.COMPLETED)
