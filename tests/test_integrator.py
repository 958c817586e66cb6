"""Time stepping: exact stiff propagation, step-size control, fourth-order
accuracy against the per-mode matrix-exponential oracle, the driver, and
the run-scoped engine: its helper thread and its reused buffers."""

import inspect
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from linear_oracle import exact_linear_solution, stacked_error

from mmpsim import dynamics, integrator, spectral
from mmpsim.fields import InitSpec, PhysParams, State, SystemVariant, make_random_state
from mmpsim.integrator import (
    RunStatus,
    SinkWriteError,
    StepperConfig,
    _next_boundary,
    run,
    stable_dt,
    step,
)
from mmpsim.norms import DiagnosticsSettings, compute_record
from mmpsim.spectral import (
    GridSpec,
    IntegrityError,
    SpectralVectorField,
    StepEngine,
    dealias,
    divergence_residual,
    forward_transform,
    zero_mean,
    zero_vector_field,
)

ALPHA = tuple(0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0))
ZK = SystemVariant.ZERO_KINEMATIC
ZK_PARAMS = PhysParams(chi=1.0, eta=1.0, nu=1.0)


def zero_state(grid, variant=ZK):
    z = zero_vector_field(grid)
    return State(z, z, z, variant)


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=1.0, cfl_advective=1.5)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=1.0, record_interval=0.0)
        # 5e-324 is positive and finite, but t_end / 5e-324 overflows
        for value in (float("nan"), float("inf"), 5e-324):
            with pytest.raises(ValueError, match="record_interval"):
                StepperConfig(dt=0.1, t_end=1.0, record_interval=value)
        StepperConfig(dt=0.1, t_end=0.0, record_interval=5e-324)


class TestStableDt:
    def test_zero_state_returns_base_step(self):
        g = GridSpec(16)
        cfg = StepperConfig(dt=0.01, t_end=1.0, cfl_advective=0.5)
        assert stable_dt(zero_state(g), ZK_PARAMS, g, cfg) == 0.01

    def test_advective_bound(self):
        # max|u| = 1 on a 32-point axis with cfl 0.5 caps dt near 0.0982
        g = GridSpec(32)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[2] = np.sin(x1)
        u = forward_transform(phys, g)
        state = State(u, zero_vector_field(g), zero_vector_field(g), ZK)
        cfg = StepperConfig(dt=10.0, t_end=1.0, cfl_advective=0.5)
        got = stable_dt(state, PhysParams(eta=1.0, nu=1.0, chi=1e-9), g, cfg)
        assert got == pytest.approx(0.5 * (2 * np.pi / 32), rel=1e-6)

    def test_dominates_no_individual_bound(self):
        g = GridSpec(16)
        p = PhysParams(chi=1.0, eta=1.0, alpha=(0.5, 0.5, 0.5), r=2.5)
        state = make_random_state(g, InitSpec(epsilon=0.5, seed=0),
                                  SystemVariant.PERTURBATION)
        cfg = StepperConfig(dt=1.0, t_end=1.0, cfl_advective=0.5)
        got = stable_dt(state, p, g, cfg)
        from mmpsim.spectral import inverse_transform
        umax = np.sqrt((inverse_transform(state.u) ** 2).sum(axis=0)).max()
        h = 2 * np.pi / g.n
        assert got <= cfg.dt
        assert got <= 0.5 * h / umax + 1e-15
        assert got <= 0.5 / (6.0 + 1.0) + 1e-15
        assert got <= 0.5 * h / np.sqrt(0.75) + 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_fatal(self):
        g = GridSpec(8)
        bad = SpectralVectorField(
            np.full((3, 8, 8, 8), np.nan, dtype=complex), g)
        state = State(bad, zero_vector_field(g), zero_vector_field(g), ZK)
        cfg = StepperConfig(dt=0.1, t_end=1.0)
        with pytest.raises(IntegrityError):
            stable_dt(state, ZK_PARAMS, g, cfg)

    def test_floor_with_warning(self):
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[2] = 1e9 * np.sin(x1)
        u = forward_transform(phys, g)
        state = State(u, zero_vector_field(g), zero_vector_field(g), ZK)
        cfg = StepperConfig(dt=1.0, t_end=1.0)
        with pytest.warns(UserWarning):
            got = stable_dt(state, ZK_PARAMS, g, cfg)
        assert got == pytest.approx(1e-6)

    def test_grid_of_another_size_refused(self):
        state = make_random_state(GridSpec(8), InitSpec(epsilon=0.01, seed=1),
                                  ZK)
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        with pytest.raises(ValueError, match="grid of n=16 for a state on n=8"):
            stable_dt(state, ZK_PARAMS, GridSpec(16), cfg)


class TestStep:
    def test_pure_heat_decay_exact(self):
        # frozen u = omega = 0: the magnetic mode cos x1 decays as exp(-t)
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[2] = np.cos(x1)
        b = forward_transform(phys, g)
        state = State(zero_vector_field(g), zero_vector_field(g), b, ZK)
        dt = 0.05
        for _ in range(20):
            state = step(state, ZK_PARAMS, ZK, dt)
        expected = np.exp(-1.0) * phys
        from mmpsim.spectral import inverse_transform
        got = inverse_transform(state.magnetic)
        assert np.abs(got - expected).max() <= 1e-10
        assert np.abs(state.u.coeffs).max() == 0.0
        assert np.abs(state.omega.coeffs).max() == 0.0

    def test_zero_state_stays_zero(self):
        g = GridSpec(8)
        state = step(zero_state(g), ZK_PARAMS, ZK, 0.1)
        assert state.t == pytest.approx(0.1)
        assert np.abs(state.u.coeffs).max() == 0.0

    def test_divergence_preserved(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.1, seed=3), ZK)
        for _ in range(5):
            state = step(state, ZK_PARAMS, ZK, 0.02)
        assert divergence_residual(state.u) <= 1e-11
        assert divergence_residual(state.magnetic) <= 1e-11
        assert np.abs(state.u.coeffs[:, 0, 0, 0]).max() == 0.0

    @pytest.mark.parametrize("linearized", [False, True],
                             ids=["nonlinear", "linearized"])
    def test_four_explicit_evaluations_through_one_function(
            self, monkeypatch, linearized):
        # every stage's N goes through the public explicit_rhs_arrays; the
        # third writes N3 over its input y3, which it forms again
        original = integrator.explicit_rhs_arrays
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("again") is not None)
            return original(*args, **kwargs)
        monkeypatch.setattr(integrator, "explicit_rhs_arrays", counted)
        state = make_random_state(GridSpec(12), InitSpec(epsilon=1.0, seed=5),
                                  ZK)
        got = step(state, ZK_PARAMS, ZK, 0.01, linearized=linearized)
        assert calls == [False, False, True, False]
        want = oracle_step(state, ZK_PARAMS, ZK, 0.01, linearized)
        for a, b in zip(got.arrays, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_dt_not_positive_and_finite_is_refused(self, dt):
        # a negative dt applied the factors exp(+|dt| rate), which grow
        # with |k|^2, and 0 returned a copy stamped with the same t; the
        # refusal comes before the engine's pool holds anything
        state = make_random_state(GridSpec(8), InitSpec(epsilon=0.1, seed=3),
                                  ZK)
        with StepEngine(state.grid) as engine:
            with pytest.raises(ValueError, match="dt="):
                step(state, ZK_PARAMS, ZK, dt, engine=engine)
            assert engine.nbytes == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_detected(self):
        g = GridSpec(8)
        bad = SpectralVectorField(
            np.full((3, 8, 8, 8), np.inf, dtype=complex), g)
        state = State(bad, zero_vector_field(g), zero_vector_field(g), ZK)
        with pytest.raises(IntegrityError):
            step(state, ZK_PARAMS, ZK, 0.1)


ORACLE_CASES = [
    (SystemVariant.ZERO_KINEMATIC,
     PhysParams(chi=1.0, kappa=0.4, eta=1.0, nu=1.0)),
    (SystemVariant.PERTURBATION,
     PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)),
    (SystemVariant.FULL,
     PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)),
]


def oracle_step(state, p, variant, dt, linearized):
    """The integrator's formulas with a new array per operation: the
    explicit part N by the out-of-place `explicit_rhs_arrays`, Eh and Ef
    from new band symbols, and each sum, product and projection formed
    anew."""
    grid = state.grid
    symbols = dynamics.layout_stiff_symbols(grid.band, p, variant)
    e_half, e_full = symbols.propagator(0.5 * dt), symbols.propagator(dt)

    def explicit(y):
        return dynamics.explicit_rhs_arrays(*y, grid, p, variant,
                                            linearized=linearized)

    def axpy(y, x, c):
        return tuple(a + c * b for a, b in zip(y, x))

    y0 = state.arrays
    n1 = explicit(y0)
    n2 = explicit(e_half.apply(*axpy(y0, n1, 0.5 * dt)))
    n3 = explicit(axpy(e_half.apply(*y0), n2, 0.5 * dt))
    n4 = explicit(axpy(e_full.apply(*y0), e_half.apply(*n3), dt))
    accum = axpy(e_full.apply(*n1),
                 e_half.apply(*(a + b for a, b in zip(n2, n3))), 2.0)
    accum = tuple(a + b for a, b in zip(accum, n4))
    u, w, m = axpy(e_full.apply(*y0), accum, dt / 6.0)
    w[:, 0, 0, 0] = 0.0
    return (spectral.project_coeffs(u, grid.band), w,
            spectral.project_coeffs(m, grid.band))


class TestStepOracle:
    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    @pytest.mark.parametrize("linearized", [False, True],
                             ids=["nonlinear", "linearized"])
    @pytest.mark.parametrize("variant,params", ORACLE_CASES,
                             ids=[v.value for v, _ in ORACLE_CASES])
    @pytest.mark.parametrize("n", [8, 12, 16, 32, 48])
    def test_step_equals_the_formulas(self, monkeypatch, n, variant, params,
                                      linearized, split):
        # epsilon = 1000 makes the quadratic terms dominate every tendency;
        # the step writes its stages over each other in pool buffers, the
        # oracle makes a new array per operation
        monkeypatch.setattr(spectral, "WORKERS", 2)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        monkeypatch.setattr(spectral, "ROW_SPLIT_MIN_N",
                            8 if split else 10 ** 9)
        state = make_random_state(GridSpec(n), InitSpec(epsilon=1000.0,
                                                        seed=n), variant)
        got = step(state, params, variant, 1e-3, linearized=linearized)
        want = oracle_step(state, params, variant, 1e-3, linearized)
        for a, b in zip(got.arrays, want):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()


class TestLinearizedOrder:
    PARAMS = PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)
    VARIANT = SystemVariant.PERTURBATION

    def initial(self):
        g = GridSpec(8)
        return make_random_state(g, InitSpec(epsilon=0.1, seed=17),
                                 self.VARIANT)

    def advance(self, state, dt, n_steps):
        for _ in range(n_steps):
            state = step(state, self.PARAMS, self.VARIANT, dt, linearized=True)
        return state

    def test_local_error_fifth_order(self):
        state = self.initial()
        dt = 0.25
        err_full = stacked_error(
            self.advance(state, dt, 1),
            exact_linear_solution(state, self.PARAMS, self.VARIANT, dt))
        err_half = stacked_error(
            self.advance(state, dt / 2, 1),
            exact_linear_solution(state, self.PARAMS, self.VARIANT, dt / 2))
        assert err_full / err_half >= 15.0

    def test_global_convergence_slope(self):
        state = self.initial()
        t_final = 1.0
        exact = exact_linear_solution(state, self.PARAMS, self.VARIANT,
                                      t_final)
        dts = [2.0 ** -k for k in range(4, 9)]
        errors = []
        for dt in dts:
            n_steps = round(t_final / dt)
            errors.append(stacked_error(self.advance(state, dt, n_steps),
                                        exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 3.5 <= slope <= 4.5


class TestRun:
    def test_zero_horizon(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=5), ZK)
        cfg = StepperConfig(dt=0.05, t_end=0.0)
        result = run(state, ZK_PARAMS, ZK, cfg)
        assert result.status is RunStatus.COMPLETED
        assert result.steps == 0
        assert len(result.records) == 1
        assert np.array_equal(result.state.u.coeffs, state.u.coeffs)

    def test_short_decay_run(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=6), ZK)
        cfg = StepperConfig(dt=0.05, t_end=2.0, record_interval=0.25)
        result = run(state, ZK_PARAMS, ZK, cfg)
        assert result.status is RunStatus.COMPLETED
        assert result.state.t == pytest.approx(2.0, abs=1e-9)
        assert len(result.records) >= 8
        h3 = [r.h3 for r in result.records]
        assert h3[-1] < h3[0]
        energies = [r.l2_energy for r in result.records]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev * (1.0 + 1e-9)

    def test_step_cap(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=7), ZK)
        cfg = StepperConfig(dt=0.01, t_end=10.0, max_steps=3)
        result = run(state, ZK_PARAMS, ZK, cfg)
        assert result.status is RunStatus.STEP_CAP
        assert result.steps == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_status(self):
        g = GridSpec(8)
        bad = SpectralVectorField(
            np.full((3, 8, 8, 8), np.nan, dtype=complex), g)
        bad = SpectralVectorField(np.where(g.dealias_mask[None], bad.coeffs, 0.0), g)
        state = State(bad, zero_vector_field(g), zero_vector_field(g), ZK)
        cfg = StepperConfig(dt=0.05, t_end=1.0)
        result = run(state, ZK_PARAMS, ZK, cfg, initial_record=False)
        assert result.status is RunStatus.BLOW_UP
        assert result.failure_step == 0

    def test_non_finite_record_is_blow_up(self, monkeypatch):
        # the second record (after the first step) raises as compute_record
        # does on a non-finite entry: the run stops with the steps taken
        calls = []

        def failing_record(state, p, settings=None, engine=None):
            calls.append(state.t)
            if len(calls) == 2:
                raise IntegrityError("non-finite diagnostics entry l2_energy")
            return compute_record(state, p, settings, engine=engine)
        monkeypatch.setattr(integrator, "compute_record", failing_record)
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=5), ZK)
        cfg = StepperConfig(dt=0.05, t_end=1.0, record_interval=0.05)
        seen = []
        result = run(state, ZK_PARAMS, ZK, cfg, record_sink=seen.append)
        assert result.status is RunStatus.BLOW_UP
        assert result.steps == result.failure_step == 1
        assert len(result.records) == len(seen) == 1
        assert result.state.t == pytest.approx(0.05)

    def test_deterministic_trajectories(self):
        g = GridSpec(16)
        cfg = StepperConfig(dt=0.05, t_end=1.0)
        states = []
        for _ in range(2):
            state = make_random_state(g, InitSpec(epsilon=0.01, seed=8), ZK)
            states.append(run(state, ZK_PARAMS, ZK, cfg).state)
        assert np.array_equal(states[0].u.coeffs, states[1].u.coeffs)
        assert np.array_equal(states[0].omega.coeffs, states[1].omega.coeffs)
        assert np.array_equal(states[0].magnetic.coeffs,
                              states[1].magnetic.coeffs)

    def test_record_sink_receives_records(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=9), ZK)
        cfg = StepperConfig(dt=0.05, t_end=0.5, record_interval=0.1)
        seen = []
        result = run(state, ZK_PARAMS, ZK, cfg, record_sink=seen.append)
        assert len(seen) == len(result.records)

    # None: a sink without an interval used to be called never
    @pytest.mark.parametrize("interval", [0.0, float("nan"), -1.0,
                                          float("inf"), 5e-324, None])
    def test_bad_state_sink_interval_refused_before_the_first_record(
            self, interval):
        state = make_random_state(GridSpec(8), InitSpec(epsilon=0.01, seed=9),
                                  ZK)
        cfg = StepperConfig(dt=0.05, t_end=0.2, record_interval=0.05)
        records, sunk = [], []
        with pytest.raises(ValueError, match="state_sink_interval"):
            run(state, ZK_PARAMS, ZK, cfg, record_sink=records.append,
                state_sink=lambda s, n: sunk.append(n),
                state_sink_interval=interval)
        assert records == sunk == []

    @pytest.mark.parametrize("name", ["record_interval",
                                      "state_sink_interval"])
    def test_interval_the_start_time_overflows_is_refused(self, name):
        # t / interval overflows at t = 1e10 though t_end / interval does
        # not; the boundary count used to raise OverflowError
        state = make_random_state(GridSpec(8), InitSpec(epsilon=0.01, seed=9),
                                  ZK).with_time(1e10)
        tiny = {"record_interval": 1e-300, "state_sink_interval": 1e-300}
        normal = {"record_interval": 0.05, "state_sink_interval": 0.05}
        intervals = {**normal, name: tiny[name]}
        cfg = StepperConfig(dt=0.05, t_end=0.1,
                            record_interval=intervals["record_interval"])
        records, sunk = [], []
        with pytest.raises(ValueError, match=f"{name} .*t/{name} overflows"):
            run(state, ZK_PARAMS, ZK, cfg, record_sink=records.append,
                state_sink=lambda s, n: sunk.append(n),
                state_sink_interval=intervals["state_sink_interval"])
        assert records == sunk == []


PERT = SystemVariant.PERTURBATION
PERT_PARAMS = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)


# each public call that takes an engine, on a state and an engine
ENGINE_CALLS = {
    "step": lambda s, e: step(s, PERT_PARAMS, PERT, 0.01, engine=e),
    "stable_dt": lambda s, e: stable_dt(
        s, PERT_PARAMS, s.grid, StepperConfig(dt=0.01, t_end=1.0), engine=e),
    "explicit_rhs_arrays": lambda s, e: dynamics.explicit_rhs_arrays(
        *s.arrays, s.grid, PERT_PARAMS, PERT, engine=e),
    "energy_flux_audit": lambda s, e: dynamics.energy_flux_audit(
        s, PERT_PARAMS, PERT, engine=e),
    "compute_record": lambda s, e: compute_record(s, PERT_PARAMS, engine=e),
}


@pytest.mark.parametrize("call", ENGINE_CALLS)
def test_engine_of_another_grid_is_refused(call):
    # a 12^3 engine given a 16^3 state used to fail deep inside, on
    # "could not broadcast input array from shape (5,11,6) into shape
    # (5,9,5)"
    state = make_random_state(GridSpec(16), InitSpec(epsilon=1.0, seed=14),
                              PERT)
    with StepEngine(GridSpec(12)) as engine:
        with pytest.raises(ValueError, match="^an engine of n=12 cannot "
                                             "serve a grid of n=16$"):
            ENGINE_CALLS[call](state, engine)


def public_loop(state, p, variant, cfg, settings, sink_interval):
    """`run`'s loop written with the public full-spectrum calls:
    truncate to the dealiased box, then stable_dt + step + compute_record
    on `State`s.  Returns (state, records, sink calls, status, steps); on a
    blow-up the state is the last one before the failing step."""
    state = State(*(zero_mean(dealias(f))
                    for f in (state.u, state.omega, state.magnetic)),
                  state.variant, t=state.t)
    grid = state.grid
    records = [compute_record(state, p, settings)]
    sunk = []
    steps = 0
    next_record = _next_boundary(state.t, cfg.record_interval)
    next_dump = _next_boundary(state.t, sink_interval)
    while state.t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        try:
            dt = min(stable_dt(state, p, grid, cfg), cfg.t_end - state.t)
            state = step(state, p, variant, dt)
        except IntegrityError:
            return state, records, sunk, RunStatus.BLOW_UP, steps
        steps += 1
        if state.t >= next_record - 1e-9 * cfg.record_interval:
            records.append(compute_record(state, p, settings))
            next_record = _next_boundary(state.t, cfg.record_interval)
        if state.t >= next_dump - 1e-9 * sink_interval:
            sunk.append((state, steps))
            next_dump = _next_boundary(state.t, sink_interval)
    return state, records, sunk, RunStatus.COMPLETED, steps


def state_bytes(state):
    return [f.coeffs.tobytes() for f in (state.u, state.omega,
                                          state.magnetic)] + [state.t]


def record_engines(monkeypatch) -> list:
    """The `StepEngine`s that `run` makes from now on, in a list."""
    engines = []

    class Recorded(StepEngine):
        def __init__(self, grid):
            super().__init__(grid)
            engines.append(self)
    monkeypatch.setattr(integrator, "StepEngine", Recorded)
    return engines


class TestBandResidentRun:
    """`run` carries band states between steps; the states it hands out
    must be those of the public calls, bit for bit."""

    CASES = {
        # nonlinear, with the advective CFL bound setting dt on every step
        "zero-kinematic": (ZK, ZK_PARAMS, InitSpec(epsilon=300.0, seed=21)),
        "perturbation": (PERT, PERT_PARAMS,
                         InitSpec(epsilon=1.0, seed=22)),
    }

    @staticmethod
    def blow_up_state(variant):
        # a strong magnetic field and a weak velocity: stable_dt bounds dt
        # by |u| only, so the Alfven waves go unresolved and grow
        g = GridSpec(16)
        s = make_random_state(g, InitSpec(epsilon=1.0, seed=11), variant)
        return State(SpectralVectorField(1e-6 * s.u.coeffs, g), s.omega,
                     SpectralVectorField(1e4 * s.magnetic.coeffs, g),
                     variant)

    def test_forms_no_full_spectrum_wave_array(self):
        # the grid caches its full layout (with the n^3 arrays of |k|^2) and
        # the dealias mask when first asked; from the initial data to the
        # result nothing asks
        g = GridSpec(16)
        variant, p, init = self.CASES["perturbation"]
        result = run(make_random_state(g, init, variant), p, variant,
                     StepperConfig(dt=0.05, t_end=0.1, record_interval=0.05))
        assert result.steps == 2 and len(result.records) == 3
        assert not {"full", "dealias_mask"} & set(vars(g))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_public_calls(self, case):
        variant, p, init = self.CASES[case]
        state = make_random_state(GridSpec(16), init, variant)
        cfg = StepperConfig(dt=0.05, t_end=0.4, record_interval=0.1)
        settings = DiagnosticsSettings(hn_index=4.0)
        sunk = []
        result = run(state, p, variant, cfg, settings=settings,
                     state_sink=lambda s, n: sunk.append((s, n)),
                     state_sink_interval=0.15)
        ref_state, ref_records, ref_sunk, status, steps = public_loop(
            state, p, variant, cfg, settings, 0.15)
        assert result.status is status is RunStatus.COMPLETED
        assert result.steps == steps
        assert result.records == ref_records
        assert len(sunk) == len(ref_sunk) >= 2
        for (got, n), (want, m) in zip(sunk, ref_sunk):
            assert n == m
            assert state_bytes(got) == state_bytes(want)
        assert state_bytes(result.state) == state_bytes(ref_state)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("variant, p", [(ZK, ZK_PARAMS),
                                            (PERT, PERT_PARAMS)],
                             ids=["zero-kinematic", "perturbation"])
    def test_blow_up_partial_state_matches_public_calls(self, variant, p):
        state = self.blow_up_state(variant)
        cfg = StepperConfig(dt=0.05, t_end=5.0, record_interval=0.05)
        settings = DiagnosticsSettings()
        result = run(state, p, variant, cfg, settings=settings)
        ref_state, ref_records, _, status, steps = public_loop(
            state, p, variant, cfg, settings, 1.0)
        assert result.status is status is RunStatus.BLOW_UP
        assert result.failure_step == result.steps == steps >= 2
        assert result.records == ref_records
        assert state_bytes(result.state) == state_bytes(ref_state)

    def test_calls_module_step_once_per_step_with_its_dt(self, monkeypatch):
        # the benchmark harness times run() by wrapping the module-level
        # integrator.step and reading its dt argument
        original = integrator.step
        signature = inspect.signature(original)
        calls = []

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            out = original(*args, **kwargs)
            calls.append((bound["state"].t, bound["dt"], out.t))
            return out

        monkeypatch.setattr(integrator, "step", counting)
        variant, p, init = self.CASES["zero-kinematic"]
        state = make_random_state(GridSpec(16), init, variant)
        cfg = StepperConfig(dt=0.05, t_end=0.4, record_interval=0.1)
        result = run(state, p, variant, cfg)
        assert result.status is RunStatus.COMPLETED
        assert len(calls) == result.steps >= 2
        assert len({dt for _, dt, _ in calls}) > 1
        for t0, dt, t1 in calls:
            assert t1 == t0 + dt
        for (_, _, t1), (t0, _, _) in zip(calls, calls[1:]):
            assert t0 == t1
        assert calls[0][0] == 0.0 and calls[-1][2] == result.state.t

    def test_holds_no_full_spectrum_state_between_steps(self, monkeypatch):
        # at 32^3 a full-spectrum state is 4.72 MB and its band 0.73 MB;
        # measured between steps: 1.41 MB traced, 6.24 MB when run carried
        # a full State (and the caller's copy is not held here).  The run's
        # engine keeps its pool of band buffers between steps on purpose
        # (7 band vectors, 1.63 MB at 32^3); it is not counted here, and
        # is bounded below
        g = GridSpec(32)
        init = InitSpec(epsilon=0.01, seed=6)
        cfg = StepperConfig(dt=0.05, t_end=0.15, record_interval=0.05)
        # fill the grid's caches and the transforms' plans first
        run(make_random_state(g, init, ZK), ZK_PARAMS, ZK,
            StepperConfig(dt=0.05, t_end=0.05))
        engines = record_engines(monkeypatch)
        held, pooled = [], []

        def sink(rec):
            held.append(tracemalloc.get_traced_memory()[0] - base
                        - engines[0].nbytes)
            pooled.append(engines[0].nbytes)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run(make_random_state(g, init, ZK), ZK_PARAMS, ZK, cfg,
                         record_sink=sink, initial_record=False)
        finally:
            tracemalloc.stop()
        assert result.steps == len(held) == 3
        full_state = 3 * 3 * g.n ** 3 * 16
        assert max(held) <= full_state / 2
        band_vector = 3 * 21 * 21 * 11 * 16
        assert max(pooled) <= 7 * band_vector


    def test_caller_holding_its_state_adds_only_the_band(self):
        # tracemalloc peak of a 24^3 run from before its initial state is
        # made, the caller holding that state: 6.58 MB when a state held
        # the full spectrum (1.99 MB), 4.96 MB now (0.37 MB band)
        g = GridSpec(24)
        variant = SystemVariant.PERTURBATION
        p = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
        init = InitSpec(epsilon=0.01, sobolev_index=21.0, seed=2024)
        cfg = StepperConfig(dt=0.05, t_end=0.1, record_interval=0.05)
        # fill the grid's caches and the transforms' plans first
        run(make_random_state(g, init, variant), p, variant,
            StepperConfig(dt=0.05, t_end=0.05))
        tracemalloc.start()
        try:
            state = make_random_state(g, init, variant)
            result = run(state, p, variant, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps == 2
        assert peak <= 5.5e6

    def test_frees_its_initial_copy_after_the_first_step(self, monkeypatch):
        # run copies the input's band once; a loop variable over the copy
        # kept its magnetic band (1.86 MiB at 64^3) alive for the whole run
        original_step = integrator.step
        initial = []

        def first_input(state, *args, **kwargs):
            if not initial:
                initial.extend(weakref.ref(a) for a in state.arrays)
            return original_step(state, *args, **kwargs)
        monkeypatch.setattr(integrator, "step", first_input)
        alive = []
        state = make_random_state(GridSpec(16), InitSpec(epsilon=1.0, seed=15),
                                  ZK)
        result = run(state, ZK_PARAMS, ZK,
                     StepperConfig(dt=0.05, t_end=0.15, record_interval=0.05),
                     state_sink=lambda s, n: alive.append(
                         [ref() is not None for ref in initial]),
                     state_sink_interval=0.05)
        assert result.steps == 3 and len(initial) == 3
        assert alive == [[False] * 3] * 3


class _Stop(BaseException):
    """Raised from a sink: not an Exception, so nothing in run catches it."""


class TestRunEngine:
    """`run` keeps one `StepEngine` for the whole run: one helper thread,
    joined however the run ends, and grid buffers reused from step to
    step."""

    @staticmethod
    def count_starts(monkeypatch):
        starts = []
        original = threading.Thread.start

        def counted(thread):
            starts.append(thread)
            original(thread)
        monkeypatch.setattr(threading.Thread, "start", counted)
        return starts

    @pytest.mark.parametrize("n, helpers", [(24, 0), (26, 1)])
    def test_one_helper_thread_per_run_from_the_split_up(self, monkeypatch,
                                                         n, helpers):
        # the per-phase helpers of the per-call design started 8 threads
        # per step and 2 per record
        monkeypatch.setattr(spectral, "WORKERS", 2)
        assert spectral.SPLIT_MIN_N == 26
        state = make_random_state(GridSpec(n), InitSpec(epsilon=1.0, seed=8),
                                  PERT)
        starts = self.count_starts(monkeypatch)
        result = run(state, PERT_PARAMS, PERT,
                     StepperConfig(dt=0.05, t_end=0.15, record_interval=0.05))
        assert result.steps == 3 and len(result.records) == 4
        assert len(starts) == helpers

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ending", ["completed", "step_cap", "blow_up",
                                        "sink_error", "base_exception"])
    def test_helper_joined_however_the_run_ends(self, monkeypatch, ending):
        monkeypatch.setattr(spectral, "WORKERS", 2)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        starts = self.count_starts(monkeypatch)
        cfg = StepperConfig(dt=0.05, t_end=0.2, record_interval=0.05,
                            max_steps=2 if ending == "step_cap" else 100)
        state = (TestBandResidentRun.blow_up_state(ZK)
                 if ending == "blow_up" else
                 make_random_state(GridSpec(16), InitSpec(epsilon=1.0, seed=9),
                                   ZK))
        records = []

        def sink(rec):
            records.append(rec)
            if len(records) == 2 and ending == "sink_error":
                raise OSError("disk full")
            if len(records) == 2 and ending == "base_exception":
                raise _Stop()
        before = threading.active_count()
        if ending in ("sink_error", "base_exception"):
            with pytest.raises(SinkWriteError if ending == "sink_error"
                               else _Stop):
                run(state, ZK_PARAMS, ZK, cfg, record_sink=sink)
        else:
            cfg = StepperConfig(dt=0.05, t_end=5.0 if ending == "blow_up"
                                else 0.2, record_interval=0.05,
                                max_steps=cfg.max_steps)
            result = run(state, ZK_PARAMS, ZK, cfg, record_sink=sink)
            assert result.status.value == ending
        assert len(starts) == 1 and len(records) >= 2
        assert threading.active_count() == before
        assert not starts[0].is_alive()

    def test_audit_drops_grid_buffers_before_its_pairings(self,
                                                          monkeypatch):
        # the pairings expand band products to n^3 on the calling thread;
        # the run's grid buffers and workspaces are dropped first, so the
        # expansions can take their memory; the pool keeps the five band
        # buffers the audit advected into, which the next step reuses
        monkeypatch.setattr(spectral, "WORKERS", 2)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        engines = record_engines(monkeypatch)
        state = make_random_state(GridSpec(16), InitSpec(epsilon=1.0, seed=12),
                                  ZK)
        at_pairings, outs = [], []
        original_expand = spectral.expand_band

        def expand(c, grid, **buffers):
            (engine,) = engines
            at_pairings.append((len(engine._grid.arrays),
                                len(engine._workspaces),
                                len(engine._band.arrays)))
            outs.append(buffers["out"])
            return original_expand(c, grid, **buffers)
        monkeypatch.setattr(spectral, "expand_band", expand)
        result = run(state, ZK_PARAMS, ZK,
                     StepperConfig(dt=0.05, t_end=0.1, record_interval=0.05))
        assert result.steps == 2 and len(result.records) == 3
        # six pairings per record (no background field), all six expanded
        # into one buffer of the record's own
        assert len(at_pairings) == 3 * 6
        assert all(out is outs[6 * (i // 6)] for i, out in enumerate(outs))
        assert len({id(out) for out in outs}) == 3
        assert all(grid == 0 and workspaces == 0 and band == 5
                   for grid, workspaces, band in at_pairings)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_buffers_reused_at_every_step(self, monkeypatch, workers):
        # without a record or a state sink between steps, nothing makes the
        # engine release its pool, so every step transforms into the same
        # grid buffers.  Each one is kept alive here, so buffers allocated
        # per call could not reuse a freed address
        monkeypatch.setattr(spectral, "WORKERS", workers)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        per_step, stepping_now = [], []
        original_step = integrator.step
        original = spectral.BandWorkspace.to_physical

        def tracked(ws, c, out):
            if stepping_now:  # not stable_dt's transform between steps
                per_step[-1].append(out)
            original(ws, c, out)

        def stepping(*args, **kwargs):
            per_step.append([])
            stepping_now.append(True)
            try:
                return original_step(*args, **kwargs)
            finally:
                stepping_now.pop()
        monkeypatch.setattr(spectral.BandWorkspace, "to_physical", tracked)
        monkeypatch.setattr(integrator, "step", stepping)
        state = make_random_state(GridSpec(16), InitSpec(epsilon=1.0, seed=10),
                                  ZK)
        result = run(state, ZK_PARAMS, ZK,
                     StepperConfig(dt=0.05, t_end=0.2, record_interval=1.0),
                     initial_record=False)
        assert result.steps == len(per_step) == 4 and not result.records
        pointers = [{out.__array_interface__["data"][0] for out in outs}
                    for outs in per_step]
        # 9 transforms per evaluation: u and b into 6 grid buffers, each
        # omega_i into the grid buffer of the thread that draws it
        assert len(pointers[0]) == 6 + workers and len(per_step[0]) == 4 * 9
        assert all(p == pointers[0] for p in pointers)

    @pytest.mark.parametrize("workers, row_split", [(1, False), (2, False),
                                                     (2, True)])
    def test_pool_after_one_step(self, monkeypatch, workers, row_split):
        # grid: u and b (6), and one per thread (omega_i of a flux task);
        # the products are formed slab by slab, in one product slab per
        # thread.  band: the step's 6 pooled stage buffers (the third
        # triple is the new state) and one for the emf of an evaluation,
        # then for its linear parts and projection, and between
        # evaluations for the scratch of the row tasks, which each take
        # their rows of it (10 before the third evaluation wrote over its
        # input).  Each block of propagations forms its factors in 2 of
        # the idle grid buffers, and the third evaluation forms y3 again in
        # 4 of them (3 band vectors and Eh), so neither adds any
        monkeypatch.setattr(spectral, "WORKERS", workers)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        monkeypatch.setattr(spectral, "ROW_SPLIT_MIN_N",
                            8 if row_split else 10 ** 9)
        for n in (12, 16):
            g = GridSpec(n)
            state = make_random_state(g, InitSpec(epsilon=1.0, seed=14),
                                      PERT)
            with StepEngine(g) as engine:
                step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
                assert engine.threads == workers
                assert len(engine.band_rows) == (2 if row_split else 1)
                assert len(engine._grid.arrays) == 6 + workers
                assert len(engine._slab.arrays) == workers
                assert len(engine._band.arrays) == 7

    def test_record_after_a_step_holds_the_audits_band_buffers(self,
                                                               monkeypatch):
        # the audit releases the pool before its transforms: of a step's 7
        # band buffers only the 5 it advects into are pooled while its 12
        # grid buffers exist, and the next step takes the other 2 anew (5
        # when a step held 10)
        monkeypatch.setattr(spectral, "WORKERS", 2)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=16), PERT)
        in_audit = []
        original = spectral.BandWorkspace.to_physical
        with StepEngine(g) as engine:
            def tracked(ws, c, out):
                in_audit.append((len(engine._band.arrays),
                                 len(engine._grid.arrays)))
                original(ws, c, out)
            state = step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
            assert len(engine._band.arrays) == 7
            monkeypatch.setattr(spectral.BandWorkspace, "to_physical",
                                tracked)
            compute_record(state, PERT_PARAMS, engine=engine)
            monkeypatch.setattr(spectral.BandWorkspace, "to_physical",
                                original)
            # 33 inverse transforms: u and b, then 3 per component of the
            # five advected fields
            assert in_audit == [(5, 12)] * 33
            assert len(engine._band.arrays) == 5
            step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
            assert len(engine._band.arrays) == 7

    def test_audit_takes_the_memory_of_the_idle_slabs(self, monkeypatch):
        # the audit forms no product and needs more grid buffers than a
        # step: it releases the pool, the step's product slabs included,
        # before it makes them, and a step after the audit takes its slabs
        # anew
        monkeypatch.setattr(spectral, "WORKERS", 2)
        monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=15), PERT)
        slabs_in_audit = []
        original = spectral.BandWorkspace.to_physical
        with StepEngine(g) as engine:
            def tracked(ws, c, out):
                slabs_in_audit.append(len(engine._slab.arrays))
                original(ws, c, out)
            step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
            assert len(engine._slab.arrays) == 2
            monkeypatch.setattr(spectral.BandWorkspace, "to_physical",
                                tracked)
            dynamics.energy_flux_audit(state, PERT_PARAMS, PERT, engine=engine)
            monkeypatch.setattr(spectral.BandWorkspace, "to_physical",
                                original)
            assert slabs_in_audit and not any(slabs_in_audit)
            step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
            assert len(engine._slab.arrays) == 2

    def test_step_result_is_not_in_the_pool(self):
        # the step writes its new state into arrays of its own, so no later
        # use of the engine's buffers can reach a state it returned
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=13), PERT)
        with StepEngine(g) as engine:
            for _ in range(3):
                state = step(state, PERT_PARAMS, PERT, 0.05, engine=engine)
                kept = [a.copy() for a in state.arrays]
                with engine.scope():
                    # more than the 7 band buffers a step takes
                    for buffer in engine.band_buffers(24):
                        assert not any(np.shares_memory(buffer, a)
                                       for a in state.arrays)
                        buffer.fill(np.nan)
                for a, b in zip(state.arrays, kept):
                    assert a.tobytes() == b.tobytes()
