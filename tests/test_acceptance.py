"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

The two desk-scale decay runs (32^3) are module-scoped fixtures shared by
the energy-monotonicity and decay criteria; they dominate the runtime
(several minutes total).
"""

import time

import numpy as np
import pytest

from acceptance_report import report
from linear_oracle import exact_linear_solution, stacked_error

from mmpsim import (
    ConfigError,
    DiagnosticsSettings,
    GridSpec,
    InitSpec,
    PhysParams,
    State,
    StepperConfig,
    SystemVariant,
    check_diophantine,
    energy_flux_audit,
    fit_decay,
    lifting_ratio,
    load_checkpoint,
    make_random_state,
    parse_config,
    run,
    save_checkpoint,
    step,
)
from mmpsim.spectral import (
    curl,
    divergence,
    divergence_residual,
    forward_transform,
    gradient,
    inner_product,
    inverse_transform,
    dealias,
    leray_project,
    l2_norm,
    zero_mean,
    zero_vector_field,
)

ALPHA = tuple(0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0))
ZK = SystemVariant.ZERO_KINEMATIC
PERT = SystemVariant.PERTURBATION
ZK_PARAMS = PhysParams(chi=1.0, eta=1.0, nu=1.0)
PERT_PARAMS = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
SEED = 2024


@pytest.fixture(scope="module")
def zk_run():
    grid = GridSpec(32)
    state = make_random_state(grid, InitSpec(epsilon=0.01, seed=SEED), ZK)
    cfg = StepperConfig(dt=0.05, t_end=20.0, record_interval=0.25)
    start = time.monotonic()
    result = run(state, ZK_PARAMS, ZK, cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def pert_run():
    grid = GridSpec(32)
    state = make_random_state(
        grid, InitSpec(epsilon=0.01, sobolev_index=21.0, seed=SEED), PERT)
    cfg = StepperConfig(dt=0.05, t_end=50.0, record_interval=0.25)
    start = time.monotonic()
    result = run(state, PERT_PARAMS, PERT, cfg,
                 settings=DiagnosticsSettings(hn_index=21.0))
    return result, time.monotonic() - start


def test_criterion_1_spectral_identity_suite():
    """div(curl)=0, curl(grad)=0, Leray idempotence, Parseval, round trip:
    all <= 1e-12 relative on 16^3 seeded random fields, under 5 s."""
    start = time.monotonic()
    grid = GridSpec(16)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(3):
        phys = rng.standard_normal((3,) + (grid.n,) * 3)
        v = forward_transform(phys, grid)

        back = inverse_transform(v)
        worst = max(worst, np.abs(back - phys).max() / np.abs(phys).max())

        quad = (2 * np.pi / grid.n) ** 3 * np.sum(phys ** 2)
        worst = max(worst, abs(inner_product(v, v) - quad) / quad)

        band = zero_mean(dealias(v))
        scale = np.abs(band.coeffs).max()
        worst = max(worst,
                    np.abs(divergence(curl(band)).coeffs).max() / scale)
        s = forward_transform(phys[0], grid)
        worst = max(worst, np.abs(curl(gradient(s)).coeffs).max()
                    / np.abs(s.coeffs).max())

        p = leray_project(band)
        worst = max(worst, divergence_residual(p))
        pp = leray_project(p)
        worst = max(worst, np.abs(pp.coeffs - p.coeffs).max()
                    / np.abs(p.coeffs).max())
    wall = time.monotonic() - start
    ok = worst <= 1e-12 and wall < 5.0
    report("1 spectral-identity-suite",
           ok, f"worst residual {worst:.2e}, {wall:.2f}s")
    assert worst <= 1e-12
    assert wall < 5.0


def test_criterion_2_cancellation_identities():
    """The curl/grad-div orthogonality and the two transport cancellation
    pairs vanish to 1e-10 relative on dealiased divergence-free 32^3
    random states."""
    grid = GridSpec(32)
    worst = 0.0
    for seed, variant, params in ((SEED, ZK, ZK_PARAMS),
                                  (SEED + 1, PERT, PERT_PARAMS)):
        state = make_random_state(grid, InitSpec(epsilon=0.5, seed=seed),
                                  variant)
        audit = energy_flux_audit(state, params, variant)
        energy = audit.l2_energy_sq
        entries = [audit.lorentz_cancellation, audit.curl_graddiv_omega,
                   audit.advection_u, audit.advection_omega,
                   audit.advection_magnetic]
        if audit.alpha_cancellation is not None:
            entries.append(audit.alpha_cancellation)
        worst = max(worst, max(abs(e) for e in entries) / energy)
    ok = worst <= 1e-10
    report("2 cancellation-identities", ok, f"worst cancellation {worst:.2e}")
    assert worst <= 1e-10


@pytest.mark.slow
def test_criterion_3_energy_monotonicity(zk_run, pert_run):
    """Recorded L2 energy is non-increasing for both decay variants, with
    per-sample violations <= 1e-9 relative."""
    worst = -np.inf
    for result, _ in (zk_run, pert_run):
        energy = np.array([r.l2_energy for r in result.records])
        worst = max(worst, float(np.max(np.diff(energy) / energy[:-1])))
    ok = worst <= 1e-9
    report("3 energy-monotonicity", ok,
           f"worst relative increase {worst:.2e}")
    assert worst <= 1e-9


@pytest.mark.slow
def test_criterion_4_zero_kinematic_decay(zk_run):
    """Zero-kinematic-viscosity run: H3 strictly decreasing after t=1,
    exponential fit on [2,20] with positive rate and R^2 >= 0.99, the
    curl-energy functional monotone after the transient, within 15 min."""
    result, wall = zk_run
    times = np.array([r.t for r in result.records])
    h3 = np.array([r.h3 for r in result.records])
    f_func = np.array([r.F_func for r in result.records])

    late = times >= 1.0
    h3_worst = float(np.max(np.diff(h3[late]) / h3[late][:-1]))
    f_worst = float(np.max(np.diff(f_func[late]) / f_func[late][:-1]))
    fit = fit_decay(times, h3, "exponential", t_min=2.0)

    ok = (h3_worst < -1e-9 and f_worst < -1e-9 and fit.rate > 0.0
          and fit.r_squared >= 0.99 and wall <= 900.0)
    report("4 zero-kinematic-decay", ok,
           f"rate {fit.rate:.4f}, R2 {fit.r_squared:.6f}, "
           f"h3 worst step {h3_worst:.2e}, F worst step {f_worst:.2e}, "
           f"{wall:.0f}s")
    assert h3_worst < -1e-9, "H3 must strictly decrease after t=1"
    assert f_worst < -1e-9, "F must decrease after the transient"
    assert fit.rate > 0.0
    assert fit.r_squared >= 0.99
    assert wall <= 900.0


@pytest.mark.slow
def test_criterion_5_perturbation_boundedness(pert_run):
    """Perturbation run: H^(r+5) of (u, omega, B) never exceeds its initial
    value, within 30 min."""
    result, wall = pert_run
    hr5 = np.array([r.hr5 for r in result.records])
    excess = float(hr5.max() / hr5[0] - 1.0)
    ok = excess <= 1e-9 and wall <= 1800.0
    report("5a perturbation-boundedness", ok,
           f"max/initial - 1 = {excess:.2e}, {wall:.0f}s")
    assert excess <= 1e-9
    assert wall <= 1800.0


@pytest.mark.slow
def test_criterion_5_perturbation_envelope(pert_run):
    """Window peaks of H^(r+5) are non-increasing (ten equal windows)."""
    result, _ = pert_run
    times = np.array([r.t for r in result.records])
    hr5 = np.array([r.hr5 for r in result.records])
    bounds = np.linspace(times[0], times[-1], 11)
    peaks = [hr5[(times >= a) & (times <= b)].max()
             for a, b in zip(bounds, bounds[1:])]
    worst = max(b / a - 1.0 for a, b in zip(peaks, peaks[1:]))
    ok = worst <= 1e-6
    report("5b perturbation-envelope", ok,
           f"worst window-peak increase {worst:.2e}")
    assert worst <= 1e-6


@pytest.mark.slow
def test_criterion_5_perturbation_decay_fit(pert_run):
    """Fitted algebraic exponent <= -1.0 on t in [2,50], or a genuine
    exponential fit (positive rate, R^2 >= 0.99 as in the exponential-decay
    criterion).

    Expected to fail: on the truncated lattice the magnetic modes with
    small |alpha.k| decay at rate (alpha.k)^2 / (chi |k|^2), and the
    surviving weight fraction at time t scales like sqrt(chi/t)/|alpha| on
    every shell, an envelope near t^(-1/4) regardless of the initial
    spectrum; the measured exponent sits near -0.27 for every seed and
    spectral envelope tried, and the exponential model fits worse than the
    algebraic one.
    """
    result, _ = pert_run
    times = np.array([r.t for r in result.records])
    hr5 = np.array([r.hr5 for r in result.records])
    alg = fit_decay(times, hr5, "algebraic", t_min=2.0)
    exp = fit_decay(times, hr5, "exponential", t_min=2.0)
    ok = alg.exponent <= -1.0 or (exp.rate > 0.0 and exp.r_squared >= 0.99)
    report("5c perturbation-decay-fit", ok,
           f"algebraic exponent {alg.exponent:.3f} (R2 {alg.r_squared:.4f}), "
           f"exponential rate {exp.rate:.4f} (R2 {exp.r_squared:.4f})")
    assert ok, (
        f"neither decay clause holds: algebraic exponent {alg.exponent:.3f} "
        f"> -1.0 and exponential fit R2 {exp.r_squared:.4f} < 0.99 "
        f"(rate {exp.rate:.4f}); the truncated-lattice envelope is near "
        f"t^(-1/4) for generic data")


@pytest.mark.slow
def test_criterion_6_magnetic_linearity():
    """Zero-kinematic variant with zero initial magnetic field keeps
    ||b||_L2 <= 1e-13 over 1000 steps."""
    grid = GridSpec(16)
    base = make_random_state(grid, InitSpec(epsilon=0.01, seed=SEED), ZK)
    state = State(base.u, base.omega, zero_vector_field(grid), ZK)
    worst = 0.0
    for _ in range(1000):
        state = step(state, ZK_PARAMS, ZK, 0.01)
        worst = max(worst, l2_norm(state.magnetic))
    ok = worst <= 1e-13
    report("6 magnetic-linearity", ok, f"max ||b||_L2 = {worst:.2e}")
    assert worst <= 1e-13


def test_criterion_7_integrator_order():
    """Global convergence slope in [3.5, 4.5] against the 9x9 per-mode
    matrix-exponential oracle on the linearized system, 8^3 grid,
    dt in {2^-4 .. 2^-8}."""
    params = PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)
    grid = GridSpec(8)
    state0 = make_random_state(grid, InitSpec(epsilon=0.1, seed=SEED), PERT)
    t_final = 1.0
    exact = exact_linear_solution(state0, params, PERT, t_final)
    dts = [2.0 ** -k for k in range(4, 9)]
    errors = []
    for dt in dts:
        state = state0
        for _ in range(round(t_final / dt)):
            state = step(state, params, PERT, dt, linearized=True)
        errors.append(stacked_error(state, exact))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = 3.5 <= slope <= 4.5
    report("7 integrator-order", ok, f"observed slope {slope:.3f}")
    assert 3.5 <= slope <= 4.5


def test_criterion_8_diophantine():
    """Degenerate vectors flagged; c_est non-increasing as the radius
    doubles; lifting-ratio trial maxima below the closed-form bound."""
    deg_a = check_diophantine((1.0, 1.0, 0.0), 2.5, 16)
    deg_b = check_diophantine((1.0, 0.0, 0.0), 2.5, 16)
    irrational = (1.0, np.sqrt(2.0), np.sqrt(3.0))
    c_values = [check_diophantine(irrational, 2.5, k).c_est
                for k in (16, 32, 64)]
    monotone = c_values[0] >= c_values[1] >= c_values[2] > 0.0
    ratio = lifting_ratio(irrational, s=0.0, r=2.5, grid=GridSpec(16),
                          trials=50, seed=SEED)
    below = ratio.max_ratio <= ratio.mode_bound * (1.0 + 1e-10)
    ok = deg_a.degenerate and deg_b.degenerate and monotone and below
    report("8 diophantine", ok,
           f"degenerate flags ({deg_a.degenerate}, {deg_b.degenerate}), "
           f"c_est {c_values[0]:.4f} >= {c_values[1]:.4f} >= "
           f"{c_values[2]:.4f}, trial max {ratio.max_ratio:.4f} <= "
           f"bound {ratio.mode_bound:.4f}")
    assert deg_a.degenerate and deg_b.degenerate
    assert monotone
    assert below


def test_criterion_9_checkpoint_and_config(tmp_path):
    """Checkpoint round-trip is bit-exact; strict perturbation configs with
    |alpha|^2 >= chi are rejected."""
    grid = GridSpec(16)
    state = make_random_state(grid, InitSpec(epsilon=0.01, seed=SEED),
                              ZK).with_time(3.5)
    path = tmp_path / "state.mmp"
    save_checkpoint(path, state, ZK_PARAMS, step=70, seed=SEED)
    data = load_checkpoint(path)
    bit_exact = (np.array_equal(data.state.u.coeffs, state.u.coeffs)
                 and np.array_equal(data.state.omega.coeffs,
                                    state.omega.coeffs)
                 and np.array_equal(data.state.magnetic.coeffs,
                                    state.magnetic.coeffs)
                 and data.state.t == state.t)

    rejected = False
    try:
        parse_config("""
grid.n = 16
system = perturbation
params.chi = 1
params.eta = 1
alpha = 1,1,1
init.epsilon = 0.01
time.t_end = 1
""")
    except ConfigError as exc:
        rejected = any("|alpha|^2" in e for e in exc.errors)

    ok = bit_exact and rejected
    report("9 checkpoint-and-config", ok,
           f"round-trip bit-exact {bit_exact}, structure-condition "
           f"rejection {rejected}")
    assert bit_exact
    assert rejected
