"""Built-in invariant suite: fast property checks on small grids, one
pass/fail line per property.  Covers the spectral identities, the energy
cancellations, the exact stiff propagation, and the I/O round-trips."""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import spectral
from .checkpoint import load_checkpoint, save_checkpoint
from .diagio import read_diagnostics, write_diagnostics
from .diophantine import check_diophantine
from .dynamics import advect, energy_flux_audit, rhs
from .fields import InitSpec, PhysParams, State, SystemVariant, make_random_state
from .integrator import StepperConfig, run, stable_dt, step
from .norms import DiagnosticsRecord, compute_record, fit_decay, sobolev_norm
from .spectral import (
    GridSpec,
    SpectralVectorField,
    alpha_dot_grad,
    band_part,
    curl,
    dealias,
    divergence,
    divergence_residual,
    forward_transform,
    grad_div,
    gradient,
    hermitian_symmetrize,
    inner_product,
    inverse_transform,
    leray_project,
    to_physical,
    to_spectral,
    zero_mean,
    zero_vector_field,
)

ZK = SystemVariant.ZERO_KINEMATIC
ZK_PARAMS = PhysParams(chi=1.0, eta=1.0, nu=1.0)


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((3, grid.n, grid.n, grid.n))
    return forward_transform(phys, grid)


def _bandlimited(grid, seed):
    return zero_mean(dealias(_random_field(grid, seed)))


def check_round_trip():
    grid = GridSpec(16)
    rng = np.random.default_rng(0)
    phys = rng.standard_normal((3,) + (grid.n,) * 3)
    err = np.abs(inverse_transform(forward_transform(phys, grid)) - phys).max()
    return err <= 1e-12 * np.abs(phys).max(), f"max error {err:.2e}"


def _slab_bytes(grid, planes):
    """The `spectral.SLAB_BYTES` that makes slabs of ``planes`` x1-planes
    on ``grid``."""
    return 8 * planes * grid.n ** 2


def check_band_fft_exact():
    # The step's pruned band transforms equal numpy's n-d real transforms
    # bit for bit only if numpy runs every 1D line the same way in both,
    # whether a pass runs over the whole grid or one slab of x1-planes at a
    # time, a property of the numpy build checked here on a dealiased field
    # with the grid as one slab and as slabs of 3 planes.
    grid = GridSpec(32)
    n, axes = grid.n, (-3, -2, -1)
    full = hermitian_symmetrize(_bandlimited(grid, 16).coeffs)
    saved, ok, details = spectral.SLAB_BYTES, True, []
    try:
        for planes in (n, 3):
            spectral.SLAB_BYTES = _slab_bytes(grid, planes)
            phys = to_physical(band_part(full, grid), grid)
            inverse = np.abs(phys - np.fft.irfftn(
                full[..., :n // 2 + 1], s=(n, n, n), axes=axes,
                norm="forward")).max()
            forward = np.abs(to_spectral(phys, grid) - band_part(
                np.fft.rfftn(phys, axes=axes, norm="forward"), grid)).max()
            ok &= inverse == 0.0 and forward == 0.0
            details.append(f"{planes}-plane slabs: inverse {inverse:.1e}, "
                           f"forward {forward:.1e}")
    finally:
        spectral.SLAB_BYTES = saved
    return ok, "max difference " + "; ".join(details)


def _state_bytes(state):
    return [a.tobytes() for a in state.arrays] + [state.t]


def check_threaded_bit_exact():
    # The step and the audit split their band transforms over threads from
    # a grid size up, the step its band-level stages over k1-row ranges
    # from another, and a run reuses one engine's buffers and helper
    # thread for all of its steps and records; that equals the
    # single-thread public calls bit for bit only if numpy computes every
    # 1D line and every element alike in any thread, in any buffer, in any
    # slice of it and in any slab of x1-planes, a property of the numpy
    # build checked here at 32^3 with both splits and slabs of 3 planes
    # engaged against one thread and the grid as one slab: one step and
    # audit, and a 3-step run against 3 public steps and their records.
    grid = GridSpec(32)
    full = SystemVariant.FULL
    p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
    state = make_random_state(grid, InitSpec(epsilon=1000.0, seed=17), full)
    cfg = StepperConfig(dt=1e-4, t_end=3e-4, record_interval=1e-4)
    saved = (spectral.WORKERS, spectral.SPLIT_MIN_N,
             spectral.ROW_SPLIT_MIN_N, spectral.SLAB_BYTES)
    results = []

    def engage(workers, planes):
        spectral.WORKERS = workers
        spectral.SLAB_BYTES = _slab_bytes(grid, planes)
    try:
        spectral.SPLIT_MIN_N = spectral.ROW_SPLIT_MIN_N = grid.n
        for workers, planes in ((1, grid.n), (2, 3)):
            engage(workers, planes)
            results.append((step(state, p, full, 1e-4),
                            energy_flux_audit(state, p, full)))
        # single thread: the steps of `run`, as public calls on `State`s
        engage(1, grid.n)
        states, records = [state], [compute_record(state, p)]
        while states[-1].t < cfg.t_end - 1e-12 * cfg.t_end:
            dt = min(stable_dt(states[-1], p, grid, cfg),
                     cfg.t_end - states[-1].t)
            states.append(step(states[-1], p, full, dt))
            records.append(compute_record(states[-1], p))
        engage(2, 3)
        result = run(state, p, full, cfg)
    finally:
        (spectral.WORKERS, spectral.SPLIT_MIN_N, spectral.ROW_SPLIT_MIN_N,
         spectral.SLAB_BYTES) = saved
    (serial, serial_audit), (threaded, threaded_audit) = results
    diff = max(np.abs(getattr(serial, name).coeffs
                      - getattr(threaded, name).coeffs).max()
               for name in ("u", "omega", "magnetic"))
    run_equal = (result.steps == len(states) - 1 == 3
                 and _state_bytes(result.state) == _state_bytes(states[-1])
                 and result.records == records)
    ok = diff == 0.0 and serial_audit == threaded_audit and run_equal
    return ok, (f"step max difference {diff:.1e}, audit "
                f"{'equal' if serial_audit == threaded_audit else 'differs'}"
                f", {result.steps}-step run "
                f"{'equal' if run_equal else 'differs'}")


def check_audit_pairings_exact():
    # The audit forms each cancellation pairing conj(a) b on the band and
    # sums its expansion over n^3, which equals the full-spectrum inner
    # product of the expanded fields bit for bit only if numpy computes
    # conj(a) b at a mirror mode -k as the exact conjugate of the product
    # at k, a property of the numpy build checked here at 32^3.
    grid = GridSpec(32)
    pert = SystemVariant.PERTURBATION
    p = PhysParams(chi=1.0, eta=1.0, alpha=(0.3, 0.4, 0.5), r=2.5)
    state = step(make_random_state(grid, InitSpec(epsilon=1000.0, seed=18),
                                   pert), p, pert, 1e-3)
    audit = energy_flux_audit(state, p, pert)
    u, w, m = state.u, state.omega, state.magnetic
    expected = {
        "advection_u": inner_product(advect(u, u), u),
        "advection_omega": inner_product(advect(u, w), w),
        "advection_magnetic": inner_product(advect(u, m), m),
        "lorentz_cancellation": (inner_product(advect(m, m), u)
                                 + inner_product(advect(m, u), m)),
        "alpha_cancellation": (inner_product(alpha_dot_grad(m, p.alpha), u)
                               + inner_product(alpha_dot_grad(u, p.alpha), m)),
        "curl_graddiv_omega": inner_product(curl(grad_div(w)), curl(w)),
    }
    differ = [name for name, value in expected.items()
              if getattr(audit, name) != value]
    return not differ, ("all six equal" if not differ
                        else "differ: " + ", ".join(differ))


def check_init_band_exact():
    # The random initial data is built on the retained band alone; that
    # equals the band of the same construction on the full spectrum bit for
    # bit only if numpy computes an element of an elementwise kernel alike
    # whatever array it sits in, a property of the numpy build checked here
    # at 16^3 on the kernels the construction uses.
    grid = GridSpec(16)
    rng = np.random.default_rng(19)
    shape = (3,) + (grid.n,) * 3
    z, w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    cases = {
        "exp": (np.exp, 1j * rng.uniform(0.0, 2.0 * np.pi, shape)),
        "complex *": (np.multiply, z, w),
        "complex /": (np.divide, z, w),
        "real **": (lambda x: x ** -1.7, rng.uniform(0.5, 100.0, shape)),
    }
    differ = [name for name, (kernel, *args) in cases.items()
              if kernel(*(band_part(a, grid) for a in args)).tobytes()
              != band_part(kernel(*args), grid).tobytes()]
    return not differ, ("all four equal" if not differ
                        else "differ: " + ", ".join(differ))


def check_parseval():
    grid = GridSpec(16)
    rng = np.random.default_rng(1)
    phys = rng.standard_normal((3,) + (grid.n,) * 3)
    f = forward_transform(phys, grid)
    quad = (2 * np.pi / grid.n) ** 3 * np.sum(phys ** 2)
    spectral_sum = inner_product(f, f)
    rel = abs(spectral_sum - quad) / quad
    return rel <= 1e-12, f"relative error {rel:.2e}"


def check_div_curl():
    grid = GridSpec(16)
    v = _bandlimited(grid, 2)
    res = np.abs(divergence(curl(v)).coeffs).max()
    scale = np.abs(v.coeffs).max()
    return res <= 1e-14 * scale, f"residual {res:.2e}"


def check_curl_grad():
    grid = GridSpec(16)
    s = zero_mean(dealias(forward_transform(
        np.random.default_rng(3).standard_normal((grid.n,) * 3), grid)))
    res = np.abs(curl(gradient(s)).coeffs).max()
    return res <= 1e-14 * max(np.abs(s.coeffs).max(), 1e-30), f"residual {res:.2e}"


def check_leray():
    grid = GridSpec(16)
    p = leray_project(_bandlimited(grid, 4))
    res = divergence_residual(p)
    pp = leray_project(p)
    drift = np.abs(pp.coeffs - p.coeffs).max() / np.abs(p.coeffs).max()
    ok = res <= 1e-12 and drift <= 1e-13
    return ok, f"divergence {res:.2e}, idempotence drift {drift:.2e}"


def check_dealias_idempotent():
    grid = GridSpec(8)
    f = _random_field(grid, 5)
    once = dealias(f)
    twice = dealias(once)
    return np.array_equal(once.coeffs, twice.coeffs), "exact"


def check_translation_equivariance():
    grid = GridSpec(16)
    rng = np.random.default_rng(6)
    phys = rng.standard_normal((grid.n,) * 3)
    f = forward_transform(phys, grid)
    shifted = forward_transform(np.roll(phys, -1, axis=0), grid)
    phase = np.exp(1j * grid.k_vectors[0] * grid.spacing)
    err = np.abs(shifted.coeffs - phase * f.coeffs).max()
    scale = np.abs(f.coeffs).max()
    return err <= 1e-12 * scale, f"max error {err:.2e}"


def check_advection_energy_neutral():
    grid = GridSpec(16)
    u = leray_project(_bandlimited(grid, 7))
    f = _bandlimited(grid, 8)
    flux = inner_product(advect(u, f), f)
    scale = inner_product(f, f)
    rel = abs(flux) / scale
    return rel <= 1e-10, f"relative flux {rel:.2e}"


def check_energy_cancellations():
    grid = GridSpec(16)
    state = make_random_state(grid, InitSpec(epsilon=0.5, seed=9), ZK)
    audit = energy_flux_audit(state, ZK_PARAMS, ZK)
    worst = audit.max_relative_cancellation
    return worst <= 1e-10, f"worst cancellation {worst:.2e}"


def check_magnetic_linearity():
    grid = GridSpec(16)
    state = make_random_state(grid, InitSpec(epsilon=0.1, seed=10), ZK)
    state = State(state.u, state.omega, zero_vector_field(grid), ZK)
    _, _, dm = rhs(state, ZK_PARAMS, ZK)
    res = np.abs(dm).max()
    return res == 0.0, f"magnetic tendency {res:.2e}"


def check_heat_exact():
    grid = GridSpec(16)
    x1, _, _ = grid.physical_coords()
    phys = np.zeros((3,) + (grid.n,) * 3)
    phys[2] = np.cos(x1)
    state = State(zero_vector_field(grid), zero_vector_field(grid),
                  forward_transform(phys, grid), ZK)
    for _ in range(10):
        state = step(state, ZK_PARAMS, ZK, 0.1)
    err = np.abs(inverse_transform(state.magnetic)
                 - np.exp(-1.0) * phys).max()
    return err <= 1e-10, f"max error {err:.2e}"


def check_step_divergence():
    grid = GridSpec(16)
    state = make_random_state(grid, InitSpec(epsilon=0.1, seed=11), ZK)
    for _ in range(3):
        state = step(state, ZK_PARAMS, ZK, 0.02)
    res = max(divergence_residual(state.u), divergence_residual(state.magnetic))
    return res <= 1e-11, f"residual {res:.2e}"


def check_norm_homogeneity():
    grid = GridSpec(16)
    f = _bandlimited(grid, 12)
    scaled = SpectralVectorField(2.5 * f.coeffs, grid)
    a = sobolev_norm(scaled, 3.0)
    b = 2.5 * sobolev_norm(f, 3.0)
    rel = abs(a - b) / b
    return rel <= 1e-13, f"relative error {rel:.2e}"


def check_norm_triangle():
    grid = GridSpec(16)
    f = _bandlimited(grid, 13)
    h = _bandlimited(grid, 14)
    total = SpectralVectorField(f.coeffs + h.coeffs, grid)
    gap = sobolev_norm(total, 3.0) - sobolev_norm(f, 3.0) - sobolev_norm(h, 3.0)
    return gap <= 1e-12, f"gap {gap:.2e}"


def check_fit_synthetic():
    t = np.linspace(0.0, 10.0, 50)
    report = fit_decay(t, 5.0 * np.exp(-0.3 * t), "exponential")
    ok = abs(report.rate - 0.3) <= 1e-6 and report.r_squared > 0.999999
    return ok, f"rate {report.rate:.8f}"


def check_diophantine_degenerate():
    a = check_diophantine((1.0, 0.0, 0.0), 2.5, 8)
    b = check_diophantine((1.0, 1.0, 0.0), 2.5, 8)
    return a.degenerate and b.degenerate, "axis and diagonal vectors flagged"


def check_diophantine_scaling():
    alpha = (1.0, np.sqrt(2.0), np.sqrt(3.0))
    base = check_diophantine(alpha, 2.5, 16)
    scaled = check_diophantine(tuple(2.0 * x for x in alpha), 2.5, 16)
    rel = abs(scaled.c_est - 2.0 * base.c_est) / (2.0 * base.c_est)
    return rel <= 1e-12, f"relative error {rel:.2e}"


def check_checkpoint_roundtrip():
    grid = GridSpec(8)
    state = make_random_state(grid, InitSpec(epsilon=0.1, seed=15), ZK)
    state = state.with_time(1.25)
    fd, path = tempfile.mkstemp(suffix=".mmp")
    os.close(fd)
    try:
        save_checkpoint(path, state, ZK_PARAMS, step=7, seed=15)
        data = load_checkpoint(path)
        ok = ([a.tobytes() for a in data.state.arrays]
              == [a.tobytes() for a in state.arrays]
              and data.state.t == state.t and data.step == 7
              and data.seed == 15)
    finally:
        os.unlink(path)
    return ok, "bit-exact"


def check_diagnostics_roundtrip():
    rec = DiagnosticsRecord(t=0.5, l2_energy=1.0 / 3.0, h3=np.pi,
                            div_u_max=1e-15, div_b_max=0.0, cancel_max=2e-12,
                            F_func=7.25)
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_diagnostics([rec], path)
        back = read_diagnostics(path)
    finally:
        os.unlink(path)
    return back == [rec], "bit-exact"


CHECKS = (
    ("transform-round-trip", check_round_trip),
    ("band-fft-exact", check_band_fft_exact),
    ("threaded-bit-exact", check_threaded_bit_exact),
    ("audit-pairings-exact", check_audit_pairings_exact),
    ("init-band-exact", check_init_band_exact),
    ("parseval", check_parseval),
    ("div-of-curl", check_div_curl),
    ("curl-of-grad", check_curl_grad),
    ("leray-projection", check_leray),
    ("dealias-idempotent", check_dealias_idempotent),
    ("translation-equivariance", check_translation_equivariance),
    ("advection-energy-neutral", check_advection_energy_neutral),
    ("energy-cancellations", check_energy_cancellations),
    ("magnetic-linearity", check_magnetic_linearity),
    ("exact-heat-decay", check_heat_exact),
    ("step-divergence-residual", check_step_divergence),
    ("norm-homogeneity", check_norm_homogeneity),
    ("norm-triangle", check_norm_triangle),
    ("decay-fit-synthetic", check_fit_synthetic),
    ("diophantine-degenerate", check_diophantine_degenerate),
    ("diophantine-scaling", check_diophantine_scaling),
    ("checkpoint-round-trip", check_checkpoint_roundtrip),
    ("diagnostics-round-trip", check_diagnostics_roundtrip),
)


def run_selftest() -> bool:
    """Run every property, printing a line each; True if all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return all_ok
