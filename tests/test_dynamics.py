"""RHS assembly: advection kernel vs direct convolution, stiff/explicit
recombination vs a monolithic evaluation, the retained-band step's layout
conversions, FFT budget and working set, the split of the band transforms
over threads, and the energy-flux audit."""

import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from mmpsim import dynamics, spectral
from mmpsim.dynamics import (
    _SYM_PAIRS,
    _SYM_ROWS,
    advect,
    band_propagators,
    energy_flux_audit,
    explicit_rhs_arrays,
    layout_stiff_symbols,
    rhs,
    stiff_symbols,
)
from mmpsim.fields import (
    InitSpec,
    PhysParams,
    State,
    SystemVariant,
    make_random_state,
)
from mmpsim.integrator import StepperConfig, run, step
from mmpsim.norms import compute_record
from mmpsim.spectral import (
    TWO_PI_CUBED,
    GridSpec,
    SpectralScalarField,
    SpectralVectorField,
    alpha_dot_grad,
    alpha_symbol,
    curl,
    dealias,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    band_part,
    curl_coeffs,
    expand_band,
    forward_transform,
    hermitian_symmetrize,
    laplacian,
    grad_div,
    k_dot,
    leray_project,
    parallel_part,
    project_coeffs,
    to_physical,
    to_spectral,
    zero_mean,
    zero_vector_field,
)

ALPHA = tuple(0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0))

# each public solver call as (state, p, variant) -> result, by name
SOLVER_CALLS = {
    "rhs": rhs,
    "step": lambda state, p, variant: step(state, p, variant, 0.01),
    "run": lambda state, p, variant: run(
        state, p, variant, StepperConfig(dt=0.01, t_end=0.01)),
    "energy_flux_audit": energy_flux_audit,
    "compute_record": lambda state, p, variant: compute_record(state, p),
}


def force_threads(monkeypatch, workers):
    """Make every `StepEngine` use ``workers`` threads on every grid
    size."""
    monkeypatch.setattr(spectral, "WORKERS", workers)
    monkeypatch.setattr(spectral, "SPLIT_MIN_N", 8)


def random_bandlimited(grid, seed):
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((3, grid.n, grid.n, grid.n))
    return zero_mean(dealias(forward_transform(phys, grid)))


def sine_column(grid):
    x1, _, _ = grid.physical_coords()
    phys = np.zeros((3, grid.n, grid.n, grid.n))
    phys[2] = np.sin(x1)
    return forward_transform(phys, grid)


class TestAdvect:
    def test_zero_velocity(self):
        g = GridSpec(8)
        f = random_bandlimited(g, 0)
        out = advect(zero_vector_field(g), f)
        assert np.abs(out.coeffs).max() == 0.0

    def test_transport_along_ignored_axis(self):
        # v = f = (0, 0, sin x1): (v.grad)f = sin x1 * d/dx3 f = 0
        g = GridSpec(16)
        v = sine_column(g)
        out = advect(v, v)
        assert np.abs(out.coeffs).max() < 1e-15

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            advect(zero_vector_field(GridSpec(8)),
                   zero_vector_field(GridSpec(16)))

    def test_matches_convolution_oracle(self):
        g = GridSpec(8)
        v = random_bandlimited(g, 31)
        f = random_bandlimited(g, 32)
        out = advect(v, f)

        kc = g.kmax_dealias
        modes = [(a, b, c)
                 for a in range(-kc, kc + 1)
                 for b in range(-kc, kc + 1)
                 for c in range(-kc, kc + 1)]
        oracle = np.zeros((3, g.n, g.n, g.n), dtype=complex)
        for i in range(3):
            for p in modes:
                vp = v.coeffs[:, p[0], p[1], p[2]]
                for q in modes:
                    k = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
                    if max(abs(k[0]), abs(k[1]), abs(k[2])) > kc:
                        continue
                    fq = f.coeffs[i, q[0], q[1], q[2]]
                    oracle[i][k] += (vp[0] * q[0] + vp[1] * q[1]
                                     + vp[2] * q[2]) * 1j * fq
        scale = np.abs(oracle).max()
        assert np.abs(out.coeffs - oracle).max() <= 1e-12 * scale


def monolithic_rhs(state, p, variant):
    """Independent one-pass assembly of the full tendency from the public
    spectral operators."""
    grid = state.grid
    u, w, m = state.u, state.omega, state.magnetic
    chi = p.coupling_chi(variant)

    du = SpectralVectorField(
        -advect(u, u).coeffs + advect(m, m).coeffs
        + 2.0 * chi * curl(w).coeffs, grid)
    dm = SpectralVectorField(
        -advect(u, m).coeffs + advect(m, u).coeffs, grid)
    if variant.uses_background:
        du = SpectralVectorField(
            du.coeffs + alpha_dot_grad(m, p.alpha_vector).coeffs, grid)
        dm = SpectralVectorField(
            dm.coeffs + alpha_dot_grad(u, p.alpha_vector).coeffs, grid)
    du = leray_project(du).coeffs + p.u_diffusion(variant) * laplacian(u).coeffs
    dm = leray_project(dm).coeffs \
        + p.magnetic_diffusion(variant) * laplacian(m).coeffs

    dw = (-advect(u, w).coeffs + 2.0 * chi * curl(u).coeffs
          - 4.0 * chi * w.coeffs + p.kappa * grad_div(w).coeffs
          + p.eta * laplacian(w).coeffs)
    dw[:, 0, 0, 0] = 0.0
    return du, dw, dm


def stacked_quadratic_terms(u_hat, w_hat, m_hat, grid):
    """The quadratic terms with the 6 stress, 9 flux and 3 emf products each
    formed and transformed as one stack: the same products and 1D lines as
    `explicit_rhs_arrays`, which forms and transforms them one at a
    time."""
    band = grid.band
    u, w, b = (to_physical(c, grid) for c in (u_hat, w_hat, m_hat))
    stress = to_spectral(np.stack([u[i] * u[j] - b[i] * b[j]
                                   for i, j in _SYM_PAIRS]), grid)
    div_stress = np.stack([k_dot(stress[list(row)], band) for row in _SYM_ROWS])
    flux = to_spectral(u[:, None] * w[None, :], grid)
    emf = to_spectral(np.stack([u[1] * b[2] - u[2] * b[1],
                                u[2] * b[0] - u[0] * b[2],
                                u[0] * b[1] - u[1] * b[0]]), grid)
    return (-1j * div_stress, -1j * k_dot(flux, band), curl_coeffs(emf, band))


def stacked_explicit_rhs(u_hat, w_hat, m_hat, grid, p, variant):
    """`explicit_rhs_arrays` by its documented formulas, each term a new
    array, on the stacked quadratic terms."""
    band = grid.band
    q_u, q_w, q_b = stacked_quadratic_terms(u_hat, w_hat, m_hat, grid)
    two_chi = 2.0 * p.coupling_chi(variant)
    lin_u = two_chi * curl_coeffs(w_hat, band)
    lin_b = np.zeros_like(u_hat)
    if variant.uses_background:
        sym = alpha_symbol(p.alpha_vector, band)
        lin_u = lin_u + sym * m_hat
        lin_b = lin_b + sym * u_hat
    dw = two_chi * curl_coeffs(u_hat, band) + q_w
    dw[:, 0, 0, 0] = 0.0
    return (project_coeffs(lin_u + q_u, band), dw,
            project_coeffs(lin_b + q_b, band))


class TestRhs:
    def make_state(self, variant, seed=0, n=8, epsilon=0.01):
        grid = GridSpec(n)
        return make_random_state(grid, InitSpec(epsilon=epsilon, seed=seed),
                                 variant)

    def test_zero_state_gives_zero_rhs(self):
        g = GridSpec(8)
        zero = zero_vector_field(g)
        state = State(zero, zero, zero, SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        total = rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        for part in total:
            assert np.abs(part).max() == 0.0

    def test_omega_rhs_is_pure_coupling(self):
        # omega = magnetic = 0, u divergence-free: the omega tendency is
        # exactly 2 chi curl u
        g = GridSpec(16)
        u = leray_project(random_bandlimited(g, 5))
        zero = zero_vector_field(g)
        state = State(u, zero, zero, SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        _, dw, _ = rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        expected = 2.0 * p.chi * curl(u).coeffs
        assert np.abs(dw - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("variant,params", [
        (SystemVariant.FULL,
         PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)),
        (SystemVariant.ZERO_KINEMATIC,
         PhysParams(chi=1.0, kappa=0.4, eta=1.0, nu=1.0)),
        (SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION,
         PhysParams(chi=1.0, eta=1.0)),
        (SystemVariant.PERTURBATION,
         PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)),
        (SystemVariant.INVISCID_RESISTIVE_MHD, PhysParams(nu=1.0)),
        (SystemVariant.IDEAL_MHD, PhysParams()),
    ])
    def test_recombination_matches_monolithic(self, variant, params):
        # at epsilon = 0.01 the tendency is almost linear; at 1000 the
        # quadratic terms are >= 98% of its largest entry in every variant,
        # so the divergence-form terms are checked against advect
        for epsilon in (0.01, 1000.0):
            state = self.make_state(variant, seed=7, epsilon=epsilon)
            total = rhs(state, params, variant)
            oracle = monolithic_rhs(state, params, variant)
            for got, want in zip(total, oracle):
                scale = max(np.abs(want).max(), 1e-30)
                assert np.abs(got - want).max() <= 1e-13 * scale, epsilon

    def test_magnetic_equation_linear_in_magnetic(self):
        # with the magnetic unknown identically zero its tendency vanishes
        state = self.make_state(SystemVariant.ZERO_KINEMATIC, seed=9, n=16)
        state = State(state.u, state.omega, zero_vector_field(state.grid),
                      SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        _, _, dm = rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        assert np.abs(dm).max() == 0.0

    def test_inputs_not_mutated(self):
        state = self.make_state(SystemVariant.ZERO_KINEMATIC, seed=11)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        before = [state.u.coeffs.copy(), state.omega.coeffs.copy(),
                  state.magnetic.coeffs.copy()]
        rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        assert np.array_equal(state.u.coeffs, before[0])
        assert np.array_equal(state.omega.coeffs, before[1])
        assert np.array_equal(state.magnetic.coeffs, before[2])

    @pytest.mark.parametrize("call", sorted(SOLVER_CALLS))
    def test_variant_inconsistency_rejected(self, call):
        state = self.make_state(SystemVariant.IDEAL_MHD, seed=1)
        with pytest.raises(ValueError, match="'ideal-mhd' forces nu=0"):
            SOLVER_CALLS[call](state, PhysParams(nu=1.0),
                               SystemVariant.IDEAL_MHD)

    # compute_record takes no variant: it audits with the state's own tag
    @pytest.mark.parametrize("call", sorted(set(SOLVER_CALLS)
                                            - {"compute_record"}))
    def test_state_tag_mismatch_rejected(self, call):
        state = self.make_state(SystemVariant.ZERO_KINEMATIC, seed=1)
        with pytest.raises(ValueError, match=f"state is tagged "
                           f"'zero-kinematic', {call} was asked for "
                           f"'perturbation'"):
            SOLVER_CALLS[call](state, PhysParams(chi=1.0, eta=1.0),
                               SystemVariant.PERTURBATION)


def rotated(c):
    """Full-spectrum vector coefficients of the field rotated by R, the
    cyclic rotation x -> y -> z: R v(R^-1 x), i.e. component i + 1 at k
    from component i at R^-1 k = (k2, k3, k1) (indices mod 3)."""
    return np.transpose(c[[2, 0, 1]], (0, 3, 1, 2))


class TestRotationEquivariance:
    """Rotating the data and alpha cyclically (x -> y -> z) rotates the
    tendency and the step: a guard on the assembly of the components,
    which a swapped stress row or a mislabelled flux or emf component
    breaks, whatever the summation order.  epsilon = 1000 makes the
    quadratic terms 95-100% of the tendency's largest entry.  Worst
    measured relative differences (2-core x86 host): 8.3e-16 for rhs,
    1.6e-16 for step (at epsilon = 1: 7.5e-17 and 4.3e-17)."""

    CASES = {
        "zero-kinematic": (SystemVariant.ZERO_KINEMATIC,
                           lambda alpha: PhysParams(chi=1.0, eta=1.0,
                                                    nu=1.0)),
        "perturbation": (SystemVariant.PERTURBATION,
                         lambda alpha: PhysParams(chi=1.0, eta=1.0,
                                                  alpha=alpha, r=2.5)),
    }

    @staticmethod
    def fields(result):
        if isinstance(result, State):
            return [f.coeffs for f in (result.u, result.omega,
                                       result.magnetic)]
        return list(result)

    @pytest.mark.parametrize("call", ["rhs", "step"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_commutes_with_cyclic_rotation(self, n, case, call):
        variant, params = self.CASES[case]
        state = make_random_state(GridSpec(n),
                                  InitSpec(epsilon=1000.0, seed=21), variant)
        turned = State(*(SpectralVectorField(rotated(f.coeffs), state.grid)
                         for f in (state.u, state.omega, state.magnetic)),
                       variant)
        alpha = ALPHA[2], ALPHA[0], ALPHA[1]
        solver = SOLVER_CALLS[call]
        want = self.fields(solver(state, params(ALPHA), variant))
        got = self.fields(solver(turned, params(alpha), variant))
        for a, b in zip(want, got):
            assert np.abs(rotated(a) - b).max() <= 1e-14 * np.abs(a).max()


class TestStiffSymbols:
    def test_parallel_perpendicular_split(self):
        g = GridSpec(8)
        p = PhysParams(chi=1.0, kappa=0.7, eta=0.5, nu=0.25)
        sym = stiff_symbols(g, p, SystemVariant.ZERO_KINEMATIC)
        ksq = g.k_squared
        assert np.allclose(sym.omega_perp, 0.5 * ksq + 4.0)
        assert np.allclose(sym.omega_par, 1.2 * ksq + 4.0)
        assert np.allclose(sym.u, 1.0 * ksq)
        assert np.allclose(sym.magnetic, 0.25 * ksq)

    def test_propagator_matches_symbol_derivative(self):
        # d/dt exp(-sym t) field at t=0 equals the stiff tendency
        g = GridSpec(8)
        p = PhysParams(chi=0.8, kappa=0.6, eta=0.4, nu=0.2)
        sym = stiff_symbols(g, p, SystemVariant.FULL)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=3),
                                  SystemVariant.FULL)
        arrays = (state.u.coeffs, state.omega.coeffs, state.magnetic.coeffs)
        dt = 1e-7
        moved = sym.propagator(dt).apply(*arrays)
        tendency = [-a for a in sym.apply(*arrays)]
        for new, old, dy in zip(moved, arrays, tendency):
            fd = (new - old) / dt
            assert np.abs(fd - dy).max() <= 1e-5 * max(np.abs(dy).max(), 1e-30)

    @pytest.mark.parametrize("n", [8, 12, 32])
    @pytest.mark.parametrize("variant", list(SystemVariant),
                             ids=[v.value for v in SystemVariant])
    def test_band_symbols_are_the_band_part_of_the_full_ones(self, n,
                                                              variant):
        # formed on the band from its |k|^2, not gathered from n^3 arrays
        g = GridSpec(n)
        p = PhysParams(mu=0.2, chi=0.8, kappa=0.6, eta=0.4, nu=0.3,
                       alpha=ALPHA)
        full = stiff_symbols(g, p, variant)
        assert full.layout is g.full
        band = layout_stiff_symbols(g.band, p, variant)
        assert band.layout is g.band
        for name in ("u", "omega_perp", "omega_par", "magnetic"):
            assert getattr(band, name).tobytes() == band_part(
                getattr(full, name), g).tobytes()

    @pytest.mark.parametrize("variant", list(SystemVariant),
                             ids=[v.value for v in SystemVariant])
    def test_every_operator_carries_its_gap(self, variant):
        # omega_par - omega_perp is formed with the factors, for the
        # symbols and for each propagator, on either layout
        g = GridSpec(12)
        p = PhysParams(mu=0.2, chi=0.8, kappa=0.6, eta=0.4, nu=0.3,
                       alpha=ALPHA)
        for layout in (g.band, g.full):
            sym = layout_stiff_symbols(layout, p, variant)
            for op in (sym, sym.propagator(0.05), sym.propagator(1.0 / 3.0)):
                assert op.par_minus_perp.tobytes() == (
                    op.omega_par - op.omega_perp).tobytes()

    @pytest.mark.parametrize("layout", ["full", "band"])
    def test_omega_split_matches_written_out_form(self, layout):
        # oracle: perp w + (par - perp) w_par written out, for the
        # propagator (the step's path), for the symbols and for the stiff
        # part of rhs; and the projection is c - parallel_part(c)
        g = GridSpec(16)
        p = PhysParams(mu=0.2, chi=0.8, kappa=0.6, eta=0.4, nu=0.2)
        sym = stiff_symbols(g, p, SystemVariant.FULL)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=8),
                                  SystemVariant.FULL)
        arrays = (state.u.coeffs, state.omega.coeffs, state.magnetic.coeffs)
        if layout == "band":
            sym = layout_stiff_symbols(g.band, p, SystemVariant.FULL)
            arrays = state.arrays
        u, w, m = arrays
        w_par = parallel_part(w, sym.layout)

        prop = sym.propagator(0.05)
        want = (prop.u[None] * u,
                prop.omega_perp[None] * w
                + (prop.omega_par - prop.omega_perp)[None] * w_par,
                prop.magnetic[None] * m)
        for got, expected in zip(prop.apply(*arrays), want):
            assert np.array_equal(got, expected)

        want = (sym.u[None] * u,
                sym.omega_perp[None] * w
                + (sym.omega_par - sym.omega_perp)[None] * w_par,
                sym.magnetic[None] * m)
        for got, expected in zip(sym.apply(*arrays), want):
            assert np.array_equal(got, expected)

        # rhs = explicit - symbol * field, formed on the band: bit for bit
        # explicit + (-symbol * field) on either layout
        explicit = [expand_band(e, g) for e in explicit_rhs_arrays(
            *state.arrays, g, p, SystemVariant.FULL)]
        if layout == "band":
            explicit = [band_part(e, g) for e in explicit]
        got = rhs(state, p, SystemVariant.FULL)
        for got_i, e, stiff in zip(got, explicit, want):
            expected = e + -stiff
            if layout == "band":
                expected = expand_band(expected, g)
            assert np.array_equal(got_i, expected)

        scratch = np.empty_like(u)
        for c in arrays:
            expected = c - parallel_part(c, sym.layout)
            expected[:, 0, 0, 0] = 0.0
            assert project_coeffs(c, sym.layout).tobytes() == \
                expected.tobytes()
            in_place = c.copy()
            project_coeffs(in_place, sym.layout, out=in_place,
                           scratch=scratch)
            assert in_place.tobytes() == expected.tobytes()


class TestBandStep:
    @pytest.mark.parametrize("dealiased", [True, False])
    def test_round_trip_bit_exact(self, dealiased):
        g = GridSpec(8)
        if dealiased:
            coeffs = make_random_state(g, InitSpec(epsilon=1.0, seed=5),
                                       SystemVariant.FULL).u.coeffs
        else:
            rng = np.random.default_rng(5)
            shape = (3, g.n, g.n, g.n)
            coeffs = hermitian_symmetrize(rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape))
        kc = g.kmax_dealias
        band = band_part(coeffs, g)
        assert band.shape == (3, 2 * kc + 1, 2 * kc + 1, kc + 1)
        full = expand_band(band, g)
        assert np.array_equal(band_part(full, g), band)
        # the scatter keeps exactly the retained box: the input itself when
        # it is dealiased, its dealiased part otherwise
        assert np.array_equal(full, dealias(SpectralVectorField(coeffs, g)).coeffs)
        if dealiased:
            assert np.array_equal(full, coeffs)

    def test_fft_budget_of_one_step(self, monkeypatch):
        # 4 explicit evaluations of 9 inverse + 18 forward real transforms
        # of scalar fields, each three 1D passes: 324 passes per step.  The
        # library transforms the last three axes; per scalar field a pass
        # set covers n^2 + n(kc+1) + (2kc+1)(kc+1) lines, not the
        # n^2 + 2n(n//2+1) of unpruned rfftn/irfftn.  The same count holds
        # with the transforms split over two threads (n = 32), and the same
        # lines when the x1-local passes run slab by slab (n = 48, 4 slabs):
        # one call per slab for each of them
        passes, lines, nd_calls = [], [], []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(a, *args, _original=getattr(np.fft, name), **kwargs):
                axis = kwargs.get("axis", -1)
                passes.append(int(np.prod(np.shape(a)[:-3])))
                lines.append(np.size(a) // np.shape(a)[axis])
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            def counted_nd(a, *args, _original=getattr(np.fft, name), **kwargs):
                nd_calls.append(a)
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted_nd)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)

        def one_step(n):
            passes.clear()
            lines.clear()
            g = GridSpec(n)
            state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                      SystemVariant.FULL)
            step(state, p, SystemVariant.FULL, 0.01)
            return g

        g = one_step(8)
        assert sum(passes) == 324
        n, kc = g.n, g.kmax_dealias
        assert sum(lines) == 108 * (n * n + n * (kc + 1)
                                    + (2 * kc + 1) * (kc + 1)) == 11124
        assert not nd_calls

        monkeypatch.setattr(spectral, "WORKERS", 2)
        g = one_step(32)
        assert g.n >= spectral.SPLIT_MIN_N
        assert sum(passes) == 324
        n, kc = g.n, g.kmax_dealias
        assert sum(lines) == 108 * (n * n + n * (kc + 1)
                                    + (2 * kc + 1) * (kc + 1))
        assert not nd_calls

        g = one_step(48)
        slabs = len(spectral.BandWorkspace(g).slabs)
        assert slabs == 4
        assert sum(passes) == 108 * (1 + 2 * slabs)
        n, kc = g.n, g.kmax_dealias
        assert sum(lines) == 108 * (n * n + n * (kc + 1)
                                    + (2 * kc + 1) * (kc + 1))
        assert not nd_calls

    @pytest.mark.parametrize("n", [8, 12, 16, 48])
    def test_streamed_products_match_stacked(self, monkeypatch, n):
        # epsilon = 1000 makes the products dominate every tendency; the
        # perturbation variant adds every linear term, and at n = 48 the
        # band stage runs as two k1-row ranges
        monkeypatch.setattr(spectral, "WORKERS", 2)
        g = GridSpec(n)
        for variant, params in THREAD_CASES[::2]:
            state = make_random_state(g, InitSpec(epsilon=1000.0, seed=n),
                                      variant)
            with spectral.StepEngine(g) as engine:
                assert len(engine.band_rows) == (2 if n >= 44 else 1)
                got = explicit_rhs_arrays(*state.arrays, g, params, variant,
                                          engine=engine)
            for a, b in zip(got, stacked_explicit_rhs(*state.arrays, g,
                                                      params, variant)):
                assert np.array_equal(a, b)

    def test_working_set_of_one_step(self):
        # tracemalloc peak of one 32^3 step above its entry: 17.6 MB with
        # the products built as whole stacks and every RK stage alive to
        # the end of the step, 9.8 MB with the products streamed three at
        # a time and each stage freed after its last use
        g = GridSpec(32)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        # an untraced first step makes the grid's cached band layout and
        # numpy's FFT plans, which later steps reuse
        step(state, p, SystemVariant.FULL, 0.01)
        tracemalloc.start()
        try:
            step(state, p, SystemVariant.FULL, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_working_set_of_one_step_over_slabs(self):
        # tracemalloc peak of one 48^3 step above its entry, its x1-local
        # passes and products in 4 slabs per transform: 25.9 MB with each
        # workspace's full-grid transform scratch, each thread's product
        # grid buffer and a band accumulator per workspace, 22.8 MB (22.9
        # for the perturbation variant) with one slab of each and the
        # step's propagators held for the whole step, 21.4 MB (21.7) with
        # each block's factors formed in idle pool grid buffers, 18.8 MB
        # (19.1) with the third evaluation written over its input, so the
        # step holds three band triples beside y0, not four
        g = GridSpec(48)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        step(state, p, SystemVariant.FULL, 0.01)
        tracemalloc.start()
        try:
            step(state, p, SystemVariant.FULL, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 19.5e6

    def test_step_reads_only_retained_box(self):
        # a state keeps only the band of the fields it is built from, so
        # the step of noisy fields is the step of their dealiased part
        g = GridSpec(8)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=6),
                                  SystemVariant.FULL)
        rng = np.random.default_rng(6)
        shape = (3, g.n, g.n, g.n)
        fields = [SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (state.u, state.omega, state.magnetic)]
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        noisy = State(*fields, SystemVariant.FULL)
        clean = State(*(dealias(f) for f in fields), SystemVariant.FULL)
        assert not np.array_equal(fields[0].coeffs, noisy.u.coeffs)
        for a, b in zip(noisy.arrays, clean.arrays):
            assert a.tobytes() == b.tobytes()
        got = step(noisy, p, SystemVariant.FULL, 0.01)
        want = step(clean, p, SystemVariant.FULL, 0.01)
        for a, b in zip(got.arrays, want.arrays):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [12, 16, 48])
    @pytest.mark.parametrize("dts", [(0.025,), (0.025, 0.05)],
                             ids=["half", "half-full"])
    def test_band_propagators_in_pool_memory(self, n, dts):
        # the step's factors, formed in views of pool grid buffers: the
        # bytes of the propagators of new symbols, each with its
        # omega_par - omega_perp, and applied with the bytes of theirs
        g = GridSpec(n)
        p = PhysParams(mu=0.2, chi=0.8, kappa=0.6, eta=0.4, nu=0.3)
        variant = SystemVariant.FULL
        sym = layout_stiff_symbols(g.band, p, variant)
        arrays = make_random_state(g, InitSpec(epsilon=1.0, seed=4),
                                   variant).arrays
        with spectral.StepEngine(g) as engine, engine.scope():
            props = band_propagators(engine, p, variant, dts)
            buffers = engine._grid.arrays
            assert len(props) == len(dts)
            for prop, dt in zip(props, dts):
                want = sym.propagator(dt)
                assert prop.layout is g.band
                for name in ("u", "omega_perp", "omega_par", "magnetic",
                             "par_minus_perp"):
                    assert any(np.shares_memory(getattr(prop, name), a)
                               for a in buffers)
                for name in ("u", "omega_perp", "omega_par", "magnetic"):
                    assert (getattr(prop, name).tobytes()
                            == getattr(want, name).tobytes())
                assert prop.par_minus_perp.tobytes() == (
                    want.omega_par - want.omega_perp).tobytes()
                for a, b in zip(prop.apply(*arrays), want.apply(*arrays)):
                    assert a.tobytes() == b.tobytes()

    def test_propagator_is_exp_of_minus_dt_symbol(self):
        # formed in place, each factor has the bytes of np.exp(-dt * a)
        g = GridSpec(12)
        sym = layout_stiff_symbols(g.band, PhysParams(mu=0.2, chi=0.8,
                                                      kappa=0.6, eta=0.4,
                                                      nu=0.3),
                                   SystemVariant.FULL)
        for dt in (0.05, 0.025, 1.0 / 3.0):
            prop = sym.propagator(dt)
            assert prop.layout is g.band
            for rate, factor in zip(
                    (sym.u, sym.omega_perp, sym.omega_par, sym.magnetic),
                    (prop.u, prop.omega_perp, prop.omega_par,
                     prop.magnetic)):
                assert factor.tobytes() == np.exp(-dt * rate).tobytes()


THREAD_CASES = [
    (SystemVariant.FULL,
     PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)),
    (SystemVariant.ZERO_KINEMATIC,
     PhysParams(chi=1.0, kappa=0.4, eta=1.0, nu=1.0)),
    (SystemVariant.PERTURBATION,
     PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)),
]


class TestThreadedTransforms:
    @pytest.mark.parametrize(
        "n", [16, 32, pytest.param(64, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("variant,params", THREAD_CASES,
                             ids=[v.value for v, _ in THREAD_CASES])
    def test_threaded_equals_single_thread(self, monkeypatch, n, variant,
                                           params):
        # epsilon = 1000 makes the quadratic terms dominate every tendency
        state = make_random_state(
            GridSpec(n), InitSpec(epsilon=1000.0, seed=n), variant)
        threads = set()
        original = spectral.BandWorkspace.to_physical

        def tracked(ws, c, out):
            threads.add(threading.get_ident())
            original(ws, c, out)
        monkeypatch.setattr(spectral.BandWorkspace, "to_physical", tracked)
        results = []
        for workers in (1, 2):
            force_threads(monkeypatch, workers)
            threads.clear()
            results.append((step(state, params, variant, 1e-4),
                            energy_flux_audit(state, params, variant)))
            helpers = threads - {threading.get_ident()}
            assert bool(helpers) == (workers > 1)
        (serial, serial_audit), (threaded, threaded_audit) = results
        for a, b in zip(serial.arrays, threaded.arrays):
            assert np.array_equal(a, b)
        assert threaded_audit == serial_audit

    def test_helper_exception_reraised_in_caller(self, monkeypatch):
        force_threads(monkeypatch, 2)
        caller = threading.get_ident()
        helper_failed = threading.Event()
        original = spectral.BandWorkspace.to_spectral

        def failing_in_helper(ws, out, *factors):
            if threading.get_ident() != caller:
                helper_failed.set()
                raise ValueError("helper share")
            assert helper_failed.wait(timeout=30)
            original(ws, out, *factors)
        monkeypatch.setattr(spectral.BandWorkspace, "to_spectral",
                            failing_in_helper)
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=2),
                                  SystemVariant.FULL)
        before = threading.active_count()
        with pytest.raises(ValueError, match="helper share"):
            step(state, PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0,
                                   nu=0.5), SystemVariant.FULL, 0.01)
        assert threading.active_count() == before

    def test_caller_exception_joins_helpers(self, monkeypatch):
        force_threads(monkeypatch, 2)
        caller = threading.get_ident()
        helper_done = []

        def task(ws):
            if threading.get_ident() == caller:
                raise ValueError("caller share")
            time.sleep(0.01)  # lets the caller draw a task
            helper_done.append(ws)
        before = threading.active_count()
        with pytest.raises(ValueError, match="caller share"), \
                spectral.StepEngine(GridSpec(8)) as engine:
            engine.run([[task] * 8])
        assert threading.active_count() == before
        assert len(helper_done) < 8

    def test_every_task_runs_once(self, monkeypatch):
        # more threads than cores and a short switch interval: a task that
        # two threads drew, or that none did, shows in the counts
        force_threads(monkeypatch, 4)
        counts = [0] * 500

        def task(i):
            def run(ws):
                counts[i] += 1
            return run
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with spectral.StepEngine(GridSpec(8)) as engine:
                engine.run([[task(i) for i in range(500)]] * 2)
        finally:
            sys.setswitchinterval(interval)
        assert counts == [2] * 500

    def test_nothing_held_after_the_call(self, monkeypatch):
        # the prototype of the split kept the audit's grid values alive
        # into the full-spectrum pairings through a leftover loop variable
        force_threads(monkeypatch, 2)
        g = GridSpec(32)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=3),
                                  SystemVariant.FULL)
        workspaces = []
        original_init = spectral.BandWorkspace.__init__

        def tracked_init(ws, *args, **kwargs):
            original_init(ws, *args, **kwargs)
            workspaces.append(weakref.ref(ws))
        monkeypatch.setattr(spectral.BandWorkspace, "__init__", tracked_init)
        at_pairings = []
        original_expand = spectral.expand_band

        def expand(c, grid, **buffers):
            if not at_pairings:
                # less the pairings' own expansion buffer and its scratch
                held = tracemalloc.get_traced_memory()[0] - sum(
                    a.nbytes for a in buffers.values())
                at_pairings.append((held,
                                    [ref() is None for ref in workspaces]))
            return original_expand(c, grid, **buffers)
        monkeypatch.setattr(spectral, "expand_band", expand)
        before = threading.active_count()

        step(state, p, SystemVariant.FULL, 0.01)
        assert workspaces and all(ref() is None for ref in workspaces)
        workspaces.clear()
        tracemalloc.start()
        try:
            energy_flux_audit(state, p, SystemVariant.FULL)
        finally:
            tracemalloc.stop()
        held, dead = at_pairings[0]
        assert all(dead) and all(ref() is None for ref in workspaces)
        # the five advected band fields and the curl pairing's two
        # operands, and not the 1.57 MB grid values
        assert held <= 7 * state.arrays[0].nbytes + 100_000
        assert threading.active_count() == before


# every variant, each with coefficients it accepts
ROW_CASES = THREAD_CASES + [
    (SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION,
     PhysParams(chi=1.0, kappa=0.4, eta=1.0)),
    (SystemVariant.INVISCID_RESISTIVE_MHD,
     PhysParams(kappa=0.4, eta=1.0, nu=0.5)),
    (SystemVariant.IDEAL_MHD, PhysParams(kappa=0.4, eta=1.0)),
]


def split_rows(monkeypatch, split):
    """Make every `StepEngine` use two threads and run its band-level
    stages as two k1-row ranges (``split``) or as the whole band."""
    force_threads(monkeypatch, 2)
    monkeypatch.setattr(spectral, "ROW_SPLIT_MIN_N", 8 if split else 10 ** 9)


class TestRowSplit:
    @pytest.mark.parametrize("variant,params", ROW_CASES,
                             ids=[v.value for v, _ in ROW_CASES])
    def test_split_equals_unsplit(self, monkeypatch, variant, params):
        # the step (linearized too), rhs and a record, with the band stages
        # on one range and on two, the second drawn by either thread
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1000.0, seed=21),
                                  variant)
        threads = []
        original = dynamics.StiffPropagator._apply_rows

        def tracked(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)
        monkeypatch.setattr(dynamics.StiffPropagator, "_apply_rows", tracked)
        results = []
        for split in (False, True):
            split_rows(monkeypatch, split)
            threads.clear()
            two = step(step(state, params, variant, 1e-3), params, variant,
                       1e-3)
            linear = step(state, params, variant, 1e-3, linearized=True)
            results.append(
                [a.tobytes() for a in two.arrays + linear.arrays
                 + rhs(state, params, variant)]
                + [compute_record(two, params)])
            # 8 propagations per range per step (y3 and Ef y0 are each
            # formed twice), and rhs's stiff part
            assert len(threads) == 3 * 8 * (2 if split else 1) + 1
            if not split:
                assert set(threads) == {threading.get_ident()}
        assert threads and set(threads) - {threading.get_ident()}
        assert results[0] == results[1]

    def test_more_ranges_than_cores_under_a_short_switch_interval(
            self, monkeypatch):
        # four threads, four row ranges, and a thread switch after every
        # few bytecodes: a range written twice or not at all, or rows that
        # overlap, show in the bytes
        variant, params = ROW_CASES[0]
        state = make_random_state(GridSpec(16), InitSpec(epsilon=1000.0,
                                                         seed=22), variant)
        results = []
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 4):
                force_threads(monkeypatch, workers)
                monkeypatch.setattr(spectral, "ROW_SPLIT_MIN_N", 8)
                sys.setswitchinterval(1e-6)
                with spectral.StepEngine(state.grid) as engine:
                    assert len(engine.band_rows) == workers
                    results.append([a.tobytes() for a in step(
                        state, params, variant, 1e-3, engine=engine).arrays])
                sys.setswitchinterval(interval)
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1]

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("linearized", [False, True])
    def test_one_band_stage_per_evaluation(self, monkeypatch, linearized,
                                           split):
        # an explicit evaluation is one transform run and then one band
        # stage; a step adds its four blocks between and after them
        variant, params = ROW_CASES[2]
        state = make_random_state(GridSpec(16), InitSpec(epsilon=1000.0,
                                                         seed=23), variant)
        split_rows(monkeypatch, split)
        ranges = []
        original = spectral.StepEngine.run_rows

        def counted(engine, task):
            ranges.append(len(engine.band_rows))
            return original(engine, task)
        monkeypatch.setattr(spectral.StepEngine, "run_rows", counted)
        explicit_rhs_arrays(*state.arrays, state.grid, params, variant,
                            linearized=linearized)
        assert ranges == [2 if split else 1]
        ranges.clear()
        step(state, params, variant, 1e-3, linearized=linearized)
        assert ranges == [2 if split else 1] * 8

    @pytest.mark.parametrize("n, ranges", [(42, 1), (44, 2), (64, 2)])
    def test_split_from_its_threshold_up(self, monkeypatch, n, ranges):
        monkeypatch.setattr(spectral, "WORKERS", 2)
        assert spectral.ROW_SPLIT_MIN_N == 44
        g = GridSpec(n)
        rows = spectral.StepEngine(g).band_rows
        assert len(rows) == ranges
        assert [v.rows.start or 0 for v in rows] == \
            [0, g.band_shape[0] // 2][:ranges]


class TestEnergyFluxAudit:
    @pytest.mark.parametrize("n", [16, 32])
    def test_curl_graddiv_matches_inline_symbol(self, n):
        # oracle: curl of -k (k.omega) written out on the band, paired with
        # curl omega as the audit pairs band arrays
        g = GridSpec(n)
        state = make_random_state(g, InitSpec(epsilon=1000.0, seed=n),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        band, w = g.band, state.arrays[1]
        k1, k2, k3 = band.k_vectors
        kdotw = k_dot(w, band)
        gd = np.stack([-k1 * kdotw, -k2 * kdotw, -k3 * kdotw])
        product = np.conj(curl_coeffs(gd, band)) * curl_coeffs(w, band)
        want = float(TWO_PI_CUBED * np.sum(expand_band(product, g)).real)
        assert want != 0.0
        audit = energy_flux_audit(state, p, SystemVariant.FULL)
        assert audit.curl_graddiv_omega == want

    def test_pairings_share_one_expansion_buffer(self, monkeypatch):
        # each pairing used to expand into a new n^3 array (1.57 MB at
        # 32^3); now all eight write into one, made once the transforms
        # are done and dropped before the band sums.  A whole 32^3 audit
        # traced 5,600,200 B at its peak (in its transforms) when each
        # pairing made its own; the allowance is for Python objects
        g = GridSpec(32)
        variant = SystemVariant.PERTURBATION
        p = PhysParams(chi=1.0, kappa=0.3, eta=1.0, alpha=ALPHA, r=2.5)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=3), variant)
        energy_flux_audit(state, p, variant)
        outs, at_pairings = [], []
        original_expand = spectral.expand_band

        def expand(c, grid, **buffers):
            outs.append(buffers["out"])
            at_pairings.append(tracemalloc.get_traced_memory())
            return original_expand(c, grid, **buffers)
        monkeypatch.setattr(spectral, "expand_band", expand)
        tracemalloc.start()
        try:
            energy_flux_audit(state, p, variant)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outs) == 8 and all(out is outs[0] for out in outs)
        assert peak <= 5_600_200 + 4096
        # at a pairing: the five advected fields, the curl pairing's two
        # operands, the expansion and its mirror scratch; the transforms'
        # grid values are gone
        band = state.arrays[0].nbytes
        expansion = outs[0].nbytes
        bound = 7 * band + expansion + band * g.kmax_dealias // (
            g.kmax_dealias + 1) + 100_000
        assert max(current for current, _ in at_pairings) <= bound

    def test_zero_state_all_zero(self):
        g = GridSpec(8)
        zero = zero_vector_field(g)
        state = State(zero, zero, zero, SystemVariant.ZERO_KINEMATIC)
        audit = energy_flux_audit(state, PhysParams(chi=1.0, eta=1.0, nu=1.0),
                                  SystemVariant.ZERO_KINEMATIC)
        assert audit.advection_u == 0.0
        assert audit.lorentz_cancellation == 0.0
        assert audit.coupling_transfer == 0.0
        assert audit.max_relative_cancellation == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cancellations_small(self, seed):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.5, seed=seed),
                                  SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        audit = energy_flux_audit(state, p, SystemVariant.ZERO_KINEMATIC)
        assert audit.max_relative_cancellation <= 1e-10
        assert audit.dissipation > 0.0

    def test_alpha_antisymmetry(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.5, seed=2),
                                  SystemVariant.PERTURBATION)
        p = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
        audit = energy_flux_audit(state, p, SystemVariant.PERTURBATION)
        energy = audit.l2_energy_sq
        assert abs(audit.alpha_cancellation) <= 1e-12 * energy

    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_band_terms_match_full_spectrum(self, n):
        # coupling_transfer, dissipation and l2_energy_sq are band sums;
        # their full-spectrum formulas are the oracle
        g = GridSpec(n)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        state = step(make_random_state(g, InitSpec(epsilon=0.5, seed=n),
                                       SystemVariant.FULL),
                     p, SystemVariant.FULL, 0.01)
        audit = energy_flux_audit(state, p, SystemVariant.FULL)
        u, w, m = state.u, state.omega, state.magnetic
        chi = p.coupling_chi(SystemVariant.FULL)

        def grad_sq(f):
            return sum(l2_norm(gradient(SpectralScalarField(c, f.grid))) ** 2
                       for c in f.coeffs)

        transfer = 4.0 * chi * inner_product(curl(u), w)
        dissipation = (p.u_diffusion(SystemVariant.FULL) * grad_sq(u)
                       + p.eta * grad_sq(w)
                       + p.kappa * l2_norm(divergence(w)) ** 2
                       + p.magnetic_diffusion(SystemVariant.FULL) * grad_sq(m)
                       + 4.0 * chi * l2_norm(w) ** 2)
        energy_sq = l2_norm(u) ** 2 + l2_norm(w) ** 2 + l2_norm(m) ** 2
        assert audit.coupling_transfer == pytest.approx(transfer, rel=1e-13)
        assert audit.dissipation == pytest.approx(dissipation, rel=1e-13)
        assert audit.l2_energy_sq == pytest.approx(energy_sq, rel=1e-13)

    @pytest.mark.parametrize("n", [8, 12, 16, 32])
    @pytest.mark.parametrize("variant,params", THREAD_CASES,
                             ids=[v.value for v, _ in THREAD_CASES])
    def test_pairings_equal_full_spectrum_inner_products(self, n, variant,
                                                         params):
        # the pairings sum the expansion of a band product over n^3; the
        # full-spectrum inner products of the expanded fields they replaced
        # are the oracle, to the bit
        g = GridSpec(n)
        dealiased = make_random_state(
            g, InitSpec(epsilon=1000.0, seed=n), variant)
        rng = np.random.default_rng(n)
        shape = (3, n, n, n)
        noisy = State(*(SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (dealiased.u, dealiased.omega, dealiased.magnetic)),
            variant)
        for state in (dealiased, noisy):
            u, w, m = (SpectralVectorField(expand_band(c, g), g)
                       for c in state.arrays)
            alpha = None
            if variant.uses_background:
                alpha = (inner_product(alpha_dot_grad(m, params.alpha), u)
                         + inner_product(alpha_dot_grad(u, params.alpha), m))
            audit = energy_flux_audit(state, params, variant)
            assert audit.advection_u == inner_product(advect(u, u), u)
            assert audit.advection_omega == inner_product(advect(u, w), w)
            assert audit.advection_magnetic == inner_product(advect(u, m), m)
            assert audit.lorentz_cancellation == (
                inner_product(advect(m, m), u) + inner_product(advect(m, u), m))
            assert audit.alpha_cancellation == alpha
            assert audit.curl_graddiv_omega == inner_product(
                curl(grad_div(w)), curl(w))

    def test_reads_only_retained_box(self):
        # a state keeps only the band of the fields it is built from, so
        # the audit of noisy fields is the audit of their dealiased part.
        # n=16: at n=8 every wavenumber is 0, 1, 2, 3 or 4, so the symbol
        # products of curl(grad div) cancel exactly whatever the input
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.5, seed=3),
                                  SystemVariant.PERTURBATION)
        p = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
        rng = np.random.default_rng(3)
        shape = (3, g.n, g.n, g.n)
        fields = [SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (state.u, state.omega, state.magnetic)]
        noisy = State(*fields, SystemVariant.PERTURBATION)
        clean = State(*(dealias(f) for f in fields),
                      SystemVariant.PERTURBATION)
        assert not np.array_equal(fields[0].coeffs, noisy.u.coeffs)
        assert energy_flux_audit(noisy, p, SystemVariant.PERTURBATION) == \
            energy_flux_audit(clean, p, SystemVariant.PERTURBATION)

    def test_working_set_of_one_audit(self):
        # tracemalloc peak of one 32^3 audit above its entry: 7.5-7.7 MB
        # with the transforms split over two threads, set by their grid
        # buffers, and 5.57 MB with every transform on one thread
        g = GridSpec(32)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        energy_flux_audit(state, p, SystemVariant.FULL)
        tracemalloc.start()
        try:
            energy_flux_audit(state, p, SystemVariant.FULL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8.5e6

    def test_curl_graddiv_orthogonality(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=4),
                                  SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        audit = energy_flux_audit(state, p, SystemVariant.ZERO_KINEMATIC)
        assert abs(audit.curl_graddiv_omega) <= 1e-12 * audit.l2_energy_sq
