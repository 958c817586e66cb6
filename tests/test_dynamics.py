"""RHS assembly: advection kernel vs direct convolution, stiff/explicit
recombination vs a monolithic evaluation, the retained-band step's layout
conversions, FFT budget and working set, and the energy-flux audit."""

import tracemalloc

import numpy as np
import pytest

from mmpsim.dynamics import (
    _SYM_PAIRS,
    _SYM_ROWS,
    _quadratic_terms,
    advect,
    energy_flux_audit,
    rhs,
    stiff_symbols,
)
from mmpsim.fields import InitSpec, PhysParams, State, SystemVariant, make_random_state
from mmpsim.integrator import step
from mmpsim.spectral import (
    GridSpec,
    SpectralVectorField,
    alpha_dot_grad,
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
    to_physical,
    to_spectral,
    zero_mean,
    zero_vector_field,
)

ALPHA = tuple(0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0))


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
    `_quadratic_terms`, which streams them three at a time."""
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
        decomp = rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        total = decomp.total(state)
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
        decomp = rhs(state, p, SystemVariant.ZERO_KINEMATIC)
        _, dw, _ = decomp.total(state)
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
            decomp = rhs(state, params, variant)
            total = decomp.total(state)
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
        _, _, dm = rhs(state, p, SystemVariant.ZERO_KINEMATIC).total(state)
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

    def test_variant_inconsistency_rejected(self):
        state = self.make_state(SystemVariant.IDEAL_MHD, seed=1)
        with pytest.raises(ValueError):
            rhs(state, PhysParams(nu=1.0), SystemVariant.IDEAL_MHD)

    def test_state_tag_mismatch_rejected(self):
        state = self.make_state(SystemVariant.ZERO_KINEMATIC, seed=1)
        with pytest.raises(ValueError):
            rhs(state, PhysParams(chi=1.0, eta=1.0), SystemVariant.PERTURBATION)


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
        tendency = sym.apply_rhs(*arrays)
        for new, old, dy in zip(moved, arrays, tendency):
            fd = (new - old) / dt
            assert np.abs(fd - dy).max() <= 1e-5 * max(np.abs(dy).max(), 1e-30)


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
        # n^2 + 2n(n//2+1) of unpruned rfftn/irfftn
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
        g = GridSpec(8)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        step(state, p, SystemVariant.FULL, 0.01)
        assert sum(passes) == 324
        n, kc = g.n, g.kmax_dealias
        assert sum(lines) == 108 * (n * n + n * (kc + 1)
                                    + (2 * kc + 1) * (kc + 1)) == 11124
        assert not nd_calls

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_streamed_products_match_stacked(self, n):
        # epsilon = 1000 makes the products dominate every tendency
        g = GridSpec(n)
        state = make_random_state(g, InitSpec(epsilon=1000.0, seed=n),
                                  SystemVariant.FULL)
        arrays = [band_part(f.coeffs, g)
                  for f in (state.u, state.omega, state.magnetic)]
        for got, want in zip(_quadratic_terms(*arrays, g),
                             stacked_quadratic_terms(*arrays, g)):
            assert np.array_equal(got, want)

    def test_working_set_of_one_step(self):
        # tracemalloc peak of one 32^3 step above its entry: 17.6 MB with
        # the products built as whole stacks and every RK stage alive to
        # the end of the step, 9.8 MB with the products streamed three at
        # a time and each stage freed after its last use
        g = GridSpec(32)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=1),
                                  SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        symbols = stiff_symbols(g, p, SystemVariant.FULL)
        # the first step builds the cached band symbols and propagators
        step(state, p, SystemVariant.FULL, 0.01, symbols=symbols)
        tracemalloc.start()
        try:
            step(state, p, SystemVariant.FULL, 0.01, symbols=symbols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_step_reads_only_retained_box(self):
        g = GridSpec(8)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=6),
                                  SystemVariant.FULL)
        rng = np.random.default_rng(6)
        shape = (3, g.n, g.n, g.n)
        noisy = State(*(SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (state.u, state.omega, state.magnetic)),
            SystemVariant.FULL)
        p = PhysParams(mu=0.2, chi=1.0, kappa=0.4, eta=1.0, nu=0.5)
        clean = State(*(dealias(f) for f in (noisy.u, noisy.omega,
                                             noisy.magnetic)),
                      SystemVariant.FULL)
        assert not np.array_equal(noisy.u.coeffs, clean.u.coeffs)
        got = step(noisy, p, SystemVariant.FULL, 0.01)
        want = step(clean, p, SystemVariant.FULL, 0.01)
        for a, b in ((got.u, want.u), (got.omega, want.omega),
                     (got.magnetic, want.magnetic)):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_propagators_cached_per_dt(self):
        g = GridSpec(8)
        sym = stiff_symbols(g, PhysParams(chi=1.0, eta=1.0, nu=1.0),
                            SystemVariant.ZERO_KINEMATIC).band
        pair = sym.step_propagators(0.05)
        assert sym.step_propagators(0.05) is pair
        other = sym.step_propagators(0.025)
        assert other is not pair
        assert np.array_equal(other[1].exp_u, pair[0].exp_u)
        assert sym.step_propagators(0.05) is not pair


class TestEnergyFluxAudit:
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
        assert audit.consistent
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
            return sum(l2_norm(gradient(f.component(i))) ** 2
                       for i in range(3))

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

    def test_reads_only_retained_box(self):
        # n=16: at n=8 every wavenumber is 0, 1, 2, 3 or 4, so the symbol
        # products of curl(grad div) cancel exactly whatever the input
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.5, seed=3),
                                  SystemVariant.PERTURBATION)
        p = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
        rng = np.random.default_rng(3)
        shape = (3, g.n, g.n, g.n)
        noisy = State(*(SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (state.u, state.omega, state.magnetic)),
            SystemVariant.PERTURBATION)
        clean = State(*(dealias(f) for f in (noisy.u, noisy.omega,
                                             noisy.magnetic)),
                      SystemVariant.PERTURBATION)
        assert energy_flux_audit(noisy, p, SystemVariant.PERTURBATION) == \
            energy_flux_audit(clean, p, SystemVariant.PERTURBATION)

    def test_curl_graddiv_orthogonality(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=4),
                                  SystemVariant.ZERO_KINEMATIC)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        audit = energy_flux_audit(state, p, SystemVariant.ZERO_KINEMATIC)
        assert abs(audit.curl_graddiv_omega) <= 1e-12 * audit.l2_energy_sq
