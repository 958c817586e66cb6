"""Sobolev norms, the auxiliary energy functionals, and decay fits."""

import numpy as np
import pytest

from mmpsim.fields import InitSpec, PhysParams, State, SystemVariant, make_random_state
from mmpsim.integrator import step
from mmpsim.norms import (
    C0_WEIGHT,
    GAMMA,
    WEIGHT_A,
    DiagnosticsSettings,
    alpha_transport_norm,
    compute_record,
    curl_energy_functional,
    fit_decay,
    l2_energy,
    perturbation_energy_functionals,
    sobolev_norm,
    triple_sobolev_norm,
)
from mmpsim.spectral import (
    GridSpec,
    IntegrityError,
    SpectralVectorField,
    band_part,
    dealias,
    divergence_residual,
    forward_transform,
    hermitian_symmetrize,
    parseval_sum,
    power_spectrum,
    zero_vector_field,
)

ALPHA = tuple(0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0))


def cosine_column_field(grid):
    """(cos x1, 0, 0) as a spectral vector field."""
    x1, _, _ = grid.physical_coords()
    phys = np.zeros((3, grid.n, grid.n, grid.n))
    phys[0] = np.cos(x1)
    return forward_transform(phys, grid)


def random_state(grid, variant, seed=0, epsilon=0.01):
    return make_random_state(grid, InitSpec(epsilon=epsilon, seed=seed), variant)


class TestSobolevNorm:
    def test_l2_of_cosine(self):
        f = cosine_column_field(GridSpec(16))
        assert sobolev_norm(f, 0.0) == pytest.approx(2.0 * np.pi ** 1.5,
                                                     rel=1e-13)

    def test_h3_of_cosine(self):
        f = cosine_column_field(GridSpec(16))
        expected = 4.0 * np.sqrt(2.0) * np.pi ** 1.5
        assert sobolev_norm(f, 3.0) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_index(self):
        g = GridSpec(16)
        f = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=4).u
        norms = [sobolev_norm(f, s) for s in (0.0, 1.0, 2.0, 3.0, 4.0)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_homogeneity(self):
        g = GridSpec(16)
        f = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=8).u
        scaled = SpectralVectorField(3.5 * f.coeffs, g)
        for s in (0.0, 2.5):
            assert sobolev_norm(scaled, s) == pytest.approx(
                3.5 * sobolev_norm(f, s), rel=1e-13)

    def test_triangle_inequality(self):
        g = GridSpec(16)
        f = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=1).u
        h = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=2).u
        total = SpectralVectorField(f.coeffs + h.coeffs, g)
        for s in (0.0, 3.0):
            assert sobolev_norm(total, s) <= (sobolev_norm(f, s)
                                              + sobolev_norm(h, s) + 1e-12)

    def test_parseval_cross_check(self):
        from mmpsim.spectral import inverse_transform
        g = GridSpec(16)
        f = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=5).u
        phys = inverse_transform(f)
        quadrature = np.sqrt((2 * np.pi / g.n) ** 3 * np.sum(phys ** 2))
        assert sobolev_norm(f, 0.0) == pytest.approx(quadrature, rel=1e-12)

    def test_index_window_and_integrity(self):
        g = GridSpec(8)
        f = zero_vector_field(g)
        with pytest.raises(ValueError):
            sobolev_norm(f, 41.0)
        bad = SpectralVectorField(np.full((3, 8, 8, 8), np.nan, dtype=complex), g)
        with pytest.raises(IntegrityError):
            sobolev_norm(bad, 1.0)


class TestCurlEnergyFunctional:
    def test_zero_state(self):
        g = GridSpec(8)
        zero = zero_vector_field(g)
        state = State(zero, zero, zero, SystemVariant.ZERO_KINEMATIC)
        assert curl_energy_functional(state, 10.0) == 0.0

    def test_no_cross_term_without_omega(self):
        g = GridSpec(16)
        full = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=6)
        state = State(full.u, zero_vector_field(g), full.magnetic,
                      SystemVariant.ZERO_KINEMATIC)
        # with omega = 0 the functional is linear in A through the curl energy
        f1 = curl_energy_functional(state, 1.0)
        f2 = curl_energy_functional(state, 2.0)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_coercive_at_default_weight(self):
        g = GridSpec(16)
        state = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=9)
        curl_energy = (curl_energy_functional(state, 2.0)
                       - curl_energy_functional(state, 1.0))
        assert curl_energy_functional(state, 10.0) >= curl_energy

    def test_coercivity_weight_search(self):
        # report the smallest A making the functional dominate the curl
        # energy over a batch of seeded random states
        g = GridSpec(8)
        worst = 1.0
        for seed in range(1000):
            state = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=seed,
                                 epsilon=1.0)
            curl_energy = (curl_energy_functional(state, 2.0)
                           - curl_energy_functional(state, 1.0))
            cross = curl_energy - curl_energy_functional(state, 1.0)
            worst = max(worst, 1.0 + cross / curl_energy)
        print(f"\ncoercivity weight search: A* = {worst:.6f}")
        assert worst <= 10.0

    def test_weight_below_one_rejected(self):
        g = GridSpec(8)
        zero = zero_vector_field(g)
        state = State(zero, zero, zero, SystemVariant.ZERO_KINEMATIC)
        with pytest.raises(ValueError):
            curl_energy_functional(state, 0.5)


class TestPerturbationFunctionals:
    def params(self):
        return PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)

    def test_zero_state(self):
        g = GridSpec(8)
        zero = zero_vector_field(g)
        state = State(zero, zero, zero, SystemVariant.PERTURBATION)
        e, d = perturbation_energy_functionals(state, self.params())
        assert e == 0.0 and d == 0.0

    def test_velocity_only_state(self):
        g = GridSpec(16)
        full = random_state(g, SystemVariant.PERTURBATION, seed=10)
        zero = zero_vector_field(g)
        state = State(full.u, zero, zero, SystemVariant.PERTURBATION)
        p = self.params()
        e, d = perturbation_energy_functionals(state, p, gamma=4.0,
                                               c0_weight=1.0)
        u_sq = sobolev_norm(state.u, p.r + 5.0) ** 2
        assert e == pytest.approx(4.0 * u_sq, rel=1e-12)
        assert d == pytest.approx(0.5 * u_sq, rel=1e-12)

    def test_omega_only_state(self):
        # (1+|k|^2)^(r+6) - (1+|k|^2)^(r+5) = (1+|k|^2)^(r+5) |k|^2
        g = GridSpec(16)
        full = random_state(g, SystemVariant.PERTURBATION, seed=10)
        zero = zero_vector_field(g)
        state = State(zero, full.omega, zero, SystemVariant.PERTURBATION)
        p = self.params()
        e, d = perturbation_energy_functionals(state, p, gamma=4.0,
                                               c0_weight=1.0)
        w5 = sobolev_norm(state.omega, p.r + 5.0) ** 2
        w6 = sobolev_norm(state.omega, p.r + 6.0) ** 2
        assert e == pytest.approx(4.0 * w5, rel=1e-12)
        assert d == pytest.approx(3.0 * p.eta * (w6 - w5), rel=1e-12)

    def test_coercive(self):
        g = GridSpec(16)
        p = self.params()
        state = random_state(g, SystemVariant.PERTURBATION, seed=11)
        e, _ = perturbation_energy_functionals(state, p, gamma=4.0)
        assert e >= triple_sobolev_norm(state, p.r + 5.0) ** 2

    def test_wrong_variant_rejected(self):
        g = GridSpec(8)
        state = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=1)
        with pytest.raises(ValueError):
            perturbation_energy_functionals(state, self.params())


class TestDiagnosticsRecord:
    def test_zero_kinematic_record(self):
        g = GridSpec(16)
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        state = random_state(g, SystemVariant.ZERO_KINEMATIC, seed=12)
        rec = compute_record(state, p)
        assert rec.t == 0.0
        assert rec.l2_energy == pytest.approx(l2_energy(state))
        assert rec.h3 == pytest.approx(triple_sobolev_norm(state, 3.0))
        assert rec.hN is None and rec.E_func is None
        assert rec.div_u_max <= 1e-11 and rec.div_b_max <= 1e-11
        assert rec.cancel_max <= 1e-10

    def test_perturbation_record(self):
        g = GridSpec(16)
        p = PhysParams(chi=1.0, eta=1.0, alpha=ALPHA, r=2.5)
        state = random_state(g, SystemVariant.PERTURBATION, seed=13)
        settings = DiagnosticsSettings(hn_index=21.0)
        rec = compute_record(state, p, settings)
        assert rec.hN is not None and rec.hr5 is not None
        assert rec.E_func is not None and rec.D_func is not None
        assert rec.alpha_grad_B_hr3 is not None


class TestBandRecord:
    """compute_record runs on the retained band with Hermitian
    multiplicity weights; the field-level functions are its full-spectrum
    oracle."""

    PARAMS = {
        SystemVariant.ZERO_KINEMATIC: PhysParams(chi=1.0, eta=1.0, nu=1.0),
        SystemVariant.PERTURBATION: PhysParams(chi=1.0, eta=1.0, alpha=ALPHA,
                                               r=2.5),
    }

    def stepped_state(self, n, variant):
        p = self.PARAMS[variant]
        state = random_state(GridSpec(n), variant, seed=n, epsilon=0.5)
        return step(state, p, variant, 0.01), p

    @pytest.mark.parametrize("variant", [SystemVariant.ZERO_KINEMATIC,
                                         SystemVariant.PERTURBATION])
    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_matches_full_spectrum_functions(self, n, variant):
        state, p = self.stepped_state(n, variant)
        settings = DiagnosticsSettings(hn_index=5.0, include_hr5=True)
        rec = compute_record(state, p, settings)
        want = {
            "l2_energy": l2_energy(state),
            "h3": triple_sobolev_norm(state, 3.0),
            "hN": triple_sobolev_norm(state, 5.0),
            "hr5": triple_sobolev_norm(state, p.r + 5.0),
            "F_func": curl_energy_functional(state, WEIGHT_A),
        }
        if variant is SystemVariant.PERTURBATION:
            want["E_func"], want["D_func"] = perturbation_energy_functionals(
                state, p, GAMMA, C0_WEIGHT)
            want["alpha_grad_B_hr3"] = alpha_transport_norm(state, p,
                                                            p.r + 3.0)
        else:
            assert rec.E_func is None and rec.alpha_grad_B_hr3 is None
        for name, value in want.items():
            assert getattr(rec, name) == pytest.approx(value, rel=1e-13), name
        # a max over mirrored modes is exact
        assert rec.div_u_max == divergence_residual(state.u) > 0.0
        assert rec.div_b_max == divergence_residual(state.magnetic) > 0.0

    def test_band_parseval(self):
        g = GridSpec(16)
        rng = np.random.default_rng(3)
        shape = (3, g.n, g.n, g.n)
        f = dealias(SpectralVectorField(hermitian_symmetrize(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), g))
        full_sum = parseval_sum(power_spectrum(f.coeffs), g.full)
        band_sum = parseval_sum(power_spectrum(band_part(f.coeffs, g)),
                                g.band)
        assert band_sum == pytest.approx(full_sum, rel=1e-14)
        assert full_sum == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-14)

    def test_reads_only_retained_box(self):
        # a state keeps only the band of the fields it is built from, so
        # the record of noisy fields is the record of their dealiased part
        state, p = self.stepped_state(12, SystemVariant.PERTURBATION)
        g = state.grid
        rng = np.random.default_rng(7)
        shape = (3, g.n, g.n, g.n)
        fields = [SpectralVectorField(
            f.coeffs + hermitian_symmetrize(rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)),
            g) for f in (state.u, state.omega, state.magnetic)]
        noisy = State(*fields, state.variant, t=state.t)
        clean = State(*(dealias(f) for f in fields), state.variant,
                      t=state.t)
        assert not np.array_equal(fields[0].coeffs, noisy.u.coeffs)
        settings = DiagnosticsSettings(hn_index=5.0)
        assert compute_record(noisy, p, settings) == compute_record(
            clean, p, settings)


class TestFitDecay:
    def test_exponential_synthetic(self):
        t = np.linspace(0.0, 10.0, 50)
        report = fit_decay(t, 5.0 * np.exp(-0.3 * t), "exponential")
        assert report.rate == pytest.approx(0.3, abs=1e-6)
        assert report.amplitude == pytest.approx(5.0, rel=1e-6)
        assert report.r_squared > 0.999999

    def test_algebraic_synthetic(self):
        t = np.linspace(0.0, 40.0, 80)
        report = fit_decay(t, 2.0 * (1.0 + t) ** -1.5, "algebraic")
        assert report.exponent == pytest.approx(-1.5, abs=1e-6)
        assert report.amplitude == pytest.approx(2.0, rel=1e-6)
        assert report.r_squared > 0.999999

    def test_t_min_filter(self):
        t = np.linspace(0.0, 10.0, 60)
        y = np.where(t < 2.0, 100.0, 5.0 * np.exp(-0.3 * t))
        report = fit_decay(t, y, "exponential", t_min=2.0)
        assert report.rate == pytest.approx(0.3, abs=1e-6)

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            fit_decay(t, np.exp(-t), "exponential")

    def test_non_positive_rejected(self):
        t = np.linspace(0, 1, 20)
        y = np.exp(-t)
        y[3] = 0.0
        with pytest.raises(ValueError):
            fit_decay(t, y, "exponential")

    def test_unknown_model(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(ValueError):
            fit_decay(t, np.exp(-t), "polynomial")
