"""Parameter validation, state construction, and random initial data."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mmpsim.fields import (
    InitSpec,
    PhysParams,
    State,
    SystemVariant,
    check_state,
    make_random_state,
    rescale_to_norm,
    validate_params,
)
from mmpsim.norms import sobolev_norm
from mmpsim.spectral import GridSpec, divergence_residual, zero_vector_field


class TestPhysParams:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            PhysParams(chi=-1.0)
        with pytest.raises(ValueError):
            PhysParams(eta=float("nan"))

    def test_rejects_small_diophantine_exponent(self):
        with pytest.raises(ValueError):
            PhysParams(r=2.0)

    def test_effective_coefficients(self):
        p = PhysParams(mu=0.5, chi=1.0, eta=1.0, nu=0.25)
        assert p.u_diffusion(SystemVariant.FULL) == 1.5
        assert p.u_diffusion(SystemVariant.ZERO_KINEMATIC) == 1.0
        assert p.u_diffusion(SystemVariant.IDEAL_MHD) == 0.0
        assert p.magnetic_diffusion(SystemVariant.ZERO_KINEMATIC) == 0.25
        assert p.magnetic_diffusion(SystemVariant.PERTURBATION) == 0.0
        assert p.coupling_chi(SystemVariant.INVISCID_RESISTIVE_MHD) == 0.0


class TestValidateParams:
    def test_zero_kinematic_hypotheses_accepted(self):
        p = PhysParams(chi=1.0, eta=1.0, nu=1.0)
        report = validate_params(p, SystemVariant.ZERO_KINEMATIC, strict=True)
        assert report.ok and not report.errors

    def test_structure_condition_rejected(self):
        p = PhysParams(chi=1.0, eta=1.0, alpha=(1.0, 1.0, 1.0))
        report = validate_params(p, SystemVariant.PERTURBATION, strict=True)
        assert not report.ok
        assert any("|alpha|^2" in e and "3" in e for e in report.errors)

    def test_structure_condition_accepted(self):
        a = 0.9 * np.array([1.0, np.sqrt(2), np.sqrt(3)]) / np.sqrt(6.0)
        p = PhysParams(chi=1.0, eta=1.0, alpha=tuple(a))
        report = validate_params(p, SystemVariant.PERTURBATION, strict=True)
        assert report.ok

    def test_chi_upper_bound(self):
        p = PhysParams(chi=2.5, eta=1.0, alpha=(0.1, 0.1, 0.1))
        report = validate_params(p, SystemVariant.PERTURBATION, strict=True)
        assert any("chi < 2" in e for e in report.errors)

    def test_open_problem_regime_warns(self):
        p = PhysParams(chi=0.0, nu=1.0)
        report = validate_params(p, SystemVariant.INVISCID_RESISTIVE_MHD,
                                 strict=True)
        assert report.ok
        assert any("open problem" in w for w in report.warnings)

    def test_forced_zero_coefficients(self):
        p = PhysParams(mu=0.1, chi=1.0, eta=1.0, nu=1.0)
        strict = validate_params(p, SystemVariant.ZERO_KINEMATIC, strict=True)
        assert not strict.ok and any("forces mu=0" in e for e in strict.errors)
        permissive = validate_params(p, SystemVariant.ZERO_KINEMATIC,
                                     strict=False)
        assert permissive.ok and permissive.warnings


class TestRescale:
    def grid_and_field(self):
        g = GridSpec(16)
        init = InitSpec(epsilon=2.0, sobolev_index=3.0, seed=5)
        return g, make_random_state(g, init, SystemVariant.ZERO_KINEMATIC).u

    def test_halves_coefficients(self):
        g, f = self.grid_and_field()
        current = sobolev_norm(f, 3.0)
        scaled = rescale_to_norm(f, 3.0, current / 2.0)
        assert np.allclose(scaled.coeffs, f.coeffs / 2.0)

    def test_identity_when_target_matches(self):
        g, f = self.grid_and_field()
        same = rescale_to_norm(f, 3.0, sobolev_norm(f, 3.0))
        assert np.abs(same.coeffs - f.coeffs).max() <= 1e-14 * np.abs(f.coeffs).max()

    def test_norm_recomputation(self):
        g, f = self.grid_and_field()
        out = rescale_to_norm(f, 4.5, 0.01)
        assert sobolev_norm(out, 4.5) == pytest.approx(0.01, rel=1e-12)

    def test_zero_field_rejected(self):
        g = GridSpec(8)
        with pytest.raises(ValueError):
            rescale_to_norm(zero_vector_field(g), 3.0, 1.0)


class TestMakeRandomState:
    def test_zero_epsilon_gives_zero_state(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.0),
                                  SystemVariant.ZERO_KINEMATIC)
        for f in (state.u, state.omega, state.magnetic):
            assert np.abs(f.coeffs).max() == 0.0

    def test_determinism(self):
        g = GridSpec(16)
        init = InitSpec(epsilon=0.01, seed=42)
        a = make_random_state(g, init, SystemVariant.ZERO_KINEMATIC)
        b = make_random_state(g, init, SystemVariant.ZERO_KINEMATIC)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.omega.coeffs, b.omega.coeffs)
        assert np.array_equal(a.magnetic.coeffs, b.magnetic.coeffs)

    def test_seeds_differ(self):
        g = GridSpec(16)
        a = make_random_state(g, InitSpec(epsilon=0.01, seed=1),
                              SystemVariant.ZERO_KINEMATIC)
        b = make_random_state(g, InitSpec(epsilon=0.01, seed=2),
                              SystemVariant.ZERO_KINEMATIC)
        assert not np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_norms_and_invariants(self):
        g = GridSpec(32)
        init = InitSpec(epsilon=0.01, sobolev_index=3.0, seed=7)
        state = make_random_state(g, init, SystemVariant.ZERO_KINEMATIC)
        for f in (state.u, state.omega, state.magnetic):
            assert sobolev_norm(f, 3.0) == pytest.approx(0.01, rel=1e-10)
        assert divergence_residual(state.u) <= 1e-12
        assert divergence_residual(state.magnetic) <= 1e-12
        check_state(state)

    def test_omega_not_projected(self):
        # the micro-rotation field legitimately carries divergence
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=1.0, seed=3),
                                  SystemVariant.ZERO_KINEMATIC)
        assert divergence_residual(state.omega) > 1e-6

    def test_k_peak_beyond_cutoff_rejected(self):
        g = GridSpec(16)
        init = InitSpec(epsilon=0.01, k_peak=7.0)
        with pytest.raises(ValueError):
            make_random_state(g, init, SystemVariant.ZERO_KINEMATIC)

    # SHA-256 of the u, omega, magnetic coefficient bytes: the construction
    # may be reorganised only if every IEEE operation and its order stay
    @pytest.mark.parametrize("variant, init, expected", [
        (SystemVariant.ZERO_KINEMATIC, InitSpec(epsilon=0.01, seed=2024),
         "8e88b128e92d441f4d92f2e4fa743a4f80ce7d0780cd460ffea681ad40a850a4"),
        (SystemVariant.PERTURBATION,
         InitSpec(epsilon=0.01, sobolev_index=21.0, spectrum_slope=1.5,
                  k_peak=4.0, seed=7),
         "22bd19a2de8a44aec255c4d65cedeb9a0a72e80c6ebc7188caecb59f559b304c"),
    ], ids=["zero-kinematic", "perturbation"])
    def test_coefficients_pinned(self, variant, init, expected):
        state = make_random_state(GridSpec(16), init, variant)
        digest = hashlib.sha256()
        for f in (state.u, state.omega, state.magnetic):
            digest.update(f.coeffs.tobytes())
        assert digest.hexdigest() == expected

    def test_working_set(self):
        # a 4.72 MB state at 32^3: measured peak 6.76 MB, 10.62 MB when each
        # operation made a full-size copy
        g = GridSpec(32)
        init = InitSpec(epsilon=0.01, seed=2024)
        make_random_state(g, init, SystemVariant.PERTURBATION)  # grid caches
        tracemalloc.start()
        try:
            make_random_state(g, init, SystemVariant.PERTURBATION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.0e6

    def test_grid_mismatch_in_state_rejected(self):
        a = zero_vector_field(GridSpec(8))
        b = zero_vector_field(GridSpec(16))
        with pytest.raises(ValueError):
            State(a, a, b, SystemVariant.FULL)
