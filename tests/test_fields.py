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
    _band_sobolev_norm,
    _rescale_factor,
    check_state,
    make_random_state,
    validate_params,
)
from mmpsim.norms import sobolev_norm
from mmpsim.spectral import (
    GridSpec,
    IntegrityError,
    SpectralVectorField,
    band_part,
    divergence_residual,
    expand_band,
    hermitian_symmetrize,
    project_coeffs,
    sobolev_weights,
    zero_vector_field,
)


def full_spectrum_random_state(grid, init, variant):
    """The construction of `make_random_state` carried out on the full
    spectrum, every operation over all n^3 modes: the oracle of the band
    construction.  Returns the three full-spectrum coefficient arrays."""
    k_peak = init.k_peak if init.k_peak is not None else grid.n / 6.0
    kmag = np.sqrt(grid.k_squared)
    kmag_safe = np.where(kmag == 0.0, 1.0, kmag)
    envelope = (kmag_safe ** (-init.spectrum_slope)
                * np.exp(-grid.k_squared / k_peak ** 2))
    envelope = envelope * grid.dealias_mask
    envelope[0, 0, 0] = 0.0
    rng = np.random.Generator(np.random.Philox(init.seed))
    fields = []
    for name in ("u", "omega", "magnetic"):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(3,) + envelope.shape)
        coeffs = np.empty(phases.shape, dtype=np.complex128)
        coeffs.real = 0.0
        coeffs.imag = phases
        np.exp(coeffs, out=coeffs)
        coeffs *= envelope
        coeffs = hermitian_symmetrize(coeffs)
        coeffs[:, 0, 0, 0] = 0.0
        if name != "omega":
            project_coeffs(coeffs, grid.full, out=coeffs)
        np.multiply(coeffs, grid.dealias_mask, out=coeffs)
        f = SpectralVectorField(coeffs, grid)
        coeffs *= init.epsilon / sobolev_norm(f, init.sobolev_index)
        fields.append(coeffs)
    return fields


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

    @pytest.mark.parametrize("variant, coefficient, prefix", [
        (SystemVariant.ZERO_KINEMATIC, "chi", "zero-kinematic decay"),
        (SystemVariant.ZERO_KINEMATIC, "eta", "zero-kinematic decay"),
        (SystemVariant.ZERO_KINEMATIC, "nu", "zero-kinematic decay"),
        (SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION, "chi", "variant"),
        (SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION, "eta", "variant"),
    ])
    def test_zero_kinematic_hypothesis_rejected(self, variant, coefficient,
                                                prefix):
        # each hypothesis alone: the other coefficients satisfy theirs
        nu = 0.0 if variant.forces_zero_nu else 1.0
        p = PhysParams(**{"chi": 1.0, "eta": 1.0, "nu": nu, coefficient: 0.0})
        report = validate_params(p, variant, strict=True)
        assert not report.ok
        assert report.errors == [f"{prefix} requires {coefficient} > 0, got "
                                 f"{coefficient}=0.0"]

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


class TestInitSpec:
    @pytest.mark.parametrize("field", ["sobolev_index", "spectrum_slope",
                                       "k_peak"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            InitSpec(epsilon=0.01, **{field: value})


class TestRescale:
    """The rescale of `make_random_state` to H^s norm epsilon: the norm it
    takes on the band and the factor it applies."""

    def test_halves_coefficients(self):
        # (e / 2) / c is (e / c) / 2 exactly, and so is every product
        g = GridSpec(16)
        init = InitSpec(epsilon=2.0, sobolev_index=3.0, seed=5)
        half = InitSpec(epsilon=1.0, sobolev_index=3.0, seed=5)
        a = make_random_state(g, init, SystemVariant.ZERO_KINEMATIC)
        b = make_random_state(g, half, SystemVariant.ZERO_KINEMATIC)
        for full, halved in zip(a.arrays, b.arrays):
            assert np.array_equal(halved, full / 2.0)

    def test_identity_when_target_matches(self):
        assert _rescale_factor(0.37, 0.37) == 1.0

    @pytest.mark.parametrize("s", [0.0, 3.0, 4.5])
    def test_norm_recomputation(self, s):
        g = GridSpec(16)
        init = InitSpec(epsilon=0.01, sobolev_index=s, seed=5)
        state = make_random_state(g, init, SystemVariant.PERTURBATION)
        for f in (state.u, state.omega, state.magnetic):
            assert sobolev_norm(f, s) == pytest.approx(0.01, rel=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="zero field"):
            _rescale_factor(0.0, 1.0)

    # the band norm must be `sobolev_norm` of the expanded field bit for
    # bit, or the rescaled coefficients change their bytes
    @pytest.mark.parametrize("n", [8, 10, 16])
    @pytest.mark.parametrize("s", [0.0, 3.0, 4.5, 21.0])
    def test_band_norm_is_sobolev_norm_bitwise(self, n, s):
        g = GridSpec(n)
        state = make_random_state(g, InitSpec(epsilon=2.0, seed=n),
                                  SystemVariant.PERTURBATION)
        weights = sobolev_weights(g.band, s)
        for name, band in zip(("u", "omega", "magnetic"), state.arrays):
            assert (_band_sobolev_norm(band, weights, g)
                    == sobolev_norm(getattr(state, name), s))

    def test_band_norm_rejects_non_finite(self):
        g = GridSpec(8)
        band = np.zeros((3,) + g.band_shape, dtype=np.complex128)
        band[0, 1, 0, 0] = np.nan
        with pytest.raises(IntegrityError):
            _band_sobolev_norm(band, sobolev_weights(g.band, 3.0), g)


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

    @pytest.mark.parametrize("field, index, message", [
        (0, (0, 0, 0, 0), "u is not mean-zero"),
        (1, (2, 0, 0, 0), "omega is not mean-zero"),
        (2, (0, 1, 0, 0), "magnetic divergence residual "),
    ])
    def test_check_state_refusals(self, field, index, message):
        # a mean mode, or a mode of b parallel to k = (1, 0, 0)
        state = make_random_state(GridSpec(8), InitSpec(epsilon=0.1, seed=3),
                                  SystemVariant.ZERO_KINEMATIC)
        arrays = [a.copy() for a in state.arrays]
        arrays[field][index] += 1.0
        with pytest.raises(ValueError, match=f"^{message}"):
            check_state(State.from_band(arrays, state.grid, state.variant))

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

    # n = 8, 10, 12 cover every residue of n mod 3; 20 and 48 give the
    # mirror gather more cutoffs kc
    @pytest.mark.parametrize("n", [8, 10, 12, 16, 20, 32, 48])
    @pytest.mark.parametrize("variant", [SystemVariant.ZERO_KINEMATIC,
                                         SystemVariant.PERTURBATION,
                                         SystemVariant.FULL])
    @pytest.mark.parametrize("settings", [{}, {"k_peak": 2.0},
                                          {"spectrum_slope": 0.0}],
                             ids=["default", "k_peak", "flat"])
    def test_band_construction_matches_full_spectrum(self, n, variant,
                                                     settings):
        g = GridSpec(n)
        init = InitSpec(epsilon=0.01, seed=n, **settings)
        got = make_random_state(g, init, variant)
        want = full_spectrum_random_state(g, init, variant)
        for name, band, b in zip(("u", "omega", "magnetic"), got.arrays,
                                 want):
            assert band.tobytes() == band_part(b, g).tobytes()
            a = getattr(got, name).coeffs
            assert np.array_equal(a, b)
            outside = a[:, ~g.dealias_mask]
            assert not np.signbit(outside.real).any()
            assert not np.signbit(outside.imag).any()

    # SHA-256 of the bytes of the u, omega, magnetic band arrays that the
    # state holds: the construction may be reorganised only if every IEEE
    # operation and its order stay
    @pytest.mark.parametrize("variant, init, expected", [
        (SystemVariant.ZERO_KINEMATIC, InitSpec(epsilon=0.01, seed=2024),
         "d9f8351283d5b4760e8b54345e989ee74917ebbecdf478ea8b19f1a8590a1c9f"),
        (SystemVariant.PERTURBATION,
         InitSpec(epsilon=0.01, sobolev_index=21.0, spectrum_slope=1.5,
                  k_peak=4.0, seed=7),
         "fc722a21cf307a9c53d6838bd9e3514b62903b1eb176ce3c48e844c47a414744"),
    ], ids=["zero-kinematic", "perturbation"])
    def test_coefficients_pinned(self, variant, init, expected):
        state = make_random_state(GridSpec(16), init, variant)
        digest = hashlib.sha256()
        for band in state.arrays:
            digest.update(band.tobytes())
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

    def test_state_holds_three_band_vectors(self):
        # at 32^3 the three band vectors are 0.70 MB; the full-spectrum
        # fields a state used to hold were 4.72 MB
        g = GridSpec(32)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=2024),
                                  SystemVariant.PERTURBATION)
        band_vector = 3 * 21 * 21 * 11 * 16
        assert not any(isinstance(value, np.ndarray)
                       for value in vars(state).values())
        assert [a.shape for a in state.arrays] == [(3,) + g.band_shape] * 3
        assert sum(a.nbytes for a in state.arrays) == 3 * band_vector == 698544

    def test_fields_built_on_each_access(self):
        g = GridSpec(16)
        state = make_random_state(g, InitSpec(epsilon=0.01, seed=3),
                                  SystemVariant.FULL)
        for name, band in zip(("u", "omega", "magnetic"), state.arrays):
            first, second = getattr(state, name), getattr(state, name)
            assert first.coeffs is not second.coeffs
            for f in (first, second):
                assert f.coeffs.tobytes() == expand_band(band, g).tobytes()

    def test_state_keeps_the_band_of_its_fields(self):
        g = GridSpec(12)
        rng = np.random.default_rng(12)
        shape = (3, g.n, g.n, g.n)
        fields = [SpectralVectorField(rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape), g)
                  for _ in range(3)]
        state = State(*fields, SystemVariant.FULL, t=0.5)
        for band, f in zip(state.arrays, fields):
            assert band.tobytes() == band_part(f.coeffs, g).tobytes()
        assert state.t == 0.5 and state.grid is g
        moved = state.with_time(1.5)
        assert moved.t == 1.5 and moved.arrays == state.arrays

    def test_grid_mismatch_in_state_rejected(self):
        a = zero_vector_field(GridSpec(8))
        b = zero_vector_field(GridSpec(16))
        with pytest.raises(ValueError):
            State(a, a, b, SystemVariant.FULL)
