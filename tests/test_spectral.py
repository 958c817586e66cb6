"""Spectral core: transforms, the retained-band layout, exact operators,
projection, dealiasing.

The pseudo-spectral product check uses a direct convolution sum over the
integer lattice as an independent oracle.
"""

import tracemalloc

import numpy as np
import pytest

from mmpsim import spectral
from mmpsim.spectral import (
    BandWorkspace,
    GridSpec,
    SpectralScalarField,
    SpectralVectorField,
    alpha_dot_grad,
    band_part,
    curl,
    dealias,
    divergence,
    divergence_residual,
    expand_band,
    forward_transform,
    grad_div,
    gradient,
    hermitian_symmetrize,
    inner_product,
    inverse_transform,
    laplacian,
    leray_project,
    project_coeffs,
    to_physical,
    slab_planes,
    to_spectral,
    zero_mean,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3


def random_physical(grid, seed, ncomp=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((ncomp, grid.n, grid.n, grid.n))


def random_bandlimited(grid, seed):
    """Random real mean-zero vector field supported inside the dealias band."""
    f = forward_transform(random_physical(grid, seed), grid)
    return zero_mean(dealias(f))


def random_bandlimited_scalar(grid, seed):
    f = forward_transform(random_physical(grid, seed, ncomp=1)[0], grid)
    return zero_mean(dealias(f))


class TestGridSpec:
    def test_rejects_small_or_odd(self):
        with pytest.raises(ValueError):
            GridSpec(6)
        with pytest.raises(ValueError):
            GridSpec(9)

    def test_dealias_cutoff(self):
        assert GridSpec(8).kmax_dealias == 2
        assert GridSpec(32).kmax_dealias == 10

    def test_wavenumber_layout(self):
        g = GridSpec(8)
        assert list(g.k_axis) == [0, 1, 2, 3, -4, -3, -2, -1]


class TestTransforms:
    def test_cosine_single_mode(self):
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.broadcast_to(np.cos(x1), (g.n, g.n, g.n))
        f = forward_transform(np.ascontiguousarray(phys), g)
        assert f.coeff(1, 0, 0) == pytest.approx(0.5, abs=1e-14)
        assert f.coeff(-1, 0, 0) == pytest.approx(0.5, abs=1e-14)
        other = f.coeffs.copy()
        other[1, 0, 0] = other[-1, 0, 0] = 0.0
        assert np.abs(other).max() < 1e-14

    def test_constant_field(self):
        g = GridSpec(8)
        f = forward_transform(np.ones((8, 8, 8)), g)
        assert f.coeff(0, 0, 0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed):
        g = GridSpec(16)
        phys = random_physical(g, seed)
        back = inverse_transform(forward_transform(phys, g))
        assert np.max(np.abs(back - phys)) <= 1e-12 * np.max(np.abs(phys))

    def test_parseval(self):
        g = GridSpec(16)
        phys = random_physical(g, 7)
        f = forward_transform(phys, g)
        quadrature = (2 * np.pi / g.n) ** 3 * np.sum(phys ** 2)
        spectral_sum = TWO_PI_CUBED * np.sum(np.abs(f.coeffs) ** 2)
        assert spectral_sum == pytest.approx(quadrature, rel=1e-12)
        assert inner_product(f, f) == pytest.approx(quadrature, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        g = GridSpec(8)
        with pytest.raises(ValueError):
            forward_transform(np.zeros((3, 8, 8, 4)), g)
        with pytest.raises(ValueError):
            forward_transform(np.zeros((4, 8, 8)), g)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (3, 8, 8, 8)],
                             ids=["scalar", "vector"])
    def test_complex_values_refused(self, shape):
        # a cast to float64 used to drop the imaginary parts with only a
        # ComplexWarning
        with pytest.raises(ValueError, match="takes real values, not "
                                             "complex"):
            forward_transform(np.full(shape, 1.0 + 2.0j), GridSpec(8))

    @pytest.mark.parametrize("n", [8, 16])
    def test_one_array_gives_a_scalar_field(self, n):
        # the transform dispatches on rank: one (n,n,n) array gives the
        # scalar field of numpy's n-d FFT, bit for bit
        g = GridSpec(n)
        x = random_physical(g, n, ncomp=1)[0]
        f = forward_transform(x, g)
        assert type(f) is SpectralScalarField
        assert f.coeffs.tobytes() == (np.fft.fftn(x) / n ** 3).tobytes()

    @pytest.mark.parametrize("field_type, shape, want", [
        (SpectralScalarField, (3, 8, 8, 8), (8, 8, 8)),
        (SpectralVectorField, (8, 8, 8), (3, 8, 8, 8)),
    ], ids=["scalar", "vector"])
    def test_field_refuses_the_other_rank(self, field_type, shape, want):
        # both classes state their shape rule in one message
        with pytest.raises(ValueError) as info:
            field_type(np.zeros(shape, dtype=np.complex128), GridSpec(8))
        assert str(info.value) == (f"coefficient array shape {shape} does "
                                   f"not match {want} for grid n=8")

    def test_translation_equivariance(self):
        g = GridSpec(16)
        phys = random_physical(g, 11, ncomp=1)[0]
        f = forward_transform(phys, g)
        shifted = forward_transform(np.roll(phys, -1, axis=0), g)
        k1 = g.k_vectors[0]
        phase = np.exp(1j * k1 * g.spacing)
        err = np.abs(shifted.coeffs - phase * f.coeffs).max()
        assert err <= 1e-12 * np.abs(f.coeffs).max()

    def test_hermitian_symmetrize_gives_real_field(self):
        g = GridSpec(8)
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        sym = hermitian_symmetrize(raw)
        phys = np.fft.ifftn(sym) * g.npoints
        assert np.abs(phys.imag).max() < 1e-12 * np.abs(phys.real).max()
        # projection is idempotent
        assert np.allclose(hermitian_symmetrize(sym), sym, atol=1e-15)

    @pytest.mark.parametrize("n", [8, 10, 16])
    @pytest.mark.parametrize("rank", ["scalar", "vector"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_hermitian_symmetrize_matches_roll_flip_form(self, n, rank,
                                                         dtype):
        # oracle: the reflection c(-k) as a flip and a roll per axis, then
        # 0.5 (c + conj(c(-k))); entries of -0.0 check the signs of zeros
        rng = np.random.default_rng(n)
        shape = (n, n, n) if rank == "scalar" else (3, n, n, n)
        c = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            c.imag = rng.standard_normal(shape)
            c.imag[rng.random(shape) < 0.2] = -0.0
        c.real[rng.random(shape) < 0.2] = -0.0
        reflected = c
        for ax in (-3, -2, -1):
            reflected = np.roll(np.flip(reflected, axis=ax), 1, axis=ax)
        want = 0.5 * (c + np.conj(reflected))
        before = c.copy()
        got = hermitian_symmetrize(c)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert c.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_hermitian_symmetrize_on_the_retained_box(self, n):
        # the box |k_i| <= kc in FFT order is closed under k -> -k, so its
        # reflection is the block copy's i -> (-i) mod (2kc+1)
        g = GridSpec(n)
        rng = np.random.default_rng(n)
        shape = (3, n, n, n)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        box = np.ix_(range(3), g.band_index, g.band_index, g.band_index)
        got = hermitian_symmetrize(c[box])
        assert got.tobytes() == hermitian_symmetrize(c)[box].tobytes()


class TestBandTransforms:
    # n = 8, 10, 12 cover every residue of n mod 3 (the cutoff n//3)
    @pytest.mark.parametrize("n", [8, 10, 12, 16, 32])
    def test_match_numpy_real_transforms_bit_for_bit(self, n):
        g = GridSpec(n)
        axes = (-3, -2, -1)
        full = hermitian_symmetrize(random_bandlimited(g, n).coeffs)
        band = band_part(full, g)
        kc = g.kmax_dealias
        assert band.shape == (3, 2 * kc + 1, 2 * kc + 1, kc + 1)
        phys = to_physical(band, g)
        assert np.array_equal(phys, np.fft.irfftn(
            full[..., :n // 2 + 1], s=(n, n, n), axes=axes, norm="forward"))
        for values in (phys, random_physical(g, n + 1)):
            assert np.array_equal(to_spectral(values, g), band_part(
                np.fft.rfftn(values, axes=axes, norm="forward"), g))

    @pytest.mark.parametrize("n", [16, 32])
    def test_workspace_transforms_allocate_no_array(self, n):
        # warm calls: a gather by np.take(..., mode="clip") copied its
        # strided input, 25,000 B traced at 16^3 and 180,648 B at 32^3
        g = GridSpec(n)
        ws = BandWorkspace(g)
        band = band_part(hermitian_symmetrize(
            random_bandlimited(g, n).coeffs), g)[0]
        phys = np.empty((n, n, n))
        out = np.empty_like(band)
        calls = (lambda: ws.to_physical(band, phys),
                 lambda: ws.to_spectral(out, phys))
        for call in calls:
            call()
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - base < 4096
        finally:
            tracemalloc.stop()
        assert np.allclose(out, band, rtol=0.0, atol=1e-12)


class TestSlabs:
    def test_slab_planes(self):
        # 256 KiB of real values: the whole grid up to n = 32
        assert all(slab_planes(n) == n for n in range(8, 34, 2))
        assert [slab_planes(n) for n in (34, 48, 64, 128, 182, 512)] == [
            28, 14, 8, 2, 1, 1]

    @pytest.mark.parametrize("planes", [1, 3, None], ids=["1", "3", "whole"])
    @pytest.mark.parametrize("n", [8, 16, 24, 48, 64])
    def test_slab_split_equals_whole_grid_transforms(self, monkeypatch, n,
                                                     planes):
        # numpy transforms line by line and forms products elementwise, so
        # the x1-local passes and the products run one slab at a time,
        # a last slab of fewer planes included, equal the n-d real
        # transforms of the whole grid bit for bit
        planes = planes or n
        monkeypatch.setattr(spectral, "SLAB_BYTES", 8 * planes * n * n)
        g = GridSpec(n)
        ws = BandWorkspace(g)
        assert len(ws.slabs) == -(-n // planes)
        assert ws.wide.shape == (planes, n, n // 2 + 1)
        axes = (-3, -2, -1)
        full = hermitian_symmetrize(random_bandlimited(g, n).coeffs)
        phys = np.empty((3, n, n, n))
        for c, out in zip(band_part(full, g), phys):
            ws.to_physical(c, out)
        assert phys.tobytes() == np.fft.irfftn(
            full[..., :n // 2 + 1], s=(n, n, n), axes=axes,
            norm="forward").tobytes()
        a, b, c, d = random_physical(g, n + 1, ncomp=4)
        ws.product = np.empty(ws.spare.shape)
        out = np.empty(g.band_shape, dtype=np.complex128)
        for factors, values in (((a,), a), ((a, b), a * b),
                                ((a, b, c, d), a * b - c * d)):
            ws.to_spectral(out, *factors)
            assert out.tobytes() == band_part(np.fft.rfftn(
                values, axes=axes, norm="forward"), g).tobytes()


class TestPool:
    @pytest.mark.parametrize("n, buffers", [(8, 2), (12, 2), (16, 2),
                                            (18, 2), (64, 2)])
    def test_band_scalars_are_views_of_grid_buffers(self, n, buffers):
        # the step's 10 band scalars per block of propagations: a grid
        # buffer's memory holds a complex band vector, so 6 fit in one and
        # 2 buffers hold them (3 at 12^3 and 18^3 when a buffer held n^3
        # reals only)
        g = GridSpec(n)
        with spectral.StepEngine(g) as engine:
            with engine.scope():
                scalars = engine.band_scalars(10)
                grid = engine._grid.arrays
                assert len(grid) == engine._grid.top == buffers
                for i, a in enumerate(scalars):
                    assert a.shape == g.band_shape and a.dtype == np.float64
                    assert a.flags.c_contiguous
                    assert any(np.shares_memory(a, b) for b in grid)
                    a.fill(i)
                assert all((a == i).all() for i, a in enumerate(scalars))
            assert engine._grid.top == 0
            with engine.scope():
                assert engine.band_scalars(0) == []
                assert engine._grid.top == 0

    @pytest.mark.parametrize("n", [8, 12, 16, 32, 48, 64])
    def test_band_vectors_are_views_of_grid_buffers(self, n):
        # the step's third evaluation forms y3 again in 3 band vectors of
        # idle grid buffers: one per buffer, also where a band vector
        # needs more than n^3 reals (12^3, 16^3, 48^3), and the grid
        # buffers handed out later are the same memory
        g = GridSpec(n)
        with spectral.StepEngine(g) as engine:
            with engine.scope():
                vectors = engine.band_vectors(3)
                assert len(engine._grid.arrays) == engine._grid.top == 3
                for i, (v, a) in enumerate(zip(vectors,
                                               engine._grid.arrays)):
                    assert v.shape == (3,) + g.band_shape
                    assert v.dtype == np.complex128 and v.flags.c_contiguous
                    assert np.shares_memory(v, a)
                    v.fill(i + 1j)
                assert all((v == i + 1j).all() for i, v in enumerate(vectors))
            with engine.scope():
                buffers = engine.grid_buffers(3)
                assert len(engine._grid.arrays) == 3
                for v, b in zip(vectors, buffers):
                    assert b.shape == (n, n, n) and b.flags.c_contiguous
                    assert np.shares_memory(v, b)

    def test_release_keeps_the_band_buffers_in_use(self):
        # the audit releases the pool while it holds its five advected
        # fields: the idle band buffers go, the held ones stay pooled
        g = GridSpec(8)
        with spectral.StepEngine(g) as engine:
            with engine.scope():
                engine.band_buffers(10)
                engine.grid_buffers(2)
            with engine.scope():
                held = list(map(id, engine.band_buffers(5)))
                engine.release()
                assert list(map(id, engine._band.arrays)) == held
                assert not engine._grid.arrays and not engine._workspaces
            with engine.scope():
                assert list(map(id, engine.band_buffers(5))) == held
                assert len(engine._band.arrays) == 5

    def test_release_keeps_the_grid_buffers_in_use(self):
        # one rule for every stack: release drops only the buffers above
        # its top, so grid buffers held in an open scope stay pooled and
        # the next request after the scope gets the same memory; the end
        # of the engine's ``with`` block drops them all
        g = GridSpec(8)
        with spectral.StepEngine(g) as engine:
            with engine.scope():
                engine.grid_buffers(4)
            with engine.scope():
                held = engine.grid_buffers(2)
                engine.release()
                assert len(engine._grid.arrays) == 2
            with engine.scope():
                again = engine.grid_buffers(2)
            assert all(np.shares_memory(a, b) for a, b in zip(held, again))
        assert engine.nbytes == 0


def ix_band_part(c, grid):
    """`band_part` as one fancy-indexed gather, the oracle of its blocks."""
    idx = grid.band_index
    return c[(...,) + np.ix_(idx, idx, idx[:grid.kmax_dealias + 1])]


def ix_expand_band(c, grid):
    """`expand_band` as two fancy-indexed scatters in c's dtype, the oracle
    of its blocks."""
    n, kc = grid.n, grid.kmax_dealias
    idx = grid.band_index
    out = np.zeros(c.shape[:-3] + (n, n, n), dtype=c.dtype)
    out[(...,) + np.ix_(idx, idx, idx[:kc + 1])] = c
    mirror = np.conj(c[..., kc:0:-1])
    out[(...,) + np.ix_(idx, idx, idx[kc + 1:])] = np.roll(
        np.flip(mirror, axis=(-3, -2)), 1, axis=(-3, -2))
    return out


class TestBandLayout:
    # the block copies must write the bytes of the fancy-indexed ones,
    # signed zeros included: the audit's pairings and every checkpoint
    # depend on it
    @pytest.mark.parametrize("n", [8, 10, 12, 16, 32, 64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["scalar", "vector"])
    def test_band_part_bytes_match_fancy_indexing(self, n, lead):
        g = GridSpec(n)
        rng = np.random.default_rng(n)
        shape = lead + (n, n, n)
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for c in (full, full[..., :n // 2 + 1], full.real):
            band = band_part(c, g)
            oracle = ix_band_part(c, g)
            assert band.dtype == oracle.dtype and band.shape == oracle.shape
            assert band.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 32, 64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["scalar", "vector"])
    def test_expand_band_bytes_match_fancy_indexing(self, n, lead):
        g = GridSpec(n)
        kc = g.kmax_dealias
        rng = np.random.default_rng(n + 1)
        shape = lead + (2 * kc + 1, 2 * kc + 1, kc + 1)
        band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        band[rng.random(shape) < 0.2] = complex(-0.0, -0.0)
        band.real[rng.random(shape) < 0.2] = -0.0
        band.imag[rng.random(shape) < 0.2] = -0.0
        # a real band (a power spectrum) expands to real values
        for c in (band, band.real):
            full = expand_band(c, g)
            oracle = ix_expand_band(c, g)
            assert full.dtype == oracle.dtype == c.dtype
            assert full.tobytes() == oracle.tobytes()
            assert band_part(full, g).tobytes() == c.tobytes()

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 32, 64])
    def test_band_wavevectors_are_gathers_of_the_full_layout(self, n):
        # |k|^2 of the band is formed on it, not gathered: the gather of the
        # full layout's arrays is the oracle
        g = GridSpec(n)
        idx = g.band_index
        kc = g.kmax_dealias
        layout, index = g.band, (idx, idx, idx[:kc + 1])
        pairs = list(zip(layout.k_vectors, g.full.k_vectors)) + [
            (layout.k_squared, g.k_squared),
            (layout.k_squared_safe, g.full.k_squared_safe)]
        for got, full in pairs:
            # gather along the axes the full array spans
            want = full[np.ix_(*(i if size == n else [0]
                                 for i, size in zip(index, full.shape)))]
            assert got.flags.c_contiguous
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        want = np.r_[1.0, np.full(kc, 2.0)].reshape(1, 1, kc + 1)
        assert g.band.multiplicity.tobytes() == want.tobytes()


    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_row_views_slice_the_band(self, n):
        # a view of k1-rows holds slices of the band's arrays (no array is
        # formed anew), and the projection on it zeroes k = 0 only in the
        # range that holds it: row by row, the whole band's projection
        g = GridSpec(n)
        band, rows = g.band, g.band_shape[0]
        views = [band.row_view(0, rows // 2), band.row_view(rows // 2, rows)]
        assert [v.holds_origin for v in views] == [True, False]
        assert band.holds_origin and g.full.holds_origin
        for view in views:
            for got, whole in zip(
                    view.k_vectors + (view.multiplicity, view.k_squared,
                                      view.k_squared_safe),
                    band.k_vectors + (band.multiplicity, band.k_squared,
                                      band.k_squared_safe)):
                assert np.shares_memory(got, whole) or got is whole
                want = whole if whole.shape[0] == 1 else whole[view.rows]
                assert got.tobytes() == want.tobytes()
        c = hermitian_symmetrize(np.random.default_rng(n).standard_normal(
            (3, n, n, n)) + 0j)
        c = band_part(c, g)
        want = project_coeffs(c, band)
        got = np.empty_like(c)
        for view in views:
            project_coeffs(view.part(c), view, out=view.part(got))
        assert got.tobytes() == want.tobytes()


class TestDiffOps:
    def test_curl_of_sine_column(self):
        # u = (0, 0, sin x1) -> curl u = (0, -cos x1, 0)
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[2] = np.sin(x1)
        w = inverse_transform(curl(forward_transform(phys, g)))
        expected = np.zeros_like(phys)
        expected[1] = -np.cos(x1)
        assert np.max(np.abs(w - expected)) < 1e-13

    def test_div_of_x2_dependent_field(self):
        g = GridSpec(16)
        _, x2, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[0] = np.sin(x2)
        d = divergence(forward_transform(phys, g))
        assert np.abs(d.coeffs).max() == 0.0

    def test_laplacian_of_cosine(self):
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.ascontiguousarray(np.broadcast_to(np.cos(x1), (g.n,) * 3))
        lap = inverse_transform(laplacian(forward_transform(phys, g)))
        assert np.max(np.abs(lap + phys)) < 1e-13

    @pytest.mark.parametrize("seed", [5, 6])
    def test_div_curl_and_curl_grad_vanish(self, seed):
        g = GridSpec(16)
        v = random_bandlimited(g, seed)
        dcv = divergence(curl(v))
        scale = np.abs(v.coeffs).max()
        assert np.abs(dcv.coeffs).max() <= 1e-14 * scale
        scalar = random_bandlimited_scalar(g, seed + 100)
        cgf = curl(gradient(scalar))
        assert np.abs(cgf.coeffs).max() <= 1e-14 * np.abs(scalar.coeffs).max()

    def test_grad_div_matches_inline_symbol(self):
        # oracle: -k (k.v) written out on the full layout
        g = GridSpec(16)
        v = forward_transform(random_physical(g, 4), g)
        k1, k2, k3 = g.k_vectors
        kdotv = k1 * v.coeffs[0] + k2 * v.coeffs[1] + k3 * v.coeffs[2]
        want = np.stack([-k1 * kdotv, -k2 * kdotv, -k3 * kdotv])
        assert np.array_equal(grad_div(v).coeffs, want)

    def test_alpha_dot_grad_matches_gradient_contraction(self):
        g = GridSpec(8)
        alpha = (0.3, -1.2, 0.7)
        scalar = random_bandlimited_scalar(g, 9)
        direct = alpha_dot_grad(scalar, alpha)
        gr = gradient(scalar)
        contracted = sum(a * gr.coeffs[i] for i, a in enumerate(alpha))
        assert np.allclose(direct.coeffs, contracted, atol=1e-15)


class TestRankGenericWrappers:
    """A wrapper that takes either rank acts on the trailing three axes, so
    on a vector field it is the stack of its scalar results per component."""

    @pytest.mark.parametrize("op", [
        laplacian, dealias, zero_mean, inverse_transform,
        lambda f: alpha_dot_grad(f, (0.3, -1.2, 0.7)),
    ], ids=["laplacian", "dealias", "zero_mean", "inverse_transform",
            "alpha_dot_grad"])
    def test_vector_is_stack_of_components(self, op):
        g = GridSpec(16)
        v = forward_transform(random_physical(g, 21), g)
        parts = [op(SpectralScalarField(c, g)) for c in v.coeffs]
        got = op(v)
        if op is inverse_transform:
            assert np.array_equal(got, np.stack(parts))
            return
        assert type(got) is SpectralVectorField and got.grid is g
        assert all(type(part) is SpectralScalarField for part in parts)
        assert np.array_equal(got.coeffs,
                              np.stack([part.coeffs for part in parts]))


class TestLerayProjection:
    def test_annihilates_gradient_field(self):
        # v = grad sin(x1 + x2) = (cos(x1+x2), cos(x1+x2), 0)
        g = GridSpec(16)
        x1, x2, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[0] = np.cos(x1 + x2)
        phys[1] = np.cos(x1 + x2)
        p = leray_project(forward_transform(phys, g))
        assert np.abs(p.coeffs).max() < 1e-14

    def test_fixes_divergence_free_field(self):
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[2] = np.sin(x1)
        v = forward_transform(phys, g)
        p = leray_project(v)
        assert np.abs(p.coeffs - v.coeffs).max() <= 1e-13 * np.abs(v.coeffs).max()

    def test_longitudinal_single_mode_killed(self):
        g = GridSpec(16)
        x1, _, _ = g.physical_coords()
        phys = np.zeros((3, g.n, g.n, g.n))
        phys[0] = np.sin(x1)
        p = leray_project(forward_transform(phys, g))
        assert np.abs(p.coeffs).max() < 1e-14

    @pytest.mark.parametrize("seed", [0, 3])
    def test_idempotent_and_divergence_free(self, seed):
        g = GridSpec(16)
        v = random_bandlimited(g, seed)
        p = leray_project(v)
        assert divergence_residual(p) <= 1e-12
        pp = leray_project(p)
        assert np.abs(pp.coeffs - p.coeffs).max() <= 1e-13 * np.abs(p.coeffs).max()


class TestDealias:
    def test_cutoff_modes_zeroed_n8(self):
        g = GridSpec(8)
        rng = np.random.default_rng(0)
        coeffs = hermitian_symmetrize(
            rng.standard_normal((3, 8, 8, 8))
            + 1j * rng.standard_normal((3, 8, 8, 8)))
        v = SpectralVectorField(coeffs, g)
        d = dealias(v)
        for k in (3, 4, -4, -3):
            assert np.abs(d.coeffs[:, k, :, :]).max() == 0.0
            assert np.abs(d.coeffs[:, :, k, :]).max() == 0.0
            assert np.abs(d.coeffs[:, :, :, k]).max() == 0.0
        sub = tuple(range(-2, 3))
        for k1 in sub:
            for k2 in sub:
                for k3 in sub:
                    assert d.coeffs[0, k1, k2, k3] == v.coeffs[0, k1, k2, k3]

    def test_idempotent(self):
        g = GridSpec(8)
        v = forward_transform(random_physical(g, 2), g)
        once = dealias(v)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_product_matches_convolution_oracle(self):
        # oracle: direct convolution sum over the retained lattice
        g = GridSpec(8)
        f = random_bandlimited_scalar(g, 21)
        h = random_bandlimited_scalar(g, 22)
        fp = inverse_transform(f)
        hp = inverse_transform(h)
        product = dealias(forward_transform(fp * hp, g))

        kc = g.kmax_dealias
        modes = range(-kc, kc + 1)
        oracle = np.zeros((g.n, g.n, g.n), dtype=complex)
        for a1 in modes:
            for a2 in modes:
                for a3 in modes:
                    fa = f.coeffs[a1, a2, a3]
                    if fa == 0:
                        continue
                    for b1 in modes:
                        for b2 in modes:
                            for b3 in modes:
                                k = (a1 + b1, a2 + b2, a3 + b3)
                                if max(abs(k[0]), abs(k[1]), abs(k[2])) > kc:
                                    continue
                                oracle[k] += fa * h.coeffs[b1, b2, b3]
        scale = np.abs(oracle).max()
        assert np.abs(product.coeffs - oracle).max() <= 1e-12 * scale
