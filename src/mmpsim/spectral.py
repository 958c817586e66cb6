"""Spectral core: cubic periodic grid, Fourier transforms, exact differential
operators, 2/3-rule dealiasing and the Leray divergence-free projection.

Conventions used throughout the package:

* domain is the torus [0, 2pi)^3 sampled on n^3 uniform points;
* fields are expanded as f(x) = sum_k fhat(k) exp(i k.x) over integer
  wavevectors k in {-n/2, ..., n/2 - 1}^3;
* Parseval then reads ||f||_{L2}^2 = (2pi)^3 sum_k |fhat(k)|^2, so the
  integer wavevectors are directly the Sobolev weights used elsewhere.
  `parseval_sum` evaluates such sums on either layout below: the band
  stores one of each pair k, -k off the k3 = 0 plane, so each of its modes
  carries the layout's multiplicity m(k) (1 on k3 = 0, 2 for k3 > 0);
* coefficients are stored full-spectrum in numpy FFT layout, i.e. index
  order 0, 1, ..., n/2-1, -n/2, ..., -1 along each axis.  Python's negative
  indexing makes ``coeffs[k1, k2, k3]`` a signed-wavevector lookup.

Two coefficient layouts share one array-level kernel layer (the ``*_coeffs``
functions, which take the layout's wavevectors as a `SpectralLayout`):

* ``grid.full``: the full spectrum, shape (..., n, n, n), used by the field
  classes, the state and checkpoints;
* ``grid.band``: the retained band, shape (..., 2kc+1, 2kc+1, kc+1) with
  kc = n//3, i.e. exactly the 2/3-rule box |k_i| <= kc with k3 >= 0, in FFT
  order along the first two axes (k = 0..kc, then -kc..-1) and k3 = 0..kc
  along the last.  A real dealiased field is determined by it; the time
  step runs in it.

`band_part` gathers the band out of full-spectrum coefficients (dropping
everything outside the box) and `expand_band` scatters it back, filling
k3 < 0 by Hermitian symmetry.  `to_physical` and `to_spectral` are the real
transforms between the band and the n^3 grid, pruned to the lines that
carry retained modes.  Each is three 1D passes, one per axis; per scalar
field they transform n^2 + n(kc+1) + (2kc+1)(kc+1) lines, against
n^2 + 2n(n//2+1) for the unpruned rfftn/irfftn.  numpy's n-d real
transforms are the same 1D passes, so on dealiased data the pruned ones
return their retained coefficients and physical values bit for bit.  The
field-level operators are thin wrappers over the kernels on ``grid.full``.

All operations are pure: they return new field objects and never mutate
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class IntegrityError(RuntimeError):
    """Non-finite data detected (NaN/Inf), usually a blown-up trajectory."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class GridSpec:
    """Cubic n^3 grid on [0, 2pi)^3 with precomputed wavevector arrays.

    ``kmax_dealias = floor(n/3)`` is the largest integer wavenumber per axis
    retained by the 2/3 truncation rule.
    """

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got n={self.n}")

    @property
    def kmax_dealias(self) -> int:
        return self.n // 3

    @property
    def npoints(self) -> int:
        return self.n ** 3

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Signed integer wavenumbers in FFT order, as float64."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.float64)

    @cached_property
    def k_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (k1, k2, k3) with shapes (n,1,1), (1,n,1), (1,1,n)."""
        k = self.k_axis
        return (k[:, None, None], k[None, :, None], k[None, None, :])

    @cached_property
    def k_squared(self) -> np.ndarray:
        k1, k2, k3 = self.k_vectors
        return k1 ** 2 + k2 ** 2 + k3 ** 2

    @cached_property
    def k_squared_safe(self) -> np.ndarray:
        ksq = self.k_squared.copy()
        ksq[0, 0, 0] = 1.0
        return ksq

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with all |k_i| <= floor(n/3)."""
        kc = self.kmax_dealias
        keep1d = np.abs(self.k_axis) <= kc
        return (keep1d[:, None, None] & keep1d[None, :, None]
                & keep1d[None, None, :])

    @cached_property
    def band_index(self) -> np.ndarray:
        """Full-layout indices of the retained wavenumbers along one axis:
        k = 0..kc, then -kc..-1."""
        n, kc = self.n, self.kmax_dealias
        return np.r_[0:kc + 1, n - kc:n]

    @cached_property
    def full(self) -> "SpectralLayout":
        """Wavevectors of the full-spectrum layout (n, n, n)."""
        return SpectralLayout(self, self.k_vectors, self.k_squared,
                              self.k_squared_safe, np.ones((1, 1, 1)))

    @cached_property
    def band(self) -> "SpectralLayout":
        """Wavevectors of the retained-band layout (2kc+1, 2kc+1, kc+1).

        Every array is the band part of its full-layout counterpart, so a
        symbol evaluated on this layout equals the band part of the
        full-layout symbol bit for bit.
        """
        k = self.k_axis[self.band_index]
        k3 = k[None, None, :self.kmax_dealias + 1]
        return SpectralLayout(self, (k[:, None, None], k[None, :, None], k3),
                              band_part(self.k_squared, self),
                              band_part(self.k_squared_safe, self),
                              np.where(k3 > 0.0, 2.0, 1.0))

    def physical_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays x1, x2, x3 on the uniform grid."""
        x = np.arange(self.n) * self.spacing
        return (x[:, None, None], x[None, :, None], x[None, None, :])


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The wavevector arrays of one coefficient layout of ``grid``
    (``grid.full`` or ``grid.band``), broadcastable against coefficient
    arrays of that layout's shape.  ``multiplicity`` counts the full-spectrum
    modes each stored mode stands for in a sum over a real field's spectrum:
    1 everywhere on the full layout; on the band 1 on the k3 = 0 plane and 2
    for k3 > 0, whose mirror -k is not stored."""

    grid: GridSpec
    k_vectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    k_squared: np.ndarray
    k_squared_safe: np.ndarray
    multiplicity: np.ndarray


def _check_signed_index(grid: GridSpec, k: tuple[int, int, int]) -> None:
    lo, hi = -grid.n // 2, grid.n // 2 - 1
    for ki in k:
        if not (lo <= ki <= hi):
            raise IndexError(f"wavevector component {ki} outside [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class SpectralScalarField:
    """Fourier coefficients of a real scalar field on the torus."""

    coeffs: np.ndarray  # (n, n, n) complex128, FFT layout
    grid: GridSpec

    def __post_init__(self):
        n = self.grid.n
        if self.coeffs.shape != (n, n, n):
            raise ValueError(f"coefficient array shape {self.coeffs.shape} "
                             f"does not match grid n={n}")

    def coeff(self, k1: int, k2: int, k3: int) -> complex:
        """Coefficient lookup by signed integer wavevector."""
        _check_signed_index(self.grid, (k1, k2, k3))
        return complex(self.coeffs[k1, k2, k3])


@dataclass(frozen=True, eq=False)
class SpectralVectorField:
    """Fourier coefficients of a real 3-component vector field."""

    coeffs: np.ndarray  # (3, n, n, n) complex128, FFT layout
    grid: GridSpec

    def __post_init__(self):
        n = self.grid.n
        if self.coeffs.shape != (3, n, n, n):
            raise ValueError(f"coefficient array shape {self.coeffs.shape} "
                             f"does not match grid n={n}")

    def component(self, i: int) -> SpectralScalarField:
        return SpectralScalarField(self.coeffs[i], self.grid)

    def coeff(self, i: int, k1: int, k2: int, k3: int) -> complex:
        _check_signed_index(self.grid, (k1, k2, k3))
        return complex(self.coeffs[i, k1, k2, k3])

    def is_divergence_free(self, tol: float = 1e-12) -> bool:
        """Certify max_k |k.vhat| / max_k |vhat| <= tol."""
        return divergence_residual(self) <= tol


Field = SpectralScalarField | SpectralVectorField


# ---------------------------------------------------------------------------
# array-level kernels (coefficients in, coefficients out, on either layout)
# ---------------------------------------------------------------------------

def band_part(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The retained-band part of coefficients of shape (..., n, n, m) in FFT
    order, m > kc (full or half spectrum): a copy of the modes |k_i| <= kc
    with k3 >= 0.  Everything outside the box is dropped."""
    idx = grid.band_index
    return c[(...,) + np.ix_(idx, idx, idx[:grid.kmax_dealias + 1])]


def expand_band(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full-spectrum coefficients of retained-band ones: zero outside the
    box, and the k3 < 0 entries filled by coeff(-k) = conj(coeff(k)).
    Exact, so band -> full -> band reproduces the band bit for bit."""
    n, kc = grid.n, grid.kmax_dealias
    idx = grid.band_index
    out = np.zeros(c.shape[:-3] + (n, n, n), dtype=np.complex128)
    out[(...,) + np.ix_(idx, idx, idx[:kc + 1])] = c
    # entry k3 = -j mirrors k3 = j for j = kc .. 1, and k1, k2 -> -k1, -k2
    # is band index i -> (2kc+1 - i) mod (2kc+1): a flip, then a roll
    mirror = np.conj(c[..., kc:0:-1])
    out[(...,) + np.ix_(idx, idx, idx[kc + 1:])] = np.roll(
        np.flip(mirror, axis=(-3, -2)), 1, axis=(-3, -2))
    return out


def _unfold(c: np.ndarray, axis: int, n: int, kc: int) -> np.ndarray:
    """Zero-pad the retained band along ``axis`` to the n FFT-ordered
    wavenumbers of the full axis."""
    shape = list(c.shape)
    shape[axis] = n
    out = np.zeros(shape, dtype=np.complex128)
    lo = (slice(None),) * (axis % c.ndim)
    out[lo + (slice(0, kc + 1),)] = c[lo + (slice(0, kc + 1),)]
    out[lo + (slice(n - kc, n),)] = c[lo + (slice(kc + 1, None),)]
    return out


def to_physical(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real physical values of retained-band coefficients over the last
    three axes; the input must come from a real field.

    Equals irfftn of the band's expansion bit for bit: the same 1D passes,
    skipping lines that carry only zeros.  Axis -3 is transformed on the
    (2kc+1)(kc+1) retained (k2, k3) lines, axis -2 on the n(kc+1) lines with
    k3 <= kc, and axis -1 by a full irfft on n^2 lines."""
    n, kc = grid.n, grid.kmax_dealias
    a = np.fft.ifft(_unfold(c, -3, n, kc), axis=-3, norm="forward")
    a = np.fft.ifft(_unfold(a, -2, n, kc), axis=-2, norm="forward")
    return np.fft.irfft(a, n=n, axis=-1, norm="forward")


def to_spectral(phys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Retained-band coefficients of real values over the last three axes,
    under the convention f(x) = sum_k fhat(k) exp(i k.x).

    Equals the band part of rfftn bit for bit: the same 1D passes (axis -1,
    then -2, then -3), each keeping only the retained outputs, so the next
    pass transforms only the lines that reach the band."""
    idx = grid.band_index
    a = np.fft.rfft(phys, axis=-1, norm="forward")[..., :grid.kmax_dealias + 1]
    a = np.fft.fft(a, axis=-2, norm="forward")[..., idx, :]
    return np.fft.fft(a, axis=-3, norm="forward")[..., idx, :, :]


def power_spectrum(c: np.ndarray) -> np.ndarray:
    """|c(k)|^2 per mode of scalar coefficients (n1, n2, n3), or summed over
    the component axis of vector ones (3, n1, n2, n3)."""
    power = np.abs(c) ** 2
    return power.sum(axis=0) if power.ndim == 4 else power


def parseval_sum(values: np.ndarray, layout: SpectralLayout) -> float:
    """(2pi)^3 sum_k m(k) values(k) over the modes of one layout, m its
    multiplicity.  For values even in k (such as w(|k|) |c(k)|^2 or
    Re(conj(a(k)).b(k)) of real fields) the band sum equals the
    full-spectrum sum of the box's content; on the full layout m = 1."""
    return float(TWO_PI_CUBED * np.sum(layout.multiplicity * values))


def k_dot(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """k . c over the leading component axis of c."""
    k1, k2, k3 = layout.k_vectors
    return k1 * c[0] + k2 * c[1] + k3 * c[2]


def gradient_coeffs(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """i k c, the new component axis first."""
    k1, k2, k3 = layout.k_vectors
    return np.stack([1j * k1 * c, 1j * k2 * c, 1j * k3 * c])


def curl_coeffs(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """i k x c."""
    k1, k2, k3 = layout.k_vectors
    return np.stack([
        1j * (k2 * c[2] - k3 * c[1]),
        1j * (k3 * c[0] - k1 * c[2]),
        1j * (k1 * c[1] - k2 * c[0]),
    ])


def parallel_part(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """k (k.c)/|k|^2, the part of each mode parallel to k (zero at k=0)."""
    k1, k2, k3 = layout.k_vectors
    kdotv = k_dot(c, layout) / layout.k_squared_safe
    return np.stack([k1 * kdotv, k2 * kdotv, k3 * kdotv])


def project_coeffs(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """Leray projection c - k (k.c)/|k|^2 with the k=0 mode zeroed."""
    out = c - parallel_part(c, layout)
    out[:, 0, 0, 0] = 0.0
    return out


def alpha_symbol(alpha: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """i (alpha.k), the symbol of the transport alpha . grad."""
    k1, k2, k3 = layout.k_vectors
    return 1j * (alpha[0] * k1 + alpha[1] * k2 + alpha[2] * k3)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def forward_transform_scalar(physical: np.ndarray, grid: GridSpec) -> SpectralScalarField:
    n = grid.n
    if physical.shape != (n, n, n):
        raise ValueError(f"physical array shape {physical.shape} does not "
                         f"match grid (n={n})")
    coeffs = np.fft.fftn(physical) / grid.npoints
    return SpectralScalarField(coeffs, grid)


def forward_transform(physical, grid: GridSpec) -> SpectralVectorField:
    """Transform a triple of real arrays (or one (3,n,n,n) array) to spectral
    space under the convention f(x) = sum_k fhat(k) exp(i k.x)."""
    arr = np.asarray(physical, dtype=np.float64)
    n = grid.n
    if arr.shape != (3, n, n, n):
        raise ValueError(f"expected three (n,n,n) components with n={n}, "
                         f"got shape {arr.shape}")
    coeffs = np.fft.fftn(arr, axes=(1, 2, 3)) / grid.npoints
    return SpectralVectorField(coeffs, grid)


def inverse_transform(f: Field) -> np.ndarray:
    """Back to physical space; returns the real part (imaginary content of a
    Hermitian-symmetric field is pure roundoff).  Accepts any coefficients;
    `to_physical` is the pruned real path for retained-band coefficients."""
    if isinstance(f, SpectralScalarField):
        return np.real(np.fft.ifftn(f.coeffs)) * f.grid.npoints
    return np.real(np.fft.ifftn(f.coeffs, axes=(1, 2, 3))) * f.grid.npoints


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto the Hermitian-symmetric subspace
    (coeff(-k) = conj(coeff(k))), i.e. onto real physical fields."""
    reflected = coeffs
    for ax in (-3, -2, -1):
        reflected = np.roll(np.flip(reflected, axis=ax), 1, axis=ax)
    return 0.5 * (coeffs + np.conj(reflected))


# ---------------------------------------------------------------------------
# exact spectral differential operators
# ---------------------------------------------------------------------------

def gradient(f: SpectralScalarField) -> SpectralVectorField:
    """grad f -> i k fhat."""
    return SpectralVectorField(gradient_coeffs(f.coeffs, f.grid.full), f.grid)


def divergence(v: SpectralVectorField) -> SpectralScalarField:
    """div v -> i k.vhat."""
    return SpectralScalarField(1j * k_dot(v.coeffs, v.grid.full), v.grid)


def curl(v: SpectralVectorField) -> SpectralVectorField:
    """curl v -> i k x vhat."""
    return SpectralVectorField(curl_coeffs(v.coeffs, v.grid.full), v.grid)


def laplacian(f: Field) -> Field:
    """Laplacian -> -|k|^2 fhat (either rank)."""
    ksq = f.grid.k_squared
    if isinstance(f, SpectralScalarField):
        return SpectralScalarField(-ksq * f.coeffs, f.grid)
    return SpectralVectorField(-ksq[None] * f.coeffs, f.grid)


def grad_div(v: SpectralVectorField) -> SpectralVectorField:
    """grad(div v) -> -k (k.vhat)."""
    k1, k2, k3 = v.grid.k_vectors
    kdotv = k_dot(v.coeffs, v.grid.full)
    out = np.stack([-k1 * kdotv, -k2 * kdotv, -k3 * kdotv])
    return SpectralVectorField(out, v.grid)


def alpha_dot_grad(f: Field, alpha) -> Field:
    """Directional transport (alpha . grad) f -> i (alpha.k) fhat."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError("alpha must be a 3-vector")
    symbol = alpha_symbol(a, f.grid.full)
    if isinstance(f, SpectralScalarField):
        return SpectralScalarField(symbol * f.coeffs, f.grid)
    return SpectralVectorField(symbol[None] * f.coeffs, f.grid)


_VECTOR_ONLY_OPS = {"div", "curl", "grad_div"}


def apply_diff_op(f: Field, op: str, alpha=None) -> Field:
    """Dispatch on operator name: grad, div, curl, laplacian, grad_div,
    alpha_dot_grad.  Raises ValueError on a rank-incompatible request."""
    is_vector = isinstance(f, SpectralVectorField)
    if op in _VECTOR_ONLY_OPS and not is_vector:
        raise ValueError(f"operator {op!r} requires a vector field")
    if op == "grad":
        if is_vector:
            raise ValueError("operator 'grad' requires a scalar field")
        return gradient(f)
    if op == "div":
        return divergence(f)
    if op == "curl":
        return curl(f)
    if op == "laplacian":
        return laplacian(f)
    if op == "grad_div":
        return grad_div(f)
    if op == "alpha_dot_grad":
        if alpha is None:
            raise ValueError("alpha_dot_grad requires the alpha vector")
        return alpha_dot_grad(f, alpha)
    raise ValueError(f"unknown differential operator {op!r}")


# ---------------------------------------------------------------------------
# projection, dealiasing, bookkeeping
# ---------------------------------------------------------------------------

def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Divergence-free projection vhat <- vhat - k (k.vhat)/|k|^2 per mode,
    with the k=0 mode zeroed (mean-zero enforcement).  Idempotent."""
    return SpectralVectorField(project_coeffs(v.coeffs, v.grid.full), v.grid)


def dealias(f: Field) -> Field:
    """Zero every mode with any |k_i| > floor(n/3).  Idempotent."""
    mask = f.grid.dealias_mask
    if isinstance(f, SpectralScalarField):
        return SpectralScalarField(f.coeffs * mask, f.grid)
    return SpectralVectorField(f.coeffs * mask[None], f.grid)


def zero_mean(f: Field) -> Field:
    if isinstance(f, SpectralScalarField):
        out = f.coeffs.copy()
        out[0, 0, 0] = 0.0
        return SpectralScalarField(out, f.grid)
    out = f.coeffs.copy()
    out[:, 0, 0, 0] = 0.0
    return SpectralVectorField(out, f.grid)


def divergence_residual_coeffs(c: np.ndarray, layout: SpectralLayout) -> float:
    """max_k |k.c| / max_k |c| over one layout; 0 for zero coefficients.
    |c(-k)| = |c(k)| for a real field, so on the band it is the full
    spectrum's value of the box's content bit for bit."""
    num = np.abs(k_dot(c, layout)).max()
    den = np.sqrt(np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2).max()
    if den == 0.0:
        return 0.0
    return float(num / den)


def divergence_residual(v: SpectralVectorField) -> float:
    """max_k |k.vhat| / max_k |vhat|; 0 for the zero field."""
    return divergence_residual_coeffs(v.coeffs, v.grid.full)


def inner_product(f: Field, g: Field) -> float:
    """L2 inner product (2pi)^3 sum_k Re(conj(fhat).ghat), summed over
    components for vector fields."""
    if type(f) is not type(g):
        raise ValueError("inner product requires fields of the same rank")
    if f.grid.n != g.grid.n:
        raise ValueError("inner product requires a shared grid")
    s = np.sum(np.conj(f.coeffs) * g.coeffs)
    return float((2.0 * np.pi) ** 3 * s.real)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def zero_vector_field(grid: GridSpec) -> SpectralVectorField:
    return SpectralVectorField(np.zeros((3, grid.n, grid.n, grid.n),
                                        dtype=np.complex128), grid)


def require_finite(f: Field, context: str = "field") -> None:
    if not np.all(np.isfinite(f.coeffs)):
        raise IntegrityError(f"non-finite coefficients in {context}")
