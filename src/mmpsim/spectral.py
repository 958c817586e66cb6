"""Spectral core: cubic periodic grid, Fourier transforms, exact differential
operators, 2/3-rule dealiasing and the Leray divergence-free projection.

Conventions used throughout the package:

* domain is the torus [0, 2pi)^3 sampled on n^3 uniform points;
* fields are expanded as f(x) = sum_k fhat(k) exp(i k.x) over integer
  wavevectors k in {-n/2, ..., n/2 - 1}^3;
* Parseval then reads ||f||_{L2}^2 = (2pi)^3 sum_k |fhat(k)|^2, so the
  integer wavevectors are directly the Sobolev weights used elsewhere;
* coefficients are stored full-spectrum in numpy FFT layout, i.e. index
  order 0, 1, ..., n/2-1, -n/2, ..., -1 along each axis.  Python's negative
  indexing makes ``coeffs[k1, k2, k3]`` a signed-wavevector lookup.

Two coefficient layouts share one array-level kernel layer (the ``*_coeffs``
functions, which take the layout's wavevectors as a `SpectralLayout`):

* ``grid.full``: the full spectrum, shape (..., n, n, n), used by the field
  classes, the state and checkpoints;
* ``grid.half``: the rfftn half spectrum, shape (..., n, n, n//2+1), the
  first n//2+1 entries of the full layout's last axis.  A real field is
  determined by it; the time step runs in it on real FFTs.

`half_spectrum` (a slice) and `full_spectrum` (the Hermitian expansion)
convert between the two.  The field-level operators are thin wrappers over
the kernels on ``grid.full``.

All operations are pure: they return new field objects and never mutate
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
    def full(self) -> "SpectralLayout":
        """Wavevectors of the full-spectrum layout (n, n, n)."""
        return SpectralLayout(self, self.k_vectors, self.k_squared_safe,
                              self.dealias_mask)

    @cached_property
    def half(self) -> "SpectralLayout":
        """Wavevectors of the rfftn half-spectrum layout (n, n, n//2+1).

        Every array is the cut of its full-layout counterpart, so the last
        index keeps k3 = -n/2 and a symbol evaluated on this layout equals
        the cut of the full-layout symbol bit for bit.
        """
        k1, k2, k3 = self.k_vectors
        return SpectralLayout(self, (k1, k2, k3[..., :self.n // 2 + 1].copy()),
                              *(np.ascontiguousarray(half_spectrum(a))
                                for a in (self.k_squared_safe,
                                          self.dealias_mask)))

    def physical_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays x1, x2, x3 on the uniform grid."""
        x = np.arange(self.n) * self.spacing
        return (x[:, None, None], x[None, :, None], x[None, None, :])


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The wavevector arrays of one coefficient layout of ``grid``
    (``grid.full`` or ``grid.half``), broadcastable against coefficient
    arrays of shape (..., n, n, last-axis length)."""

    grid: GridSpec
    k_vectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    k_squared_safe: np.ndarray
    dealias_mask: np.ndarray


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

def half_spectrum(c: np.ndarray) -> np.ndarray:
    """The rfftn half-spectrum part of coefficients of shape (..., n, n, *):
    a view of the first n//2+1 entries of the last axis (the whole array if
    it is half-spectrum already)."""
    return c[..., :c.shape[-2] // 2 + 1]


def full_spectrum(c: np.ndarray) -> np.ndarray:
    """Hermitian expansion of half-spectrum coefficients to the full layout:
    the k3 < 0 entries are filled by coeff(-k) = conj(coeff(k)).  Exact, so
    full -> half -> full reproduces a Hermitian array bit for bit."""
    n = c.shape[-2]
    out = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :n // 2 + 1] = c
    # entry k3 = -j (index n - j) mirrors k3 = j for j = n/2-1 .. 1, and
    # k1, k2 -> -k1, -k2 is index i -> (n - i) mod n: a flip, then a roll
    mirror = np.conj(c[..., n // 2 - 1:0:-1])
    out[..., n // 2 + 1:] = np.roll(np.flip(mirror, axis=(-3, -2)), 1,
                                    axis=(-3, -2))
    return out


def to_physical(c: np.ndarray) -> np.ndarray:
    """Real physical values of half-spectrum coefficients over the last
    three axes (irfftn); the input must come from a real field."""
    n = c.shape[-2]
    return np.fft.irfftn(c, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def to_spectral(phys: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of real values over the last three axes
    (rfftn), under the convention f(x) = sum_k fhat(k) exp(i k.x)."""
    return np.fft.rfftn(phys, axes=(-3, -2, -1), norm="forward")


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
    `to_physical` is the real-FFT path for coefficients of real fields."""
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


def divergence_residual(v: SpectralVectorField) -> float:
    """max_k |k.vhat| / max_k |vhat|; 0 for the zero field."""
    c = v.coeffs
    num = np.abs(k_dot(c, v.grid.full)).max()
    den = np.sqrt(np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2 + np.abs(c[2]) ** 2).max()
    if den == 0.0:
        return 0.0
    return float(num / den)


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
