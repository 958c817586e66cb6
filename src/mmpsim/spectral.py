"""Spectral core: cubic periodic grid, Fourier transforms, exact differential
operators, 2/3-rule dealiasing and the Leray divergence-free projection.

Conventions used throughout the package:

* domain is the torus [0, 2pi)^3 sampled on n^3 uniform points;
* fields are expanded as f(x) = sum_k fhat(k) exp(i k.x) over integer
  wavevectors k in {-n/2, ..., n/2 - 1}^3;
* Parseval then reads ||f||_{L2}^2 = (2pi)^3 sum_k |fhat(k)|^2, so the
  integer wavevectors are directly the Sobolev weights used elsewhere.
  `parseval_sum` evaluates such sums on any layout below: the band
  stores one of each pair k, -k off the k3 = 0 plane, so each of its modes
  carries the layout's multiplicity m(k) (1 on k3 = 0, 2 for k3 > 0).
  `expanded_parseval_sum` sums band values expanded to the full spectrum
  instead, in the full spectrum's order, for the sums that must keep the
  bits of the full-spectrum fields' (the initial data's rescale, the
  audit's pairings).  The Sobolev weights (1 + |k|^2)^s are
  `sobolev_weights`, for an index in `INDEX_WINDOW` (`in_index_window`),
  and alpha.k is `alpha_dot_k`, of which the transport symbol
  `alpha_symbol` is i times it;
* coefficients are stored full-spectrum in numpy FFT layout, i.e. index
  order 0, 1, ..., n/2-1, -n/2, ..., -1 along each axis.  Python's negative
  indexing makes ``coeffs[k1, k2, k3]`` a signed-wavevector lookup.
  `SpectralScalarField` and `SpectralVectorField` hold them, on one base
  with the shape rule and `coeff`; `forward_transform` and
  `inverse_transform` take either rank.

Two coefficient layouts share one array-level kernel layer (the
``*_coeffs`` functions, which take the layout's wavevectors as a
`SpectralLayout`, whose |k|^2 is formed from its own wavevectors, so
nothing on the run path builds an n^3 wavevector array):

* ``grid.full``: the full spectrum, shape (..., n, n, n), used by the field
  classes and the format-1 checkpoint payload that is still read;
* ``grid.band``: the retained band, shape (..., 2kc+1, 2kc+1, kc+1) with
  kc = n//3: the k3 >= 0 half of the 2/3-rule box |k_i| <= kc, in FFT
  order (k = 0..kc, then -kc..-1) along k1 and k2.  A real dealiased
  field is determined by it; a `State` holds it, a checkpoint stores it,
  the random initial data is built on it and the time step runs in it.
  `SpectralLayout.row_view` gives a range of its k1-rows as slices of
  its arrays, so an elementwise kernel run on each range of rows computes
  every mode as on the whole band.

One block table, `GridSpec.box_blocks`, places the box in the full
spectrum.  `band_part` gathers the band with it (dropping everything
outside the box) and `expand_band` scatters it back into zeros, filling
k3 < 0 by Hermitian symmetry.  `to_physical` and
`to_spectral` are the real transforms between the band and the n^3 grid,
pruned to the lines that carry retained modes.  Each is three 1D passes,
one per axis; per scalar field they transform n^2 + n(kc+1) +
(2kc+1)(kc+1) lines, against n^2 + 2n(n//2+1) for the unpruned
rfftn/irfftn.  numpy's n-d real transforms are the same 1D passes, so on
dealiased data the pruned ones return their retained coefficients and
physical values bit for bit.  The two passes that act within each
x1-plane (axes -2 and -1) run one slab of x1-planes at a time
(`SLAB_BYTES`, the whole grid for n <= 32), and so do the products that a
forward transform of `BandWorkspace` forms: each line and each product is
the one the whole grid would compute, and no transform or product needs a
full-grid scratch array.  The field-level operators are thin wrappers
over the kernels on ``grid.full``.
`_conj_reflection` is the one reflection c(k) -> conj(c(-k)), used by
`hermitian_symmetrize` and `expand_band`, and `parallel_part` the one
k (k.c)/|k|^2, used by the Leray projection `project_coeffs` and by the
micro-rotation split of `dynamics`.

A `StepEngine` holds the resources that the step and the energy-flux
audit reuse from call to call: one pool of grid and band buffers, each
thread's `BandWorkspace`, and from n = `SPLIT_MIN_N` up one helper thread
from a `concurrent.futures.ThreadPoolExecutor` (min(2, available cores)
threads in all, the calling thread included; numpy's FFTs and elementwise
kernels release the interpreter lock).  `run` builds one for the whole
run; a public call without one builds a transient engine and closes it
before it returns.  `StepEngine.run` spreads independent scalar
transforms (and the products that feed them) over the threads, and from
n = `ROW_SPLIT_MIN_N` up `StepEngine.run_rows` runs each band-level stage
of the step (its sums, curls, propagations and projections) as one k1-row
range per thread; below it, the same stage code runs on the whole band on
the calling thread.  Each task writes through a `BandWorkspace`'s methods,
or into its rows, of arrays the engine handed out, so each 1D line and
each mode is computed as on one thread and the results are bit-identical;
only which thread or which slab's call runs a line or a mode changes,
never the pass and line counts above.  The threads run these array
kernels only, never a public mmpsim function: a span recorder wrapping
those (such as the benchmark's tracer, whose span stack is not
thread-safe) sees every call on the calling thread.

All field-level operations are pure: they return new field objects and
never mutate their inputs.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI_CUBED = (2.0 * np.pi) ** 3

# The Sobolev indices s, ends included, whose weights (1 + |k|^2)^s the
# norms evaluate; a sanity window that keeps the weights finite on every
# grid in use.  The initial data's index and the hr5 norm's r + 5 must lie
# in it.
INDEX_WINDOW = (-10.0, 40.0)


def in_index_window(s: float) -> bool:
    """True if s lies in `INDEX_WINDOW` (ends included); False for NaN."""
    return INDEX_WINDOW[0] <= s <= INDEX_WINDOW[1]


class IntegrityError(RuntimeError):
    """Non-finite data detected (NaN/Inf), usually a blown-up trajectory."""


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

    @property
    def k_squared(self) -> np.ndarray:
        return self.full.k_squared

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

    @property
    def band_shape(self) -> tuple[int, int, int]:
        kc = self.kmax_dealias
        return (2 * kc + 1, 2 * kc + 1, kc + 1)

    @cached_property
    def box_blocks(self) -> tuple:
        """The retained box as eight (full, box) pairs of slice triples:
        along each axis k = 0..kc, then -kc..-1, is a contiguous slice in
        either layout, so basic slicing copies it without an index array.
        The even entries (k3 = 0..kc) are the band's blocks."""
        n, kc = self.n, self.kmax_dealias
        axis = ((slice(0, kc + 1), slice(0, kc + 1)),
                (slice(n - kc, n), slice(kc + 1, 2 * kc + 1)))
        return tuple(tuple(zip(*pairs))
                     for pairs in itertools.product(axis, repeat=3))

    @cached_property
    def full(self) -> "SpectralLayout":
        """Wavevectors of the full-spectrum layout (n, n, n)."""
        return SpectralLayout.of(self, self.k_vectors, np.ones((1, 1, 1)))

    @cached_property
    def band(self) -> "SpectralLayout":
        """Wavevectors of the retained-band layout (2kc+1, 2kc+1, kc+1): the
        k3 >= 0 part of the retained box |k_i| <= kc."""
        k = self.k_axis[self.band_index]
        k3 = k[None, None, :self.kmax_dealias + 1]
        return SpectralLayout.of(self, (k[:, None, None], k[None, :, None],
                                        k3), np.where(k3 > 0.0, 2.0, 1.0))

    def physical_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays x1, x2, x3 on the uniform grid."""
        x = np.arange(self.n) * self.spacing
        return (x[:, None, None], x[None, :, None], x[None, None, :])


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The wavevector arrays of one coefficient layout of ``grid``
    (``grid.full`` or ``grid.band``), broadcastable against
    coefficient arrays of that layout's shape.  ``multiplicity`` counts the
    full-spectrum modes each stored mode stands for in a sum over a real
    field's spectrum: 1, except 2 on the band for k3 > 0, whose mirror -k
    is not stored.  |k|^2, and |k|^2 with 1 at k = 0 to divide by, are
    formed elementwise from the layout's own wavevectors (`of`), so on the
    band they are the part of the full ones bit for bit, without an n^3
    array.

    A layout may also be a view of the k1-rows ``rows`` of a whole one
    (`row_view`): its arrays are slices of that layout's, so an operation
    on the rows of a coefficient array (`part`) computes each mode as on
    the whole, and it holds k = 0 (`holds_origin`) only if its rows start
    at 0."""

    grid: GridSpec
    k_vectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    multiplicity: np.ndarray
    k_squared: np.ndarray
    k_squared_safe: np.ndarray
    rows: slice = field(default_factory=lambda: slice(None))

    @classmethod
    def of(cls, grid: GridSpec, k_vectors, multiplicity) -> "SpectralLayout":
        """The whole layout of these wavevectors, its |k|^2 formed from
        them."""
        k1, k2, k3 = k_vectors
        k_squared = k1 ** 2 + k2 ** 2 + k3 ** 2
        k_squared_safe = k_squared.copy()
        k_squared_safe[0, 0, 0] = 1.0
        return cls(grid, k_vectors, multiplicity, k_squared, k_squared_safe)

    @property
    def holds_origin(self) -> bool:
        return not self.rows.start

    def part(self, c: np.ndarray) -> np.ndarray:
        """The view's rows of coefficients c of the whole layout's shape
        over the last three axes (either rank)."""
        return c[..., self.rows, :, :]

    def row_view(self, start: int, stop: int) -> "SpectralLayout":
        """The k1-rows start..stop-1 of this whole layout, as slices of its
        arrays (an array of one row broadcasts over every row and is
        kept)."""
        rows = slice(start, stop)

        def cut(a):
            return a if a.shape[0] == 1 else a[rows]
        return SpectralLayout(self.grid, tuple(map(cut, self.k_vectors)),
                              cut(self.multiplicity), cut(self.k_squared),
                              cut(self.k_squared_safe), rows)


@dataclass(frozen=True, eq=False)
class _SpectralField:
    """Fourier coefficients of a real field on the torus, in FFT layout:
    ``coeffs`` is complex128 of shape ``components + (n, n, n)``."""

    coeffs: np.ndarray
    grid: GridSpec
    components = ()  # the leading axes; a class attribute, not a field

    def __post_init__(self):
        shape = self.components + (self.grid.n,) * 3
        if self.coeffs.shape != shape:
            raise ValueError(f"coefficient array shape {self.coeffs.shape} "
                             f"does not match {shape} for grid n="
                             f"{self.grid.n}")

    def coeff(self, *index: int) -> complex:
        """Coefficient lookup by signed integer wavevector (k1, k2, k3),
        after the component index of a vector field."""
        lo, hi = -self.grid.n // 2, self.grid.n // 2 - 1
        for ki in index[-3:]:
            if not (lo <= ki <= hi):
                raise IndexError(f"wavevector component {ki} outside "
                                 f"[{lo}, {hi}]")
        return complex(self.coeffs[index])


class SpectralScalarField(_SpectralField):
    """Fourier coefficients of a real scalar field: (n, n, n)."""


class SpectralVectorField(_SpectralField):
    """Fourier coefficients of a real 3-component vector field:
    (3, n, n, n)."""

    components = (3,)


Field = SpectralScalarField | SpectralVectorField


# ---------------------------------------------------------------------------
# array-level kernels (coefficients in, coefficients out, on either layout)
# ---------------------------------------------------------------------------

def _gather(c: np.ndarray, blocks, shape: tuple) -> np.ndarray:
    """``blocks`` of `GridSpec.box_blocks` gathered from c."""
    out = np.empty(c.shape[:-3] + shape, dtype=c.dtype)
    for full, part in blocks:
        out[(..., *part)] = c[(..., *full)]
    return out


def band_part(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The retained-band part of coefficients of shape (..., n, n, m) in FFT
    order, m > kc (full or half spectrum): a copy of the modes |k_i| <= kc
    with k3 >= 0.  Everything outside the box is dropped."""
    return _gather(c, grid.box_blocks[::2], grid.band_shape)


def expand_band(c: np.ndarray, grid: GridSpec, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Full-spectrum values of retained-band ones, in c's dtype: zero
    outside the box, and the k3 < 0 entries filled by
    coeff(-k) = conj(coeff(k)) (for real values, such as a power spectrum,
    coeff(-k) = coeff(k)).  Exact, so band -> full -> band reproduces the
    band bit for bit.  Written into ``out`` if given, which must hold zeros
    outside the box: only the box's blocks are written.  The mirror
    entries are formed in ``scratch`` (c's shape with kc modes along k3)
    if given."""
    n, kc = grid.n, grid.kmax_dealias
    if out is None:
        out = np.zeros(c.shape[:-3] + (n, n, n), dtype=c.dtype)
    for full, band in grid.box_blocks[::2]:
        out[(..., *full)] = c[(..., *band)]
    # the k3 = -kc..-1 blocks: conj(c(-k)) of the band's k3 = kc..1
    mirror = c[..., kc:0:-1]
    if scratch is None:
        scratch = np.empty(mirror.shape, c.dtype)
    mirror = _conj_reflection(mirror, scratch, axes=2)
    for (f1, f2, f3), (b1, b2, _) in grid.box_blocks[1::2]:
        out[..., f1, f2, f3] = mirror[..., b1, b2, :]
    return out


# The two passes of a band transform that act within each x1-plane, and
# the products that feed a forward one, run one slab of x1-planes at a
# time: SLAB_BYTES of real values, at least one plane (`slab_planes`), so
# no transform needs a full-grid complex scratch and no product a
# full-grid buffer.  At n <= 32 a slab is the whole grid.  Measured on a
# 2-core x86 host, median of a perturbation step on one engine, the slab
# sizes alternated: 128 KiB / 256 KiB / 512 KiB / the whole grid took
# 236 / 214 / 212 / 211 ms at 64^3 (10 alternations) and 102 / 90 / 86 /
# 89 ms at 48^3 (12), the quartiles of the last three overlapping; in
# an earlier run 64 KiB / 256 KiB / whole took 295 / 196 / 191 ms and
# 151 / 101 / 96 ms (8).  Smaller slabs make more numpy calls.
SLAB_BYTES = 256 * 1024


def slab_planes(n: int) -> int:
    """The x1-planes of one slab on an n^3 grid: SLAB_BYTES of real
    values, at least one plane and at most n."""
    return min(n, max(1, SLAB_BYTES // (8 * n * n)))


class BandWorkspace:
    """The scratch arrays of one thread for scalar band transforms, each
    allocated when the workspace is made: ``wide`` (planes, n, n//2+1) for
    one slab of the transforms' x1-local passes and ``narrow``
    (n, 2kc+1, kc+1) complex for the axis -3 pass, with ``slabs`` the
    x1-ranges of `slab_planes` planes that cover the grid.  ``spare`` is a
    real (planes, n, n) view of the start of ``wide``, whose content only
    lives within a transform's slab: it takes c d of a product
    a b - c d, and the addend of `add_product`.  ``band`` is a complex
    retained-band scalar buffer, into which a task may transform a product
    (the micro-rotation flux of `dynamics` does).  `StepEngine.run` makes
    every workspace on the calling thread, so none of these comes from a
    helper thread's malloc arena (made there on first use, band buffers
    cost a nonlinear 32^3 run 0.8 MB more peak RSS on a 2-core x86 host).
    ``fields`` are real (n, n, n) grid buffers and ``product`` a real
    (planes, n, n) slab, handed out by `StepEngine.run` for one call: the
    thread's buffers for a task's own grid values and for the products
    that `to_spectral` forms.

    `to_physical` and `to_spectral` write into a given output and allocate
    no array: each 1D pass runs in place on the scratch, and each gather or
    zero-padding between passes is two or three slice copies.  numpy
    transforms line by line, so a pass written over its input returns the
    values of the out-of-place pass bit for bit, and a pass run slab by
    slab those of the pass over the whole grid."""

    def __init__(self, grid: GridSpec):
        n = grid.n
        planes = slab_planes(n)
        self.grid = grid
        self.slabs = [slice(start, min(start + planes, n))
                      for start in range(0, n, planes)]
        self.wide = np.empty((planes, n, n // 2 + 1), dtype=np.complex128)
        self.narrow = np.empty((n,) + grid.band_shape[1:],
                               dtype=np.complex128)
        self.spare = self.wide.reshape(-1).view(np.float64)[
            :planes * n * n].reshape(planes, n, n)
        self.band = np.empty(grid.band_shape, dtype=np.complex128)
        self.fields: list[np.ndarray] = []
        self.product: np.ndarray | None = None

    def to_physical(self, c: np.ndarray, out: np.ndarray) -> None:
        """`to_physical` of scalar band coefficients c, written into the
        (n, n, n) array ``out``.  Each pass zero-pads the retained band
        along its axis to the full n wavenumbers in FFT order; the axis -2
        and axis -1 passes run one slab at a time."""
        n, kc = self.grid.n, self.grid.kmax_dealias
        a = self.narrow
        a[:kc + 1] = c[:kc + 1]
        a[kc + 1:n - kc] = 0.0
        a[n - kc:] = c[kc + 1:]
        np.fft.ifft(a, axis=-3, norm="forward", out=a)
        for s in self.slabs:
            b = self.wide[:s.stop - s.start, :, :kc + 1]
            b[:, :kc + 1] = a[s, :kc + 1]
            b[:, kc + 1:n - kc] = 0.0
            b[:, n - kc:] = a[s, kc + 1:]
            np.fft.ifft(b, axis=-2, norm="forward", out=b)
            np.fft.irfft(b, n=n, axis=-1, norm="forward", out=out[s])

    def to_spectral(self, out: np.ndarray, *factors: np.ndarray) -> None:
        """`to_spectral` of scalar grid values, written into the band array
        ``out``: of the one (n, n, n) array ``factors`` holds, or of the
        product a b of two or a b - c d of four, formed one slab at a time
        in ``product`` (c d in ``spare``).  The axis -1 and axis -2
        passes run one slab at a time, the axis -3 pass on all of
        ``narrow``.  After each of the last two passes the retained
        wavenumbers along its axis (k = 0..kc, then -kc..-1) are
        gathered."""
        n, kc = self.grid.n, self.grid.kmax_dealias
        b = self.narrow
        for s in self.slabs:
            planes = s.stop - s.start
            values = factors[0][s]
            if len(factors) > 1:
                values = np.multiply(values, factors[1][s],
                                     out=self.product[:planes])
            if len(factors) > 2:
                np.subtract(values, np.multiply(factors[2][s], factors[3][s],
                                                out=self.spare[:planes]),
                            out=values)
            a = self.wide[:planes]
            np.fft.rfft(values, axis=-1, norm="forward", out=a)
            a = a[..., :kc + 1]
            np.fft.fft(a, axis=-2, norm="forward", out=a)
            b[s, :kc + 1] = a[:, :kc + 1]
            b[s, kc + 1:] = a[:, n - kc:]
        np.fft.fft(b, axis=-3, norm="forward", out=b)
        out[:kc + 1] = b[:kc + 1]
        out[kc + 1:] = b[n - kc:]

    def add_product(self, p: np.ndarray, a: np.ndarray,
                    b: np.ndarray) -> None:
        """p + a b written into the (n, n, n) array p, with a b formed one
        slab at a time in ``spare``."""
        for s in self.slabs:
            q = self.spare[:s.stop - s.start]
            np.add(p[s], np.multiply(a[s], b[s], out=q), out=p[s])


def to_physical(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real physical values of retained-band coefficients over the last
    three axes; the input must come from a real field.

    Equals irfftn of the band's expansion bit for bit: the same 1D passes,
    skipping lines that carry only zeros.  Axis -3 is transformed on the
    (2kc+1)(kc+1) retained (k2, k3) lines, axis -2 on the n(kc+1) lines with
    k3 <= kc, and axis -1 by a full irfft on n^2 lines."""
    out = np.empty(c.shape[:-3] + (grid.n,) * 3)
    ws = BandWorkspace(grid)
    for index in np.ndindex(c.shape[:-3]):
        ws.to_physical(c[index], out[index])
    return out


def to_spectral(phys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Retained-band coefficients of real values over the last three axes,
    under the convention f(x) = sum_k fhat(k) exp(i k.x).

    Equals the band part of rfftn bit for bit: the same 1D passes (axis -1,
    then -2, then -3), each keeping only the retained outputs, so the next
    pass transforms only the lines that reach the band."""
    out = np.empty(phys.shape[:-3] + grid.band_shape, dtype=np.complex128)
    ws = BandWorkspace(grid)
    for index in np.ndindex(phys.shape[:-3]):
        ws.to_spectral(out[index], phys[index])
    return out


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# `StepEngine` spreads its tasks over WORKERS threads on grids of at least
# SPLIT_MIN_N points per axis.  Measured on 2 cores, 30 alternating pairs
# of a perturbation step and audit: two threads lost at n = 16 and 20, were
# even at 24 and won 23-28 of 30 from 26 up.
WORKERS = min(2, _available_cores())
SPLIT_MIN_N = 26
# From ROW_SPLIT_MIN_N up, `StepEngine.run_rows` runs the step's band-level
# stages as one k1-row range per thread.  Measured on a 2-core x86 host,
# median of a public perturbation step with the rows whole / split, and
# the pairs of alternating steps the split won: 32^3 31.5 / 36.0 ms (4 of
# 30), 40^3 57.9 / 57.3 (21 of 40), 42^3 78.2 / 78.4 (19 of 40), 44^3
# 90.3 / 87.5 (25 of 40), 48^3 104.8 / 97.0 (36 of 40), 64^3 221.6 /
# 197.3 ms (12 of 12).
ROW_SPLIT_MIN_N = 44


class _Stack:
    """Arrays made by ``make``, handed out from the bottom up: ``top`` of
    them are in use."""

    def __init__(self, make):
        self.make = make
        self.arrays: list[np.ndarray] = []
        self.top = 0

    def take(self, count: int) -> list[np.ndarray]:
        end = self.top + count
        while len(self.arrays) < end:
            self.arrays.append(self.make())
        taken = self.arrays[self.top:end]
        self.top = end
        return taken


class StepEngine:
    """The resources that the step and the energy-flux audit on ``grid``
    reuse from call to call.  `run` builds one for the whole run; a public
    call without one builds a transient engine (`using_engine`), and one
    given an engine of another grid size refuses it.  The private helpers
    below a public call take only the engine and read the grid from it.

    *Pool.*  `grid_buffers` hands out real (n, n, n) grid buffers and
    `band_buffers` complex retained-band vector buffers
    (3, 2kc+1, 2kc+1, kc+1), and `run` one real (planes, n, n) product
    slab per thread if asked (see `BandWorkspace`), each kind from a
    stack: what is handed out inside a `scope` goes back when it ends, and
    the next request gets the same arrays again.  So the step's phases
    and its stage arrays share one pool from step to step, and the audit,
    which releases the pool first, takes the step's memory instead of
    adding to it.  A buffer holds whatever its last user left in it.
    `band_scalars` and `band_vectors` hand out real band scalars and
    complex band vectors as views of grid buffers, whose memory is idle
    between transforms.  `release` drops, from each stack, the buffers
    no open `scope` holds, and the workspaces; the next request
    allocates afresh.

    *Rows.*  `run_rows` runs a band-level stage as a phase of one task per
    layout of `band_rows`: one k1-row range per thread from n =
    `ROW_SPLIT_MIN_N` up, else the whole band on the calling thread.  The
    caller takes the stage's scratch from the pool first, and each task
    uses its rows of it, so the split takes no buffer of its own.

    *Threads.*  `run` runs phases of tasks on the calling thread and, from
    n = `SPLIT_MIN_N` up, WORKERS - 1 helper threads of an executor made on
    the first such `run`, each thread with its own `BandWorkspace`.  Each
    phase submits one drain per helper, drains on the calling thread too
    and waits for every drain; its task iterator and failure list are
    local to it, and no barrier is involved.  The threads draw the tasks
    one at a time from the phase's shared iterator, under a lock, so the
    calling thread covers the helper's start-up by drawing more tasks.  A
    static split (task i on thread i mod 2, with no lock and no shared
    iterator) gave the same bytes but was slower: on a 2-core x86 host, a
    `pert32`-shaped run to t = 1 took a median 0.524 s drawing dynamically
    and 0.652 s split statically (0.670 and 0.769 s in a second session),
    and the dynamic draw was the faster in 7 (6) of 8 alternating pairs.
    `close` (or the end of a ``with`` block) shuts the executor down, which
    joins the helpers.  Nothing starts when the engine is made."""

    def __init__(self, grid: GridSpec):
        n = grid.n
        band_shape = (3,) + grid.band_shape
        self.grid = grid
        self.threads = WORKERS if n >= SPLIT_MIN_N else 1
        # a grid buffer's memory holds n^3 reals and one complex band
        # vector (6 real band scalars) for `band_vectors`: 0.4% more than
        # n^3 at 48^3, 6% at 16^3, 41% at 12^3, none at 32^3 and 64^3
        self._grid_words = max(n ** 3, 2 * int(np.prod(band_shape)))
        self._grid = _Stack(lambda: np.empty(self._grid_words))
        self._band = _Stack(lambda: np.empty(band_shape, dtype=np.complex128))
        self._slab = _Stack(lambda: np.empty((slab_planes(n), n, n)))
        self._workspaces: list[BandWorkspace] = []
        self._helpers = None  # a ThreadPoolExecutor from the first split run
        self._lock = threading.Lock()

    def __enter__(self) -> "StepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def nbytes(self) -> int:
        """Bytes held in the pool's buffers."""
        return sum(a.nbytes for a in self._grid.arrays + self._band.arrays
                   + self._slab.arrays)

    def grid_buffers(self, count: int) -> list[np.ndarray]:
        """``count`` grid buffers of the pool, in use until the enclosing
        `scope` ends."""
        n = self.grid.n
        return [a[:n ** 3].reshape(n, n, n) for a in self._grid.take(count)]

    def band_buffers(self, count: int) -> list[np.ndarray]:
        """``count`` band vector buffers of the pool, in use until the
        enclosing `scope` ends."""
        return self._band.take(count)

    def band_scalars(self, count: int) -> list[np.ndarray]:
        """``count`` real band scalars (2kc+1, 2kc+1, kc+1), contiguous
        views of as few grid buffers of the pool as hold them (see
        `grid_buffers`), in use until the enclosing `scope` ends.  A grid
        buffer holds at least 6 of them."""
        return self._band_views(count, self.grid.band_shape, np.float64)

    def band_vectors(self, count: int) -> list[np.ndarray]:
        """``count`` complex band vectors (3, 2kc+1, 2kc+1, kc+1), each a
        view of one grid buffer of the pool, in use until the enclosing
        `scope` ends: band values held only while no transform runs."""
        return self._band_views(count, (3,) + self.grid.band_shape,
                                np.complex128)

    def _band_views(self, count: int, shape: tuple,
                    dtype) -> list[np.ndarray]:
        words = int(np.prod(shape)) * np.dtype(dtype).itemsize // 8
        per_buffer = self._grid_words // words
        stacks = [a[:per_buffer * words].view(dtype).reshape(
                      (per_buffer,) + shape)
                  for a in self._grid.take(-(-count // per_buffer))]
        return [view for stack in stacks for view in stack][:count]

    @contextmanager
    def scope(self):
        """Give back, on exit, every buffer handed out inside."""
        tops = self._grid.top, self._band.top, self._slab.top
        try:
            yield self
        finally:
            self._grid.top, self._band.top, self._slab.top = tops

    @property
    def workspaces(self) -> list[BandWorkspace]:
        """Each thread's `BandWorkspace`, the calling thread's first, made
        on the calling thread when first asked for after the engine is made
        or released.  Between `run` calls no task holds one, so the
        caller may use their band buffers as scratch."""
        if not self._workspaces:
            self._workspaces = [BandWorkspace(self.grid)
                                for _ in range(self.threads)]
        return self._workspaces

    @cached_property
    def band_rows(self) -> list[SpectralLayout]:
        """The k1-row ranges `run_rows` splits the band into: one per
        thread from n = `ROW_SPLIT_MIN_N` up, each a `row_view` of
        ``grid.band``; below it the whole band."""
        parts = self.threads if self.grid.n >= ROW_SPLIT_MIN_N else 1
        if parts == 1:
            return [self.grid.band]
        rows = self.grid.band_shape[0]
        bounds = [rows * i // parts for i in range(parts + 1)]
        return [self.grid.band.row_view(start, stop)
                for start, stop in zip(bounds, bounds[1:])]

    def run_rows(self, task) -> None:
        """Run ``task(rows)`` once for each layout of `band_rows`: as one
        phase of `run` when they are two or more, so each thread takes a
        range, else on the calling thread.  The task must act on the
        ``rows.part`` of each band array and take its wavevectors from
        ``rows``; then each mode is computed as on the whole band, and the
        result is the same bit for bit however the rows are split."""
        if len(self.band_rows) == 1:
            task(self.band_rows[0])
        else:
            self.run([[lambda ws, rows=rows: task(rows)
                       for rows in self.band_rows]])

    def release(self) -> None:
        """Drop the buffers of each stack above its ``top`` and the
        workspaces; the buffers handed out in an open `scope` stay pooled,
        and so do the threads."""
        for stack in (self._grid, self._band, self._slab):
            del stack.arrays[stack.top:]
        self._workspaces = []

    def run(self, phases, fields: int = 0, product: bool = False) -> None:
        """Run each task of each phase once as ``task(ws)``, ws the
        `BandWorkspace` of the thread that draws it, holding ``fields``
        grid buffers of the pool for this call, and a product slab of the
        pool if ``product`` (for `BandWorkspace.to_spectral` of a
        product).
        A phase starts once every task of the one before has returned.

        The threads draw the tasks in list order.  A task should write only
        into buffers it was handed (its workspace's, or arrays of the
        caller's): a thread then computes each 1D line and product exactly
        as the single-thread run does.  The first exception raised by a
        task stops the drawing and is re-raised here once every thread has
        finished its task."""
        with self.scope():
            for ws in self.workspaces:
                ws.fields = self.grid_buffers(fields)
                ws.product = self._slab.take(1)[0] if product else None
            if self.threads > 1 and self._helpers is None:
                # imported here: after numpy it takes 3.5-4 ms on a 2-core
                # x86 host (its _base imports logging), which every set-up
                # would pay, though set-up starts no thread
                from concurrent.futures import ThreadPoolExecutor
                self._helpers = ThreadPoolExecutor(self.threads - 1)
            try:
                for tasks in phases:
                    pending, failures = iter(tasks), []
                    futures = [self._helpers.submit(self._drain, ws, pending,
                                                    failures)
                               for ws in self._workspaces[1:]]
                    self._drain(self._workspaces[0], pending, failures)
                    for future in futures:
                        future.result()
                    if failures:
                        raise failures[0]
            finally:
                for ws in self._workspaces:
                    ws.fields, ws.product = [], None

    def close(self) -> None:
        """`release`, and join the helper threads."""
        self.release()
        if self._helpers is not None:
            self._helpers.shutdown()
            self._helpers = None

    def _drain(self, ws: BandWorkspace, pending, failures: list) -> None:
        try:
            while not failures:
                with self._lock:
                    task = next(pending, None)
                if task is None:
                    return
                task(ws)
        except BaseException as exc:  # re-raised by the calling thread
            failures.append(exc)


def using_engine(engine: StepEngine | None, grid: GridSpec):
    """A context giving ``engine``, or a transient `StepEngine` of ``grid``
    that is closed when the context ends.  Refuses an engine made for a
    grid of another size."""
    if engine is None:
        return StepEngine(grid)
    if engine.grid.n != grid.n:
        raise ValueError(f"an engine of n={engine.grid.n} cannot serve a "
                         f"grid of n={grid.n}")
    return nullcontext(engine)


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


def expanded_parseval_sum(values: np.ndarray, grid: GridSpec,
                          out: np.ndarray | None = None,
                          scratch: np.ndarray | None = None) -> float:
    """(2pi)^3 times the real part of the n^3 sum of `expand_band` of the
    band ``values`` (expanded into ``out``, with ``scratch``, if given):
    the full-spectrum `parseval_sum` in the full spectrum's order, without
    the full layout's n^3 wavevector arrays.  For a power spectrum, or
    conj(a) b of real fields, it is the sum over the full-spectrum fields
    bit for bit."""
    return float(TWO_PI_CUBED * np.sum(
        expand_band(values, grid, out=out, scratch=scratch)).real)


def sobolev_weights(layout: SpectralLayout, s: float) -> np.ndarray:
    """(1 + |k|^2)^s, for an index s in `INDEX_WINDOW`."""
    if not in_index_window(s):
        raise ValueError(f"Sobolev index {s} outside sanity window "
                         f"{INDEX_WINDOW}")
    return (1.0 + layout.k_squared) ** s


def k_dot(c, layout: SpectralLayout, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """k . c over the leading component axis of c (an array or a sequence
    of three), written into ``out`` if given, with the second and third
    products formed in ``scratch`` if given."""
    k1, k2, k3 = layout.k_vectors
    out = np.multiply(k1, c[0], out=out)
    np.add(out, np.multiply(k2, c[1], out=scratch), out=out)
    return np.add(out, np.multiply(k3, c[2], out=scratch), out=out)


def gradient_coeffs(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """i k c, the new component axis first."""
    k1, k2, k3 = layout.k_vectors
    return np.stack([1j * k1 * c, 1j * k2 * c, 1j * k3 * c])


def curl_coeffs(c: np.ndarray, layout: SpectralLayout,
                out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """i k x c, written into ``out`` (not c itself) if given, with each
    component's subtrahend formed in ``scratch`` if given."""
    k1, k2, k3 = layout.k_vectors
    if out is None:
        out = np.empty(c.shape, dtype=np.complex128)
    for i, (ka, a, kb, b) in enumerate(((k2, 2, k3, 1), (k3, 0, k1, 2),
                                        (k1, 1, k2, 0))):
        np.multiply(ka, c[a], out=out[i])
        np.subtract(out[i], np.multiply(kb, c[b], out=scratch), out=out[i])
        np.multiply(1j, out[i], out=out[i])
    return out


def grad_div_coeffs(c: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """-k (k.c), the symbol of grad div."""
    k1, k2, k3 = layout.k_vectors
    kdotv = k_dot(c, layout)
    return np.stack([-k1 * kdotv, -k2 * kdotv, -k3 * kdotv])


def parallel_part(c: np.ndarray, layout: SpectralLayout,
                  out: np.ndarray | None = None) -> np.ndarray:
    """k (k.c)/|k|^2, the part of each mode parallel to k (zero at k=0),
    written into ``out`` (not c itself) if given; out[0] holds (k.c)/|k|^2
    until the last component is formed."""
    if out is None:
        out = np.empty_like(c)
    kdotv = k_dot(c, layout, out=out[0], scratch=out[1])
    np.divide(kdotv, layout.k_squared_safe, out=kdotv)
    for i in (2, 1, 0):
        np.multiply(layout.k_vectors[i], kdotv, out=out[i])
    return out


def project_coeffs(c: np.ndarray, layout: SpectralLayout,
                   out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Leray projection c - `parallel_part` (c) with the k=0 mode zeroed
    (where the layout holds it), written into ``out`` (which may be c
    itself) if given, with the parallel part formed in the vector buffer
    ``scratch`` if given."""
    part = parallel_part(c, layout, out=scratch)
    out = np.subtract(c, part, out=out)
    if layout.holds_origin:
        out[:, 0, 0, 0] = 0.0
    return out


def alpha_dot_k(alpha: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """alpha.k per mode, real."""
    k1, k2, k3 = layout.k_vectors
    return alpha[0] * k1 + alpha[1] * k2 + alpha[2] * k3


def alpha_symbol(alpha: np.ndarray, layout: SpectralLayout) -> np.ndarray:
    """i (alpha.k), the symbol of the transport alpha . grad."""
    return 1j * alpha_dot_k(alpha, layout)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def forward_transform(physical, grid: GridSpec) -> Field:
    """Transform real values to spectral space under the convention
    f(x) = sum_k fhat(k) exp(i k.x): one (n,n,n) array gives a
    `SpectralScalarField`, a triple of them (or one (3,n,n,n) array) a
    `SpectralVectorField`.  Complex values are refused, not cast."""
    if np.iscomplexobj(physical):
        raise ValueError("forward_transform takes real values, not complex")
    arr = np.asarray(physical, dtype=np.float64)
    n = grid.n
    if arr.shape not in ((n, n, n), (3, n, n, n)):
        raise ValueError(f"expected one (n,n,n) array or three with n={n}, "
                         f"got shape {arr.shape}")
    coeffs = np.fft.fftn(arr, axes=(-3, -2, -1)) / grid.npoints
    field_type = SpectralVectorField if arr.ndim == 4 else SpectralScalarField
    return field_type(coeffs, grid)


def inverse_transform(f: Field) -> np.ndarray:
    """Back to physical space; returns the real part (imaginary content of a
    Hermitian-symmetric field is pure roundoff).  Accepts any coefficients;
    `to_physical` is the pruned real path for retained-band coefficients."""
    return np.real(np.fft.ifftn(f.coeffs, axes=(-3, -2, -1))) * f.grid.npoints


def _conj_reflection(c: np.ndarray, out: np.ndarray,
                     axes: int = 3) -> np.ndarray:
    """conj(c(-k)) written into ``out``, reflected along the first ``axes``
    of c's last three axes by blocks: index i from (-i) mod m, i.e. c[0],
    then c[m-1], ..., c[1].  That is k -> -k modulo n on the full spectrum,
    and exactly on the box (k = 0..kc, then -kc..-1)."""
    halves = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    rest = (slice(None),) * (3 - axes)
    for blocks in itertools.product(halves, repeat=axes):
        to, source = zip(*blocks)
        out[(..., *to, *rest)] = c[(..., *source, *rest)]
    return np.conjugate(out, out=out)


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto the Hermitian-symmetric subspace
    (coeff(-k) = conj(coeff(k))), i.e. onto real physical fields:
    0.5 (c(k) + conj(c(-k))), formed in one new array that first holds
    `_conj_reflection`; on the box, bit for bit the box of the full one."""
    out = _conj_reflection(coeffs, np.empty_like(coeffs))
    out += coeffs
    out *= 0.5
    return out


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
    return type(f)(-f.grid.k_squared * f.coeffs, f.grid)


def grad_div(v: SpectralVectorField) -> SpectralVectorField:
    """grad(div v) -> -k (k.vhat)."""
    return SpectralVectorField(grad_div_coeffs(v.coeffs, v.grid.full), v.grid)


def alpha_dot_grad(f: Field, alpha) -> Field:
    """Directional transport (alpha . grad) f -> i (alpha.k) fhat."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError("alpha must be a 3-vector")
    return type(f)(alpha_symbol(a, f.grid.full) * f.coeffs, f.grid)


# ---------------------------------------------------------------------------
# projection, dealiasing, bookkeeping
# ---------------------------------------------------------------------------

def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Divergence-free projection vhat <- vhat - k (k.vhat)/|k|^2 per mode,
    with the k=0 mode zeroed (mean-zero enforcement).  Idempotent."""
    return SpectralVectorField(project_coeffs(v.coeffs, v.grid.full), v.grid)


def dealias(f: Field) -> Field:
    """Zero every mode with any |k_i| > floor(n/3).  Idempotent."""
    return type(f)(f.coeffs * f.grid.dealias_mask, f.grid)


def zero_mean(f: Field) -> Field:
    """Zero the k=0 mode (either rank)."""
    out = f.coeffs.copy()
    out[..., 0, 0, 0] = 0.0
    return type(f)(out, f.grid)


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
    return float(TWO_PI_CUBED * s.real)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def zero_vector_field(grid: GridSpec) -> SpectralVectorField:
    return SpectralVectorField(np.zeros((3, grid.n, grid.n, grid.n),
                                        dtype=np.complex128), grid)


def require_finite(f: Field, context: str = "field") -> None:
    if not np.all(np.isfinite(f.coeffs)):
        raise IntegrityError(f"non-finite coefficients in {context}")
