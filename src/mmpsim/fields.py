"""Physical parameters, system variants, solution state, parameter
validation, and reproducible random initial data.

The six variants select which linear terms are present in the evolution
equations.  The two chi=0 variants decouple the micro-rotation field and
carry no stability guarantee; they are offered for boundary exploration
only and validation flags them accordingly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .spectral import (
    GridSpec,
    IntegrityError,
    SpectralLayout,
    SpectralVectorField,
    band_part,
    divergence_residual,
    expand_band,
    hermitian_symmetrize,
    parseval_sum,
    power_spectrum,
    project_coeffs,
    zero_vector_field,
)


class SystemVariant(Enum):
    """Which subsystem of the magneto-micropolar equations is evolved."""

    FULL = "full"
    ZERO_KINEMATIC = "zero-kinematic"
    ZERO_KINEMATIC_ZERO_DIFFUSION = "zero-kinematic-zero-diffusion"
    PERTURBATION = "perturbation"
    INVISCID_RESISTIVE_MHD = "inviscid-resistive-mhd"
    IDEAL_MHD = "ideal-mhd"

    @property
    def uses_background(self) -> bool:
        """True when the magnetic unknown is the deviation from a constant
        background field and alpha transport terms are active."""
        return self is SystemVariant.PERTURBATION

    @property
    def forces_zero_mu(self) -> bool:
        return self is not SystemVariant.FULL

    @property
    def forces_zero_nu(self) -> bool:
        return self in (SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION,
                        SystemVariant.PERTURBATION,
                        SystemVariant.IDEAL_MHD)

    @property
    def forces_zero_chi(self) -> bool:
        return self in (SystemVariant.INVISCID_RESISTIVE_MHD,
                        SystemVariant.IDEAL_MHD)

    @property
    def wire_id(self) -> int:
        """Stable integer id used by the checkpoint format."""
        return _WIRE_IDS[self]


_WIRE_IDS = {v: i for i, v in enumerate(SystemVariant)}
WIRE_VARIANTS = {i: v for v, i in _WIRE_IDS.items()}


@dataclass(frozen=True)
class PhysParams:
    """Equation coefficients plus the background vector and the Diophantine
    exponent used by the perturbation variant.

    mu / chi / nu are the kinematic, micro-rotation and magnetic
    diffusivities; kappa and eta are the angular viscosities.
    """

    mu: float = 0.0
    chi: float = 0.0
    kappa: float = 0.0
    eta: float = 0.0
    nu: float = 0.0
    alpha: tuple[float, float, float] = (0.0, 0.0, 0.0)
    r: float = 2.5

    def __post_init__(self):
        for name in ("mu", "chi", "kappa", "eta", "nu"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != 3 or not all(math.isfinite(a) for a in self.alpha):
            raise ValueError(f"alpha must be a finite 3-vector, got {self.alpha}")
        if not math.isfinite(self.r) or self.r <= 2.0:
            raise ValueError(f"Diophantine exponent r must exceed 2, got {self.r}")

    @property
    def alpha_vector(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=np.float64)

    @property
    def alpha_norm_sq(self) -> float:
        return float(np.dot(self.alpha_vector, self.alpha_vector))

    def u_diffusion(self, variant: SystemVariant) -> float:
        """Effective velocity diffusivity for the selected variant."""
        if variant.forces_zero_chi:
            return 0.0
        if variant is SystemVariant.FULL:
            return self.mu + self.chi
        return self.chi

    def magnetic_diffusion(self, variant: SystemVariant) -> float:
        return 0.0 if variant.forces_zero_nu else self.nu

    def coupling_chi(self, variant: SystemVariant) -> float:
        """chi as seen by the curl couplings and the micro-rotation damping."""
        return 0.0 if variant.forces_zero_chi else self.chi


@dataclass
class ValidationReport:
    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


_OPEN_PROBLEM_WARNING = "open problem regime, no stability guarantee"


def nonzero_forced(p: PhysParams, variant: SystemVariant) -> dict[str, float]:
    """The coefficients among mu, nu and chi (in that order) that the
    variant structurally forces to zero but ``p`` sets nonzero, by name."""
    forced = (("mu", variant.forces_zero_mu), ("nu", variant.forces_zero_nu),
              ("chi", variant.forces_zero_chi))
    return {name: getattr(p, name) for name, on in forced
            if on and getattr(p, name) != 0.0}


def structural_violations(p: PhysParams, variant: SystemVariant) -> list[str]:
    """Coefficients the variant structurally forces to zero but that were
    supplied nonzero; such sets are rejected even by tendency assembly."""
    return [f"variant {variant.value!r} forces {name}=0, got {name}={value}"
            for name, value in nonzero_forced(p, variant).items()]


def validate_params(p: PhysParams, variant: SystemVariant,
                    strict: bool = True) -> ValidationReport:
    """Check the coefficient set against the hypotheses under which decay is
    guaranteed for the selected variant.

    Strict mode rejects violations; permissive mode downgrades every
    violation to a warning (for exploratory runs).  Each message names the
    specific failed inequality.
    """
    violations: list[str] = list(structural_violations(p, variant))
    warnings: list[str] = []

    if variant.forces_zero_chi:
        warnings.append(_OPEN_PROBLEM_WARNING)

    if variant is SystemVariant.ZERO_KINEMATIC:
        if p.chi <= 0.0:
            violations.append(f"zero-kinematic decay requires chi > 0, got chi={p.chi}")
        if p.eta <= 0.0:
            violations.append(f"zero-kinematic decay requires eta > 0, got eta={p.eta}")
        if p.nu <= 0.0:
            violations.append(f"zero-kinematic decay requires nu > 0, got nu={p.nu}")
    elif variant is SystemVariant.ZERO_KINEMATIC_ZERO_DIFFUSION:
        if p.chi <= 0.0:
            violations.append(f"variant requires chi > 0, got chi={p.chi}")
        if p.eta <= 0.0:
            violations.append(f"variant requires eta > 0, got eta={p.eta}")
    elif variant is SystemVariant.PERTURBATION:
        a2 = p.alpha_norm_sq
        if not a2 < p.chi:
            violations.append(
                f"structure condition |alpha|^2 < chi violated: "
                f"|alpha|^2={a2:.6g} >= chi={p.chi:.6g}")
        if not p.chi < 2.0:
            violations.append(
                f"structure condition chi < 2 violated: chi={p.chi:.6g}")
        if p.eta <= 0.0:
            violations.append(f"perturbation decay requires eta > 0, got eta={p.eta}")

    if strict:
        return ValidationReport(ok=not violations, errors=violations,
                                warnings=warnings)
    return ValidationReport(ok=True, errors=[], warnings=warnings + violations)


@dataclass(frozen=True, eq=False)
class State:
    """Solution snapshot: velocity, micro-rotation, and the magnetic unknown
    (the field itself, or its deviation from the background for the
    perturbation variant), tagged with the evolving variant."""

    u: SpectralVectorField
    omega: SpectralVectorField
    magnetic: SpectralVectorField
    variant: SystemVariant
    t: float = 0.0

    def __post_init__(self):
        n = self.u.grid.n
        if self.omega.grid.n != n or self.magnetic.grid.n != n:
            raise ValueError("state fields must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def with_time(self, t: float) -> "State":
        return replace(self, t=t)


@dataclass(frozen=True, eq=False)
class BandState:
    """A state held as its retained-band coefficients (see `spectral`): the
    (3, 2kc+1, 2kc+1, kc+1) arrays of u, omega and the magnetic unknown,
    with grid, variant and time.  `run` carries this between steps;
    `step`, `stable_dt`, `compute_record` and `energy_flux_audit` accept it
    next to a `State`.  Not part of the package's public API."""

    u: np.ndarray
    omega: np.ndarray
    magnetic: np.ndarray
    grid: GridSpec
    variant: SystemVariant
    t: float = 0.0

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.u, self.omega, self.magnetic

    def to_state(self) -> State:
        """The full-spectrum state: zero outside the box, k3 < 0 filled by
        Hermitian symmetry (`expand_band`)."""
        return State(*(SpectralVectorField(expand_band(c, self.grid),
                                           self.grid)
                       for c in self.arrays), self.variant, t=self.t)


def as_band(state: State | BandState) -> BandState:
    """``state`` itself if it is a `BandState`; otherwise the band part of
    each field of a `State`, copied (`band_part`), so only the retained box
    is read and everything outside it is dropped."""
    if isinstance(state, BandState):
        return state
    grid = state.grid
    return BandState(*(band_part(f.coeffs, grid)
                       for f in (state.u, state.omega, state.magnetic)),
                     grid, state.variant, t=state.t)


def check_state(state: State) -> None:
    """Assert the state invariants: mean-zero fields, divergence-free u and
    magnetic component (residual <= 1e-12).  Raises ValueError if not."""
    for name, f in (("u", state.u), ("omega", state.omega),
                    ("magnetic", state.magnetic)):
        if np.abs(f.coeffs[:, 0, 0, 0]).max() != 0.0:
            raise ValueError(f"{name} is not mean-zero")
    for name, f in (("u", state.u), ("magnetic", state.magnetic)):
        res = divergence_residual(f)
        if res > 1e-12:
            raise ValueError(f"{name} divergence residual {res:.3e} > 1e-12")


@dataclass(frozen=True)
class InitSpec:
    """Random initial data: spectral envelope |k|^(-slope) exp(-|k|^2/k_peak^2)
    with uniform phases, each field rescaled to Sobolev norm epsilon.

    ``sobolev_index`` is the rescaling norm: 3 for zero-kinematic decay runs,
    the high regularity index N for perturbation runs.  ``k_peak=None``
    defaults to n/6 at build time.
    """

    epsilon: float
    sobolev_index: float = 3.0
    spectrum_slope: float = 2.0
    k_peak: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not math.isfinite(self.sobolev_index):
            raise ValueError(
                f"sobolev_index must be finite, got {self.sobolev_index}")
        if not math.isfinite(self.spectrum_slope) or self.spectrum_slope < 0.0:
            raise ValueError(f"spectrum_slope must be finite and >= 0, "
                             f"got {self.spectrum_slope}")
        if self.k_peak is not None and not (math.isfinite(self.k_peak)
                                            and self.k_peak > 0.0):
            raise ValueError(
                f"k_peak must be finite and positive, got {self.k_peak}")


def _rescale_factor(current: float, target: float) -> float:
    """The real factor that takes a field of norm ``current`` to the norm
    ``target > 0``."""
    if current == 0.0:
        raise ValueError("cannot rescale the zero field to a positive norm")
    return target / current


def rescale_to_norm(f: SpectralVectorField, s: float,
                    target: float) -> SpectralVectorField:
    """Scale every coefficient by one real factor so the H^s norm equals
    ``target``; directions are unchanged."""
    from .norms import sobolev_norm

    if target < 0.0:
        raise ValueError("target norm must be >= 0")
    if target == 0.0:
        return zero_vector_field(f.grid)
    return SpectralVectorField(
        f.coeffs * _rescale_factor(sobolev_norm(f, s), target), f.grid)


# ---------------------------------------------------------------------------
# the retained box |k_i| <= kc, (2kc+1)^3 modes in FFT order along each axis
# ---------------------------------------------------------------------------

def _box_blocks(grid: GridSpec) -> list:
    """The box as eight (full, box) pairs of slice triples: along each axis
    k = 0..kc, then -kc..-1, is a contiguous slice in either layout, so
    basic slicing copies the box without an index array."""
    n, kc = grid.n, grid.kmax_dealias
    axis = ((slice(0, kc + 1), slice(0, kc + 1)),
            (slice(n - kc, n), slice(kc + 1, 2 * kc + 1)))
    return [tuple(zip(*pairs)) for pairs in itertools.product(axis, repeat=3)]


def _box_part(a: np.ndarray, grid: GridSpec,
              out: np.ndarray | None = None) -> np.ndarray:
    """The box of full-layout values over the last three axes, copied into
    ``out`` if given."""
    m = 2 * grid.kmax_dealias + 1
    if out is None:
        out = np.empty(a.shape[:-3] + (m, m, m), dtype=a.dtype)
    for full, box in _box_blocks(grid):
        out[(..., *box)] = a[(..., *full)]
    return out


def _expand_box(box: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full-layout values of box ones: the box scattered into +0.0."""
    out = np.zeros(box.shape[:-3] + (grid.n,) * 3, dtype=box.dtype)
    for full, b in _box_blocks(grid):
        out[(..., *full)] = box[(..., *b)]
    return out


def _box_layout(grid: GridSpec) -> SpectralLayout:
    """Wavevectors of the box, gathered from the full layout's, so a symbol
    evaluated on it equals the box of the full-layout symbol bit for bit."""
    k = grid.k_axis[grid.band_index]
    return SpectralLayout(grid, (k[:, None, None], k[None, :, None],
                                 k[None, None, :]),
                          _box_part(grid.k_squared, grid),
                          _box_part(grid.k_squared_safe, grid),
                          np.ones((1, 1, 1)))


def _box_sobolev_norm(box: np.ndarray, weights: np.ndarray,
                      grid: GridSpec) -> float:
    """`sobolev_norm` of the field that is ``box`` on the box and zero
    elsewhere, given its Sobolev weights on the box (`norms`), bit for bit:
    the same check and n^3 sum, taken over the box's values scattered into
    +0.0."""
    if not np.all(np.isfinite(box)):
        raise IntegrityError("non-finite coefficients in sobolev_norm")
    values = _expand_box(weights * power_spectrum(box), grid)
    return math.sqrt(max(parseval_sum(values, grid.full), 0.0))


def _spectral_envelope(layout: SpectralLayout, slope: float,
                       k_peak: float) -> np.ndarray:
    """|k|^(-slope) exp(-|k|^2/k_peak^2) on the box, zero at k = 0.  The
    dealias mask is all true here, and a real multiply by 1 changes no
    non-NaN value, so the mask is not applied."""
    ksq = layout.k_squared
    kmag = np.sqrt(ksq)
    kmag_safe = np.where(kmag == 0.0, 1.0, kmag)
    env = kmag_safe ** (-slope) * np.exp(-ksq / k_peak ** 2)
    env[0, 0, 0] = 0.0
    return env


def make_random_state(grid: GridSpec, init: InitSpec,
                      variant: SystemVariant) -> State:
    """Reproducible random state satisfying the smallness and mean-zero
    hypotheses.

    The stream is a single Philox generator keyed by ``init.seed``, read
    as one uniform(0, 2pi) draw of shape (3, n, n, n) per field (order u,
    omega, magnetic): the phases of every mode in FFT order.  Only the
    phases of the retained box |k_i| <= kc are kept; the blocks of the
    out-of-box k1 planes are skipped, not drawn.  Identical seeds give
    bit-identical states.

    Each field
    is built on the box: envelope * exp(i phases), `hermitian_symmetrize`
    (the box is closed under k -> -k), the Leray projection (u and the
    magnetic unknown), the box's part of the dealias mask and the rescale to
    H^s norm epsilon, in this order.  These are the elementwise operations
    of the same construction on the full spectrum, so every retained
    coefficient has the value and bytes it would have there.  The box is
    then scattered into zeros: outside it every coefficient is +0.0.
    """
    k_peak = init.k_peak if init.k_peak is not None else grid.n / 6.0
    if k_peak > grid.kmax_dealias:
        raise ValueError(
            f"k_peak={k_peak} exceeds the dealias cutoff {grid.kmax_dealias}")

    if init.epsilon == 0.0:
        zero = zero_vector_field(grid)
        return State(zero, zero, zero, variant, t=0.0)

    from .norms import _sobolev_weights

    n, kc = grid.n, grid.kmax_dealias
    rng = np.random.Generator(np.random.Philox(init.seed))
    layout = _box_layout(grid)
    envelope = _spectral_envelope(layout, init.spectrum_slope, k_peak)
    mask = _box_part(grid.dealias_mask, grid)
    weights = _sobolev_weights(layout, init.sobolev_index)
    # Philox yields its draws in blocks of four, and advance(b) skips b
    # blocks; the planes kc < i1 < n - kc of a component lie outside the
    # box and start after (kc + 1) n^2 draws, a multiple of four
    draw = np.empty((n,) * 3)
    skipped_blocks = (n - 2 * kc - 1) * n * n // 4

    fields = []
    for name in ("u", "omega", "magnetic"):
        phases = np.empty((3,) + envelope.shape)
        for component in phases:
            rng.random(out=draw[:kc + 1])
            rng.bit_generator.advance(skipped_blocks)
            rng.random(out=draw[n - kc:])
            _box_part(draw, grid, out=component)
        coeffs = np.empty(phases.shape, dtype=np.complex128)
        coeffs.real = 0.0
        # 1j * phases, where uniform(0, 2pi) is 0 + 2pi * random()
        np.multiply(phases, 2.0 * np.pi, out=coeffs.imag)
        del phases
        np.exp(coeffs, out=coeffs)
        coeffs *= envelope
        coeffs = hermitian_symmetrize(coeffs)
        coeffs[:, 0, 0, 0] = 0.0
        if name != "omega":
            project_coeffs(coeffs, layout, out=coeffs)
        # all true on the box, but a complex multiply by 1 may flip the sign
        # of a zero part, as it did on the full spectrum
        np.multiply(coeffs, mask, out=coeffs)
        coeffs *= _rescale_factor(_box_sobolev_norm(coeffs, weights, grid),
                                  init.epsilon)
        fields.append(SpectralVectorField(_expand_box(coeffs, grid), grid))
    return State(fields[0], fields[1], fields[2], variant, t=0.0)
