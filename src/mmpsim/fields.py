"""Physical parameters, system variants, solution state, parameter
validation, and reproducible random initial data.

The six variants select which linear terms are present in the evolution
equations.  The two chi=0 variants decouple the micro-rotation field and
carry no stability guarantee; they are offered for boundary exploration
only and validation flags them accordingly.

A `State` holds the retained 2/3-rule band of each field (see `spectral`)
and no full-spectrum array; its full-spectrum fields are built on access.
The random initial data are built on the retained band.  The Sobolev index
window that `PhysParams` and `InitSpec` check, and the weights and n^3
sum of the data's rescale, are `spectral`'s (`in_index_window`,
`sobolev_weights`, `expanded_parseval_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .spectral import (
    INDEX_WINDOW,
    GridSpec,
    IntegrityError,
    SpectralLayout,
    SpectralVectorField,
    band_part,
    divergence_residual_coeffs,
    expand_band,
    expanded_parseval_sum,
    in_index_window,
    power_spectrum,
    project_coeffs,
    sobolev_weights,
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
        with np.errstate(over="ignore"):
            if not math.isfinite(self.alpha_norm_sq):
                raise ValueError(f"alpha overflows |alpha|^2, got {self.alpha}")
        if not math.isfinite(self.r) or self.r <= 2.0:
            raise ValueError(f"Diophantine exponent r must exceed 2, got {self.r}")
        # output.norms may ask for the H^(r+5) norm on any variant
        if not in_index_window(self.r + 5.0):
            raise ValueError(
                f"Diophantine exponent r puts the hr5 norm's index r + 5 = "
                f"{self.r + 5.0} outside the Sobolev index window "
                f"{INDEX_WINDOW}, got r={self.r}")

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
    supplied nonzero; the solver calls refuse such sets
    (`check_solver_arguments`), whatever the validation mode."""
    return [f"variant {variant.value!r} forces {name}=0, got {name}={value}"
            for name, value in nonzero_forced(p, variant).items()]


def check_solver_arguments(state: State, p: PhysParams,
                           variant: SystemVariant, caller: str) -> None:
    """The entry contract of `rhs`, `step`, `run` and `energy_flux_audit`
    (and so of `compute_record`): raise ValueError for a state tagged with
    another variant than ``variant``, named with ``caller``, and for a ``p``
    that sets a coefficient the variant forces to zero
    (`structural_violations`)."""
    if state.variant is not variant:
        raise ValueError(f"state is tagged {state.variant.value!r}, "
                         f"{caller} was asked for {variant.value!r}")
    structural = structural_violations(p, variant)
    if structural:
        raise ValueError("; ".join(structural))


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


@dataclass(frozen=True, eq=False, init=False)
class State:
    """Solution snapshot: velocity, micro-rotation, and the magnetic unknown
    (the field itself, or its deviation from the background for the
    perturbation variant), tagged with the evolving variant.

    A state holds only the retained-band coefficients of its fields (see
    `spectral`): ``arrays`` are the (3, 2kc+1, 2kc+1, kc+1) arrays of u,
    omega and the magnetic unknown.  Built from full-spectrum fields, it
    keeps their band (`band_part`) and drops everything else, so every
    state is dealiased and real by construction.  ``u``, ``omega`` and
    ``magnetic`` return the full-spectrum fields, `expand_band` of the
    band, built anew on each access and not kept: a cache would hold the
    full spectrum that the state exists to avoid.  `run`, `step`,
    `make_random_state` and `load_checkpoint` build states from band
    arrays (`from_band`)."""

    arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    grid: GridSpec
    variant: SystemVariant
    t: float

    def __init__(self, u: SpectralVectorField, omega: SpectralVectorField,
                 magnetic: SpectralVectorField, variant: SystemVariant,
                 t: float = 0.0):
        grid = u.grid
        if omega.grid.n != grid.n or magnetic.grid.n != grid.n:
            raise ValueError("state fields must share one grid")
        # a frozen dataclass: the fields go straight into the instance dict
        vars(self).update(arrays=tuple(band_part(f.coeffs, grid)
                                       for f in (u, omega, magnetic)),
                          grid=grid, variant=variant, t=t)

    @classmethod
    def from_band(cls, arrays, grid: GridSpec, variant: SystemVariant,
                  t: float = 0.0) -> "State":
        """The state whose band arrays are ``arrays`` (u, omega, magnetic),
        held as they are, not copied."""
        state = cls.__new__(cls)
        vars(state).update(arrays=tuple(arrays), grid=grid, variant=variant,
                           t=t)
        return state

    def _expanded(self, index: int) -> SpectralVectorField:
        return SpectralVectorField(expand_band(self.arrays[index], self.grid),
                                   self.grid)

    @property
    def u(self) -> SpectralVectorField:
        return self._expanded(0)

    @property
    def omega(self) -> SpectralVectorField:
        return self._expanded(1)

    @property
    def magnetic(self) -> SpectralVectorField:
        return self._expanded(2)

    def with_time(self, t: float) -> "State":
        return State.from_band(self.arrays, self.grid, self.variant, t)


def check_state(state: State) -> None:
    """Assert the state invariants: mean-zero fields, divergence-free u and
    magnetic component (residual <= 1e-12), read on the state's band with
    the full spectrum's values.  Raises ValueError if not."""
    u, omega, magnetic = state.arrays
    for name, c in (("u", u), ("omega", omega), ("magnetic", magnetic)):
        if np.abs(c[:, 0, 0, 0]).max() != 0.0:
            raise ValueError(f"{name} is not mean-zero")
    for name, c in (("u", u), ("magnetic", magnetic)):
        res = divergence_residual_coeffs(c, state.grid.band)
        if res > 1e-12:
            raise ValueError(f"{name} divergence residual {res:.3e} > 1e-12")


# The smallest k_peak whose envelope at |k| = 1, exp(-1/k_peak^2), is at
# least 1e-150: below about 0.05 the rescaled data vanish on every box.
_K_PEAK_MIN = 1.0 / math.sqrt(150.0 * math.log(10.0))


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
        if not in_index_window(self.sobolev_index):
            raise ValueError(
                f"sobolev_index must be finite and inside the Sobolev index "
                f"window {INDEX_WINDOW}, got {self.sobolev_index}")
        if not math.isfinite(self.spectrum_slope) or self.spectrum_slope < 0.0:
            raise ValueError(f"spectrum_slope must be finite and >= 0, "
                             f"got {self.spectrum_slope}")
        if self.k_peak is not None and not (math.isfinite(self.k_peak)
                                            and self.k_peak >= _K_PEAK_MIN):
            raise ValueError(f"k_peak must be finite and >= "
                             f"{_K_PEAK_MIN:.5f}, got {self.k_peak}")
        # a checkpoint header stores the seed as an unsigned 64-bit integer
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


def _rescale_factor(current: float, target: float) -> float:
    """The real factor that takes a field of norm ``current`` to the norm
    ``target > 0``."""
    if current == 0.0:
        raise ValueError("cannot rescale the zero field to a positive norm")
    return target / current


def _band_sobolev_norm(band: np.ndarray, weights: np.ndarray,
                       grid: GridSpec) -> float:
    """`sobolev_norm` of the real field whose retained band is ``band``,
    given its Sobolev weights on the band (`sobolev_weights`), bit for
    bit: the same check and n^3 sum, `expanded_parseval_sum` of the band's
    weighted power (a transient n^3 array: a band sum would change the
    order)."""
    if not np.all(np.isfinite(band)):
        raise IntegrityError("non-finite coefficients in sobolev_norm")
    return math.sqrt(max(expanded_parseval_sum(
        weights * power_spectrum(band), grid), 0.0))


def _spectral_envelope(layout: SpectralLayout, slope: float,
                       k_peak: float) -> np.ndarray:
    """|k|^(-slope) exp(-|k|^2/k_peak^2) on the band, zero at k = 0.  The
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

    Each field is built on the layout ``grid.band`` (see `spectral`) from
    two gathers of the phases: A, the band's own, and M, its mirror's
    (M(k) is the phase at -k).  With the envelope, which is even in k, the
    Hermitian part 0.5 (conj(X(-k)) + X(k)) of X = envelope * exp(i phases)
    is 0.5 (conj(envelope * exp(i M)) + envelope * exp(i A)), formed with
    the operations of `hermitian_symmetrize`, in its order.  Then come the
    Leray projection (u and the magnetic unknown), the band's part of the
    dealias mask and the rescale to H^s norm epsilon, in this order.  These
    are the elementwise operations of the same construction on the full
    spectrum, so every retained coefficient has the value and bytes it
    would have there.
    """
    k_peak = init.k_peak if init.k_peak is not None else grid.n / 6.0
    if k_peak > grid.kmax_dealias:
        raise ValueError(
            f"k_peak={k_peak} exceeds the dealias cutoff {grid.kmax_dealias}")

    if init.epsilon == 0.0:
        return State.from_band(
            (np.zeros((3,) + grid.band_shape, dtype=np.complex128)
             for _ in range(3)), grid, variant)

    n, kc = grid.n, grid.kmax_dealias
    rng = np.random.Generator(np.random.Philox(init.seed))
    layout = grid.band
    envelope = _spectral_envelope(layout, init.spectrum_slope, k_peak)
    mask = np.ones(grid.band_shape, dtype=bool)  # the dealias mask on the band
    weights = sobolev_weights(layout, init.sobolev_index)
    # Philox yields its draws in blocks of four, and advance(b) skips b
    # blocks; the planes kc < i1 < n - kc of a component lie outside the
    # box and start after (kc + 1) n^2 draws, a multiple of four.  The
    # retained planes k1 = 0..kc, then -kc..-1, are drawn in box order
    draw = np.empty((2 * kc + 1, n, n))
    skipped_blocks = (n - 2 * kc - 1) * n * n // 4
    idx = grid.band_index
    # -k in box order is row (-i) mod (2kc+1), and in the full layout's
    # k3 columns index (-i) mod n
    mirror_rows = np.r_[0, 2 * kc:0:-1]
    own = np.ix_(range(2 * kc + 1), idx, idx[:kc + 1])
    mirror = np.ix_(mirror_rows, idx[mirror_rows], -idx[:kc + 1] % n)

    arrays = []
    for name in ("u", "omega", "magnetic"):
        waves = np.empty((2, 3) + grid.band_shape, dtype=np.complex128)
        waves.real = 0.0
        # the phases A, then M; no view of waves outlives `del waves`
        for i in range(3):
            rng.random(out=draw[:kc + 1])
            rng.bit_generator.advance(skipped_blocks)
            rng.random(out=draw[kc + 1:])
            waves.imag[0, i] = draw[own]
            waves.imag[1, i] = draw[mirror]
        # 1j * phases, where uniform(0, 2pi) is 0 + 2pi * random()
        np.multiply(waves.imag, 2.0 * np.pi, out=waves.imag)
        np.exp(waves, out=waves)
        waves *= envelope
        # `hermitian_symmetrize`: conj(X(-k)) + X(k), halved
        coeffs = np.conjugate(waves[1])
        coeffs += waves[0]
        coeffs *= 0.5
        del waves
        coeffs[:, 0, 0, 0] = 0.0
        if name != "omega":
            project_coeffs(coeffs, layout, out=coeffs)
        # all true on the band, but a complex multiply by 1 may flip the
        # sign of a zero part, as it did on the full spectrum
        np.multiply(coeffs, mask, out=coeffs)
        coeffs *= _rescale_factor(_band_sobolev_norm(coeffs, weights, grid),
                                  init.epsilon)
        arrays.append(coeffs)
    return State.from_band(arrays, grid, variant)
