"""Spectral Sobolev norms, auxiliary energy functionals, decay-rate
regression, and the per-sample diagnostics record.

All norms and inner products are evaluated in spectral space: with the
convention f = sum_k fhat(k) exp(i k.x),

    ||f||_{H^s}^2 = (2pi)^3 sum_k (1 + |k|^2)^s |fhat(k)|^2.

Non-integer indices are supported directly through real-exponent weights.
The weights and their index window live in `spectral` (`sobolev_weights`,
`INDEX_WINDOW`), as does alpha.k (`alpha_dot_k`), whose square weighs the
alpha-transport norm.

The norms and functionals are array-level kernels over a `SpectralLayout`,
each a `parseval_sum` of per-mode values.  On the retained band
(``grid.band``, see `spectral`) a weight w(k) even in k gives Parseval as

    (2pi)^3 sum_{k in band} m(k) w(k) |fhat(k)|^2,

m(k) = 1 on the k3 = 0 plane and 2 for k3 > 0, which stands for its
unstored mirror -k; that is the full-spectrum sum of the box's content.
The public field-level functions are thin wrappers over the kernels on
``grid.full`` (m = 1); `compute_record` calls the same kernels on the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .dynamics import energy_flux_audit
from .fields import PhysParams, State, SystemVariant
from .spectral import (
    Field,
    IntegrityError,
    SpectralLayout,
    StepEngine,
    alpha_dot_k,
    alpha_symbol,
    curl_coeffs,
    divergence_residual_coeffs,
    parseval_sum,
    power_spectrum,
    require_finite,
    sobolev_weights,
)

# Weights of the monitored Lyapunov functionals: A of the curl-energy
# functional F, gamma and c0 of the perturbation functionals E and D.
# Every record uses them; the public functional functions default to them.
WEIGHT_A = 10.0
GAMMA = 4.0
C0_WEIGHT = 1.0


# ---------------------------------------------------------------------------
# array-level kernels (power spectra and coefficients on one layout)
# ---------------------------------------------------------------------------

def _norm(power: np.ndarray, weights: np.ndarray,
          layout: SpectralLayout) -> float:
    return math.sqrt(max(parseval_sum(weights * power, layout), 0.0))


def _triple_norm(powers, weights: np.ndarray, layout: SpectralLayout) -> float:
    """sqrt of the sum of the squared norms of the (u, omega, magnetic)
    power spectra."""
    return math.sqrt(sum(_norm(power, weights, layout) ** 2
                         for power in powers))


def _weighted_cross(a: np.ndarray, b: np.ndarray, weights: np.ndarray,
                    layout: SpectralLayout) -> float:
    """(2pi)^3 sum_k m(k) w(k) Re(conj(a).b), summed over components."""
    return parseval_sum(weights * np.real(np.conj(a) * b).sum(axis=0), layout)


def _curl_energy(u: np.ndarray, w: np.ndarray, m: np.ndarray,
                 layout: SpectralLayout, weight_a: float) -> float:
    if weight_a < 1.0:
        raise ValueError("the functional weight must satisfy A >= 1")
    w4 = layout.k_squared ** 2
    curl_u = curl_coeffs(u, layout)
    energy = sum(parseval_sum(w4 * np.abs(c) ** 2, layout)
                 for c in (curl_u, curl_coeffs(w, layout),
                           curl_coeffs(m, layout)))
    cross = _weighted_cross(w, curl_u, w4, layout)
    return weight_a * energy - cross


def _power_sum_weights(ksq: np.ndarray, top: int) -> np.ndarray:
    """sum_{j=0}^{top} |k|^(2j) evaluated per mode."""
    total = np.ones_like(ksq)
    term = np.ones_like(ksq)
    for _ in range(top):
        term = term * ksq
        total = total + term
    return total


def _alpha_transport_norm(power_m: np.ndarray, layout: SpectralLayout,
                          p: PhysParams, s: float) -> float:
    transport_sq = alpha_dot_k(p.alpha_vector, layout) ** 2
    return _norm(power_m, sobolev_weights(layout, s) * transport_sq, layout)


def _perturbation_functionals(arrays, powers, layout: SpectralLayout,
                              p: PhysParams, gamma: float, c0_weight: float
                              ) -> tuple[float, float, float]:
    """E, D and the H^(r+3) norm of the background transport of the
    magnetic unknown, which D uses (`alpha_transport_norm`)."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    u, w, m = arrays
    power_u, power_w, power_m = powers
    ksq = layout.k_squared
    r = p.r
    weights_r5 = sobolev_weights(layout, r + 5.0)

    hr5_sq = _triple_norm(powers, weights_r5, layout) ** 2

    w1 = _power_sum_weights(ksq, math.floor(r) + 4)
    cross_omega = _weighted_cross(w, curl_coeffs(u, layout), w1, layout)

    transport = alpha_symbol(p.alpha_vector, layout)[None] * m
    w2 = _power_sum_weights(ksq, math.floor(r) + 3)
    cross_alpha = _weighted_cross(u, transport, w2, layout)

    energy = gamma * hr5_sq - cross_omega - cross_alpha

    grad_omega_sq = parseval_sum(weights_r5 * ksq * power_w, layout)
    u_sq = _norm(power_u, weights_r5, layout) ** 2
    transport_norm = _alpha_transport_norm(power_m, layout, p, r + 3.0)
    dissipation = ((gamma - 1.0) * p.eta * grad_omega_sq
                   + 0.5 * c0_weight * (u_sq + transport_norm ** 2))
    return energy, dissipation, transport_norm


# ---------------------------------------------------------------------------
# field-level wrappers (full spectrum)
# ---------------------------------------------------------------------------

def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm of a scalar or vector field."""
    layout = f.grid.full
    weights = sobolev_weights(layout, s)
    require_finite(f, "sobolev_norm")
    return _norm(power_spectrum(f.coeffs), weights, layout)


def triple_sobolev_norm(state: State, s: float) -> float:
    """Norm of the (u, omega, magnetic) triple: sqrt of the sum of squares."""
    return math.sqrt(sum(sobolev_norm(f, s) ** 2
                         for f in (state.u, state.omega, state.magnetic)))


def l2_energy(state: State) -> float:
    """Half the squared L2 norm of the solution triple."""
    return 0.5 * triple_sobolev_norm(state, 0.0) ** 2


def curl_energy_functional(state: State, weight_a: float = WEIGHT_A) -> float:
    """Damped curl-energy functional: A times the squared homogeneous H^2
    norm (weights |k|^4) of (curl u, curl omega, curl magnetic) minus the
    second-derivative pairing of omega with curl u.  Coercive above the
    curl energy once A is large enough."""
    return _curl_energy(state.u.coeffs, state.omega.coeffs,
                        state.magnetic.coeffs, state.grid.full, weight_a)


def alpha_transport_norm(state: State, p: PhysParams, s: float) -> float:
    """H^s norm of (alpha . grad) applied to the magnetic unknown."""
    return _alpha_transport_norm(power_spectrum(state.magnetic.coeffs),
                                 state.grid.full, p, s)


def perturbation_energy_functionals(state: State, p: PhysParams,
                                    gamma: float = GAMMA,
                                    c0_weight: float = C0_WEIGHT
                                    ) -> tuple[float, float]:
    """The modified energy E and dissipation functional D monitored on
    perturbation runs.

    E subtracts from gamma times the squared H^(r+5) norm the derivative
    pairings of omega with curl u (orders 0..floor(r)+4) and of u with the
    background transport of the magnetic unknown (orders 0..floor(r)+3).
    D collects the surviving dissipation: (gamma-1) eta ||grad omega||^2 in
    H^(r+5) plus c0/2 times the enhanced-dissipation terms.
    """
    if state.variant is not SystemVariant.PERTURBATION:
        raise ValueError("E/D functionals are defined for the perturbation "
                         f"variant, state is {state.variant.value!r}")
    fields = (state.u, state.omega, state.magnetic)
    for f in fields:
        require_finite(f, "perturbation_energy_functionals")
    arrays = tuple(f.coeffs for f in fields)
    energy, dissipation, _ = _perturbation_functionals(
        arrays, tuple(power_spectrum(c) for c in arrays), state.grid.full,
        p, gamma, c0_weight)
    return energy, dissipation


# ---------------------------------------------------------------------------
# diagnostics record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of the monitored norms, functionals and residuals.
    Field order defines the CSV column order; None means "not monitored"."""

    t: float
    l2_energy: float
    h3: float | None = None
    hN: float | None = None
    hr5: float | None = None
    F_func: float | None = None
    E_func: float | None = None
    D_func: float | None = None
    alpha_grad_B_hr3: float | None = None
    div_u_max: float | None = None
    div_b_max: float | None = None
    cancel_max: float | None = None


RECORD_COLUMNS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


@dataclass(frozen=True)
class DiagnosticsSettings:
    """Which optional norm columns to monitor per sample.

    ``include_h3`` enables the h3 column and ``hn_index`` the hN column (the
    high-regularity norm of perturbation runs).  ``include_hr5=None``
    resolves to "perturbation runs only".  Every record also evaluates the
    functionals with the fixed weights `WEIGHT_A`, `GAMMA` and `C0_WEIGHT`
    and runs the energy-flux audit, the dominant per-record cost.
    """

    include_h3: bool = True
    hn_index: float | None = None
    include_hr5: bool | None = None


def compute_record(state: State, p: PhysParams,
                   settings: DiagnosticsSettings | None = None,
                   engine: StepEngine | None = None) -> DiagnosticsRecord:
    """One diagnostics sample of ``state``, read from its band arrays.

    Each field's power spectrum is formed once, and every norm, functional
    and divergence residual is a band sum with the layout's multiplicity.
    The entries equal the full-spectrum field-level functions of the
    state's fields up to the summation order, and the divergence residuals
    bit for bit.  The energy-flux audit reads the same band arrays and runs
    on ``engine`` (see `energy_flux_audit`); through it, a ``p`` that sets
    a coefficient the state's variant forces to zero is refused.
    """
    s = settings or DiagnosticsSettings()
    perturbation = state.variant is SystemVariant.PERTURBATION
    include_hr5 = perturbation if s.include_hr5 is None else s.include_hr5
    audit = energy_flux_audit(state, p, state.variant, engine=engine)

    band = state.grid.band
    arrays = state.arrays
    powers = tuple(power_spectrum(c) for c in arrays)

    def triple(index: float) -> float:
        return _triple_norm(powers, sobolev_weights(band, index), band)

    h3 = triple(3.0) if s.include_h3 else None
    hn = triple(s.hn_index) if s.hn_index is not None else None
    hr5 = triple(p.r + 5.0) if include_hr5 else None
    f_func = _curl_energy(*arrays, band, WEIGHT_A)

    e_func = d_func = transport = None
    if perturbation:
        e_func, d_func, transport = _perturbation_functionals(
            arrays, powers, band, p, GAMMA, C0_WEIGHT)

    record = DiagnosticsRecord(
        t=state.t,
        l2_energy=0.5 * triple(0.0) ** 2,
        h3=h3,
        hN=hn,
        hr5=hr5,
        F_func=f_func,
        E_func=e_func,
        D_func=d_func,
        alpha_grad_B_hr3=transport,
        div_u_max=divergence_residual_coeffs(arrays[0], band),
        div_b_max=divergence_residual_coeffs(arrays[2], band),
        cancel_max=audit.max_relative_cancellation,
    )
    for name in RECORD_COLUMNS:
        value = getattr(record, name)
        if value is not None and not math.isfinite(value):
            raise IntegrityError(f"non-finite diagnostics entry {name}")
    return record


# ---------------------------------------------------------------------------
# decay-rate regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """Least-squares decay fit.  For the exponential model the series is
    modelled as amplitude * exp(-rate * t) (positive rate = decay); for the
    algebraic model as amplitude * (1 + t)^exponent (negative = decay)."""

    model: str
    amplitude: float
    r_squared: float
    n_samples: int
    t_min: float
    rate: float | None = None
    exponent: float | None = None


def fit_decay(times, values, model: str, t_min: float = 0.0) -> FitReport:
    """Fit a decay law to (t, y) samples with t >= t_min.

    Refuses a NaN t_min.  Requires at least 10 retained samples, all
    positive: log y is regressed on t (exponential) or on log(1 + t)
    (algebraic).
    """
    if model not in ("exponential", "algebraic"):
        raise ValueError(f"unknown decay model {model!r}")
    if math.isnan(t_min):
        raise ValueError("t_min is NaN, which no sample time reaches")
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be matching 1-D arrays")
    keep = t >= t_min
    t, y = t[keep], y[keep]
    if t.size < 10:
        raise ValueError(f"need at least 10 samples with t >= {t_min}, "
                         f"got {t.size}")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("decay fit requires strictly positive finite values")

    x = t if model == "exponential" else np.log1p(t)
    log_y = np.log(y)
    slope, intercept = np.polyfit(x, log_y, 1)
    residuals = log_y - (slope * x + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot

    common = dict(amplitude=float(np.exp(intercept)), r_squared=r_squared,
                  n_samples=int(t.size), t_min=t_min)
    if model == "exponential":
        return FitReport(model=model, rate=float(-slope), **common)
    return FitReport(model=model, exponent=float(slope), **common)
