"""Spectral Sobolev norms, auxiliary energy functionals, decay-rate
regression, and the per-sample diagnostics record.

All norms and inner products are evaluated in spectral space: with the
convention f = sum_k fhat(k) exp(i k.x),

    ||f||_{H^s}^2    = (2pi)^3 sum_k (1 + |k|^2)^s |fhat(k)|^2,
    ||f||_{Hdot^s}^2 = (2pi)^3 sum_{k != 0} |k|^{2s} |fhat(k)|^2.

Non-integer indices are supported directly through real-exponent weights.
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
    alpha_dot_grad,
    curl,
    divergence_residual,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3
INDEX_WINDOW = (-10.0, 40.0)


def _check_index(s: float) -> None:
    if not (INDEX_WINDOW[0] <= s <= INDEX_WINDOW[1]):
        raise ValueError(f"Sobolev index {s} outside sanity window {INDEX_WINDOW}")


def _weighted_sum_sq(f: Field, weights: np.ndarray) -> float:
    power = np.abs(f.coeffs) ** 2
    if power.ndim == 4:
        power = power.sum(axis=0)
    return float(TWO_PI_CUBED * np.sum(weights * power))


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """H^s norm of a scalar or vector field; the homogeneous variant uses
    |k|^(2s) weights and skips the k=0 mode."""
    _check_index(s)
    if not np.all(np.isfinite(f.coeffs)):
        raise IntegrityError("non-finite coefficients in sobolev_norm")
    ksq = f.grid.k_squared
    if homogeneous:
        weights = np.where(ksq > 0.0, ksq, 1.0) ** s
        weights[0, 0, 0] = 0.0
    else:
        weights = (1.0 + ksq) ** s
    return math.sqrt(max(_weighted_sum_sq(f, weights), 0.0))


def triple_sobolev_norm(state: State, s: float, homogeneous: bool = False) -> float:
    """Norm of the (u, omega, magnetic) triple: sqrt of the sum of squares."""
    return math.sqrt(sum(sobolev_norm(f, s, homogeneous) ** 2
                         for f in (state.u, state.omega, state.magnetic)))


def l2_energy(state: State) -> float:
    """Half the squared L2 norm of the solution triple."""
    return 0.5 * triple_sobolev_norm(state, 0.0) ** 2


# ---------------------------------------------------------------------------
# auxiliary energy functionals
# ---------------------------------------------------------------------------

def _weighted_cross(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """(2pi)^3 sum_k w(k) Re(conj(a).b), summed over components."""
    return float(TWO_PI_CUBED
                 * np.sum(weights * np.real(np.conj(a) * b).sum(axis=0)))


def curl_energy_functional(state: State, weight_a: float = 10.0) -> float:
    """Damped curl-energy functional: A times the squared Hdot^2 norm of
    (curl u, curl omega, curl magnetic) minus the second-derivative pairing
    of omega with curl u.  Coercive above the curl energy once A is large
    enough."""
    if weight_a < 1.0:
        raise ValueError("the functional weight must satisfy A >= 1")
    grid = state.grid
    w4 = grid.k_squared ** 2
    curl_u = curl(state.u).coeffs
    curl_w = curl(state.omega).coeffs
    curl_m = curl(state.magnetic).coeffs
    energy = sum(float(TWO_PI_CUBED * np.sum(w4 * np.abs(c) ** 2))
                 for c in (curl_u, curl_w, curl_m))
    cross = _weighted_cross(state.omega.coeffs, curl_u, w4)
    return weight_a * energy - cross


def _power_sum_weights(ksq: np.ndarray, top: int) -> np.ndarray:
    """sum_{j=0}^{top} |k|^(2j) evaluated per mode."""
    total = np.ones_like(ksq)
    term = np.ones_like(ksq)
    for _ in range(top):
        term = term * ksq
        total = total + term
    return total


def alpha_transport_norm(state: State, p: PhysParams, s: float) -> float:
    """H^s norm of (alpha . grad) applied to the magnetic unknown."""
    _check_index(s)
    grid = state.grid
    k1, k2, k3 = grid.k_vectors
    a = p.alpha_vector
    sym_sq = (a[0] * k1 + a[1] * k2 + a[2] * k3) ** 2
    weights = (1.0 + grid.k_squared) ** s * sym_sq
    return math.sqrt(max(_weighted_sum_sq(state.magnetic, weights), 0.0))


def perturbation_energy_functionals(state: State, p: PhysParams,
                                    gamma: float = 4.0,
                                    c0_weight: float = 1.0
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
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    grid = state.grid
    ksq = grid.k_squared
    r = p.r

    hr5_sq = triple_sobolev_norm(state, r + 5.0) ** 2

    w1 = _power_sum_weights(ksq, math.floor(r) + 4)
    cross_omega = _weighted_cross(state.omega.coeffs, curl(state.u).coeffs, w1)

    transport = alpha_dot_grad(state.magnetic, p.alpha_vector).coeffs
    w2 = _power_sum_weights(ksq, math.floor(r) + 3)
    cross_alpha = _weighted_cross(state.u.coeffs, transport, w2)

    energy = gamma * hr5_sq - cross_omega - cross_alpha

    grad_omega_sq = float(TWO_PI_CUBED * np.sum(
        (1.0 + ksq) ** (r + 5.0) * ksq
        * (np.abs(state.omega.coeffs) ** 2).sum(axis=0)))
    u_sq = sobolev_norm(state.u, r + 5.0) ** 2
    transport_sq = alpha_transport_norm(state, p, r + 3.0) ** 2
    dissipation = ((gamma - 1.0) * p.eta * grad_omega_sq
                   + 0.5 * c0_weight * (u_sq + transport_sq))
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
    """What to monitor per sample and with which functional weights.

    ``hn_index`` enables the hN column (the high-regularity norm of
    perturbation runs).  ``include_hr5=None`` resolves to "perturbation runs
    only".  The audit recomputes the energy-flux cancellations each sample
    and is the dominant per-record cost.
    """

    weight_a: float = 10.0
    gamma: float = 4.0
    c0_weight: float = 1.0
    include_h3: bool = True
    hn_index: float | None = None
    include_hr5: bool | None = None
    audit: bool = True


def compute_record(state: State, p: PhysParams,
                   settings: DiagnosticsSettings | None = None
                   ) -> DiagnosticsRecord:
    s = settings or DiagnosticsSettings()
    perturbation = state.variant is SystemVariant.PERTURBATION
    include_hr5 = perturbation if s.include_hr5 is None else s.include_hr5

    h3 = triple_sobolev_norm(state, 3.0) if s.include_h3 else None
    hn = triple_sobolev_norm(state, s.hn_index) if s.hn_index is not None else None
    hr5 = triple_sobolev_norm(state, p.r + 5.0) if include_hr5 else None
    f_func = curl_energy_functional(state, s.weight_a)

    e_func = d_func = transport = None
    if perturbation:
        e_func, d_func = perturbation_energy_functionals(state, p, s.gamma,
                                                         s.c0_weight)
        transport = alpha_transport_norm(state, p, p.r + 3.0)

    cancel = None
    if s.audit:
        cancel = energy_flux_audit(state, p, state.variant).max_relative_cancellation

    record = DiagnosticsRecord(
        t=state.t,
        l2_energy=l2_energy(state),
        h3=h3,
        hN=hn,
        hr5=hr5,
        F_func=f_func,
        E_func=e_func,
        D_func=d_func,
        alpha_grad_B_hr3=transport,
        div_u_max=divergence_residual(state.u),
        div_b_max=divergence_residual(state.magnetic),
        cancel_max=cancel,
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

    Requires at least 10 retained samples, all positive: log y is regressed
    on t (exponential) or on log(1 + t) (algebraic).
    """
    if model not in ("exponential", "algebraic"):
        raise ValueError(f"unknown decay model {model!r}")
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
