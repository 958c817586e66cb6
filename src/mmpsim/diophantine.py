"""Diophantine condition checks for candidate background vectors and an
empirical probe of the norm-lifting inequality.

A vector alpha is Diophantine with exponent r when |alpha.k| >= c/|k|^r for
every nonzero integer lattice vector k; the transport operator alpha.grad
then controls full Sobolev norms at the cost of r derivatives.  On a finite
grid only a truncated lattice can be scanned, so every report carries its
search radius: a truncated constant must not be mistaken for the
infinite-lattice one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .norms import sobolev_norm
from .spectral import (
    GridSpec,
    alpha_dot_grad,
    alpha_dot_k,
    dealias,
    forward_transform,
    sobolev_weights,
    zero_mean,
)

DEGENERACY_THRESHOLD = 1e-14
MAX_SEARCH_RADIUS = 512


@dataclass(frozen=True)
class DiophantineReport:
    """Exhaustive-scan result: c_est = min |alpha.k| |k|^r over the searched
    half-lattice, the achieving lattice vector, and the degeneracy flag set
    when an exact resonance |alpha.k| < 1e-14 was found."""

    alpha: tuple[float, float, float]
    r: float
    k_max: int
    c_est: float
    argmin_k: tuple[int, int, int]
    degenerate: bool


def check_diophantine(alpha, r: float, k_max: int) -> DiophantineReport:
    """Scan 0 < |k|_inf <= k_max (half lattice, by the symmetry
    |alpha.(-k)| = |alpha.k|) for the worst Diophantine product.  Refuses
    (ValueError) an alpha or r that is not finite, or whose alpha.k or
    |alpha.k| |k|^r overflows somewhere on the scanned lattice."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ValueError("alpha must be a finite 3-vector")
    if not (1 <= k_max <= MAX_SEARCH_RADIUS):
        raise ValueError(f"k_max must lie in [1, {MAX_SEARCH_RADIUS}]")
    if not math.isfinite(r):
        raise ValueError(f"Diophantine exponent r must be finite, got {r}")
    try:  # the scan's largest weight |k|^r, at |k|^2 = 3 k_max^2
        weight = math.pow(3.0 * k_max * k_max, 0.5 * r)
    except OverflowError:
        raise ValueError(f"Diophantine exponent r={r} overflows the weight "
                         f"|k|^r on the lattice |k|_inf <= {k_max}") from None
    alpha_out = tuple(float(x) for x in a)
    # the scan's largest |alpha.k|, k_max sum |alpha_i|, and largest product
    # |alpha.k| |k|^r are both taken at a corner k_max (+-1, +-1, +-1)
    largest_dot = k_max * sum(abs(x) for x in alpha_out)
    if not math.isfinite(largest_dot * max(weight, 1.0)):
        raise ValueError(f"alpha={alpha_out} overflows alpha.k |k|^r on the "
                         f"lattice |k|_inf <= {k_max} (r={r})")
    if r <= 2.0:
        warnings.warn(f"Diophantine exponent r={r} <= 2: the lifting "
                      "inequality holds for almost no such vector")

    if np.all(a == 0.0):
        return DiophantineReport(alpha_out, r, k_max, 0.0, (0, 0, 1), True)

    axis = np.arange(-k_max, k_max + 1)
    k2g, k3g = np.meshgrid(axis, axis, indexing="ij")
    best_product = math.inf
    best_k = (0, 0, 1)
    best_resonance = math.inf

    for k1 in range(0, k_max + 1):
        if k1 == 0:
            half = (k2g > 0) | ((k2g == 0) & (k3g > 0))
        else:
            half = np.ones_like(k2g, dtype=bool)
        k2 = k2g[half]
        k3 = k3g[half]
        dot = np.abs(a[0] * k1 + a[1] * k2 + a[2] * k3)
        ksq = float(k1 * k1) + k2 * k2 + k3 * k3
        product = dot * ksq ** (0.5 * r)
        i = int(np.argmin(product))
        if product[i] < best_product:
            best_product = float(product[i])
            best_k = (k1, int(k2[i]), int(k3[i]))
        j = int(np.argmin(dot))
        if dot[j] < best_resonance:
            best_resonance = float(dot[j])
            if dot[j] < DEGENERACY_THRESHOLD:
                best_k = (k1, int(k2[j]), int(k3[j]))

    degenerate = best_resonance < DEGENERACY_THRESHOLD
    c_est = 0.0 if degenerate else best_product
    return DiophantineReport(alpha_out, r, k_max, c_est, best_k, degenerate)


@dataclass(frozen=True)
class LiftingRatioReport:
    """Observed and sharp ratios ||f||_{H^s} / ||alpha.grad f||_{H^(s+r)} on
    the truncated lattice of a given grid.

    ``mode_bound`` is the closed-form per-mode maximum
    1 / (|alpha.k| (1+|k|^2)^(r/2)) over retained modes: no band-limited
    field can exceed it.
    """

    alpha: tuple[float, float, float]
    s: float
    r: float
    k_max: int
    trials: int
    max_ratio: float
    mean_ratio: float
    mode_bound: float
    bound_mode: tuple[int, int, int]


def lifting_ratio(alpha, s: float, r: float, grid: GridSpec, trials: int,
                  seed: int) -> LiftingRatioReport:
    """Measure the lifting ratio on random mean-zero band-limited scalar
    fields and compare with the sharp per-mode constant.  Refuses
    (ValueError) trials < 1 and a grid whose retained lattice is wider than
    `MAX_SEARCH_RADIUS`, both before the lattice scan."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if grid.kmax_dealias > MAX_SEARCH_RADIUS:
        raise ValueError(
            f"grid size n={grid.n} retains |k|_inf <= {grid.kmax_dealias}, "
            f"beyond the lattice search radius {MAX_SEARCH_RADIUS}; the "
            f"largest accepted n is {3 * MAX_SEARCH_RADIUS + 2}")
    a = np.asarray(alpha, dtype=np.float64)
    check = check_diophantine(a, r, grid.kmax_dealias)
    if check.degenerate:
        raise ValueError(
            f"alpha={check.alpha} is resonant on the truncated lattice: "
            f"alpha.k vanishes at k={check.argmin_k}")

    dot = np.abs(alpha_dot_k(a, grid.full))
    weight = sobolev_weights(grid.full, 0.5 * r)
    retained = grid.dealias_mask.copy()
    retained[0, 0, 0] = False
    with np.errstate(divide="ignore"):
        per_mode = np.where(retained, 1.0 / (dot * weight), 0.0)
    flat = int(np.argmax(per_mode))
    idx = np.unravel_index(flat, per_mode.shape)
    k_axis = grid.k_axis
    bound_mode = tuple(int(k_axis[i]) for i in idx)
    mode_bound = float(per_mode[idx])

    rng = np.random.Generator(np.random.Philox(seed))
    ratios = []
    for _ in range(trials):
        phys = rng.standard_normal((grid.n,) * 3)
        f = zero_mean(dealias(forward_transform(phys, grid)))
        transported = alpha_dot_grad(f, a)
        ratios.append(sobolev_norm(f, s)
                      / sobolev_norm(transported, s + r))
    ratios = np.asarray(ratios)
    return LiftingRatioReport(
        alpha=tuple(float(x) for x in a), s=s, r=r,
        k_max=grid.kmax_dealias, trials=trials,
        max_ratio=float(ratios.max()), mean_ratio=float(ratios.mean()),
        mode_bound=mode_bound, bound_mode=bound_mode)
