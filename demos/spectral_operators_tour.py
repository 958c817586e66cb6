"""Tour of the spectral layer: transforms, exact differential operators,
the Leray projection, and 2/3-rule dealiasing.

Run with:  python3 demos/spectral_operators_tour.py
"""

import numpy as np

from mmpsim import (
    GridSpec,
    curl,
    dealias,
    divergence,
    divergence_residual,
    forward_transform,
    gradient,
    inner_product,
    inverse_transform,
    laplacian,
    leray_project,
)

grid = GridSpec(32)
print(f"grid: {grid.n}^3 points on [0, 2pi)^3, "
      f"dealias cutoff |k_i| <= {grid.kmax_dealias}")

# --- single-mode sanity: cos(x1) lives at k = (+-1, 0, 0) ------------------
x1, x2, x3 = grid.physical_coords()
f = forward_transform(np.ascontiguousarray(
    np.broadcast_to(np.cos(x1), (grid.n,) * 3)), grid)
print(f"\ncos(x1): coeff(+1,0,0) = {f.coeff(1, 0, 0):.3f}, "
      f"coeff(-1,0,0) = {f.coeff(-1, 0, 0):.3f}")

# --- exact operators --------------------------------------------------------
lap = laplacian(f)
print(f"laplacian multiplies the k=(1,0,0) mode by "
      f"{(lap.coeff(1, 0, 0) / f.coeff(1, 0, 0)).real:.1f}  (expected -1)")

rng = np.random.default_rng(7)
v = forward_transform(rng.standard_normal((3,) + (grid.n,) * 3), grid)
v = dealias(v)
div_curl = np.abs(divergence(curl(v)).coeffs).max()
print(f"max |div(curl v)| on a random field: {div_curl:.2e}")

# --- Parseval ---------------------------------------------------------------
phys = inverse_transform(v)
quadrature = (2 * np.pi / grid.n) ** 3 * np.sum(phys ** 2)
print(f"\nParseval: physical quadrature {quadrature:.10f} vs "
      f"spectral sum {inner_product(v, v):.10f}")

# --- Leray projection -------------------------------------------------------
before = divergence_residual(v)
projected = leray_project(v)
print(f"\ndivergence residual: {before:.2e} before projection, "
      f"{divergence_residual(projected):.2e} after")
again = leray_project(projected)
drift = np.abs(again.coeffs - projected.coeffs).max()
print(f"projection idempotence drift: {drift:.2e}")

# gradient fields are annihilated
grad_field = gradient(f)
print(f"Leray kills a pure gradient: max |P grad f| = "
      f"{np.abs(leray_project(grad_field).coeffs).max():.2e}")

# --- dealiasing -------------------------------------------------------------
masked = dealias(v)
high = np.abs(masked.coeffs[:, grid.kmax_dealias + 1, :, :]).max()
print(f"\nafter dealias, modes with k1 = {grid.kmax_dealias + 1} carry "
      f"{high:.1f} energy")
