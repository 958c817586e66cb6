"""Right-hand-side evaluation for every system variant.

The tendency of each Fourier mode splits into a stiff diagonal part
(diffusion and damping symbols, treated exactly by the integrator) and an
explicit part (pseudo-spectral quadratic terms, the curl couplings, and the
background transport terms).  Pressure never appears: the velocity and
magnetic tendencies are Leray-projected.

The explicit part works on retained-band coefficients (see `spectral`), so
the 2/3 rule is structural: no mode outside the box is stored or computed.
It takes the quadratic terms in divergence form, on pruned real FFTs:

    velocity        -P div(u (x) u - b (x) b)   6 symmetric components
    micro-rotation  -div(u (x) omega)           9 components
    magnetic         curl(u x b)                3 components

For divergence-free fields these equal the advective forms -(u.grad)u +
(b.grad)b, -(u.grad)omega and -(u.grad)b + (b.grad)u, and the 2/3 rule makes
the dealiased products exact, so the rewrite changes results only at
roundoff.  One evaluation makes 9 inverse and 18 forward real transforms of
scalar fields, each three 1D passes over n^2 + n(kc+1) + (2kc+1)(kc+1)
lines (kc = n//3).  Each transform, with the product it transforms, is
one task of `spectral.run_tasks`, which spreads them over two threads on
grids from n = `spectral.SPLIT_MIN_N` up; every thread forms its products
in two grid buffers of its own (see `_quadratic_terms`).  The energy-flux
audit splits its 33 inverse and 15 forward transforms the same way; its
cancellation pairings then run on the calling thread.  Threaded and
single-thread results are equal bit for bit.

The stiff symbol of the micro-rotation field is diagonal only after
splitting each mode into components parallel and perpendicular to k: the
parallel part sees (eta + kappa)|k|^2 + 4 chi, the perpendicular part
eta|k|^2 + 4 chi (`_omega_split`).  `rhs` returns the full tendency,
explicit plus stiff, on the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    BandState,
    PhysParams,
    State,
    SystemVariant,
    as_band,
    structural_violations,
)
from .spectral import (
    TWO_PI_CUBED,
    GridSpec,
    SpectralLayout,
    SpectralVectorField,
    alpha_symbol,
    band_part,
    curl_coeffs,
    expand_band,
    grad_div_coeffs,
    k_dot,
    parallel_part,
    parseval_sum,
    power_spectrum,
    project_coeffs,
    run_tasks,
)

# The 6 stored components (i, j), i <= j, of a symmetric tensor, and for
# each row i the stored index of component (i, j), j = 0, 1, 2.
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


# ---------------------------------------------------------------------------
# stiff symbols and their exact propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StiffSymbols:
    """Non-negative per-mode damping rates of the diagonal linear part, on
    one coefficient layout (`stiff_symbols` gives the full one)."""

    u: np.ndarray
    omega_perp: np.ndarray
    omega_par: np.ndarray
    magnetic: np.ndarray
    layout: SpectralLayout
    _step_propagators: dict = field(default_factory=dict, init=False,
                                    repr=False)

    def propagator(self, dt: float) -> "StiffPropagator":
        return StiffPropagator(
            np.exp(-dt * self.u),
            np.exp(-dt * self.omega_perp),
            np.exp(-dt * self.omega_par),
            np.exp(-dt * self.magnetic),
            self.layout,
        )

    def step_propagators(self, dt: float
                         ) -> tuple["StiffPropagator", "StiffPropagator"]:
        """The propagators over dt/2 and dt of one IF-RK4 step.  The pair of
        the last dt is kept: a run at constant dt builds it once."""
        cache = self._step_propagators
        if dt not in cache:
            cache.clear()
            cache[dt] = (self.propagator(0.5 * dt), self.propagator(dt))
        return cache[dt]

    @property
    def band(self) -> "StiffSymbols":
        """The same symbols on the retained-band layout: these symbols if
        they are on it, else their band part, gathered once."""
        if self.layout is self.layout.grid.band:
            return self
        return self._band_part

    @cached_property
    def _band_part(self) -> "StiffSymbols":
        grid = self.layout.grid
        return StiffSymbols(
            *(band_part(a, grid) for a in (self.u, self.omega_perp,
                                           self.omega_par, self.magnetic)),
            grid.band)

    def apply_rhs(self, u: np.ndarray, w: np.ndarray,
                  m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tendency contribution of the stiff part: -symbol * field."""
        return (-self.u[None] * u,
                -_omega_split(self.omega_perp, self.omega_par, w,
                              self.layout),
                -self.magnetic[None] * m)


@dataclass(frozen=True, eq=False)
class StiffPropagator:
    """exp(-symbol * dt) applied per mode, with the parallel/perpendicular
    split of the micro-rotation field."""

    exp_u: np.ndarray
    exp_omega_perp: np.ndarray
    exp_omega_par: np.ndarray
    exp_magnetic: np.ndarray
    layout: SpectralLayout

    def apply(self, u: np.ndarray, w: np.ndarray,
              m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.exp_u[None] * u,
                _omega_split(self.exp_omega_perp, self.exp_omega_par, w,
                             self.layout),
                self.exp_magnetic[None] * m)


def _omega_split(perp: np.ndarray, par: np.ndarray, w: np.ndarray,
                 layout: SpectralLayout) -> np.ndarray:
    """perp w + (par - perp) w_par: the per-mode factor perp on the part of
    w perpendicular to k, par on the part parallel to it."""
    w_par = parallel_part(w, layout)
    return perp[None] * w + (par - perp)[None] * w_par


def stiff_symbols(grid: GridSpec, p: PhysParams,
                  variant: SystemVariant) -> StiffSymbols:
    ksq = grid.k_squared
    chi = p.coupling_chi(variant)
    return StiffSymbols(
        u=p.u_diffusion(variant) * ksq,
        omega_perp=p.eta * ksq + 4.0 * chi,
        omega_par=(p.eta + p.kappa) * ksq + 4.0 * chi,
        magnetic=p.magnetic_diffusion(variant) * ksq,
        layout=grid.full,
    )


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def _grid_tasks(arrays, outs) -> list:
    """`run_tasks` tasks that write `to_physical` of each band vector field
    of ``arrays`` into the matching grid array of ``outs``, one task per
    component."""
    def component(c, out):
        return lambda ws: ws.to_physical(c, out)
    return [component(c[i], out[i]) for c, out in zip(arrays, outs)
            for i in range(3)]


def _advect_band(velocities, terms, grid: GridSpec) -> list[list[np.ndarray]]:
    """(v.grad)f on the retained band, in advective form, for each
    (f_band, indices) of ``terms`` and each band velocity
    ``velocities[i]``, i in indices: one list per term, one band array per
    index.  The velocities are transformed to the grid once, then one task
    per component of each f transforms that component's gradient once and
    shares it among the velocities."""
    symbols = [1j * k for k in grid.band.k_vectors]
    # the results first, then the grid values and workspaces, which are
    # freed in the reverse order
    outs = [[np.empty_like(f_band) for _ in indices]
            for f_band, indices in terms]
    phys = [np.empty((3,) + (grid.n,) * 3) for _ in velocities]

    def component(f, term_velocities, term_outs):
        def task(ws):
            grad, df, (p, q) = ws.band_fields, ws.fields[:3], ws.fields[3:]
            for j in range(3):
                np.multiply(symbols[j], f, out=grad[j])
                ws.to_physical(grad[j], df[j])
            for v, out in zip(term_velocities, term_outs):
                np.multiply(v[0], df[0], out=p)
                np.multiply(v[1], df[1], out=q)
                np.add(p, q, out=p)
                np.multiply(v[2], df[2], out=q)
                np.add(p, q, out=p)
                ws.to_spectral(p, out)
        return task
    run_tasks([_grid_tasks(velocities, phys),
               [component(f_band[i], [phys[k] for k in indices],
                          [out[i] for out in term_outs])
                for (f_band, indices), term_outs in zip(terms, outs)
                for i in range(3)]],
              grid, fields=5, band_fields=3)
    return outs


def advect(v: SpectralVectorField, f: SpectralVectorField) -> SpectralVectorField:
    """(v.grad)f of two real fields, pseudo-spectral in advective form with
    2/3 dealiasing of the product.  Reads only the retained box of v and f:
    content outside it is dropped.  The time step takes this term in
    divergence form; this form is kept as its independent oracle."""
    if v.grid.n != f.grid.n:
        raise ValueError("advect requires fields on a shared grid")
    grid = f.grid
    ((out,),) = _advect_band([band_part(v.coeffs, grid)],
                             [(band_part(f.coeffs, grid), (0,))], grid)
    return SpectralVectorField(expand_band(out, grid), grid)


def _check_variant_consistency(p: PhysParams, variant: SystemVariant) -> None:
    structural = structural_violations(p, variant)
    if structural:
        raise ValueError("; ".join(structural))


def _product_task(out: np.ndarray, a, b, c=None, d=None):
    """A `run_tasks` task that forms the grid product a b, or a b - c d, in
    its workspace's two grid buffers and transforms it into ``out``."""
    def task(ws):
        p, q = ws.fields
        np.multiply(a, b, out=p)
        if c is not None:
            np.multiply(c, d, out=q)
            np.subtract(p, q, out=p)
        ws.to_spectral(p, out)
    return task


def _quadratic_terms(u_hat: np.ndarray, w_hat: np.ndarray, m_hat: np.ndarray,
                     grid: GridSpec
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-div(u(x)u - b(x)b), -div(u(x)omega) and curl(u x b) on retained-band
    coefficients; the band transforms make them dealiased.

    One `run_tasks` call in two phases: 9 tasks each transform one
    component of u, omega or b to the grid; then 18 tasks each form one
    product (the 6 stress components u_i u_j - b_i b_j, the 9 flux rows
    u_j omega_i, the 3 emf components) in their thread's two grid buffers
    and transform it into its slice of one band array.  The working set is
    the grid values of u, omega and b, the 18 band products, and per
    thread two grid buffers and one transform workspace.  Each 1D line and
    each product is the one a whole-stack evaluation would compute."""
    band = grid.band
    # the products first, then the grid values and workspaces, which are
    # freed in the reverse order
    products = np.empty((18,) + u_hat.shape[1:], dtype=np.complex128)
    stress, flux, emf = products[:6], products[6:15], products[15:]
    u, w, b = phys = [np.empty((3,) + (grid.n,) * 3) for _ in range(3)]
    # flux[3 j + i] = u_j omega_i, so k . flux sums over j
    factors = ([(u[i], u[j], b[i], b[j]) for i, j in _SYM_PAIRS]
               + [(u[j], w[i]) for j in range(3) for i in range(3)]
               + [(u[i], b[j], u[j], b[i])
                  for i, j in ((1, 2), (2, 0), (0, 1))])
    run_tasks([_grid_tasks((u_hat, w_hat, m_hat), phys),
               [_product_task(out, *f) for out, f in zip(products, factors)]],
              grid, fields=2)
    del u, w, b, phys, factors
    div_stress = np.stack([k_dot(stress[list(row)], band) for row in _SYM_ROWS])
    return (-1j * div_stress, -1j * k_dot(flux.reshape((3,) + w_hat.shape),
                                          band),
            curl_coeffs(emf, band))


def explicit_rhs_arrays(u_hat: np.ndarray, w_hat: np.ndarray, m_hat: np.ndarray,
                        grid: GridSpec, p: PhysParams, variant: SystemVariant,
                        linearized: bool = False
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit (non-stiff) tendency of the selected variant on retained-band
    coefficient arrays (3, 2kc+1, 2kc+1, kc+1).  ``linearized=True`` drops
    the quadratic terms."""
    band = grid.band
    chi = p.coupling_chi(variant)
    two_chi = 2.0 * chi

    du = two_chi * curl_coeffs(w_hat, band)
    dw = two_chi * curl_coeffs(u_hat, band)
    dm = np.zeros_like(m_hat)

    if variant.uses_background:
        sym = alpha_symbol(p.alpha_vector, band)
        du = du + sym[None] * m_hat
        dm = dm + sym[None] * u_hat

    if not linearized:
        nu, nw, nm = _quadratic_terms(u_hat, w_hat, m_hat, grid)
        du = du + nu
        dw = dw + nw
        dm = dm + nm

    du = project_coeffs(du, band)
    dm = project_coeffs(dm, band)
    dw[:, 0, 0, 0] = 0.0
    return du, dw, dm


def rhs(state: State, p: PhysParams, variant: SystemVariant,
        linearized: bool = False
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-spectrum tendency (du, domega, dmagnetic) of the selected
    variant at the given state: the explicit part, expanded from the
    retained band, plus the stiff part -symbol * field.

    The explicit part reads only the retained 2/3-rule box of the state:
    content outside it is dropped, as `run` does on entry.  Rejects
    coefficient sets that contradict the variant structure (e.g. a nonzero
    magnetic diffusivity supplied to the ideal variant) and a state tagged
    with a different variant.
    """
    if state.variant is not variant:
        raise ValueError(f"state is tagged {state.variant.value!r}, "
                         f"rhs was asked for {variant.value!r}")
    _check_variant_consistency(p, variant)
    grid = state.grid
    explicit = explicit_rhs_arrays(
        *(band_part(f.coeffs, grid) for f in (state.u, state.omega,
                                              state.magnetic)),
        grid, p, variant, linearized=linearized)
    stiff = stiff_symbols(grid, p, variant).apply_rhs(
        state.u.coeffs, state.omega.coeffs, state.magnetic.coeffs)
    return tuple(expand_band(e, grid) + s for e, s in zip(explicit, stiff))


# ---------------------------------------------------------------------------
# discrete energy-flux audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyFluxAudit:
    """Discrete counterparts of the inner products whose cancellation makes
    the L2 energy identity hold.  Every ``*_cancellation`` entry must vanish;
    ``coupling_transfer`` and ``dissipation`` are the surviving terms."""

    advection_u: float
    advection_omega: float
    advection_magnetic: float
    lorentz_cancellation: float
    alpha_cancellation: float | None
    curl_graddiv_omega: float
    coupling_transfer: float
    dissipation: float
    l2_energy_sq: float

    @property
    def max_relative_cancellation(self) -> float:
        entries = [self.advection_u, self.advection_omega,
                   self.advection_magnetic, self.lorentz_cancellation,
                   self.curl_graddiv_omega]
        if self.alpha_cancellation is not None:
            entries.append(self.alpha_cancellation)
        worst = max(abs(e) for e in entries)
        if self.l2_energy_sq == 0.0:
            return 0.0 if worst == 0.0 else np.inf
        return worst / self.l2_energy_sq

    @property
    def consistent(self) -> bool:
        return self.max_relative_cancellation <= 1e-10


def energy_flux_audit(state: State | BandState, p: PhysParams,
                      variant: SystemVariant) -> EnergyFluxAudit:
    """Evaluate the energy-identity inner products at `state`, a `State` or
    the `BandState` that `run` carries.

    Reads only the retained 2/3-rule box of the state, as `step` does:
    content outside it is dropped.  The advection terms are `advect`'s
    products on the box, with u and b transformed once and each
    component's gradient shared by the products that use it: 33 inverse
    and 15 forward scalar transforms, split over threads by `run_tasks`.
    Their grid values and scratch are freed before the six cancellation
    pairings, which run on the calling thread.  Each forms conj(a) b on
    the band, expands it once and sums it over n^3: entry for entry the
    product that the full-spectrum inner product of the expanded fields
    sums (the mirror entries k3 < 0 are conjugates, with the same real
    parts), in the same order, so on a dealiased state the pairings take
    the values of the full fields bit for bit.
    ``coupling_transfer``, ``dissipation`` and ``l2_energy_sq`` are band
    sums weighted by the band's multiplicity (`parseval_sum`), equal to
    their full-spectrum values on a dealiased real state up to the
    summation order."""
    grid = state.grid
    band = grid.band
    chi = p.coupling_chi(variant)

    u_band, w_band, m_band = as_band(state).arrays
    (u_grad_u, m_grad_u), (u_grad_w,), (u_grad_m, m_grad_m) = _advect_band(
        [u_band, m_band], [(u_band, (0, 1)), (w_band, (0,)),
                           (m_band, (0, 1))], grid)

    def pairing(a, b):
        # inner_product of the expansions of a and b: conj(a) b formed in
        # place in a, which no later line reads, then summed over n^3
        np.conjugate(a, out=a)
        np.multiply(a, b, out=a)
        return float(TWO_PI_CUBED * np.sum(expand_band(a, grid)).real)

    adv_w = pairing(u_grad_w, w_band)
    curl_gd = pairing(curl_coeffs(grad_div_coeffs(w_band, band), band),
                      curl_coeffs(w_band, band))
    adv_u = pairing(u_grad_u, u_band)
    adv_m = pairing(u_grad_m, m_band)
    lorentz = pairing(m_grad_m, u_band) + pairing(m_grad_u, m_band)

    alpha_pair = None
    if variant.uses_background:
        sym = alpha_symbol(p.alpha_vector, band)
        alpha_pair = (pairing(sym * m_band, u_band)
                      + pairing(sym * u_band, m_band))

    power_u, power_w, power_m = (power_spectrum(c)
                                 for c in (u_band, w_band, m_band))
    transfer = 4.0 * chi * parseval_sum(
        np.real(np.conj(curl_coeffs(u_band, band)) * w_band).sum(axis=0), band)
    ksq = band.k_squared
    dissipation = (p.u_diffusion(variant) * parseval_sum(ksq * power_u, band)
                   + p.eta * parseval_sum(ksq * power_w, band)
                   + p.kappa * parseval_sum(np.abs(k_dot(w_band, band)) ** 2,
                                            band)
                   + p.magnetic_diffusion(variant)
                   * parseval_sum(ksq * power_m, band)
                   + 4.0 * chi * parseval_sum(power_w, band))

    energy_sq = sum(parseval_sum(power, band)
                    for power in (power_u, power_w, power_m))
    return EnergyFluxAudit(
        advection_u=adv_u,
        advection_omega=adv_w,
        advection_magnetic=adv_m,
        lorentz_cancellation=lorentz,
        alpha_cancellation=alpha_pair,
        curl_graddiv_omega=curl_gd,
        coupling_transfer=transfer,
        dissipation=dissipation,
        l2_energy_sq=energy_sq,
    )
