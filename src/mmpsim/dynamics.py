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
lines (kc = n//3).  The transforms run as tasks of
`spectral.StepEngine.run`, which spreads them over two threads on grids
from n = `spectral.SPLIT_MIN_N` up, in two phases (see
`_quadratic_terms`): phase 1 transforms u and b to the grid; in phase 2
each micro-rotation component omega_i is one task that transforms it,
forms and transforms its 3 flux products and sums -1j k.flux_i into its
row of the tendency on its own thread, and each of the 9 stress and emf
products is one task.  Each product is formed one slab of x1-planes at a
time inside the forward transform it feeds
(`spectral.BandWorkspace.to_spectral`), in the thread's product slab, so
no product fills a grid buffer.  The stress is transformed into the
tendency's own arrays (`explicit_rhs_arrays` writes its result into a
given triple), and the grid values of u and b and of omega_i, the emf and
then the linear terms live in buffers of the engine's pool, which a run
keeps from evaluation to evaluation: 8 grid buffers, 2 product slabs and
1 band vector buffer on two threads, 7, 1 and 1 on one.
All band-level work after the transforms (the rows of k.stress, -1j and
curl(emf); 2 chi curl u; the linear terms and both projections) is one
stage of `spectral.StepEngine.run_rows`, one k1-row range per thread from
n = `spectral.ROW_SPLIT_MIN_N` up, with the symbol i(alpha.k) formed on
the calling thread before it.  The energy-flux audit splits
its 33 inverse and 15 forward transforms the same way, on the same pool;
it drops the pool's grid buffers before its cancellation pairings, which
run on the calling thread and expand into one n^3 buffer made for them.
Threaded and single-thread results are equal bit for bit, and so are
split and whole rows.

The stiff symbol of the micro-rotation field is diagonal only after
splitting each mode into components parallel and perpendicular to k: the
parallel part sees (eta + kappa)|k|^2 + 4 chi, the perpendicular part
eta|k|^2 + 4 chi (`_omega_split`).  `StiffPropagator` is the one per-mode
diagonal operator of this form: four factor arrays on one layout, applied
with the split (`StiffPropagator.apply`, or `_apply_rows` on a range of
rows, which the step's row tasks call on either thread since a span
recorder may wrap `apply`).  `StiffSymbols` is one whose factors are the
rates, and
adds only `StiffSymbols.propagator(dt)`, which forms the operator
exp(-dt * symbol) anew on each call.  The step forms its band symbols from
its parameters and variant, then two propagators, on every step (on a
2-core x86 host the symbols take 0.01-0.02, 0.01-0.03 and 0.4-0.6 ms at
16^3, 32^3 and 64^3, a propagator pair 0.03, 0.05-0.08 and 1.2-1.3 ms:
under 1% of a 64^3 step together, less below).  `rhs` returns the full
tendency, the explicit part minus symbol * field, on the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    PhysParams,
    State,
    SystemVariant,
    check_solver_arguments,
)
from .spectral import (
    TWO_PI_CUBED,
    GridSpec,
    SpectralLayout,
    SpectralVectorField,
    StepEngine,
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
    using_engine,
)

# The 6 stored components (i, j), i <= j, of a symmetric tensor, and for
# each row i the stored index of component (i, j), j = 0, 1, 2.
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_ROWS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


# ---------------------------------------------------------------------------
# stiff symbols and their exact propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StiffPropagator:
    """A per-mode diagonal operator on one coefficient layout, applied with
    the parallel/perpendicular split of the micro-rotation field: the
    factor ``u`` on the velocity, ``omega_perp`` and ``omega_par`` on the
    parts of omega perpendicular and parallel to k, ``magnetic`` on the
    magnetic field.  `StiffSymbols` holds the damping rates in this form,
    and their ``propagator(dt)`` the factors exp(-dt * rate)."""

    u: np.ndarray
    omega_perp: np.ndarray
    omega_par: np.ndarray
    magnetic: np.ndarray
    layout: SpectralLayout

    def apply(self, u: np.ndarray, w: np.ndarray, m: np.ndarray,
              out=None, scratch: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator applied to (u, w, m), written into the triple
        ``out`` if given (which may be the input itself), with the parallel
        part of w formed in ``scratch`` if given."""
        return self._apply_rows(self.layout, u, w, m,
                               (None,) * 3 if out is None else out, scratch)

    def _apply_rows(self, rows: SpectralLayout, u: np.ndarray, w: np.ndarray,
                   m: np.ndarray, out, scratch: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`apply` on the rows of ``rows``, the operator's layout or a
        `row_view` of it: u, w, m, the triple ``out`` and ``scratch`` hold
        those rows.  The step's row tasks call this on either thread, not
        `apply`, which a span recorder may wrap."""
        return (np.multiply(rows.part(self.u)[None], u, out=out[0]),
                _omega_split(rows.part(self.omega_perp),
                             rows.part(self.omega_par), w, rows, out=out[1],
                             scratch=scratch),
                np.multiply(rows.part(self.magnetic)[None], m, out=out[2]))


class StiffSymbols(StiffPropagator):
    """Non-negative per-mode damping rates of the diagonal linear part of a
    variant, on one coefficient layout (`stiff_symbols` gives the full
    one, `layout_stiff_symbols` any); `apply` gives symbol * field, the
    stiff tendency with its sign flipped."""

    def propagator(self, dt: float) -> StiffPropagator:
        """exp(-dt * symbol) per mode, each factor formed in place in one
        new array: the bytes of ``np.exp(-dt * a)`` with no temporary."""
        def factor(a):
            f = np.multiply(-dt, a)
            return np.exp(f, out=f)
        return StiffPropagator(factor(self.u), factor(self.omega_perp),
                               factor(self.omega_par), factor(self.magnetic),
                               self.layout)


def _omega_split(perp: np.ndarray, par: np.ndarray, w: np.ndarray,
                 layout: SpectralLayout, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """perp w + (par - perp) w_par: the per-mode factor perp on the part of
    w perpendicular to k, par on the part parallel to it; written into
    ``out`` if given (which may be w itself), with w_par formed in
    ``scratch`` if given."""
    w_par = parallel_part(w, layout, out=scratch)
    out = np.multiply(perp[None], w, out=out)
    np.multiply((par - perp)[None], w_par, out=w_par)
    return np.add(out, w_par, out=out)


def layout_stiff_symbols(layout: SpectralLayout, p: PhysParams,
                         variant: SystemVariant) -> StiffSymbols:
    """The stiff symbols on ``layout``, formed elementwise from its |k|^2:
    on the band, the band part of the full-layout ones bit for bit."""
    ksq = layout.k_squared
    chi = p.coupling_chi(variant)
    return StiffSymbols(
        u=p.u_diffusion(variant) * ksq,
        omega_perp=p.eta * ksq + 4.0 * chi,
        omega_par=(p.eta + p.kappa) * ksq + 4.0 * chi,
        magnetic=p.magnetic_diffusion(variant) * ksq,
        layout=layout,
    )


def stiff_symbols(grid: GridSpec, p: PhysParams,
                  variant: SystemVariant) -> StiffSymbols:
    """The stiff symbols on the full spectrum.  No solver call uses them:
    `step` and `rhs` form theirs on the band (`layout_stiff_symbols`)."""
    return layout_stiff_symbols(grid.full, p, variant)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def grid_tasks(arrays, outs) -> list:
    """`StepEngine.run` tasks that write `to_physical` of each band vector
    field of ``arrays`` into the matching triple of grid arrays of
    ``outs``, one task per component."""
    def component(c, out):
        return lambda ws: ws.to_physical(c, out)
    return [component(c[i], out[i]) for c, out in zip(arrays, outs)
            for i in range(3)]


def _advect_band(velocities, terms, grid: GridSpec,
                 engine: StepEngine) -> list[list[np.ndarray]]:
    """(v.grad)f on the retained band, in advective form, for each
    (f_band, indices) of ``terms`` and each band velocity
    ``velocities[i]``, i in indices: one list per term, one band buffer of
    ``engine``'s pool per index, in use until the caller's scope ends.  The
    velocities are transformed to the grid once, then one task per
    component of each f transforms that component's gradient once and
    shares it among the velocities."""
    symbols = [1j * k for k in grid.band.k_vectors]
    outs = [engine.band_buffers(len(indices)) for _, indices in terms]

    def component(f, term_velocities, term_outs):
        # (v.grad)f = (v_0 df_0 + v_1 df_1) + v_2 df_2 for each velocity v,
        # summed in p as each gradient component df_j reaches the grid
        def task(ws):
            grad, df = ws.band, ws.fields[0]
            sums = ws.fields[1:1 + len(term_velocities)]
            for j in range(3):
                np.multiply(symbols[j], f, out=grad)
                ws.to_physical(grad, df)
                for v, p in zip(term_velocities, sums):
                    if j == 0:
                        np.multiply(v[0], df, out=p)
                    else:
                        ws.add_product(p, v[j], df)
            for p, out in zip(sums, term_outs):
                ws.to_spectral(out, p)
        return task
    with engine.scope():
        buffers = engine.grid_buffers(3 * len(velocities))
        phys = [buffers[3 * k:3 * k + 3] for k in range(len(velocities))]
        engine.run([grid_tasks(velocities, phys),
                    [component(f_band[i], [phys[k] for k in indices],
                               [out[i] for out in term_outs])
                     for (f_band, indices), term_outs in zip(terms, outs)
                     for i in range(3)]],
                   fields=1 + max(len(indices) for _, indices in terms))
    return outs


def advect(v: SpectralVectorField, f: SpectralVectorField) -> SpectralVectorField:
    """(v.grad)f of two real fields, pseudo-spectral in advective form with
    2/3 dealiasing of the product.  Reads only the retained box of v and f:
    content outside it is dropped.  The time step takes this term in
    divergence form; this form is kept as its independent oracle."""
    if v.grid.n != f.grid.n:
        raise ValueError("advect requires fields on a shared grid")
    grid = f.grid
    with StepEngine(grid) as engine:
        ((out,),) = _advect_band([band_part(v.coeffs, grid)],
                                 [(band_part(f.coeffs, grid), (0,))], grid,
                                 engine)
        return SpectralVectorField(expand_band(out, grid), grid)


def _product_task(out: np.ndarray, *factors: np.ndarray):
    """A `StepEngine.run` task that transforms the grid product a b, or
    a b - c d, of ``factors`` into ``out``, formed slab by slab in its
    workspace's product slab (`BandWorkspace.to_spectral`)."""
    return lambda ws: ws.to_spectral(out, *factors)


def _flux_task(w_i: np.ndarray, u, k_vectors, out: np.ndarray):
    """A `StepEngine.run` task that writes -1j k.F(u omega_i) into ``out``:
    omega_i goes to its workspace's grid buffer, each product u_j omega_i
    is formed slab by slab and transformed into its band buffer, and k_j
    times it is summed into ``out`` in the order of `k_dot` (k_1 term,
    then k_2, then k_3).  ``k_vectors`` are the band's wavevectors as
    complex arrays: numpy multiplies a float k by complex values in a cast
    buffer, which a helper thread would take from its own malloc arena
    (0.8 MB more peak RSS on a nonlinear 32^3 run, 2-core x86 host); the
    complex k gives the same products."""
    def task(ws):
        (w,) = ws.fields
        flux = ws.band
        ws.to_physical(w_i, w)
        for j, k in enumerate(k_vectors):
            ws.to_spectral(flux, u[j], w)
            if j == 0:
                np.multiply(k, flux, out=out)
            else:
                np.add(out, np.multiply(k, flux, out=flux), out=out)
        np.multiply(-1j, out, out=out)
    return task


def _quadratic_terms(u_hat: np.ndarray, w_hat: np.ndarray, m_hat: np.ndarray,
                     grid: GridSpec, out, emf: np.ndarray,
                     engine: StepEngine) -> None:
    """The transforms of the quadratic terms, dealiased by the band
    transforms: -div(u(x)omega) = -1j k.F(u omega) written into ``out[1]``,
    the 6 stress components u_i u_j - b_i b_j into ``out`` itself (the
    diagonal in ``out[0]``, the off-diagonal 01, 02, 12 in ``out[2]``) and
    the 3 emf components of u x b into the band vector ``emf``, from which
    `explicit_rhs_arrays` forms -div(u(x)u - b(x)b) and curl(u x b).

    One `StepEngine.run` call in two phases.  Phase 1: 6 tasks each
    transform one component of u or b to the grid, into pool buffers.
    Phase 2: 3 flux tasks (`_flux_task`), one per component i of omega,
    each transform omega_i to its thread's grid buffer, form and
    transform the 3 products u_j omega_i, and sum -1j k.flux_i in
    ``out[1][i]``; then 9 tasks each transform one product into its
    place.  Every product is formed slab by slab in the thread's product
    slab.  Each 1D line and each product is the one a whole-stack
    evaluation would compute, and each flux row is formed from them by the
    operations of the stacked -1j k.flux."""
    k_vectors = [k.astype(np.complex128) for k in grid.band.k_vectors]
    du, dw, dm = out
    with engine.scope():
        u, b = phys = [engine.grid_buffers(3) for _ in range(2)]
        factors = ([(u[i], u[j], b[i], b[j]) for i, j in _SYM_PAIRS]
                   + [(u[i], b[j], u[j], b[i])
                      for i, j in ((1, 2), (2, 0), (0, 1))])
        engine.run([grid_tasks((u_hat, m_hat), phys),
                    [_flux_task(w_hat[i], u, k_vectors, dw[i])
                     for i in range(3)]
                    + [_product_task(c, *f) for c, f in
                       zip([*du, *dm, *emf], factors)]],
                   fields=1, product=True)


def _velocity_linear(w_hat: np.ndarray, m_hat: np.ndarray,
                     band: SpectralLayout, two_chi: float, sym, out,
                     scratch: np.ndarray) -> np.ndarray:
    """2 chi curl omega + i(alpha.k) b (the second term only if ``sym``, the
    symbol i(alpha.k), is given), written into the vector ``out``, with
    each subtrahend and product formed in the scalar ``scratch``."""
    np.multiply(two_chi, curl_coeffs(w_hat, band, out=out, scratch=scratch),
                out=out)
    if sym is not None:
        for o, m in zip(out, m_hat):
            np.add(o, np.multiply(sym, m, out=scratch), out=o)
    return out


def _magnetic_linear(u_hat: np.ndarray, sym, out) -> np.ndarray:
    """0 + i(alpha.k) u (0 if ``sym``, the symbol i(alpha.k), is None),
    written into the vector ``out``."""
    if sym is None:
        out.fill(0.0)
        return out
    # not a no-op: 0 + (-0.0) is +0.0
    return np.add(0.0, np.multiply(sym[None], u_hat, out=out), out=out)


def explicit_rhs_arrays(u_hat: np.ndarray, w_hat: np.ndarray, m_hat: np.ndarray,
                        grid: GridSpec, p: PhysParams, variant: SystemVariant,
                        linearized: bool = False,
                        engine: StepEngine | None = None, out=None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit (non-stiff) tendency of the selected variant on retained-band
    coefficient arrays (3, 2kc+1, 2kc+1, kc+1), written into the triple
    ``out`` (new arrays if None), which must not be the input.
    ``linearized=True`` drops the quadratic terms.  The sums are formed in
    ``out``, with scratch from ``engine``'s pool (a transient engine if
    None), by the operations of

        du = P(2 chi curl omega + i(alpha.k) b + q_u)
        dw = 2 chi curl u + q_omega                (k = 0 mode zeroed)
        dm = P(0 + i(alpha.k) u + q_b)

    with each term a new array, P the Leray projection and q the quadratic
    terms.  `_quadratic_terms` transforms the products: q_omega into dw,
    the stress into du and dm, the emf into one band buffer.  One band
    stage (`StepEngine.run_rows`) then forms -1j k.stress in du, row i over
    the stress component (0, i), which no later row reads; curl(emf) in
    dm; in the emf's buffer 2 chi curl u and the linear parts lin in
    parentheses, each added in; then both projections.  So each tendency
    is summed as q + lin, which has the bits of lin + q since IEEE
    addition commutes, signed zeros included.  The stage's scalar scratch
    is the calling thread's workspace band buffer, and i(alpha.k) is
    formed after the transforms, so it does not add to their working set.
    Without the quadratic terms the stage forms 2 chi curl u and the
    linear parts in dw, du and dm themselves."""
    two_chi = 2.0 * p.coupling_chi(variant)
    if out is None:
        out = tuple(np.empty_like(a) for a in (u_hat, w_hat, m_hat))
    du, dw, dm = out
    with using_engine(engine, grid) as engine, engine.scope():
        (buffer,) = engine.band_buffers(1)
        if not linearized:
            _quadratic_terms(u_hat, w_hat, m_hat, grid, out, buffer, engine)
        sym = (alpha_symbol(p.alpha_vector, grid.band)
               if variant.uses_background else None)
        band_scratch = engine.workspaces[0].band

        def stage(rows):
            part = rows.part
            u, w, m, d_u, d_w, d_m, lin, scratch = map(
                part, (u_hat, w_hat, m_hat, du, dw, dm, buffer, band_scratch))
            s = None if sym is None else part(sym)
            if linearized:
                np.multiply(two_chi, curl_coeffs(u, rows, out=d_w,
                                                 scratch=scratch), out=d_w)
                _velocity_linear(w, m, rows, two_chi, s, d_u, scratch)
                _magnetic_linear(u, s, d_m)
            else:
                stress = [*d_u, *d_m]
                sums = [k_dot([stress[r] for r in row], rows,
                              out=stress[row[0]], scratch=scratch)
                        for row in _SYM_ROWS]
                for d, row_sum in zip(d_u, sums):
                    np.multiply(-1j, row_sum, out=d)
                # the stress is read: dm takes curl(emf), then the emf's
                # buffer takes the linear terms
                curl_coeffs(lin, rows, out=d_m, scratch=scratch)
                np.multiply(two_chi, curl_coeffs(u, rows, out=lin,
                                                 scratch=scratch), out=lin)
                np.add(d_w, lin, out=d_w)
                np.add(d_u, _velocity_linear(w, m, rows, two_chi, s, lin,
                                             scratch), out=d_u)
                np.add(d_m, _magnetic_linear(u, s, lin), out=d_m)
            project_coeffs(d_u, rows, out=d_u, scratch=lin)
            project_coeffs(d_m, rows, out=d_m, scratch=lin)
        engine.run_rows(stage)
    dw[:, 0, 0, 0] = 0.0
    return out


def rhs(state: State, p: PhysParams, variant: SystemVariant,
        linearized: bool = False
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-spectrum tendency (du, domega, dmagnetic) of the selected
    variant at the given state: the explicit part minus the stiff part
    symbol * field (`StiffSymbols.apply`), both formed on the state's band,
    then expanded.

    Refuses what `check_solver_arguments` refuses: a state tagged with
    another variant, and coefficients the variant forces to zero (e.g. a
    nonzero magnetic diffusivity for the ideal variant).
    """
    check_solver_arguments(state, p, variant, "rhs")
    grid = state.grid
    explicit = explicit_rhs_arrays(*state.arrays, grid, p, variant,
                                   linearized=linearized)
    stiff = layout_stiff_symbols(grid.band, p, variant).apply(*state.arrays)
    return tuple(expand_band(np.subtract(e, s, out=e), grid)
                 for e, s in zip(explicit, stiff))


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


def energy_flux_audit(state: State, p: PhysParams, variant: SystemVariant,
                      engine: StepEngine | None = None) -> EnergyFluxAudit:
    """Evaluate the energy-identity inner products at `state`, on its band
    arrays, on ``engine`` (a transient one if None).

    The advection terms are `advect`'s products on the box, with u and b
    transformed once and each component's gradient shared by the products
    that use it: 33 inverse and 15 forward scalar transforms, split over
    threads by `StepEngine.run`, in buffers of the engine's pool.  The engine then
    drops its grid buffers and workspaces, whose memory the n^3 expansion
    buffer of the cancellation pairings, which run on the calling thread,
    can take instead of adding to the pool; a transient engine drops all
    of its pool but the five advected fields.  The buffer is made once,
    zeroed, for all the pairings (6, or 8 with the background field), and
    dropped before the band sums.  Each pairing forms conj(a) b on the
    band, writes only the box's blocks of its expansion into the buffer
    (outside the box it stays zero) and sums it over n^3: entry for entry the
    product that the full-spectrum inner product of the expanded fields
    sums (the mirror entries k3 < 0 are conjugates, with the same real
    parts), in the same order, so the pairings take the values of the
    state's full fields bit for bit.
    ``coupling_transfer``, ``dissipation`` and ``l2_energy_sq`` are band
    sums weighted by the band's multiplicity (`parseval_sum`), equal to
    their full-spectrum values up to the summation order.

    Refuses what `check_solver_arguments` refuses: a state tagged with
    another variant, and coefficients the variant forces to zero."""
    check_solver_arguments(state, p, variant, "energy_flux_audit")
    grid = state.grid
    band = grid.band
    chi = p.coupling_chi(variant)

    u_band, w_band, m_band = state.arrays
    with using_engine(engine, grid) as engine, engine.scope():
        (u_grad_u, m_grad_u), (u_grad_w,), (u_grad_m, m_grad_m) = \
            _advect_band([u_band, m_band], [(u_band, (0, 1)), (w_band, (0,)),
                                            (m_band, (0, 1))], grid, engine)
        engine.release()

    # the curl pairing's operands are formed first, so that their
    # temporaries do not coexist with the expansion buffers below
    curl_operands = [curl_coeffs(grad_div_coeffs(w_band, band), band),
                     curl_coeffs(w_band, band)]
    # every pairing expands into these, on the calling thread; only the
    # box's blocks are written, so outside it full stays zero
    n, kc = grid.n, grid.kmax_dealias
    full = np.zeros((3, n, n, n), dtype=np.complex128)
    mirror = np.empty(u_band.shape[:-1] + (kc,), dtype=np.complex128)

    def pairing(a, b):
        # inner_product of the expansions of a and b: conj(a) b formed in
        # place in a, which no later line reads, then summed over n^3
        np.conjugate(a, out=a)
        np.multiply(a, b, out=a)
        return float(TWO_PI_CUBED * np.sum(
            expand_band(a, grid, out=full, scratch=mirror)).real)

    adv_w = pairing(u_grad_w, w_band)
    curl_gd = pairing(*curl_operands)
    del curl_operands
    adv_u = pairing(u_grad_u, u_band)
    adv_m = pairing(u_grad_m, m_band)
    lorentz = pairing(m_grad_m, u_band) + pairing(m_grad_u, m_band)

    alpha_pair = None
    if variant.uses_background:
        sym = alpha_symbol(p.alpha_vector, band)
        alpha_pair = (pairing(sym * m_band, u_band)
                      + pairing(sym * u_band, m_band))
    del full, mirror  # the band sums below need neither

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
