"""Reference implementations for the equivalence tests.

The boundary integrals as one-facet (and one-quadrature-point) at a time
loops, the versions of the vectorized boundary layer in `slipflow.forms`
and `slipflow.stability`; the cell-quadrature kernels as plain `einsum`
contractions over physical basis gradients; the residual block by
block; the Jacobian as CSR arithmetic (block matrix, then S J S
elimination); the standard trilinear form that the skew form is checked
against; the Korn, trace and inf-sup constants as dense full-spectrum
eigensolves, and as the earlier `eigsh` calls that left the Korn and
trace factorizations to ARPACK and factorized the inf-sup matrix in
COLAMD order with partial pivoting; the probe values of a time march one
probe at a time, each in the first cell found by a scan.  The package
never calls them.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from slipflow.fespace import FacetTable, block_indices, p2_basis, scatter_blocks
from slipflow.forms import get_cache


def _scatter(space, rows, cols, data, shape=None):
    shape = shape or (space.n_vdofs, space.n_vdofs)
    if not rows:
        return sp.csr_matrix(shape)
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()


# ---------------------------------------------------------------------------
# slip residual, Jacobian and wall profile
# ---------------------------------------------------------------------------

def slip_traction(ctx, u_tau, x, t):
    sig = ctx.law.sigma(u_tau, t)
    if ctx.slip_forcing is not None:
        sig = sig + np.asarray(ctx.slip_forcing(x[None, :], t), dtype=float)[0]
    if ctx.law.beta_star > 0 and ctx.law.wall_velocity is not None \
            and ctx.delta is not None:
        sig = sig - ctx.law.beta_star * ctx.law.wall_velocity_rate(t, ctx.delta)
    return sig


def slip_residual(ctx, u):
    space = ctx.space
    out = np.zeros(space.n_vdofs)
    for f in space.slip_facets:
        tcell = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        hF = space.mesh.facet_h[f]
        wf = space.fqweights * hF
        Tr = space.ftr[f]
        dofs = space.cell_vdofs[tcell]
        loc = u[dofs].reshape(6, 2)
        uq = np.einsum("ac,aq->qc", loc, Tr)
        r = np.zeros((6, 2))
        for q in range(wf.size):
            v = uq[q]
            vt = v - (v @ n) * n
            sig = slip_traction(ctx, vt, space.fpoints[f, q], ctx.t)
            sig_t = sig - (sig @ n) * n
            r += wf[q] * np.outer(Tr[:, q], sig_t)
        out[dofs] += r.ravel()
    return out


def slip_jacobian(ctx, u):
    space = ctx.space
    rows, cols, data = [], [], []
    for f in space.slip_facets:
        tcell = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        hF = space.mesh.facet_h[f]
        wf = space.fqweights * hF
        Tr = space.ftr[f]
        dofs = space.cell_vdofs[tcell]
        loc = u[dofs].reshape(6, 2)
        uq = np.einsum("ac,aq->qc", loc, Tr)
        P = np.eye(2) - np.outer(n, n)
        locJ = np.zeros((6, 2, 6, 2))
        for q in range(wf.size):
            v = uq[q]
            vt = v - (v @ n) * n
            K = P @ ctx.law.jacobian(vt, ctx.t) @ P
            locJ += wf[q] * np.einsum("a,b,cd->acbd", Tr[:, q], Tr[:, q], K)
        rows.append(np.repeat(dofs, 12))
        cols.append(np.tile(dofs, 12))
        data.append(locJ.reshape(-1))
    return _scatter(space, rows, cols, data)


def boundary_functionals(state, ctx):
    """(x, |u_tau|, |sigma|, u.n) sorted by x, as plain arrays."""
    space = ctx.space
    xs, uts, sgs, uns = [], [], [], []
    for f in space.slip_facets:
        tcell = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        Tr = space.ftr[f]
        loc = state.u[space.cell_vdofs[tcell]].reshape(6, 2)
        uq = np.einsum("ac,aq->qc", loc, Tr)
        for q in range(space.fqweights.size):
            v = uq[q]
            vn = v @ n
            vt = v - vn * n
            sig = ctx.law.sigma(vt, ctx.t)
            xs.append(space.fpoints[f, q, 0])
            uts.append(np.linalg.norm(vt))
            sgs.append(np.linalg.norm(sig))
            uns.append(vn)
    order = np.argsort(np.asarray(xs), kind="stable")
    return tuple(np.asarray(a)[order] for a in (xs, uts, sgs, uns))


# ---------------------------------------------------------------------------
# state-independent boundary blocks of the form cache
# ---------------------------------------------------------------------------

def cache_boundary_blocks(space):
    """(M_B, P_pen, C_nit, B_n) over the slip facets."""
    rows_uu, cols_uu = [], []
    mb, pen, cn = [], [], []
    rows_pu, cols_pu, bn = [], [], []
    for f in space.slip_facets:
        t = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        hF = space.mesh.facet_h[f]
        wf = space.fqweights * hF
        Tr = space.ftr[f]
        dn = np.einsum("bqi,i->bq", space.fgrad[f], n)
        tt = np.einsum("q,aq,bq->ab", wf, Tr, Tr)
        loc = np.zeros((6, 2, 6, 2))
        loc[:, 0, :, 0] = tt
        loc[:, 1, :, 1] = tt
        mb.append(loc.ravel())
        pen.append(np.einsum("ab,c,d->acbd", tt / hF, n, n).ravel())
        ctt = np.einsum("q,aq,bq->ab", wf, Tr, dn)
        cn.append(np.einsum("ab,c,d->acbd", ctt, n, n).ravel())
        dofs = space.cell_vdofs[t]
        rows_uu.append(np.repeat(dofs, 12))
        cols_uu.append(np.tile(dofs, 12))
        btt = np.einsum("q,iq,bq->ib", wf, space.fpsi[f], Tr)
        bn.append(np.einsum("ib,d->ibd", btt, n).ravel())
        rows_pu.append(np.repeat(space.cell_pdofs[t], 12))
        cols_pu.append(np.tile(dofs, 3))
    return (
        _scatter(space, rows_uu, cols_uu, mb),
        _scatter(space, rows_uu, cols_uu, pen),
        _scatter(space, rows_uu, cols_uu, cn),
        _scatter(space, rows_pu, cols_pu, bn, (space.n_pdofs, space.n_vdofs)),
    )


# ---------------------------------------------------------------------------
# stability masses and the inverse trace constant
# ---------------------------------------------------------------------------

def normal_trace_mass(space, facets):
    """<(u.n), (v.n)> over the given boundary facets."""
    rows, cols, data = [], [], []
    for f in facets:
        t = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        wf = space.fqweights * space.mesh.facet_h[f]
        Tr = space.ftr[f]
        tt = np.einsum("q,aq,bq->ab", wf, Tr, Tr)
        loc = np.einsum("ab,c,d->acbd", tt, n, n).reshape(12, 12)
        dofs = space.cell_vdofs[t]
        rows.append(np.repeat(dofs, 12))
        cols.append(np.tile(dofs, 12))
        data.append(loc.ravel())
    return _scatter(space, rows, cols, data)


def full_trace_mass(space, facets):
    """<u, v> over the given boundary facets (both components)."""
    rows, cols, data = [], [], []
    for f in facets:
        t = space.mesh.facet_cells[f]
        wf = space.fqweights * space.mesh.facet_h[f]
        Tr = space.ftr[f]
        tt = np.einsum("q,aq,bq->ab", wf, Tr, Tr)
        loc = np.zeros((6, 2, 6, 2))
        loc[:, 0, :, 0] = tt
        loc[:, 1, :, 1] = tt
        dofs = space.cell_vdofs[t]
        rows.append(np.repeat(dofs, 12))
        cols.append(np.tile(dofs, 12))
        data.append(loc.reshape(-1))
    return _scatter(space, rows, cols, data)


def penalty_mass(space, facets):
    """<h^-1 (u.n), (v.n)> over the given boundary facets."""
    rows, cols, data = [], [], []
    for f in facets:
        t = space.mesh.facet_cells[f]
        n = space.mesh.facet_normals[f]
        Tr = space.ftr[f]
        tt = np.einsum("q,aq,bq->ab", space.fqweights, Tr, Tr)
        loc = np.einsum("ab,c,d->acbd", tt, n, n).reshape(12, 12)
        dofs = space.cell_vdofs[t]
        rows.append(np.repeat(dofs, 12))
        cols.append(np.tile(dofs, 12))
        data.append(loc.ravel())
    return _scatter(space, rows, cols, data)


def inverse_trace_constant(space):
    mesh = space.mesh
    worst = 0.0
    for f in range(mesh.num_facets):
        t = mesh.facet_cells[f]
        hF = mesh.facet_h[f]
        MK = np.einsum("q,aq,bq->ab", space.qweights * space.detJ[t],
                       space.phi, space.phi)
        Tr = space.ftr[f]
        MF = np.einsum("q,aq,bq->ab", space.fqweights * hF, Tr, Tr)
        lam = sla.eigh(hF * MF, MK, eigvals_only=True)[-1]
        worst = max(worst, float(lam))
    return float(np.sqrt(worst))


# ---------------------------------------------------------------------------
# Korn, trace and inf-sup constants as dense full-spectrum eigensolves
# ---------------------------------------------------------------------------

def korn_normal_trace_min_eig(space, facets=None):
    """Smallest eigenpair of the full generalized `eigh` of the Korn pencil
    (K_D + normal-trace mass, K_G + M_u)."""
    if facets is None:
        facets = np.arange(space.mesh.num_facets)
    cache = get_cache(space)
    A = cache.K_D + FacetTable(space, facets).mass(normal=True)
    M = cache.K_G + cache.M_u
    w, V = sla.eigh(A.toarray(), M.toarray())
    return float(w[0]), V[:, 0]


def trace_constant_xh(space):
    """Square root of the largest eigenvalue of the full generalized `eigh`
    of the boundary-mass / X_h-norm pencil on the free velocity DOFs."""
    cache = get_cache(space)
    free = np.setdiff1d(np.arange(space.n_vdofs), space.dirichlet_vdofs)
    A_x = (cache.K_D + cache.P_pen)[np.ix_(free, free)]
    M_g = cache.M_B[np.ix_(free, free)]
    w = sla.eigh(M_g.toarray(), A_x.toarray(), eigvals_only=True)
    return float(np.sqrt(max(w[-1], 0.0)))


def infsup_constant(space):
    """Square root of the second eigenvalue of the dense pressure Schur
    complement B K^-1 B^T q = lam M_p q, formed from one LU solve per
    pressure DOF."""
    cache = get_cache(space)
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    bdofs = np.concatenate([2 * bnodes, 2 * bnodes + 1])
    free = np.setdiff1d(np.arange(space.n_vdofs), bdofs)
    K = cache.K_G[np.ix_(free, free)].tocsc()
    B = cache.B_div[:, free].tocsc()
    mloc = np.einsum("tq,aq,bq->tab", space.wdet, space.psi, space.psi)
    Mp = scatter_blocks(mloc, block_indices(space.cell_pdofs, space.cell_pdofs),
                        (space.n_pdofs, space.n_pdofs))
    S = B @ spla.splu(K).solve(B.T.toarray())
    w = sla.eigh(S, Mp.toarray(), eigvals_only=True)
    assert w[0] <= 1e-10 * max(w[-1], 1.0)
    return float(np.sqrt(w[1]))


def _eigsh_seeded(A, M, k, **kw):
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, A.shape[0])
    w, V = spla.eigsh(A, k=k, M=M, v0=v0, **kw)
    order = np.argsort(w)
    return w[order], V[:, order]


def korn_normal_trace_min_eig_arpack_lu(space, facets=None):
    """Smallest Korn eigenpair by shift-invert `eigsh` at sigma = -1e-8,
    with ARPACK's own LU of A - sigma M."""
    if facets is None:
        facets = np.arange(space.mesh.num_facets)
    cache = get_cache(space)
    A = cache.K_D + FacetTable(space, facets).mass(normal=True)
    M = cache.K_G + cache.M_u
    w, V = _eigsh_seeded(A.tocsc(), M.tocsc(), 1, sigma=-1e-8, which="LM")
    return float(w[0]), V[:, 0]


def trace_constant_xh_arpack_lu(space):
    """Trace constant by regular-mode `eigsh` with M = A_x, with ARPACK's
    own LU of A_x."""
    cache = get_cache(space)
    free = np.setdiff1d(np.arange(space.n_vdofs), space.dirichlet_vdofs)
    A_x = (cache.K_D + cache.P_pen)[np.ix_(free, free)]
    M_g = cache.M_B[np.ix_(free, free)]
    w, _ = _eigsh_seeded(M_g.tocsc(), A_x.tocsc(), 1, which="LA")
    return float(np.sqrt(max(w[-1], 0.0)))


def infsup_constant_colamd(space):
    """Inf-sup constant by shift-invert `eigsh` at sigma = -1e-8 on the
    Schur complement, through one LU of the saddle-point matrix in
    SuperLU's default COLAMD order with partial pivoting."""
    sigma = -1e-8
    cache = get_cache(space)
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    free = np.setdiff1d(np.arange(space.n_vdofs),
                        np.concatenate([2 * bnodes, 2 * bnodes + 1]))
    K = cache.K_G[np.ix_(free, free)]
    B = cache.B_div[:, free]
    mloc = np.einsum("tq,aq,bq->tab", space.wdet, space.psi, space.psi)
    Mp = scatter_blocks(mloc, block_indices(space.cell_pdofs, space.cell_pdofs),
                        (space.n_pdofs, space.n_pdofs)).tocsc()
    lu = spla.splu(sp.bmat([[K, B.T], [B, sigma * Mp]], format="csc"))
    zero = np.zeros(free.size)
    OPinv = spla.LinearOperator(Mp.shape, dtype=float, matvec=lambda r:
                                lu.solve(np.concatenate([zero, -r]))[free.size:])
    w, _ = _eigsh_seeded(OPinv, Mp, 2, sigma=sigma, which="LM", OPinv=OPinv)
    return float(np.sqrt(max(w[1], 0.0)))


# ---------------------------------------------------------------------------
# cell-quadrature kernels and the Jacobian, as plain einsum contractions
# ---------------------------------------------------------------------------

def physical_gradients(space):
    """Gradients (T,6,Q,2) of the P2 basis at the cell quadrature points."""
    return np.einsum("aqj,tji->taqi", space.dphi, space.invJ)


def velocity_at_quadrature(space, u):
    loc = u[space.cell_vdofs].reshape(-1, 6, 2)
    vals = np.einsum("tac,aq->tqc", loc, space.phi)
    grads = np.einsum("tac,taqi->tqci", loc, physical_gradients(space))
    return vals, grads


def _cell_scatter(space, loc):
    cd = space.cell_vdofs
    return sp.coo_matrix(
        (loc.reshape(-1, 144).ravel(),
         (np.repeat(cd, 12, axis=1).ravel(), np.tile(cd, (1, 12)).ravel())),
        shape=(space.n_vdofs, space.n_vdofs),
    ).tocsr()


def convection_residual(space, u):
    vals, grads = velocity_at_quadrature(space, u)
    G = physical_gradients(space)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    adv = np.einsum("tqi,tqci->tqc", vals, grads)
    Ba = np.einsum("tqi,taqi->taq", vals, G)
    r1 = np.einsum("tq,aq,tqc->tac", wdet, space.phi, adv)
    r2 = np.einsum("tq,taq,tqc->tac", wdet, Ba, vals)
    loc = 0.5 * (r1 - r2)
    out = np.zeros(space.n_vdofs)
    np.add.at(out, space.cell_vdofs.ravel(), loc.reshape(-1, 12).ravel())
    return out


def convection_jacobian(space, u):
    vals, grads = velocity_at_quadrature(space, u)
    G = physical_gradients(space)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    phi = space.phi
    Bu = np.einsum("tqi,taqi->taq", vals, G)
    t1 = np.einsum("tq,aq,bq,tqcd->tacbd", wdet, phi, phi, grads)
    t2 = np.einsum("tq,aq,tbq->tab", wdet, phi, Bu)
    t4 = np.einsum("tq,bq,taqd,tqc->tadbc", wdet, phi, G, vals)
    loc = t1.copy()
    loc[:, :, 0, :, 0] += t2 - t2.transpose(0, 2, 1)
    loc[:, :, 1, :, 1] += t2 - t2.transpose(0, 2, 1)
    loc -= t4.transpose(0, 1, 4, 3, 2)
    loc *= 0.5
    return _cell_scatter(space, loc)


def force_vector(ctx):
    space = ctx.space
    F = np.zeros(space.n_vdofs)
    if ctx.forcing is not None:
        fv = np.asarray(ctx.forcing(space.xq.reshape(-1, 2), ctx.t),
                        dtype=float).reshape(space.xq.shape)
        wdet = space.qweights[None, :] * space.detJ[:, None]
        loc = np.einsum("tq,aq,tqc->tac", wdet, space.phi, fv)
        np.add.at(F, space.cell_vdofs.ravel(), loc.reshape(-1, 12).ravel())
    return F


def trilinear_skew(space, u, v, w):
    uv, _ = velocity_at_quadrature(space, u)
    vv, gv = velocity_at_quadrature(space, v)
    wv, gw = velocity_at_quadrature(space, w)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    t1 = np.einsum("tq,tqi,tqci,tqc->", wdet, uv, gv, wv)
    t2 = np.einsum("tq,tqi,tqci,tqc->", wdet, uv, gw, vv)
    return 0.5 * float(t1 - t2)


def trilinear_standard(space, u, v, w):
    """b(u,v,w) = -(v x u, grad w) + <u.n, v.w>_boundary, the standard
    form the skew form converges to for divergence-free u."""
    uv, _ = space.velocity_at_quadrature(u)
    vv, _ = space.velocity_at_quadrature(v)
    _, gw = space.velocity_at_quadrature(w)
    wdet = space.qweights[None, :] * space.detJ[:, None]
    vol = -np.einsum("tq,tqc,tqi,tqci->", wdet, vv, uv, gw)
    bd = FacetTable(space, np.arange(space.mesh.num_facets))
    un = bd.split(bd.values(u))[0]
    bdry = np.sum(bd.w * un * (bd.values(v) * bd.values(w)).sum(axis=2))
    return float(vol + bdry)


def residual(state, ctx):
    """The residual block by block: momentum rows lin u - G_c^T p plus the
    slip, convection, force and u_old mass terms, continuity rows
    -G_c u + m e_p, the mean-pressure row e_p^T p, and the Dirichlet rows
    u - g."""
    space, c = ctx.space, ctx.cache
    u, p = state.u, state.p
    r_u = ctx.linear_operator() @ u - c.G_c.T @ p + slip_residual(ctx, u)
    if ctx.config.include_convection:
        r_u += convection_residual(space, u)
    r_u -= force_vector(ctx)
    if ctx.delta is not None:
        r_u -= (c.M_u @ ctx.u_old + ctx.law.beta_star * (c.M_B @ ctx.u_old)) \
            / ctx.delta
    g = np.zeros(space.n_vdofs)
    if callable(ctx.dirichlet):
        g = np.asarray(ctx.dirichlet(space.vnode_coords, ctx.t), dtype=float).ravel()
    dd = space.dirichlet_vdofs
    r_u[dd] = u[dd] - g[dd]
    return np.concatenate([r_u, -(c.G_c @ u) + state.m * c.e_p, [c.e_p @ p]])


def jacobian(state, ctx):
    """The Jacobian as CSR arithmetic: block matrix of the linear
    operator, the slip and convection blocks, the continuity coupling and
    the multiplier row and column, then symmetric elimination S J S of the
    Dirichlet DOFs plus their unit diagonal."""
    space, c = ctx.space, ctx.cache
    J_uu = ctx.linear_operator() + slip_jacobian(ctx, state.u)
    if ctx.config.include_convection:
        J_uu = J_uu + convection_jacobian(space, state.u)
    e = sp.csr_matrix(c.e_p[:, None])
    J = sp.bmat([[J_uu, -c.G_c.T, None], [-c.G_c, None, e], [None, e.T, None]],
                format="csr")
    keep = np.ones(J.shape[0])
    keep[space.dirichlet_vdofs] = 0.0
    S = sp.diags(keep)
    return ((S @ J @ S) + sp.diags(1.0 - keep)).tocsr()


# ---------------------------------------------------------------------------
# probe values of a time march
# ---------------------------------------------------------------------------

def probe_values(space, u, points):
    """|u_tau| at each point, in the first cell whose reference coordinates
    hold it up to 1e-12, with the normal of the slip facet whose midpoint
    is nearest (or (0, 1) without slip facets)."""
    mesh = space.mesh
    p0 = mesh.vertices[mesh.cells[:, 0]]
    mids = mesh.facet_midpoints()
    out = []
    for x in np.asarray(points, dtype=float):
        for cell in range(mesh.num_cells):
            xi = space.invJ[cell] @ (x - p0[cell])
            if xi[0] >= -1e-12 and xi[1] >= -1e-12 and xi.sum() <= 1.0 + 1e-12:
                break
        v = u[space.cell_vdofs[cell]].reshape(6, 2).T @ p2_basis(xi[None])[0][:, 0]
        n = np.array([0.0, 1.0])
        if space.slip_facets.size:
            best = min(space.slip_facets, key=lambda f: np.linalg.norm(mids[f] - x))
            n = mesh.facet_normals[best]
        out.append(np.linalg.norm(v - (v @ n) * n))
    return np.array(out)

