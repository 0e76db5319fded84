"""Per-facet loop implementations of the boundary integrals.

These are the straightforward one-facet (and one-quadrature-point) at a
time versions of the vectorized boundary layer in `slipflow.forms` and
`slipflow.stability`.  They are kept only as independent references for
the equivalence tests; the package never calls them.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


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


def boundary_functionals(state, ctx, t=None):
    """(x, s, |u_tau|, |sigma|, u.n) sorted by x, as plain arrays."""
    space = ctx.space
    if t is None:
        t = ctx.t
    xs, ss, uts, sgs, uns = [], [], [], [], []
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
            sig = ctx.law.sigma(vt, t)
            xs.append(space.fpoints[f, q, 0])
            ss.append(space.fpoints[f, q, 0])
            uts.append(np.linalg.norm(vt))
            sgs.append(np.linalg.norm(sig))
            uns.append(vn)
    order = np.argsort(np.asarray(xs), kind="stable")
    return tuple(np.asarray(a)[order] for a in (xs, ss, uts, sgs, uns))


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
