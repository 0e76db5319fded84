"""Residual and analytic Jacobian of the fully discrete Nitsche system.

Momentum rows (tested with every velocity basis function v), with
s = +1 for the symmetric and s = -1 for the antisymmetric variant:

    (1/dt) [(u - u_old, v) + beta* <u - u_old, v>_Gs]
    + 2 nu (Du, Dv) + btilde(u, u, v)
    - (p, div v) + <p, v.n>_Gs
    + <sigma_law(u_tau, t) + g_slip - beta* d_t(u_b), v_tau>_Gs
    + nu alpha <h^-1 u.n, v.n>_Gs
    - 2 nu <(Du n).n, v.n>_Gs - s 2 nu <(Dv n).n, u.n>_Gs
    - (f, v)

Continuity rows are assembled with the sign flipped relative to testing
the saddle form with q (solution-equivalent) so that the linear part of
the matrix is symmetric whenever the remaining forms are.  The system
fixes the pressure only up to a constant.  Dirichlet velocity
rows/columns are eliminated symmetrically; callers must keep Dirichlet
entries of the state at their boundary values (the Newton solver
projects them).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .fespace import (FacetTable, TaylorHoodSpace, SystemState, block_indices,
                      scatter_blocks)
from .sliplaw import SlipLaw


class FormsError(Exception):
    """Invalid assembly configuration."""


@dataclasses.dataclass
class NitscheConfig:
    nu: float = 1.0
    alpha: Union[float, str] = 10.0          # number or "auto"
    variant: str = "symmetric"                # or "antisymmetric"
    include_convection: bool = True

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise FormsError(f"viscosity nu must be finite and > 0, got {self.nu}")
        if self.variant not in ("symmetric", "antisymmetric"):
            raise FormsError(f"unknown variant {self.variant!r}")
        if not (self.alpha == "auto" or 0 < float(self.alpha) < math.inf):
            raise FormsError("penalty alpha must be finite and > 0, or 'auto'")


def _check_delta(delta: Optional[float]) -> None:
    if not (delta is None or 0 < delta < math.inf):
        raise FormsError(f"time step delta must be finite and > 0, got {delta}")


# ---------------------------------------------------------------------------
# cached constant blocks
# ---------------------------------------------------------------------------

class FormCache:
    """State-independent matrices on a Taylor-Hood space.

    Everything here depends only on the mesh/space (not on nu, alpha or
    the time step), so one cache serves all configurations on that space.
    """

    def __init__(self, space: TaylorHoodSpace):
        self.space = space
        T = space.mesh.num_cells
        wdet = space.wdet                                           # (T,Q)

        Nu, Np = space.n_vdofs, space.n_pdofs
        cd = space.cell_vdofs
        cells = block_indices(cd, cd)
        shape_uu = (Nu, Nu)
        shape_pu = (Np, Nu)

        phi, psi = space.phi, space.psi
        # physical gradients of the P2 basis: grad_x phi = invJ^T grad_xi phi
        G = np.einsum("aqj,tji->taqi", space.dphi, space.invJ)     # (T,6,Q,2)

        # scalar and vector mass
        m_scal = np.einsum("tq,aq,bq->tab", wdet, phi, phi)
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = m_scal
        loc[:, :, 1, :, 1] = m_scal
        self.M_u = scatter_blocks(loc, cells, shape_uu)

        # symmetric-gradient stiffness: (Du, Dv) for u = phi_b e_d,
        # v = phi_a e_c is (1/2)[delta_cd grad(phi_a).grad(phi_b)
        # + d_d(phi_a) d_c(phi_b)]
        gg = np.einsum("tq,taqi,tbqi->tab", wdet, G, G)
        gd = np.einsum("tq,taqd,tbqc->tadbc", wdet, G, G)
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = 0.5 * (gg + gd[:, :, 0, :, 0])
        loc[:, :, 1, :, 1] = 0.5 * (gg + gd[:, :, 1, :, 1])
        loc[:, :, 0, :, 1] = 0.5 * gd[:, :, 1, :, 0]
        loc[:, :, 1, :, 0] = 0.5 * gd[:, :, 0, :, 1]
        self.K_D = scatter_blocks(loc, cells, shape_uu)

        # full-gradient stiffness (grad u, grad v), used by certification
        loc = np.zeros((T, 6, 2, 6, 2))
        loc[:, :, 0, :, 0] = gg
        loc[:, :, 1, :, 1] = gg
        self.K_G = scatter_blocks(loc, cells, shape_uu)

        # divergence coupling (q, div u) and pressure integrals (q, 1)
        bloc = np.einsum("tq,iq,tbqd->tibd", wdet, psi, G).reshape(T, 3, 12)
        self.B_div = scatter_blocks(bloc, block_indices(space.cell_pdofs, cd),
                                    shape_pu)
        self.e_p = np.bincount(space.cell_pdofs.ravel(),
                               np.einsum("tq,iq->ti", wdet, psi).ravel(),
                               minlength=Np)

        # slip-boundary blocks
        sl = self.slip = FacetTable(space, space.slip_facets)
        self.M_B = sl.mass()
        self.P_pen = sl.mass(normal=True, per_h=True)
        # <v.n, (Du n).n>: n . grad of the traces, contracted with n n^T
        dn = np.einsum("fbqi,fi->fbq", space.fgrad[sl.facets], sl.n)
        ctt = np.einsum("fq,faq,fbq->fab", sl.w, sl.tr, dn)
        self.C_nit = sl.matrix(np.einsum("fab,fc,fd->facbd", ctt, sl.n, sl.n))
        # <q, v.n>
        btt = np.einsum("fq,fiq,fbq->fib", sl.w, space.fpsi[sl.facets], sl.tr)
        self.B_n = scatter_blocks(np.einsum("fib,fd->fibd", btt, sl.n),
                                  block_indices(space.cell_pdofs[sl.cells], sl.dofs),
                                  shape_pu)

        self.G_c = (self.B_div - self.B_n).tocsr()   # paper continuity operator

        # reference table of the convection Jacobian, weighted by the
        # quadrature weights; columns (a, b), rows: phi_a phi_b (q), then
        # -d_j phi_a phi_b and phi_a d_j phi_b - d_j phi_a phi_b (j, q)
        qw, dphi = space.qweights, space.dphi
        Q = qw.size
        pp = np.einsum("q,aq,bq->qab", qw, phi, phi)
        dp = np.einsum("q,aqj,bq->jqab", qw, dphi, phi)
        pd = np.einsum("q,aq,bqj->jqab", qw, phi, dphi)
        self.conv_table = np.concatenate(
            [pp.reshape(Q, 36), -dp.reshape(2 * Q, 36), (pd - dp).reshape(2 * Q, 36)]
        )                                                           # (5Q,36)

    @functools.cached_property
    def pattern(self) -> "JacobianPattern":
        """The Jacobian sparsity pattern, built on the first Jacobian."""
        return JacobianPattern(self)

    @functools.cached_property
    def flux_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1^T G_c and 1^T |G_c| at the Dirichlet DOFs, where alone 1^T G_c
        is nonzero: the net flux of Dirichlet data g is the first . g."""
        ones, dd = np.ones(self.space.n_pdofs), self.space.dirichlet_vdofs
        return (self.G_c.T @ ones)[dd], (abs(self.G_c).T @ ones)[dd]


# nested dissection stops at boxes of at most this many velocity nodes
ND_LEAF = 8


def nd_order(space: TaylorHoodSpace) -> np.ndarray:
    """Nested-dissection order q of the (u, p) unknowns (A. George, SIAM
    J. Numer. Anal. 10(2), 1973): each box of `nd_paths` is ordered left,
    right, then separator, each block with its velocity DOFs before the
    pressure DOFs of its vertices, after the Dirichlet velocity DOFs."""
    block = nd_paths(space)[0]
    key = np.concatenate([np.repeat(block, 2), block[:space.n_pdofs]])
    free = ~np.isin(np.arange(key.size), space.dirichlet_vdofs)
    return np.lexsort((np.arange(key.size) >= space.n_vdofs, key, free))


def nd_paths(space: TaylorHoodSpace) -> tuple[np.ndarray, np.ndarray]:
    """Each velocity node's path through the nested dissection: the rank
    of its path, and its digits (nodes, levels): 0 left, 1 right, 2
    separator or leaf, then 0.  Each level cuts every box across its
    longer extent at the vertex line nearest its median that no cell
    crosses, so the nodes on it separate the sides exactly.  Boxes of
    at most ND_LEAF nodes, or with no such line, are leaves."""
    mesh, x = space.mesh, space.vnode_coords
    lines = []      # per axis, the vertex lines c with no cell lo < c < hi
    for c, ends in zip(mesh.vertices.T, mesh.vertices[mesh.cells].T):
        c, lo, hi = np.unique(c), np.sort(ends.min(axis=0)), np.sort(ends.max(axis=0))
        lines.append(c[np.searchsorted(lo, c) <= np.searchsorted(hi, c, "right")])
    rank, live, digits = np.zeros(len(x), dtype=np.int64), np.ones(len(x), bool), []
    while live.any():
        at = np.flatnonzero(live)
        g = np.unique(rank[at], return_inverse=True)[1]
        count = np.bincount(g)
        first, box = np.cumsum(count) - count, np.arange(len(count))
        xs = np.stack([x[at, a][np.lexsort((x[at, a], g))] for a in range(2)], 1)
        axis = np.argmax(xs[first + count - 1] - xs[first], axis=1)
        lo, hi, med = (xs[i, axis] for i in (first, first + count - 1, first + count // 2))
        cand = np.stack([L[np.clip(np.searchsorted(L, med)[:, None] + [-1, 0],
                                   0, L.size - 1)] for L in lines], 1)[box, axis]
        dist = np.where((cand > lo[:, None]) & (cand < hi[:, None]),
                        np.abs(cand - med[:, None]), np.inf)
        best = dist.argmin(axis=1)
        cut = np.where((count > ND_LEAF) & (dist[box, best] < np.inf),
                       cand[box, best], np.nan)[g]
        xa, digit = x[at, axis[g]], np.zeros(len(x), dtype=np.int64)
        digit[at] = np.where(xa < cut, 0, np.where(xa > cut, 1, 2))
        live[at] = digit[at] < 2
        digits.append(digit)
        rank = np.unique(3 * rank + digit, return_inverse=True)[1]
    return rank, np.stack(digits, 1)


class JacobianPattern:
    """One CSC sparsity pattern for every Jacobian on a space.

    The velocity block is the cell connectivity, which holds every entry
    of the linear, slip-facet and convection blocks; the velocity-pressure
    blocks are the cell couplings, and one structural (explicitly zero)
    diagonal slot (k, k) sits at the last pressure DOF k.  Rows and
    columns of the Dirichlet velocity DOFs are eliminated and never
    stored; each gets a unit diagonal.  A Jacobian A on (u, p) is a
    `data` array over this pattern; `cell_pos` (T*144) and `slip_pos`
    (F*144) locate the entries of the (T,12,12) cell and (F,12,12)
    slip-facet blocks in it, with `nnz` for an eliminated entry.

    `bordered(data)` gives A'[q][:, q] for A' = A + e_k e_k^T and the
    symmetric order `order` (q) over the pattern `a_indptr`/`a_indices`:
    its data is A's data at `a_pos`, plus 1 at `a_kk`.  q is the
    nested-dissection order `nd_order(space)`, set at construction; it
    depends only on the mesh, so it holds for every A' on the space.
    """

    def __init__(self, cache: FormCache):
        space = cache.space
        Nu, Np = space.n_vdofs, space.n_pdofs
        n = self.n = Nu + Np
        self.k = n - 1
        fixed = space.dirichlet_vdofs
        self.keep = np.ones(n, dtype=bool)
        self.keep[fixed] = False

        cell_rows, cell_cols = block_indices(space.cell_vdofs, space.cell_vdofs)
        pv_rows, pv_cols = block_indices(space.cell_pdofs + Nu, space.cell_vdofs)
        rows = np.concatenate([cell_rows, pv_rows, pv_cols, [self.k]])
        cols = np.concatenate([cell_cols, pv_cols, pv_rows, [self.k]])
        live = self.keep[rows] & self.keep[cols]
        # column-major keys sort into CSC order
        keys = np.unique(np.concatenate([cols[live] * n + rows[live],
                                         fixed * (n + 1)]))
        self.nnz = keys.size
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n, minlength=n))]
        ).astype(np.int32)
        self.fixed_pos = np.searchsorted(keys, fixed * (n + 1))
        self.cell_pos = self.positions(cell_rows, cell_cols)
        self.slip_pos = self.positions(*block_indices(cache.slip.dofs,
                                                      cache.slip.dofs))
        # A'[q][:, q] in CSC order
        self.order = nd_order(space)
        inv = np.argsort(self.order)
        a_keys = inv[keys // n] * n + inv[keys % n]
        self.a_pos = np.argsort(a_keys)
        a_keys = a_keys[self.a_pos]
        self.a_indices = (a_keys % n).astype(np.int32)
        self.a_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(a_keys // n, minlength=n))]
        ).astype(np.int32)
        self.a_kk = int(np.searchsorted(a_keys, inv[self.k] * (n + 1)))

    def positions(self, rows, cols) -> np.ndarray:
        """Positions in `data` of the entries (rows, cols), `nnz` where a
        fixed row or column eliminates the entry."""
        keys = np.repeat(np.arange(self.n), np.diff(self.indptr)) * self.n + self.indices
        live = self.keep[rows] & self.keep[cols]
        want = np.asarray(cols, dtype=np.int64) * self.n + rows
        pos = np.searchsorted(keys, want)
        if not np.array_equal(keys[np.minimum(pos[live], self.nnz - 1)],
                              want[live]):
            raise FormsError("matrix entry outside the Jacobian pattern")
        return np.where(live, pos, self.nnz).astype(np.int32)

    def gather(self, pos: np.ndarray, values: np.ndarray) -> np.ndarray:
        """`data` of the sum of the entries `values` at positions `pos`."""
        return np.bincount(pos, values.ravel(), minlength=self.nnz + 1)[:self.nnz]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def bordered(self, data: np.ndarray) -> sp.csc_matrix:
        """A'[q][:, q] for A' = A + e_k e_k^T of the Jacobian with `data`."""
        a = data[self.a_pos]
        a[self.a_kk] += 1.0
        return sp.csc_matrix((a, self.a_indices, self.a_indptr),
                             shape=(self.n, self.n))


def get_cache(space: TaylorHoodSpace) -> FormCache:
    cache = getattr(space, "_form_cache", None)
    if cache is None:
        cache = FormCache(space)
        space._form_cache = cache
    return cache


# ---------------------------------------------------------------------------
# assembly context
# ---------------------------------------------------------------------------

class AssemblyContext:
    """Bundles space, configuration, slip law and problem data.

    forcing(x, t) -> (N,2) is the body force; dirichlet is the boundary
    value map g(x, t) -> (N,2) (pass 0.0 for homogeneous no-slip; it is
    required whenever Dirichlet facets exist, and any other number
    raises FormsError); slip_forcing(x, t) -> (N,2)
    is an additive tangential traction on the slip wall used by the
    manufactured-solution verification.  delta=None selects the steady
    problem (no time term); otherwise u_old and t describe the active
    backward Euler step.
    """

    def __init__(
        self,
        space: TaylorHoodSpace,
        config: NitscheConfig,
        law: SlipLaw,
        forcing: Optional[Callable] = None,
        dirichlet: Union[None, float, Callable] = None,
        slip_forcing: Optional[Callable] = None,
        t: float = 0.0,
        delta: Optional[float] = None,
        u_old: Optional[np.ndarray] = None,
    ):
        self.space = space
        self.config = config
        self.law = law
        self.forcing = forcing
        self.slip_forcing = slip_forcing
        self.t = float(t)
        _check_delta(delta)
        self.delta = delta
        self.u_old = u_old
        if space.dirichlet_vdofs.size and dirichlet is None:
            raise FormsError(
                "mesh has Dirichlet facets but no Dirichlet data was given "
                "(pass dirichlet=0.0 for homogeneous no-slip)"
            )
        if not (dirichlet is None or callable(dirichlet) or (
                isinstance(dirichlet, (int, float))
                and not isinstance(dirichlet, bool) and dirichlet == 0.0)):
            raise FormsError(
                f"Dirichlet data must be None, 0.0 or a callable g(x, t), "
                f"got {dirichlet!r}"
            )
        self.dirichlet = dirichlet
        self.cache = get_cache(space)
        self.alpha = self._resolve_alpha()
        self._lin = None
        self._sys = None
        self._jac_const = None
        self._rhs_t = None
        self._hist_t = None
        self._g_t = None

    def _resolve_alpha(self) -> float:
        if self.config.alpha != "auto":
            return float(self.config.alpha)
        from .stability import resolve_alpha, inverse_trace_constant, trace_constant_xh

        c_tr = inverse_trace_constant(self.space)
        c_trk = trace_constant_xh(self.space) if self.law.lam > 0 else None
        return resolve_alpha(self.config, self.law, c_tr, c_trk)

    # -- cached linear operator and RHS --------------------------------------

    @property
    def n_sys(self) -> int:
        return self.space.n_vdofs + self.space.n_pdofs

    def linear_operator(self) -> sp.csr_matrix:
        """Constant part of the velocity-velocity block."""
        if self._lin is None:
            c, cfg = self.cache, self.config
            s = 1.0 if cfg.variant == "symmetric" else -1.0
            A = (2.0 * cfg.nu) * c.K_D + (cfg.nu * self.alpha) * c.P_pen \
                - (2.0 * cfg.nu) * (c.C_nit + s * c.C_nit.T)
            if self.delta is not None:
                A = A + (1.0 / self.delta) * (c.M_u + self.law.beta_star * c.M_B)
            self._lin = A.tocsr()
        return self._lin

    def system_operator(self) -> sp.csr_matrix:
        """Constant part of the whole system on (u, p): the linear
        operator and the continuity coupling -G_c and -G_c^T."""
        if self._sys is None:
            c = self.cache
            self._sys = sp.bmat([[self.linear_operator(), -c.G_c.T],
                                 [-c.G_c, None]], format="csr")
        return self._sys

    def jacobian_constant(self) -> np.ndarray:
        """`data` of the state-independent part of the Jacobian over the
        pattern: the system operator and the unit diagonal of the
        Dirichlet DOFs."""
        if self._jac_const is None:
            pat, k = self.cache.pattern, self.system_operator().tocoo()
            data = pat.gather(pat.positions(k.row, k.col), k.data)
            data[pat.fixed_pos] = 1.0
            self._jac_const = data
        return self._jac_const

    def advance(self, t: float, u_old: np.ndarray) -> None:
        """Move to the next backward Euler step."""
        self.t = float(t)
        self.u_old = u_old
        self._rhs_t = None
        self._hist_t = None
        self._g_t = None

    def set_timestep(self, delta: Optional[float]) -> None:
        """Change the time step (invalidates the cached linear operator)."""
        _check_delta(delta)
        self.delta = delta
        self._lin = None
        self._sys = None
        self._jac_const = None
        self._hist_t = None

    def force_vector(self) -> np.ndarray:
        """(f(.,t), v) for all velocity test functions."""
        if self._rhs_t is None:
            space = self.space
            F = np.zeros(space.n_vdofs)
            if self.forcing is not None:
                X = space.xq.reshape(-1, 2)
                fv = np.asarray(self.forcing(X, self.t), dtype=float).reshape(
                    space.xq.shape
                )
                loc = space.phi @ (space.wdet[:, :, None] * fv)     # (T,6,2)
                F = np.bincount(space.cell_vdofs.ravel(), loc.ravel(),
                                minlength=space.n_vdofs)
            self._rhs_t = F
        return self._rhs_t

    def history_vector(self) -> np.ndarray:
        """(1/delta)[(u_old, v) + beta* <u_old, v>_Gs] for all velocity
        test functions: the backward Euler history term of the step."""
        if self._hist_t is None:
            c = self.cache
            self._hist_t = (1.0 / self.delta) * (
                c.M_u @ self.u_old + self.law.beta_star * (c.M_B @ self.u_old))
        return self._hist_t

    def dirichlet_values(self) -> np.ndarray:
        """Full-length vector with boundary values at Dirichlet DOFs.  Data
        with a net flux |1^T G_c g| > 1e-10 1^T |G_c| |g| raises FormsError."""
        if self._g_t is None:
            space = self.space
            g = np.zeros(space.n_vdofs)
            if callable(self.dirichlet) and space.dirichlet_vnodes.size:
                vals = np.asarray(
                    self.dirichlet(space.vnode_coords[space.dirichlet_vnodes], self.t),
                    dtype=float,
                )
                g[2 * space.dirichlet_vnodes] = vals[:, 0]
                g[2 * space.dirichlet_vnodes + 1] = vals[:, 1]
                w, w_abs = self.cache.flux_weights
                gd = g[space.dirichlet_vdofs]
                flux = abs(float(w @ gd))
                if not flux <= 1e-10 * float(w_abs @ np.abs(gd)):
                    raise FormsError(f"Dirichlet data at t = {self.t:g} has "
                                     f"net flux {flux:.3e} through the boundary")
            self._g_t = g
        return self._g_t

    def project_dirichlet(self, state: SystemState) -> SystemState:
        """Impose boundary values on the state."""
        g = self.dirichlet_values()
        dd = self.space.dirichlet_vdofs
        state.u[dd] = g[dd]
        return state

    # -- vector packing --------------------------------------------------------

    def pack(self, state: SystemState) -> np.ndarray:
        return np.concatenate([state.u, state.p])

    def unpack(self, x: np.ndarray) -> SystemState:
        Nu = self.space.n_vdofs
        return SystemState(x[:Nu].copy(), x[Nu:].copy())


# ---------------------------------------------------------------------------
# nonlinear pieces
# ---------------------------------------------------------------------------

def _transport_velocity(space: TaylorHoodSpace, u: np.ndarray):
    """Component-major values and reference gradients of u (T,2,3,Q)
    and the reference components invJ u (T,2,Q) of u as a transport
    velocity: (u.grad) = sum_j wref_j d / d xi_j."""
    vg = space.reference_velocity(u)
    return vg, space.invJ @ vg[:, :, 0]


def _convection_residual(space: TaylorHoodSpace, u: np.ndarray) -> np.ndarray:
    """btilde(u, u, v) for all velocity test functions v."""
    T, Q = space.wdet.shape
    vg, wref = _transport_velocity(space, u)
    v, dv = vg[:, :, 0], vg[:, :, 1:]
    ww = (0.5 * space.wdet)[:, None] * wref                     # (T,j,Q)
    # tested with phi_a: the values rows carry (u.grad)u_c, the gradient
    # rows -(u.grad) phi_a u_c
    y = np.empty((T, 2, 3, Q))
    y[:, :, 0] = ww[:, None, 0] * dv[:, :, 0] + ww[:, None, 1] * dv[:, :, 1]
    y[:, :, 1:] = -ww[:, None] * v[:, :, None]
    loc = (y.reshape(2 * T, 3 * Q) @ space.ref_table.T).reshape(T, 2, 6)
    return np.bincount(space.cell_vdofs.ravel(), loc.transpose(0, 2, 1).ravel(),
                       minlength=space.n_vdofs)


def _convection_jacobian(cache: FormCache, u: np.ndarray) -> np.ndarray:
    """Local (T,6,2,6,2) blocks of the derivative of btilde(u, u, v) in u:
    1/2 [((w.grad)u, v) + ((u.grad)w, v) - ((w.grad)v, u) - ((u.grad)v, w)]
    for v = phi_a e_c and w = phi_b e_d."""
    space = cache.space
    T, Q = space.wdet.shape
    vg, wref = _transport_velocity(space, u)
    invJ = space.invJ
    # one row (t, c, d) per local block against the rows of conv_table
    x = np.zeros((T, 2, 2, 5, Q))
    x[:, :, :, 0] = np.swapaxes(invJ, 1, 2)[:, None] @ vg[:, :, 1:]    # d_d u_c
    x[:, :, :, 1:3] = vg[:, :, None, None, 0] * np.swapaxes(invJ, 1, 2)[:, None, :, :, None]
    x[:, 0, 0, 3:] = wref
    x[:, 1, 1, 3:] = wref
    loc = (x.reshape(4 * T, 5 * Q) @ cache.conv_table).reshape(T, 2, 2, 6, 6)
    loc *= (0.5 * space.detJ)[:, None, None, None, None]
    return loc.transpose(0, 3, 1, 4, 2)


def _slip_traction(ctx: AssemblyContext, u_tau: np.ndarray) -> np.ndarray:
    """Total tangential traction (F,Qf,2) at the slip-wall quadrature
    points: the law value, the verification correction, and the
    moving-wall rate term."""
    sig = ctx.law.sigma(u_tau, ctx.t)
    if ctx.slip_forcing is not None:
        g = ctx.slip_forcing(ctx.cache.slip.points.reshape(-1, 2), ctx.t)
        sig = sig + np.asarray(g, dtype=float).reshape(sig.shape)
    if ctx.law.beta_star > 0 and ctx.law.wall_velocity is not None \
            and ctx.delta is not None:
        sig = sig - ctx.law.beta_star * ctx.law.wall_velocity_rate(ctx.t, ctx.delta)
    return sig


def _slip_residual(ctx: AssemblyContext, u: np.ndarray) -> np.ndarray:
    """<sigma(u_tau), v_tau> over the slip wall."""
    sl = ctx.cache.slip
    u_tau = sl.split(sl.values(u))[1]
    return sl.load(sl.split(_slip_traction(ctx, u_tau))[1])


def _slip_jacobian(ctx: AssemblyContext, u: np.ndarray) -> np.ndarray:
    """Local (F,6,2,6,2) blocks of the derivative of the slip residual:
    P sigma'(u_tau) P under the trace mass, with P the tangential
    projector."""
    sl = ctx.cache.slip
    u_tau = sl.split(sl.values(u))[1]
    P = sl.P[:, None]
    return sl.blocks(P @ ctx.law.jacobian(u_tau, ctx.t) @ P)


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def assemble_residual(state: SystemState, ctx: AssemblyContext) -> np.ndarray:
    """Nonlinear residual of the fully discrete system at `state`.

    Dirichlet velocity rows report u_dof - g_D(node, t).
    """
    space = ctx.space
    u, p = state.u, state.p
    if u.shape != (space.n_vdofs,) or p.shape != (space.n_pdofs,):
        raise FormsError("state vector lengths do not match the space")
    if ctx.delta is not None and ctx.u_old is None:
        raise FormsError("unsteady assembly needs u_old")

    # the constant part, with the continuity rows (sign flipped for
    # symmetry); r_u views the momentum rows
    r = ctx.system_operator() @ ctx.pack(state)
    r_u = r[:space.n_vdofs]
    r_u += _slip_residual(ctx, u)
    if ctx.config.include_convection:
        r_u += _convection_residual(space, u)
    r_u -= ctx.force_vector()
    if ctx.delta is not None:
        r_u -= ctx.history_vector()

    # Dirichlet rows
    dd = space.dirichlet_vdofs
    r_u[dd] = u[dd] - ctx.dirichlet_values()[dd]
    return r


def assemble_jacobian(state: SystemState, ctx: AssemblyContext) -> sp.csc_matrix:
    """Exact derivative of assemble_residual with symmetric Dirichlet
    elimination (valid for updates vanishing at Dirichlet DOFs).

    Every Jacobian on a space has the same CSC pattern
    (`FormCache.pattern`), explicit zeros included.
    """
    pat = ctx.cache.pattern
    data = ctx.jacobian_constant() + pat.gather(pat.slip_pos,
                                                _slip_jacobian(ctx, state.u))
    if ctx.config.include_convection:
        data += pat.gather(pat.cell_pos, _convection_jacobian(ctx.cache, state.u))
    return pat.matrix(data)


# ---------------------------------------------------------------------------
# trilinear forms
# ---------------------------------------------------------------------------

def trilinear_skew(space: TaylorHoodSpace, u, v, w) -> float:
    """Skew convective form 1/2 [ ((u.grad)v, w) - ((u.grad)w, v) ]; for
    v equal to w the two terms are the same sum and cancel exactly."""
    (uv, _), (vv, gv), (wv, gw) = (space.velocity_at_quadrature(x)
                                   for x in (u, v, w))

    def term(grads, other):
        adv = uv[..., 0, None] * grads[..., 0] + uv[..., 1, None] * grads[..., 1]
        return np.sum(space.wdet * np.vecdot(adv, other))

    return 0.5 * float(term(gv, wv) - term(gw, vv))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WallProfile:
    """Per-point arrays on the slip wall, ordered by x (points of equal x,
    as on a vertical wall, keep their facet order)."""

    x: np.ndarray
    u_tau: np.ndarray      # |u_tau|
    sigma: np.ndarray      # |sigma_law(u_tau)|
    un: np.ndarray         # u . n


def boundary_functionals(state: SystemState, ctx: AssemblyContext) -> WallProfile:
    """Sample |u_tau|, |sigma(u_tau, ctx.t)| and u.n at the slip-facet
    quadrature points."""
    sl = ctx.cache.slip
    un, ut = sl.split(sl.values(state.u))
    sig = ctx.law.sigma(ut, ctx.t)
    x = sl.points[:, :, 0].ravel()
    order = np.argsort(x, kind="stable")
    return WallProfile(
        x=x[order],
        u_tau=np.linalg.norm(ut, axis=2).ravel()[order],
        sigma=np.linalg.norm(sig, axis=2).ravel()[order],
        un=un.ravel()[order],
    )


@dataclasses.dataclass
class EnergyBalance:
    """Named scalar terms of the per-step energy identity (antisymmetric
    variant: nitsche = 0 by cancellation) and their signed sum."""

    time: float
    viscous: float
    convective: float
    pressure: float
    slip: float
    penalty: float
    nitsche: float
    force: float
    residual: float
    penalty_form: float     # 2|Du|^2 - 4<(Du n).n, u.n> + alpha |h^-1/2 u.n|^2

    @property
    def scale(self) -> float:
        return max(
            abs(self.time), abs(self.viscous), abs(self.slip),
            abs(self.penalty), abs(self.force), 1e-300,
        )


def energy_balance(state: SystemState, ctx: AssemblyContext) -> EnergyBalance:
    """Evaluate the discrete energy identity at a converged step.

    Testing the momentum equation with the solution itself gives
    (d_t u, u)_B + 2 nu |Du|^2 + btilde(u,u,u) + pressure terms
    + <sigma, u_tau> + nu alpha |h^-1/2 u.n|^2 + nitsche terms = (f, u);
    at a converged step with homogeneous Dirichlet data the signed sum
    vanishes to solver tolerance.
    """
    c, cfg = ctx.cache, ctx.config
    u, p = state.u, state.p
    if ctx.delta is not None:
        du = (u - ctx.u_old) / ctx.delta
        t_time = float(du @ (c.M_u @ u) + ctx.law.beta_star * (du @ (c.M_B @ u)))
    else:
        t_time = 0.0
    kd = float(u @ (c.K_D @ u))
    pp = float(u @ (c.P_pen @ u))
    t_visc = 2.0 * cfg.nu * kd
    t_pres = -float(p @ (c.G_c @ u))
    t_slip = float(u @ _slip_residual(ctx, u))
    t_pen = cfg.nu * ctx.alpha * pp
    s = 1.0 if cfg.variant == "symmetric" else -1.0
    cu = float(u @ (c.C_nit @ u))
    t_nit = -2.0 * cfg.nu * (cu + s * cu)
    t_f = float(ctx.force_vector() @ u)
    resid = t_time + t_visc + t_pres + t_slip + t_pen + t_nit - t_f
    pform = 2.0 * kd - 4.0 * cu + ctx.alpha * pp
    # btilde(u, u, u) is an exact 0.0 (see trilinear_skew)
    return EnergyBalance(
        time=t_time, viscous=t_visc, convective=0.0, pressure=t_pres,
        slip=t_slip, penalty=t_pen, nitsche=t_nit, force=t_f,
        residual=resid, penalty_form=pform,
    )
