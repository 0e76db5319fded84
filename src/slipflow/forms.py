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
import scipy.sparse.linalg as spla

from .fespace import (FacetTable, TaylorHoodSpace, SystemState, block_indices,
                      scatter_blocks, vector_blocks)
from .sliplaw import SlipLaw


class FormsError(Exception):
    """Invalid assembly configuration."""


# OpenBLAS computes a product of m n k multiply-adds on the calling
# thread while m n k <= 65,536 x GEMM_MULTITHREAD_THRESHOLD (4 by
# default); a matrix-vector product (n = 1) stays there longer.  A
# worker it wakes spins for about 0.1 s after the product, beside the
# single-threaded sparse LU work that follows on the Newton path
# (README, "Dense kernels and BLAS threads")
SERIAL_MNK = 65536 * 4


def blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a and a 1-D or 2-D b, computed in row blocks of a
    of at most SERIAL_MNK multiply-adds each (one row, where a row takes
    more), so that OpenBLAS computes every block on the calling thread.
    Each row of a @ b depends on that row of a alone, so the blocks only
    split the work."""
    m, k = a.shape
    rows = max(1, SERIAL_MNK // max(1, k * (b.shape[1] if b.ndim == 2 else 1)))
    if m <= rows:
        return np.matmul(a, b)
    out = np.empty((m,) + b.shape[1:], dtype=np.result_type(a, b))
    for i in range(0, m, rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


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
        Nu, Np = space.n_vdofs, space.n_pdofs
        cd, pd = space.cell_vdofs, space.cell_pdofs
        cells = block_indices(cd, cd)
        # the mesh is affine: each cell block is a reference tensor of the
        # space contracted with det J and J^-1 (grad_x = J^-T grad_xi)
        dJ, iT = space.detJ[:, None, None], np.swapaxes(space.invJ, 1, 2)  # iT[t,d,j]
        self.M_u = scatter_blocks(vector_blocks(dJ * space.mass_tensor), cells, (Nu, Nu))

        # g[t,d,c,a,b] = (d_d phi_a, d_c phi_b): R[(a,b),(j,k)] contracted
        # with det J J^-1[j,d] J^-1[k,c], one 4 x 4 product per cell.  Not
        # `@`, which runs a threaded OpenBLAS GEMM that slows the sparse
        # LUs after it
        jj = dJ[..., None, None] * iT[:, :, None, :, None] * iT[:, None, :, None, :]
        g = np.einsum("tk,ak->ta", jj.reshape(-1, 4),
                      space.grad_tensor).reshape(-1, 2, 2, 6, 6)
        gg = g[:, 0, 0] + g[:, 1, 1]
        # full-gradient stiffness (grad u, grad v), used by certification
        self.K_G = scatter_blocks(vector_blocks(gg), cells, (Nu, Nu))
        # symmetric-gradient stiffness: (Du, Dv) for u = phi_b e_d,
        # v = phi_a e_c is (1/2)[delta_cd grad(phi_a).grad(phi_b)
        # + d_d(phi_a) d_c(phi_b)]
        self.K_D = scatter_blocks(0.5 * (vector_blocks(gg) + g.transpose(0, 3, 2, 4, 1)),
                                  cells, (Nu, Nu))

        # divergence coupling (q, div u), pressure integrals (q, 1) and
        # the pressure mass (p, q), used by certification
        bloc = space.div_tensor.reshape(18, 2) @ (dJ * space.invJ)
        self.B_div = scatter_blocks(bloc, block_indices(pd, cd), (Np, Nu))
        self.e_p = np.bincount(pd.ravel(), (dJ[:, 0] * space.p1_integrals).ravel(),
                               minlength=Np)
        self.M_p = scatter_blocks(dJ * space.p1_mass, block_indices(pd, pd), (Np, Np))

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
                                  block_indices(pd[sl.cells], sl.dofs), (Np, Nu))

        self.G_c = (self.B_div - self.B_n).tocsr()   # paper continuity operator

    @functools.cached_property
    def c_tr(self) -> float:
        """`stability.inverse_trace_constant` of the space, on first use."""
        from . import stability
        return stability.inverse_trace_constant(self.space)

    @functools.cached_property
    def c_trK(self) -> float:
        """`stability.trace_constant_xh` of the space, on first use."""
        from . import stability
        return stability.trace_constant_xh(self.space)

    @functools.cached_property
    def nd_rank(self) -> np.ndarray:
        """Each velocity node's nested-dissection rank (`nd_paths`), on
        first use."""
        return nd_paths(self.space)[0]

    def nd_sort(self, dofs: np.ndarray) -> np.ndarray:
        """The positions that put the ascending (u, p) unknowns `dofs` in
        nested-dissection order: by the rank of their node, a pressure
        DOF's node being its vertex, velocity before pressure at equal
        rank, then by index."""
        nu = self.space.n_vdofs
        node = np.where(dofs < nu, dofs // 2, dofs - nu)
        return np.lexsort((dofs >= nu, self.nd_rank[node]))

    def splu(self, A, dofs: np.ndarray, **options) -> "OrderedLU":
        """Sparse LU of A, whose rows and columns are the ascending (u, p)
        unknowns `dofs`: SuperLU factorizes A[q][:, q], q = `nd_sort(dofs)`,
        with `options`, in that natural order unless they name another
        `permc_spec`.  Every sparse LU on the space is made here."""
        q = self.nd_sort(dofs)
        # looked up at call time: a caller may have replaced spla.splu
        lu = spla.splu(A[q][:, q].tocsc(), **{"permc_spec": "NATURAL", **options})
        return OrderedLU(lu, q)

    @functools.cached_property
    def pattern(self) -> "JacobianPattern":
        """The Jacobian sparsity pattern, built on the first Jacobian."""
        return JacobianPattern(self)

    @functools.cached_property
    def slip_support(self) -> tuple[np.ndarray, np.ndarray]:
        """The slip support S, the live velocity DOFs with a nonzero
        tangential trace, and the position of each entry of the (F,6,2,6,2)
        slip-facet blocks in the dense (r, r) block on S, r*r where its
        row or column is outside S; built on the first use."""
        sl = self.slip
        trace = (sl.tr != 0).any(axis=2)[:, :, None] & (sl.P != 0).any(axis=2)[:, None]
        S = np.setdiff1d(sl.dofs.reshape(-1, 6, 2)[trace], self.space.dirichlet_vdofs)
        r = S.size
        local = np.where(np.isin(sl.dofs, S), np.searchsorted(S, sl.dofs), r)
        inside = (local[:, :, None] < r) & (local[:, None, :] < r)
        return S, np.where(inside, local[:, :, None] * r + local[:, None, :], r * r).ravel()

    @functools.cached_property
    def flux_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1^T G_c and 1^T |G_c| at the Dirichlet DOFs, where alone 1^T G_c
        is nonzero: the net flux of Dirichlet data g is the first . g."""
        ones, dd = np.ones(self.space.n_pdofs), self.space.dirichlet_vdofs
        return (self.G_c.T @ ones)[dd], (abs(self.G_c).T @ ones)[dd]


class OrderedLU:
    """SuperLU factors `lu` of A[q][:, q]; `solve` takes and returns
    vectors and column blocks in A's own order."""

    def __init__(self, lu, q: np.ndarray):
        self.lu, self.q = lu, q
        self.shape, self.nnz = lu.shape, lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(b.shape)
        x[self.q] = self.lu.solve(b[self.q])
        return x


# nested dissection stops at boxes of at most this many velocity nodes
ND_LEAF = 8


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
    diagonal slot (k, k), the last stored entry, sits at the last
    pressure DOF k.  Rows and columns of the Dirichlet velocity DOFs are
    eliminated and never stored; each gets a unit diagonal.  A Jacobian
    A on (u, p) is a `data` array over this pattern; `cell_pos` (T*144)
    and `slip_pos` (F*144) locate the entries of the (T,12,12) cell and
    (F,12,12) slip-facet blocks in it, with `nnz` for an eliminated
    entry.
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
        # column-major keys sort into CSC order; sort and drop repeats
        # (np.unique hashes first and takes ten times as long)
        keys = np.sort(np.concatenate([cols[live] * n + rows[live],
                                       fixed * (n + 1)]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        self.nnz = keys.size
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n, minlength=n))]
        ).astype(np.int32)
        self.fixed_pos = np.searchsorted(keys, fixed * (n + 1))
        self.cell_pos = self.positions(cell_rows, cell_cols)
        self.slip_pos = self.positions(*block_indices(cache.slip.dofs,
                                                      cache.slip.dofs))

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

    forcing(x, t) -> (N,2) is the body force.  A forcing with an integer
    attribute `time_degree` d promises to be a polynomial of degree at
    most d in t: its load vector is then built from its values at
    t = 0..d on first use, and each step's load vector follows from
    them (`force_vector`).  Any other callable is evaluated at every
    step.  dirichlet is the boundary
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
        self.forcing = forcing          # also clears the load cache
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
        self._hist_t = None
        self._g_t = None

    @property
    def forcing(self) -> Optional[Callable]:
        return self._forcing

    @forcing.setter
    def forcing(self, forcing: Optional[Callable]) -> None:
        self._forcing = forcing
        self._force_coeffs = None
        self._rhs_t = None

    def _resolve_alpha(self) -> float:
        if self.config.alpha != "auto":
            return float(self.config.alpha)
        from .stability import resolve_alpha

        c_trk = self.cache.c_trK if self.law.lam > 0 else None
        return resolve_alpha(self.config, self.law, self.cache.c_tr, c_trk)

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
        """(f(.,t), v) for all velocity test functions.

        For a forcing of `time_degree` d the load vectors are
        F(t) = sum_k t^k A_k: the A_k are interpolated once from F at
        t = 0..d, and F(t) is summed by Horner's rule."""
        if self._rhs_t is None:
            degree = getattr(self.forcing, "time_degree", None)
            if degree is None:
                self._rhs_t = self._load(self.t)
            else:
                if self._force_coeffs is None:
                    nodes = np.arange(degree + 1.0)
                    self._force_coeffs = np.linalg.solve(
                        np.vander(nodes, increasing=True),
                        np.stack([self._load(float(s)) for s in nodes]))
                F = self._force_coeffs[-1]
                for A in self._force_coeffs[-2::-1]:
                    F = F * self.t + A
                self._rhs_t = F
        return self._rhs_t

    def _load(self, t: float) -> np.ndarray:
        """(f(.,t), v) by quadrature at every cell point."""
        space = self.space
        if self.forcing is None:
            return np.zeros(space.n_vdofs)
        X = space.xq.reshape(-1, 2)
        fv = np.asarray(self.forcing(X, t), dtype=float).reshape(space.xq.shape)
        loc = space.phi @ (space.wdet[:, :, None] * fv)     # (T,6,2)
        return np.bincount(space.cell_vdofs.ravel(), loc.ravel(),
                           minlength=space.n_vdofs)

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

def _skew(space: TaylorHoodSpace, u: np.ndarray):
    """Cell values U (T,6,2) of u, S = 1/2 detJ invJ (T,2,2) and the
    antisymmetric H (T,6,6) of u as transport velocity: btilde(u, v, w)
    sums w_c^T H v_c over the cells and components c.  H = (U S^T) K,
    the cell values of 1/2 detJ invJ u contracted with the reference
    tensor K = space.skew_tensor."""
    U = u[space.cell_vdofs].reshape(-1, 6, 2)
    S = (0.5 * space.detJ)[:, None, None] * space.invJ
    H = blocked_matmul((U @ np.swapaxes(S, 1, 2)).reshape(-1, 12), space.skew_tensor)
    return U, S, H.reshape(-1, 6, 6)


def _convection_residual(space: TaylorHoodSpace, u: np.ndarray) -> np.ndarray:
    """btilde(u, u, v) for all velocity test functions v."""
    U, _, H = _skew(space, u)
    return np.bincount(space.cell_vdofs.ravel(), (H @ U).ravel(),
                       minlength=space.n_vdofs)


def convection_derivative(space: TaylorHoodSpace, w: np.ndarray,
                          d: np.ndarray) -> np.ndarray:
    """C(w) d, for C(w) the convection Jacobian at w, with the Dirichlet
    rows zeroed: 1/2 [c(w + d) - c(w - d)], exact because the convection
    residual c is quadratic."""
    y = 0.5 * (_convection_residual(space, w + d) - _convection_residual(space, w - d))
    y[space.dirichlet_vdofs] = 0.0
    return y


def _convection_jacobian(cache: FormCache, u: np.ndarray) -> np.ndarray:
    """Local (T,6,2,6,2) blocks of the derivative of btilde(u, u, v) in u,
    btilde(u, w, v) + btilde(w, u, v) for v = phi_a e_c and w = phi_b e_d:
    H[a, b] delta_cd, plus K contracted with u_c and then with S[:, d]."""
    space = cache.space
    U, S, H = _skew(space, u)
    T = len(U)
    # sum over b' of K[(b,j),(a,b')] u_c[b'], rows (t, c), columns (b, j, a)
    KU = blocked_matmul(np.swapaxes(U, 1, 2).reshape(2 * T, 6),
                        space.skew_tensor.reshape(72, 6).T)
    # then sum over j of S[j, d]: loc (T,c,b,d,a)
    loc = np.swapaxes(S, 1, 2)[:, None, None] @ KU.reshape(T, 2, 6, 2, 6)
    loc[:, 0, :, 0] += np.swapaxes(H, 1, 2)
    loc[:, 1, :, 1] += np.swapaxes(H, 1, 2)
    return loc.transpose(0, 4, 1, 2, 3)


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


def slip_block(ctx: AssemblyContext, u: np.ndarray) -> np.ndarray:
    """The dense (r, r) block of the slip Jacobian on the slip support S
    (`FormCache.slip_support`): the only block of the Jacobian that the
    slip law moves."""
    S, pos = ctx.cache.slip_support
    r = S.size
    return np.bincount(pos, _slip_jacobian(ctx, u).ravel(),
                       minlength=r * r + 1)[:r * r].reshape(r, r)


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
    """Skew convective form 1/2 [ ((u.grad)v, w) - ((u.grad)w, v) ], as the
    difference of two one-sided sums; for v equal to w they are the same
    sum and cancel exactly."""
    _, _, H = _skew(space, u)
    V, W = (x[space.cell_vdofs].reshape(-1, 6, 2) for x in (v, w))
    return 0.5 * float(np.sum(W * (H @ V)) - np.sum(V * (H @ W)))


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
