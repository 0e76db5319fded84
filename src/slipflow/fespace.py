"""Taylor-Hood P2/P1 spaces on triangulations.

Reference bases, DOF numbering, quadrature, field evaluation (values,
gradients, symmetric gradients, traces), per-facet tables of boundary
facet selections, nodal interpolation and error norms.  Velocity DOFs
are interleaved (x-component, y-component) per node with nodes ordered
vertices-then-edge-midpoints; pressure DOFs live on the vertices.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, BoundaryTag


# ---------------------------------------------------------------------------
# reference element
# ---------------------------------------------------------------------------

def p2_basis(points: np.ndarray):
    """Values and reference gradients of the 6 P2 Lagrange functions.

    Local node order: vertices 0,1,2 then midpoints of the edges opposite
    each vertex (edge k joins vertices k+1, k+2 mod 3).  Returns
    (values (6, Q), gradients (6, Q, 2)).
    """
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y])                       # (3, Q)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])   # (3, 2)

    Q = pts.shape[0]
    val = np.empty((6, Q))
    grad = np.empty((6, Q, 2))
    for i in range(3):
        val[i] = lam[i] * (2.0 * lam[i] - 1.0)
        grad[i] = (4.0 * lam[i] - 1.0)[:, None] * dlam[i]
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        val[3 + k] = 4.0 * lam[i] * lam[j]
        grad[3 + k] = 4.0 * (lam[i][:, None] * dlam[j] + lam[j][:, None] * dlam[i])
    return val, grad


def p1_basis(points: np.ndarray):
    """Values and reference gradients of the 3 P1 Lagrange functions."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    val = np.stack([1.0 - x - y, x, y])
    grad = np.broadcast_to(
        np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])[:, None, :],
        (3, pts.shape[0], 2),
    ).copy()
    return val, grad


def triangle_quadrature(degree: int = 6):
    """Positive-weight rule on the reference triangle, exact to `degree`.

    Built from a tensor Gauss-Legendre rule through the Duffy (collapsed
    square) map x = s, y = t (1 - s); the extra factor (1 - s) raises the
    s-degree by one, so ng points per direction integrate total degree
    2 ng - 2 exactly.
    """
    # the s-direction carries degree+1, so 2*ng - 1 >= degree + 1 is needed
    ng = max(2, -(-(degree + 2) // 2))
    gs, ws = np.polynomial.legendre.leggauss(ng)
    gs = 0.5 * (gs + 1.0)
    ws = 0.5 * ws
    S, T = np.meshgrid(gs, gs, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    x = S.ravel()
    y = (T * (1.0 - S)).ravel()
    w = (WS * WT * (1.0 - S)).ravel()
    return np.column_stack([x, y]), w


def interval_quadrature(degree: int = 6):
    """Gauss-Legendre rule on [0,1], exact to `degree`."""
    ng = max(1, (degree + 2) // 2)
    g, w = np.polynomial.legendre.leggauss(ng)
    return 0.5 * (g + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# states and error norms
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SystemState:
    """Velocity/pressure coefficients plus the scalar mean-pressure multiplier."""

    u: np.ndarray
    p: np.ndarray
    m: float = 0.0

    def copy(self) -> "SystemState":
        return SystemState(self.u.copy(), self.p.copy(), self.m)

    @classmethod
    def zero(cls, space: "TaylorHoodSpace") -> "SystemState":
        return cls(np.zeros(space.n_vdofs), np.zeros(space.n_pdofs), 0.0)


@dataclasses.dataclass(frozen=True)
class ErrorNorms:
    l2_u: float
    h1_u: float
    l2_p: float
    l2_tau: float   # tangential trace error on the slip boundary
    l2_un: float    # normal trace of the error on the slip boundary


# ---------------------------------------------------------------------------
# boundary-facet tables
# ---------------------------------------------------------------------------

class FacetTable:
    """Per-facet arrays of one boundary-facet selection, gathered once
    from the space's facet tables.

    F facets with Qf quadrature points each: velocity dofs (F,12) of the
    adjacent cells, P2 traces (F,6,Qf), quadrature weights h_F w_q (F,Qf),
    outward normals (F,2), tangential projectors I - n n^T (F,2,2),
    physical points (F,Qf,2), and the row/column indices that scatter
    (F,12,12) local blocks.
    """

    def __init__(self, space: TaylorHoodSpace, facets):
        mesh = space.mesh
        self.space = space
        self.facets = np.asarray(facets, dtype=np.int64)
        self.cells = mesh.facet_cells[self.facets]
        self.dofs = space.cell_vdofs[self.cells]
        self.tr = space.ftr[self.facets]
        self.w = mesh.facet_h[self.facets][:, None] * space.fqweights
        self.n = mesh.facet_normals[self.facets]
        self.P = np.eye(2) - self.n[:, :, None] * self.n[:, None, :]
        self.points = space.fpoints[self.facets]
        self.rows = np.repeat(self.dofs, 12, axis=1).ravel()
        self.cols = np.tile(self.dofs, (1, 12)).ravel()

    def values(self, u: np.ndarray) -> np.ndarray:
        """Velocity traces (F,Qf,2) at the facet quadrature points."""
        return np.einsum("fac,faq->fqc", u[self.dofs].reshape(-1, 6, 2), self.tr)

    def split(self, g: np.ndarray):
        """Normal parts (F,Qf) and tangential parts (F,Qf,2) of a field
        g (F,Qf,2) given at the facet quadrature points."""
        gn = (g * self.n[:, None, :]).sum(axis=2)
        return gn, g - gn[:, :, None] * self.n[:, None, :]

    def load(self, g: np.ndarray) -> np.ndarray:
        """<g, v> for all velocity test functions, g given (F,Qf,2)."""
        loc = np.einsum("fq,faq,fqc->fac", self.w, self.tr, g)
        return np.bincount(self.dofs.ravel(), loc.ravel(),
                           minlength=self.space.n_vdofs)

    def matrix(self, loc: np.ndarray) -> sp.csr_matrix:
        """Scatter local (F,6,2,6,2) blocks into a velocity matrix."""
        Nu = self.space.n_vdofs
        return sp.coo_matrix((loc.ravel(), (self.rows, self.cols)),
                             shape=(Nu, Nu)).tocsr()

    def mass(self, normal: bool = False, per_h: bool = False) -> sp.csr_matrix:
        """The boundary mass <u, v>, or <u.n, v.n> when `normal`, over the
        selection; `per_h` puts the weight h_F^-1 into the integrand."""
        w = np.broadcast_to(self.space.fqweights, self.w.shape) if per_h else self.w
        tt = np.einsum("fq,faq,fbq->fab", w, self.tr, self.tr)
        if normal:
            loc = np.einsum("fab,fc,fd->facbd", tt, self.n, self.n)
        else:
            loc = np.zeros((len(tt), 6, 2, 6, 2))
            loc[:, :, 0, :, 0] = tt
            loc[:, :, 1, :, 1] = tt
        return self.matrix(loc)


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

class TaylorHoodSpace:
    """P2 velocity / P1 pressure space with precomputed geometry tables.

    Immutable after construction; evaluation methods are reentrant.
    """

    def __init__(self, mesh: Mesh, cell_degree: int = 6, facet_degree: int = 6):
        mesh.require_tagged()
        self.mesh = mesh

        self.n_vnodes = mesh.num_vertices + mesh.num_edges
        self.n_vdofs = 2 * self.n_vnodes
        self.n_pdofs = mesh.num_vertices

        # velocity node coordinates: vertices then edge midpoints
        mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.vnode_coords = np.vstack([mesh.vertices, mid])

        # cell -> 6 velocity nodes (vertices, then opposite-edge midpoints)
        self.cell_vnodes = np.hstack(
            [mesh.cells, mesh.num_vertices + mesh.cell_edges]
        )
        # cell -> 12 velocity dofs, interleaved components
        cv = self.cell_vnodes
        self.cell_vdofs = np.empty((mesh.num_cells, 12), dtype=np.int64)
        self.cell_vdofs[:, 0::2] = 2 * cv
        self.cell_vdofs[:, 1::2] = 2 * cv + 1
        self.cell_pdofs = mesh.cells

        # quadrature and reference bases
        self.qpoints, self.qweights = triangle_quadrature(cell_degree)
        self.phi, self.dphi = p2_basis(self.qpoints)           # (6,Q), (6,Q,2)
        self.psi, self.dpsi = p1_basis(self.qpoints)           # (3,Q), (3,Q,2)
        self.fqpoints, self.fqweights = interval_quadrature(facet_degree)

        # affine geometry per cell
        p = mesh.vertices[mesh.cells]                          # (T,3,2)
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # (T,2,2), cols
        self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJ = np.empty_like(J)
        invJ[:, 0, 0] = J[:, 1, 1]
        invJ[:, 0, 1] = -J[:, 0, 1]
        invJ[:, 1, 0] = -J[:, 1, 0]
        invJ[:, 1, 1] = J[:, 0, 0]
        invJ /= self.detJ[:, None, None]
        self.invJ = invJ
        # physical gradients of P2/P1 bases at all quadrature points
        # grad_x phi = invJ^T grad_ref phi
        self.G = np.einsum("aqj,tji->taqi", self.dphi, invJ)    # (T,6,Q,2)
        self.Gp = np.einsum("aqj,tji->taqi", self.dpsi, invJ)   # (T,3,Q,2)
        # physical quadrature points
        self.xq = p[:, None, 0, :] + np.einsum(
            "tij,qj->tqi", J, self.qpoints
        )                                                       # (T,Q,2)

        self._build_facet_tables()
        self._build_dirichlet()

    # -- facet tables -------------------------------------------------------

    def _facet_ref_points(self, facets, s) -> np.ndarray:
        """Reference-cell coordinates (len(facets), len(s), 2) of the arc
        parameters s in [0,1] along boundary facets, from the facet's
        first vertex to its second."""
        mesh = self.mesh
        cverts = mesh.cells[mesh.facet_cells[facets]]              # (F,3)
        fv = mesh.facet_vertices[facets]                           # (F,2)
        ref_v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ra = ref_v[np.argmax(cverts == fv[:, :1], axis=1)]         # (F,2)
        rb = ref_v[np.argmax(cverts == fv[:, 1:], axis=1)]
        s = np.asarray(s, dtype=float)
        return ra[:, None, :] + s[None, :, None] * (rb - ra)[:, None, :]

    def _build_facet_tables(self):
        mesh = self.mesh
        Qf = self.fqpoints.shape[0]
        F = mesh.num_facets
        xi = self._facet_ref_points(np.arange(F), self.fqpoints).reshape(-1, 2)
        val, grad = p2_basis(xi)
        pval, _ = p1_basis(xi)
        # P2 values, physical P2 gradients and P1 values at facet points
        self.ftr = val.reshape(6, F, Qf).transpose(1, 0, 2).copy()      # (F,6,Qf)
        self.fgrad = np.einsum("afqj,fji->faqi", grad.reshape(6, F, Qf, 2),
                               self.invJ[mesh.facet_cells])            # (F,6,Qf,2)
        self.fpsi = pval.reshape(3, F, Qf).transpose(1, 0, 2).copy()    # (F,3,Qf)
        a = mesh.vertices[mesh.facet_vertices[:, 0]]
        b = mesh.vertices[mesh.facet_vertices[:, 1]]
        self.fpoints = a[:, None, :] + self.fqpoints[None, :, None] * (b - a)[:, None, :]

        self.slip_facets = np.flatnonzero(mesh.facet_tags == BoundaryTag.SLIP)
        self.dirichlet_facets = np.flatnonzero(
            mesh.facet_tags == BoundaryTag.DIRICHLET
        )

    def facet_vnodes(self, facets) -> np.ndarray:
        """Sorted velocity nodes (both vertices and the edge midpoint) of
        the given boundary facets."""
        mesh = self.mesh
        return np.unique(np.concatenate([
            mesh.facet_vertices[facets].ravel(),
            mesh.num_vertices + mesh.facet_edges[facets],
        ])).astype(np.int64)

    def _build_dirichlet(self):
        """Velocity DOFs on Dirichlet facets (corner nodes shared with the
        slip wall count as Dirichlet: strong zero wins)."""
        self.dirichlet_vnodes = self.facet_vnodes(self.dirichlet_facets)
        self.dirichlet_vdofs = np.sort(
            np.concatenate([2 * self.dirichlet_vnodes, 2 * self.dirichlet_vnodes + 1])
        )

    # -- interpolation ------------------------------------------------------

    def interpolate_velocity(self, f, t: float | None = None) -> np.ndarray:
        """Nodal P2 interpolant of a vector field f(x[, t]) -> (N,2)."""
        vals = f(self.vnode_coords) if t is None else f(self.vnode_coords, t)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (self.n_vnodes, 2):
            raise ValueError(f"velocity field returned shape {vals.shape}")
        u = np.empty(self.n_vdofs)
        u[0::2] = vals[:, 0]
        u[1::2] = vals[:, 1]
        return u

    def interpolate_pressure(self, f, t: float | None = None) -> np.ndarray:
        """Nodal P1 interpolant of a scalar field f(x[, t]) -> (N,)."""
        x = self.mesh.vertices
        vals = f(x) if t is None else f(x, t)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        if vals.shape != (self.n_pdofs,):
            raise ValueError(f"pressure field returned shape {vals.shape}")
        return vals

    # -- pointwise evaluation ------------------------------------------------

    def evaluate_velocity(self, u: np.ndarray, cell: int, point):
        """Value, gradient and symmetric gradient of a velocity field at a
        reference point of a cell.  grad[i, j] = d u_i / d x_j."""
        val6, grad6 = p2_basis(np.asarray(point, dtype=float)[None, :])
        loc = u[self.cell_vdofs[cell]].reshape(6, 2)
        value = loc.T @ val6[:, 0]
        gphys = np.einsum("aj,ji->ai", grad6[:, 0, :], self.invJ[cell])
        grad = loc.T @ gphys                     # (2 comps, 2 derivs)
        D = 0.5 * (grad + grad.T)
        return value, grad, D

    def evaluate_pressure(self, p: np.ndarray, cell: int, point) -> float:
        val3, _ = p1_basis(np.asarray(point, dtype=float)[None, :])
        return float(p[self.cell_pdofs[cell]] @ val3[:, 0])

    def trace_split(self, u: np.ndarray, facet: int, s: float):
        """Normal and tangential parts of the velocity trace at arc
        parameter s in [0,1] along a boundary facet."""
        sval, sgrad = self.facet_trace(u, facet, np.array([s]))
        v = sval[0]
        n = self.mesh.facet_normals[facet]
        vn = float(v @ n)
        return vn, v - vn * n

    def facet_trace(self, u: np.ndarray, facet: int, s: np.ndarray):
        """Velocity values and gradients at points along a boundary facet."""
        t = self.mesh.facet_cells[facet]
        val6, grad6 = p2_basis(self._facet_ref_points([facet], s)[0])
        loc = u[self.cell_vdofs[t]].reshape(6, 2)
        vals = np.einsum("ac,aq->qc", loc, val6)
        gphys = np.einsum("aqj,ji->aqi", grad6, self.invJ[t])
        grads = np.einsum("ac,aqi->qci", loc, gphys)
        return vals, grads

    def locate_cell(self, x, tol: float = 1e-12) -> int:
        """Cell containing the physical point x (brute-force scan)."""
        x = np.asarray(x, dtype=float)
        p0 = self.mesh.vertices[self.mesh.cells[:, 0]]
        xi = np.einsum("tij,tj->ti", self.invJ, x[None, :] - p0)
        ok = (
            (xi[:, 0] >= -tol)
            & (xi[:, 1] >= -tol)
            & (xi.sum(axis=1) <= 1.0 + tol)
        )
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            raise ValueError(f"point {x.tolist()} outside the mesh")
        return int(hits[0])

    # -- bulk evaluation at quadrature points --------------------------------

    def velocity_at_quadrature(self, u: np.ndarray):
        """Values (T,Q,2) and gradients (T,Q,2,2) at all cell quad points."""
        loc = u[self.cell_vdofs].reshape(-1, 6, 2)              # (T,6,2)
        vals = np.einsum("tac,aq->tqc", loc, self.phi)
        grads = np.einsum("tac,taqi->tqci", loc, self.G)
        return vals, grads

    def pressure_at_quadrature(self, p: np.ndarray):
        loc = p[self.cell_pdofs]                                 # (T,3)
        return np.einsum("ta,aq->tq", loc, self.psi)

    # -- error norms ----------------------------------------------------------

    def error_norms(self, state: SystemState, exact_u, exact_p, t: float = 0.0,
                    exact_grad_u=None) -> ErrorNorms:
        """Quadrature norms of the difference to an exact pair.

        exact_u(x, t) -> (N,2) and exact_p(x, t) -> (N,); the H1 seminorm
        needs the analytic gradient exact_grad_u(x, t) -> (N,2,2) and is NaN
        without it.  Also returns the L2(Gamma_s) norms of the tangential
        and normal trace error.
        """
        uh, guh = self.velocity_at_quadrature(state.u)
        ph = self.pressure_at_quadrature(state.p)
        X = self.xq.reshape(-1, 2)
        ue = np.asarray(exact_u(X, t), dtype=float).reshape(self.xq.shape)
        pe = np.asarray(exact_p(X, t), dtype=float).reshape(ph.shape)

        wdet = self.qweights[None, :] * self.detJ[:, None]       # (T,Q)
        du = uh - ue
        l2u = np.sqrt(np.einsum("tq,tqc->", wdet, du**2))
        l2p = np.sqrt(np.einsum("tq,tq->", wdet, (ph - pe) ** 2))

        if exact_grad_u is not None:
            Ge = np.asarray(exact_grad_u(X, t), dtype=float).reshape(guh.shape)
            h1u = np.sqrt(np.einsum("tq,tqci->", wdet, (guh - Ge) ** 2))
        else:
            h1u = np.nan

        # slip-boundary trace errors
        sl = FacetTable(self, self.slip_facets)
        ve = np.asarray(exact_u(sl.points.reshape(-1, 2), t), dtype=float)
        dvn, dvt = sl.split(sl.values(state.u) - ve.reshape(sl.points.shape))
        l2tau = np.sum(sl.w * (dvt * dvt).sum(axis=2))
        l2un = np.sum(sl.w * dvn**2)
        return ErrorNorms(
            float(l2u), float(h1u), float(l2p), float(np.sqrt(l2tau)),
            float(np.sqrt(l2un)),
        )
