"""Taylor-Hood P2/P1 spaces on triangulations.

Reference bases, DOF numbering, quadrature, field evaluation (at the
quadrature points, and at physical points through one sparse operator),
per-facet tables of boundary facet selections, nodal interpolation and
error norms.  Velocity DOFs are interleaved (x-component, y-component)
per node with nodes ordered vertices-then-edge-midpoints; pressure DOFs
live on the vertices.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from .mesh import GEOM_TOL, BoundaryTag, Mesh, MeshError


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


def p1_basis(points: np.ndarray) -> np.ndarray:
    """Values (3, Q) of the 3 P1 Lagrange functions."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y])


# Gauss-Legendre points per direction of both quadrature rules: the
# interval rule is exact to degree 2 QUAD_POINTS - 1 = 7, the triangle
# rule to total degree 2 QUAD_POINTS - 2 = 6
QUAD_POINTS = 4


def triangle_quadrature():
    """Positive-weight rule on the reference triangle, exact to degree 6.

    Built from a tensor Gauss-Legendre rule through the Duffy (collapsed
    square) map x = s, y = t (1 - s); the extra factor (1 - s) raises the
    s-degree by one, so ng points per direction integrate total degree
    2 ng - 2 exactly.
    """
    gs, ws = np.polynomial.legendre.leggauss(QUAD_POINTS)
    gs = 0.5 * (gs + 1.0)
    ws = 0.5 * ws
    S, T = np.meshgrid(gs, gs, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    x = S.ravel()
    y = (T * (1.0 - S)).ravel()
    w = (WS * WT * (1.0 - S)).ravel()
    return np.column_stack([x, y]), w


def interval_quadrature():
    """Gauss-Legendre rule on [0,1], exact to degree 7."""
    g, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    return 0.5 * (g + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# states and error norms
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SystemState:
    """Velocity and pressure coefficients."""

    u: np.ndarray
    p: np.ndarray

    @property
    def m(self) -> float:
        """0.0 (no multiplier); read only by `benchmarks/workloads.py`."""
        return 0.0

    def copy(self) -> "SystemState":
        return SystemState(self.u.copy(), self.p.copy())

    @classmethod
    def zero(cls, space: "TaylorHoodSpace") -> "SystemState":
        return cls(np.zeros(space.n_vdofs), np.zeros(space.n_pdofs))


@dataclasses.dataclass(frozen=True)
class ErrorNorms:
    l2_u: float
    h1_u: float
    l2_p: float
    l2_tau: float   # tangential trace error on the slip boundary
    l2_un: float    # normal trace of the error on the slip boundary


def block_indices(row_dofs: np.ndarray, col_dofs: np.ndarray):
    """Row and column indices of the local blocks (K,R,C) that couple the
    per-item dofs row_dofs (K,R) with col_dofs (K,C), row-major."""
    return (np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel(),
            np.tile(col_dofs, (1, row_dofs.shape[1])).ravel())


def vector_blocks(m: np.ndarray) -> np.ndarray:
    """Local (K,6,2,6,2) blocks m[k,a,b] delta_cd of a scalar form m (K,6,6)."""
    loc = np.zeros((len(m), 6, 2, 6, 2))
    loc[:, :, 0, :, 0] = m
    loc[:, :, 1, :, 1] = m
    return loc


def scatter_blocks(loc: np.ndarray, index, shape) -> sp.csr_matrix:
    """Sum the local blocks loc (K*R*C entries, row-major) into a CSR
    matrix of `shape`; `index` is `block_indices` of their dofs."""
    return sp.coo_matrix((loc.ravel(), index), shape=shape).tocsr()


# ---------------------------------------------------------------------------
# boundary-facet tables
# ---------------------------------------------------------------------------

class FacetTable:
    """Per-facet arrays of one boundary-facet selection, gathered once
    from the space's facet tables.

    F facets with Qf quadrature points each: velocity dofs (F,12) of the
    adjacent cells, P2 traces (F,6,Qf), quadrature weights h_F w_q (F,Qf),
    outward normals (F,2), tangential projectors I - n n^T (F,2,2),
    and physical points (F,Qf,2).
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

    def values(self, u: np.ndarray) -> np.ndarray:
        """Velocity traces (F,Qf,2) at the facet quadrature points."""
        return np.swapaxes(self.tr, 1, 2) @ u[self.dofs].reshape(-1, 6, 2)

    def split(self, g: np.ndarray):
        """Normal parts (F,Qf) and tangential parts (F,Qf,2) of a field
        g (F,Qf,2) given at the facet quadrature points."""
        gn = (g * self.n[:, None, :]).sum(axis=2)
        return gn, g - gn[:, :, None] * self.n[:, None, :]

    def load(self, g: np.ndarray) -> np.ndarray:
        """<g, v> for all velocity test functions, g given (F,Qf,2)."""
        loc = self.tr @ (self.w[:, :, None] * g)
        return np.bincount(self.dofs.ravel(), loc.ravel(),
                           minlength=self.space.n_vdofs)

    def blocks(self, K: np.ndarray) -> np.ndarray:
        """Local (F,6,2,6,2) blocks of <K v, w> for a matrix field K
        (F,Qf,2,2) given at the facet quadrature points."""
        F, Qf = self.w.shape
        ttw = self.w[:, :, None, None] * (self.tr.transpose(0, 2, 1)[:, :, :, None]
                                          * self.tr.transpose(0, 2, 1)[:, :, None, :])
        loc = np.swapaxes(ttw.reshape(F, Qf, 36), 1, 2) @ K.reshape(F, Qf, 4)
        return loc.reshape(F, 6, 6, 2, 2).transpose(0, 1, 3, 2, 4)

    def matrix(self, loc: np.ndarray) -> sp.csr_matrix:
        """Scatter local (F,6,2,6,2) blocks into a velocity matrix."""
        Nu = self.space.n_vdofs
        return scatter_blocks(loc, block_indices(self.dofs, self.dofs), (Nu, Nu))

    def trace_mass(self, per_h: bool = False) -> np.ndarray:
        """Facet masses (F,6,6) of the scalar P2 traces; `per_h` as in `mass`."""
        w = np.broadcast_to(self.space.fqweights, self.w.shape) if per_h else self.w
        return np.einsum("fq,faq,fbq->fab", w, self.tr, self.tr)

    def mass(self, normal: bool = False, per_h: bool = False) -> sp.csr_matrix:
        """The boundary mass <u, v>, or <u.n, v.n> when `normal`, over the
        selection; `per_h` puts the weight h_F^-1 into the integrand."""
        tt = self.trace_mass(per_h)
        if normal:
            return self.matrix(np.einsum("fab,fc,fd->facbd", tt, self.n, self.n))
        return self.matrix(vector_blocks(tt))


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

class TaylorHoodSpace:
    """P2 velocity / P1 pressure space with precomputed geometry tables.

    Immutable after construction; evaluation methods are reentrant.
    """

    def __init__(self, mesh: Mesh):
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

        # quadrature (exact to degree 6) and reference bases
        self.qpoints, self.qweights = triangle_quadrature()
        self.phi, self.dphi = p2_basis(self.qpoints)           # (6,Q), (6,Q,2)
        self.psi = p1_basis(self.qpoints)                      # (3,Q)
        self.fqpoints, self.fqweights = interval_quadrature()

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
        self.wdet = self.qweights[None, :] * self.detJ[:, None]   # (T,Q)
        # the P2 basis at the quadrature points: values, then the d/d xi_0
        # and d/d xi_1 reference derivatives, Q columns each
        self.ref_table = np.hstack(
            [self.phi, self.dphi[:, :, 0], self.dphi[:, :, 1]]
        )                                                       # (6,3Q)
        # reference tensor K of the skew convection form (forms._skew):
        # K[(e,j),(a,b)] = sum_q w_q phi_e d_j phi_b phi_a, less the same
        # with a and b swapped, so K is antisymmetric in (a, b)
        t0 = np.einsum("q,eq,bqj,aq->ejab", self.qweights, self.phi,
                       self.dphi, self.phi)
        self.skew_tensor = (t0 - t0.swapaxes(2, 3)).reshape(12, 36)
        # reference tensors of the constant forms (forms.FormCache): P2 mass,
        # R[(a,b),(i,j)] = sum_q w_q d_i phi_a d_j phi_b, the divergence
        # D[i,b,j] = sum_q w_q psi_i d_j phi_b, P1 mass and P1 integrals
        w = self.qweights
        self.mass_tensor = (w * self.phi) @ self.phi.T                 # (6,6)
        self.grad_tensor = np.einsum("q,aqi,bqj->abij", w, self.dphi,
                                     self.dphi).reshape(36, 4)
        self.div_tensor = np.einsum("q,iq,bqj->ibj", w, self.psi, self.dphi)
        self.p1_mass = (w * self.psi) @ self.psi.T                     # (3,3)
        self.p1_integrals = self.psi @ w                               # (3,)
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
        pval = p1_basis(xi)
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

    def interpolate_velocity(self, f) -> np.ndarray:
        """Nodal P2 interpolant of a vector field f(x) -> (N,2)."""
        vals = np.asarray(f(self.vnode_coords), dtype=float)
        if vals.shape != (self.n_vnodes, 2):
            raise ValueError(f"velocity field returned shape {vals.shape}")
        u = np.empty(self.n_vdofs)
        u[0::2] = vals[:, 0]
        u[1::2] = vals[:, 1]
        return u

    def interpolate_pressure(self, f) -> np.ndarray:
        """Nodal P1 interpolant of a scalar field f(x) -> (N,)."""
        vals = np.asarray(f(self.mesh.vertices), dtype=float).reshape(-1)
        if vals.shape != (self.n_pdofs,):
            raise ValueError(f"pressure field returned shape {vals.shape}")
        return vals

    # -- pointwise evaluation ------------------------------------------------

    def point_operator(self, points) -> sp.csr_matrix:
        """Sparse (2P, Nu) evaluation matrix E of P physical points:
        (E u)[2k + c] = u_c(x_k).  Each point is evaluated in the first
        cell that contains it up to GEOM_TOL in reference coordinates;
        a point outside the mesh raises MeshError."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise MeshError(f"points must be finite, got {pts.tolist()}")
        p0 = self.mesh.vertices[self.mesh.cells[:, 0]]
        cells = np.empty(len(pts), dtype=np.int64)
        xi = np.empty_like(pts)
        for k, x in enumerate(pts):
            ref = (self.invJ @ (x - p0)[:, :, None])[:, :, 0]       # (T,2)
            hits = np.flatnonzero((ref >= -GEOM_TOL).all(axis=1)
                                  & (ref.sum(axis=1) <= 1.0 + GEOM_TOL))
            if hits.size == 0:
                raise MeshError(f"point {x.tolist()} outside the mesh")
            cells[k], xi[k] = hits[0], ref[hits[0]]
        val = np.repeat(p2_basis(xi)[0].T, 2, axis=1)                 # (P,12)
        rows = 2 * np.arange(len(pts))[:, None] + np.arange(12) % 2   # (P,12)
        cols = self.cell_vdofs[cells]
        return sp.csr_matrix((val.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(2 * len(pts), self.n_vdofs))

    # -- bulk evaluation at quadrature points --------------------------------

    def velocity_at_quadrature(self, u: np.ndarray):
        """Values (T,Q,2) and gradients (T,Q,2,2) at all cell quad points;
        grads[t, q, c, i] = d u_c / d x_i."""
        T, Q = self.wdet.shape
        U = u[self.cell_vdofs.reshape(T, 6, 2).transpose(0, 2, 1)]  # (T,2,6)
        # values and reference gradients, component major: (T,c,3,Q)
        vg = (U.reshape(2 * T, 6) @ self.ref_table).reshape(T, 2, 3, Q)
        # the geometry is affine: grad_x = invJ^T grad_xi
        grads = np.swapaxes(self.invJ, 1, 2)[:, None] @ vg[:, :, 1:]   # (T,c,i,Q)
        return vg[:, :, 0].transpose(0, 2, 1), grads.transpose(0, 3, 1, 2)

    def pressure_at_quadrature(self, p: np.ndarray):
        loc = p[self.cell_pdofs]                                 # (T,3)
        return np.einsum("ta,aq->tq", loc, self.psi)

    # -- error norms ----------------------------------------------------------

    def error_norms(self, state: SystemState, exact_u, exact_p,
                    exact_grad_u=None) -> ErrorNorms:
        """Quadrature norms of the difference to an exact pair.

        exact_u(x) -> (N,2) and exact_p(x) -> (N,); the H1 seminorm needs
        the analytic gradient exact_grad_u(x) -> (N,2,2) and is NaN without
        it.  Also returns the L2(Gamma_s) norms of the tangential and
        normal trace error.
        """
        uh, guh = self.velocity_at_quadrature(state.u)
        ph = self.pressure_at_quadrature(state.p)
        X = self.xq.reshape(-1, 2)
        ue = np.asarray(exact_u(X), dtype=float).reshape(self.xq.shape)
        pe = np.asarray(exact_p(X), dtype=float).reshape(ph.shape)

        wdet = self.wdet
        du = uh - ue
        l2u = np.sqrt(np.einsum("tq,tqc->", wdet, du**2))
        l2p = np.sqrt(np.einsum("tq,tq->", wdet, (ph - pe) ** 2))

        if exact_grad_u is not None:
            Ge = np.asarray(exact_grad_u(X), dtype=float).reshape(guh.shape)
            h1u = np.sqrt(np.einsum("tq,tqci->", wdet, (guh - Ge) ** 2))
        else:
            h1u = np.nan

        # slip-boundary trace errors
        sl = FacetTable(self, self.slip_facets)
        ve = np.asarray(exact_u(sl.points.reshape(-1, 2)), dtype=float)
        dvn, dvt = sl.split(sl.values(state.u) - ve.reshape(sl.points.shape))
        l2tau = np.sum(sl.w * (dvt * dvt).sum(axis=2))
        l2un = np.sum(sl.w * dvn**2)
        return ErrorNorms(
            float(l2u), float(h1u), float(l2p), float(np.sqrt(l2tau)),
            float(np.sqrt(l2un)),
        )
