"""Numerical estimation of the discrete constants behind the scheme's
stability: the inverse trace constant, the Korn-with-normal-trace
eigenvalue, the trace constant in the h-dependent norm, the discrete
inf-sup constant, and the automatic Nitsche penalty derived from them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import FacetTable, TaylorHoodSpace
from .forms import get_cache
from .sliplaw import SlipLaw


class StabilityError(Exception):
    """A stability hypothesis of the scheme is violated."""


@dataclasses.dataclass
class ConstantsReport:
    c_tr: float
    c_trK: float
    korn_min_eig: float
    infsup: float
    alpha_auto: float

    def as_text(self) -> str:
        lines = [
            f"c_tr {self.c_tr:.12g}",
            f"c_trK {self.c_trK:.12g}",
            f"korn_min_eig {self.korn_min_eig:.12g}",
            f"infsup {self.infsup:.12g}",
            f"alpha_auto {self.alpha_auto:.12g}",
        ]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inverse trace constant: h_F |v|^2_F <= c_tr^2 |v|^2_K on P2(K)
# ---------------------------------------------------------------------------

def inverse_trace_constant(space: TaylorHoodSpace) -> float:
    """Largest eigenvalue of the scaled facet-mass/cell-mass pencil over
    all (boundary facet, cell) pairs of the scalar P2 space, returned as
    the square root."""
    mesh = space.mesh
    h = mesh.facet_h
    Tr = space.ftr                                                 # (F,6,Qf)
    MF = np.einsum("fq,faq,fbq->fab", h[:, None] * space.fqweights, Tr, Tr)
    MK = np.einsum("f,q,aq,bq->fab", space.detJ[mesh.facet_cells],
                   space.qweights, space.phi, space.phi)
    # h MF x = lam MK x  <=>  (L^-1 h MF L^-T) y = lam y with MK = L L^T
    Linv = np.linalg.inv(np.linalg.cholesky(MK))
    C = Linv @ (h[:, None, None] * MF) @ Linv.transpose(0, 2, 1)
    return float(np.sqrt(np.linalg.eigvalsh(C)[:, -1].max(initial=0.0)))


# ---------------------------------------------------------------------------
# Korn with normal traces, as a generalized eigenvalue dichotomy
# ---------------------------------------------------------------------------

def _smallest_eig(A: sp.spmatrix, M: sp.spmatrix):
    """Smallest generalized eigenvalue of A x = lam M x with A PSD, M SPD."""
    n = A.shape[0]
    if n <= 4000:
        w, V = sla.eigh(A.toarray(), M.toarray())
        return float(w[0]), V[:, 0]
    w, V = spla.eigsh(A.tocsc(), k=1, M=M.tocsc(), sigma=-1e-8, which="LM")
    return float(w[0]), V[:, 0]


def korn_normal_trace_min_eig(space: TaylorHoodSpace, facets=None):
    """Smallest eigenvalue of (|Dv|^2 + |v.n|^2_Gamma) against the full H1
    norm over the unconstrained P2 velocity space.

    A positive value certifies the discrete Korn inequality with constant
    1/sqrt(eig); zero (a surviving rigid deformation) signals that the
    facet selection has collinear normals.  Returns (eig, eigenvector).
    """
    if facets is None:
        facets = np.arange(space.mesh.num_facets)
    cache = get_cache(space)
    A = cache.K_D + FacetTable(space, facets).mass(normal=True)
    M = cache.K_G + cache.M_u
    return _smallest_eig(A, M)


def wall_facets(space: TaylorHoodSpace, walls, tol: float = 1e-12) -> np.ndarray:
    """Boundary facet indices of named unit-square walls
    ('top', 'bottom', 'left', 'right')."""
    tests = {
        "top": lambda m: np.abs(m[:, 1] - 1.0) <= tol,
        "bottom": lambda m: np.abs(m[:, 1]) <= tol,
        "left": lambda m: np.abs(m[:, 0]) <= tol,
        "right": lambda m: np.abs(m[:, 0] - 1.0) <= tol,
    }
    mids = space.mesh.facet_midpoints()
    hit = np.zeros(len(mids), dtype=bool)
    for w in walls:
        hit |= tests[w](mids)
    return np.flatnonzero(hit).astype(np.int64)


# ---------------------------------------------------------------------------
# trace constant in the h-norm: |v|_{L2(Gamma)} <= c_trK |v|_{X_h}
# ---------------------------------------------------------------------------

def trace_constant_xh(space: TaylorHoodSpace, facets=None) -> float:
    """Largest eigenvalue of the boundary-mass / X_h-norm pencil on the
    velocity space with Dirichlet DOFs removed; Gamma defaults to the
    slip-tagged facets."""
    if facets is None:
        facets = space.slip_facets
    cache = get_cache(space)
    bd = FacetTable(space, facets)
    A_x = cache.K_D + bd.mass(normal=True, per_h=True)
    M_g = bd.mass()
    free = np.setdiff1d(np.arange(space.n_vdofs), space.dirichlet_vdofs)
    A_x = A_x[np.ix_(free, free)]
    M_g = M_g[np.ix_(free, free)]
    if A_x.shape[0] <= 4000:
        w = sla.eigh(M_g.toarray(), A_x.toarray(), eigvals_only=True)
        return float(np.sqrt(max(w[-1], 0.0)))
    w = spla.eigsh(M_g.tocsc(), k=1, M=A_x.tocsc(), which="LA")[0]
    return float(np.sqrt(max(float(w[0]), 0.0)))


# ---------------------------------------------------------------------------
# discrete inf-sup constant
# ---------------------------------------------------------------------------

def infsup_constant(space: TaylorHoodSpace) -> float:
    """Discrete inf-sup constant of the Taylor-Hood pair with homogeneous
    Dirichlet velocity: sqrt of the smallest nonzero eigenvalue of the
    pressure Schur complement B K^-1 B^T q = lam M_p q, with the constant
    pressure mode deflated."""
    cache = get_cache(space)

    # interior velocity DOFs: velocity nodes not on the boundary
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    bdofs = np.concatenate([2 * bnodes, 2 * bnodes + 1])
    free = np.setdiff1d(np.arange(space.n_vdofs), bdofs)
    if free.size == 0:
        raise StabilityError("no interior velocity DOFs (mesh too coarse)")

    K = cache.K_G[np.ix_(free, free)].tocsc()
    B = cache.B_div[:, free].tocsc()

    # pressure mass
    wdet = space.qweights[None, :] * space.detJ[:, None]
    mloc = np.einsum("tq,aq,bq->tab", wdet, space.psi, space.psi)
    rows = np.repeat(space.cell_pdofs, 3, axis=1).ravel()
    cols = np.tile(space.cell_pdofs, (1, 3)).ravel()
    Mp = sp.coo_matrix(
        (mloc.ravel(), (rows, cols)), shape=(space.n_pdofs, space.n_pdofs)
    ).tocsr()

    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise StabilityError(f"velocity stiffness is singular: {exc}") from exc
    Y = lu.solve(B.T.toarray())
    S = B @ Y                       # dense (Np, Np) Schur complement
    w = sla.eigh(S, Mp.toarray(), eigvals_only=True)
    # the constant pressure lies in the kernel of B^T; deflate it
    if not w[0] <= 1e-10 * max(w[-1], 1.0):
        raise StabilityError(
            f"expected a constant-pressure null mode, smallest eig {w[0]:.3e}"
        )
    return float(np.sqrt(w[1]))


# ---------------------------------------------------------------------------
# automatic penalty
# ---------------------------------------------------------------------------

def resolve_alpha(config, law: SlipLaw, c_tr: float,
                  c_trk: Optional[float] = None, safety: float = 1.1,
                  d: int = 2) -> float:
    """Penalty from the stability bounds: alpha > 2 d c_tr^2 for monotone
    laws; for lambda-monotone laws alpha > 2 (c_lam d c_tr^2 + lam) /
    (c_lam - lam) with c_lam = 2 nu / c_trK^2, requiring lam < c_lam.
    Numeric alpha values pass through unchanged."""
    if config.alpha != "auto":
        return float(config.alpha)
    lam = law.lam
    if lam == 0.0:
        return safety * 2.0 * d * c_tr**2
    if c_trk is None:
        raise StabilityError("lambda-monotone laws need the c_trK constant")
    c_lam = 2.0 * config.nu / c_trk**2
    if lam >= c_lam:
        raise StabilityError(
            f"monotonicity defect lambda = {lam:.6g} violates the stability "
            f"bound lambda < 2 nu / c_trK^2 = {c_lam:.6g}"
        )
    return safety * 2.0 * (c_lam * d * c_tr**2 + lam) / (c_lam - lam)


def constants_report(space: TaylorHoodSpace, config=None, law=None) -> ConstantsReport:
    """Compute every certified constant on one mesh/space."""
    from .forms import NitscheConfig

    if config is None:
        config = NitscheConfig(alpha="auto")
    c_tr = inverse_trace_constant(space)
    c_trk = trace_constant_xh(space)
    korn, _ = korn_normal_trace_min_eig(space)
    cs = infsup_constant(space)
    if law is None:
        from .sliplaw import navier

        law = navier(1.0)
    try:
        alpha = resolve_alpha(
            dataclasses.replace(config, alpha="auto"), law, c_tr, c_trk
        )
    except StabilityError:
        alpha = float("nan")
    return ConstantsReport(
        c_tr=c_tr, c_trK=c_trk, korn_min_eig=korn, infsup=cs, alpha_auto=alpha
    )
