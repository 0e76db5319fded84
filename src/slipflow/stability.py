"""Numerical estimation of the discrete constants behind the scheme's
stability: the inverse trace constant, the Korn-with-normal-trace
eigenvalue, the trace constant in the h-dependent norm, the discrete
inf-sup constant, and the automatic Nitsche penalty derived from them.

The inverse trace constant is a batch of 6 x 6 eigenproblems.  The other
three take one extreme eigenvalue of a sparse pencil, at every mesh size,
from ARPACK's Lanczos (`eigsh`) at one fixed start vector: shift-invert at
SIGMA for Korn and inf-sup, regular mode for the trace constant.  The one
sparse LU each of them needs is made by `_splu`, never by ARPACK, in the
space's nested-dissection order (`FormCache.splu`), as every Newton LU
is.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import FacetTable, TaylorHoodSpace
from .forms import FormCache, NitscheConfig, get_cache
from .mesh import GEOM_TOL, MeshError
from .sliplaw import SlipLaw, navier


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
        return "".join(f"{f.name} {getattr(self, f.name):.12g}\n"
                       for f in dataclasses.fields(self))


# ---------------------------------------------------------------------------
# inverse trace constant: h_F |v|^2_F <= c_tr^2 |v|^2_K on P2(K)
# ---------------------------------------------------------------------------

def inverse_trace_constant(space: TaylorHoodSpace) -> float:
    """Largest eigenvalue of the scaled facet-mass/cell-mass pencil over
    all (boundary facet, cell) pairs of the scalar P2 space, returned as
    the square root."""
    mesh = space.mesh
    bd = FacetTable(space, np.arange(mesh.num_facets))
    # the cell mass is det J M^ with M^ = L L^T the reference mass, so
    # h MF x = lam MK x  <=>  (h / det J) (L^-1 MF L^-T) y = lam y
    Linv = np.linalg.inv(np.linalg.cholesky(space.mass_tensor))
    lam = np.linalg.eigvalsh(Linv @ bd.trace_mass() @ Linv.T)[:, -1]
    return float(np.sqrt((mesh.facet_h / space.detJ[bd.cells] * lam).max(initial=0.0)))


# ---------------------------------------------------------------------------
# Korn with normal traces, as a generalized eigenvalue dichotomy
# ---------------------------------------------------------------------------

# Shift-invert shift: both pencils it serves are PSD, so the eigenvalues
# nearest it are the smallest.  The start vector is seeded, not ones: ones
# is the constant pressure, the null mode of the inf-sup pencil.
SIGMA = -1e-8

# SuperLU's diagonal pivot threshold.  Every matrix factorized here is
# symmetric: A - SIGMA M and A_x are SPD, and the inf-sup saddle-point
# matrix is quasi-definite (SIGMA < 0), so a symmetric order with pivots
# taken on the diagonal factorizes it.  In the nested-dissection order
# every diagonal pivot passes; the threshold guards against a tiny pivot
# of the quasi-definite matrix.  At 0.1 off-diagonal pivots blow its
# fill up about fourfold.
STAB_PIVOT = 1e-3


def _splu(cache: FormCache, A, dofs: np.ndarray, what: str):
    """Sparse LU of the symmetric matrix A on the ascending unknowns
    `dofs`, in nested-dissection order (`FormCache.splu`): pivots on the
    diagonal unless it falls below STAB_PIVOT times the column's largest
    entry.  A singular A raises StabilityError."""
    try:
        return cache.splu(A, dofs, diag_pivot_thresh=STAB_PIVOT,
                          options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise StabilityError(f"{what} is singular: {exc}") from exc


def _solver(lu) -> spla.LinearOperator:
    """x -> A^-1 x through the factors `lu` of A."""
    return spla.LinearOperator(lu.shape, dtype=float, matvec=lu.solve)


def _eigsh(A, M, k: int, **kw):
    """k eigenpairs of A x = lam M x by `eigsh`, ascending.  The fixed start
    vector makes repeated calls agree bit for bit; an ARPACK failure or a
    non-finite eigenvalue raises StabilityError."""
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, A.shape[0])
    try:
        w, V = spla.eigsh(A, k=k, M=M, v0=v0, **kw)
    except spla.ArpackError as exc:
        raise StabilityError(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise StabilityError(f"eigensolver returned {w}")
    order = np.argsort(w)
    return w[order], V[:, order]


def korn_normal_trace_min_eig(space: TaylorHoodSpace, facets=None):
    """Smallest eigenvalue of (|Dv|^2 + |v.n|^2_Gamma) against the full H1
    norm over the unconstrained P2 velocity space, by shift-invert Lanczos
    at SIGMA through one `_splu` of A - SIGMA M.

    A positive value certifies the discrete Korn inequality with constant
    1/sqrt(eig); zero (a surviving rigid deformation) signals that the
    facet selection has collinear normals.  Returns (eig, eigenvector).
    """
    if facets is None:
        facets = np.arange(space.mesh.num_facets)
    cache = get_cache(space)
    A = cache.K_D + FacetTable(space, facets).mass(normal=True)
    M = cache.K_G + cache.M_u
    lu = _splu(cache, A - SIGMA * M, np.arange(space.n_vdofs),
               "Korn matrix A - SIGMA M")
    w, V = _eigsh(A, M, 1, sigma=SIGMA, which="LM", OPinv=_solver(lu))
    return float(w[0]), V[:, 0]


def wall_facets(space: TaylorHoodSpace, walls) -> np.ndarray:
    """Boundary facet indices of named unit-square walls
    ('top', 'bottom', 'left', 'right'), up to GEOM_TOL."""
    lines = {"top": (1, 1.0), "bottom": (1, 0.0), "left": (0, 0.0), "right": (0, 1.0)}
    if isinstance(walls, str) or not all(w in lines for w in walls):
        raise MeshError(f"walls must be a list of names from {sorted(lines)}, "
                        f"got {walls!r}")
    mids = space.mesh.facet_midpoints()
    hit = np.zeros(len(mids), dtype=bool)
    for w in walls:
        axis, value = lines[w]
        hit |= np.abs(mids[:, axis] - value) <= GEOM_TOL
    return np.flatnonzero(hit).astype(np.int64)


# ---------------------------------------------------------------------------
# trace constant in the h-norm: |v|_{L2(Gamma)} <= c_trK |v|_{X_h}
# ---------------------------------------------------------------------------

def trace_constant_xh(space: TaylorHoodSpace) -> float:
    """Square root of the largest eigenvalue of the boundary-mass / X_h-norm
    pencil on the velocity space with Dirichlet DOFs removed, Gamma the slip
    wall, by Lanczos in regular mode with M = A_x, applied through one
    `_splu` of A_x; 0 without a slip wall."""
    cache = get_cache(space)
    if cache.M_B.nnz == 0:
        return 0.0
    free = np.setdiff1d(np.arange(space.n_vdofs), space.dirichlet_vdofs)
    A_x = (cache.K_D + cache.P_pen)[np.ix_(free, free)]
    M_g = cache.M_B[np.ix_(free, free)]
    lu = _splu(cache, A_x, free, "X_h-norm matrix A_x")
    w, _ = _eigsh(M_g, A_x, 1, which="LA", Minv=_solver(lu))
    return float(np.sqrt(max(w[-1], 0.0)))


# ---------------------------------------------------------------------------
# discrete inf-sup constant
# ---------------------------------------------------------------------------

def infsup_constant(space: TaylorHoodSpace) -> float:
    """Discrete inf-sup constant of the Taylor-Hood pair with homogeneous
    Dirichlet velocity: sqrt of the smallest nonzero eigenvalue of the
    pressure Schur complement S q = B K^-1 B^T q = lam M_p q.

    S is never formed.  Shift-invert Lanczos at SIGMA needs
    (S - SIGMA M_p)^-1 r, which is the pressure part of the solution of
    the saddle-point system [[K, B^T], [B, SIGMA M_p]] (u, q) = (0, -r),
    applied through one `_splu`.  S is PSD, so the two eigenvalues
    nearest SIGMA are the constant-pressure null mode and beta_h^2."""
    cache = get_cache(space)
    nu, Mp = space.n_vdofs, cache.M_p
    # interior velocity DOFs: velocity nodes not on the boundary
    bnodes = space.facet_vnodes(np.arange(space.mesh.num_facets))
    free = np.setdiff1d(np.arange(nu), np.concatenate([2 * bnodes, 2 * bnodes + 1]))
    if free.size == 0:
        raise StabilityError("no interior velocity DOFs (mesh too coarse)")

    B = cache.B_div[:, free]
    saddle = sp.bmat([[cache.K_G[np.ix_(free, free)], B.T], [B, SIGMA * Mp]],
                     format="csr")
    lu = _splu(cache, saddle, np.concatenate([free, nu + np.arange(space.n_pdofs)]),
               "saddle-point matrix")
    zero = np.zeros(free.size)

    def solve(r):
        return lu.solve(np.concatenate([zero, -r]))[free.size:]

    OPinv = spla.LinearOperator(Mp.shape, dtype=float, matvec=solve)
    # shift-invert mode applies only OPinv and Mp; the first argument is shape
    w, _ = _eigsh(OPinv, Mp, 2, sigma=SIGMA, which="LM", OPinv=OPinv)
    # the constant pressure lies in the kernel of B^T; deflate it
    if not w[0] <= 1e-10 * max(w[-1], 1.0):
        raise StabilityError(f"expected a constant-pressure null mode, "
                             f"smallest eig {w[0]:.3e}")
    return float(np.sqrt(max(w[1], 0.0)))


# ---------------------------------------------------------------------------
# automatic penalty
# ---------------------------------------------------------------------------

# the automatic penalty exceeds its stability bound by this factor
ALPHA_SAFETY = 1.1
# spatial dimension d in the bounds
DIM = 2


def resolve_alpha(config, law: SlipLaw, c_tr: float,
                  c_trk: Optional[float] = None) -> float:
    """Penalty from the stability bounds: alpha > 2 d c_tr^2 for monotone
    laws; for lambda-monotone laws alpha > 2 (c_lam d c_tr^2 + lam) /
    (c_lam - lam) with c_lam = 2 nu / c_trK^2, requiring lam < c_lam;
    either bound times ALPHA_SAFETY.  Numeric alpha values pass through
    unchanged."""
    if config.alpha != "auto":
        return float(config.alpha)
    lam = law.lam
    if c_trk is None and lam != 0.0:
        raise StabilityError("lambda-monotone laws need the c_trK constant")
    if lam == 0.0 or c_trk == 0.0:
        # without a slip wall c_lam is infinite and the bound is monotone
        return ALPHA_SAFETY * 2.0 * DIM * c_tr**2
    c_lam = 2.0 * config.nu / c_trk**2
    if lam >= c_lam:
        raise StabilityError(f"monotonicity defect lambda = {lam:.6g} violates the "
                             f"stability bound lambda < 2 nu / c_trK^2 = {c_lam:.6g}")
    return ALPHA_SAFETY * 2.0 * (c_lam * DIM * c_tr**2 + lam) / (c_lam - lam)


def constants_report(space: TaylorHoodSpace) -> ConstantsReport:
    """Compute every certified constant on one mesh/space; alpha_auto is
    the automatic penalty of the monotone law navier(1) at nu = 1."""
    c_tr = inverse_trace_constant(space)
    c_trk = trace_constant_xh(space)
    korn, _ = korn_normal_trace_min_eig(space)
    cs = infsup_constant(space)
    alpha = resolve_alpha(NitscheConfig(alpha="auto"), navier(1.0), c_tr, c_trk)
    return ConstantsReport(c_tr=c_tr, c_trK=c_trk, korn_min_eig=korn, infsup=cs,
                           alpha_auto=alpha)
