"""The nested-dissection order q of a space's unknowns, and the ordered
LU that every sparse factorization on the space goes through
(`FormCache.splu`).

Properties over mesh sizes, both diagonal patterns and top-wall and
all-wall slip (all-wall slip has no Dirichlet DOFs): q is a permutation,
every separator splits the cells exactly, the bordered Newton Jacobian
A'[q][:, q] takes every pivot on its diagonal, and the solves match the
reference LU on (u, p, m).  The fill of the ND factors of A' is
compared at a fixed state with that of the COLAMD-q factors:
A'[q][:, q] for the column order q that SuperLU's COLAMD gives A'.
Fill is a count, so it does not drift with the speed of the machine.
q equals the order of one lexsort over all unknowns, and the rank
behind it is computed once per space.  The ordered LU solves in the
matrix's own order, for any order q.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from loop_reference import jacobian as multiplier_jacobian
from test_cell_kernels import make_ctx, random_state
from slipflow import forms, solver
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext, NitscheConfig, assemble_jacobian, get_cache, nd_paths,
)
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import fang_regularized
from slipflow.solver import NewtonReport


def make_space(n, diagonal, slip):
    tagger = top_wall_tagger() if slip == "top" else (lambda m: BoundaryTag.SLIP)
    return TaylorHoodSpace(tag_boundary(build_unit_square(n, diagonal), tagger))


def bordered(J):
    """A' = J + e_k e_k^T: (k, k) is J's last stored entry."""
    A = J.copy()
    A.data[-1] += 1.0
    return A


def straddling_cells(space, digits) -> int:
    """Cells with nodes strictly on both sides of a separator: two nodes
    whose paths (`nd_paths` digits) first differ where one goes left and
    the other right."""
    digits = digits[space.cell_vnodes]                       # (T,6,levels)
    bad = np.zeros(len(digits), dtype=bool)
    for i in range(6):
        for j in range(i):
            differ = digits[:, i] != digits[:, j]
            level = differ.argmax(axis=1)[:, None]
            a = np.take_along_axis(digits[:, i], level, axis=1)[:, 0]
            b = np.take_along_axis(digits[:, j], level, axis=1)[:, 0]
            bad |= differ.any(axis=1) & (a + b == 1)
    return int(bad.sum())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 16), diagonal=st.sampled_from(["right", "crossed"]),
       slip=st.sampled_from(["top", "all"]), seed=st.integers(0, 2**32 - 1))
def test_nd_order_properties(n, diagonal, slip, seed):
    space = make_space(n, diagonal, slip)
    rng = np.random.default_rng(seed)
    ctx = make_ctx(space, True, True, rng)
    n = ctx.n_sys
    q = ctx.cache.nd_sort(np.arange(n))
    assert np.array_equal(np.sort(q), np.arange(n))
    assert straddling_cells(space, nd_paths(space)[1]) == 0

    state = random_state(ctx, rng)
    J = assemble_jacobian(state, ctx)
    lu = ctx.cache.splu(bordered(J), np.arange(n), diag_pivot_thresh=0.0)
    assert np.array_equal(lu.q, q)
    assert np.array_equal(lu.lu.perm_r, np.arange(n))

    report = NewtonReport(0, [], [], False)
    factor = solver._Factor(J, ctx, report)
    full = spla.splu(multiplier_jacobian(state, ctx).tocsc(), permc_spec="COLAMD")
    b = rng.normal(size=n)
    want = full.solve(np.append(b, 0.0))[:-1]
    got = factor.solve(b, report)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert report.refinements == report.fallbacks == 0


@pytest.mark.parametrize("n,diagonal", [(3, "right"), (8, "right"), (24, "right"),
                                        (7, "crossed")])
def test_nd_order_matches_one_lexsort(n, diagonal):
    space = make_space(n, diagonal, "top")
    q = get_cache(space).nd_sort(np.arange(space.n_vdofs + space.n_pdofs))
    assert np.array_equal(q, ref.nd_order(space))


def test_nd_rank_is_computed_once_per_space(monkeypatch):
    # alpha = "auto" with a lambda-monotone law factorizes A_x in ND order;
    # the first Jacobian's pattern orders A' by the same rank
    calls = []

    def counted(space):
        calls.append(space)
        return nd_paths(space)

    monkeypatch.setattr(forms, "nd_paths", counted)
    space = make_space(4, "right", "top")
    ctx = AssemblyContext(space, NitscheConfig(alpha="auto"),
                          fang_regularized(1.6, 1.5, 10, 2e-4), dirichlet=0.0)
    assert calls == [space]
    assemble_jacobian(SystemState.zero(space), ctx)
    assert calls == [space]


def test_straddling_cells_sees_a_cut_through_cell_centres():
    space = make_space(2, "crossed", "top")
    x = space.vnode_coords[:, 0]
    cut = np.where(x < 0.25, 0, np.where(x > 0.25, 1, 2))[:, None]
    assert straddling_cells(space, cut) == 4


def fills(n, diagonal):
    """L+U fill of A' at a fixed random state, diagonal pivoting, in the
    COLAMD-q order and in the ND order."""
    space = make_space(n, diagonal, "top")
    rng = np.random.default_rng(7)
    ctx = make_ctx(space, True, True, rng)
    A = bordered(assemble_jacobian(random_state(ctx, rng), ctx))
    nd = ctx.cache.splu(A, np.arange(ctx.n_sys), diag_pivot_thresh=0.0)
    qc = np.argsort(spla.splu(A, permc_spec="COLAMD", diag_pivot_thresh=0.0).perm_c)
    colamd = spla.splu(A[qc][:, qc], permc_spec="NATURAL", diag_pivot_thresh=0.0)
    return colamd.nnz, nd.nnz


@pytest.mark.parametrize("n,diagonal,bound", [
    (10, "right", 1.0),
    (24, "right", 0.85),
    (12, "crossed", 0.85),
    (24, "crossed", 0.85),
    pytest.param(50, "right", 0.85, marks=pytest.mark.slow),
])
def test_nd_fill_below_colamd(n, diagonal, bound):
    colamd, nd = fills(n, diagonal)
    print(f"n = {n} {diagonal}: COLAMD-q fill {colamd}, ND fill {nd}")
    assert nd <= bound * colamd


def test_ordered_lu_solves_in_the_matrix_order(monkeypatch):
    # a random sparse nonsymmetric A with explicit zeros on a random
    # subset of a space's unknowns, factorized in a random order q
    space = make_space(3, "right", "top")
    cache = get_cache(space)
    rng = np.random.default_rng(5)
    n_all = space.n_vdofs + space.n_pdofs
    dofs = np.sort(rng.choice(n_all, size=2 * n_all // 3, replace=False))
    n = dofs.size
    A = (sp.random(n, n, density=0.1, random_state=rng)
         + 4.0 * sp.eye(n)).tocsc()
    cols = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data[np.flatnonzero(A.indices != cols)[::3]] = 0.0
    q = rng.permutation(n)
    given, real = [], spla.splu

    def splu(M, **options):
        given.append((M, options))
        return real(M, **options)

    monkeypatch.setattr(cache, "nd_sort", lambda d: q)
    monkeypatch.setattr(spla, "splu", splu)
    lu = cache.splu(A, dofs)
    [(M, options)] = given
    assert options == {"permc_spec": "NATURAL"}
    assert M.nnz == A.nnz and (M.data == 0.0).sum() == (A.data == 0.0).sum() > 0
    assert np.array_equal(M.toarray(), A.toarray()[q][:, q])
    dense = A.toarray()
    for b in (rng.normal(size=n), rng.normal(size=(n, 8))):
        want = np.linalg.solve(dense, b)
        assert np.abs(lu.solve(b) - want).max() <= 1e-12 * np.abs(want).max()
