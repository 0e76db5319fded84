"""The nested-dissection order of the bordered Newton Jacobian A'.

Properties over mesh sizes, both diagonal patterns and top-wall and
all-wall slip (all-wall slip has no Dirichlet DOFs): q is a permutation
with the Dirichlet DOFs first, every separator splits the cells exactly,
A'[q][:, q] takes every pivot on its diagonal, and the solves match the
reference LU on (u, p, m).  The fill of the ND factors is compared at
a fixed state with that of the COLAMD-q factors: A'[q][:, q] for the
column order q that SuperLU's COLAMD gives A'.  Fill is a count, so it
does not drift with the speed of the machine.  q equals the order of
one lexsort over all unknowns, and the rank behind it is computed once
per space.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from loop_reference import jacobian as multiplier_jacobian
from test_cell_kernels import make_ctx, random_state
from slipflow import forms, solver
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext, NitscheConfig, assemble_jacobian, nd_order, nd_paths,
)
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import fang_regularized
from slipflow.solver import NewtonReport


def make_space(n, diagonal, slip):
    tagger = top_wall_tagger() if slip == "top" else (lambda m: BoundaryTag.SLIP)
    return TaylorHoodSpace(tag_boundary(build_unit_square(n, diagonal), tagger))


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
    pat = ctx.cache.pattern
    q = pat.order
    assert np.array_equal(np.sort(q), np.arange(pat.n))
    fixed = space.dirichlet_vdofs
    assert np.array_equal(np.sort(q[:fixed.size]), fixed)
    assert straddling_cells(space, nd_paths(space)[1]) == 0

    state = random_state(ctx, rng)
    J = assemble_jacobian(state, ctx)
    lu = spla.splu(pat.bordered(J.data), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    assert np.array_equal(lu.perm_r, np.arange(pat.n))

    report = NewtonReport(0, [], [], False)
    factor = solver._Factor(J, ctx, report)
    full = spla.splu(multiplier_jacobian(state, ctx).tocsc(), permc_spec="COLAMD")
    b = rng.normal(size=pat.n)
    want = full.solve(np.append(b, 0.0))[:-1]
    got = factor.solve(b, report)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert report.refinements == report.fallbacks == 0


@pytest.mark.parametrize("n,diagonal", [(3, "right"), (8, "right"), (24, "right"),
                                        (7, "crossed")])
def test_nd_order_matches_one_lexsort(n, diagonal):
    space = make_space(n, diagonal, "top")
    assert np.array_equal(nd_order(space), ref.nd_order(space))


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
    pat = ctx.cache.pattern
    J = assemble_jacobian(random_state(ctx, rng), ctx)
    nd = spla.splu(pat.bordered(J.data), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    inv = np.argsort(pat.order)
    A = pat.bordered(J.data)[inv][:, inv]
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
