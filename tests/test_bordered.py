"""The bordered factorization of the Newton Jacobian, its fixed
fill-reducing order, its refinement and fallback to partial pivoting,
the solver's counts and its non-finite guards.

The singular Jacobian A on (u, p) is solved with one LU of
A' = A + e_k e_k^T; that rests on the constant pressure being a null
vector of A, which is checked first.  A' is factorized with diagonal
pivoting in the space's nested-dissection order q (`FormCache.splu`;
its own tests are in `test_nd_order.py`).  The solves are checked
against the reference Jacobian on (u, p, m), which borders A with the
mean-pressure multiplier row and column and is regular.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import jacobian as multiplier_jacobian
from test_cell_kernels import make_ctx, random_state
from slipflow import solver
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import AssemblyContext, NitscheConfig, assemble_jacobian
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import navier, power_law, stick_slip_regularized
from slipflow.solver import (FactorCache, NewtonConfig, NewtonError, NewtonReport,
                             SolverError, newton_solve, steady_solve, time_march)
from slipflow.verify import dirichlet_data, forcing, taylor_green

CASES = [(steady, conv, g) for steady in (True, False) for conv in (True, False)
         for g in ("zero", "taylor_green")]
IDS = [f"{'steady' if s else 'unsteady'}-{'conv' if c else 'noconv'}-{g}"
       for s, c, g in CASES]


@pytest.fixture(scope="module", params=["top", "all"])
def space(request):
    tagger = top_wall_tagger() if request.param == "top" else (
        lambda m: BoundaryTag.SLIP)
    return TaylorHoodSpace(tag_boundary(build_unit_square(5, "crossed"), tagger))


def case_ctx(space, rng, steady, convection, g):
    g = 0.0 if g == "zero" else dirichlet_data(taylor_green(1.0))
    return make_ctx(space, steady, convection, rng, dirichlet=g)


def stokes_ctx(space):
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0, include_convection=False), navier(1.0),
        forcing=lambda x, t: np.column_stack([np.sin(3 * x[:, 1]), x[:, 0]]),
        dirichlet=0.0,
    )


@pytest.mark.parametrize("steady,convection,g", CASES, ids=IDS)
def test_constant_pressure_is_null_vector(space, rng, steady, convection, g):
    ctx = case_ctx(space, rng, steady, convection, g)
    c, Nu, Np = ctx.cache, space.n_vdofs, space.n_pdofs
    free = np.ones(Nu, dtype=bool)
    free[space.dirichlet_vdofs] = False
    gt1 = c.G_c.T @ np.ones(Np)
    assert np.abs(gt1[free]).max() <= 1e-14 * abs(c.G_c).sum(axis=0).max()
    # the continuity rows of the Jacobian
    J = assemble_jacobian(random_state(ctx, rng), ctx).tocsr()
    rows = J[Nu:Nu + Np]
    assert np.abs(rows.sum(axis=0)).max() <= 1e-14 * abs(rows).sum(axis=0).max()


@pytest.mark.parametrize("steady,convection,g", CASES, ids=IDS)
def test_bordered_solve_matches_full_lu(space, rng, steady, convection, g):
    ctx = case_ctx(space, rng, steady, convection, g)
    for scale in (1e-5, 1.0):
        st = random_state(ctx, rng, scale)
        J = assemble_jacobian(st, ctx)
        full = spla.splu(multiplier_jacobian(st, ctx).tocsc(), permc_spec="COLAMD")
        newton = -solver.assemble_residual(st, ctx)
        report = NewtonReport(0, [], [], False)
        factor = solver._Factor(J, ctx, report)
        for b in (newton, rng.normal(size=J.shape[0])):
            # (x, m) with J (x, m) = (b, 0): x has zero pressure mean
            want = full.solve(np.append(b, 0.0))[:-1]
            got = factor.solve(b, report)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert factor.checked and report.fallbacks == report.refinements == 0
        assert report.factorizations == 1
        assert 0 < report.lu_fill < full.nnz


def bordered_dense(J, pat):
    """A' = J + e_k e_k^T, dense."""
    want = J.toarray()
    want[pat.k, pat.k] += 1.0
    return want


def test_newton_lu_gets_bordered_jacobian_in_nd_order(space, rng, monkeypatch):
    # splu gets (J + e_k e_k^T)[q][:, q], explicit zeros kept, for q the
    # nested-dissection order of all unknowns; J itself is left as it was
    ctx = case_ctx(space, rng, True, True, "zero")
    pat = ctx.cache.pattern
    J = assemble_jacobian(random_state(ctx, rng), ctx)
    data = J.data.copy()
    given, real = [], spla.splu

    def splu(A, **options):
        given.append(A)
        return real(A, **options)

    monkeypatch.setattr(spla, "splu", splu)
    factor = solver._Factor(J, ctx, NewtonReport(0, [], [], False))
    q = ctx.cache.nd_sort(np.arange(pat.n))
    [A] = given
    assert A.nnz == J.nnz
    assert np.array_equal(A.toarray(), bordered_dense(J, pat)[q][:, q])
    assert np.array_equal(factor.lu.q, q)
    assert np.array_equal(J.data, data) and J.data[-1] == 0.0


def test_every_newton_lu_is_natural_with_diagonal_pivoting(monkeypatch):
    # steady and march contexts on one space share its pattern, and each
    # of their factorizations takes the space's order as it is
    space = TaylorHoodSpace(tag_boundary(build_unit_square(4), top_wall_tagger()))
    steady = stokes_ctx(space)
    march = AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0),
                            forcing=forcing(taylor_green(1.0), 1.0),
                            dirichlet=0.0, delta=0.01, u_old=np.zeros(space.n_vdofs))
    made = counting_splu(monkeypatch)
    assert march.cache.pattern is steady.cache.pattern and not made
    factors = FactorCache()
    newton_solve(steady)
    newton_solve(march, factors=factors)
    march.set_timestep(0.02)
    newton_solve(march, guess=SystemState.zero(space))
    assert len(made) >= 3
    assert all(options == {"permc_spec": "NATURAL",
                           "diag_pivot_thresh": solver.BORDERED_PIVOT}
               for _, options in made)
    assert np.array_equal(factors.factor.lu.q,
                          steady.cache.nd_sort(np.arange(steady.n_sys)))


def tiny_pivot_ctx(rel):
    """A linear Stokes problem whose Jacobian has the diagonal entry of one
    tangential velocity DOF i on the slip wall at `rel` times its size
    without slip, cancelled by an active (negative) Navier friction; and
    the nested-dissection order with i moved first, so its diagonal is
    the first pivot."""
    space = TaylorHoodSpace(tag_boundary(build_unit_square(8), top_wall_tagger()))

    def ctx_for(gamma):
        return AssemblyContext(
            space, NitscheConfig(alpha=10.0, include_convection=False),
            navier(gamma), dirichlet=0.0,
            forcing=lambda x, t: np.column_stack([np.sin(3 * x[:, 1]), x[:, 0]]))

    zero = SystemState.zero(space)
    d0 = assemble_jacobian(zero, ctx_for(0.0)).diagonal()
    d1 = assemble_jacobian(zero, ctx_for(1.0)).diagonal() - d0
    slip = np.flatnonzero(d1[:space.n_vdofs])
    i = slip[slip.size // 2]
    ctx = ctx_for(-d0[i] / d1[i] * (1.0 - rel))
    q = ctx.cache.nd_sort(np.arange(ctx.n_sys))
    return ctx, i, np.concatenate([[i], q[q != i]])


@pytest.mark.parametrize("rel,refinements,fallbacks",
                         [(1e-10, 1, 0), (1e-12, 1, 1)])
def test_tiny_pivot_is_refined_or_falls_back(rel, refinements, fallbacks,
                                             monkeypatch):
    ctx, i, q = tiny_pivot_ctx(rel)
    J = assemble_jacobian(SystemState.zero(ctx.space), ctx)
    assert 0 < abs(J[i, i]) < 10 * rel * abs(J[:, [i]]).max()
    want, ref = newton_solve(ctx)
    assert ref.refinements == ref.fallbacks == 0
    # every LU on the space in the order q
    monkeypatch.setattr(ctx.cache, "nd_sort", lambda dofs: q)
    factors = FactorCache()
    got, report = newton_solve(ctx, factors=factors)
    assert factors.factor.lu.q is q
    assert report.converged and report.iterations == ref.iterations == 1
    assert (report.refinements, report.fallbacks) == (refinements, fallbacks)
    assert report.factorizations == 1 + fallbacks
    for a, b in ((got.u, want.u), (got.p, want.p)):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_convection_dominated_steady_solve():
    # nu = 2e-3 with a forcing that does not scale with nu: max|u| / nu
    # is about 650, cell Reynolds numbers where small diagonal pivots are
    # likely
    space = TaylorHoodSpace(tag_boundary(build_unit_square(8), top_wall_tagger()))
    ctx = AssemblyContext(
        space, NitscheConfig(nu=2e-3, alpha=10.0), navier(1.0), dirichlet=0.0,
        forcing=lambda x, t: np.column_stack([np.sin(3 * x[:, 1]), x[:, 0]]))
    state, report = newton_solve(ctx)
    assert report.converged and report.fallbacks == report.refinements == 0
    r = solver.assemble_residual(state, ctx)
    assert np.linalg.norm(r) <= max(1e-10, 1e-10 * report.residuals[0])


def diagonal_pivoting(options) -> bool:
    return options.get("diag_pivot_thresh") == solver.BORDERED_PIVOT


def counting_splu(monkeypatch, fail_bordered=0):
    """Patch splu to keep every factorization it returns, with its
    options; its first `fail_bordered` calls with diagonal pivoting raise
    as a singular factor does."""
    made, fails = [], [fail_bordered]
    real = spla.splu

    def splu(M, **kwargs):
        if fails[0] and diagonal_pivoting(kwargs):
            fails[0] -= 1
            raise RuntimeError("Factor is exactly singular")
        made.append((real(M, **kwargs), kwargs))
        return made[-1][0]

    monkeypatch.setattr(spla, "splu", splu)
    return made


def stick_slip_march(space4, monkeypatch):
    """Five steps of a stick-slip march; returns each step's report and
    the factorizations made."""
    reports, real = [], solver.newton_solve

    def newton(*args, **kwargs):
        state, report = real(*args, **kwargs)
        reports.append(report)
        return state, report

    made = counting_splu(monkeypatch)
    monkeypatch.setattr(solver, "newton_solve", newton)
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), stick_slip_regularized(0.0, 1.0, 2e-4),
        forcing=forcing(taylor_green(3.0), 1.0), dirichlet=0.0,
        delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )
    time_march(ctx, SystemState.zero(space4), T=0.05, delta=0.01)
    monkeypatch.undo()
    return reports, made


def test_report_counts_match_splu(space4, monkeypatch):
    runs = [stick_slip_march(space4, monkeypatch) for _ in range(2)]
    for reports, made in runs:
        assert len(reports) == 5
        assert sum(r.factorizations for r in reports) == len(made) > 0
        assert sum(r.lu_fill for r in reports) == sum(lu.nnz for lu, _ in made)
        assert sum(r.fallbacks for r in reports) == 0
        assert sum(r.refinements for r in reports) == 0
        assert sum(r.chord_accepted for r in reports) > 0
        for r in reports:
            # every iteration took a reused or a fresh factorization
            assert r.iterations == r.chord_accepted + r.factorizations
            assert r.chord_rejected <= r.factorizations
            assert len(r.ls_steps) == r.iterations == len(r.residuals) - 1
    counts = [[(r.factorizations, r.fallbacks, r.refinements, r.chord_accepted,
                r.chord_rejected, r.lu_fill) for r in reports]
              for reports, _ in runs]
    assert counts[0] == counts[1]


def test_fallback_when_bordered_factor_fails(space8, monkeypatch):
    law = stick_slip_regularized(0.0, 1.0, 2e-4)
    ctx = AssemblyContext(space8, NitscheConfig(alpha=10.0), law,
                          forcing=forcing(taylor_green(3.0), 1.0), dirichlet=0.0)
    want, ref = newton_solve(ctx)
    made = counting_splu(monkeypatch, fail_bordered=1)
    got, report = newton_solve(ctx)
    assert report.converged and report.fallbacks == 1
    assert report.factorizations == len(made) == ref.factorizations
    assert report.iterations == ref.iterations
    assert np.abs(got.u - want.u).max() <= 1e-10 * np.abs(want.u).max()
    assert np.abs(got.p - want.p).max() <= 1e-10 * np.abs(want.p).max()


def test_fallback_when_refinement_fails(space8, monkeypatch):
    # no solve can meet a zero bound: the first one refines, falls back
    # to partial pivoting and keeps that factor for the rest of the solve
    ctx = stokes_ctx(space8)
    want, _ = newton_solve(ctx)
    monkeypatch.setattr(solver, "BORDERED_RTOL", 0.0)
    made = counting_splu(monkeypatch)
    got, report = newton_solve(ctx)
    assert report.converged and report.iterations == 1
    assert report.refinements == report.fallbacks == 1
    assert report.factorizations == len(made) == 2
    assert [diagonal_pivoting(options) for _, options in made] == [True, False]
    assert np.abs(got.u - want.u).max() <= 1e-10 * np.abs(want.u).max()


# -- non-finite guards and error context ----------------------------------------

def power_law_ctx(space, delta=None, c=1.0, r=1.5):
    # r < 2: the slip law's Jacobian is NaN at rest
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0), power_law(c, r),
        forcing=lambda x, t: np.column_stack([20.0 * x[:, 1], np.zeros(len(x))]),
        dirichlet=0.0, delta=delta,
        u_old=None if delta is None else np.zeros(space.n_vdofs),
    )


def test_non_finite_jacobian_is_typed_error(space4):
    with pytest.raises(SolverError, match="step 3, Newton iteration 1: the "
                                          "Jacobian is not finite"):
        newton_solve(power_law_ctx(space4), step_label=3)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-6, 1e6),
       r=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
def test_singular_power_law_from_rest_never_converges(space4, c, r):
    # every power law with 1 < r < 2 is singular at rest: a solve from
    # rest fails at its first Jacobian, steady or as the first time step
    # (which starts from u0, not from an extrapolation)
    with pytest.raises(SolverError) as exc:
        newton_solve(power_law_ctx(space4, c=c, r=r))
    assert type(exc.value) is SolverError
    assert str(exc.value) == "step 0, Newton iteration 1: the Jacobian is not finite"
    with pytest.raises(SolverError) as exc:
        time_march(power_law_ctx(space4, delta=0.01, c=c, r=r),
                   SystemState.zero(space4), T=0.02, delta=0.01)
    assert str(exc.value) == ("time step 1 (t = 0.01) failed: step 1, Newton "
                              "iteration 1: the Jacobian is not finite")


def test_line_search_skips_non_finite_trial(space8, monkeypatch):
    # the full step of a linear problem would be exact; its residual is
    # replaced by NaN, so the half step must be taken, never the NaN one
    calls, real = [0], solver.assemble_residual

    def residual(state, ctx):
        calls[0] += 1
        r = real(state, ctx)
        return np.full_like(r, np.nan) if calls[0] == 2 else r

    monkeypatch.setattr(solver, "assemble_residual", residual)
    state, report = newton_solve(stokes_ctx(space8))
    assert report.converged and report.ls_steps[0] == 1
    assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.p))
    assert np.all(np.isfinite(report.residuals))


def test_line_search_all_non_finite_raises(space8, monkeypatch):
    calls, real = [0], solver.assemble_residual

    def residual(state, ctx):
        calls[0] += 1
        r = real(state, ctx)
        return r if calls[0] == 1 else np.full_like(r, np.inf)

    monkeypatch.setattr(solver, "assemble_residual", residual)
    with pytest.raises(SolverError, match="every line-search trial"):
        newton_solve(stokes_ctx(space8))
    assert calls[0] == 1 + solver.LS_MAX + 1


def test_continuation_error_names_load_and_keeps_type(space4):
    with pytest.raises(SolverError) as exc:
        steady_solve(lambda lam: power_law_ctx(space4), [0.5, 1.0])
    assert type(exc.value) is SolverError
    assert str(exc.value).startswith("continuation failed at load 0.5: step 0")

    def ctx_at(lam):
        return AssemblyContext(
            space4, NitscheConfig(alpha=10.0), navier(1.0), dirichlet=0.0,
            forcing=lambda x, t: np.column_stack([lam * x[:, 1], x[:, 0]]),
        )

    with pytest.raises(NewtonError) as exc:
        steady_solve(ctx_at, [0.5, 1.0],
                     cfg=NewtonConfig(abs_tol=1e-300, rel_tol=1e-300, max_iter=1))
    assert str(exc.value).startswith("continuation failed at load 0.5: Newton")
    assert exc.value.state is not None and exc.value.report.iterations == 1


def test_march_error_names_step_and_keeps_type(space4):
    ctx = power_law_ctx(space4, delta=0.01)
    with pytest.raises(SolverError) as exc:
        time_march(ctx, SystemState.zero(space4), T=0.02, delta=0.01)
    assert type(exc.value) is SolverError
    assert str(exc.value).startswith("time step 1 (t = 0.01) failed: step 1, ")
