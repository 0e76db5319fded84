"""The slip refresh of a reused factorization (`solver._Factor.refresh`).

The slip law moves the Jacobian only in the dense block on the slip
support S (`forms.slip_block`).  Every reuse of a factorization, in the
newton_solve call that made it or in a later one, solves with that
block kept exact by the Woodbury identity.  It must solve as a fresh
factorization of the refreshed Jacobian would, never run for a linear
law, and give way to a fresh factorization, not to the fallback, when
it misses its check.  A refreshed step that misses CHORD_ACCEPT may
backtrack only if its forcing term, the convection change since the
factorization applied to the step, is at most CHORD_ACCEPT^2.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cell_kernels import random_state
from test_solver import stick_slip_march_ctx
from slipflow import forms, solver
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (AssemblyContext, FormCache, NitscheConfig,
                            assemble_jacobian, slip_block)
from slipflow.mesh import (BoundaryTag, build_unit_square, tag_boundary,
                           top_wall_tagger)
from slipflow.sliplaw import (dynamic_moving_wall, fang_regularized, navier,
                              stick_slip_regularized)
from slipflow.solver import NewtonReport, newton_solve, time_march
from slipflow.verify import forcing, polynomial_jhyw


@pytest.fixture(scope="module", params=["top", "all"])
def space(request):
    tagger = top_wall_tagger() if request.param == "top" else (
        lambda m: BoundaryTag.SLIP)
    return TaylorHoodSpace(tag_boundary(build_unit_square(4), tagger))


def steady_ctx(space, law=None):
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0),
        law or stick_slip_regularized(0.0, 1.0, 2e-4),
        forcing=forcing(polynomial_jhyw(1.0), 1.0), dirichlet=0.0)


def slip_matrix(ctx, u):
    """The slip law's part of the Jacobian, as a dense matrix on (u, p)."""
    pat = ctx.cache.pattern
    return pat.matrix(pat.gather(pat.slip_pos,
                                 forms._slip_jacobian(ctx, u))).toarray()


def test_slip_block_is_the_slip_jacobian_on_its_support(space, rng):
    ctx = steady_ctx(space)
    u = random_state(ctx, rng, 1e-3).u
    S, _ = ctx.cache.slip_support
    full = slip_matrix(ctx, u)
    assert np.array_equal(slip_block(ctx, u), full[np.ix_(S, S)])
    outside = full.copy()
    outside[np.ix_(S, S)] = 0.0
    assert not outside.any()
    # live velocity DOFs only, each with a nonzero row
    assert S.max() < space.n_vdofs
    assert not np.isin(S, space.dirichlet_vdofs).any()
    assert np.abs(full[np.ix_(S, S)]).sum(axis=1).min() > 0


def test_slip_support_is_built_on_first_use(space):
    cache = FormCache(space)
    assert "slip_support" not in vars(cache)
    S, _ = cache.slip_support
    # top wall at n = 4: the 9 wall nodes less the 2 corners, x only
    if space.slip_facets.size == 4:
        assert S.size == 7 and np.all(S % 2 == 0)


def refreshed_jacobian(ctx, J, D):
    """J + U D U^T, on the Jacobian pattern."""
    S, pos = ctx.cache.slip_support
    r = S.size
    i, j = np.unravel_index(np.unique(pos[pos < r * r]), (r, r))
    pat = ctx.cache.pattern
    data = J.data + pat.gather(pat.positions(S[i], S[j]), D[i, j])
    return pat.matrix(data)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@settings(max_examples=25, deadline=None)
def test_refreshed_solve_matches_a_fresh_factorization(space, seed, scale):
    rng = np.random.default_rng(seed)
    ctx = steady_ctx(space)
    state = random_state(ctx, rng, 1e-3)
    J = assemble_jacobian(state, ctx)
    sigma = slip_block(ctx, state.u)
    # a random D on the entries the slip law can move
    D = np.where(sigma != 0, scale * rng.normal(size=sigma.shape), 0.0)
    report = NewtonReport(0, [], [], False)
    factor = solver._Factor(J, ctx, report, state.u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "slip_block", lambda ctx, u: sigma + D)
        assert factor.refresh(ctx, state.u, report)
    b = rng.normal(size=ctx.n_sys)
    got = factor.solve(b, report)
    want = solver._Factor(refreshed_jacobian(ctx, J, D), ctx, report).solve(b, report)
    assert got is not None
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert report.refreshes == 1 and report.fallbacks == 0


def march_reports(ctx, space, monkeypatch, T, delta, refresh=True):
    reports = []

    def captured(*args, **kwargs):
        state, report = newton_solve(*args, **kwargs)
        reports.append(report)
        return state, report

    with monkeypatch.context() as mp:
        mp.setattr(solver, "newton_solve", captured)
        if not refresh:
            mp.setattr(solver._Factor, "refresh", lambda *args: False)
        traj = time_march(ctx, SystemState.zero(space), T=T, delta=delta)
    return traj, reports


COUNTS = ("iterations", "factorizations", "chord_accepted", "chord_rejected",
          "refinements", "fallbacks", "refreshes")


@pytest.mark.parametrize("law", [navier(1.0), dynamic_moving_wall(1.0, 2.0, 0.01)],
                         ids=["navier", "dynamic"])
def test_linear_laws_never_refresh(space, monkeypatch, law):
    # D == 0 exactly: the march makes no W and takes the same steps as
    # with the refresh switched off
    ctx = AssemblyContext(
        space, NitscheConfig(alpha=10.0), law,
        forcing=forcing(polynomial_jhyw(1.0, time_mode="linear"), 1.0),
        dirichlet=0.0, delta=0.05, u_old=np.zeros(space.n_vdofs))
    built = []

    class Factor(solver._Factor):
        def refresh(self, *args):
            refreshed = super().refresh(*args)
            built.append(self.W is not None)
            return refreshed

    monkeypatch.setattr(solver, "_Factor", Factor)
    traj, reports = march_reports(ctx, space, monkeypatch, 1.0, 0.05)
    plain, plain_reports = march_reports(ctx, space, monkeypatch, 1.0, 0.05,
                                         refresh=False)
    assert built and not any(built)
    assert sum(r.refreshes for r in reports) == 0
    for count in COUNTS:
        assert [getattr(r, count) for r in reports] == \
            [getattr(r, count) for r in plain_reports], count
    assert np.array_equal(traj.final_state.u, plain.final_state.u)
    assert traj.reports == reports


def test_steady_solve_of_a_nonsmooth_law_refreshes(space, monkeypatch):
    # every reuse is refreshed, in the call that made the factorization
    # too: one factorization and one W serve the whole cold solve, where
    # the unrefreshed solve refactorizes; both reach the same state
    ctx = steady_ctx(space)
    state, report = newton_solve(ctx)
    assert report.factorizations == 1 and report.refreshes == 1
    with monkeypatch.context() as mp:
        mp.setattr(solver._Factor, "refresh", lambda *args: False)
        plain, plain_report = newton_solve(ctx)
    assert plain_report.factorizations > 1 and plain_report.refreshes == 0
    # both stop at 1e-10 ||R_0||, which leaves the states this close
    # (observed 2.8e-11)
    for got, want in ((state.u, plain.u), (state.p, plain.p)):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def convective_ctx(nu, lam):
    """Steady fang friction on the top wall at n = 16, viscosity nu and
    forcing amplitude lam."""
    space = TaylorHoodSpace(tag_boundary(build_unit_square(16), top_wall_tagger()))
    return AssemblyContext(space, NitscheConfig(nu=nu, alpha=10.0),
                           fang_regularized(1.6, 1.5, 10.0, 2e-4),
                           forcing=forcing(polynomial_jhyw(lam), nu), dirichlet=0.0)


def test_convection_dominated_solve_matches_the_unrefreshed_solve(monkeypatch):
    # at nu = 0.02, lam = 50 the convection change makes some refreshed
    # steps poor; the gate keeps those from backtracking, so the solve
    # converges, to the state the unrefreshed solve reaches
    ctx = convective_ctx(0.02, 50.0)
    state, report = newton_solve(ctx)
    with monkeypatch.context() as mp:
        mp.setattr(solver._Factor, "refresh", lambda *args: False)
        plain, plain_report = newton_solve(ctx)
    assert report.factorizations < plain_report.factorizations
    for got, want in ((state.u, plain.u), (state.p, plain.p)):
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


@pytest.mark.parametrize("lam, backtracked", [(20.0, 0), (50.0, 5)])
def test_only_a_newton_accurate_refreshed_step_backtracks(monkeypatch, lam,
                                                          backtracked):
    # a refreshed full step that misses CHORD_ACCEPT backtracks if its
    # forcing term is at most CHORD_ACCEPT^2 (what follows is a residual,
    # or the end), and is rejected for a fresh factorization otherwise
    events = []

    class Factor(solver._Factor):
        def __init__(self, *args):
            events.append("factor")
            super().__init__(*args)

        def forcing_term(self, *args):
            eta = super().forcing_term(*args)
            events.append(eta)
            return eta

    def residual(*args):
        events.append("residual")
        return forms.assemble_residual(*args)

    monkeypatch.setattr(solver, "_Factor", Factor)
    monkeypatch.setattr(solver, "assemble_residual", residual)
    newton_solve(convective_ctx(0.02, lam))
    etas = [(e, after) for e, after in zip(events, events[1:] + ["end"])
            if not isinstance(e, str)]
    high = [after for eta, after in etas if eta > solver.CHORD_ACCEPT**2]
    low = [after for eta, after in etas if eta <= solver.CHORD_ACCEPT**2]
    assert high and set(high) == {"factor"}
    assert set(low) <= {"residual", "end"}
    assert len(low) >= backtracked


def test_refreshed_solve_that_misses_frees_the_factor(space4, monkeypatch):
    # one refresh is made with D close to -C^-1, so I + D C is near
    # singular and the solve misses BORDERED_RTOL after its refinement:
    # the factor is freed before the next one is built, the step counts
    # a rejected reused step, and the march goes on with a fresh
    # factorization, never the fallback
    forced, freed = [], []

    class Factor(solver._Factor):
        def __init__(self, *args):
            if forced:
                freed.append(forced[0]() is None)
            super().__init__(*args)

        def refresh(self, ctx, u, report):
            if self.W is not None and not forced:
                bad = -np.linalg.inv(self.C) * (1.0 - 1e-15)
                self.sigma = slip_block(ctx, u) - bad
                forced.append(weakref.ref(self))
            return super().refresh(ctx, u, report)

    monkeypatch.setattr(solver, "_Factor", Factor)
    _, reports = march_reports(stick_slip_march_ctx(space4), space4,
                               monkeypatch, 1.5, 0.1)
    assert len(forced) == 1 and freed and all(freed)
    missed = [r for r in reports if r.refinements]
    assert len(missed) == 1 and missed[0].refinements == 1
    assert missed[0].chord_rejected >= 1 and missed[0].factorizations >= 1
    assert sum(r.fallbacks for r in reports) == 0
    assert len(reports) == 15 and all(r.converged for r in reports)


def test_stick_slip_march_factorizes_at_most_twice(monkeypatch):
    space = TaylorHoodSpace(tag_boundary(build_unit_square(10), top_wall_tagger()))
    sol = polynomial_jhyw(1.0, time_mode="linear")
    ctx = AssemblyContext(
        space, NitscheConfig(alpha=10.0), stick_slip_regularized(0.0, 1.0, 2e-4),
        forcing=forcing(sol, 1.0, convection=True), dirichlet=0.0,
        delta=0.01, u_old=np.zeros(space.n_vdofs))
    traj, reports = march_reports(ctx, space, monkeypatch, 1.5, 0.01)
    assert len(reports) == 150
    assert sum(r.factorizations for r in reports) <= 2
    assert sum(r.refreshes for r in reports) >= 1
    assert sum(r.refinements + r.fallbacks for r in reports) == 0
    late = traj.profile_at(1.5).u_tau.max()
    assert late >= 50.0 * traj.profile_at(0.5).u_tau.max()
