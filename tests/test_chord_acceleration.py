"""The accelerations of the backward Euler march: Newton starts each
time step from the quadratic extrapolation of the last three states
(the linear one of the last two at step 2), and every reuse of a factorization is refreshed with the slip law's change
(`solver._Factor.refresh`).  Neither may change what a step solves: the
step data stays u_{j-1}, every step moves along the LU direction as the
solve returns it, and every step is still accepted on its true
residual.
"""

import numpy as np
import pytest

from slipflow import solver
from slipflow.fespace import SystemState
from slipflow.forms import AssemblyContext, NitscheConfig, assemble_residual
from slipflow.sliplaw import dynamic_moving_wall, navier
from slipflow.solver import NewtonConfig, newton_solve, time_march
from test_solver import stick_slip_march_ctx


def test_reuse_accounting_of_refreshed_and_rejected_steps(space4, monkeypatch):
    # the march at nu = 0.02, once with the stick-slip law (its reuses are
    # refreshed) and once with the Navier law (D == 0 on every reuse):
    # every iteration steps with a fresh or a reused factorization, and
    # every reuse ends accepted or rejected
    refreshed, reuses, reports = [], [], []

    class Factor(solver._Factor):
        def refresh(self, *args):
            reuses.append(super().refresh(*args))
            return reuses[-1]

    def captured(*args, **kwargs):
        state, report = newton_solve(*args, **kwargs)
        reports.append(report)
        return state, report

    monkeypatch.setattr(solver, "_Factor", Factor)
    monkeypatch.setattr(solver, "newton_solve", captured)
    for law in (None, navier(1.0)):
        time_march(stick_slip_march_ctx(space4, nu=0.02, lam=10.0, law=law),
                   SystemState.zero(space4), T=1.5, delta=0.1)
        refreshed.append(sum(reuses))
    assert refreshed[0] > 10
    assert refreshed[1] == refreshed[0]   # the Navier law never refreshes
    assert sum(r.chord_rejected for r in reports) > 10
    assert len(reuses) == sum(r.chord_accepted + r.chord_rejected for r in reports)
    for r in reports:
        assert r.iterations == r.chord_accepted + r.factorizations
        assert r.refinements == 0
        assert r.fallbacks == 0


def test_every_trial_steps_along_the_solved_direction(space4, monkeypatch):
    # the Navier march at nu = 0.02 reuses its factorizations with D == 0:
    # each line-search trial is x + lam d, lam = LS_RHO**k at the k-th
    # halving, for d exactly as the solve returned it and x the first
    # state packed after it (the residual packs its trials too)
    events = []

    class Factor(solver._Factor):
        def solve(self, *args):
            d = super().solve(*args)
            events.append(("d", None if d is None else d.copy()))
            return d

    pack, unpack = AssemblyContext.pack, AssemblyContext.unpack

    def packed(self, state):
        x = pack(self, state)
        events.append(("x", x.copy()))
        return x

    def unpacked(self, x):
        events.append(("trial", x.copy()))
        return unpack(self, x)

    monkeypatch.setattr(solver, "_Factor", Factor)
    monkeypatch.setattr(AssemblyContext, "pack", packed)
    monkeypatch.setattr(AssemblyContext, "unpack", unpacked)
    traj = time_march(stick_slip_march_ctx(space4, nu=0.02, lam=10.0,
                                           law=navier(1.0)),
                      SystemState.zero(space4), T=1.5, delta=0.1)
    assert sum(r.chord_accepted for r in traj.reports) > 10
    steps, solved = 0, False
    for kind, v in events:
        if kind == "d":
            d, solved = v, True
        elif kind == "x":
            if solved:
                x, lam, solved = v, 1.0, False
                steps += 1
        else:
            assert np.array_equal(v, x + lam * d)
            lam *= solver.LS_RHO
    assert steps == sum(r.iterations + r.chord_rejected for r in traj.reports)


def capture_march(space, monkeypatch, probes=()):
    """The n = 4 stick-slip march at delta = 0.1 to T = 1.5; each
    newton_solve call as (t, u_old, state, report), the step data copied
    when the call is made."""
    calls = []

    def captured(ctx, *args, **kwargs):
        t, u_old = ctx.t, ctx.u_old.copy()
        state, report = newton_solve(ctx, *args, **kwargs)
        calls.append((t, u_old, state, report))
        return state, report

    monkeypatch.setattr(solver, "newton_solve", captured)
    ctx = stick_slip_march_ctx(space)
    traj = time_march(ctx, SystemState.zero(space), T=1.5, delta=0.1,
                      probes=probes)
    return ctx, traj, calls


def test_predictor_never_leaks_into_the_step_data(space4, monkeypatch):
    ctx, traj, calls = capture_march(space4, monkeypatch)
    assert len(calls) == 15
    cfg = NewtonConfig()
    previous = np.zeros(space4.n_vdofs)
    for j, (t, u_old, state, _) in enumerate(calls, start=1):
        assert t == pytest.approx(0.1 * j, rel=1e-12)
        assert np.array_equal(u_old, previous)
        ctx.advance(t, u_old)
        assert np.linalg.norm(assemble_residual(state, ctx)) <= cfg.abs_tol
        previous = state.u
    assert traj.final_state is calls[-1][2]


def test_drift_and_counts_against_the_plain_chord_loop(space4, monkeypatch):
    probes = [(0.5, 1.0), (0.25, 1.0)]
    _, fast, calls = capture_march(space4, monkeypatch, probes)
    monkeypatch.setattr(solver, "_extrapolate", lambda u1, *older: u1)
    monkeypatch.setattr(solver._Factor, "refresh", lambda *args: False)
    _, plain, plain_calls = capture_march(space4, monkeypatch, probes)
    for got, want in ((fast.final_state.u, plain.final_state.u),
                      (fast.final_state.p, plain.final_state.p),
                      (fast.probe_series, plain.probe_series)):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def total(reports, count):
        return sum(getattr(r, count) for _, _, _, r in reports)

    assert total(calls, "iterations") <= 0.7 * total(plain_calls, "iterations")
    assert total(calls, "factorizations") <= total(plain_calls, "factorizations")


def test_no_extrapolation_after_a_step_that_took_no_iteration(space4, monkeypatch):
    # the dynamic law relaxes to a steady state, where steps start within
    # tolerance; the step after such a step starts from u_{j-1} itself,
    # any other step j >= 3 from 3 u_{j-1} - 3 u_{j-2} + u_{j-3}, and
    # step 2 from 2 u_1 - u_0
    calls = []

    def captured(ctx, guess=None, **kwargs):
        state, report = newton_solve(ctx, guess=guess, **kwargs)
        calls.append((guess, state, report))
        return state, report

    monkeypatch.setattr(solver, "newton_solve", captured)
    ctx = AssemblyContext(space4, NitscheConfig(alpha=10.0),
                          dynamic_moving_wall(1.0, 0.0, 0.01), dirichlet=0.0,
                          delta=0.05, u_old=np.zeros(space4.n_vdofs))
    time_march(ctx, SystemState.zero(space4), T=2.0, delta=0.05)
    states = [calls[0][0]] + [state for _, state, _ in calls]   # u_0, u_1, ...
    skipped = quadratic = 0
    for j in range(2, len(calls) + 1):
        guess, u = calls[j - 1][0], states[max(j - 3, 0):j][::-1]   # u_{j-1}, ...
        if not calls[j - 2][2].iterations:
            assert guess is u[0]
            skipped += 1
            continue
        for part in ("u", "p"):
            x = [getattr(s, part) for s in u]
            want = (2.0 * x[0] - x[1] if j == 2
                    else 3.0 * x[0] - 3.0 * x[1] + x[2])
            assert np.array_equal(getattr(guess, part), want)
        quadratic += j > 2
    assert skipped >= 5
    assert quadratic >= 5
