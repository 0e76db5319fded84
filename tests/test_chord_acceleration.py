"""The accelerations of the backward Euler march: Newton starts each
time step from the linear extrapolation of the last two states, every
reuse of a factorization is refreshed with the slip law's change
(`solver._Factor.refresh`), and the other updates of one reused
factorization are mixed by Anderson acceleration (`solver._Mixer`).
None may change what a step solves: the step data stays u_{j-1}, and
every step is still accepted on its true residual.
"""

import numpy as np
import pytest

from slipflow import solver
from slipflow.fespace import SystemState
from slipflow.forms import AssemblyContext, NitscheConfig, assemble_residual
from slipflow.sliplaw import dynamic_moving_wall, navier
from slipflow.solver import NewtonConfig, newton_solve, time_march
from test_solver import stick_slip_march_ctx


def reference_mix(pairs, depth):
    """The type II Anderson update from a list of (x, d) pairs of one
    factorization, newest last, rebuilt from the last depth + 1 of them."""
    pairs = pairs[-(depth + 1):]
    x, d = pairs[-1]
    if len(pairs) == 1:
        return d
    dX = np.column_stack([b[0] - a[0] for a, b in zip(pairs, pairs[1:])])
    dF = np.column_stack([b[1] - a[1] for a, b in zip(pairs, pairs[1:])])
    gamma = np.linalg.lstsq(dF, d)[0]
    return d - (dX + dF) @ gamma


@pytest.mark.parametrize("seed", range(6))
def test_mixing_reaches_affine_fixed_point_like_gmres(seed):
    # x + d(x), d(x) = M^-1 (b - A x) with a stale M != A: with a depth of
    # at least the dimension, mixing is GMRES on M^-1 A (Walker & Ni 2011,
    # Thm 2.2), exact after dimension + 1 updates
    n = solver.ANDERSON_DEPTH
    rng = np.random.default_rng(seed)
    A = 3.0 * np.eye(n) + rng.normal(size=(n, n))
    M = A + 0.5 * rng.normal(size=(n, n))
    b = rng.normal(size=n)
    want = np.linalg.solve(A, b)
    mixer = solver._Mixer(n, solver.ANDERSON_DEPTH)
    x = plain = np.zeros(n)
    for _ in range(n + 1):
        x = x + mixer.mix(x, np.linalg.solve(M, b - A @ x), 0)
        plain = plain + np.linalg.solve(M, b - A @ plain)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # the plain chord iteration is far from it after as many updates
    assert np.linalg.norm(plain - want) > 1e-6 * np.linalg.norm(want)


def test_mixer_keeps_the_last_pairs_of_one_factorization(rng):
    # keys as a solve makes them: runs of updates, each run with a new
    # factorization; the ring buffer must mix as a list of the pairs would
    depth = solver.ANDERSON_DEPTH
    mixer = solver._Mixer(7, depth)
    pairs = []
    for key, run in enumerate([1, 2, 9, 3, 6]):
        for _ in range(run):
            x, d = rng.normal(size=7), rng.normal(size=7)
            got = mixer.mix(x, d, key)
            pairs = (pairs if pairs and pairs[-1][2] == key else []) + [(x, d, key)]
            assert mixer.pairs == min(len(pairs), depth + 1)
            want = reference_mix([(x, d) for x, d, _ in pairs], depth)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    mixer.clear()
    assert mixer.pairs == 0


def test_mixing_history_is_of_the_current_factorization(space4, monkeypatch):
    # the march at nu = 0.02, with more than 10 rejected reused steps,
    # once with the stick-slip law (its reuses are refreshed) and once
    # with the Navier law (D == 0: its reuses are mixed): each
    # newton_solve call and each factorization starts an empty history,
    # so after the s-th mixed update since either it holds min(s, depth + 1)
    # pairs, never one from an earlier call or factorization.  Refreshed
    # updates are never mixed; every other update is.
    events, reports = [], []

    class Factor(solver._Factor):
        def __init__(self, *args):
            events.append("factor")
            super().__init__(*args)

        def refresh(self, *args):
            refreshed = super().refresh(*args)
            if refreshed:
                events.append("refreshed")
            return refreshed

    class Mixer(solver._Mixer):
        def mix(self, x, d, key):
            mixed = super().mix(x, d, key)
            events.append(self.pairs)
            return mixed

    def captured(*args, **kwargs):
        events.append("call")
        state, report = newton_solve(*args, **kwargs)
        reports.append(report)
        return state, report

    monkeypatch.setattr(solver, "_Factor", Factor)
    monkeypatch.setattr(solver, "_Mixer", Mixer)
    monkeypatch.setattr(solver, "newton_solve", captured)
    for law in (None, navier(1.0)):
        time_march(stick_slip_march_ctx(space4, nu=0.02, lam=10.0, law=law),
                   SystemState.zero(space4), T=1.5, delta=0.1)
    assert sum(r.chord_rejected for r in reports) > 10
    assert sum(r.fallbacks for r in reports) == 0
    since, held = 0, []
    for e in events:
        if e in ("call", "factor"):
            since = 0
        elif e != "refreshed":
            since += 1
            held.append((e, min(since, solver.ANDERSON_DEPTH + 1)))
    refreshed = events.count("refreshed")
    assert refreshed > 10
    assert len(held) + refreshed == sum(r.iterations + r.chord_rejected
                                        for r in reports)
    assert all(got == want for got, want in held)
    assert max(got for got, _ in held) == solver.ANDERSON_DEPTH + 1
    for r in reports:
        assert r.iterations == r.chord_accepted + r.factorizations
        assert r.refinements == 0


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
    monkeypatch.setattr(solver, "EXTRAPOLATE", False)
    monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
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
    # tolerance; the step after such a step starts from u_{j-1} itself
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
    skipped = 0
    for (_, before, _), (_, last, report), (guess, _, _) in zip(calls, calls[1:],
                                                                calls[2:]):
        if report.iterations:
            assert np.array_equal(guess.u, 2.0 * last.u - before.u)
        else:
            assert guess is last
            skipped += 1
    assert skipped >= 5
