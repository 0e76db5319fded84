import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from slipflow import solver
from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext,
    FormsError,
    NitscheConfig,
    assemble_jacobian,
    assemble_residual,
)
from slipflow.mesh import (
    BoundaryTag, MeshError, build_unit_square, tag_boundary, top_wall_tagger,
)
from slipflow.sliplaw import dynamic_moving_wall, navier, power_law, stick_slip_regularized
from slipflow.solver import (
    ConfigError,
    NewtonConfig,
    NewtonError,
    newton_solve,
    steady_solve,
    time_march,
)
from slipflow.verify import dirichlet_data, forcing, polynomial_jhyw, taylor_green


def stokes_ctx(space, f=None):
    return AssemblyContext(
        space,
        NitscheConfig(alpha=10.0, include_convection=False),
        navier(1.0),
        forcing=f,
        dirichlet=0.0,
    )


def test_linear_problem_one_iteration(space8):
    f = lambda x, t: np.column_stack([np.ones(len(x)), np.zeros(len(x))])
    state, report = newton_solve(stokes_ctx(space8, f))
    assert report.iterations == 1
    assert report.converged
    # the converged pressure has zero mean
    from slipflow.forms import get_cache

    assert abs(state.p @ get_cache(space8).e_p) <= 1e-10


def test_guess_pressure_mean_is_removed(space8, rng):
    # a linear problem: one Newton step from any guess gives the solution,
    # whose pressure has zero mean whatever the mean of the guess
    f = lambda x, t: np.column_stack([np.sin(3 * x[:, 1]), x[:, 0]])
    ctx = stokes_ctx(space8, f)
    want, _ = newton_solve(ctx)
    guess = SystemState(np.zeros(space8.n_vdofs),
                        3.7 + rng.normal(size=space8.n_pdofs))
    got, report = newton_solve(ctx, guess=guess)
    assert report.iterations == 1
    assert np.abs(got.p - want.p).max() <= 1e-10 * np.abs(want.p).max()


def test_rest_state_zero_iterations(space8):
    state, report = newton_solve(stokes_ctx(space8), cfg=NewtonConfig(abs_tol=1e-10))
    assert report.iterations == 0
    assert np.all(state.u == 0.0)


def test_power_law_newton_from_rest(space4):
    # r > 2: the slip law's Jacobian at rest is the zero matrix, not NaN
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), power_law(1.0, 3.0),
        forcing=lambda x, t: np.column_stack([20.0 * x[:, 1], np.zeros(len(x))]),
        dirichlet=0.0,
    )
    rest = ctx.project_dirichlet(SystemState.zero(space4))
    assert np.all(np.isfinite(assemble_jacobian(rest, ctx).data))
    state, report = newton_solve(ctx)
    assert report.converged and report.iterations >= 2
    assert np.abs(state.u).max() > 0.1
    assert np.linalg.norm(assemble_residual(state, ctx)) <= 1e-9


def test_newton_max_iter_error(space4):
    # unreachable tolerance forces the divergence path and carries the iterate
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        forcing=lambda x, t: np.column_stack([np.sin(7 * x[:, 0]), x[:, 1]]),
        dirichlet=0.0,
    )
    with pytest.raises(NewtonError) as exc:
        newton_solve(ctx, cfg=NewtonConfig(abs_tol=1e-300, rel_tol=1e-300,
                                           max_iter=2))
    assert exc.value.state is not None
    assert exc.value.report.iterations == 2


def test_newton_config_validation():
    with pytest.raises(ConfigError):
        NewtonConfig(abs_tol=0.0)


def test_steady_solve_rejects_unsteady_context(space4):
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )
    with pytest.raises(ConfigError):
        steady_solve(ctx)


def test_steady_continuation_schedule(space8):
    sol = taylor_green(1.0)

    def make_ctx(lam):
        s = taylor_green(lam)
        return AssemblyContext(
            space8, NitscheConfig(alpha=10.0), navier(1.0),
            forcing=forcing(s, 1.0), dirichlet=dirichlet_data(s),
        )

    state = steady_solve(make_ctx, [0.5, 1.0])
    r = assemble_residual(state, make_ctx(1.0))
    assert np.linalg.norm(r) <= 1e-9
    with pytest.raises(ConfigError):
        steady_solve(make_ctx, [])


def test_time_march_flat_at_rest(space8):
    ctx = AssemblyContext(
        space8, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.01, u_old=np.zeros(space8.n_vdofs),
    )
    traj = time_march(ctx, SystemState.zero(space8), T=0.05, delta=0.01,
                      probes=[(0.5, 1.0)])
    assert np.all(traj.probe_series == 0.0)
    assert np.all(np.asarray(traj.newton_iters) == 0)
    assert len(traj.times) == 6
    assert np.all(traj.profiles[-1].u_tau == 0.0)


def test_time_grid_must_divide(space4):
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.005, u_old=np.zeros(space4.n_vdofs),
    )
    with pytest.raises(ConfigError):
        time_march(ctx, SystemState.zero(space4), T=0.013, delta=0.005)
    with pytest.raises(ConfigError):
        time_march(ctx, SystemState.zero(space4), T=0.05, delta=-0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_settings_raise_typed_errors(space4, bad):
    with pytest.raises(ConfigError):
        NewtonConfig(abs_tol=bad)
    with pytest.raises(ConfigError):
        NewtonConfig(rel_tol=bad)
    with pytest.raises(FormsError):
        NitscheConfig(nu=bad)
    with pytest.raises(FormsError):
        NitscheConfig(alpha=bad)
    with pytest.raises(FormsError):
        AssemblyContext(space4, NitscheConfig(), navier(1.0), dirichlet=0.0,
                        delta=bad, u_old=np.zeros(space4.n_vdofs))
    ctx = AssemblyContext(space4, NitscheConfig(), navier(1.0), dirichlet=0.0,
                          delta=0.01, u_old=np.zeros(space4.n_vdofs))
    with pytest.raises(FormsError):
        ctx.set_timestep(bad)
    with pytest.raises(ConfigError):
        time_march(ctx, SystemState.zero(space4), T=bad, delta=0.01)
    with pytest.raises(ConfigError):
        time_march(ctx, SystemState.zero(space4), T=0.02, delta=bad)
    with pytest.raises(ConfigError, match="not a finite number of steps"):
        time_march(ctx, SystemState.zero(space4), T=0.02, delta=1e-320)


@pytest.fixture(scope="module")
def rest2():
    space = TaylorHoodSpace(tag_boundary(build_unit_square(2), top_wall_tagger()))
    return AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0),
                           dirichlet=0.0, delta=1.0,
                           u_old=np.zeros(space.n_vdofs))


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(1e-3, 1.0), m=st.integers(0, 12),
       off=st.one_of(st.floats(-0.5, 0.5), st.floats(2.0, 50.0),
                     st.floats(-50.0, -2.0)))
def test_time_grid_is_checked_exactly(rest2, delta, m, off):
    # T is m steps plus `off` times the tolerance 1e-9 max(T, 1), with a
    # factor 2 clear of the tolerance: far below rounding either way
    T = m * delta
    T += off * 1e-9 * max(T, 1.0)
    state = SystemState.zero(rest2.space)
    if m < 1 or abs(off) > 1.0:
        with pytest.raises(ConfigError, match="not an integer multiple"):
            time_march(rest2, state, T=T, delta=delta, record_profiles=False)
        return
    traj = time_march(rest2, state, T=T, delta=delta, record_profiles=False)
    assert len(traj.times) == m + 1 == round(T / delta) + 1
    assert traj.newton_iters == [0] * m


def test_dirichlet_data_with_net_flux_is_rejected(space4):
    # g = (x, 0) pushes a net flux of 1 out through the right wall
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=lambda x, t: np.column_stack([x[:, 0], np.zeros(len(x))]))
    with pytest.raises(FormsError, match="net flux 1.000e\\+00"):
        newton_solve(ctx)


@pytest.mark.parametrize("diagonal", ["right", "crossed"])
def test_taylor_green_dirichlet_data_solves(diagonal):
    space = TaylorHoodSpace(
        tag_boundary(build_unit_square(4, diagonal), top_wall_tagger()))
    sol = taylor_green(1.0)
    ctx = AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0),
                          forcing=forcing(sol, 1.0), dirichlet=dirichlet_data(sol))
    state, report = newton_solve(ctx)
    assert report.converged and report.fallbacks == report.refinements == 0
    r = np.linalg.norm(assemble_residual(state, ctx))
    assert r <= max(1e-10, 1e-10 * report.residuals[0])


def test_probe_outside_the_mesh_fails_before_the_first_step(space4, monkeypatch):
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), navier(1.0),
        dirichlet=0.0, delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )

    def no_step(*args, **kwargs):
        raise AssertionError("a time step ran")

    monkeypatch.setattr(solver, "newton_solve", no_step)
    with pytest.raises(MeshError, match="outside the mesh"):
        time_march(ctx, SystemState.zero(space4), T=0.02, delta=0.01,
                   probes=[(0.5, 1.0), (2.0, 1.0)])


@pytest.mark.parametrize("wall", ["top", "all", "none"])
def test_probe_series_matches_one_probe_at_a_time(wall, rng):
    taggers = {"top": top_wall_tagger(),
               "all": lambda mid: BoundaryTag.SLIP,
               "none": lambda mid: BoundaryTag.DIRICHLET}
    space = TaylorHoodSpace(tag_boundary(build_unit_square(4), taggers[wall]))
    ctx = AssemblyContext(
        space, NitscheConfig(alpha=10.0), navier(1.0),
        forcing=forcing(taylor_green(1.0), 1.0), dirichlet=0.0,
        delta=0.01, u_old=np.zeros(space.n_vdofs),
    )
    # anywhere, on the walls, at vertices and at edge midpoints
    pts = np.vstack([rng.random((6, 2)), [[0.5, 1.0], [0.0, 0.3], [1.0, 0.9]],
                     space.vnode_coords[::9]])
    traj = time_march(ctx, SystemState.zero(space), T=0.01, delta=0.01, probes=pts)
    want = ref.probe_values(space, traj.final_state.u, pts)
    assert np.abs(traj.probe_series[1] - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(want).max() > 0


def test_dynamic_march_monotone_and_warm_start_equivalence(space8):
    law = dynamic_moving_wall(1.0, 0.0, 0.01)
    ctx = AssemblyContext(
        space8, NitscheConfig(alpha=10.0), law,
        dirichlet=0.0, delta=0.005, u_old=np.zeros(space8.n_vdofs),
    )
    traj = time_march(ctx, SystemState.zero(space8), T=0.05, delta=0.005,
                      probes=[(0.5, 1.0)])
    series = traj.probe_series[:, 0]
    assert np.all(np.diff(series) >= -1e-6)

    # re-solve the final step from a cold start: after the march ctx.u_old
    # still holds the state at t_{m-1}
    m = len(traj.times) - 1
    ctx2 = AssemblyContext(
        space8, NitscheConfig(alpha=10.0), law,
        dirichlet=0.0, delta=0.005, u_old=ctx.u_old, t=traj.times[m],
    )
    cold, _ = newton_solve(ctx2, guess=None)
    assert np.abs(cold.u - traj.final_state.u).max() <= 1e-7


def test_march_with_stick_slip_energy_recorded(space4):
    # force-driven flow with homogeneous no-slip walls: the per-step energy
    # identity must close to solver tolerance
    sol = taylor_green(1.0)
    law = stick_slip_regularized(0.0, 1.0, 2e-4)
    ctx = AssemblyContext(
        space4, NitscheConfig(alpha=10.0), law,
        forcing=forcing(sol, 1.0), dirichlet=0.0,
        delta=0.01, u_old=np.zeros(space4.n_vdofs),
    )
    traj = time_march(ctx, SystemState.zero(space4), T=0.05, delta=0.01)
    assert len(traj.energy) == 5
    for eb in traj.energy:
        assert abs(eb.residual) <= 1e-7 * eb.scale


def stick_slip_march_ctx(space):
    """The stick-slip march of the CLI at delta = 0.1."""
    sol = polynomial_jhyw(1.0, time_mode="linear")
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0), stick_slip_regularized(0.0, 1.0, 2e-4),
        forcing=forcing(sol, 1.0, convection=True), dirichlet=0.0,
        delta=0.1, u_old=np.zeros(space.n_vdofs),
    )


def test_two_factorizations_never_coexist(space4, monkeypatch):
    # through stick-to-slip the reused factorization keeps failing to
    # contract the residual; each rejection must free it before the
    # next one is built
    alive, coexisting, reports = [], [], []

    class Tracked(solver._Factor):
        def __init__(self, *args):
            coexisting.append(sum(ref() is not None for ref in alive))
            super().__init__(*args)
            alive.append(weakref.ref(self))

    def captured(*args, **kwargs):
        state, report = newton_solve(*args, **kwargs)
        reports.append(report)
        return state, report

    monkeypatch.setattr(solver, "_Factor", Tracked)
    monkeypatch.setattr(solver, "newton_solve", captured)
    time_march(stick_slip_march_ctx(space4), SystemState.zero(space4),
               T=1.5, delta=0.1)
    assert sum(r.chord_rejected for r in reports) == len(coexisting) - 1 > 10
    assert coexisting == [0] * len(coexisting)


def test_profiles_not_recorded_is_a_config_error(space4):
    traj = time_march(stick_slip_march_ctx(space4), SystemState.zero(space4),
                      T=0.2, delta=0.1, record_profiles=False)
    assert traj.profiles == []
    with pytest.raises(ConfigError, match="no wall profiles were recorded"):
        traj.profile_at(0.1)
