import numpy as np
import pytest

from slipflow.fespace import SystemState, TaylorHoodSpace
from slipflow.forms import AssemblyContext, NitscheConfig, assemble_residual
from slipflow.mesh import build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import navier
from slipflow.solver import ConfigError
from slipflow.verify import (
    convergence_study,
    dirichlet_data,
    forcing,
    interpolation_errors,
    polynomial_jhyw,
    slip_correction,
    taylor_green,
)

FAMILIES = [
    taylor_green(1.0),
    taylor_green(10.0),
    polynomial_jhyw(0.6),
    polynomial_jhyw(5.0),
]


def fd_derivative(f, x, h=1e-5):
    """5-point stencil directional derivatives in x and y."""
    cols = []
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        cols.append(
            (8 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e)))
            / (12 * h)
        )
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("sol", FAMILIES, ids=lambda s: f"{s.name}-{s.amplitude}")
def test_gradient_closures_match_fd(sol, rng):
    X = rng.uniform(0.05, 0.95, size=(50, 2))
    g = sol.grad0(X)
    gfd = fd_derivative(sol.u0, X)
    assert np.abs(g - gfd).max() <= 1e-8 * max(np.abs(g).max(), 1.0)
    gp = sol.gradp0(X)
    gpfd = fd_derivative(lambda Y: sol.p0(Y)[:, None], X)[:, 0, :]
    assert np.abs(gp - gpfd).max() <= 1e-8 * max(np.abs(gp).max(), 1.0)


@pytest.mark.parametrize("sol", FAMILIES, ids=lambda s: f"{s.name}-{s.amplitude}")
def test_laplacian_closure_matches_fd_of_gradient(sol, rng):
    X = rng.uniform(0.05, 0.95, size=(50, 2))
    lap_fd = np.zeros((len(X), 2))
    h = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        lap_fd += (
            8 * (sol.grad0(X + e)[:, :, j] - sol.grad0(X - e)[:, :, j])
            - (sol.grad0(X + 2 * e)[:, :, j] - sol.grad0(X - 2 * e)[:, :, j])
        ) / (12 * h)
    lap = sol.lap0(X)
    assert np.abs(lap - lap_fd).max() <= 1e-8 * max(np.abs(lap).max(), 1.0)


@pytest.mark.parametrize("sol", FAMILIES, ids=lambda s: f"{s.name}-{s.amplitude}")
def test_divergence_free(sol, rng):
    X = rng.uniform(0.0, 1.0, size=(200, 2))
    assert np.abs(sol.divergence(X)).max() <= 1e-12 * sol.amplitude


def test_taylor_green_divergence_identity():
    # div u = L pi (cos cos - cos cos) = 0 exactly by the closure structure
    sol = taylor_green(2.5)
    X = np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]])
    assert np.all(sol.divergence(X) == 0.0)


def test_polynomial_vanishes_on_boundary():
    sol = polynomial_jhyw(0.6)
    t = np.linspace(0, 1, 17)
    for edge in (
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([np.ones_like(t), t]),
    ):
        assert np.abs(sol.u0(edge)).max() == 0.0


def test_polynomial_wall_traction_profile():
    # |sigma(x)| = 20 nu L x^2 (1-x)^2 with max (5/4) nu L at x = 1/2
    nu, L = 1.0, 0.6
    sol = polynomial_jhyw(L)
    xs = np.linspace(0.0, 1.0, 101)
    pts = np.column_stack([xs, np.ones_like(xs)])
    tr = sol.traction_top(pts, 0.0, nu)
    mag = np.linalg.norm(tr, axis=1)
    assert np.abs(mag - 20 * nu * L * xs**2 * (1 - xs) ** 2).max() <= 1e-12
    assert abs(mag.max() - 1.25 * nu * L) <= 1e-12


def test_time_scaling_modes():
    sol = polynomial_jhyw(1.0, time_mode="linear")
    X = np.array([[0.3, 0.4]])
    assert np.allclose(sol.u(X, 0.0), 0.0)
    assert np.allclose(sol.u(X, 2.0), 2.0 * sol.u0(X))
    assert np.allclose(sol.dt_u(X, 1.7), sol.u0(X))
    static = polynomial_jhyw(1.0)
    assert np.allclose(static.dt_u(X, 1.7), 0.0)


def test_forcing_zero_for_zero_solution():
    # a manufactured pair that is numerically zero yields zero forcing
    sol = taylor_green(1e-300)
    f = forcing(sol, 1.0)
    X = np.array([[0.2, 0.8]])
    assert np.abs(f(X, 0.0)).max() <= 1e-290


def test_forcing_taylor_green_spot_value():
    # f at (0.5, 0.5) for Stokes part: -nu lap u = 2 nu pi^2 u = 0 there,
    # grad p = (L pi/2)(-sin pi, cos pi) = (0, -L pi/2)
    sol = taylor_green(1.0)
    f = forcing(sol, 1.0, convection=False)
    val = f(np.array([[0.5, 0.5]]), 0.0)[0]
    assert abs(val[0]) <= 1e-12
    assert abs(val[1] - (-np.pi / 2.0)) <= 1e-12


def test_forcing_time_scaled_has_dt_term():
    sol = polynomial_jhyw(1.0, time_mode="linear")
    f = forcing(sol, 1.0, convection=True)
    X = np.array([[0.3, 0.4]])
    at0 = f(X, 0.0)[0]
    # at t=0 the force reduces to d_t u~ = u0
    assert np.allclose(at0, sol.u0(X)[0], atol=1e-14)


def test_slip_correction_defining_identity():
    # g is defined so that sigma_law(u_tau) + g equals the exact tangential
    # traction on the top wall; when the law itself reproduces the traction
    # map the correction vanishes identically
    nu = 1.0
    xs = np.column_stack([np.linspace(0, 1, 11), np.ones(11)])
    for sol in (taylor_green(1.0), polynomial_jhyw(1.0)):
        law = navier(1.3)
        g = slip_correction(sol, law, nu)
        have = np.array([law.sigma(v, 0.0) for v in sol.u(xs, 0.0)])
        have[:, 1] = 0.0
        total = have + g(xs, 0.0)
        assert np.abs(total - sol.traction_top(xs, 0.0, nu)).max() <= 1e-14

    # Taylor-Green has zero exact tangential traction on the top wall, so
    # the perfect-slip law is the exact traction map there and g == 0
    sol = taylor_green(1.0)
    g = slip_correction(sol, navier(0.0), nu)
    assert np.abs(g(xs, 0.0)).max() <= 1e-14


def test_consistency_residual_decays_under_refinement():
    law = navier(1.0)
    sol = taylor_green(1.0)
    f = forcing(sol, 1.0, convection=False)
    g = slip_correction(sol, law, 1.0)
    norms = []
    for n in (4, 8):
        msh = tag_boundary(build_unit_square(n), top_wall_tagger())
        space = TaylorHoodSpace(msh)
        ctx = AssemblyContext(
            space, NitscheConfig(alpha=10.0, include_convection=False),
            law, forcing=f, dirichlet=dirichlet_data(sol), slip_forcing=g,
        )
        st = SystemState(
            space.interpolate_velocity(sol.u),
            space.interpolate_pressure(sol.p),
        )
        norms.append(np.linalg.norm(assemble_residual(st, ctx)))
    assert norms[1] <= 0.4 * norms[0]


def test_convergence_study_validation():
    dummy = lambda n: None
    with pytest.raises(ConfigError):
        convergence_study([4, 8], dummy)
    with pytest.raises(ConfigError):
        convergence_study([4, 8, 12], dummy)


def test_convergence_study_exact_discrete_pair():
    # a manufactured pair inside the discrete spaces is reproduced to
    # solver tolerance on every level
    from slipflow.solver import steady_solve

    law = navier(1.0)

    class P2Pair:
        # u = (y^2, 0) is divergence-free, impermeable on the top wall and
        # lies in the discrete velocity space; p = x - 1/2 is mean-zero P1
        name = "p2pair"
        amplitude = 1.0
        time_mode = "static"

        @staticmethod
        def u(x, t=0.0):
            return np.column_stack([x[:, 1] ** 2, np.zeros(len(x))])

        @staticmethod
        def p(x, t=0.0):
            return x[:, 0] - 0.5

        @staticmethod
        def grad_u(x, t=0.0):
            g = np.zeros((len(x), 2, 2))
            g[:, 0, 1] = 2 * x[:, 1]
            return g

    def solve_on(n):
        msh = tag_boundary(build_unit_square(n), top_wall_tagger())
        space = TaylorHoodSpace(msh)

        def f(x, t=0.0):
            # -nu lap u + grad p = (-2 nu + 1, 0)
            return np.tile([-1.0, 0.0], (len(x), 1))

        def g(x, t=0.0):
            # D12 = y: tangential traction on y=1 is (-2 nu, 0)
            need = np.tile([-2.0, 0.0], (len(x), 1))
            have = np.array([law.sigma(v) for v in P2Pair.u(x)])
            have[:, 1] = 0.0
            return need - have

        ctx = AssemblyContext(
            space, NitscheConfig(alpha=10.0, include_convection=False),
            law, forcing=f, dirichlet=lambda x, t: P2Pair.u(x),
            slip_forcing=g,
        )
        state = steady_solve(ctx)
        return space, state, P2Pair

    res = convergence_study([4, 8, 16], solve_on)
    for row in res.rows:
        assert row.err_l2_u <= 1e-9
        assert row.err_l2_p <= 1e-8


def test_interpolation_errors_small(space8):
    sol = taylor_green(1.0)
    en = interpolation_errors(space8, sol)
    assert 0 < en.l2_u < 1e-3
    assert 0 < en.h1_u < 1e-1
