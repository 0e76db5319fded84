"""Manufactured solutions, forcing synthesis, and the convergence harness.

Two families on the unit square: a Taylor-Green vortex and the polynomial
no-slip pair.  Every derivative closure is hand-derived; the test suite
checks all of them against finite-difference stencils, so the closures and
the assembled forcings carry independent certificates.

Time scaling: mode "static" uses (u, p) as given with no time dependence;
mode "linear" uses u~(t,x) = t u(x), p~ = t p, whose time derivative is
d_t u~ = u.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .fespace import SystemState, TaylorHoodSpace
from .sliplaw import SlipLaw
from .solver import ConfigError


@dataclasses.dataclass(frozen=True)
class ManufacturedSolution:
    """Analytic velocity/pressure pair with derivative closures.

    The spatial closures (u0, p0, grad0, lap0, gradp0, conv0) describe the
    time-independent profile; time factors are applied by the methods.
    conv0 is (u0 . grad) u0, so the convective term of the scaled solution
    is timefactor^2 * conv0.
    """

    name: str
    amplitude: float
    time_mode: str                    # "static" or "linear"
    u0: Callable
    p0: Callable
    grad0: Callable                   # (N,2,2), grad[i,j] = d u_i / d x_j
    lap0: Callable                    # vector Laplacian (N,2)
    gradp0: Callable                  # (N,2)
    conv0: Callable                   # (N,2)

    def _fac(self, t: float) -> float:
        return t if self.time_mode == "linear" else 1.0

    def u(self, x, t: float = 0.0):
        return self._fac(t) * self.u0(x)

    def p(self, x, t: float = 0.0):
        return self._fac(t) * self.p0(x)

    def grad_u(self, x, t: float = 0.0):
        return self._fac(t) * self.grad0(x)

    def dt_u(self, x, t: float = 0.0):
        if self.time_mode == "linear":
            return self.u0(x)
        return np.zeros_like(self.u0(x))

    def sym_grad(self, x, t: float = 0.0):
        g = self.grad_u(x, t)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def divergence(self, x, t: float = 0.0):
        g = self.grad_u(x, t)
        return g[..., 0, 0] + g[..., 1, 1]

    def traction_top(self, x, t: float = 0.0, nu: float = 1.0):
        """sigma = -(2 nu D u n)_tau on the top wall (n = (0,1)):
        the tangential wall traction the slip law must supply."""
        D = self.sym_grad(x, t)
        return np.stack(
            [-2.0 * nu * D[..., 0, 1], np.zeros(np.shape(x)[0])], axis=-1
        )


def taylor_green(amplitude: float, time_mode: str = "static") -> ManufacturedSolution:
    """Taylor-Green vortex of the given amplitude with the mixed-trig
    pressure; impermeable on the top wall, nonzero Dirichlet trace on the
    other walls."""
    if amplitude <= 0:
        raise ConfigError("amplitude must be > 0")
    L = amplitude
    pi = math.pi

    def u0(x):
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        return L * np.column_stack([sx * cy, -cx * sy])

    def p0(x):
        return (L / 4.0) * (np.cos(2 * pi * x[:, 0]) + np.sin(2 * pi * x[:, 1]))

    def grad0(x):
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        g = np.empty((len(x), 2, 2))
        g[:, 0, 0] = L * pi * cx * cy
        g[:, 0, 1] = -L * pi * sx * sy
        g[:, 1, 0] = L * pi * sx * sy
        g[:, 1, 1] = -L * pi * cx * cy
        return g

    def lap0(x):
        return -2.0 * pi**2 * u0(x)

    def gradp0(x):
        return (L * pi / 2.0) * np.column_stack(
            [-np.sin(2 * pi * x[:, 0]), np.cos(2 * pi * x[:, 1])]
        )

    def conv0(x):
        return (L**2 * pi / 2.0) * np.column_stack(
            [np.sin(2 * pi * x[:, 0]), np.sin(2 * pi * x[:, 1])]
        )

    return ManufacturedSolution(
        name="taylor_green", amplitude=amplitude, time_mode=time_mode,
        u0=u0, p0=p0, grad0=grad0, lap0=lap0, gradp0=gradp0, conv0=conv0,
    )


def polynomial_jhyw(amplitude: float, time_mode: str = "static") -> ManufacturedSolution:
    """Polynomial pair vanishing on the whole boundary, with linear-bilinear
    pressure; the exact tangential wall traction on the top wall has
    magnitude 20 nu L x^2 (1-x)^2 with maximum (5/4) nu L."""
    if amplitude <= 0:
        raise ConfigError("amplitude must be > 0")
    L = amplitude

    # u = (20 L a(x) b(y), -10 L a'(x) a(y)) with a = s^2(s-1)^2 and
    # b = a'/2 = s(s-1)(2s-1); divergence-free since (a' b, -a' b) cancel
    a = lambda s: s**2 * (s - 1.0) ** 2
    da = lambda s: 2.0 * s * (s - 1.0) * (2.0 * s - 1.0)
    d2a = lambda s: 12.0 * s**2 - 12.0 * s + 2.0
    d3a = lambda s: 24.0 * s - 12.0
    b = lambda s: s * (s - 1.0) * (2.0 * s - 1.0)
    db = lambda s: 6.0 * s**2 - 6.0 * s + 1.0
    d2b = lambda s: 12.0 * s - 6.0

    def u0(x):
        X, Y = x[:, 0], x[:, 1]
        return np.column_stack(
            [20.0 * L * a(X) * b(Y), -10.0 * L * da(X) * a(Y)]
        )

    def p0(x):
        return 20.0 * L * (2.0 * x[:, 0] - 1.0) * (2.0 * x[:, 1] - 1.0)

    def grad0(x):
        X, Y = x[:, 0], x[:, 1]
        g = np.empty((len(x), 2, 2))
        g[:, 0, 0] = 20.0 * L * da(X) * b(Y)
        g[:, 0, 1] = 20.0 * L * a(X) * db(Y)
        g[:, 1, 0] = -10.0 * L * d2a(X) * a(Y)
        g[:, 1, 1] = -10.0 * L * da(X) * da(Y)
        return g

    def lap0(x):
        X, Y = x[:, 0], x[:, 1]
        return np.column_stack(
            [
                20.0 * L * (d2a(X) * b(Y) + a(X) * d2b(Y)),
                -10.0 * L * (d3a(X) * a(Y) + da(X) * d2a(Y)),
            ]
        )

    def gradp0(x):
        X, Y = x[:, 0], x[:, 1]
        return 40.0 * L * np.column_stack([2.0 * Y - 1.0, 2.0 * X - 1.0])

    def conv0(x):
        u = u0(x)
        g = grad0(x)
        return np.einsum("nj,ncj->nc", u, g)

    return ManufacturedSolution(
        name="polynomial_jhyw", amplitude=amplitude, time_mode=time_mode,
        u0=u0, p0=p0, grad0=grad0, lap0=lap0, gradp0=gradp0, conv0=conv0,
    )


# ---------------------------------------------------------------------------
# forcing synthesis
# ---------------------------------------------------------------------------

def forcing(sol: ManufacturedSolution, nu: float,
            convection: bool = True) -> Callable:
    """Body force f = d_t u - nu lap(u) + (u.grad)u + grad(p) for the
    (possibly time-scaled) manufactured pair.

    div(2 nu D u) reduces to nu lap(u) because the families are
    divergence-free; the convective part carries the square of the time
    factor.
    """

    def f(x, t=0.0):
        fac = sol._fac(t)
        out = sol.dt_u(x, t) - nu * fac * sol.lap0(x) + fac * sol.gradp0(x)
        if convection:
            out = out + fac**2 * sol.conv0(x)
        return out

    return f


def slip_correction(sol: ManufacturedSolution, law: SlipLaw, nu: float) -> Callable:
    """Additive tangential traction g on the top wall making the
    manufactured pair satisfy the slip condition:
    sigma_law(u_tau) + g = -(2 nu D u n)_tau there.  Vanishes identically
    when the law reproduces the exact traction map."""

    def g(x, t=0.0):
        need = sol.traction_top(x, t, nu)
        have = np.array(law.sigma(sol.u(x, t), t), dtype=float)
        # tangential part on the top wall: zero the normal component
        have[:, 1] = 0.0
        return need - have

    return g


def dirichlet_data(sol: ManufacturedSolution) -> Callable:
    return lambda x, t=0.0: sol.u(x, t)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class StudyRow:
    n: int
    h: float
    err_l2_u: float
    err_h1_u: float
    err_l2_p: float
    err_l2_un: float


@dataclasses.dataclass
class StudyResult:
    rows: list
    rates: dict


def convergence_study(ns, solve_on) -> StudyResult:
    """Run `solve_on(n) -> (space, state, sol)` on nested levels and
    tabulate the errors against the exact pair sol at t = 0 with observed
    log2 rates."""
    ns = list(ns)
    if len(ns) < 3:
        raise ConfigError("a convergence study needs at least 3 mesh levels")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ConfigError(f"levels must be nested by factor 2, got {a} -> {b}")
    rows = []
    for n in ns:
        space, state, sol = solve_on(n)
        en = space.error_norms(state, sol.u, sol.p, exact_grad_u=sol.grad_u)
        rows.append(
            StudyRow(n, 1.0 / n, en.l2_u, en.h1_u, en.l2_p, en.l2_un)
        )
    rates = {}
    for key, attr in (("l2_u", "err_l2_u"), ("h1_u", "err_h1_u"),
                      ("l2_p", "err_l2_p"), ("l2_un", "err_l2_un")):
        vals = [getattr(r, attr) for r in rows]
        rates[key] = [
            math.log2(vals[k] / vals[k + 1]) if vals[k + 1] > 0 else float("inf")
            for k in range(len(vals) - 1)
        ]
    return StudyResult(rows=rows, rates=rates)


def interpolation_errors(space: TaylorHoodSpace, sol: ManufacturedSolution):
    """Error norms at t = 0 of the nodal interpolant of the exact pair (the
    benchmark the discrete solution is compared against)."""
    state = SystemState(space.interpolate_velocity(sol.u),
                        space.interpolate_pressure(sol.p))
    return space.error_norms(state, sol.u, sol.p, exact_grad_u=sol.grad_u)
