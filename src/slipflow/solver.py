"""Newton iteration with backtracking line search, sparse direct linear
solves, steady solves with load continuation, and backward Euler time
marching with trajectory capture.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse.linalg as spla

from .fespace import SystemState
from .forms import (
    AssemblyContext,
    WallProfile,
    assemble_jacobian,
    assemble_residual,
    boundary_functionals,
    energy_balance,
)

log = logging.getLogger("slipflow.solver")

# backtracking line search: step factor and maximum number of halvings
LS_RHO = 0.5
LS_MAX = 8
# accept a step computed with a reused factorization only if it
# contracts the residual at least this much; otherwise refactorize
CHORD_ACCEPT = 0.25
# a solve whose residual against the Jacobian exceeds this, relative to
# the right-hand side, gets one step of iterative refinement; if it
# still does, A' is factorized again with partial pivoting
BORDERED_RTOL = 1e-10
# SuperLU pivot threshold for A': 0 takes every nonzero diagonal pivot
# of the fill-reducing order (static pivoting).  It gives up growth
# control; the residual check above and the fallback, which pivots
# with the default threshold 1, stand in for it.
BORDERED_PIVOT = 0.0


class SolverError(Exception):
    """Linear or nonlinear solver failure."""


class ConfigError(Exception):
    """Inconsistent run configuration (bad time grid, schedule, ...)."""


class NewtonError(SolverError):
    """Newton divergence; carries the last iterate for continuation."""

    def __init__(self, message, state=None, report=None):
        super().__init__(message)
        self.state = state
        self.report = report


@dataclasses.dataclass
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 25

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ConfigError(f"Newton tolerances must be finite and > 0, got "
                              f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}")


@dataclasses.dataclass
class NewtonReport:
    """What one newton_solve call did.  The counts cover this call only,
    also when its factorization is reused from an earlier call."""

    iterations: int
    residuals: list
    ls_steps: list
    converged: bool
    factorizations: int = 0     # LU factorizations computed
    fallbacks: int = 0          # of those, partial-pivoting ones
    chord_accepted: int = 0     # reused-factorization steps taken
    chord_rejected: int = 0     # ... and refused
    lu_fill: int = 0            # stored entries of L and U, summed
    refinements: int = 0        # solves refined once


class FactorCache:
    """Holds the last factorization for reuse across time steps.

    Reused factors only ever produce candidate updates; acceptance is
    always judged on the true nonlinear residual, so reuse affects cost,
    never the converged solution.
    """

    def __init__(self):
        self.factor = None


class _Factor:
    """LU factors of one Jacobian A on (u, p), and its solves.

    A has the constant pressure z = (0, 1_p) as its right and its left
    null vector: the continuity rows sum to zero column by column.  So
    A' = A + e_k e_k^T, for the pressure DOF k of the Jacobian pattern,
    is regular, and it is factorized instead.  A x = b is solved in three
    steps (Bochev & Lehoucq, SIAM Rev. 47, 2005): b_p -= (sum(b_p) /
    sum(e_p)) e_p projects b onto the range of A; then A' x = b has
    x_k = 0 and A x = b; last, x_p is shifted to zero e_p-mean.

    A' is factorized with diagonal pivoting (BORDERED_PIVOT) in the
    pattern's nested-dissection order q (`JacobianPattern.order`), the
    same for every A' on a space: A'[q][:, q] is factorized in its
    natural order, and A' x = b is solved as x[q] = LU^-1 b[q].

    Every solve is checked against A.  If A' cannot be factorized, or a
    solve misses BORDERED_RTOL after one refinement step, A' is
    factorized with COLAMD and partial pivoting and used, unchecked,
    from then on.
    """

    def __init__(self, J, ctx: AssemblyContext, report: NewtonReport):
        self.J, self.pattern = J, ctx.cache.pattern
        self.p = slice(ctx.space.n_vdofs, None)
        self.e_p = ctx.cache.e_p
        self.e_sum = float(self.e_p.sum())
        self.checked = True
        try:
            self._factor(report, permc_spec="NATURAL", diag_pivot_thresh=BORDERED_PIVOT)
        except RuntimeError:
            self._fall_back(report)

    def _factor(self, report: NewtonReport, **options):
        """Factorize A'[q][:, q] for the pattern's order q."""
        self.lu = spla.splu(self.pattern.bordered(self.J.data), **options)
        report.factorizations += 1
        report.lu_fill += self.lu.nnz

    def _fall_back(self, report: NewtonReport):
        self.checked = False
        self.lu = None
        try:
            self._factor(report, permc_spec="COLAMD")
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}") from exc
        report.fallbacks += 1

    def _solve(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The projection of b onto the range of A, and the zero-mean x
        that A maps to it."""
        p, q = self.p, self.pattern.order
        b = b.copy()
        b[p] -= b[p].sum() / self.e_sum * self.e_p
        x = np.empty_like(b)
        x[q] = self.lu.solve(b[q])
        x[p] -= (self.e_p @ x[p]) / self.e_sum
        return b, x

    def _accurate(self, x: np.ndarray, b: np.ndarray) -> bool:
        res = np.linalg.norm(b - self.J @ x)
        return bool(res <= BORDERED_RTOL * np.linalg.norm(b))

    def solve(self, b: np.ndarray, report: NewtonReport) -> np.ndarray:
        """The zero-mean x that A maps to the projection of b onto its
        range; a refinement or a fallback is counted in `report`."""
        b, x = self._solve(b)
        if self.checked and not self._accurate(x, b):
            report.refinements += 1
            x += self._solve(b - self.J @ x)[1]
            if not self._accurate(x, b):
                self._fall_back(report)
                x = self._solve(b)[1]
        return x


def newton_solve(
    ctx: AssemblyContext,
    guess: Optional[SystemState] = None,
    cfg: NewtonConfig = NewtonConfig(),
    step_label: int = 0,
    factors: Optional[FactorCache] = None,
) -> tuple[SystemState, NewtonReport]:
    """Solve the assembled nonlinear system.

    Converged when ||R|| <= max(abs_tol, rel_tol ||R_0||).  The guess has
    its Dirichlet entries projected and its pressure shifted to zero
    e_p-mean before the first residual, and every Newton update keeps
    both.  A FactorCache passed in (the time marcher does) carries the
    factorization across calls.  Every iteration steps along an LU
    direction: with a reused factorization it tries the full step only,
    which is kept if it contracts the true residual by CHORD_ACCEPT or
    meets tol and otherwise frees the factorization, so the iteration
    is retried with a fresh one.  A fresh factorization backtracks up to
    LS_MAX halvings and keeps the best finite trial.  A non-finite
    Jacobian, or a line search whose every trial has a non-finite
    residual, raises SolverError.
    """
    state = guess.copy() if guess is not None else SystemState.zero(ctx.space)
    ctx.project_dirichlet(state)
    e_p = ctx.cache.e_p
    state.p -= (e_p @ state.p) / e_p.sum()
    if factors is None:
        factors = FactorCache()   # reuse within this solve only

    r = assemble_residual(state, ctx)
    rnorm = float(np.linalg.norm(r))
    report = NewtonReport(0, [rnorm], [], False)
    tol = max(cfg.abs_tol, cfg.rel_tol * rnorm)
    log.info("step %d iter 0 resid %.6e ls 0", step_label, rnorm)

    while rnorm > tol:
        it = report.iterations
        if it >= cfg.max_iter:
            raise NewtonError(
                f"Newton did not converge in {cfg.max_iter} iterations "
                f"(residual {rnorm:.3e}, tol {tol:.3e})",
                state=state,
                report=report,
            )

        where = f"step {step_label}, Newton iteration {it + 1}"
        reused = factors.factor is not None
        if not reused:
            J = assemble_jacobian(state, ctx)
            if not np.all(np.isfinite(J.data)):
                raise SolverError(f"{where}: the Jacobian is not finite")
            factors.factor = _Factor(J, ctx, report)
            del J   # freeing the factor frees its Jacobian
        d = factors.factor.solve(-r, report)

        x = ctx.pack(state)
        lam = 1.0
        best = None
        for halving in range(1 if reused else LS_MAX + 1):
            cand = ctx.unpack(x + lam * d)
            rc = assemble_residual(cand, ctx)
            rcn = float(np.linalg.norm(rc))
            # a non-finite trial is never taken
            if np.isfinite(rcn) and (best is None or rcn < best[1]):
                best = (cand, rcn, rc, halving)
            if rcn < rnorm:
                break
            lam *= LS_RHO
        if reused and (best is None or best[1] > max(CHORD_ACCEPT * rnorm, tol)):
            # freed before the next factorization: two never coexist
            factors.factor = None
            report.chord_rejected += 1
            continue
        if best is None:
            raise SolverError(
                f"{where}: every line-search trial has a non-finite residual")
        state, rnorm, r, used = best
        report.chord_accepted += reused
        report.ls_steps.append(used)
        report.residuals.append(rnorm)
        report.iterations += 1
        log.info("step %d iter %d resid %.6e ls %d%s", step_label, it + 1,
                 rnorm, used, " (reused)" if reused else "")

    report.converged = True
    return state, report


def _prefixed(exc: SolverError, prefix: str) -> SolverError:
    """`exc` with `prefix` put before its message; type and attributes
    (a NewtonError's state and report) are kept."""
    exc.args = (f"{prefix}: {exc}",) + exc.args[1:]
    return exc


def steady_solve(
    problem: Union[AssemblyContext, Callable[[float], AssemblyContext]],
    schedule: Optional[Sequence[float]] = None,
    cfg: NewtonConfig = NewtonConfig(),
) -> SystemState:
    """Steady solve, optionally ramping a load parameter.

    `problem` is either a ready AssemblyContext (solved directly) or a
    factory load -> AssemblyContext walked along `schedule` with warm
    starts.  A SolverError in the walk propagates with its type, its
    message prefixed by the failing load value.
    """
    if callable(problem) and not isinstance(problem, AssemblyContext):
        if not schedule:
            raise ConfigError("continuation solve needs a non-empty schedule")
        state = None
        for lam in schedule:
            ctx = problem(lam)
            if ctx.delta is not None:
                raise ConfigError("steady_solve needs steady contexts (delta=None)")
            try:
                state, _ = newton_solve(ctx, guess=state, cfg=cfg)
            except SolverError as exc:
                raise _prefixed(exc, f"continuation failed at load {lam}")
        return state
    if problem.delta is not None:
        raise ConfigError("steady_solve needs a steady context (delta=None)")
    state, _ = newton_solve(problem, cfg=cfg)
    return state


@dataclasses.dataclass
class Trajectory:
    """Backward Euler run record on the uniform grid t_j = j delta."""

    times: np.ndarray                 # (m+1,)
    probe_points: list                # list of (x, y)
    probe_series: np.ndarray          # (m+1, n_probes) of |u_tau|
    profiles: list                    # WallProfile per grid point (incl. t=0)
    energy: list                      # EnergyBalance per step (length m)
    newton_iters: list                # iterations per step (length m)
    final_state: SystemState

    def profile_at(self, t: float) -> WallProfile:
        if not self.profiles:
            raise ConfigError("no wall profiles were recorded "
                              "(the march ran with record_profiles=False)")
        j = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[j] - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"time {t} is not on the trajectory grid")
        return self.profiles[j]


def _setup_probes(ctx: AssemblyContext, points):
    """The point operator E of the probe points and one tangential
    projector I - n n^T per probe, n the normal of the slip facet with
    the nearest midpoint, or (0, 1) when no facet carries slip."""
    space = ctx.space
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    E = space.point_operator(pts)
    sl = space.slip_facets
    if sl.size:
        mids = space.mesh.facet_midpoints()[sl]
        near = np.argmin(np.linalg.norm(mids[None] - pts[:, None], axis=2), axis=1)
        normals = space.mesh.facet_normals[sl[near]]
    else:
        normals = np.tile([0.0, 1.0], (len(pts), 1))
    return E, np.eye(2) - normals[:, :, None] * normals[:, None, :]


def _probe_values(state: SystemState, E, proj) -> np.ndarray:
    """|u_tau| at every probe: |(I - n n^T) E u|."""
    return np.linalg.norm(proj @ (E @ state.u).reshape(-1, 2, 1), axis=(1, 2))


def time_march(
    ctx: AssemblyContext,
    u0: SystemState,
    T: float,
    delta: float,
    probes: Sequence = (),
    cfg: NewtonConfig = NewtonConfig(),
    record_profiles: bool = True,
) -> Trajectory:
    """March the backward Euler scheme from u0 to time T.

    T must be an integer multiple of delta (rejected otherwise rather than
    silently truncated).  Each step warm-starts Newton from the previous
    state; failures abort with the step index.  A probe outside the mesh
    raises MeshError before the first step.
    """
    if not 0 < delta < math.inf:
        raise ConfigError(f"time step delta must be finite and > 0, got {delta}")
    if not math.isfinite(T / delta):
        raise ConfigError(f"final time {T} over delta {delta} is not a finite "
                          f"number of steps")
    m = int(round(T / delta))
    if m < 1 or abs(m * delta - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(
            f"final time {T} is not an integer multiple of delta {delta}"
        )

    E, proj = _setup_probes(ctx, probes)
    factors = FactorCache()
    state = u0.copy()
    ctx.set_timestep(delta)
    ctx.advance(0.0, state.u.copy())
    ctx.project_dirichlet(state)

    times = delta * np.arange(m + 1)
    series = np.zeros((m + 1, len(proj)))
    profiles = []
    energies = []
    iters = []
    series[0] = _probe_values(state, E, proj)
    if record_profiles:
        profiles.append(boundary_functionals(state, ctx))

    for j in range(1, m + 1):
        t = j * delta
        ctx.advance(t, state.u.copy())
        try:
            state, report = newton_solve(
                ctx, guess=state, cfg=cfg, step_label=j, factors=factors
            )
        except SolverError as exc:
            raise _prefixed(exc, f"time step {j} (t = {t:.6g}) failed")
        iters.append(report.iterations)
        energies.append(energy_balance(state, ctx))
        series[j] = _probe_values(state, E, proj)
        if record_profiles:
            profiles.append(boundary_functionals(state, ctx))

    return Trajectory(
        times=times,
        probe_points=[tuple(map(float, p)) for p in probes],
        probe_series=series,
        profiles=profiles,
        energy=energies,
        newton_iters=iters,
        final_state=state,
    )
