"""Newton iteration with backtracking line search, sparse direct linear
solves, steady solves with load continuation, and backward Euler time
marching with trajectory capture.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .fespace import SystemState
from .forms import (
    AssemblyContext,
    WallProfile,
    assemble_jacobian,
    assemble_residual,
    boundary_functionals,
    convection_derivative,
    energy_balance,
    slip_block,
)

log = logging.getLogger("slipflow.solver")

# backtracking line search: step factor and maximum number of halvings
LS_RHO = 0.5
LS_MAX = 8
# accept a step computed with a reused factorization only if it
# contracts the residual at least this much; otherwise refactorize (or
# backtrack, if refreshed and Newton-accurate: newton_solve)
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
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclasses.dataclass
class NewtonReport:
    """What one newton_solve call did.  The counts and wall times cover
    this call only, also when its factorization is reused from an
    earlier call."""

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
    refreshes: int = 0          # slip refreshes set up (W = A'^-1 U built)
    factor_s: float = 0.0       # wall time in the LU factorizations
    refresh_s: float = 0.0      # wall time building W
    residual_s: float = 0.0     # wall time assembling residuals
    jacobian_s: float = 0.0     # wall time assembling Jacobians
    linsolve_s: float = 0.0     # wall time in the solves and their checks


class FactorCache:
    """Holds the last factorization for reuse across time steps.

    Every reuse of a factorization, in the call that made it or in a
    later one, keeps its slip block exact: its solves are refreshed with
    the slip law's change since it was made (`_Factor.refresh`), so one
    factorization can serve a whole stick-slip march.  Reused factors,
    refreshed or not, only ever produce candidate updates; acceptance is
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
    space's nested-dissection order (`FormCache.splu`), the same for
    every A' on a space.

    Every solve is checked against A.  If A' cannot be factorized, or a
    solve misses BORDERED_RTOL after one refinement step, A' is
    factorized with COLAMD and partial pivoting and used, unchecked,
    from then on.

    Slip refresh.  The slip law moves A only in the dense r x r block on
    the slip support S (`forms.slip_block`).  Given u_f, the velocity A
    was assembled at, and Sigma_f, that block at u_f, `refresh` makes the
    solves solve with A + U D U^T instead, for D = Sigma(u) - Sigma_f and
    U the columns S of the identity, by the Woodbury identity (W. W.
    Hager, SIAM Rev. 31(2), 1989): x = x_0 - W (I + D C)^-1 D x_0[S],
    with x_0 the solve with A', W = A'^-1 U, built the first time D != 0
    by solves of 8 columns at a time, and C = W[S].  U D U^T holds no
    pressure, so the projection and the zero-mean shift stay as they
    are.  A refreshed solve is always checked, against A + U D U^T, and
    refined once; if it still misses, `solve` returns None and the
    factor must be freed, so a stale W never reaches the fallback.  What
    a refreshed A still misses of the Jacobian at u is the convection
    change since u_f (`forcing_term`).
    """

    def __init__(self, J, ctx: AssemblyContext, report: NewtonReport,
                 u: Optional[np.ndarray] = None):
        self.J, self.cache = J, ctx.cache
        self.p = slice(ctx.space.n_vdofs, None)
        self.e_p = self.cache.e_p
        self.e_sum = float(self.e_p.sum())
        self.checked = True
        # u_f and Sigma_f, and once D != 0: S, W, C; the refresh in use
        # is D and G = (I + D C)^-1 D, or None
        self.u, self.W, self.D = u, None, None
        self.sigma = None if u is None else slip_block(ctx, u)
        try:
            self._factor(report, permc_spec="NATURAL", diag_pivot_thresh=BORDERED_PIVOT)
        except RuntimeError:
            self._fall_back(report)

    def _factor(self, report: NewtonReport, **options):
        """Factorize A'; its (k, k) entry is J's last stored one, 0 in A."""
        t0 = time.perf_counter()
        self.J.data[-1] = 1.0
        try:
            self.lu = self.cache.splu(self.J, np.arange(self.J.shape[0]), **options)
        finally:
            self.J.data[-1] = 0.0
        report.factor_s += time.perf_counter() - t0
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

    def refresh(self, ctx: AssemblyContext, u: np.ndarray,
                report: NewtonReport) -> bool:
        """Make the solves solve with the slip block at u; False, and
        plain solves, where it equals Sigma_f.  Building W is counted and
        timed in `report`."""
        D = slip_block(ctx, u) - self.sigma
        if not D.any():
            self.D = None
            return False
        if self.W is None:
            # W is solved for 8 columns at a time, so no N x r identity
            # is held
            t0 = time.perf_counter()
            self.S, n = self.cache.slip_support[0], self.J.shape[0]
            self.W = np.empty((n, self.S.size), order="F")
            for k in range(0, self.S.size, 8):
                rows = self.S[k:k + 8]
                U = np.zeros((n, rows.size))
                U[rows, np.arange(rows.size)] = 1.0
                self.W[:, k:k + 8] = self.lu.solve(U)
            self.C = self.W[self.S]
            report.refresh_s += time.perf_counter() - t0
            report.refreshes += 1
        self.D = D
        try:
            self.G = np.linalg.solve(np.eye(len(D)) + D @ self.C, D)
        except np.linalg.LinAlgError:   # no solve can meet the check
            self.G = np.full_like(D, np.nan)
        return True

    def forcing_term(self, ctx: AssemblyContext, u, d, rnorm: float) -> float:
        """||(C(u) - C(u_f)) d_u|| / rnorm, C the convection Jacobian: the
        relative residual ||J(u) d + r|| / ||r|| of a refreshed direction
        d with A d = -r, for r the residual at u and ||r|| = rnorm."""
        if not ctx.config.include_convection:
            return 0.0
        dr = convection_derivative(ctx.space, u - self.u, d[:ctx.space.n_vdofs])
        return float(np.linalg.norm(dr)) / rnorm

    def _solve(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The projection of b onto the range of A, and the zero-mean x
        that A maps to it."""
        p = self.p
        b = b.copy()
        b[p] -= b[p].sum() / self.e_sum * self.e_p
        x = self.lu.solve(b)
        if self.D is not None:
            x -= self.W @ (self.G @ x[self.S])
        x[p] -= (self.e_p @ x[p]) / self.e_sum
        return b, x

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A x, with the refresh in use."""
        y = self.J @ x
        if self.D is not None:
            y[self.S] += self.D @ x[self.S]
        return y

    def _accurate(self, x: np.ndarray, b: np.ndarray) -> bool:
        res = np.linalg.norm(b - self._apply(x))
        return bool(res <= BORDERED_RTOL * np.linalg.norm(b))

    def solve(self, b: np.ndarray, report: NewtonReport) -> Optional[np.ndarray]:
        """The zero-mean x that A maps to the projection of b onto its
        range; a refinement or a fallback is counted in `report`.  None
        where a refreshed solve misses the check after its refinement."""
        b, x = self._solve(b)
        refreshed = self.D is not None
        if (self.checked or refreshed) and not self._accurate(x, b):
            report.refinements += 1
            x += self._solve(b - self._apply(x))[1]
            if not self._accurate(x, b):
                if refreshed:
                    return None
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
    factorization across calls.  Every iteration steps along the LU
    direction d as `_Factor.solve` returns it, fresh or reused.  Every
    reuse of a factorization is refreshed with the slip law's change
    since it was made (`_Factor.refresh`); a refreshed solve that misses
    its check frees it and counts as a rejected reused step.  A fresh
    factorization backtracks up to LS_MAX halvings and keeps the best
    finite trial.  A reused one tries the full step, kept if it
    contracts the true residual by CHORD_ACCEPT or meets tol.  If not, a
    refreshed step whose forcing term ||J(u) d + r|| / ||r||
    (`_Factor.forcing_term`; S. C. Eisenstat & H. F. Walker, SIAM J.
    Sci. Comput. 17(1), 1996) is at most CHORD_ACCEPT**2 backtracks as a
    fresh one and is kept if it lowers the residual; any other miss
    frees the factorization, and the iteration is retried with a fresh
    one.  A non-finite Jacobian, or a fresh line search whose every
    trial has a non-finite residual, raises SolverError.
    """
    state = guess.copy() if guess is not None else SystemState.zero(ctx.space)
    ctx.project_dirichlet(state)
    e_p = ctx.cache.e_p
    state.p -= (e_p @ state.p) / e_p.sum()
    if factors is None:
        factors = FactorCache()   # reuse within this solve only

    t0 = time.perf_counter()
    r = assemble_residual(state, ctx)
    rnorm = float(np.linalg.norm(r))
    report = NewtonReport(0, [rnorm], [], False,
                          residual_s=time.perf_counter() - t0)
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
            t0 = time.perf_counter()
            J = assemble_jacobian(state, ctx)
            report.jacobian_s += time.perf_counter() - t0
            if not np.all(np.isfinite(J.data)):
                raise SolverError(f"{where}: the Jacobian is not finite")
            factors.factor = _Factor(J, ctx, report, state.u)
            del J   # freeing the factor frees its Jacobian
        refreshed = reused and factors.factor.refresh(ctx, state.u, report)
        # a fallback's factorization counts in factor_s only
        t0, factor_s = time.perf_counter(), report.factor_s
        d = factors.factor.solve(-r, report)
        report.linsolve_s += time.perf_counter() - t0 - (report.factor_s - factor_s)
        if d is None:
            # a refreshed solve missed its check: factorize afresh
            factors.factor = None
            report.chord_rejected += 1
            continue
        x = ctx.pack(state)

        # a reused factorization tries the full step alone, unless it is
        # refreshed and Newton-accurate; then it backtracks to LS_MAX too
        chord, last = max(CHORD_ACCEPT * rnorm, tol), 0 if reused else LS_MAX
        lam, best = 1.0, None
        for halving in range(LS_MAX + 1):
            cand = ctx.unpack(x + lam * d)
            t0 = time.perf_counter()
            rc = assemble_residual(cand, ctx)
            rcn = float(np.linalg.norm(rc))
            report.residual_s += time.perf_counter() - t0
            # a non-finite trial is never taken
            if np.isfinite(rcn) and (best is None or rcn < best[1]):
                best = (cand, rcn, rc, halving)
            if (refreshed and not halving and not rcn <= chord
                    and factors.factor.forcing_term(ctx, state.u, d, rnorm)
                    <= CHORD_ACCEPT**2):
                last = LS_MAX
            if rcn < rnorm or halving == last:
                break
            lam *= LS_RHO
        if reused and (best is None
                       or (best[1] >= rnorm if last else best[1] > chord)):
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
    energy: list                      # EnergyBalance per step (length m; empty
                                      # unless the march ran with record_energy)
    reports: list                     # NewtonReport per step (length m)
    final_state: SystemState

    @property
    def newton_iters(self) -> list:
        """Newton iterations per step (length m)."""
        return [r.iterations for r in self.reports]

    def profile_at(self, t: float) -> WallProfile:
        if not self.profiles:
            raise ConfigError("no wall profiles were recorded "
                              "(the march ran with record_profiles=False)")
        return self.profiles[grid_index(self.times, t)]


def grid_index(times: np.ndarray, t: float) -> int:
    """The j with |times[j] - t| <= 1e-9 max(1, |t|), or ConfigError."""
    j = int(np.argmin(np.abs(times - t)))
    if not abs(times[j] - t) <= 1e-9 * max(1.0, abs(t)):
        raise ConfigError(f"time {t} is not on the trajectory grid")
    return j


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


def time_steps(T: float, delta: float) -> int:
    """The number of backward Euler steps of delta to time T; ConfigError
    unless delta is finite and > 0 and T a positive integer multiple of
    it."""
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
    return m


def _extrapolate(u1: SystemState, u2: SystemState,
                 u3: Optional[SystemState] = None) -> SystemState:
    """The linear extrapolation 2 u1 - u2, or with u3 the quadratic
    3 u1 - 3 u2 + u3, of u and p."""
    if u3 is None:
        return SystemState(2.0 * u1.u - u2.u, 2.0 * u1.p - u2.p)
    return SystemState(3.0 * u1.u - 3.0 * u2.u + u3.u,
                       3.0 * u1.p - 3.0 * u2.p + u3.p)


def time_march(
    ctx: AssemblyContext,
    u0: SystemState,
    T: float,
    delta: float,
    probes: Sequence = (),
    cfg: NewtonConfig = NewtonConfig(),
    record_profiles: bool = True,
    record_energy: bool = False,
) -> Trajectory:
    """March the backward Euler scheme from u0 to time T.

    T must be an integer multiple of delta (rejected otherwise rather than
    silently truncated).  Step j solves with the data of u_{j-1} and
    starts Newton from the quadratic extrapolation 3 u_{j-1} - 3 u_{j-2}
    + u_{j-3} of the last three states, u and p (`_extrapolate`); step 2
    starts from the linear 2 u_{j-1} - u_{j-2}, and the first step, and
    a step after one that took no Newton iteration, from u_{j-1}.
    Failures abort with the step index.  A probe outside the mesh raises
    MeshError before the first step.  With record_energy, every step's
    discrete energy identity (`forms.energy_balance`) is recorded in
    `Trajectory.energy`.
    """
    m = time_steps(T, delta)
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
    reports = []
    series[0] = _probe_values(state, E, proj)
    if record_profiles:
        profiles.append(boundary_functionals(state, ctx))

    prev = ()       # u_{j-2} and u_{j-3}, as far as they exist
    for j in range(1, m + 1):
        t = j * delta
        # the step data is u_{j-1}; only Newton's start is extrapolated,
        # and not after a step that took no iteration: it started within
        # tolerance, and the extrapolation only moves the start away
        ctx.advance(t, state.u.copy())
        guess = state
        if prev and reports[-1].iterations:
            guess = _extrapolate(state, *prev)
        try:
            new, report = newton_solve(
                ctx, guess=guess, cfg=cfg, step_label=j, factors=factors
            )
        except SolverError as exc:
            raise _prefixed(exc, f"time step {j} (t = {t:.6g}) failed")
        prev, state = (state, *prev[:1]), new
        reports.append(report)
        if record_energy:
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
        reports=reports,
        final_state=state,
    )
