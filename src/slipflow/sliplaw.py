"""Regularized slip constitutive laws sigma(v_tau, t) with analytic
Jacobians and machine-checkable certificates of the structural assumptions
the scheme rests on: sigma(0)=0, lambda-monotonicity, growth/coercivity,
and the r=1 traction bound.

All laws here are isotropic (they depend on v through |v| and v), which
makes them rotationally equivariant.  Implicit graphs (Tresca, stick-slip,
nonmonotone friction) are exposed only through their smooth
regularizations; the lambda field is metadata used by the automatic
penalty selector, never materialized as a split in the residual.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np


class SlipLawError(Exception):
    """Invalid slip-law parameters."""


@dataclasses.dataclass(frozen=True)
class SlipLaw:
    """Time-dependent map v_tau -> traction, with Jacobian and metadata.

    sigma(v, t) and jacobian(v, t) take velocities v of shape (..., 2) and
    a time, and return tractions (..., 2) and Jacobians (..., 2, 2), one
    per velocity; a single 2-vector gives (2,) and (2, 2).  Assembly calls
    each of them once per residual or Jacobian with every slip-wall
    quadrature point at once, so a user-defined law must broadcast over
    the leading axes.  r is the growth exponent, lam the monotonicity
    defect (lam = 0 means monotone), beta_star the dynamic coefficient
    assembled into the boundary-mass time term, wall_velocity the optional
    moving-wall velocity u_b(t) with its backward difference quotient
    wall_velocity_rate(t, dt).  exact_magnitude(s) is the unregularized
    |sigma| at slip speed s > 0, used for reference curves in the
    experiment plots.
    """

    name: str
    sigma: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray, float], np.ndarray]
    r: float
    lam: float = 0.0
    beta_star: float = 0.0
    epsilon: float = 0.0
    coercive: bool = True
    wall_velocity: Optional[Callable[[float], np.ndarray]] = None
    exact_magnitude: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def wall_velocity_rate(self, t: float, dt: float) -> np.ndarray:
        """Backward difference quotient of u_b over the active step."""
        if self.wall_velocity is None:
            return np.zeros(2)
        return (self.wall_velocity(t) - self.wall_velocity(t - dt)) / dt


def _as_vec(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (2,):
        raise SlipLawError(
            f"slip velocities need a last axis of length 2, got {v.shape}"
        )
    return v


def _dot(a, b):
    """a . b over the last axis, rounded like the 1-D product a @ b."""
    return np.vecdot(a, b)


def _eye(v):
    """Identity 2x2 per velocity."""
    return np.broadcast_to(np.eye(2), v.shape + (2,))


def _outer(v):
    return v[..., :, None] * v[..., None, :]


def _col(a):
    """Per-velocity scalars shaped to scale (..., 2) arrays."""
    return np.asarray(a)[..., None]


def _mat(a):
    """Per-velocity scalars shaped to scale (..., 2, 2) arrays."""
    return np.asarray(a)[..., None, None]


def _friction_jacobian(v, epsilon, mu):
    """Derivative of mu v / sqrt(q), q = eps^2 + |v|^2, at fixed mu.

    mu (q^-1/2 I - q^-3/2 v v^T) = mu q^-3/2 (eps^2 I + C(v)) with C(v) =
    |v|^2 I - v v^T written out, so nothing cancels radially.
    """
    q = epsilon**2 + _dot(v, v)
    C = np.empty(v.shape + (2,))
    C[..., 0, 0] = v[..., 1] ** 2
    C[..., 1, 1] = v[..., 0] ** 2
    C[..., 0, 1] = C[..., 1, 0] = -v[..., 0] * v[..., 1]
    return _mat(mu * q ** (-1.5)) * (epsilon**2 * _eye(v) + C)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def navier(gamma: float) -> SlipLaw:
    """Linear friction sigma = gamma * v.  gamma < 0 models an active wall
    and sets the monotonicity defect lam = -gamma."""

    def sig(v, t=0.0):
        return gamma * _as_vec(v)

    def jac(v, t=0.0):
        return gamma * _eye(_as_vec(v))

    return SlipLaw(
        name=f"navier(gamma={gamma})",
        sigma=sig,
        jacobian=jac,
        r=2.0,
        lam=max(0.0, -gamma),
        coercive=gamma > 0,
        exact_magnitude=lambda s: abs(gamma) * np.asarray(s, dtype=float),
    )


def power_law(c: float, r: float) -> SlipLaw:
    """Monotone power law sigma = c |v|^(r-2) v for r in (1, inf).

    At the origin the Jacobian is c I for r = 2 and the zero matrix for
    r > 2; for r < 2 it is singular there and returned as NaN.
    Certification samples away from the origin.
    """
    if c <= 0 or r <= 1:
        raise SlipLawError("power_law needs c > 0 and r > 1")

    def speed(v):
        # |v| with the origin replaced by 1, so no power of 0 is taken;
        # every term that uses it there is multiplied by v = 0 or replaced
        s = np.sqrt(_dot(v, v))
        return s, np.where(s == 0.0, 1.0, s)

    def sig(v, t=0.0):
        v = _as_vec(v)
        _, s = speed(v)
        return _col(c * s ** (r - 2.0)) * v

    def jac(v, t=0.0):
        v = _as_vec(v)
        s0, s = speed(v)
        J = _mat(c * s ** (r - 2.0)) * _eye(v) \
            + _mat(c * (r - 2.0) * s ** (r - 4.0)) * _outer(v)
        at_zero = c * np.eye(2) if r == 2.0 else 0.0 if r > 2.0 else np.nan
        return np.where(_mat(s0 == 0.0), at_zero, J)

    return SlipLaw(
        name=f"power_law(c={c}, r={r})",
        sigma=sig,
        jacobian=jac,
        r=float(r),
        exact_magnitude=lambda s: c * np.asarray(s, dtype=float) ** (r - 1.0),
    )


def leroux_rajagopal(a: float, b: float, c: float, theta: float) -> SlipLaw:
    """sigma = (a (1 + b|v|^2)^theta + c) v; nonmonotone for theta < -1/2.

    The monotonicity defect is fitted at construction from the radial
    derivative d/ds[phi(s^2) s] scanned over s in [0, 100].
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise SlipLawError("leroux_rajagopal needs a, b, c > 0")

    def phi(s2):
        return a * (1.0 + b * s2) ** theta + c

    def dphi(s2):
        return a * b * theta * (1.0 + b * s2) ** (theta - 1.0)

    def sig(v, t=0.0):
        v = _as_vec(v)
        return _col(phi(_dot(v, v))) * v

    def jac(v, t=0.0):
        v = _as_vec(v)
        s2 = _dot(v, v)
        return _mat(phi(s2)) * _eye(v) + _mat(2.0 * dphi(s2)) * _outer(v)

    # eigenvalues of the Jacobian are phi (tangential) and phi + 2 s^2 phi'
    # (radial); the defect is the most negative of these over the ray
    s = np.linspace(0.0, 100.0, 200001)
    radial = phi(s**2) + 2.0 * s**2 * dphi(s**2)
    lam = max(0.0, float(-radial.min()))

    return SlipLaw(
        name=f"leroux_rajagopal(a={a}, b={b}, c={c}, theta={theta})",
        sigma=sig,
        jacobian=jac,
        r=2.0,
        lam=lam,
        exact_magnitude=lambda s: phi(np.asarray(s, dtype=float) ** 2)
        * np.asarray(s, dtype=float),
    )


def stick_slip_regularized(gamma_star: float, mu_star: float, epsilon: float) -> SlipLaw:
    """Smooth stick-slip law gamma* v + mu* v / sqrt(|v|^2 + eps^2).

    Monotone (lam = 0); growth exponent r = 1 for gamma* = 0 (Tresca) and
    r = 2 otherwise.
    """
    if epsilon <= 0:
        raise SlipLawError("regularization parameter epsilon must be > 0")
    if mu_star < 0 or gamma_star < 0:
        raise SlipLawError("stick_slip_regularized needs mu_star, gamma_star >= 0")

    def sig(v, t=0.0):
        v = _as_vec(v)
        return gamma_star * v + mu_star * v / _col(np.sqrt(_dot(v, v) + epsilon**2))

    def jac(v, t=0.0):
        v = _as_vec(v)
        return gamma_star * _eye(v) + _friction_jacobian(v, epsilon, mu_star)

    def exact(s):
        s = np.asarray(s, dtype=float)
        return gamma_star * s + mu_star * np.where(s > 0, 1.0, 0.0)

    return SlipLaw(
        name=f"stick_slip(gamma*={gamma_star}, mu*={mu_star}, eps={epsilon})",
        sigma=sig,
        jacobian=jac,
        r=1.0 if gamma_star == 0.0 else 2.0,
        epsilon=epsilon,
        exact_magnitude=exact,
    )


def tresca_regularized(mu_star: float, epsilon: float) -> SlipLaw:
    """Smooth Tresca friction mu* v / sqrt(|v|^2 + eps^2)."""
    law = stick_slip_regularized(0.0, mu_star, epsilon)
    return dataclasses.replace(law, name=f"tresca(mu*={mu_star}, eps={epsilon})")


def fang_regularized(a: float, b: float, beta_exp: float, epsilon: float) -> SlipLaw:
    """Regularized nonmonotone friction mu(|v|) v / sqrt(eps^2 + |v|^2)
    with mu(s) = (a - b) exp(-beta_exp s) + b; the decay of the activation
    threshold makes the graph nonmonotone with defect lam = beta_exp(a - b).

    (beta_exp is the exponential decay rate; the name avoids a collision
    with the dynamic boundary-mass coefficient.)
    """
    if epsilon <= 0:
        raise SlipLawError("regularization parameter epsilon must be > 0")
    if not a > b >= 0:
        raise SlipLawError(
            "fang_regularized needs a > b >= 0 (otherwise use tresca/stick-slip)"
        )
    if beta_exp < 0:
        raise SlipLawError("fang_regularized needs beta_exp >= 0")

    def mu(s):
        return (a - b) * np.exp(-beta_exp * s) + b

    def sig(v, t=0.0):
        v = _as_vec(v)
        s = np.sqrt(_dot(v, v))
        return _col(mu(s)) * v / _col(np.sqrt(epsilon**2 + s**2))

    def jac(v, t=0.0):
        v = _as_vec(v)
        s2 = _dot(v, v)
        s = np.sqrt(s2)
        q = epsilon**2 + s2
        base = _friction_jacobian(v, epsilon, mu(s))
        # derivative of mu(|v|): dmu/dv = mu'(s) v / s for s > 0; at s = 0
        # the outer product vanishes, so any finite divisor serves there
        s_pos = np.where(s > 0.0, s, 1.0)
        dmu = -beta_exp * (a - b) * np.exp(-beta_exp * s) * q ** (-0.5) / s_pos
        return base + _mat(dmu) * _outer(v)

    return SlipLaw(
        name=f"fang(a={a}, b={b}, beta_exp={beta_exp}, eps={epsilon})",
        sigma=sig,
        jacobian=jac,
        r=2.0,
        lam=beta_exp * (a - b),
        epsilon=epsilon,
        exact_magnitude=lambda s: mu(np.asarray(s, dtype=float)),
    )


def dynamic_moving_wall(gamma_star: float, beta_star: float, theta_star: float) -> SlipLaw:
    """Dynamic slip against a wall accelerating to unit speed over
    theta_star: u_b(t) = (min(t/theta_star, 1), 0).

    sigma(v, t) = gamma*(v - u_b(t)); the beta* d/dt(u_tau) part is
    assembled into the time term through beta_star, and the
    -beta* d/dt(u_b) part through wall_velocity_rate.
    """
    if theta_star <= 0:
        raise SlipLawError("theta_star must be > 0")
    if gamma_star < 0 or beta_star < 0:
        raise SlipLawError("gamma_star and beta_star must be >= 0")

    def wall(t):
        return np.array([min(max(t, 0.0) / theta_star, 1.0), 0.0])

    def sig(v, t=0.0):
        return gamma_star * (_as_vec(v) - wall(t))

    def jac(v, t=0.0):
        return gamma_star * _eye(_as_vec(v))

    return SlipLaw(
        name=f"dynamic(gamma*={gamma_star}, beta*={beta_star}, theta*={theta_star})",
        sigma=sig,
        jacobian=jac,
        r=2.0,
        beta_star=beta_star,
        wall_velocity=wall,
        exact_magnitude=lambda s: gamma_star * np.asarray(s, dtype=float),
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ClauseResult:
    name: str
    passed: bool
    value: float
    witness: Optional[list] = None

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        msg = f"{self.name}: {state} (value {self.value:.3e})"
        if not self.passed and self.witness is not None:
            msg += f", witness {self.witness}"
        return msg


@dataclasses.dataclass
class Certificate:
    law: str
    lam: float
    clauses: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def __str__(self):
        head = f"certificate for {self.law} (lambda = {self.lam}): "
        head += "PASS" if self.passed else "FAIL"
        return "\n".join([head] + ["  " + str(c) for c in self.clauses])


def _sample_points(rng, count, radius, exclude):
    """Half log-radial (to cover all magnitude scales down to the kink
    exclusion zone), half uniform in the square."""
    n_log = count // 2
    lo = max(exclude, radius * 1e-5, 1e-8)
    mags = np.exp(rng.uniform(np.log(lo), np.log(radius), n_log))
    angs = rng.uniform(0.0, 2.0 * np.pi, n_log)
    radial = np.column_stack([mags * np.cos(angs), mags * np.sin(angs)])
    rest = []
    while len(rest) < count - n_log:
        v = rng.uniform(-radius, radius, size=2)
        if np.linalg.norm(v) > exclude:
            rest.append(v)
    return np.vstack([radial, np.array(rest)])


def _monotonicity_pairs(rng, pts, exclude):
    """Independent pairs plus near-pairs around each sample, as two (N,2)
    arrays; the local defect of a smooth law is only visible at small
    separations."""
    half = len(pts) // 2
    d = rng.normal(size=pts.shape)
    d /= _col(np.sqrt(_dot(d, d)))
    rho = 1e-3 * (_col(np.sqrt(_dot(pts, pts))) + max(exclude, 1e-6))
    v1 = np.vstack([pts[0:2 * half:2], pts])
    v2 = np.vstack([pts[1:2 * half:2], pts + rho * d])
    return v1, v2


def _monotonicity_ratios(law: SlipLaw, v1, v2) -> np.ndarray:
    """(sigma(v1) - sigma(v2)) . (v1 - v2) / |v1 - v2|^2 per pair."""
    dv = v1 - v2
    ds = law.sigma(v1, 0.0) - law.sigma(v2, 0.0)
    return _dot(ds, dv) / _dot(dv, dv)


def fit_lambda(law: SlipLaw, samples: int = 400, radius: float = 10.0,
               seed: int = 0) -> float:
    """Smallest lambda >= 0 for which sampled pairs satisfy the
    lambda-monotonicity inequality."""
    rng = np.random.default_rng(seed)
    exclude = law.epsilon / 10.0 if law.epsilon > 0 else 0.0
    pts = _sample_points(rng, samples, radius, exclude)
    ratios = _monotonicity_ratios(law, *_monotonicity_pairs(rng, pts, exclude))
    return max(0.0, -min(0.0, float(ratios.min())))


def certify(law: SlipLaw, samples: int = 200, radius: float = 10.0,
            lam: Optional[float] = None, seed: int = 1234,
            tol: float = 1e-10) -> Certificate:
    """Check the structural clauses of a static law at sampled points.

    Clauses: (i) sigma(0) = 0; (ii) lambda-monotonicity of sampled pairs;
    (iii) coercivity of the lambda-shifted map with fitted constant c
    (strictly positive for monotone laws; for lam > 0 the shifted map only
    needs to be nonnegative, matching the explicit noncoercive setting);
    (iv) for r = 1 laws, the traction bound sup|sigma| <= mu-type constant
    estimated as the supremum of |sigma| over the samples against the law's
    |sigma(v)| at large |v|.  A NaN at any sample fails its clause.
    """
    if law.wall_velocity is not None:
        raise SlipLawError("certify applies to laws with zero wall velocity")
    if lam is None:
        lam = law.lam
    rng = np.random.default_rng(seed)
    exclude = law.epsilon / 10.0 if law.epsilon > 0 else 0.0
    clauses = []

    # (i) sigma(0) = 0
    s0 = np.linalg.norm(law.sigma(np.zeros(2), 0.0))
    clauses.append(ClauseResult("zero-at-origin", s0 <= tol, float(s0)))

    # (ii) lambda-monotonicity over sampled pairs (normalized defect)
    pts = _sample_points(rng, 2 * samples, radius, exclude)
    v1, v2 = _monotonicity_pairs(rng, pts, exclude)
    vals = _monotonicity_ratios(law, v1, v2) + lam
    i = int(np.argmin(vals))
    worst = float(vals[i])
    ok = worst >= -tol
    clauses.append(ClauseResult(
        "lambda-monotone", ok, worst,
        None if ok else [v1[i].tolist(), v2[i].tolist()],
    ))

    # (iii) coercivity of the shifted map: (sigma + lam v) . v >= c (|v|^r - 1)
    pts = _sample_points(rng, samples, radius, exclude)
    sig = law.sigma(pts, 0.0)
    num = _dot(sig + lam * pts, pts)
    den = np.sqrt(_dot(pts, pts)) ** law.r - 1.0
    fit = np.flatnonzero(den > 0.1)
    ratios = num[fit] / den[fit]
    # |v| < 1: any c > 0 works unless the shifted pairing dips below the
    # -c(1 - |v|^r) envelope; a negative pairing already fails
    dips = np.flatnonzero((den < -0.1) & (num < 0.0))
    cfit = float(ratios.min()) if fit.size else 0.0
    # the witness is the later in sample order of the minimizer and the
    # last dip
    seen = ([fit[np.argmin(ratios)]] if fit.size else []) + list(dips[-1:])
    cwitness = [pts[max(seen)].tolist()] if seen else None
    # strict positivity only for laws that declare coercivity; explicit
    # noncoercive relations (active walls, perfect slip) need only keep the
    # lambda-shifted pairing nonnegative
    need_strict = law.coercive and lam == 0.0
    ok = not dips.size and (cfit > tol if need_strict else cfit >= -tol)
    clauses.append(ClauseResult("coercivity", ok, cfit, None if ok else cwitness))

    # (iv) traction bound for r = 1 laws
    if law.r == 1.0:
        sup = float(np.sqrt(_dot(sig, sig)).max())
        bound = float(law.exact_magnitude(radius)) if law.exact_magnitude else sup
        ok = sup <= bound + tol
        clauses.append(ClauseResult("traction-bound", ok, sup))

    # Jacobian versus centered finite differences at |v| in [eps, radius]
    lo = max(law.epsilon, 1e-6 * radius)
    mags = np.exp(rng.uniform(np.log(lo), np.log(radius), 100))
    angs = rng.uniform(0.0, 2.0 * np.pi, 100)
    v = mags[:, None] * np.column_stack([np.cos(angs), np.sin(angs)])
    rel = jacobian_fd_mismatch(law, v)
    i = int(np.argmax(rel))
    worst_rel = float(rel[i])
    ok = worst_rel <= 1e-6
    clauses.append(ClauseResult(
        "jacobian-fd", ok, worst_rel, None if ok else [v[i].tolist()]
    ))

    return Certificate(law.name, lam, clauses)


def jacobian_fd_mismatch(law: SlipLaw, v, t: float = 0.0):
    """Relative mismatch between the analytic Jacobian and a centered
    difference with a step adapted to the local scale max(|v|, eps), one
    value per velocity of v (..., 2)."""
    v = _as_vec(v)
    h = 1e-7 * np.maximum(np.sqrt(_dot(v, v)), max(law.epsilon, 1e-12))
    J = law.jacobian(v, t)
    Jfd = np.empty(v.shape + (2,))
    for k in range(2):
        e = np.zeros(v.shape)
        e[..., k] = h
        Jfd[..., k] = (law.sigma(v + e, t) - law.sigma(v - e, t)) / (2 * h[..., None])
    err = np.abs(J - Jfd).max(axis=(-2, -1))
    return (err / np.maximum(np.abs(J).max(axis=(-2, -1)), 1e-30))[()]
