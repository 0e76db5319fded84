import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipflow.sliplaw import (
    SlipLawError,
    certify,
    dynamic_moving_wall,
    fang_regularized,
    fit_lambda,
    jacobian_fd_mismatch,
    leroux_rajagopal,
    navier,
    power_law,
    stick_slip_regularized,
    tresca_regularized,
)

PAPER_LEROUX = dict(a=1.0, b=0.1, c=0.001, theta=-0.75)
PAPER_FANG = dict(a=1.6, b=1.5, beta_exp=10.0, epsilon=2e-4)


def all_smooth_laws():
    return [
        navier(2.0),
        navier(0.0),
        navier(-0.5),
        leroux_rajagopal(**PAPER_LEROUX),
        tresca_regularized(1.0, 2e-4),
        stick_slip_regularized(2.0, 1.0, 2e-4),
        fang_regularized(**PAPER_FANG),
        power_law(1.0, 3.0),
    ]


# -- constructor spot values -------------------------------------------------

def test_navier_values():
    law = navier(2.0)
    assert np.allclose(law.sigma([3.0, 4.0]), [6.0, 8.0])
    assert np.allclose(law.jacobian([3.0, 4.0]), 2.0 * np.eye(2))
    assert law.r == 2.0 and law.lam == 0.0


def test_navier_perfect_slip():
    law = navier(0.0)
    assert np.allclose(law.sigma([5.0, -1.0]), 0.0)


def test_navier_negative_sets_defect():
    law = navier(-0.5)
    assert np.allclose(law.sigma([1.0, 0.0]), [-0.5, 0.0])
    assert law.lam == 0.5


def test_leroux_paper_value():
    law = leroux_rajagopal(**PAPER_LEROUX)
    # direct formula evaluation: (1.1)^(-0.75) + 0.001
    expect = (1.1) ** (-0.75) + 0.001
    assert np.allclose(law.sigma([1.0, 0.0]), [expect, 0.0])
    assert np.allclose(law.sigma([0.0, 0.0]), 0.0)


def test_leroux_asymptotic_slope():
    law = leroux_rajagopal(**PAPER_LEROUX)
    s = 1e6
    val = np.linalg.norm(law.sigma([s, 0.0]))
    assert abs(val / s - PAPER_LEROUX["c"]) <= 1e-4


def test_leroux_fitted_defect_positive():
    law = leroux_rajagopal(**PAPER_LEROUX)
    assert law.lam > 0.0  # theta = -0.75 < -1/2 makes it nonmonotone
    mono = leroux_rajagopal(1.0, 0.1, 0.001, 0.5)
    assert mono.lam == 0.0


def test_tresca_values():
    law = tresca_regularized(1.0, 2e-4)
    assert np.allclose(law.sigma([0.0, 0.0]), 0.0)
    assert np.allclose(law.jacobian([0.0, 0.0]), (1.0 / 2e-4) * np.eye(2))
    val = law.sigma([1.0, 0.0])
    assert abs(val[0] - 1.0 / np.sqrt(1.0 + 4e-8)) <= 1e-15
    assert law.r == 1.0 and law.lam == 0.0


def test_stick_slip_r_and_bound(rng):
    law = stick_slip_regularized(2.0, 1.0, 2e-4)
    assert law.r == 2.0
    for _ in range(50):
        v = rng.normal(size=2) * rng.uniform(0, 10)
        assert np.linalg.norm(law.sigma(v)) < 2.0 * np.linalg.norm(v) + 1.0


def test_tresca_rejects_bad_epsilon():
    with pytest.raises(SlipLawError):
        tresca_regularized(1.0, 0.0)
    with pytest.raises(SlipLawError):
        stick_slip_regularized(1.0, 1.0, -1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [
    lambda x: stick_slip_regularized(1.0, 1.0, x),
    lambda x: stick_slip_regularized(1.0, x, 2e-4),
    lambda x: stick_slip_regularized(x, 1.0, 2e-4),
    lambda x: tresca_regularized(x, 2e-4),
    lambda x: fang_regularized(1.6, 1.5, 10.0, x),
    lambda x: dynamic_moving_wall(1.0, x, 0.01),
    lambda x: dynamic_moving_wall(1.0, 1.0, x),
    lambda x: power_law(x, 3.0),
    lambda x: leroux_rajagopal(1.0, x, 0.001, -0.75),
], ids=["stick_slip-epsilon", "stick_slip-mu_star", "stick_slip-gamma_star",
        "tresca-mu_star", "fang-epsilon", "dynamic-beta_star",
        "dynamic-theta_star", "power_law-c", "leroux-b"])
def test_non_finite_law_parameter_is_rejected(make, bad):
    with pytest.raises(SlipLawError):
        make(bad)


def test_fang_threshold_values():
    law = fang_regularized(**PAPER_FANG)
    # mu(0) = a, mu(inf) = b
    assert abs(float(law.exact_magnitude(0.0)) - 1.6) <= 1e-15
    assert abs(np.linalg.norm(law.sigma([1e9, 0.0])) - 1.5) <= 1e-6
    assert np.allclose(law.sigma([0.0, 0.0]), 0.0)
    assert abs(law.lam - 10.0 * (1.6 - 1.5)) <= 1e-12  # beta_exp (a - b) = 1


def test_fang_rejects_degenerate():
    with pytest.raises(SlipLawError):
        fang_regularized(1.5, 1.5, 10.0, 2e-4)
    with pytest.raises(SlipLawError):
        fang_regularized(1.4, 1.5, 10.0, 2e-4)


def test_fang_strictly_below_threshold(rng):
    law = fang_regularized(**PAPER_FANG)
    for _ in range(100):
        v = rng.normal(size=2) * rng.uniform(0, 5)
        s = np.linalg.norm(v)
        mu = (1.6 - 1.5) * np.exp(-10.0 * s) + 1.5
        assert np.linalg.norm(law.sigma(v)) < mu


def test_dynamic_wall_ramp():
    law = dynamic_moving_wall(1.0, 2.0, 0.01)
    assert np.allclose(law.wall_velocity(0.005), [0.5, 0.0])
    assert np.allclose(law.wall_velocity(0.2), [1.0, 0.0])
    # constant-speed phase: zero difference quotient
    assert np.allclose(law.wall_velocity_rate(0.2, 0.005), 0.0)
    assert np.allclose(law.wall_velocity_rate(0.005, 0.005), [100.0, 0.0])


def test_dynamic_no_relative_slip():
    law = dynamic_moving_wall(1.0, 0.0, 0.01)
    t = 0.3
    assert np.allclose(law.sigma(law.wall_velocity(t), t), 0.0)


# -- analytic Jacobians vs finite differences ---------------------------------

@pytest.mark.parametrize("law", all_smooth_laws(), ids=lambda l: l.name)
def test_jacobian_matches_fd(law, rng):
    lo = max(law.epsilon, 1e-3)
    for _ in range(100):
        mag = np.exp(rng.uniform(np.log(lo), np.log(10.0)))
        ang = rng.uniform(0, 2 * np.pi)
        v = mag * np.array([np.cos(ang), np.sin(ang)])
        assert jacobian_fd_mismatch(law, v) <= 1e-6


# -- rotational equivariance ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    ang=st.floats(0.0, 2 * np.pi),
    vx=st.floats(-5.0, 5.0),
    vy=st.floats(-5.0, 5.0),
)
def test_rotational_equivariance(ang, vx, vy):
    R = np.array(
        [[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]
    )
    v = np.array([vx, vy])
    for law in (
        navier(1.5),
        leroux_rajagopal(**PAPER_LEROUX),
        tresca_regularized(1.0, 2e-4),
        fang_regularized(**PAPER_FANG),
    ):
        lhs = law.sigma(R @ v)
        rhs = R @ law.sigma(v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# -- regularization consistency -------------------------------------------------

def test_tresca_monotone_saturation():
    law = tresca_regularized(1.0, 2e-4)
    mags = [np.linalg.norm(law.sigma([s, 0.0])) for s in np.logspace(-5, 1, 40)]
    assert all(np.diff(mags) > 0)
    assert mags[-1] < 1.0


def test_tresca_tail_estimate():
    mu, eps = 1.0, 2e-4
    law = tresca_regularized(mu, eps)
    for s in np.logspace(np.log10(eps), 0, 20):
        v = np.array([s, 0.0])
        gap = np.linalg.norm(law.sigma(v) - mu * v / s)
        assert gap <= mu * eps**2 / (2.0 * s**2) + 1e-15


# -- certificates ----------------------------------------------------------------

def test_certify_tresca_passes():
    cert = certify(tresca_regularized(1.0, 2e-4))
    assert cert.passed and cert.lam == 0.0


def test_certify_fang_needs_its_lambda():
    law = fang_regularized(**PAPER_FANG)
    assert certify(law).passed  # declared lambda = 1
    bad = certify(law, lam=0.0)
    assert not bad.passed
    failing = [c for c in bad.clauses if not c.passed]
    assert any(c.name == "lambda-monotone" and c.witness for c in failing)


def test_certify_navier_negative_with_declared_lambda():
    assert certify(navier(-0.5)).passed


def test_certify_rejects_moving_wall():
    with pytest.raises(SlipLawError):
        certify(dynamic_moving_wall(1.0, 1.0, 0.01))


def test_fit_lambda_consistency():
    fitted = fit_lambda(leroux_rajagopal(**PAPER_LEROUX))
    declared = leroux_rajagopal(**PAPER_LEROUX).lam
    assert fitted <= declared + 1e-6
    assert fit_lambda(navier(3.0)) == 0.0
    assert abs(fit_lambda(navier(-0.5)) - 0.5) <= 1e-9


# -- array contract: (N,2) in, one traction and one Jacobian per row -------------

ARRAY_LAWS = [
    navier(1.5),
    power_law(1.0, 1.5),
    power_law(2.0, 2.0),
    power_law(1.0, 3.0),
    leroux_rajagopal(**PAPER_LEROUX),
    stick_slip_regularized(2.0, 1.0, 2e-4),
    tresca_regularized(1.0, 2e-4),
    fang_regularized(**PAPER_FANG),
    dynamic_moving_wall(1.0, 2.0, 0.01),
]

# components are 0 or of magnitude in [1e-6, 5]: zero rows hit the origin
# branches, and no power of a subnormal speed overflows
_component = st.one_of(
    st.just(0.0), st.floats(1e-6, 5.0), st.floats(-5.0, -1e-6)
)


def _same_rows(batch, rows):
    """Batch equals rows up to rounding of each row's largest entry (the
    vectorized power of numpy may round differently from the scalar one);
    NaN only where the rows have NaN."""
    rows = np.asarray(rows)
    assert batch.shape == rows.shape
    nan = np.isnan(rows)
    assert np.array_equal(np.isnan(batch), nan)
    flat = lambda a: np.where(nan, 0.0, a).reshape(len(rows), -1)
    scale = np.abs(flat(rows)).max(axis=1)
    assert np.all(np.abs(flat(batch - rows)).max(axis=1) <= 1e-14 * scale)


@settings(max_examples=60, deadline=None)
@given(
    v=st.lists(st.tuples(_component, _component), min_size=1, max_size=12),
    t=st.floats(0.0, 0.05),
)
def test_array_contract_matches_rows(v, t):
    v = np.array(v)
    for law in ARRAY_LAWS:
        _same_rows(law.sigma(v, t), [law.sigma(x, t) for x in v])
        _same_rows(law.jacobian(v, t), [law.jacobian(x, t) for x in v])


@pytest.mark.parametrize("law", ARRAY_LAWS, ids=lambda l: l.name)
def test_array_contract_zero_rows_and_shapes(law):
    v = np.array([[0.0, 0.0], [0.3, -0.4], [0.0, 0.0]])
    S, J = law.sigma(v, 0.02), law.jacobian(v, 0.02)
    assert S.shape == (3, 2) and J.shape == (3, 2, 2)
    assert law.sigma(v[1], 0.02).shape == (2,)
    assert law.jacobian(v[1], 0.02).shape == (2, 2)
    assert law.sigma(v[:0], 0.02).shape == (0, 2)
    assert law.jacobian(v[:0], 0.02).shape == (0, 2, 2)
    if law.name.startswith("power_law") and law.r < 2.0:
        assert np.all(np.isnan(J[[0, 2]])) and np.all(np.isfinite(J[1]))
    else:
        assert np.all(np.isfinite(J))
    if law.name.startswith("power_law") and law.r > 2.0:
        assert not np.any(J[[0, 2]])


def _fang_jacobian_longdouble(v, a, b, beta_exp, epsilon):
    """The fang Jacobian in extended precision, split into its tangential
    part mu/sqrt(q) (I - r r^T) and its radial part along r = v/|v|, so
    nothing cancels."""
    v = np.asarray(v, dtype=np.longdouble)
    a, b, beta_exp, eps = (np.longdouble(x) for x in (a, b, beta_exp, epsilon))
    s = np.sqrt(v @ v)
    q = eps * eps + s * s
    e = np.exp(-beta_exp * s)
    mu, dmu = (a - b) * e + b, -beta_exp * (a - b) * e
    rr = np.outer(v / s, v / s)
    return mu / np.sqrt(q) * (np.eye(2, dtype=np.longdouble) - rr) \
        + (mu * eps * eps / q + dmu * s) / np.sqrt(q) * rr


@pytest.mark.parametrize("speed", [1.0, 28.0, 1e3])
def test_fang_jacobian_exact_radially(speed):
    """Entry by entry to 1e-14, the radial entry of an axis-aligned slip
    included: it is eps^2/|v|^2 smaller than the tangential one.  The fang
    reference with a = b = mu* and beta_exp = 0, plus gamma* I, is the
    regularized Tresca and stick-slip Jacobian."""
    eps = PAPER_FANG["epsilon"]
    cases = [
        (fang_regularized(**PAPER_FANG), PAPER_FANG, 0.0),
        (tresca_regularized(1.0, eps), dict(a=1.0, b=1.0, beta_exp=0.0), 0.0),
        (stick_slip_regularized(2.0, 1.0, eps), dict(a=1.0, b=1.0, beta_exp=0.0), 2.0),
    ]
    for law, params, gamma in cases:
        params = {"epsilon": eps, **params}
        for direction in ([1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [-0.28, 0.96]):
            v = speed * np.array(direction)
            got = law.jacobian(v)
            want = _fang_jacobian_longdouble(v, **params) + gamma * np.eye(2)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), law.name


def test_array_contract_nested_batch():
    law = fang_regularized(**PAPER_FANG)
    v = np.linspace(-1.0, 1.0, 24).reshape(3, 4, 2)
    _same_rows(law.sigma(v).reshape(-1, 2),
               [law.sigma(x) for x in v.reshape(-1, 2)])
    _same_rows(law.jacobian(v).reshape(-1, 2, 2),
               [law.jacobian(x) for x in v.reshape(-1, 2)])
