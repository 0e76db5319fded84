"""The forcing of `verify.forcing` is a polynomial in t of the degree it
declares (`time_degree`), so `AssemblyContext.force_vector` loads it at
t = 0..d once and sums each step's load vector by Horner's rule.  A
callable without the attribute is evaluated at every step.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipflow.fespace import SystemState
from slipflow.forms import AssemblyContext, NitscheConfig
from slipflow.sliplaw import navier
from slipflow.solver import time_march
from slipflow.verify import forcing, polynomial_jhyw, taylor_green

FAMILIES = {"taylor_green": taylor_green, "polynomial_jhyw": polynomial_jhyw}
X = np.random.default_rng(7).random((40, 2))


cases = st.tuples(st.sampled_from(sorted(FAMILIES)),
                  st.floats(0.1, 20.0),
                  st.sampled_from(["static", "linear"]),
                  st.booleans(),
                  st.floats(0.01, 10.0))


@settings(max_examples=80, deadline=None)
@given(case=cases, t=st.floats(0.0, 10.0))
def test_forcing_is_its_interpolant_through_integer_times(case, t):
    family, amplitude, time_mode, convection, nu = case
    f = forcing(FAMILIES[family](amplitude, time_mode), nu, convection)
    d = f.time_degree
    assert d == ((2 if convection else 1) if time_mode == "linear" else 0)
    nodes = np.arange(d + 1.0)
    values = [f(X, s) for s in nodes]
    # Lagrange form of the degree-d polynomial through (s, f(s))
    interp = sum(v * np.prod([(t - r) / (s - r) for r in nodes if r != s])
                 for s, v in zip(nodes, values))
    want = f(X, t)
    scale = max(np.abs(v).max() for v in values + [want])
    assert np.abs(interp - want).max() <= 1e-12 * scale


def plain(f):
    """f without its `time_degree`: evaluated at every step."""
    return lambda x, t=0.0: f(x, t)


def context(space, f):
    return AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0),
                           forcing=f, dirichlet=0.0, delta=0.1,
                           u_old=np.zeros(space.n_vdofs))


@settings(max_examples=40, deadline=None)
@given(case=cases, ts=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
def test_prebuilt_load_vectors_match_per_step_evaluation(space4, case, ts):
    family, amplitude, time_mode, convection, nu = case
    f = forcing(FAMILIES[family](amplitude, time_mode), nu, convection)
    fast, slow = context(space4, f), context(space4, plain(f))
    got, want = [], []
    for t in ts:
        for ctx, out in ((fast, got), (slow, want)):
            ctx.advance(t, ctx.u_old)
            out.append(ctx.force_vector())
    got, want = np.array(got), np.array(want)
    if time_mode == "static":
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def counted(f):
    """f with a count of its calls; functools.wraps keeps `time_degree`,
    as any wrapper that copies the callable's __dict__ does."""
    @functools.wraps(f)
    def g(x, t=0.0):
        g.calls += 1
        return f(x, t)

    g.calls = 0
    return g


@pytest.mark.parametrize("steps", [3, 12])
@pytest.mark.parametrize("convection", [True, False])
def test_a_march_evaluates_the_forcing_once_per_coefficient(space4, steps,
                                                            convection):
    f = forcing(polynomial_jhyw(1.0, time_mode="linear"), 1.0, convection)
    for wrapped, want in ((counted(f), f.time_degree + 1),
                          (counted(plain(f)), steps)):
        time_march(context(space4, wrapped), SystemState.zero(space4),
                   T=0.1 * steps, delta=0.1)
        assert wrapped.calls == want


def test_reassigning_the_forcing_drops_its_load_vectors(space4):
    ctx = context(space4, forcing(taylor_green(1.0, "linear"), 1.0))
    ctx.advance(0.5, ctx.u_old)
    ctx.force_vector()
    g = forcing(polynomial_jhyw(2.0, "linear"), 1.0)
    ctx.forcing = g
    want = context(space4, plain(g))
    want.advance(0.5, want.u_old)
    assert np.abs(ctx.force_vector() - want.force_vector()).max() <= (
        1e-14 * np.abs(want.force_vector()).max())
