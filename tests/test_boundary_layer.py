"""The vectorized boundary-facet layer against the per-facet loops.

Every boundary integral of `slipflow.forms` and `slipflow.stability` is
compared with its one-facet-at-a-time reference in `loop_reference.py`
to 1e-13 relative, on top-wall slip and on slip on all four walls.
"""

import dataclasses

import numpy as np
import pytest

import loop_reference as ref
from test_forms import SMOOTH_LAWS
from slipflow.fespace import FacetTable, SystemState, TaylorHoodSpace
from slipflow.forms import (
    AssemblyContext,
    NitscheConfig,
    _slip_jacobian,
    _slip_residual,
    assemble_jacobian,
    assemble_residual,
    boundary_functionals,
    energy_balance,
    get_cache,
)
from slipflow.mesh import BoundaryTag, build_unit_square, tag_boundary, top_wall_tagger
from slipflow.sliplaw import dynamic_moving_wall, navier
from slipflow.stability import inverse_trace_constant, wall_facets

RTOL = 1e-13


def close(new, old):
    new, old = (a.toarray() if hasattr(a, "toarray") else np.asarray(a)
                for a in (new, old))
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


@pytest.fixture(scope="module", params=["top", "all"])
def space(request):
    tagger = top_wall_tagger() if request.param == "top" else (
        lambda m: BoundaryTag.SLIP)
    return TaylorHoodSpace(tag_boundary(build_unit_square(5), tagger))


def moving_wall_with_forcing(space):
    """Unsteady context of a moving-wall law with a verification traction."""
    law = dynamic_moving_wall(1.0, 2.0, 0.01)
    return AssemblyContext(
        space, NitscheConfig(alpha=10.0), law, dirichlet=0.0,
        slip_forcing=lambda x, t: np.column_stack(
            [np.sin(3 * x[:, 0]) + t, x[:, 1] * np.cos(x[:, 0])]),
        t=0.004, delta=0.002, u_old=np.zeros(space.n_vdofs),
    )


def contexts(space):
    for law in SMOOTH_LAWS:
        delta = 0.01 if law.beta_star > 0 else None
        yield AssemblyContext(
            space, NitscheConfig(alpha=10.0), law, dirichlet=0.0, t=0.005,
            delta=delta, u_old=np.zeros(space.n_vdofs),
        )
    yield moving_wall_with_forcing(space)


def random_velocities(space, rng, count=4):
    # slip speeds from far below the regularization scale 2e-4 to O(10)
    for scale in np.logspace(-5, 1, count):
        yield scale * rng.normal(size=space.n_vdofs)


def test_slip_residual_and_jacobian_match_loops(space, rng):
    assert space.slip_facets.size
    for ctx in contexts(space):
        for u in random_velocities(space, rng):
            close(_slip_residual(ctx, u), ref.slip_residual(ctx, u))
            close(_slip_jacobian(ctx, u), ref.slip_jacobian(ctx, u))


def test_boundary_functionals_match_loops(space, rng):
    for ctx in contexts(space):
        for u in random_velocities(space, rng):
            st = SystemState(u, np.zeros(space.n_pdofs))
            prof = boundary_functionals(st, ctx)
            expect = ref.boundary_functionals(st, ctx)
            got = (prof.x, prof.s, prof.u_tau, prof.sigma, prof.un)
            for g, e in zip(got, expect):
                close(g, e)


def test_cache_boundary_blocks_match_loops(space):
    c = get_cache(space)
    for new, old in zip((c.M_B, c.P_pen, c.C_nit, c.B_n),
                        ref.cache_boundary_blocks(space)):
        close(new, old)


def test_boundary_masses_match_loops(space):
    selections = [
        space.slip_facets,
        np.arange(space.mesh.num_facets),
        wall_facets(space, ["top", "left"]),
    ]
    for facets in selections:
        bd = FacetTable(space, facets)
        close(bd.mass(normal=True), ref.normal_trace_mass(space, facets))
        close(bd.mass(), ref.full_trace_mass(space, facets))
        close(bd.mass(normal=True, per_h=True), ref.penalty_mass(space, facets))


@pytest.mark.parametrize("diagonal", ["right", "crossed"])
def test_inverse_trace_constant_matches_loop(diagonal):
    space = TaylorHoodSpace(
        tag_boundary(build_unit_square(4, diagonal), top_wall_tagger())
    )
    c_new = inverse_trace_constant(space)
    c_old = ref.inverse_trace_constant(space)
    assert abs(c_new - c_old) <= RTOL * c_old


def test_empty_slip_selection():
    space = TaylorHoodSpace(tag_boundary(
        build_unit_square(3), lambda m: BoundaryTag.DIRICHLET))
    ctx = AssemblyContext(space, NitscheConfig(alpha=10.0), navier(1.0),
                          dirichlet=0.0)
    u = np.ones(space.n_vdofs)
    assert not np.any(_slip_residual(ctx, u))
    assert _slip_jacobian(ctx, u).nnz == 0
    assert boundary_functionals(SystemState(u, np.zeros(space.n_pdofs)),
                                ctx).x.size == 0


def test_law_called_once_per_assembly(space, rng):
    calls = {"sigma": 0, "jacobian": 0}

    def counted(kind, fn):
        def wrapped(v, t=0.0):
            calls[kind] += 1
            return fn(v, t)
        return wrapped

    law = navier(1.0)
    law = dataclasses.replace(law, sigma=counted("sigma", law.sigma),
                              jacobian=counted("jacobian", law.jacobian))
    ctx = AssemblyContext(space, NitscheConfig(alpha=10.0), law, dirichlet=0.0)
    st = ctx.unpack(rng.normal(size=ctx.n_sys))
    ctx.project_dirichlet(st)
    assemble_residual(st, ctx)
    assert calls == {"sigma": 1, "jacobian": 0}
    assemble_jacobian(st, ctx)
    assert calls == {"sigma": 1, "jacobian": 1}
    energy_balance(st, ctx)
    boundary_functionals(st, ctx)
    assert calls == {"sigma": 3, "jacobian": 1}
