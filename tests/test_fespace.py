import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from slipflow.fespace import (
    FacetTable,
    SystemState,
    TaylorHoodSpace,
    interval_quadrature,
    p2_basis,
    triangle_quadrature,
)
from slipflow.mesh import (
    GEOM_TOL, MeshError, build_unit_square, tag_boundary, top_wall_tagger,
)
from slipflow.verify import taylor_green


def test_cell_quadrature_degree6_exact():
    qp, qw = triangle_quadrature()
    assert np.all(qw > 0)
    assert abs(qw.sum() - 0.5) <= 1e-14
    for a in range(7):
        for b in range(7 - a):
            approx = np.sum(qw * qp[:, 0] ** a * qp[:, 1] ** b)
            exact = (
                math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            )
            assert abs(approx - exact) <= 1e-14


def test_facet_quadrature_degree6_exact():
    fq, fw = interval_quadrature()
    assert np.all(fw > 0)
    for k in range(7):
        assert abs(np.sum(fw * fq**k) - 1.0 / (k + 1)) <= 1e-14


def test_p2_lagrange_property():
    nodes = np.array(
        [[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]], dtype=float
    )
    val, _ = p2_basis(nodes)
    assert np.abs(val - np.eye(6)).max() <= 1e-14


def test_partition_of_unity(space4):
    assert np.abs(space4.phi.sum(axis=0) - 1.0).max() <= 1e-14
    assert np.abs(space4.psi.sum(axis=0) - 1.0).max() <= 1e-14


def _sym(grads):
    return 0.5 * (grads + np.swapaxes(grads, -1, -2))


def test_evaluate_linear_field_gives_identity_D(space4):
    u = space4.interpolate_velocity(lambda x: x)
    _, grads = space4.velocity_at_quadrature(u)
    assert np.abs(_sym(grads) - np.eye(2)).max() <= 1e-13


def test_evaluate_rigid_rotation_gives_zero_D(space4):
    u = space4.interpolate_velocity(
        lambda x: np.column_stack([x[:, 1], -x[:, 0]])
    )
    _, grads = space4.velocity_at_quadrature(u)
    assert np.abs(_sym(grads)).max() <= 1e-13


def test_evaluate_quadratic_field(space4):
    u = space4.interpolate_velocity(
        lambda x: np.column_stack([x[:, 0] ** 2, 0.0 * x[:, 0]])
    )
    _, grads = space4.velocity_at_quadrature(u)
    x = space4.xq[..., 0]
    assert np.abs(_sym(grads)[..., 0, 0] - 2.0 * x).max() <= 1e-13
    assert np.abs(grads[..., 0, 0] - 2.0 * x).max() <= 1e-13


def _wall_facet(space, wall):
    return int(np.flatnonzero(wall(space.mesh.facet_midpoints()))[0])


def test_facet_split_top_wall(space4):
    top = FacetTable(space4, [_wall_facet(space4, lambda m: m[:, 1] == 1.0)])
    u = space4.interpolate_velocity(lambda x: np.tile([3.0, 4.0], (len(x), 1)))
    vn, vt = top.split(top.values(u))
    assert np.abs(vn - 4.0).max() <= 1e-13
    assert np.allclose(vt, [3.0, 0.0])
    assert np.abs(vt @ top.n[0]).max() <= 1e-14


def test_facet_split_left_wall(space4):
    left = FacetTable(space4, [_wall_facet(space4, lambda m: m[:, 0] == 0.0)])
    u = space4.interpolate_velocity(lambda x: np.tile([1.0, 1.0], (len(x), 1)))
    vn, vt = left.split(left.values(u))
    assert np.abs(vn - (-1.0)).max() <= 1e-13
    assert np.allclose(vt, [0.0, 1.0])


def test_facet_split_zero(space4):
    sl = FacetTable(space4, np.arange(space4.mesh.num_facets))
    vn, vt = sl.split(sl.values(np.zeros(space4.n_vdofs)))
    assert np.all(vn == 0.0) and np.all(vt == 0.0)


def test_trace_reconstruction(space4, rng):
    u = rng.normal(size=space4.n_vdofs)
    sl = FacetTable(space4, space4.slip_facets)
    vals = sl.values(u)
    vn, vt = sl.split(vals)
    assert np.allclose(vn[:, :, None] * sl.n[:, None, :] + vt, vals, atol=1e-14)


def test_interpolate_linear_exact(space4, rng):
    u = space4.interpolate_velocity(lambda x: x)
    x = rng.random((20, 2))
    assert np.allclose((space4.point_operator(x) @ u).reshape(-1, 2), x, atol=1e-14)


def test_interpolate_taylor_green_center_node():
    msh = tag_boundary(build_unit_square(4), top_wall_tagger())
    sp = TaylorHoodSpace(msh)
    sol = taylor_green(1.0)
    u = sp.interpolate_velocity(sol.u)
    i = np.flatnonzero(
        (np.abs(sp.vnode_coords[:, 0] - 0.5) < 1e-14)
        & (np.abs(sp.vnode_coords[:, 1] - 0.5) < 1e-14)
    )[0]
    assert abs(u[2 * i]) <= 1e-15 and abs(u[2 * i + 1]) <= 1e-15


def test_interpolate_zero(space4):
    u = space4.interpolate_velocity(lambda x: np.zeros_like(x))
    assert np.all(u == 0.0)


def test_interpolation_is_projection(space4, rng):
    u0 = rng.normal(size=space4.n_vdofs)

    def field(x):
        return (space4.point_operator(x) @ u0).reshape(-1, 2)

    assert np.abs(space4.interpolate_velocity(field) - u0).max() <= 1e-12


def test_dirichlet_dofs_unique_and_cover_corners(space4):
    dd = space4.dirichlet_vdofs
    assert len(np.unique(dd)) == len(dd)
    # the wall corners (0,1), (1,1) belong to Dirichlet (strong zero wins)
    for corner in ([0.0, 1.0], [1.0, 1.0]):
        node = np.flatnonzero(
            np.all(np.abs(space4.vnode_coords - corner) < 1e-14, axis=1)
        )[0]
        assert 2 * node in dd and 2 * node + 1 in dd


def test_error_norms_reproduces_discrete_pair(space8):
    # comparing a discrete pair against its own point evaluation must give
    # zero error in every norm; the pressure is linear, so P1 holds it
    sol = taylor_green(1.0)
    p_lin = lambda x: 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
    state = SystemState(
        space8.interpolate_velocity(sol.u),
        space8.interpolate_pressure(p_lin),
    )
    en = space8.error_norms(
        state,
        lambda x: (space8.point_operator(x) @ state.u).reshape(-1, 2),
        p_lin,
    )
    assert en.l2_u <= 1e-12
    assert en.l2_p <= 1e-12
    assert en.l2_tau <= 1e-12


def test_error_norms_zero_state_is_exact_norm(space8):
    # independent oracle: ||u_TG||_L2 = amplitude / sqrt(2) by direct
    # quadrature of sin^2 cos^2 + cos^2 sin^2 (two terms of 1/4 each)
    sol = taylor_green(1.0)
    st = SystemState.zero(space8)
    en = space8.error_norms(st, sol.u, sol.p, exact_grad_u=sol.grad_u)
    assert abs(en.l2_u - 1.0 / math.sqrt(2.0)) <= 1e-4


def test_point_operator_outside_raises():
    msh = tag_boundary(build_unit_square(2), top_wall_tagger())
    sp = TaylorHoodSpace(msh)
    with pytest.raises(MeshError, match="outside the mesh"):
        sp.point_operator([[0.5, 0.5], [2.0, 2.0]])


# -- the point operator: random points, vertices and edge points -------------

QUAD = st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12)


@st.composite
def mesh_points(draw, space):
    """Points of the closed unit square: anywhere, at a vertex, or on an
    edge (interior or boundary)."""
    mesh = space.mesh
    kind = draw(st.sampled_from(["any", "vertex", "edge"]))
    if kind == "vertex":
        return mesh.vertices[draw(st.integers(0, mesh.num_vertices - 1))]
    if kind == "edge":
        a, b = mesh.vertices[mesh.edges[draw(st.integers(0, mesh.num_edges - 1))]]
        return a + draw(st.floats(0.0, 1.0)) * (b - a)
    return np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])


def _quadratic(c):
    c = np.asarray(c).reshape(2, 6)

    def f(x):
        X, Y = x[:, 0], x[:, 1]
        m = np.stack([np.ones_like(X), X, Y, X * X, X * Y, Y * Y])   # (6,N)
        return (c @ m).T

    return f


@settings(max_examples=60, deadline=None)
@given(data=st.data(), coef=QUAD)
def test_point_operator_reproduces_quadratics(space4, data, coef):
    pts = np.array([data.draw(mesh_points(space4)) for _ in range(5)])
    f = _quadratic(coef)
    E = space4.point_operator(pts)
    assert E.shape == (10, space4.n_vdofs)
    vals = (E @ space4.interpolate_velocity(f)).reshape(-1, 2)
    assert np.abs(vals - f(pts)).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_point_operator_is_continuous_across_edges(space4, data, s, seed):
    # a P2 field is continuous: both cells of an interior edge give one
    # value on it.  Within GEOM_TOL of a vertex the operator may pick a
    # cell that only touches the vertex and extrapolate its polynomial
    # over at most GEOM_TOL in reference coordinates.
    mesh = space4.mesh
    edge = data.draw(st.integers(0, mesh.num_edges - 1))
    a, b = mesh.vertices[mesh.edges[edge]]
    x = a + s * (b - a)
    u = np.random.default_rng(seed).normal(size=space4.n_vdofs)
    value = space4.point_operator(x) @ u
    cells = np.flatnonzero((mesh.cell_edges == edge).any(axis=1))
    assert len(cells) == 1 + (not np.any(mesh.facet_edges == edge))
    p0 = mesh.vertices[mesh.cells[cells, 0]]
    xi = np.einsum("tij,tj->ti", space4.invJ[cells], x - p0)
    loc = u[space4.cell_vdofs[cells]].reshape(-1, 6, 2)
    in_cells = np.einsum("tac,at->tc", loc, p2_basis(xi)[0])
    assert np.abs(in_cells - in_cells[0]).max() <= 1e-13
    assert np.abs(value - in_cells[0]).max() <= 1e-13 + 100 * GEOM_TOL * np.abs(u).max()


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(
    st.floats(-10.0, -1e-9), st.floats(1.0 + 1e-9, 10.0),
    st.sampled_from([np.nan, np.inf, -np.inf])),
       y=st.floats(0.0, 1.0), swap=st.booleans())
def test_point_operator_rejects_outside_or_nonfinite_points(space4, x, y, swap):
    pt = [y, x] if swap else [x, y]
    with pytest.raises(MeshError):
        space4.point_operator([[0.5, 0.5], pt])
