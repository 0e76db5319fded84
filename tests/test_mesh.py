import numpy as np
import pytest

from slipflow.fespace import TaylorHoodSpace
from slipflow.mesh import (
    BoundaryTag,
    MeshError,
    build_unit_square,
    tag_boundary,
    top_wall_tagger,
)


def signed_areas(m):
    p = m.vertices[m.cells]
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def test_smallest_structured_mesh():
    m = build_unit_square(1)
    assert m.num_vertices == 4
    assert m.num_cells == 2
    assert m.num_facets == 4
    assert np.allclose(m.facet_h, 1.0)


def test_counts_n2():
    m = build_unit_square(2)
    assert m.num_vertices == 9
    assert m.num_cells == 8
    assert m.num_facets == 8
    assert np.allclose(m.facet_h, 0.5)


def test_euler_formula_n50():
    m = build_unit_square(50)
    assert m.num_vertices == 2601
    assert m.num_cells == 5000
    # simply connected triangulation: E = V + T - 1
    assert m.num_edges == m.num_vertices + m.num_cells - 1 == 7600


def test_crossed_counts():
    m = build_unit_square(3, "crossed")
    assert m.num_cells == 4 * 9
    assert m.num_vertices == 16 + 9


def test_bad_input():
    with pytest.raises(MeshError):
        build_unit_square(0)
    with pytest.raises(MeshError):
        build_unit_square(2, "diag")


@pytest.mark.parametrize("n,diag", [(1, "right"), (5, "right"), (3, "crossed")])
def test_areas_and_perimeter(n, diag):
    m = build_unit_square(n, diag)
    assert abs(signed_areas(m).sum() - 1.0) <= 1e-12
    assert abs(m.facet_h.sum() - 4.0) <= 1e-12
    assert np.all(signed_areas(m) > 0)


def test_normals_unit_and_outward():
    m = build_unit_square(4)
    assert np.abs(np.linalg.norm(m.facet_normals, axis=1) - 1.0).max() <= 1e-14
    mids = m.facet_midpoints()
    # on the unit square the outward normal at a wall midpoint points away
    # from the center
    outward = np.einsum("ij,ij->i", m.facet_normals, mids - 0.5)
    assert np.all(outward > 0)


def test_axis_wall_normals():
    m = tag_boundary(build_unit_square(4), top_wall_tagger())
    mids = m.facet_midpoints()
    for n, hF, mid in zip(m.facet_normals, m.facet_h, mids):
        if abs(mid[1] - 1.0) <= 1e-12:
            assert np.allclose(n, [0.0, 1.0])
        elif abs(mid[0]) <= 1e-12:
            assert np.allclose(n, [-1.0, 0.0])
        assert abs(hF - 0.25) <= 1e-14


def test_facet_h_is_edge_length():
    m = build_unit_square(2)
    a = m.vertices[m.facet_vertices[:, 0]]
    b = m.vertices[m.facet_vertices[:, 1]]
    assert np.allclose(m.facet_h, np.linalg.norm(b - a, axis=1))


def test_divergence_theorem_affine_field():
    space = TaylorHoodSpace(tag_boundary(build_unit_square(5), top_wall_tagger()))
    m = space.mesh
    w = lambda x: np.column_stack(
        [2 * x[:, 0] + 3 * x[:, 1] + 1, -x[:, 0] + 4 * x[:, 1] - 2]
    )
    wn = (w(space.fpoints.reshape(-1, 2)).reshape(space.fpoints.shape)
          * m.facet_normals[:, None, :]).sum(axis=2)                  # (F,Qf)
    total = np.sum(m.facet_h[:, None] * space.fqweights * wn)
    assert abs(total - 6.0) <= 1e-12  # div w = 6, |Omega| = 1


def test_tagging_top_wall():
    m = tag_boundary(build_unit_square(2), top_wall_tagger())
    assert (m.facet_tags == BoundaryTag.SLIP).sum() == 2
    assert (m.facet_tags == BoundaryTag.DIRICHLET).sum() == 6


def test_tagging_all_slip():
    m = tag_boundary(build_unit_square(2), lambda mid: BoundaryTag.SLIP)
    assert (m.facet_tags == BoundaryTag.SLIP).sum() == 8


def test_tagging_rejects_untagged():
    def partial(mid):
        return BoundaryTag.SLIP if mid[1] > 0.5 else None

    with pytest.raises(MeshError, match="untagged facet"):
        tag_boundary(build_unit_square(2), partial)


def test_untagged_mesh_refuses_space_use():
    m = build_unit_square(2)
    with pytest.raises(MeshError):
        m.require_tagged()


def test_shape_regularity_constant_across_refinement():
    ratios = []
    for n in (2, 8, 32):
        m = build_unit_square(n)
        p = m.vertices[m.cells]
        per = (
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
            + np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
            + np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        )
        inradius = 2.0 * signed_areas(m) / per
        ratios.append((m.cell_h / inradius).max())
    assert np.ptp(ratios) <= 1e-12
    assert ratios[0] < 10.0


def test_conformity_edge_sharing():
    m = build_unit_square(3)
    # every interior edge appears in exactly two cells, boundary in one
    counts = np.zeros(m.num_edges, dtype=int)
    for t in range(m.num_cells):
        for e in m.cell_edges[t]:
            counts[e] += 1
    assert set(counts) <= {1, 2}
    assert (counts == 1).sum() == m.num_facets
