"""Structured triangulations of polygonal domains with tagged boundary facets.

A mesh stores vertices, counterclockwise cells, the unique edge table, and
for every boundary facet its vertex pair, adjacent cell, outward unit
normal, diameter h_F and tag (Dirichlet / Slip).  Meshes are immutable
after construction; retagging returns a new Mesh sharing the geometry.
"""

from __future__ import annotations

import dataclasses
from enum import IntEnum

import numpy as np


GEOM_TOL = 1e-12


class MeshError(Exception):
    """Invalid mesh construction or configuration."""


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class BoundaryTag(IntEnum):
    UNSET = -1
    DIRICHLET = 0
    SLIP = 1


@dataclasses.dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a polygon.

    vertices      : (V, 2) float array
    cells         : (T, 3) int array, counterclockwise vertex triples
    edges         : (E, 2) int array, unique sorted vertex pairs
    cell_edges    : (T, 3) int array; local edge k sits opposite local
                    vertex k (it joins local vertices k+1, k+2 mod 3)
    facet_vertices: (F, 2) int array, boundary edges only
    facet_cells   : (F,) adjacent cell per boundary facet
    facet_edges   : (F,) global edge index per boundary facet
    facet_normals : (F, 2) outward unit normal w.r.t. the adjacent cell
    facet_h       : (F,) facet diameters h_F (edge lengths)
    facet_tags    : (F,) BoundaryTag values
    cell_h        : (T,) cell diameters h_K
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    facet_vertices: np.ndarray
    facet_cells: np.ndarray
    facet_edges: np.ndarray
    facet_normals: np.ndarray
    facet_h: np.ndarray
    facet_tags: np.ndarray
    cell_h: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_facets(self) -> int:
        return self.facet_vertices.shape[0]

    def facet_midpoints(self) -> np.ndarray:
        return 0.5 * (
            self.vertices[self.facet_vertices[:, 0]]
            + self.vertices[self.facet_vertices[:, 1]]
        )

    def require_tagged(self) -> None:
        if np.any(self.facet_tags == BoundaryTag.UNSET):
            raise MeshError("mesh has untagged boundary facets; run tag_boundary first")


def _finish_mesh(vertices: np.ndarray, cells: np.ndarray) -> Mesh:
    """Derive edge table, boundary facets, normals and diameters."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)

    p = vertices[cells]
    areas = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    if np.any(areas <= 0):
        raise MeshError("cell with nonpositive signed area (orientation)")

    # unique edges; local edge k of a cell joins vertices (k+1)%3, (k+2)%3
    raw = np.concatenate(
        [cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=0
    )
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse, counts = np.unique(
        raw_sorted, axis=0, return_inverse=True, return_counts=True
    )
    T = cells.shape[0]
    cell_edges = inverse.reshape(3, T).T

    # boundary facets = edges adjacent to exactly one cell
    boundary = np.flatnonzero(counts == 1)
    edge_to_cell = np.empty(edges.shape[0], dtype=np.int64)
    edge_to_cell[inverse] = np.tile(np.arange(T), 3)
    facet_edges = boundary
    facet_cells = edge_to_cell[boundary]
    facet_vertices = edges[boundary]

    a = vertices[facet_vertices[:, 0]]
    b = vertices[facet_vertices[:, 1]]
    tang = b - a
    facet_h = np.linalg.norm(tang, axis=1)
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / facet_h[:, None]
    # orient outward: away from the adjacent cell's centroid
    centroids = p[facet_cells].mean(axis=1)
    mid = 0.5 * (a + b)
    flip = np.einsum("ij,ij->i", normals, mid - centroids) < 0
    normals[flip] *= -1.0

    cell_h = np.maximum(
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.maximum(
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ),
    )

    tags = np.full(facet_vertices.shape[0], int(BoundaryTag.UNSET), dtype=np.int64)
    return Mesh(
        vertices=vertices,
        cells=cells,
        edges=edges,
        cell_edges=cell_edges,
        facet_vertices=facet_vertices,
        facet_cells=facet_cells,
        facet_edges=facet_edges,
        facet_normals=normals,
        facet_h=facet_h,
        facet_tags=tags,
        cell_h=cell_h,
    )


def build_unit_square(n: int, diagonal: str = "right") -> Mesh:
    """Structured triangulation of (0,1)^2 with n x n squares.

    diagonal="right": each square split along the (+1,+1) diagonal, 2 n^2
    cells.  diagonal="crossed": each square split into 4 triangles through
    its center, 4 n^2 cells.  Facets carry UNSET tags.
    """
    if n < 1:
        raise MeshError(f"n must be >= 1, got {n}")
    if diagonal not in ("right", "crossed"):
        raise MeshError(f"unknown diagonal pattern {diagonal!r}")

    s = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(s, s, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    if diagonal == "right":
        for i in range(n):
            for j in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
    else:
        centers = np.column_stack(
            [
                (X[:-1, :-1] + 0.5 * (s[1] - s[0])).ravel(),
                (Y[:-1, :-1] + 0.5 * (s[1] - s[0])).ravel(),
            ]
        )
        verts = np.vstack([verts, centers])
        for i in range(n):
            for j in range(n):
                c = (n + 1) * (n + 1) + i * n + j
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                cells.append((v00, v10, c))
                cells.append((v10, v11, c))
                cells.append((v11, v01, c))
                cells.append((v01, v00, c))

    return _finish_mesh(verts, np.asarray(cells, dtype=np.int64))


def tag_boundary(mesh: Mesh, predicate) -> Mesh:
    """Return a mesh with every boundary facet tagged.

    `predicate` maps a facet midpoint (2-array) to a BoundaryTag; returning
    None (or UNSET) for any facet is a configuration error.
    """
    mids = mesh.facet_midpoints()
    tags = np.empty(mesh.num_facets, dtype=np.int64)
    for f, m in enumerate(mids):
        tag = predicate(m)
        if tag is None or int(tag) == int(BoundaryTag.UNSET):
            raise MeshError(f"untagged facet {f} at midpoint {m.tolist()}")
        tags[f] = int(tag)
    return dataclasses.replace(mesh, facet_tags=tags)


def top_wall_tagger():
    """Predicate tagging the wall y=1 (up to GEOM_TOL) as SLIP and the rest
    DIRICHLET."""

    def predicate(mid):
        top = abs(mid[1] - 1.0) <= GEOM_TOL
        return BoundaryTag.SLIP if top else BoundaryTag.DIRICHLET

    return predicate
