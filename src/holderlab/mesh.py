"""Structured triangulations of the unit square.

The domain is always the unit square, partitioned into a grid of
rectangular cells (the known coefficient partition) and uniformly
triangulated so that cell boundaries align with mesh lines. One side
carries a marked measurement patch. build_mesh takes the config's mesh
section as keywords and checks it; the mesh keeps the patch's side.

The boundary is a ring of edges, counterclockwise: bottom left to
right, right upward, top right to left, left downward. A point's side
coordinates are its depth from a side and its arclength fraction along
it in the ring's direction; the patch is the ring edges whose midpoints
lie on its side at fractions in [t0, t1]. Each boundary integral names
its edges: the patch mass the patch's, the hat integrals the ring's.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPatch, IncompatibleSubdivision

SIDES = ("bottom", "right", "top", "left")


@dataclass
class Mesh:
    nodes: np.ndarray          # (n_nodes, 2)
    triangles: np.ndarray      # (n_tri, 3) node indices, CCW
    labels: np.ndarray         # (n_tri,) cell labels in 1..N
    boundary_edges: np.ndarray  # (n_bnd, 2) node pairs in CCW order
    on_patch: np.ndarray       # (n_bnd,) bool
    side: str                  # the patch's side, one of SIDES

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def _side_coordinates(points, side):
    """Each (n, 2) point's depth from the side and arclength fraction along it."""
    x, y = points.T
    return {
        "bottom": (y, x),
        "right": (1.0 - x, y),
        "top": (1.0 - y, 1.0 - x),
        "left": (x, 1.0 - y),
    }[side]


def build_mesh(n_sub, grid_cols, grid_rows, side, t0, t1):
    """Uniform triangulation with (n_sub+1)^2 nodes and 2*n_sub^2
    triangles, every square split along its bottom-left to top-right
    diagonal; the grid_cols x grid_rows cells are labelled row-major
    from 1 at the bottom-left, and the patch spans arclength fractions
    [t0, t1] of `side`.

    A grid below 1x1, a side not in SIDES or an interval outside
    0 <= t0 < t1 <= 1 is a ValueError; then an n_sub below 1 or not
    divisible by both grid dimensions, so that cell boundaries land on
    mesh lines, is an IncompatibleSubdivision.
    """
    if grid_cols < 1 or grid_rows < 1:
        raise ValueError("partition grid must be at least 1x1")
    if side not in SIDES:
        raise ValueError("side must be one of %s" % (SIDES,))
    if not (0.0 <= t0 < t1 <= 1.0):
        raise ValueError("patch interval must satisfy 0 <= t0 < t1 <= 1")
    if n_sub < 1:
        raise IncompatibleSubdivision("n_sub must be at least 1")
    if n_sub % grid_cols or n_sub % grid_rows:
        raise IncompatibleSubdivision(
            "n_sub=%d not divisible by partition %dx%d" % (n_sub, grid_cols, grid_rows)
        )
    m = n_sub + 1
    ix, iy = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    nodes = np.column_stack([ix.ravel() / n_sub, iy.ravel() / n_sub])

    # squares row by row from the bottom-left corner bl, each split into
    # (bl, br, tr) and (bl, tr, tl); node (i, j) is j*m + i
    bl = (np.arange(n_sub)[:, None] * m + np.arange(n_sub)).ravel()
    tr = bl + m + 1
    triangles = np.stack(
        [np.column_stack([bl, bl + 1, tr]), np.column_stack([bl, tr, bl + m])], axis=1
    ).reshape(-1, 3).astype(np.intp)

    cent = nodes[triangles].mean(axis=1)
    col = np.minimum((cent[:, 0] * grid_cols).astype(int), grid_cols - 1)
    row = np.minimum((cent[:, 1] * grid_rows).astype(int), grid_rows - 1)
    labels = row * grid_cols + col + 1

    s = np.arange(n_sub)
    ring = np.concatenate([s, n_sub + s * m, n_sub * m + n_sub - s, (n_sub - s) * m])
    boundary_edges = np.column_stack([ring, np.roll(ring, -1)]).astype(np.intp)

    mid = 0.5 * (nodes[boundary_edges[:, 0]] + nodes[boundary_edges[:, 1]])
    depth, along = _side_coordinates(mid, side)
    on_patch = (depth == 0.0) & (along >= t0) & (along <= t1)

    return Mesh(nodes, triangles, labels, boundary_edges, on_patch, side)


def triangle_areas(mesh):
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def p1_gradients(mesh):
    """Gradients of the three P1 basis functions of every triangle,
    (n_tri, 3, 2), and the triangle areas."""
    p = mesh.nodes[mesh.triangles]
    area = triangle_areas(mesh)
    pj = np.roll(p, -1, axis=1)  # vertex i+1 of vertex i's triangle
    pk = np.roll(p, -2, axis=1)  # vertex i+2
    g = np.stack([pj[:, :, 1] - pk[:, :, 1], pk[:, :, 0] - pj[:, :, 0]], axis=2)
    return g / (2.0 * area)[:, None, None], area


def _patch_edges(mesh):
    """The ring edges on the patch, in arclength order."""
    edges = mesh.boundary_edges[mesh.on_patch]
    if len(edges) == 0:
        raise EmptyPatch("no boundary edge lies on the patch")
    return edges


def edge_lengths(mesh, edges):
    """Length of each edge of an (n, 2) array of node pairs."""
    return np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)


def patch_nodes(mesh):
    """Node indices along the patch in arclength order, endpoints included."""
    edges = _patch_edges(mesh)
    return np.concatenate([edges[:1, 0], edges[:, 1]])


def boundary_mass_matrix(mesh):
    """Gram matrix of the patch hat functions in L2 of the patch edges:
    tridiagonal, with h/3 diagonal and h/6 coupling per patch edge."""
    h = edge_lengths(mesh, _patch_edges(mesh))
    diag = np.append(h, 0.0) / 3.0 + np.insert(h, 0, 0.0) / 3.0
    return np.diag(diag) + np.diag(h / 6.0, 1) + np.diag(h / 6.0, -1)


def boundary_hat_integrals(mesh):
    """Integral over the whole ring of every nodal hat function; zero
    for interior nodes."""
    w = np.zeros(mesh.n_nodes)
    h = edge_lengths(mesh, mesh.boundary_edges)
    np.add.at(w, mesh.boundary_edges[:, 0], 0.5 * h)
    np.add.at(w, mesh.boundary_edges[:, 1], 0.5 * h)
    return w


def patch_last_order(mesh):
    """Node indices farthest from the patch side first, ties broken
    along that side in counterclockwise order, so the patch side's
    nodes come last. Mesh neighbours stay at most n_sub + 2 positions
    apart, so a stiffness numbered in this order keeps its narrow band."""
    depth, along = _side_coordinates(mesh.nodes, mesh.side)
    return np.lexsort((along, -depth))


def mesh_to_text(mesh):
    """Plain-text export: one node per line "x y", then one triangle
    per line "i j k label" with zero-based node indices."""
    nodes = mesh.nodes.ravel().tolist()
    triangles = np.column_stack([mesh.triangles, mesh.labels]).ravel().tolist()
    return ("%r %r\n" * len(mesh.nodes)) % tuple(nodes) + (
        "%d %d %d %d\n" * len(mesh.triangles)
    ) % tuple(triangles)
