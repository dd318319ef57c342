"""Structured triangulations of the unit square.

The domain is always the unit square, partitioned into a grid of
rectangular cells (the known coefficient partition) and uniformly
triangulated so that cell boundaries align with mesh lines. One side
carries a marked measurement patch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPatch, IncompatibleSubdivision
from .numerics import symmetrize

SIDES = ("bottom", "right", "top", "left")


@dataclass(frozen=True)
class PartitionSpec:
    """Rectangular tiling of the unit square, cells indexed row-major
    from 1 starting at the bottom-left."""

    grid_cols: int
    grid_rows: int

    def __post_init__(self):
        if self.grid_cols < 1 or self.grid_rows < 1:
            raise ValueError("partition grid must be at least 1x1")

    @property
    def n_cells(self):
        return self.grid_cols * self.grid_rows


@dataclass(frozen=True)
class PatchSpec:
    """Measured boundary portion: a sub-interval [t0, t1] of one side,
    in arclength fractions taken along the counterclockwise traversal
    of that side."""

    side: str
    t0: float
    t1: float

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError("side must be one of %s" % (SIDES,))
        if not (0.0 <= self.t0 < self.t1 <= 1.0):
            raise ValueError("patch interval must satisfy 0 <= t0 < t1 <= 1")


@dataclass
class Mesh:
    nodes: np.ndarray          # (n_nodes, 2)
    triangles: np.ndarray      # (n_tri, 3) node indices, CCW
    labels: np.ndarray         # (n_tri,) cell labels in 1..N
    boundary_edges: np.ndarray  # (n_bnd, 2) node pairs in CCW order
    on_patch: np.ndarray       # (n_bnd,) bool
    n_sub: int
    part: PartitionSpec = field(repr=False, default=None)
    patch: PatchSpec = field(repr=False, default=None)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def build_mesh(n_sub, part, patch):
    """Uniform triangulation with (n_sub+1)^2 nodes and 2*n_sub^2
    triangles, every square split along its bottom-left to top-right
    diagonal.

    n_sub must be divisible by both partition dimensions so that cell
    boundaries land on mesh lines.
    """
    if n_sub < 1:
        raise IncompatibleSubdivision("n_sub must be at least 1")
    if n_sub % part.grid_cols or n_sub % part.grid_rows:
        raise IncompatibleSubdivision(
            "n_sub=%d not divisible by partition %dx%d"
            % (n_sub, part.grid_cols, part.grid_rows)
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
    col = np.minimum((cent[:, 0] * part.grid_cols).astype(int), part.grid_cols - 1)
    row = np.minimum((cent[:, 1] * part.grid_rows).astype(int), part.grid_rows - 1)
    labels = row * part.grid_cols + col + 1

    # counterclockwise ring of boundary nodes: bottom left to right,
    # right upward, top right to left, left downward
    s = np.arange(n_sub)
    ring = np.concatenate([s, n_sub + s * m, n_sub * m + n_sub - s, (n_sub - s) * m])
    boundary_edges = np.column_stack([ring, np.roll(ring, -1)]).astype(np.intp)

    mid = 0.5 * (nodes[boundary_edges[:, 0]] + nodes[boundary_edges[:, 1]])
    side_of = np.repeat(np.arange(4), n_sub)
    frac = np.empty(len(ring))
    frac[side_of == 0] = mid[side_of == 0, 0]
    frac[side_of == 1] = mid[side_of == 1, 1]
    frac[side_of == 2] = 1.0 - mid[side_of == 2, 0]
    frac[side_of == 3] = 1.0 - mid[side_of == 3, 1]
    want = SIDES.index(patch.side)
    on_patch = (side_of == want) & (frac >= patch.t0) & (frac <= patch.t1)

    return Mesh(nodes, triangles, labels, boundary_edges, on_patch, n_sub, part, patch)


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


def patch_nodes(mesh):
    """Node indices along the patch in arclength order, endpoints
    included."""
    sel = np.flatnonzero(mesh.on_patch)
    if sel.size == 0:
        raise EmptyPatch("no boundary edge lies on the patch")
    edges = mesh.boundary_edges
    return np.concatenate([edges[sel[:1], 0], edges[sel, 1]]).astype(np.intp)


def patch_edge_lengths(mesh):
    sel = np.flatnonzero(mesh.on_patch)
    if sel.size == 0:
        raise EmptyPatch("no boundary edge lies on the patch")
    a = mesh.nodes[mesh.boundary_edges[sel, 0]]
    b = mesh.nodes[mesh.boundary_edges[sel, 1]]
    return np.linalg.norm(b - a, axis=1)


def boundary_mass_matrix(mesh):
    """Gram matrix of the patch hat functions in L2 of the patch:
    tridiagonal, with h/3 diagonal and h/6 coupling per patch edge."""
    h = patch_edge_lengths(mesh)
    diag = np.append(h, 0.0) / 3.0 + np.insert(h, 0, 0.0) / 3.0
    return symmetrize(np.diag(diag) + np.diag(h / 6.0, 1) + np.diag(h / 6.0, -1))


def boundary_hat_integrals(mesh):
    """Integral over the whole boundary of every nodal hat function;
    zero for interior nodes."""
    w = np.zeros(mesh.n_nodes)
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    h = np.linalg.norm(b - a, axis=1)
    np.add.at(w, mesh.boundary_edges[:, 0], 0.5 * h)
    np.add.at(w, mesh.boundary_edges[:, 1], 0.5 * h)
    return w


def patch_last_order(mesh):
    """Node indices farthest from the patch side first, ties broken
    along that side in counterclockwise order, so the patch side's
    nodes come last. Mesh neighbours stay at most n_sub + 2 positions
    apart, so a stiffness numbered in this order keeps its narrow band."""
    x, y = mesh.nodes.T
    depth, along = {
        "bottom": (y, x),
        "right": (1.0 - x, y),
        "top": (1.0 - y, 1.0 - x),
        "left": (x, 1.0 - y),
    }[mesh.patch.side]
    return np.lexsort((along, -depth))


def boundary_node_set(mesh):
    return np.unique(mesh.boundary_edges)


def mesh_to_text(mesh):
    """Plain-text export: one node per line "x y", then one triangle
    per line "i j k label" with zero-based node indices."""
    lines = []
    for x, y in mesh.nodes:
        lines.append("%s %s" % (repr(float(x)), repr(float(y))))
    for t, lab in zip(mesh.triangles, mesh.labels):
        lines.append("%d %d %d %d" % (t[0], t[1], t[2], lab))
    return "\n".join(lines) + "\n"
