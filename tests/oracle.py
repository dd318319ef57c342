"""Exact rational reference for the conductivity Neumann-to-Dirichlet map.

Everything here is built in fractions.Fraction from the definitions,
not from holderlab's arrays: the structured triangulation of the unit
square, the P1 stiffness of piecewise constant cell conductivities,
the boundary currents on a bottom patch, their loads and Gram matrix,
the ground node, and the map M = L.T K^-1 L by exact Gaussian
elimination. With n_sub a power of two and dyadic cell entries every
stiffness entry is dyadic, so its float is exact; the loads and the
Gram matrix hold thirds, which a float rounds.
"""

import math
from collections import namedtuple
from fractions import Fraction

ExactND = namedtuple("ExactND", "nodes stiffness patch_nodes ground gram loads matrix")


def structured_mesh(n_sub, cols, rows):
    """Nodes (x, y), triangles (three node indices, counterclockwise) and
    1-based cell labels of the unit square cut into n_sub x n_sub
    squares, each split along its bottom-left to top-right diagonal.
    Node (i, j) is j * (n_sub + 1) + i; cells are labelled row-major
    from the bottom-left by their triangles' centroids."""
    m = n_sub + 1
    nodes = [(Fraction(i, n_sub), Fraction(j, n_sub)) for j in range(m) for i in range(m)]
    triangles, labels = [], []
    for j in range(n_sub):
        for i in range(n_sub):
            bl = j * m + i
            for tri in ((bl, bl + 1, bl + m + 1), (bl, bl + m + 1, bl + m)):
                cx = sum(nodes[v][0] for v in tri) / 3
                cy = sum(nodes[v][1] for v in tri) / 3
                col = min(math.floor(cx * cols), cols - 1)
                row = min(math.floor(cy * rows), rows - 1)
                triangles.append(tri)
                labels.append(row * cols + col + 1)
    return nodes, triangles, labels


def stiffness(nodes, triangles, labels, cells):
    """The P1 stiffness over all nodes as {(a, b): K[a][b]}: the sum
    over triangles of area * grad(phi_a) . c grad(phi_b), with c the
    triangle's cell matrix."""
    k = {}
    for tri, label in zip(triangles, labels):
        (x0, y0), (x1, y1), (x2, y2) = (nodes[v] for v in tri)
        twice_area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        grads = []
        for i in range(3):
            (xj, yj), (xk, yk) = nodes[tri[(i + 1) % 3]], nodes[tri[(i + 2) % 3]]
            grads.append(((yj - yk) / twice_area, (xk - xj) / twice_area))
        c = cells[label - 1]
        for a in range(3):
            for b in range(3):
                v = sum(grads[a][p] * c[p][q] * grads[b][q] for p in range(2) for q in range(2))
                key = (tri[a], tri[b])
                k[key] = k.get(key, 0) + twice_area / 2 * v
    return k


def boundary_ring(n_sub):
    """Boundary nodes counterclockwise from the bottom-left corner:
    bottom, right, top, left."""
    m = n_sub + 1
    s = range(n_sub)
    return (
        list(s) + [n_sub + j * m for j in s]
        + [n_sub * m + n_sub - i for i in s] + [(n_sub - j) * m for j in s]
    )


def solve(a, b):
    """x with a @ x = b for a nonsingular square matrix a and a block of
    columns b, both lists of rows, by Gauss-Jordan elimination in
    exact arithmetic."""
    n = len(a)
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nd_map(n_sub, cols, rows, cells, t0=Fraction(0), t1=Fraction(1)):
    """The grounded Neumann problem of cells (a list of 2x2 matrices of
    Fractions, one per cell) with the patch the bottom edges whose
    midpoints lie in [t0, t1], solved exactly.

    A basis current is the difference of two adjacent patch-node hats,
    each scaled by its integral over the whole boundary; its loads pair
    it with every nodal trace over the whole boundary, its Gram matrix
    over the patch edges. The ground is the node farthest from the
    midpoint of the patch's end nodes, the first such in node order.
    Returns the nodes, the stiffness, the patch nodes, the ground, the
    (k, k) Gram matrix, loads {node: k values} on the ring and the
    (k, k) map, entry (i, j) current j paired with the potential that
    current i drives."""
    nodes, triangles, labels = structured_mesh(n_sub, cols, rows)
    k_all = stiffness(nodes, triangles, labels, cells)
    ring = boundary_ring(n_sub)
    edges = list(zip(ring, ring[1:] + ring[:1]))
    h = Fraction(1, n_sub)  # every ring edge's length
    hat = {v: 0 for v in ring}
    for a, b in edges:
        hat[a] += h / 2
        hat[b] += h / 2
    patch_edges = [
        (a, b) for a, b in edges
        if nodes[a][1] == nodes[b][1] == 0 and t0 <= (nodes[a][0] + nodes[b][0]) / 2 <= t1
    ]
    patch = [patch_edges[0][0]] + [b for a, b in patch_edges]
    k = len(patch) - 1
    currents = [
        {patch[i]: 1 / hat[patch[i]], patch[i + 1]: -1 / hat[patch[i + 1]]} for i in range(k)
    ]

    def mass(edge_list, x, y):
        """x paired with y over the edges by the P1 boundary mass matrix."""
        total = Fraction(0)
        for a, b in edge_list:
            xa, xb, ya, yb = x.get(a, 0), x.get(b, 0), y.get(a, 0), y.get(b, 0)
            total += h / 3 * (xa * ya + xb * yb) + h / 6 * (xa * yb + xb * ya)
        return total

    gram = [[mass(patch_edges, ci, cj) for cj in currents] for ci in currents]
    loads = {v: [mass(edges, ci, {v: 1}) for ci in currents] for v in ring}
    mid = tuple((nodes[patch[0]][d] + nodes[patch[-1]][d]) / 2 for d in range(2))
    dist = [(x - mid[0]) ** 2 + (y - mid[1]) ** 2 for x, y in nodes]
    ground = dist.index(max(dist))
    free = [v for v in range(len(nodes)) if v != ground]
    a = [[k_all.get((r, c), 0) for c in free] for r in free]
    b = [loads.get(v, [0] * k) for v in free]
    u = solve(a, b)
    matrix = [
        [sum(b[r][j] * u[r][i] for r in range(len(free))) for j in range(k)] for i in range(k)
    ]
    return ExactND(nodes, k_all, patch, ground, gram, loads, matrix)
