import numpy as np
import pytest

from holderlab import mesh as mx
from holderlab.errors import EmptyPatch, IncompatibleSubdivision

from helpers import eig_min


def unit_mesh(n_sub, cols=1, rows=1, side="bottom", t0=0.0, t1=1.0):
    return mx.build_mesh(n_sub, cols, rows, side, t0, t1)


def test_minimal_mesh_counts():
    m = unit_mesh(1)
    assert m.n_nodes == 4
    assert len(m.triangles) == 2
    assert int(m.on_patch.sum()) == 1


def test_counts_n2():
    m = unit_mesh(2)
    assert m.n_nodes == 9
    assert len(m.triangles) == 8


def test_two_cell_labels():
    m = unit_mesh(4, cols=2, rows=1)
    cent = m.nodes[m.triangles].mean(axis=1)
    assert np.all(m.labels[cent[:, 0] < 0.5] == 1)
    assert np.all(m.labels[cent[:, 0] > 0.5] == 2)


def test_positive_areas_and_total():
    for n in (1, 2, 4, 8):
        m = unit_mesh(n)
        a = mx.triangle_areas(m)
        assert np.all(a > 0)
        assert abs(a.sum() - 1.0) <= 1e-14


def test_incompatible_subdivision():
    with pytest.raises(IncompatibleSubdivision):
        unit_mesh(3, cols=2, rows=1)
    with pytest.raises(IncompatibleSubdivision, match="n_sub must be at least 1"):
        unit_mesh(0)


def test_partition_spec_validation():
    """A grid below 1x1 is a ValueError from build_mesh, checked ahead
    of the n_sub checks, which would otherwise divide by it."""
    for cols, rows in ((0, 1), (1, 0), (-2, 1)):
        for n_sub in (0, 3, 4):
            with pytest.raises(ValueError, match="partition grid must be at least 1x1"):
                mx.build_mesh(n_sub, cols, rows, "bottom", 0.0, 1.0)


def test_patch_spec_validation():
    """A side not in SIDES and an interval outside 0 <= t0 < t1 <= 1 are
    each a ValueError from build_mesh, ahead of the n_sub checks."""
    for n_sub in (0, 3):
        with pytest.raises(ValueError, match="side must be one of"):
            mx.build_mesh(n_sub, 2, 1, "north", 0.0, 1.0)
        for t0, t1 in ((0.5, 0.5), (0.75, 0.25), (-0.1, 1.0), (0.0, 1.5)):
            with pytest.raises(ValueError, match="patch interval must satisfy 0 <= t0 < t1 <= 1"):
                mx.build_mesh(n_sub, 2, 1, "bottom", t0, t1)
    assert mx.build_mesh(2, 1, 1, "left", 0.0, 1.0).side == "left"


def test_refinement_preserves_labels():
    cols, rows = 2, 2
    coarse = unit_mesh(4, cols=cols, rows=rows)
    fine = unit_mesh(8, cols=cols, rows=rows)

    def label_at(pt):
        col = min(int(pt[0] * cols), cols - 1)
        row = min(int(pt[1] * rows), rows - 1)
        return row * cols + col + 1

    for m in (coarse, fine):
        cents = m.nodes[m.triangles].mean(axis=1)
        for c, lab in zip(cents, m.labels):
            assert lab == label_at(c)


def test_patch_nodes_full_bottom():
    m = unit_mesh(4)
    pn = mx.patch_nodes(m)
    assert len(pn) == 5
    xs = m.nodes[pn, 0]
    assert np.all(np.diff(xs) > 0)
    assert np.all(m.nodes[pn, 1] == 0.0)


def test_patch_nodes_partial():
    m = unit_mesh(4, t0=0.25, t1=0.75)
    assert len(mx.patch_nodes(m)) == 3


def test_patch_nodes_empty():
    m = unit_mesh(4, t0=0.0, t1=0.05)  # no edge midpoint below 0.05
    with pytest.raises(EmptyPatch):
        mx.patch_nodes(m)


def test_patch_order_on_top_side():
    m = unit_mesh(4, side="top")
    pn = mx.patch_nodes(m)
    xs = m.nodes[pn, 0]
    # counterclockwise traversal runs right to left on the top side
    assert np.all(np.diff(xs) < 0)


def test_boundary_mass_single_edge():
    m = unit_mesh(4, t0=0.0, t1=0.3)  # only the first bottom edge
    g = mx.boundary_mass_matrix(m)
    h = 0.25
    assert np.allclose(g, [[h / 3, h / 6], [h / 6, h / 3]])


def test_boundary_mass_row_sums():
    m = unit_mesh(8)
    g = mx.boundary_mass_matrix(m)
    h = 1.0 / 8.0
    sums = g.sum(axis=1)
    # interior patch hats integrate to h over the patch, endpoint hats
    # to h/2 since half their support hangs outside
    assert np.allclose(sums[1:-1], h)
    assert np.allclose(sums[[0, -1]], h / 2)
    assert abs(sums.sum() - 1.0) < 1e-14


def test_boundary_mass_positive_definite():
    for n in (2, 4, 8):
        m = unit_mesh(n)
        assert eig_min(mx.boundary_mass_matrix(m)) > 0


def test_boundary_hat_integrals():
    m = unit_mesh(4)
    w = mx.boundary_hat_integrals(m)
    ring = m.boundary_edges[:, 0]
    inner = np.setdiff1d(np.arange(m.n_nodes), ring)
    assert np.all(w[inner] == 0)
    # closed boundary polyline: every boundary hat spans two edges
    assert np.allclose(w[ring], 0.25)
    assert abs(w.sum() - 4.0) < 1e-14


def test_mesh_text_roundtrip():
    m = unit_mesh(2)
    txt = mx.mesh_to_text(m)
    lines = txt.strip().split("\n")
    assert len(lines) == m.n_nodes + len(m.triangles)
    first = lines[0].split()
    assert len(first) == 2
    last = lines[-1].split()
    assert len(last) == 4
    assert float(first[0]) == m.nodes[0, 0]


def loop_reference(n_sub, cols, rows):
    """mesh_to_text and boundary edges of the structured mesh, built
    one square and one edge at a time."""
    m = n_sub + 1

    def idx(i, j):
        return j * m + i

    lines = []
    for j in range(m):
        for i in range(m):
            lines.append("%s %s" % (repr(i / n_sub), repr(j / n_sub)))
    for j in range(n_sub):
        for i in range(n_sub):
            label = (j * rows // n_sub) * cols + i * cols // n_sub + 1
            bl, br = idx(i, j), idx(i + 1, j)
            tl, tr = idx(i, j + 1), idx(i + 1, j + 1)
            lines.append("%d %d %d %d" % (bl, br, tr, label))
            lines.append("%d %d %d %d" % (bl, tr, tl, label))
    edges = []
    for i in range(n_sub):  # bottom, left to right
        edges.append((idx(i, 0), idx(i + 1, 0)))
    for j in range(n_sub):  # right, upward
        edges.append((idx(n_sub, j), idx(n_sub, j + 1)))
    for i in range(n_sub):  # top, right to left
        edges.append((idx(n_sub - i, n_sub), idx(n_sub - i - 1, n_sub)))
    for j in range(n_sub):  # left, downward
        edges.append((idx(0, n_sub - j), idx(0, n_sub - j - 1)))
    return "\n".join(lines) + "\n", np.array(edges, dtype=np.intp)


def test_build_mesh_matches_loop_reference():
    for n_sub in (1, 2, 3, 8, 16):
        grids = [(c, r) for c in (1, 2, 4) for r in (1, 2, 4) if n_sub % c == 0 and n_sub % r == 0]
        for cols, rows in grids:
            text, edges = loop_reference(n_sub, cols, rows)
            for side in mx.SIDES:
                m = unit_mesh(n_sub, cols, rows, side=side, t0=0.25, t1=1.0)
                assert mx.mesh_to_text(m) == text
                assert m.triangles.dtype == m.boundary_edges.dtype == np.intp
                assert m.boundary_edges.tobytes() == edges.tobytes()


@pytest.mark.parametrize("side", mx.SIDES)
@pytest.mark.parametrize("n_sub", [1, 4, 64])
def test_mesh_to_text_matches_per_line_format(n_sub, side):
    """The one-pass export gives the bytes of one formatted line per
    node and per triangle."""
    m = unit_mesh(n_sub, cols=1 if n_sub == 1 else 2, rows=1 if n_sub == 1 else 2, side=side)
    lines = ["%r %r" % (float(x), float(y)) for x, y in m.nodes]
    lines += ["%d %d %d %d" % (*t, lab) for t, lab in zip(m.triangles, m.labels)]
    assert mx.mesh_to_text(m).encode() == ("\n".join(lines) + "\n").encode()


def loop_patch_reference(n_sub, side, t0, t1):
    """on_patch and patch_last_order of the structured mesh, built one
    ring edge and one node at a time. Ring edge r lies on side
    r // n_sub, its midpoint a fraction (r % n_sub + 0.5) / n_sub along
    that side; node (i, j) sits at depth and arclength (in grid steps)
    from the patch side as listed, counterclockwise."""
    mask = []
    for r in range(4 * n_sub):
        along = (r % n_sub + 0.5) / n_sub
        mask.append(mx.SIDES[r // n_sub] == side and t0 <= along <= t1)
    depth_along = {
        "bottom": lambda i, j: (j, i),
        "right": lambda i, j: (n_sub - i, j),
        "top": lambda i, j: (n_sub - j, n_sub - i),
        "left": lambda i, j: (i, n_sub - j),
    }[side]
    nodes = [(i, j) for j in range(n_sub + 1) for i in range(n_sub + 1)]

    def key(node):
        depth, along = depth_along(*nodes[node])
        return (-depth, along)

    return mask, sorted(range(len(nodes)), key=key)


def test_patch_matches_loop_reference():
    # n_sub 2 with t0 0.25 (or t1 0.75) puts an edge midpoint on a bound
    extents = ((0.0, 1.0), (0.25, 0.75), (0.0, 0.5), (0.3, 0.9), (0.5, 1.0))
    for n_sub in (1, 2, 3, 8, 16):
        for side in mx.SIDES:
            for t0, t1 in extents:
                mask, order = loop_patch_reference(n_sub, side, t0, t1)
                m = unit_mesh(n_sub, side=side, t0=t0, t1=t1)
                assert m.on_patch.tolist() == mask, (n_sub, side, t0, t1)
                assert mx.patch_last_order(m).tolist() == order, (n_sub, side)
