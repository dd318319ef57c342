"""The precomputed forward problems against an element-by-element
reference assembly.

Each problem keeps its stiffness as slot values linear in the cell
matrices plus an index map into the LAPACK band storage that its
factorization takes. The reference below assembles the same matrices one triangle at a time from
the vertex coordinates, with gradients from the inverse of the affine
map, and shares no code with the package's assembly.
"""

import tracemalloc

import numpy as np
import pytest

from holderlab import conductivity as cd
from holderlab import elasticity as el
from holderlab import mesh as mx
from holderlab.cli import PROBLEMS
from holderlab.errors import CellCountMismatch, NotPositiveDefinite

from helpers import random_conductivity, random_mandel, symmetric_2x2

ROOT2 = np.sqrt(2.0)
TOL = 1e-13


def mesh_2x2(side="bottom", t0=0.0, t1=1.0):
    return mx.build_mesh(4, mx.PartitionSpec(2, 2), mx.PatchSpec(side, t0, t1))


def reference_gradients(xy):
    """Rows: gradients of the three barycentric coordinates."""
    affine = np.column_stack([np.ones(3), xy])
    return np.linalg.inv(affine)[1:].T


def reference_conductivity(m, cells):
    k = np.zeros((m.n_nodes, m.n_nodes))
    for tri, label in zip(m.triangles, m.labels):
        xy = m.nodes[tri]
        area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), xy])))
        coef = cells[label - 1]
        g = reference_gradients(xy)
        for i in range(3):
            for j in range(3):
                k[tri[i], tri[j]] += area * g[i] @ coef @ g[j]
    return k


def reference_elasticity(m, cells):
    k = np.zeros((2 * m.n_nodes, 2 * m.n_nodes))
    for tri, label in zip(m.triangles, m.labels):
        xy = m.nodes[tri]
        area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), xy])))
        g = reference_gradients(xy)
        strains, dofs = [], []
        for i in range(3):
            gx, gy = g[i]
            strains += [(gx, 0.0, gy / ROOT2), (0.0, gy, gx / ROOT2)]
            dofs += [2 * tri[i], 2 * tri[i] + 1]
        b = np.array(strains).T  # (3, 6) Mandel strain per local dof
        k[np.ix_(dofs, dofs)] += area * b.T @ cells[label - 1] @ b
    return k


def from_slots(form, values, n):
    k = np.zeros((n, n))
    k[form.rows, form.cols] = k[form.cols, form.rows] = values
    return k


def from_band(band):
    """Symmetric dense matrix from LAPACK upper band storage."""
    u, n = band.shape[0] - 1, band.shape[1]
    k = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            k[i, j] = k[j, i] = band[u + i - j, j]
    return k


def all_loads(m):
    """The conductivity loads over every node: the ring rows that
    _patch_loads returns, and zero rows off the boundary."""
    ring, rows = cd._patch_loads(m, *cd.current_basis(m)[:2])
    loads = np.zeros((m.n_nodes, rows.shape[1]))
    loads[ring] = rows
    return loads


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def conductivity_points():
    rng = np.random.default_rng(21)
    spd = np.column_stack([rng.uniform(1.0, 2.0, 4), rng.uniform(1.0, 2.0, 4), rng.uniform(-0.5, 0.5, 4)])
    direction = rng.standard_normal((4, 3))
    direction[0] = (1.0, -1.0, 2.0)  # indefinite
    return symmetric_2x2(spd), symmetric_2x2(direction)


def elasticity_points():
    rng = np.random.default_rng(22)
    g = rng.standard_normal((4, 3, 3))
    spd = np.einsum("cij,ckj->cik", g, g) + 3.0 * np.eye(3)
    direction = rng.standard_normal((4, 3, 3))
    direction = 0.5 * (direction + direction.transpose(0, 2, 1))
    direction[0] = np.diag([1.0, -2.0, 0.5])  # indefinite
    return spd, direction


def test_conductivity_assembly_matches_reference():
    m = mesh_2x2()
    problem = cd.NDProblem(m)
    free = problem.dofs
    n = free.size
    for cells in conductivity_points():
        want = reference_conductivity(m, cells)[np.ix_(free, free)]
        values = problem.form.values(cells)
        assert rel_err(from_slots(problem.form, values, n), want) <= TOL
        assert rel_err(from_band(problem.form.band(values)), want) <= TOL


def test_elasticity_assembly_matches_reference():
    m = mesh_2x2()
    problem = el.DNProblem(m)
    order = problem.dofs
    for cells in elasticity_points():
        want = reference_elasticity(m, cells)[np.ix_(order, order)]
        values = problem.form.values(cells)
        assert rel_err(from_slots(problem.form, values, order.size), want) <= TOL
        assert rel_err(from_band(problem.form.band(values)), want) <= TOL


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75)], ids=["full", "half"])
@pytest.mark.parametrize("side", mx.SIDES)
@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_forward_matches_reference_solve(kind, side, interval):
    """The whole map against a dense solve of the reference system."""
    m = mesh_2x2(side, *interval)
    if kind == "conductivity":
        problem = cd.NDProblem(m)
        cells = conductivity_points()[0]
        got = problem.forward(cells)
        free = problem.dofs
        k = reference_conductivity(m, cells)[np.ix_(free, free)]
        # all rows of the loads: the problem keeps only those from first on
        loads = all_loads(m)[free]
        want = loads.T @ np.linalg.solve(k, loads)
    else:
        problem = el.DNProblem(m)
        cells = elasticity_points()[0]
        got = problem.forward(cells)
        n = problem.dofs.size - problem.k
        idx, bd = problem.dofs[:n], problem.dofs[n:]
        k = reference_elasticity(m, cells)
        k_ib = k[np.ix_(idx, bd)]
        want = k[np.ix_(bd, bd)] - k_ib.T @ np.linalg.solve(k[np.ix_(idx, idx)], k_ib)
    assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75)], ids=["full", "half"])
@pytest.mark.parametrize("side", mx.SIDES)
@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_derivative_matches_reference_solve(kind, side, interval):
    """The derivative against the dp-stiffness pairing of the
    solutions from a dense solve of the reference system."""
    m = mesh_2x2(side, *interval)
    if kind == "conductivity":
        problem = cd.NDProblem(m)
        cells, direction = conductivity_points()
        free = problem.dofs
        k = reference_conductivity(m, cells)[np.ix_(free, free)]
        loads = all_loads(m)[free]
        u = np.linalg.solve(k, loads)
        want = -u.T @ reference_conductivity(m, direction)[np.ix_(free, free)] @ u
    else:
        problem = el.DNProblem(m)
        cells, direction = elasticity_points()
        n = problem.dofs.size - problem.k
        idx, bd = problem.dofs[:n], problem.dofs[n:]
        k = reference_elasticity(m, cells)
        u = np.vstack([-np.linalg.solve(k[np.ix_(idx, idx)], k[np.ix_(idx, bd)]), np.eye(bd.size)])
        dk = reference_elasticity(m, direction)[np.ix_(problem.dofs, problem.dofs)]
        want = u.T @ dk @ u
    assert rel_err(problem.derivative(cells, direction), want) <= 1e-13


# The mesh is invariant under the symmetries of the square that keep the
# direction of its diagonals, (x, y) -> J (x, y) + shift; each maps the
# bottom side onto another side. When the image runs against that
# side's counterclockwise traversal (reverse), a bottom patch [t0, t1]
# lands on [1 - t1, 1 - t0] and the image basis is the bottom one read
# backwards: for elasticity the basis interleaves (node, component), so
# reversing it also swaps x and y. A coefficient maps as J A J.T, a
# Mandel tensor as Q C Q.T, and a sign that J puts on a datum appears on
# both sides of the map's bilinear form.
SIDE_MAPS = {
    "left": (np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), True),
    "top": (-np.eye(2), np.ones(2), False),
    "right": (np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones(2), True),
}


def mandel_map(j):
    """Q with mandel(J E J.T) = Q mandel(E) for symmetric 2x2 E."""
    cols = []
    for m in np.eye(3):
        e = j @ np.array([[m[0], m[2] / ROOT2], [m[2] / ROOT2, m[1]]]) @ j.T
        cols.append((e[0, 0], e[1, 1], ROOT2 * e[0, 1]))
    return np.array(cols).T


def image_cells(kind, cells, j, shift):
    """Cells of the mapped medium on the 2x2 partition: the cell at
    T(c) takes the mapped tensor of the cell at centre c."""
    centres = np.array([(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)])
    target = centres @ j.T + shift
    label = 2 * (target[:, 1] > 0.5) + (target[:, 0] > 0.5)
    q = j if kind == "conductivity" else mandel_map(j)
    out = np.empty_like(cells)
    out[label] = q @ cells @ q.T
    return out


@pytest.mark.parametrize(
    "interval", [(0.0, 1.0), (0.25, 0.75), (0.0, 0.5)], ids=["full", "half", "start"]
)
@pytest.mark.parametrize("side", sorted(SIDE_MAPS))
@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_forward_is_invariant_under_mesh_symmetries(kind, side, interval):
    """The map on any side equals the bottom one under the symmetry
    that carries the bottom side there."""
    j, shift, reverse = SIDE_MAPS[side]
    t0, t1 = interval
    image = (1.0 - t1, 1.0 - t0) if reverse else interval
    part = mx.PartitionSpec(2, 2)
    build = cd.NDProblem if kind == "conductivity" else el.DNProblem
    bottom = build(mx.build_mesh(8, part, mx.PatchSpec("bottom", t0, t1)))
    mapped = build(mx.build_mesh(8, part, mx.PatchSpec(side, *image)))
    cells = (conductivity_points() if kind == "conductivity" else elasticity_points())[0]
    want = bottom.forward(cells)
    if reverse:
        want = want[::-1, ::-1]
    got = mapped.forward(image_cells(kind, cells, j, shift))
    assert rel_err(got, want) <= 1e-14


@pytest.mark.parametrize("side", mx.SIDES)
@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_patch_last_band_and_trailing_block(kind, side):
    """Under the patch-last numbering the band stays within n_sub + 2
    nodes of the diagonal, and the trailing block that a forward reads
    (the nonzero rows of the conductivity loads, the elasticity basis
    dofs) fits in the last two node rows."""
    n_sub = 8
    m = mx.build_mesh(n_sub, mx.PartitionSpec(2, 2), mx.PatchSpec(side, 0.0, 1.0))
    if kind == "conductivity":
        problem, per_node = cd.NDProblem(m), 1
    else:
        problem, per_node = el.DNProblem(m), 2
    band_rows = problem.form.band_shape[0]
    if kind == "conductivity":
        trailing = problem.loads.shape[0]
    else:
        trailing = problem.k
    assert band_rows - 1 <= per_node * (n_sub + 2)
    assert trailing <= per_node * 2 * (n_sub + 1)


def traced(fn):
    """fn()'s result, the peak of the memory it allocated and the
    memory its allocations still hold when it returns, in bytes, as
    tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, held - base


MEMORY_CASES = [("conductivity", 32), ("elasticity", 16), ("elasticity", 32)]


def memory_case(kind, n_sub):
    m = mx.build_mesh(n_sub, mx.PartitionSpec(2, 2), mx.PatchSpec("bottom", 0.0, 1.0))
    cells = (random_conductivity if kind == "conductivity" else random_mandel)(4, seed=23)
    return m, PROBLEMS[kind], cells


@pytest.mark.parametrize("kind, n_sub", MEMORY_CASES)
def test_build_peaks_within_three_times_what_it_keeps(kind, n_sub):
    """A problem's construction holds no array of every element matrix
    or of every (entry, component) pair: its peak stays within 3x the
    slot values, indices and loads it keeps."""
    m, build, _ = memory_case(kind, n_sub)
    _, peak, kept = traced(lambda: build(m))
    assert peak <= 3.0 * kept


@pytest.mark.parametrize("kind, n_sub", MEMORY_CASES)
def test_forward_peaks_within_one_and_a_half_bands(kind, n_sub):
    """A forward factors its band in place: it never holds the band
    and a copy of it."""
    m, build, cells = memory_case(kind, n_sub)
    problem = build(m)
    _, peak, _ = traced(lambda: problem.forward(cells))
    assert peak <= 1.5 * 8 * np.prod(problem.form.band_shape)


@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_forward_skips_backsolve_and_derivative_runs_one(kind, backsolves):
    """A forward map takes the trailing triangular solve only; the
    derivative needs the full solutions, from one back-substitution."""
    m = mesh_2x2()
    problem = cd.NDProblem(m) if kind == "conductivity" else el.DNProblem(m)
    cells, direction = conductivity_points() if kind == "conductivity" else elasticity_points()
    problem.forward(cells)
    assert backsolves == []
    problem.derivative(cells, direction)
    assert len(backsolves) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_non_finite_input_fails_with_a_name(kind, bad):
    """A non-finite cell entry is NotPositiveDefinite for forward and
    derivative, and a non-finite direction a ValueError, instead of a
    NaN matrix or a complaint about symmetry."""
    m = mesh_2x2()
    problem = cd.NDProblem(m) if kind == "conductivity" else el.DNProblem(m)
    cells, direction = conductivity_points() if kind == "conductivity" else elasticity_points()
    broken_cells, broken_direction = cells.copy(), direction.copy()
    broken_cells.flat[0] = bad
    broken_direction.flat[0] = bad
    with pytest.raises(NotPositiveDefinite, match="finite"):
        problem.forward(broken_cells)
    with pytest.raises(NotPositiveDefinite, match="finite"):
        problem.derivative(broken_cells, direction)
    with pytest.raises(ValueError, match="finite"):
        problem.derivative(cells, broken_direction)


# The behaviours below run one code path, operators.ForwardProblem, for
# both kinds.
RANDOM_CELLS = {"conductivity": random_conductivity, "elasticity": random_mandel}
INDEFINITE = {"conductivity": [[1.0, 2.0], [2.0, 1.0]], "elasticity": np.diag([1.0, 1.0, -1.0])}


def unit_problem(kind, n_sub, cols=1):
    m = mx.build_mesh(n_sub, mx.PartitionSpec(cols, 1), mx.PatchSpec("bottom", 0.0, 1.0))
    return PROBLEMS[kind](m)


def zero_directions(problem, n_cells):
    return np.zeros((n_cells, problem.form.dim, problem.form.dim))


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_indefinite_cell_fails_factorization(kind):
    problem = unit_problem(kind, 4)
    with pytest.raises(NotPositiveDefinite):
        problem.derivative(np.array([INDEFINITE[kind]]), zero_directions(problem, 1))


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_stiffness_cell_count_mismatch(kind):
    problem = unit_problem(kind, 4, cols=2)
    with pytest.raises(CellCountMismatch):
        problem.forward(RANDOM_CELLS[kind](1, seed=1))
    with pytest.raises(CellCountMismatch):
        problem.derivative(RANDOM_CELLS[kind](2, seed=1), zero_directions(problem, 3))


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_derivative_radial(kind):
    """Euler's identity for a map of degree k: the derivative at p in
    the direction p is k times the map."""
    problem = unit_problem(kind, 8, cols=2)
    p = RANDOM_CELLS[kind](2, seed=6)
    mat = problem.forward(p)
    d = problem.derivative(p, p)
    assert np.abs(d - problem.degree * mat).max() <= 1e-10 * np.abs(mat).max()


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_derivative_zero_direction(kind):
    problem = unit_problem(kind, 4)
    d = problem.derivative(RANDOM_CELLS[kind](1, seed=7), zero_directions(problem, 1))
    assert np.all(d == 0.0)


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_derivative_rejects_non_symmetric_direction(kind):
    """The stiffness reads only the entries on and above the diagonal,
    so a non-symmetric direction would be read as one of its triangles:
    it is refused like non-symmetric cells, while its symmetric part,
    which is indefinite, gives the derivative that finite differences
    see."""
    problem = unit_problem(kind, 8, cols=2)
    p = RANDOM_CELLS[kind](2, seed=15)
    dp = zero_directions(problem, 2)
    dp[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        problem.derivative(p, dp)
    sym = 0.5 * (dp + dp.transpose(0, 2, 1))
    d = problem.derivative(p, sym)
    h = 1e-4
    fd = (problem.forward(p + h * sym) - problem.forward(p - h * sym)) / (2 * h)
    assert np.abs(fd - d).max() <= 1e-6 * np.abs(d).max()
