"""The precomputed forward problems against an element-by-element
reference assembly.

Each problem keeps its stiffness as slot values linear in the cell
components plus index maps into the blocks its solve uses. The
reference below assembles the same matrices one triangle at a time from
the vertex coordinates, with gradients from the inverse of the affine
map, and shares no code with the package's assembly.
"""

import numpy as np
import pytest

from holderlab import conductivity as cd
from holderlab import elasticity as el
from holderlab import mesh as mx
from holderlab.numerics import scatter

ROOT2 = np.sqrt(2.0)
TOL = 1e-13


def mesh_2x2():
    return mx.build_mesh(4, mx.PartitionSpec(2, 2), mx.PatchSpec("bottom", 0.0, 1.0))


def reference_gradients(xy):
    """Rows: gradients of the three barycentric coordinates."""
    affine = np.column_stack([np.ones(3), xy])
    return np.linalg.inv(affine)[1:].T


def reference_conductivity(m, cells):
    k = np.zeros((m.n_nodes, m.n_nodes))
    for tri, label in zip(m.triangles, m.labels):
        xy = m.nodes[tri]
        area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), xy])))
        a11, a22, a12 = cells[label - 1]
        coef = np.array([[a11, a12], [a12, a22]])
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


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def conductivity_points():
    rng = np.random.default_rng(21)
    spd = np.column_stack([rng.uniform(1.0, 2.0, 4), rng.uniform(1.0, 2.0, 4), rng.uniform(-0.5, 0.5, 4)])
    direction = rng.standard_normal((4, 3))
    direction[0] = (1.0, -1.0, 2.0)  # indefinite
    return spd, direction


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
    free = np.delete(np.arange(m.n_nodes), problem.ground)
    n = free.size
    for cells in conductivity_points():
        want = reference_conductivity(m, cells)[np.ix_(free, free)]
        values = problem.form.values(cells)
        assert rel_err(from_slots(problem.form, values, n), want) <= TOL
        assert rel_err(from_band(scatter(values, problem.band)), want) <= TOL


def test_elasticity_assembly_matches_reference():
    m = mesh_2x2()
    problem = el.DNProblem(m)
    idx = el.interior_dofs(m)
    bd = 2 * problem.basis.entries[:, 0] + problem.basis.entries[:, 1]
    order = np.concatenate([idx, bd])
    for cells in elasticity_points():
        want = reference_elasticity(m, cells)
        values = problem.form.values(cells)
        assert rel_err(from_slots(problem.form, values, order.size), want[np.ix_(order, order)]) <= TOL
        blocks = (
            (from_band(scatter(values, problem.band)), want[np.ix_(idx, idx)]),
            (scatter(values, problem.load), want[np.ix_(idx, bd)]),
            (scatter(values, problem.energy), want[np.ix_(bd, bd)]),
        )
        for got, block in blocks:
            assert rel_err(got, block) <= TOL


@pytest.mark.parametrize("kind", ["conductivity", "elasticity"])
def test_forward_matches_reference_solve(kind):
    """The whole map against a dense solve of the reference system."""
    m = mesh_2x2()
    if kind == "conductivity":
        problem = cd.NDProblem(m)
        cells = conductivity_points()[0]
        got = cd.nd_matrix(problem, cd.ConductivityParams(cells)).matrix
        free = np.delete(np.arange(m.n_nodes), problem.ground)
        k = reference_conductivity(m, cells)[np.ix_(free, free)]
        want = problem.loads.T @ np.linalg.solve(k, problem.loads)
    else:
        problem = el.DNProblem(m)
        cells = elasticity_points()[0]
        got = el.dn_matrix(problem, el.ElasticityParams(cells)).matrix
        idx = el.interior_dofs(m)
        bd = 2 * problem.basis.entries[:, 0] + problem.basis.entries[:, 1]
        k = reference_elasticity(m, cells)
        k_ib = k[np.ix_(idx, bd)]
        want = k[np.ix_(bd, bd)] - k_ib.T @ np.linalg.solve(k[np.ix_(idx, idx)], k_ib)
    assert rel_err(got, want) <= 1e-12
