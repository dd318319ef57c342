import functools
from fractions import Fraction

import numpy as np
import pytest

from holderlab import conductivity as cd
from holderlab import mesh as mx
from holderlab.errors import NotPositiveDefinite
from holderlab.numerics import spectral_norm
from holderlab.operators import gram_inv_sqrt, operator_distance, whiten

import oracle
from helpers import eig_min, random_conductivity, symmetric_2x2


def unit_mesh(n_sub, cols=1, rows=1):
    return mx.build_mesh(n_sub, cols, rows, "bottom", 0.0, 1.0)


def test_params_reject_indefinite():
    problem = cd.NDProblem(unit_mesh(4))
    indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(NotPositiveDefinite):
        problem.check_cells(indefinite)
    with pytest.raises(ValueError):
        problem.check_cells(np.ones((2, 2)))
    for evaluate in (problem.forward, lambda c: problem.derivative(c, c)):
        with pytest.raises(NotPositiveDefinite):
            evaluate(indefinite)


# The slot values of random cells against the exact stiffness of the
# same floats, relative to its largest entry: measured at most 1.5 eps
# over 20 seeds.
SLOT_ULPS = 4


def test_params_matrix_roundtrip():
    """The stiffness reads a cell matrix through (a11, a22, a12), the
    diagonal and then the entry above it: the entry below does not
    change a slot value, and every slot is within SLOT_ULPS eps of the
    exact stiffness entry it stands for, each cell's floats taken as
    exact fractions."""
    p = random_conductivity(3, seed=0)
    assert np.array_equal(p, p.transpose(0, 2, 1))
    problem = cd.NDProblem(unit_mesh(6, cols=3))
    form, dofs = problem.form, problem.dofs.tolist()
    values = form.values(p)
    lower = p.copy()
    lower[:, 1, 0] = np.nan
    assert form.values(lower).tobytes() == values.tobytes()
    fractions = [[[Fraction(x) for x in row] for row in cell] for cell in p.tolist()]
    exact = oracle.stiffness(*oracle.structured_mesh(6, 3, 1), fractions)
    want = np.array([float(exact.get((dofs[r], dofs[c]), 0)) for r, c in
                     zip(form.rows.tolist(), form.cols.tolist())])
    eps = np.finfo(float).eps
    assert np.abs(values - want).max() <= SLOT_ULPS * eps * np.abs(want).max()


def test_current_basis_dimensions():
    assert len(cd.current_basis(unit_mesh(4))[1]) == 4
    m = mx.build_mesh(4, 1, 1, "bottom", 0.0, 0.3)
    assert len(cd.current_basis(m)[1]) == 1


def test_current_basis_zero_mean():
    m = unit_mesh(8)
    nodes, coeffs, _ = cd.current_basis(m)
    w = mx.boundary_hat_integrals(m)[nodes]
    assert np.abs(coeffs @ w).max() == 0.0


def test_current_basis_gram_spd():
    _, _, gram = cd.current_basis(unit_mesh(8))
    assert eig_min(gram) > 0


def full_stiffness(m, cells):
    """Dense P1 stiffness over all nodes, from the stiffness form."""
    form = cd.stiffness_form(m, np.arange(m.n_nodes))
    k = np.zeros((m.n_nodes, m.n_nodes))
    k[form.rows, form.cols] = k[form.cols, form.rows] = form.values(cells)
    return k


def test_stiffness_identity_kernel():
    m = unit_mesh(4)
    k = full_stiffness(m, np.eye(2)[None])
    assert np.abs(k @ np.ones(m.n_nodes)).max() == 0.0


def test_stiffness_linear_in_coefficient():
    m = unit_mesh(4)
    k1 = full_stiffness(m, np.eye(2)[None])
    k2 = full_stiffness(m, 2.0 * np.eye(2)[None])
    assert np.array_equal(k2, 2.0 * k1)


def test_stiffness_anisotropic_energy():
    m = unit_mesh(4)
    k = full_stiffness(m, np.diag([1.0, 4.0])[None])
    ux = m.nodes[:, 0]
    uy = m.nodes[:, 1]
    assert abs(ux @ k @ ux - 1.0) < 1e-13
    assert abs(uy @ k @ uy - 4.0) < 1e-13


def test_grounded_stiffness_spd_and_row_sums():
    m = unit_mesh(4, cols=2)
    dense = full_stiffness(m, random_conductivity(2, seed=1))
    assert np.abs(dense.sum(axis=1)).max() <= 1e-14 * np.abs(dense).max()
    free = np.delete(np.arange(m.n_nodes), cd.NDProblem(m).ground)
    assert eig_min(dense[np.ix_(free, free)]) > 0


def test_nd_problem_keeps_only_the_trailing_loads():
    """The problem owns the trailing rows of its loads, in one array
    of its own: no (n_free, k) array exists that a view would keep
    alive."""
    problem = cd.NDProblem(unit_mesh(16, cols=2, rows=2))
    assert problem.loads.base is None
    assert problem.loads.shape == (problem.dofs.size - problem.first, problem.k)


def test_ground_node_off_patch():
    for side in mx.SIDES:
        for t0, t1 in ((0.0, 1.0), (0.0, 0.25), (0.5, 1.0), (0.25, 0.75)):
            m = mx.build_mesh(8, 2, 2, side, t0, t1)
            pn = mx.patch_nodes(m)
            assert cd.ground_node(m, pn) not in pn


def test_nd_matrix_ground_independent(monkeypatch):
    m = unit_mesh(8, cols=2)
    problem = cd.NDProblem(m)
    p = random_conductivity(2, seed=16)
    base = problem.forward(p)
    # the far corner of the square and the middle of the opposite side
    for ground in (m.n_nodes - 1, m.n_nodes - 5):
        assert ground != problem.ground and ground not in cd.current_basis(m)[0]
        monkeypatch.setattr(cd, "ground_node", lambda mesh, patch, g=ground: g)
        alt = cd.NDProblem(m)
        assert alt.ground == ground
        alt_matrix = alt.forward(p)
        assert np.abs(alt_matrix - base).max() <= 1e-12 * np.abs(base).max()


def test_nd_scaling():
    m = unit_mesh(8, cols=2)
    problem = cd.NDProblem(m)
    p = random_conductivity(2, seed=3)
    base = problem.forward(p)
    for t in (0.5, 2.0, 10.0):
        mt = problem.forward(t * p)
        assert np.abs(mt - base / t).max() <= 1e-12 * np.abs(base / t).max()


def test_nd_symmetric_psd():
    m = unit_mesh(8, cols=2)
    problem = cd.NDProblem(m)
    for seed in range(5):
        mat = problem.forward(random_conductivity(2, seed=seed))
        assert np.array_equal(mat, mat.T)
        assert eig_min(mat) >= -1e-10 * spectral_norm(mat)


def test_nd_quadratic_form_positive():
    m = unit_mesh(8)
    problem = cd.NDProblem(m)
    mat = problem.forward(random_conductivity(1, seed=4))
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = rng.standard_normal(problem.k)
        assert psi @ mat @ psi > 0


def test_nd_isotropic_recovery():
    m = unit_mesh(8)
    problem = cd.NDProblem(m)
    a = 3.7
    mi = problem.forward(np.eye(2)[None])
    ma = problem.forward(a * np.eye(2)[None])
    ratio = mi[0, 0] / ma[0, 0]
    assert abs(ratio - a) <= 1e-12 * a


def test_nd_derivative_linear():
    m = unit_mesh(4, cols=2)
    problem = cd.NDProblem(m)
    p = random_conductivity(2, seed=8)
    rng = np.random.default_rng(9)
    d1 = symmetric_2x2(rng.standard_normal((2, 3)))
    d2 = symmetric_2x2(rng.standard_normal((2, 3)))
    lhs = problem.derivative(p, 2.0 * d1 - 0.5 * d2)
    rhs = 2.0 * problem.derivative(p, d1) - 0.5 * problem.derivative(p, d2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-30)


def fd_errors(problem, p, dp, steps):
    d = problem.derivative(p, dp)
    scale = np.abs(d).max()
    errs = []
    for h in steps:
        mp = problem.forward(p + h * dp)
        mm = problem.forward(p - h * dp)
        errs.append(np.abs((mp - mm) / (2 * h) - d).max() / scale)
    return errs


def test_nd_derivative_finite_difference():
    m = unit_mesh(8, cols=2)
    problem = cd.NDProblem(m)
    p = random_conductivity(2, seed=10)
    dp = symmetric_2x2(np.random.default_rng(11).standard_normal((2, 3)))
    dp /= np.sqrt((dp ** 2).sum())
    errs = fd_errors(problem, p, dp, [1e-3, 1e-4, 1e-5])
    assert errs[1] <= 1e-5
    # quadratic convergence where truncation dominates, then the
    # difference quotient bottoms out on solver noise
    slope = np.log10(errs[0] / errs[1])
    assert 1.8 <= slope <= 2.2
    assert errs[2] < errs[1] < errs[0]


def test_loewner_monotonicity():
    m = unit_mesh(8, cols=2)
    problem = cd.NDProblem(m)
    rng = np.random.default_rng(12)
    for trial in range(5):
        b = random_conductivity(2, seed=100 + trial, lo=1.0, hi=2.0)
        bump = random_conductivity(2, seed=200 + trial, lo=0.1, hi=0.5)
        a = b + bump  # a dominates b
        ma = problem.forward(a)
        mb = problem.forward(b)
        for _ in range(20):
            psi = rng.standard_normal(problem.k)
            qa = psi @ ma @ psi
            qb = psi @ mb @ psi
            assert qa <= qb + 1e-12 * abs(qb)


def test_operator_distance_basics():
    m = unit_mesh(8)
    problem = cd.NDProblem(m)
    p = random_conductivity(1, seed=13)
    a = problem.forward(p)
    assert operator_distance(whiten(problem.whitener, a - a)) == 0.0
    shifted = a + problem.gram
    assert abs(operator_distance(whiten(problem.whitener, a - shifted)) - 1.0) <= 1e-12


def test_operator_distance_scaling():
    m = unit_mesh(8)
    problem = cd.NDProblem(m)
    p = random_conductivity(1, seed=14)
    a = problem.forward(p)
    b = problem.forward(2.0 * p)
    w = gram_inv_sqrt(problem.gram)
    half_norm = 0.5 * spectral_norm(w @ a @ w)
    assert abs(operator_distance(whiten(problem.whitener, a - b)) - half_norm) <= 1e-12 * half_norm


# Dyadic SPD cells, one per cell of a 2x2 partition; a 2x1 partition
# takes the first two. At n_sub 4 every stiffness entry is then dyadic.
DYADIC_CELLS = [
    [[Fraction(1), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 2)]],
    [[Fraction(2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1)]],
    [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(5, 4)]],
    [[Fraction(3), Fraction(1)], [Fraction(1), Fraction(3, 4)]],
]
EXACT_CASES = [
    (cols, rows, t0, t1)
    for cols, rows in ((2, 1), (2, 2))
    for t0, t1 in ((Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(3, 4)),
                   (Fraction(0), Fraction(1, 2)))
]
EXACT_IDS = ["%dx%d-%g-%g" % (cols, rows, t0, t1) for cols, rows, t0, t1 in EXACT_CASES]

# The float map against the exact one, relative to its largest entry:
# measured at most 2.5 eps over EXACT_CASES.
EXACT_MAP_ULPS = 8


@functools.lru_cache(maxsize=None)
def exact_and_float(cols, rows, t0, t1):
    """The exact problem of the dyadic cells on n_sub 4 with a bottom
    patch [t0, t1], the float problem of the same mesh, and the cells as
    floats, which hold them exactly."""
    cells = DYADIC_CELLS[: cols * rows]
    problem = cd.NDProblem(mx.build_mesh(4, cols, rows, "bottom", float(t0), float(t1)))
    return oracle.nd_map(4, cols, rows, cells, t0, t1), problem, np.array(cells, dtype=float)


def as_float(rows):
    return np.array([[float(v) for v in row] for row in rows])


@pytest.mark.parametrize("cols, rows, t0, t1", EXACT_CASES, ids=EXACT_IDS)
def test_stiffness_values_equal_exact_slots(cols, rows, t0, t1):
    """Every slot value of the stiffness equals the exact stiffness
    entry it stands for, bit for bit, and the slots hold every nonzero
    entry among the free dofs."""
    exact, problem, cells = exact_and_float(cols, rows, t0, t1)
    form, dofs = problem.form, problem.dofs.tolist()
    want = [float(exact.stiffness.get((dofs[r], dofs[c]), 0)) for r, c in
            zip(form.rows.tolist(), form.cols.tolist())]
    assert form.values(cells).tobytes() == np.array(want).tobytes()
    at = {node: i for i, node in enumerate(dofs)}
    nonzero = {
        (min(at[a], at[b]), max(at[a], at[b]))
        for (a, b), v in exact.stiffness.items() if v != 0 and a in at and b in at
    }
    assert nonzero <= set(zip(form.rows.tolist(), form.cols.tolist()))


@pytest.mark.parametrize("cols, rows, t0, t1", EXACT_CASES, ids=EXACT_IDS)
def test_nd_map_matches_exact_elimination(cols, rows, t0, t1):
    """The float map is within EXACT_MAP_ULPS eps of the exact one,
    relative to its largest entry; the ground is the same node, and the
    Gram matrix and the loads are within one eps of their largest
    entries, the loads zero above their trailing rows."""
    exact, problem, cells = exact_and_float(cols, rows, t0, t1)
    eps = np.finfo(float).eps
    want = as_float(exact.matrix)
    assert np.abs(problem.forward(cells) - want).max() <= EXACT_MAP_ULPS * eps * np.abs(want).max()
    assert problem.ground == exact.ground
    gram = as_float(exact.gram)
    assert np.abs(problem.gram - gram).max() <= eps * np.abs(gram).max()
    loads = as_float([exact.loads.get(node, [0] * problem.k) for node in problem.dofs.tolist()])
    assert not loads[: problem.first].any()
    assert np.abs(problem.loads - loads[problem.first:]).max() <= eps * np.abs(loads).max()
