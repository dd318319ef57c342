import numpy as np
import pytest

from holderlab import elasticity as el
from holderlab import mesh as mx
from holderlab.errors import EmptyPatch, NotPositiveDefinite
from holderlab.numerics import spectral_norm

from helpers import eig_min, isotropic_tensor, random_mandel


def unit_mesh(n_sub, cols=1, rows=1, t0=0.0, t1=1.0):
    return mx.build_mesh(n_sub, cols, rows, "bottom", t0, t1)


def test_isotropic_examples():
    assert np.array_equal(isotropic_tensor(0.0, 1.0), 2.0 * np.eye(3))
    m = isotropic_tensor(1.0, 1.0)
    assert np.array_equal(m, [[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.allclose(np.linalg.eigvalsh(m), [2.0, 2.0, 4.0])


def test_isotropic_rejects_nonelliptic():
    with pytest.raises(NotPositiveDefinite):
        isotropic_tensor(-2.0, 1.0)
    with pytest.raises(NotPositiveDefinite):
        isotropic_tensor(0.0, -1.0)


def test_params_validation():
    problem = el.DNProblem(unit_mesh(4))
    bad = np.zeros((1, 3, 3))
    bad[0] = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError):
        problem.check_cells(bad)
    with pytest.raises(NotPositiveDefinite):
        problem.check_cells(np.array([-np.eye(3)]))
    # asymmetry is named before definiteness, in whichever cell it sits
    with pytest.raises(ValueError):
        problem.check_cells(-bad)
    with pytest.raises(ValueError):
        problem.check_cells(np.concatenate([-np.eye(3)[None], bad]))
    with pytest.raises(NotPositiveDefinite):
        problem.check_cells(np.stack([np.eye(3), np.diag([1.0, 0.0, 1.0])]))
    # the evaluation API checks its cells the same way
    for evaluate in (problem.forward, lambda c: problem.derivative(c, c)):
        with pytest.raises(ValueError):
            evaluate(bad)
        with pytest.raises(NotPositiveDefinite):
            evaluate(np.array([-np.eye(3)]))


def test_displacement_basis_dimensions():
    assert len(el.displacement_basis(unit_mesh(4, t0=0.0, t1=0.5))[0]) == 2
    assert len(el.displacement_basis(unit_mesh(4))[0]) == 6


def test_displacement_basis_excludes_endpoints():
    m = unit_mesh(4)
    pn = mx.patch_nodes(m)
    entries, gram = el.displacement_basis(m)
    assert pn[0] not in entries[:, 0]
    assert pn[-1] not in entries[:, 0]
    assert eig_min(gram) > 0


def test_displacement_basis_too_small():
    with pytest.raises(EmptyPatch):
        el.displacement_basis(unit_mesh(4, t0=0.0, t1=0.3))


def full_stiffness(m, cells):
    """Dense vector P1 stiffness over all 2*n_nodes dofs, from the
    stiffness form."""
    n = 2 * m.n_nodes
    form = el.stiffness_form(m, np.arange(n))
    k = np.zeros((n, n))
    k[form.rows, form.cols] = k[form.cols, form.rows] = form.values(cells)
    return k


def test_stiffness_linearity():
    m = unit_mesh(4)
    p = random_mandel(1, seed=0)
    k1 = full_stiffness(m, p)
    k3 = full_stiffness(m, 3.0 * p)
    assert np.allclose(k3, 3.0 * k1, rtol=1e-15, atol=0)


def test_stiffness_constant_strain_energy():
    m = unit_mesh(4)
    k = full_stiffness(m, [isotropic_tensor(0.0, 1.0)])
    u = np.zeros(2 * m.n_nodes)
    u[0::2] = m.nodes[:, 0]
    assert abs(u @ k @ u - 2.0) < 1e-13


def test_reduced_stiffness_positive_definite():
    for n in (2, 4):
        m = unit_mesh(n)
        k = full_stiffness(m, random_mandel(1, seed=n))
        idx = el.interior_dofs(m)
        assert eig_min(k[np.ix_(idx, idx)]) > 0


def test_dn_scaling():
    m = unit_mesh(8, cols=2)
    problem = el.DNProblem(m)
    p = random_mandel(2, seed=2)
    base = problem.forward(p)
    for t in (0.5, 2.0):
        mt = problem.forward(t * p)
        assert np.abs(mt - t * base).max() <= 1e-12 * np.abs(t * base).max()


def test_dn_isotropic_doubling():
    m = unit_mesh(8)
    problem = el.DNProblem(m)
    ma = problem.forward(np.array([isotropic_tensor(0.0, 1.0)]))
    mb = problem.forward(np.array([isotropic_tensor(0.0, 2.0)]))
    assert np.abs(mb - 2.0 * ma).max() <= 1e-12 * np.abs(mb).max()


def test_dn_symmetric_psd():
    m = unit_mesh(8, cols=2)
    problem = el.DNProblem(m)
    for seed in range(5):
        mat = problem.forward(random_mandel(2, seed=seed))
        assert np.array_equal(mat, mat.T)
        assert eig_min(mat) >= -1e-10 * spectral_norm(mat)


def test_dn_quadratic_form_nonnegative():
    m = unit_mesh(8)
    problem = el.DNProblem(m)
    mat = problem.forward(random_mandel(1, seed=7))
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = rng.standard_normal(problem.k)
        assert f @ mat @ f >= 0


def test_dn_lift_independence():
    """The map's zero-extension Schur complement equals the energy of
    the lifted-and-corrected solution for any interior lift."""
    m = unit_mesh(8, cols=2)
    problem = el.DNProblem(m)
    entries, _ = el.displacement_basis(m)
    p = random_mandel(2, seed=9)
    base = problem.forward(p)
    k = full_stiffness(m, p)
    idx = el.interior_dofs(m)
    lift = np.random.default_rng(10).standard_normal((idx.size, problem.k))
    e = np.zeros((k.shape[0], problem.k))
    e[2 * entries[:, 0] + entries[:, 1], np.arange(problem.k)] = 1.0
    e[idx] = lift
    e[idx] -= np.linalg.solve(k[np.ix_(idx, idx)], (k @ e)[idx])
    alt = e.T @ k @ e
    assert np.abs(alt - base).max() <= 1e-12 * np.abs(base).max()


def test_dn_derivative_finite_difference():
    m = unit_mesh(8, cols=2)
    problem = el.DNProblem(m)
    p = random_mandel(2, seed=13)
    dp = np.random.default_rng(14).standard_normal((2, 3, 3))
    dp = 0.5 * (dp + dp.transpose(0, 2, 1))
    dp /= np.linalg.norm(dp)
    d = problem.derivative(p, dp)
    scale = np.abs(d).max()
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        mp = problem.forward(p + h * dp)
        mm = problem.forward(p - h * dp)
        errs.append(np.abs((mp - mm) / (2 * h) - d).max() / scale)
    assert errs[1] <= 1e-5
    slope = np.log10(errs[0] / errs[1])
    assert 1.8 <= slope <= 2.2
    assert errs[2] < errs[1] < errs[0]


def test_mandel_shear_identity():
    """A pure shear strain gam (e12 = gam) has the Mandel strain vector
    (0, 0, sqrt(2) gam); the isotropic tensor maps it to the shear
    stress 2 mu gam, stored as sqrt(2) sigma12."""
    mu = 1.3
    c = isotropic_tensor(0.7, mu)
    gam = 0.31
    sigm = c @ np.array([0.0, 0.0, np.sqrt(2.0) * gam])
    assert abs(sigm[2] / np.sqrt(2.0) - 2.0 * mu * gam) < 1e-14
    assert sigm[0] == sigm[1] == 0.0
