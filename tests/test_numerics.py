import numpy as np
import pytest

from holderlab import numerics as nx
from holderlab.errors import DimensionMismatch, NotPositiveDefinite

from helpers import eig_min


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if shift is None:
        shift = n
    return nx.symmetrize(g @ g.T + shift * np.eye(n))


def banded_spd(n, bandwidth, seed):
    """Dense SPD matrix with the given number of superdiagonals."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    for k in range(-bandwidth, bandwidth + 1):
        m += np.diag(rng.uniform(-1.0, 1.0, n - abs(k)), k)
    return nx.symmetrize(m) + (2 * bandwidth + 1) * np.eye(n)


def band_of(m):
    """LAPACK upper band storage of a symmetric matrix; only its upper
    triangle is read."""
    row, col = np.nonzero(np.triu(m))
    u = int((col - row).max(initial=0))
    band = np.zeros((u + 1, m.shape[0]))
    band[u + row - col, col] = m[row, col]
    return band


def upper_from_band(band):
    """Dense U from LAPACK upper band storage."""
    u, n = band.shape[0] - 1, band.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, min(n, i + u + 1)):
            out[i, j] = band[u + i - j, j]
    return out


def full_solve(f, b):
    """K^-1 b for a vector or column block b and the factor f of K, on
    the solver path of the forward problems: trailing_solve over all
    rows, then back_solve."""
    b = np.asarray(b, dtype=float)
    x = nx.back_solve(f, nx.trailing_solve(f, b.reshape(len(b), -1)))
    return x.reshape(b.shape)


def test_factor_diagonal():
    f = nx.factor_spd(band_of(np.diag([4.0, 9.0])))
    assert np.array_equal(f, [[2.0, 3.0]])
    assert np.array_equal(full_solve(f, np.array([8.0, 27.0])), [2.0, 3.0])


def test_factor_identity():
    f = nx.factor_spd(band_of(np.eye(5)))
    assert np.array_equal(f, np.ones((1, 5)))
    b = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(full_solve(f, b), b)


def test_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        nx.factor_spd(band_of(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_solve_identity():
    f = nx.factor_spd(band_of(np.eye(3)))
    assert np.allclose(full_solve(f, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_solve_diagonal():
    f = nx.factor_spd(band_of(np.diag([2.0, 4.0])))
    assert np.allclose(full_solve(f, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_consistency():
    m = random_spd(5, seed=11)
    b = m @ np.ones(5)
    x = full_solve(nx.factor_spd(band_of(m)), b)
    assert np.allclose(x, np.ones(5), atol=1e-12)


def test_solve_dimension_mismatch():
    f = nx.factor_spd(band_of(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        full_solve(f, np.ones(4))


def test_factor_solve_residual_random():
    for seed in range(10):
        n = 20 + 3 * seed
        m = random_spd(n, seed=seed)
        f = nx.factor_spd(band_of(m))
        b = np.random.default_rng(1000 + seed).standard_normal(n)
        x = full_solve(f, b)
        assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_reproduces_input():
    m = banded_spd(17, bandwidth=3, seed=3)
    f = nx.factor_spd(band_of(m))
    assert f.shape == (4, 17)
    u = upper_from_band(f)
    assert np.linalg.norm(u.T @ u - m) <= 1e-12 * np.linalg.norm(m)
    b = np.random.default_rng(4).standard_normal((17, 3))
    x = full_solve(f, b)
    assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_reads_upper_triangle_only():
    """Band storage holds only the upper triangle; the unused top-left
    corner (entries above row 0) is never read."""
    band = band_of(banded_spd(9, bandwidth=2, seed=6))
    u, n = band.shape[0] - 1, band.shape[1]
    corner = np.arange(u + 1)[:, None] < u - np.arange(n)[None, :]
    noisy = band.copy()
    noisy[corner] = np.random.default_rng(7).uniform(-9.0, 9.0, corner.sum())
    a = nx.factor_spd(band)
    b = nx.factor_spd(noisy)
    assert np.array_equal(a[~corner], b[~corner])


def test_factor_rejects_non_square():
    """Band storage of an n x n matrix has 1 to n rows of n columns."""
    for shape in ((5, 4), (0, 4), (4,)):
        with pytest.raises(DimensionMismatch):
            nx.factor_spd(np.ones(shape))


def test_trailing_solve_matches_dense_triangular_solve():
    """Loads zero above their last 8 rows: W = U^-T b is zero there
    too, its trailing rows match a dense triangular solve, W.T @ W is
    the quadratic form b.T K^-1 b."""
    m = banded_spd(30, bandwidth=4, seed=8)
    f = nx.factor_spd(band_of(m))
    u = upper_from_band(f)
    b = np.zeros((30, 5))
    b[22:] = np.random.default_rng(9).standard_normal((8, 5))
    full = np.linalg.solve(u.T, b)
    assert not full[:22].any()
    w = nx.trailing_solve(f, b[22:])
    assert w.shape == (8, 5)
    assert np.abs(w - full[22:]).max() <= 1e-13 * np.abs(full).max()
    form = b.T @ np.linalg.solve(m, b)
    assert np.abs(w.T @ w - form).max() <= 1e-13 * np.abs(form).max()


@pytest.mark.parametrize("first", [22, 0])
def test_back_solve_matches_dense_triangular_solve(first):
    """back_solve is U^-1 applied to the block that is zero above row
    first and W below it, over all rows; after trailing_solve it gives
    K^-1 b."""
    m = banded_spd(30, bandwidth=4, seed=12)
    f = nx.factor_spd(band_of(m))
    rng = np.random.default_rng(13)
    w = rng.standard_normal((30 - first, 5))
    padded = np.zeros((30, 5))
    padded[first:] = w
    want = np.linalg.solve(upper_from_band(f), padded)
    x = nx.back_solve(f, w)
    assert x.shape == (30, 5)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
    b = np.zeros((30, 5))
    b[first:] = rng.standard_normal((30 - first, 5))
    x = nx.back_solve(f, nx.trailing_solve(f, b[first:]))
    want = np.linalg.solve(m, b)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


def test_back_solve_returns_its_own_padded_array(monkeypatch):
    """back_solve solves in place: tbtrs overwrites the zero-padded
    block it is given and returns that same array, so a back-solve
    holds one (n, k) block; the caller's W is left as it was."""
    given = []
    real = nx.scipy.linalg.lapack.dtbtrs

    def recorded(a, b, **kwargs):
        given.append(b)
        return real(a, b, **kwargs)

    monkeypatch.setattr(nx.scipy.linalg.lapack, "dtbtrs", recorded)
    f = nx.factor_spd(band_of(banded_spd(30, bandwidth=4, seed=12)))
    w = np.random.default_rng(14).standard_normal((8, 5))
    kept = w.copy()
    x = nx.back_solve(f, w)
    assert x is given[0]
    assert x.flags.f_contiguous and x.shape == (30, 5)
    assert np.array_equal(w, kept)


def test_trailing_solve_rejects_bad_blocks():
    f = nx.factor_spd(band_of(np.eye(3)))
    for tail in (np.ones(2), np.ones((4, 2)), np.ones((0, 2))):
        for solve in (nx.trailing_solve, nx.back_solve):
            with pytest.raises(DimensionMismatch):
                solve(f, tail)


def test_trailing_solve_names_a_singular_factor():
    f = nx.factor_spd(band_of(banded_spd(10, bandwidth=2, seed=10)))
    f[-1, 8] = 0.0  # diagonal entry of row 8
    with pytest.raises(NotPositiveDefinite):
        nx.trailing_solve(f, np.ones((4, 1)))


def test_spectral_norm_examples():
    assert nx.spectral_norm(np.diag([1.0, -3.0, 2.0])) == 3.0
    assert nx.spectral_norm(np.zeros((4, 4))) == 0.0
    assert abs(nx.spectral_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) < 1e-14


def test_eig_min_examples():
    assert eig_min(np.diag([1.0, 3.0])) == 1.0
    assert abs(eig_min(np.eye(3)) - 1.0) < 1e-14
    assert abs(eig_min(np.array([[2.0, 1.0], [1.0, 2.0]])) - 1.0) < 1e-14


def test_spectral_norm_dominates_rayleigh():
    m = nx.symmetrize(np.random.default_rng(5).standard_normal((12, 12)))
    s = nx.spectral_norm(m)
    for k in range(100):
        v = np.random.default_rng(200 + k).standard_normal(12)
        assert s >= abs(v @ m @ v) / (v @ v) - 1e-12 * s


def neumann_like(n, seed):
    """Dense PSD matrix whose kernel is exactly the constants: the
    graph Laplacian of a weighted path with random chords of span at
    most 3, like a P1 stiffness matrix."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for span in (1, 2, 3):
        i = np.arange(n - span)
        keep = i if span == 1 else i[rng.uniform(size=i.size) < 0.5]
        rows.append(keep)
        cols.append(keep + span)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    off = np.zeros((n, n))
    off[rows, cols] = -rng.uniform(0.5, 1.5, rows.size)
    off = off + off.T
    return off - np.diag(off.sum(axis=1))


def grounded_solve(k, b, ground):
    """Solve k u = b with u[ground] = 0 through the reduced system."""
    free = np.delete(np.arange(k.shape[0]), ground)
    u = np.zeros_like(b)
    u[free] = full_solve(nx.factor_spd(band_of(k[free][:, free])), b[free])
    return u


def zero_sum(b):
    return b - b.mean(axis=0)


def test_constrained_solve_residual():
    """Grounding one node (the constraint u[g] = 0) solves the singular
    Neumann-like system exactly for a compatible, zero-sum load."""
    n = 25
    k = neumann_like(n, seed=2)
    b = zero_sum(np.random.default_rng(4).standard_normal(n))
    u = grounded_solve(k, b, ground=n - 1)
    assert u[n - 1] == 0.0
    assert np.linalg.norm(k @ u - b) <= 1e-12 * np.linalg.norm(b)


def test_constrained_block_solve():
    """Block grounded solves at two grounds differ by one constant per
    column, so every pairing with a zero-sum load agrees."""
    n = 18
    k = neumann_like(n, seed=8)
    b = zero_sum(np.random.default_rng(10).standard_normal((n, 4)))
    u = grounded_solve(k, b, ground=0)
    v = grounded_solve(k, b, ground=11)
    assert np.linalg.norm(k @ u - b) <= 1e-12 * np.linalg.norm(b)
    shift = u - v
    assert np.abs(shift - shift[0]).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(b.T @ u - b.T @ v).max() <= 1e-12 * np.abs(b.T @ u).max()


def test_constrained_rejects_zero_row():
    """A constraint that pins nothing is rejected: here a ground that
    leaves a second connected component floating, whose last pivot is
    exactly zero."""
    pair = np.array([[1.0, -1.0], [-1.0, 1.0]])
    k = np.kron(np.eye(2), pair)  # two copies of pair on the diagonal
    free = np.array([1, 2, 3])
    with pytest.raises(NotPositiveDefinite):
        nx.factor_spd(band_of(k[free][:, free]))


def test_constrained_rejects_indefinite():
    k = neumann_like(10, seed=1) - 5.0 * np.eye(10)
    free = np.arange(1, 10)
    with pytest.raises(NotPositiveDefinite):
        nx.factor_spd(band_of(k[free][:, free]))
