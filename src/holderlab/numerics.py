"""Banded SPD solves, small symmetric eigenproblems and 1D adaptive
quadrature.

All other modules funnel their linear solves and eigenvalue evaluations
through this one. Matrices are 64-bit floats throughout. Assembled
stiffness matrices are sparse with a narrow band under the mesh's
row-major numbering, so they are factored in LAPACK band storage
(pbtrf/pbtrs); small dense symmetric eigenproblems go through LAPACK's
symmetric solver.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, NotPositiveDefinite, ToleranceNotReached


def symmetrize(a):
    """Return 0.5*(a + a.T) as a C-contiguous float array.

    The result satisfies entries[i][j] == entries[j][i] exactly, not
    just to tolerance.
    """
    a = np.asarray(a, dtype=float)
    s = 0.5 * (a + a.T)
    # 0.5*(x+y) == 0.5*(y+x) in IEEE, so s is exactly symmetric
    return np.ascontiguousarray(s)


def spectral_norm(m):
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(symmetrize(m))
    return float(np.max(np.abs(w)))


def eig_min(m):
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(symmetrize(m))
    return float(w[0])


class BandFactor:
    """Upper Cholesky factor U (U.T @ U = A) of a banded SPD matrix, in
    LAPACK's upper band storage: band[u + i - j, j] = U[i, j]."""

    def __init__(self, band):
        self.band = band
        self.n = band.shape[1]


def factor_spd(m):
    """Banded Cholesky factorization (LAPACK pbtrf) of a symmetric
    positive definite matrix.

    Accepts a scipy.sparse matrix or a dense array; only the upper
    triangle is read, and the band width is that of its farthest
    nonzero. Raises NotPositiveDefinite on a non-positive pivot, which
    for assembled systems signals a coefficient outside the
    ellipticity cone or a singular (ungrounded) system.
    """
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix must be square")
    upper = scipy.sparse.triu(m, format="coo")
    upper.sum_duplicates()
    u = int((upper.col - upper.row).max(initial=0))
    band = np.zeros((u + 1, m.shape[0]))
    band[u + upper.row - upper.col, upper.col] = upper.data
    try:
        return BandFactor(scipy.linalg.cholesky_banded(band, check_finite=False))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def solve(f, b):
    """Solve f's matrix against b (vector or column block)."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise DimensionMismatch(
            "right-hand side has %d rows, factor is %d" % (b.shape[0], f.n)
        )
    return scipy.linalg.cho_solve_banded((f.band, False), b, check_finite=False)


def adaptive_quadrature(f, a, b, tol, max_depth=50):
    """Integrate f over [a, b] to absolute tolerance tol.

    Adaptive Simpson with Richardson correction. Raises
    ToleranceNotReached if an interval still fails its local tolerance
    at recursion depth max_depth.
    """
    if a > b:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise ToleranceNotReached(
            "interval [%g, %g] still above tolerance at depth cap" % (a, b)
        )
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_step(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def flat_integrand(s):
    """exp(-1/s^2) extended by zero at s = 0."""
    if s == 0.0:
        return 0.0
    return math.exp(-1.0 / (s * s))
