"""Banded SPD solves, small symmetric eigenproblems and 1D adaptive
quadrature.

All other modules funnel their linear solves and eigenvalue evaluations
through this one. Matrices are 64-bit floats throughout. A stiffness
matrix is linear in the cell components of its coefficient, so
CellStiffness stores it once per mesh as one row of slot values per
component on a fixed sparsity pattern; a call is a small matmul and a
scatter into LAPACK band storage, which is narrow under the mesh's
patch-last numbering (mesh.patch_last_order), and factored with pbtrf
as K = U.T @ U. Loads L of a forward problem vanish above their last
rows, and so does W = U^-T L: trailing_solve computes its trailing rows
with one triangular band solve (tbtrs) over them. A forward map needs
only the quadratic form L.T K^-1 L = W.T @ W; a derivative needs the
solutions K^-1 L = U^-1 [0; W], which back_solve computes from the
same W with one more tbtrs over all rows. pbtrf and tbtrs are the only
LAPACK routines called. Small dense symmetric eigenproblems go through
LAPACK's symmetric solver.
"""

import math

import numpy as np
import scipy.linalg

from .errors import (
    CellCountMismatch,
    DimensionMismatch,
    NotPositiveDefinite,
    ToleranceNotReached,
)


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


def factor_spd(band):
    """Banded Cholesky factorization (LAPACK pbtrf) of a symmetric
    positive definite matrix given in upper band storage,
    band[u + i - j, j] = A[i, j] for i <= j; the unused top-left corner
    is never read. Returns the upper factor U (U.T @ U = A) in the same
    storage, band[u + i - j, j] = U[i, j]. Raises NotPositiveDefinite on
    a non-positive pivot, which for assembled systems signals a
    coefficient outside the ellipticity cone or a singular (ungrounded)
    system.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or not 1 <= band.shape[0] <= band.shape[1]:
        raise DimensionMismatch(
            "band storage must have 1 to n rows for n columns, got %s" % (band.shape,)
        )
    try:
        return scipy.linalg.cholesky_banded(band, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def trailing_solve(f, tail):
    """W = U^-T b for the banded factor f of U (K = U.T @ U) and the
    column block b that is zero above its last len(tail) rows and
    equals tail there.

    W is zero above those rows too, so only its trailing rows are
    returned, and b.T @ K^-1 @ b = W.T @ W. One triangular band solve
    (LAPACK tbtrs) on the trailing block of U computes them; rows
    above it are never touched.
    """
    return _tbtrs(f, tail, "T")


def back_solve(f, w):
    """U^-1 [0; W] over all rows, for the banded factor f of U and the
    trailing rows W that trailing_solve returned for a block b: the
    solutions K^-1 b, from one triangular band solve (LAPACK tbtrs)
    with U itself."""
    return _tbtrs(f, w, "N")


def _tbtrs(f, block, trans):
    """LAPACK tbtrs with U.T ("T") or U ("N") for the column block that
    is zero above its last len(block) rows and equals block there. With
    U.T the solution vanishes above them too, so only the trailing
    block of U is used and the trailing rows are returned."""
    block = np.asarray(block, dtype=float)
    n = f.shape[1]
    if block.ndim != 2 or not 1 <= block.shape[0] <= n:
        raise DimensionMismatch(
            "trailing block of shape %s for a factor of %d rows" % (block.shape, n)
        )
    first = n - block.shape[0]
    if trans == "N":
        block, first = np.vstack([np.zeros((first, block.shape[1])), block]), 0
    x, info = scipy.linalg.lapack.dtbtrs(f[:, first:], block, trans=trans)
    if info > 0:
        raise NotPositiveDefinite("factor has a zero pivot in row %d" % (first + info - 1))
    if info < 0:
        raise DimensionMismatch("LAPACK tbtrs rejected argument %d" % -info)
    return x


class CellStiffness:
    """P1 stiffness K(c) = sum_t area_t ops_t.T A_t(c) ops_t over the
    active dofs, linear in the cell components c, on the fixed pattern
    of its upper triangle: slot s is K[rows[s], cols[s]], rows <= cols,
    and values(c) = c.ravel() @ stack.

    ops (n_tri, m, d) maps a triangle's local dofs to its gradient or
    strain vector, comps (n_comp, m, m) is the coefficient matrix of
    each unit component, dofs (n_tri, d) the global dof of every local
    dof, labels (n_tri,) every triangle's 1-based cell and active[g]
    global dof g's position among the active dofs (-1 if inactive).
    """

    def __init__(self, ops, comps, area, dofs, labels, active):
        elem = np.einsum("jkl,tka,tlb->tjab", comps, ops, ops, optimize=True)
        elem *= area[:, None, None, None]
        n_comp, d = comps.shape[0], dofs.shape[1]
        self.n_cells = int(labels.max())
        loc = active[dofs]
        r = np.broadcast_to(loc[:, :, None], (len(loc), d, d))
        c = np.broadcast_to(loc[:, None, :], (len(loc), d, d))
        t, a, b = np.nonzero((r >= 0) & (r <= c))
        n = int(active.max()) + 1
        slots, slot = np.unique(r[t, a, b] * n + c[t, a, b], return_inverse=True)
        self.rows, self.cols = np.divmod(slots, n)
        # one sum per (cell, component, slot), flattened in that order
        flat = ((labels[t, None] - 1) * n_comp + np.arange(n_comp)) * slots.size + slot[:, None]
        size = self.n_cells * n_comp * slots.size
        stack = np.bincount(flat.ravel(), elem[t, :, a, b].ravel(), minlength=size)
        self.stack = stack.reshape(-1, slots.size)
        # a diagonal entry appears once in the upper triangle, an
        # off-diagonal one stands for two entries of K
        self._weight = np.where(self.rows == self.cols, 0.5, 1.0)

    def values(self, cells):
        """Slot values of K at the finite cell components, or directions."""
        cells = np.asarray(cells, dtype=float)
        if len(cells) != self.n_cells or cells.size != self.stack.shape[0]:
            raise CellCountMismatch(
                "cells of shape %s for a %d-cell partition" % (cells.shape, self.n_cells)
            )
        if not np.isfinite(cells).all():
            raise ValueError("cell components must be finite")
        return cells.reshape(-1) @ self.stack

    def pairing(self, values, u):
        """u.T @ K @ u for the K with these slot values; u holds one
        column per vector over the active dofs. Exactly symmetric."""
        half = u[self.rows].T @ ((self._weight * values)[:, None] * u[self.cols])
        return half + half.T

    def band_layout(self, select, n):
        """Index map into LAPACK upper band storage of the n x n matrix
        formed by the selected slots, which lie in its upper triangle."""
        r, c = self.rows[select], self.cols[select]
        u = int((c - r).max())
        return layout(select, u + r - c, c, (u + 1, n))


def layout(select, rows, cols, shape):
    """Index map that places the selected slot values at (rows, cols)
    of a zero array of the given shape."""
    return select, np.ravel_multi_index((rows, cols), shape), shape


def scatter(values, index_map):
    """Dense array holding slot values where an index map places them."""
    select, flat, shape = index_map
    out = np.zeros(shape)
    out.reshape(-1)[flat] = values[select]
    return out


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
