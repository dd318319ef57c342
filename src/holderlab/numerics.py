"""Banded SPD solves, small symmetric eigenproblems and 1D adaptive
quadrature.

All other modules funnel their linear solves and eigenvalue evaluations
through this one. Matrices are 64-bit floats throughout. A stiffness
matrix is linear in the entries of its symmetric cell matrices, so
CellStiffness stores it once per mesh as one row of slot values per
independent entry on a fixed sparsity pattern, summed one such entry
at a time, together with where each slot sits in LAPACK band storage; a
call is a small matmul and one placement into a Fortran-ordered band,
which is narrow under the mesh's patch-last numbering
(mesh.patch_last_order) and which pbtrf factors in place as
K = U.T @ U, so a solve holds one band and no copy of it.
trailing_solve computes U^-T b for a block b that vanishes above its
last rows with one triangular band solve (tbtrs) over them, and
back_solve U^-1 [0; W] with one more tbtrs over all rows. pbtrf and
tbtrs are the only LAPACK routines called. Small dense symmetric
eigenproblems go through LAPACK's symmetric solver.
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
    storage, band[u + i - j, j] = U[i, j]. A Fortran-contiguous float64
    band, such as CellStiffness.band returns, may be overwritten: the
    factor is computed in place and returned as that same array. A
    one-row band is both C- and Fortran-contiguous, so it is overwritten
    too; any other input, a C-ordered band of more rows for one, is
    copied first and left as it was. Raises NotPositiveDefinite on
    a non-positive pivot, which for assembled systems signals a
    coefficient outside the ellipticity cone or a singular (ungrounded)
    system.
    """
    band = np.asarray(band, dtype=float)
    if band.ndim != 2 or not 1 <= band.shape[0] <= band.shape[1]:
        raise DimensionMismatch(
            "band storage must have 1 to n rows for n columns, got %s" % (band.shape,)
        )
    f, info = scipy.linalg.lapack.dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite("non-positive pivot in row %d" % (info - 1))
    if info < 0:
        raise DimensionMismatch("LAPACK pbtrf rejected argument %d" % -info)
    return f


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
    """U^-1 [0; W] over all rows, for the banded factor f of U and
    trailing rows W, from one triangular band solve (LAPACK tbtrs) with
    U itself. For the W that trailing_solve returned for a block b these
    are the solutions K^-1 b."""
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
        padded = np.zeros((n, block.shape[1]))
        padded[first:] = block
        block, first = padded, 0
    x, info = scipy.linalg.lapack.dtbtrs(f[:, first:], block, trans=trans)
    if info > 0:
        raise NotPositiveDefinite("factor has a zero pivot in row %d" % (first + info - 1))
    if info < 0:
        raise DimensionMismatch("LAPACK tbtrs rejected argument %d" % -info)
    return x


class CellStiffness:
    """P1 stiffness K(c) = sum_t area_t ops_t.T c_t ops_t over the active
    dofs, linear in the symmetric d x d cell matrices c, on the fixed
    pattern of its upper triangle: slot s is K[rows[s], cols[s]],
    rows <= cols. A cell matrix enters through its independent entries,
    the diagonal ones and then those above the diagonal in row order:
    (c11, c22, c12) for d = 2, (c11, c22, c33, c12, c13, c23) for d = 3.
    values(c) = (those entries of every cell) @ stack. band(values) is K
    in LAPACK upper band storage of shape band_shape; where each slot
    lands there is worked out once.

    ops (n_tri, d, n_loc) maps a triangle's local dofs to its gradient
    or strain vector, dofs (n_tri, n_loc) gives the global dof of every
    local dof, labels (n_tri,) every triangle's 1-based cell and
    active[g] global dof g's position among the active dofs (-1 if
    inactive).
    """

    def __init__(self, ops, area, dofs, labels, active):
        d, n_loc = ops.shape[1], dofs.shape[1]
        self.dim = d
        # one unit component per entry on or above the diagonal, with
        # its mirror image below
        er, ec = (np.concatenate([np.arange(d), i]) for i in np.triu_indices(d, 1))
        self._entries, n_comp = (er, ec), er.size
        self.n_cells = int(labels.max())
        loc = active[dofs]
        r = np.broadcast_to(loc[:, :, None], (len(loc), n_loc, n_loc))
        c = np.broadcast_to(loc[:, None, :], (len(loc), n_loc, n_loc))
        t, a, b = np.nonzero((r >= 0) & (r <= c))
        n = int(active.max()) + 1
        slots, slot = np.unique(r[t, a, b] * n + c[t, a, b], return_inverse=True)
        self.rows, self.cols = np.divmod(slots, n)
        # one sum per (cell, slot), filled one component at a time
        slot += (labels[t] - 1) * slots.size
        stack = np.empty((self.n_cells, n_comp, slots.size))
        size = self.n_cells * slots.size
        for j, (p, q) in enumerate(zip(er, ec)):
            w = ops[t, p, a] * ops[t, q, b]
            if p != q:
                w += ops[t, q, a] * ops[t, p, b]
            w *= area[t]
            stack[:, j] = np.bincount(slot, w, minlength=size).reshape(self.n_cells, -1)
        self.stack = stack.reshape(-1, slots.size)
        # a diagonal entry appears once in the upper triangle, an
        # off-diagonal one stands for two entries of K
        self._weight = np.where(self.rows == self.cols, 0.5, 1.0)
        u = int((self.cols - self.rows).max())
        self.band_shape = (u + 1, n)
        place = (u + self.rows - self.cols, self.cols)
        self._band_index = np.ravel_multi_index(place, self.band_shape, order="F")

    def values(self, cells):
        """Slot values of K at the (N, d, d) cell matrices, or
        directions, which it reads only on and above the diagonal."""
        cells = np.asarray(cells, dtype=float)
        if len(cells) != self.n_cells:
            raise CellCountMismatch(
                "cells of shape %s for a %d-cell partition" % (cells.shape, self.n_cells)
            )
        return cells[:, self._entries[0], self._entries[1]].reshape(-1) @ self.stack

    def pairing(self, values, u):
        """u.T @ K @ u for the K with these slot values; u holds one
        column per vector over the active dofs. Exactly symmetric."""
        half = u[self.rows].T @ ((self._weight * values)[:, None] * u[self.cols])
        return half + half.T

    def band(self, values):
        """K for these slot values in LAPACK upper band storage, as
        factor_spd takes it: Fortran-ordered, so it is factored in
        place."""
        out = np.zeros(self.band_shape, order="F")
        out.reshape(-1, order="F")[self._band_index] = values
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
