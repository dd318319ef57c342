"""Banded SPD solves and small symmetric eigenproblems.

Every stiffness factorization and solve, and the spectral norm that
measures operator distances, go through this module; three small dense
calls stay with their callers: the Gram whitening's eigh
(operators.gram_inv_sqrt), the cells' definiteness check's eigvalsh
(ForwardProblem.check_cells) and the fit's lstsq (stability.fit_holder).
Matrices are 64-bit floats throughout. A stiffness
matrix is linear in the entries of its symmetric cell matrices, so
CellStiffness stores it once per mesh on a fixed sparsity pattern, one
cell at a time: the slots of the pattern that the cell's triangles
reach and one row of their values per independent entry. What it keeps
grows with the mesh, not with the cell count times the mesh. It also
keeps where each slot sits in LAPACK band storage. A call adds one
small matmul per cell into the slot values and places them into a
Fortran-ordered band, which is narrow under the mesh's patch-last
numbering (mesh.patch_last_order) and which pbtrf factors in place as
K = U.T @ U, so a solve holds one band and no copy of it.
trailing_solve computes U^-T b for a block b that vanishes above its
last rows with one triangular band solve (tbtrs) over them, and
back_solve U^-1 [0; W] with one more tbtrs over all rows. pbtrf and
tbtrs are the only banded LAPACK routines called; spectral_norm uses
LAPACK's dense symmetric eigenvalue solver.
"""

import numpy as np
import scipy.linalg

from .errors import CellCountMismatch, DimensionMismatch, NotPositiveDefinite


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
    """Largest absolute eigenvalue of a symmetric matrix, read from its
    lower triangle."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(m)
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
    are the solutions K^-1 b. The solve runs in place on a
    Fortran-ordered zero-padded copy of W, which it returns: it holds
    one (n, k) block, not two."""
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
    overwrite = 0
    if trans == "N":
        # a Fortran-ordered pad of its own, which tbtrs solves in place
        padded = np.zeros((n, block.shape[1]), order="F")
        padded[first:] = block
        block, first, overwrite = padded, 0, 1
    x, info = scipy.linalg.lapack.dtbtrs(f[:, first:], block, trans=trans, overwrite_b=overwrite)
    if info > 0:
        raise NotPositiveDefinite("factor has a zero pivot in row %d" % (first + info - 1))
    if info < 0:
        raise DimensionMismatch("LAPACK tbtrs rejected argument %d" % -info)
    return x


# Slots CellStiffness.pairing sums at a time.
PAIR_BLOCK = 1024


class CellStiffness:
    """P1 stiffness K(c) = sum_t area_t ops_t.T c_t ops_t over the active
    dofs, linear in the symmetric d x d cell matrices c, on the fixed
    pattern of its upper triangle: slot s is K[rows[s], cols[s]],
    rows <= cols. A cell matrix enters through its independent entries,
    the diagonal ones and then those above the diagonal in row order:
    (c11, c22, c12) for d = 2, (c11, c22, c33, c12, c13, c23) for d = 3.
    Cell i keeps the sorted positions of the slots its triangles reach
    and a block, one row of their values per entry, so
    values(c) = sum over cells i of (cell i's entries) @ block_i, added
    into cell i's slots. Off the cell interfaces a slot belongs to one
    cell, so the blocks together hold about one value per slot and
    entry, whatever the cell count. band(values) is K in LAPACK upper
    band storage of shape band_shape; where each slot lands there is
    worked out once.

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
        self._entries = er, ec
        self.n_cells = int(labels.max())
        n = int(active.max()) + 1
        # per cell, from its triangles only: its sorted slot keys
        # r * n + c and one sum per (component, slot), filled one
        # component at a time
        keys, self._blocks = [], []
        for label in range(1, self.n_cells + 1):
            tri = np.flatnonzero(labels == label)
            loc = active[dofs[tri]]
            r = np.broadcast_to(loc[:, :, None], (len(loc), n_loc, n_loc))
            c = np.broadcast_to(loc[:, None, :], (len(loc), n_loc, n_loc))
            t, a, b = np.nonzero((r >= 0) & (r <= c))
            cell_keys, slot = np.unique(r[t, a, b] * n + c[t, a, b], return_inverse=True)
            t[:] = tri[t]  # in place: t shares one buffer with a and b
            block = np.empty((er.size, cell_keys.size))
            for j, (p, q) in enumerate(zip(er, ec)):
                w = ops[t, p, a] * ops[t, q, b]
                if p != q:
                    w += ops[t, q, a] * ops[t, p, b]
                w *= area[t]
                block[j] = np.bincount(slot, w, minlength=cell_keys.size)
            keys.append(cell_keys)
            self._blocks.append(block)
        # the pattern: the union of the cells' slots, sorted by key
        slots = np.unique(np.concatenate(keys))
        # each cell's slots as positions among them
        self._slots = [np.searchsorted(slots, k) for k in keys]
        self.rows, self.cols = np.divmod(slots, n)
        # a diagonal entry appears once in the upper triangle, an
        # off-diagonal one stands for two entries of K
        self._weight = np.where(self.rows == self.cols, 0.5, 1.0)
        u = int((self.cols - self.rows).max())
        self.band_shape = (u + 1, n)
        place = (u + self.rows - self.cols, self.cols)
        self._band_index = np.ravel_multi_index(place, self.band_shape, order="F")

    def values(self, cells):
        """Slot values of K at the (N, d, d) cell matrices, or
        directions, which it reads only on and above the diagonal: each
        cell's entries times its block, added into its slots, cells in
        label order. A shape other than (n_cells, d, d) is a
        DimensionMismatch, or a CellCountMismatch where only N differs."""
        cells = np.asarray(cells, dtype=float)
        d = self.dim
        if cells.ndim != 3 or cells.shape[1:] != (d, d):
            raise DimensionMismatch("cells of shape %s, not (N, %d, %d)" % (cells.shape, d, d))
        if len(cells) != self.n_cells:
            raise CellCountMismatch(
                "cells of shape %s for a %d-cell partition" % (cells.shape, self.n_cells)
            )
        coeffs = cells[:, self._entries[0], self._entries[1]]
        out = np.zeros(self.rows.size)
        for row, slots, block in zip(coeffs, self._slots, self._blocks):
            np.add.at(out, slots, row @ block)
        return out

    def pairing(self, values, u):
        """u.T @ K @ u for the K with these slot values; u holds one
        column per vector over the active dofs. Exactly symmetric. It
        sums over blocks of PAIR_BLOCK slots, so the rows of u it
        gathers take two (PAIR_BLOCK, k) arrays at a time, not three
        (slots, k) ones."""
        weighted = self._weight * values
        half = np.zeros((u.shape[1], u.shape[1]))
        for s in range(0, len(weighted), PAIR_BLOCK):
            block = slice(s, s + PAIR_BLOCK)
            right = u[self.cols[block]]
            right *= weighted[block, None]
            half += u[self.rows[block]].T @ right
        return half + half.T

    def band(self, values):
        """K for these slot values in LAPACK upper band storage, as
        factor_spd takes it: Fortran-ordered, so it is factored in
        place."""
        out = np.zeros(self.band_shape, order="F")
        out.reshape(-1, order="F")[self._band_index] = values
        return out
