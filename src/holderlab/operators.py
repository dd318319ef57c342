"""Forward problems, the whitening of forward-map differences and the
proxy operator norm.

ForwardProblem holds what both forward problems share: the parameter
space of one symmetric positive definite matrix per cell, the banded
factorization and the one algorithm that reads the map and its
derivative off it. A forward map is a plain symmetric k x k matrix in
its problem's fixed boundary basis; the problem holds that basis's
Gram matrix G and its whitening G^{-1/2}. Distances between operators
are measured in the Gram-whitened spectral norm, the declared stand-in
for the continuum operator norm on a fixed discretization: whiten maps
a raw difference M_p - M_q into the Gram-orthonormalized basis, and
the distance and the scalarization read its output.
"""

import numpy as np

from .errors import BasisMismatch, NotPositiveDefinite
from .numerics import back_solve, factor_spd, spectral_norm, symmetrize


def gram_inv_sqrt(gram):
    """Exactly symmetric inverse square root of an SPD Gram matrix, read
    from its lower triangle."""
    w, q = np.linalg.eigh(gram)
    if w[0] <= 0:
        raise BasisMismatch("basis Gram is not positive definite")
    return symmetrize((q / np.sqrt(w)) @ q.T)


def whiten(whitener, raw):
    """A raw operator difference in the Gram-orthonormalized basis,
    G^{-1/2} raw G^{-1/2}, exactly symmetric."""
    return symmetrize(whitener @ raw @ whitener)


def operator_distance(d):
    """Proxy operator norm of a whitened operator difference."""
    return spectral_norm(d)


class ForwardProblem:
    """A forward problem of one mesh, built once, and its parameter
    space: one symmetric positive definite d x d matrix per cell.

    A subclass sets gram, the k x k Gram matrix of its boundary basis,
    and form, the stiffness K(cells) over its active dofs as a
    numerics.CellStiffness, through __init__, and gives its map's kind,
    its degree of homogeneity, F(t p) = t^degree F(p), and trailing(f).
    The active dofs are numbered so that K has a narrow band and the map
    only needs a block W of the banded factor K = U.T @ U that vanishes
    above its last rows: trailing(f) returns those rows. The map is then
    M = W.T @ W, exactly symmetric, from one factorization and at most
    one triangular solve over the trailing rows.

    The derivative in a direction dp pairs the solutions U^-1 [0; W],
    from one more triangular solve over all rows, through the stiffness
    K(dp). K is linear in the cells, so at dp = p the pairing gives the
    map's energy form back, and Euler's identity derivative(p, p) =
    degree * M fixes its sign: the pairing times the degree.
    """

    def __init__(self, gram, form):
        self.gram = gram
        self.k = len(gram)
        self.whitener = gram_inv_sqrt(gram)
        self.form = form

    def check_symmetric(self, cells):
        """The cells, or directions, as an (N, d, d) float array of
        finite symmetric matrices."""
        cells = np.asarray(cells, dtype=float)
        d = self.form.dim
        if cells.ndim != 3 or cells.shape[1:] != (d, d):
            raise ValueError("cells must be an (N, %d, %d) array" % (d, d))
        if not np.isfinite(cells).all():
            raise ValueError("cell matrices must be finite")
        if not np.array_equal(cells, cells.transpose(0, 2, 1)):
            raise ValueError("cell matrices must be symmetric")
        return cells

    def check_cells(self, cells):
        """The cells as an (N, d, d) float array of finite symmetric
        matrices, each positive definite, which is exactly the
        ellipticity bound with each cell's smallest eigenvalue as its
        constant."""
        cells = np.asarray(cells, dtype=float)
        if not np.isfinite(cells).all():
            raise NotPositiveDefinite("every cell matrix must be finite")
        cells = self.check_symmetric(cells)
        if np.linalg.eigvalsh(cells)[:, 0].min() <= 0:
            raise NotPositiveDefinite("every cell matrix must be positive definite")
        return cells

    def factor(self, cells):
        """Banded Cholesky factor of K(cells); the cells are checked
        first, and a K that overflows is a NotPositiveDefinite, also
        where infinities of both signs meet in a slot."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.form.values(self.check_cells(cells))
        if not np.isfinite(values).all():
            raise NotPositiveDefinite("the stiffness of these cells overflows")
        return factor_spd(self.form.band(values))

    def matrix(self, cells):
        """The map's matrix in the basis, W.T @ W."""
        w = self.trailing(self.factor(cells))
        return w.T @ w

    def derivative(self, cells, dp):
        """Directional derivative of the map at cells in direction dp,
        as a matrix in the basis. dp must be finite and symmetric, like
        the cells, but need not be positive definite."""
        f = self.factor(cells)
        values = self.form.values(self.check_symmetric(dp))
        return self.degree * self.form.pairing(values, back_solve(f, self.trailing(f)))
