"""Discretized boundary data operators and the proxy operator norm.

A DataOperator is the matrix of a forward map in a fixed boundary
basis together with the Gram matrix of that basis. Distances between
operators are measured in the Gram-whitened spectral norm, the declared
stand-in for the continuum operator norm on a fixed discretization.
Every operator carries the whitening G^{-1/2} of its basis;
whitened_difference is the one place that checks two operators share a
basis, and the distance and the scalarization read its output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch
from .numerics import spectral_norm, symmetrize


@dataclass
class DataOperator:
    matrix: np.ndarray
    gram: np.ndarray
    kind: str  # "conductivity_nd" or "elasticity_dn"
    whitener: np.ndarray = None  # G^{-1/2}, from gram unless given

    def __post_init__(self):
        if self.whitener is None:
            self.whitener = gram_inv_sqrt(self.gram)

    @property
    def dim(self):
        return self.matrix.shape[0]


def gram_inv_sqrt(gram):
    """Symmetric inverse square root of an SPD Gram matrix."""
    w, q = np.linalg.eigh(symmetrize(gram))
    if w[0] <= 0:
        raise BasisMismatch("basis Gram is not positive definite")
    return symmetrize((q / np.sqrt(w)) @ q.T)


def whitened_difference(a, b):
    """The difference M_a - M_b and the same difference in the
    Gram-orthonormalized basis, G^{-1/2} (M_a - M_b) G^{-1/2}."""
    if a.kind != b.kind:
        raise BasisMismatch("operator kinds differ: %s vs %s" % (a.kind, b.kind))
    if a.matrix.shape != b.matrix.shape or not np.array_equal(a.gram, b.gram):
        raise BasisMismatch("operators do not share a basis Gram")
    raw = a.matrix - b.matrix
    return raw, symmetrize(a.whitener @ raw @ a.whitener)


def operator_distance(d):
    """Proxy operator norm of a whitened operator difference."""
    return spectral_norm(d)
