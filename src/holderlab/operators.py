"""Whitening of forward-map differences and the proxy operator norm.

A forward map is a plain symmetric matrix in its problem's fixed
boundary basis; the problem holds the whitening G^{-1/2} of that basis's
Gram matrix G. Distances between operators are measured in the
Gram-whitened spectral norm, the declared stand-in for the continuum
operator norm on a fixed discretization: whiten maps a raw difference
M_p - M_q into the Gram-orthonormalized basis, and the distance and the
scalarization read its output.
"""

import numpy as np

from .errors import BasisMismatch
from .numerics import spectral_norm, symmetrize


def gram_inv_sqrt(gram):
    """Symmetric inverse square root of an SPD Gram matrix."""
    w, q = np.linalg.eigh(symmetrize(gram))
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
