"""Small oracles that only the tests use."""

import numpy as np

from holderlab.errors import NotPositiveDefinite
from holderlab.numerics import symmetrize


def eig_min(m):
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(symmetrize(m))
    return float(w[0])


def isotropic_tensor(lambda_lame, mu):
    """Isotropic plane-strain tensor in Mandel form."""
    m = np.array(
        [
            [lambda_lame + 2.0 * mu, lambda_lame, 0.0],
            [lambda_lame, lambda_lame + 2.0 * mu, 0.0],
            [0.0, 0.0, 2.0 * mu],
        ]
    )
    if mu <= 0 or lambda_lame + mu <= 0 or eig_min(m) <= 0:
        raise NotPositiveDefinite("isotropic tensor outside the elliptic range")
    return m
