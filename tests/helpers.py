"""Small oracles that only the tests use."""

import os
import pathlib

import numpy as np

from holderlab.errors import NotPositiveDefinite
from holderlab.numerics import symmetrize
from holderlab.scalarization import triangle_dim

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env(base=None):
    """A child interpreter's environment: base (this process's by
    default) with this checkout's src first on PYTHONPATH, so the child
    imports holderlab from here, installed or not."""
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def same_records(a, b):
    """Whether two SweepResults hold the same records bit for bit: the
    columns, with NaN t at the same positions, the dropped count and the
    differences, or no differences in either."""

    def same(x, y):
        if x is None or y is None:
            return x is y
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    names = ("delta_R", "delta_F", "phi", "t", "differences")
    return a.dropped == b.dropped and all(same(getattr(a, n), getattr(b, n)) for n in names)


def eig_min(m):
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(symmetrize(m))
    return float(w[0])


def symmetric_from_upper(upper):
    """The symmetric matrix whose upper_triangle is `upper`."""
    k = triangle_dim(len(upper))
    rows, cols = np.triu_indices(k)
    m = np.empty((k, k))
    m[rows, cols] = upper
    m[cols, rows] = upper
    return m


def random_conductivity(n_cells, seed, lo=0.5, hi=2.0):
    """SPD 2x2 conductivities with eigenvalues in [lo, hi] and a random
    rotation, exactly symmetric."""
    r = np.random.default_rng(seed)
    cells = []
    for _ in range(n_cells):
        e = r.uniform(lo, hi, 2)
        th = r.uniform(0.0, np.pi)
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, -s], [s, c]])
        a = rot @ np.diag(e) @ rot.T
        cells.append([[a[0, 0], a[0, 1]], [a[0, 1], a[1, 1]]])
    return np.array(cells)


def random_mandel(n_cells, seed, lo=0.5, hi=2.0):
    """SPD 3x3 Mandel tensors with eigenvalues in [lo, hi]."""
    r = np.random.default_rng(seed)
    cells = []
    for _ in range(n_cells):
        d = r.uniform(lo, hi, 3)
        g = r.standard_normal((3, 3))
        q, rr = np.linalg.qr(g)
        q = q * np.sign(np.diag(rr))
        cells.append(symmetrize(q @ np.diag(d) @ q.T))
    return np.array(cells)


def symmetric_2x2(rows):
    """(N, 3) rows (a11, a22, a12) as (N, 2, 2) symmetric matrices."""
    return np.asarray(rows, dtype=float)[:, [[0, 2], [2, 1]]]


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
