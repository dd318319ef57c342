"""Hilbert-Schmidt scalarization of operator differences and finite
scalar measurements.

The scalarization and the distances read operator differences, plain
matrices, not operator pairs. The scalarization compresses the whitened
difference (from operators.whiten) through diagonal probe weights 2^-j
in the Gram-orthonormalized basis and takes the squared Hilbert-Schmidt
norm: a single scalar that vanishes exactly when the truncated
difference does. Finite measurements sample entries of the raw
difference M_p - M_q; a greedy selector picks a small set of
upper-triangle entries whose Euclidean distance stays uniformly
comparable to the operator distance over a sample of differences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateSample, IndexOutOfRange


def probe_weights(k):
    """Diagonal probe weights (2^-1, ..., 2^-k) as an array; their
    squares sum to (1 - 4^-k)/3."""
    if k < 1:
        raise ValueError("truncation order must be at least 1")
    return 0.5 ** np.arange(1, k + 1)


def phi(d, w):
    """Squared Hilbert-Schmidt norm of the weighted, whitened operator
    difference d truncated to the first len(w) orthonormal directions."""
    k = len(w)
    if k > d.shape[0]:
        raise BasisMismatch(
            "truncation order %d exceeds basis dimension %d" % (k, d.shape[0])
        )
    wd = (w[:, None] * w[None, :]) * d[:k, :k]
    return float(np.sum(wd * wd))


@dataclass(frozen=True)
class FiniteMap:
    """Duplicate-free index pairs (i, j) into a basis of dimension dim:
    the entries a finite measurement samples."""

    pairs: tuple
    dim: int

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("measurement set contains duplicate pairs")
        for i, j in self.pairs:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise IndexOutOfRange(
                    "pair (%d, %d) outside dimension %d" % (i, j, self.dim)
                )

    def evaluate(self, m):
        """The measured entries of a k x k matrix, in set order."""
        if m.shape[0] != self.dim:
            raise BasisMismatch("matrix dimension differs from measurement map")
        rows, cols = np.array(self.pairs, dtype=int).reshape(-1, 2).T
        return m[rows, cols]


def finite_distance(fm, d):
    """Euclidean norm of the measured entries of a raw operator
    difference d = M_p - M_q."""
    return float(np.linalg.norm(fm.evaluate(d)))


@dataclass
class SelectionResult:
    mset: tuple  # the picked (i, j) pairs, in pick order
    achieved_ratio: float
    reached: bool  # False flags that max_size stopped the search


def greedy_select(diffs, dists, target_ratio, max_size=None):
    """Grow a set of upper-triangle entries (symmetry makes the lower
    triangle redundant) greedily until the worst-case ratio
    finite_distance/operator_distance over the samples reaches
    target_ratio. Sample s is the raw difference diffs[s] with the
    operator distance dists[s] (a record's delta_F).

    Each step adds the entry maximizing the minimum ratio, ties broken
    by the first in row-major order. If max_size entries (None: all)
    are picked first, the set is still returned with reached=False.
    """
    if len(diffs) == 0:
        raise ValueError("need at least one sample difference")
    if not (0.0 < target_ratio <= 1.0):
        raise ValueError("target_ratio must lie in (0, 1]")
    dists = np.asarray(dists, dtype=float)
    if np.any(dists == 0.0):
        raise DegenerateSample("sample pair with zero operator distance")
    # squared entry differences, one row per upper-triangle entry not
    # yet picked and one column per sample, gathered once into a block
    # that the search reuses with one score buffer of its size: a pick's
    # row is removed by shifting the later rows up, so the rows stay in
    # row-major order and argmax still breaks ties by the first entry
    rows, cols = np.triu_indices(len(diffs[0]))
    index = rows * len(diffs[0]) + cols
    n = len(diffs)
    cand = np.empty((len(index), n))
    for s, d in enumerate(diffs):
        cand[:, s] = np.take(d, index)
    np.square(cand, out=cand)
    flat = cand.reshape(-1)  # a 1-D view shifts in place, with no copy
    buf = np.empty_like(cand)
    left = list(zip(rows.tolist(), cols.tolist()))
    size = len(left) if max_size is None else min(max_size, len(left))
    ssq = np.zeros(n)
    chosen = []
    ratio = 0.0
    while len(chosen) < size:
        m = len(left)
        live = buf[:m]
        np.add(cand[:m], ssq, out=live)
        np.sqrt(live, out=live)
        np.divide(live, dists, out=live)
        pick = int(np.argmax(np.min(live, axis=1)))
        chosen.append(left.pop(pick))
        ssq += cand[pick]
        flat[pick * n:(m - 1) * n] = flat[(pick + 1) * n:m * n]
        ratio = float(np.min(np.sqrt(ssq) / dists))
        if ratio >= target_ratio:
            return SelectionResult(tuple(chosen), ratio, True)
    return SelectionResult(tuple(chosen), ratio, False)
