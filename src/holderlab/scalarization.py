"""Hilbert-Schmidt scalarization of operator differences and finite
scalar measurements.

The scalarization and the distances read operator differences, plain
matrices, not operator pairs. The scalarization compresses the whitened
difference (from operators.whiten) through diagonal probe weights 2^-j
in the Gram-orthonormalized basis and takes the squared Hilbert-Schmidt
norm: a single scalar that vanishes exactly when the truncated
difference does. Finite measurements sample entries of the raw
difference M_p - M_q; a greedy selector builds a small entry set whose
Euclidean distance stays uniformly comparable to the operator distance
over a sample of differences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateSample, IndexOutOfRange


@dataclass(frozen=True)
class ProbeWeights:
    k: int
    weights: np.ndarray

    def square_sum(self):
        return float(np.sum(self.weights**2))


def probe_weights(k):
    """Diagonal probe weights (2^-1, ..., 2^-k); their squares sum to
    (1 - 4^-k)/3."""
    if k < 1:
        raise ValueError("truncation order must be at least 1")
    return ProbeWeights(k, 0.5 ** np.arange(1, k + 1))


def phi(d, w):
    """Squared Hilbert-Schmidt norm of the weighted, whitened operator
    difference d truncated to the first w.k orthonormal directions."""
    if w.k > d.shape[0]:
        raise BasisMismatch(
            "truncation order %d exceeds basis dimension %d" % (w.k, d.shape[0])
        )
    wd = (w.weights[:, None] * w.weights[None, :]) * d[: w.k, : w.k]
    return float(np.sum(wd * wd))


@dataclass(frozen=True)
class MeasurementSet:
    """Index pairs into the boundary basis, duplicate-free."""

    pairs: tuple

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("measurement set contains duplicate pairs")

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class FiniteMap:
    """A measurement set bound to the basis (dimension) it samples."""

    mset: MeasurementSet
    dim: int

    def __post_init__(self):
        for i, j in self.mset.pairs:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise IndexOutOfRange(
                    "pair (%d, %d) outside dimension %d" % (i, j, self.dim)
                )

    def evaluate(self, m):
        """The measured entries of a k x k matrix, in set order."""
        if m.shape[0] != self.dim:
            raise BasisMismatch("matrix dimension differs from measurement map")
        return np.array([m[i, j] for i, j in self.mset.pairs])


def finite_distance(fm, d):
    """Euclidean norm of the measured entries of a raw operator
    difference d = M_p - M_q."""
    return float(np.linalg.norm(fm.evaluate(d)))


@dataclass
class SelectionResult:
    mset: MeasurementSet
    achieved_ratio: float
    reached: bool  # False flags that max_size stopped the search


def all_candidate_pairs(dim):
    """Upper-triangle index pairs; symmetry makes the lower triangle
    redundant."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def greedy_select(diffs, dists, candidates, target_ratio, max_size):
    """Grow a measurement set greedily until the worst-case ratio
    finite_distance/operator_distance over the samples reaches
    target_ratio. Sample s is the raw difference diffs[s] with the
    operator distance dists[s] (a record's delta_F).

    Each step adds the candidate maximizing the minimum ratio, ties
    broken by lowest candidate index. If max_size is hit first the set
    is still returned with reached=False.
    """
    if len(diffs) == 0:
        raise ValueError("need at least one sample difference")
    if not (0.0 < target_ratio <= 1.0):
        raise ValueError("target_ratio must lie in (0, 1]")
    dists = np.asarray(dists, dtype=float)
    if np.any(dists == 0.0):
        raise DegenerateSample("sample pair with zero operator distance")
    if not candidates:
        return SelectionResult(MeasurementSet(()), 0.0, False)
    # squared entry differences per sample and remaining candidate; a
    # pick's column is dropped, and `remaining` keeps the candidate
    # indices ascending, so argmax still breaks ties by lowest index
    rows, cols = np.array(candidates).T
    cand = np.asarray(diffs)[:, rows, cols] ** 2
    remaining = np.arange(len(candidates))
    ssq = np.zeros(len(diffs))
    chosen = []
    ratio = 0.0
    while len(chosen) < min(max_size, len(candidates)):
        scores = np.min(np.sqrt(ssq[:, None] + cand) / dists[:, None], axis=0)
        pick = int(np.argmax(scores))
        chosen.append(candidates[remaining[pick]])
        ssq += cand[:, pick]
        cand = np.delete(cand, pick, axis=1)
        remaining = np.delete(remaining, pick)
        ratio = float(np.min(np.sqrt(ssq) / dists))
        if ratio >= target_ratio:
            return SelectionResult(MeasurementSet(tuple(chosen)), ratio, True)
    return SelectionResult(MeasurementSet(tuple(chosen)), ratio, False)
