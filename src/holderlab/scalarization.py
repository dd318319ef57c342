"""Hilbert-Schmidt scalarization of operator differences and finite
scalar measurements.

The scalarization and the distances read operator differences, plain
matrices, not operator pairs. The scalarization compresses the whitened
difference (from operators.whiten) through diagonal probe weights 2^-j
in the Gram-orthonormalized basis and takes the squared Hilbert-Schmidt
norm: a single scalar that vanishes exactly when the truncated
difference does. A finite measurement samples entries of the raw
difference M_p - M_q. A sweep keeps that difference as its upper
triangle, k(k+1)/2 columns in the one layout triangle_indices states,
so a measurement set is a set of those columns. A greedy selector picks
a small set of columns whose Euclidean norm stays uniformly comparable
to the operator distance over a sample of differences, and
finite_distances measures every record on them: an array that
stability.fit_holder takes in delta_F's place.

The greedy scores a candidate entry by its worst ratio over the
samples, a minimum. The same minimum over a few samples, computed with
the same float operations, bounds that score from above exactly, not
just up to rounding, so each step scores exactly only the candidates
whose bound reaches the best exact score found: its picks are those of
scoring every candidate, bit for bit, at a fraction of the work.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateSample


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
    with np.errstate(over="ignore"):
        return float(np.sum(wd * wd))


def triangle_indices(k):
    """The flat indices of a k x k matrix's upper triangle, diagonal
    included, in row-major order: the k(k+1)/2 columns in which a sweep
    keeps a raw operator difference, greedy_select picks and
    finite_distances measures. Column c holds the entry
    divmod(triangle_indices(k)[c], k)."""
    rows, cols = np.triu_indices(k)
    return rows * k + cols


def upper_triangle(m):
    """The k(k+1)/2 triangle columns of a k x k matrix."""
    return np.take(m, triangle_indices(len(m)))


def triangle_dim(n_entries):
    """The k whose upper triangle has n_entries = k(k+1)/2 entries."""
    k = (math.isqrt(8 * n_entries + 1) - 1) // 2
    if k * (k + 1) // 2 != n_entries:
        raise BasisMismatch("%d entries are no upper triangle" % n_entries)
    return k


def finite_distances(diffs, columns):
    """The Euclidean norm of each row of diffs, a sweep's block of
    triangle columns (SweepResult.differences), at the given columns (a
    selection's columns, say): one finite distance per record. A column
    repeated or outside the triangle is a ValueError, as is diffs None,
    the block of a sweep that kept no differences."""
    if diffs is None:
        raise ValueError("the sweep kept no differences: sweep with differences=True")
    diffs = np.asarray(diffs, dtype=float)
    columns = np.asarray(columns, dtype=np.intp)
    n = diffs.shape[1]
    if len(np.unique(columns)) != len(columns) or not np.all((0 <= columns) & (columns < n)):
        raise ValueError("columns must be distinct and in [0, %d)" % n)
    return np.linalg.norm(diffs[:, columns], axis=1)


@dataclass
class SelectionResult:
    mset: tuple  # the picked (i, j) pairs, in pick order
    columns: tuple  # their triangle columns, in the same order
    achieved_ratio: float
    # False where the search stopped below target_ratio: max_size
    # entries were picked, or every candidate was
    reached: bool


# The score's minimum mostly falls on the samples of smallest ratio; 4 leave ~1 to score exactly.
BOUND_SAMPLES = 4
# Exact scores per call when a bound is loose: amortizes the call, stays small beside the entries.
SCORE_BLOCK = 32


def _scores(values, ssq, dists):
    """min over the rows s of sqrt(ssq[s] + values[s, c]^2) / dists[s],
    one score per column c, computed in place in the gathered values."""
    np.square(values, out=values)
    np.add(values, ssq[:, None], out=values)
    np.sqrt(values, out=values)
    np.divide(values, dists[:, None], out=values)
    return np.min(values, axis=0)


def greedy_select(diffs, dists, target_ratio, max_size=None):
    """Grow a set of triangle columns (symmetry makes the lower
    triangle redundant) greedily until the worst-case ratio of their
    Euclidean norm to the operator distance over the samples reaches
    target_ratio. Sample s is the upper_triangle diffs[s] of a raw
    difference, with the operator distance dists[s] (a record's
    delta_F). A sample with dists[s] = 0 bounds nothing from below and
    is left out; with no positive distance there is nothing to select
    from, a DegenerateSample. diffs may be one (samples x entries)
    float array, which is read in place where every distance is
    positive; otherwise the positive rows are gathered once. The
    result names the picks both as columns and as (i, j) pairs.

    Each step adds the entry j maximizing the score
    min_s sqrt(ssq_s + d_s[j]^2) / dists[s], where ssq_s is sample s's
    sum of squared picked entries; ties go to the first in row-major
    order. If max_size entries (None: all) are picked first, or every
    entry is, below target_ratio, the set is returned with
    reached=False.

    The same expression over a subset of the samples, with the same
    float operations entry by entry, is at least the score: it is a
    minimum over fewer of the same floats. So each step bounds every
    candidate on the BOUND_SAMPLES samples of smallest ratio, scores
    exactly the one with the best bound, then every other one whose
    bound reaches that score, SCORE_BLOCK at a time. No candidate left
    out can beat or tie the best of these, so the picks, their order
    and the ratio are those of scoring every candidate on every sample,
    bit for bit. The entries are the one large array the search holds.
    """
    if not (0.0 < target_ratio <= 1.0):
        raise ValueError("target_ratio must lie in (0, 1]")
    dists = np.asarray(dists, dtype=float)
    positive = dists > 0.0
    if not positive.any():
        raise DegenerateSample("no sample pair with positive operator distance")
    entries = np.asarray(diffs, dtype=float)
    if entries.ndim != 2:
        raise BasisMismatch("samples of shape %s are no upper triangles" % (entries.shape,))
    k = triangle_dim(entries.shape[1])
    if not positive.all():
        entries, dists = entries[positive], dists[positive]
    n, m = entries.shape
    size = m if max_size is None else min(max_size, m)
    ssq = np.zeros(n)
    ratios = np.zeros(n)  # sqrt(ssq) / dists
    taken = np.zeros(m, dtype=bool)
    chosen = []
    ratio = 0.0
    while len(chosen) < size:
        tight = np.argpartition(ratios, min(BOUND_SAMPLES, n) - 1)[:BOUND_SAMPLES]
        bound = _scores(entries[tight], ssq[tight], dists[tight])
        bound[taken] = -np.inf
        pick = int(np.argmax(bound))
        best = _scores(entries[:, [pick]], ssq, dists)[0]
        bound[pick] = -np.inf
        rest = np.flatnonzero(bound >= best)
        for lo in range(0, len(rest), SCORE_BLOCK):
            block = rest[lo:lo + SCORE_BLOCK]
            scores = _scores(entries[:, block], ssq, dists)
            j = int(np.argmax(scores))
            if scores[j] > best or (scores[j] == best and block[j] < pick):
                pick, best = int(block[j]), scores[j]
        taken[pick] = True
        chosen.append(pick)
        ssq += np.square(entries[:, pick])
        ratios = np.sqrt(ssq) / dists
        ratio = float(np.min(ratios))
        if ratio >= target_ratio:
            break
    pairs = tuple(divmod(int(f), k) for f in triangle_indices(k)[chosen])
    return SelectionResult(pairs, tuple(chosen), ratio, ratio >= target_ratio)
