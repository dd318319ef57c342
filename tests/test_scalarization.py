import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderlab import conductivity as cd
from holderlab import mesh as mx
from holderlab import scalarization as sc
from holderlab.errors import BasisMismatch, DegenerateSample, IndexOutOfRange
from holderlab.numerics import symmetrize
from holderlab.operators import operator_distance, whiten

from helpers import symmetric_from_upper


def sym_operator(mat):
    return symmetrize(np.asarray(mat, dtype=float))


def random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    a = sym_operator(rng.standard_normal((dim, dim)))
    b = sym_operator(rng.standard_normal((dim, dim)))
    return a, b


def white(a, b):
    """The difference a - b whitened in an identity-Gram basis."""
    return whiten(np.eye(a.shape[0]), a - b)


def upper_pairs(dim):
    """The upper-triangle index pairs greedy_select picks from, in
    row-major order."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def samples_of(pairs):
    """Raw differences and operator distances of operator pairs, the
    samples greedy_select reads."""
    return [sc.upper_triangle(a - b) for a, b in pairs], [
        operator_distance(white(a, b)) for a, b in pairs
    ]


def test_probe_weights_values():
    w = sc.probe_weights(3)
    assert np.array_equal(w, [0.5, 0.25, 0.125])
    assert np.sum(w**2) == 0.328125


@given(st.integers(min_value=1, max_value=50))
def test_probe_weights_square_sum(k):
    w = sc.probe_weights(k)
    assert abs(np.sum(w**2) - (1.0 - 4.0 ** (-k)) / 3.0) <= 1e-15


def test_probe_weights_limit():
    assert abs(np.sum(sc.probe_weights(60) ** 2) - 1.0 / 3.0) <= 1e-16


def test_phi_zero_on_equal():
    a, _ = random_pair(5, seed=0)
    assert sc.phi(white(a, a), sc.probe_weights(5)) == 0.0


def test_phi_symmetric():
    a, b = random_pair(5, seed=1)
    w = sc.probe_weights(5)
    assert sc.phi(white(a, b), w) == sc.phi(white(b, a), w)


def test_phi_hs_bound():
    for seed in range(20):
        a, b = random_pair(6, seed=seed)
        for k in (2, 4, 6):
            w = sc.probe_weights(k)
            bound = np.sum(w**2) ** 2 * operator_distance(white(a, b)) ** 2
            assert sc.phi(white(a, b), w) <= bound * (1 + 1e-12)


def test_phi_norm_sandwich():
    for seed in range(10):
        a, b = random_pair(4, seed=100 + seed)
        w = sc.probe_weights(4)
        root = np.sqrt(sc.phi(white(a, b), w))
        dist = operator_distance(white(a, b))
        lo = float(np.min(w) ** 2)
        assert lo * dist * (1 - 1e-12) <= root <= np.sum(w**2) * dist * (1 + 1e-12)


def test_phi_faithful_at_full_truncation():
    a, b = random_pair(5, seed=2)
    w = sc.probe_weights(5)
    assert sc.phi(white(a, b), w) > 0
    assert operator_distance(white(a, b)) > 0
    same = sym_operator(a.copy())
    assert sc.phi(white(a, same), w) == 0.0
    assert operator_distance(white(a, same)) == 0.0


def test_phi_truncation_bound_check():
    a, b = random_pair(3, seed=3)
    with pytest.raises(BasisMismatch):
        sc.phi(white(a, b), sc.probe_weights(4))


def test_matrix_element_conductivity_scaling():
    """Doubling the conductivity halves every ND matrix entry, each to
    relative accuracy."""
    m = mx.build_mesh(4, mx.PartitionSpec(1, 1), mx.PatchSpec("bottom", 0.0, 1.0))
    problem = cd.NDProblem(m)
    cells = np.array([[[1.3, 0.2], [0.2, 1.1]]])
    a = problem.forward(cells)
    b = problem.forward(2.0 * cells)
    for i in range(problem.k):
        for j in range(problem.k):
            lhs = b[i, j]
            rhs = 0.5 * a[i, j]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_finite_distance_full_grid_is_frobenius():
    a, b = random_pair(4, seed=5)
    grid = [(i, j) for i in range(4) for j in range(4)]
    fm = sc.FiniteMap(tuple(grid), 4)
    assert abs(
        sc.finite_distance(fm, sc.upper_triangle(a - b)) - np.linalg.norm(a - b)
    ) <= 1e-14
    assert sc.finite_distance(fm, sc.upper_triangle(a - a)) == 0.0


def test_finite_distance_singleton():
    a, b = random_pair(4, seed=6)
    fm = sc.FiniteMap(((1, 1),), 4)
    assert sc.finite_distance(fm, sc.upper_triangle(a - b)) == abs(a[1, 1] - b[1, 1])


def test_measurement_set_validation():
    with pytest.raises(ValueError):
        sc.FiniteMap(((0, 0), (0, 0)), 3)
    with pytest.raises(IndexOutOfRange):
        sc.FiniteMap(((0, 5),), 3)


def test_greedy_single_separating_entry():
    base = np.diag([1.0, 2.0, 3.0])
    bumped = base.copy()
    bumped[1, 1] += 1.0
    a = sym_operator(base)
    b = sym_operator(bumped)
    res = sc.greedy_select(*samples_of([(a, b)]), target_ratio=0.5, max_size=6)
    assert res.reached
    assert res.mset == ((1, 1),)


def test_greedy_degenerate_sample():
    a, _ = random_pair(3, seed=8)
    with pytest.raises(DegenerateSample):
        sc.greedy_select(*samples_of([(a, a)]), 0.5, 4)


def test_greedy_reads_upper_triangles_only():
    """Whole k x k differences, or rows whose length is no k(k+1)/2, are
    a BasisMismatch, not a selection from the wrong entries."""
    a, b = random_pair(4, seed=9)
    with pytest.raises(BasisMismatch):
        sc.greedy_select([a - b], [1.0], 0.5)
    with pytest.raises(BasisMismatch):
        sc.greedy_select([np.ones(9)], [1.0], 0.5)


def test_greedy_monotone_in_size():
    samples = [random_pair(4, seed=s) for s in range(3)]
    prev = 0.0
    for size in range(1, len(upper_pairs(4)) + 1):
        res = sc.greedy_select(*samples_of(samples), target_ratio=1.0, max_size=size)
        assert res.achieved_ratio >= prev - 1e-15
        prev = res.achieved_ratio


def test_greedy_against_brute_force_3x3():
    """On identity-Gram 3x3 operators the full upper triangle always
    achieves ratio >= 1/sqrt(2), and greedy's first pick matches the
    best single candidate found by enumeration."""
    samples = [random_pair(3, seed=20 + s) for s in range(4)]
    cands = upper_pairs(3)
    dists = [operator_distance(white(a, b)) for a, b in samples]
    diffs = [a - b for a, b in samples]

    def ratio(subset):
        vals = []
        for d, dist in zip(diffs, dists):
            ssq = sum(d[i, j] ** 2 for i, j in subset)
            vals.append(np.sqrt(ssq) / dist)
        return min(vals)

    assert ratio(cands) >= 1.0 / np.sqrt(2.0) - 1e-12

    best_single = max((ratio([c]) for c in cands))
    res1 = sc.greedy_select(*samples_of(samples), target_ratio=1.0, max_size=1)
    assert abs(res1.achieved_ratio - best_single) <= 1e-12

    res_all = sc.greedy_select(*samples_of(samples), target_ratio=1.0)
    assert abs(res_all.achieved_ratio - ratio(cands)) <= 1e-12

    # greedy at every size stays within the best achievable ratio
    for size in (2, 3, 4):
        res = sc.greedy_select(*samples_of(samples), target_ratio=1.0, max_size=size)
        best = max(
            ratio(list(subset)) for subset in itertools.combinations(cands, size)
        )
        assert res.achieved_ratio <= best + 1e-12


def reference_greedy(diffs, dists, candidates, target_ratio, max_size):
    """greedy_select as plain loops: every step scores each candidate not
    yet taken and keeps the first best, so ties go to the lowest index.
    The arithmetic is greedy_select's, operation for operation."""
    ssq = [0.0] * len(diffs)
    chosen, ratio = [], 0.0
    while len(chosen) < min(max_size, len(candidates)):
        best, best_score = None, -math.inf
        for i, j in candidates:
            if (i, j) in chosen:
                continue
            score = min(
                math.sqrt(ssq[s] + d[i, j] * d[i, j]) / dists[s] for s, d in enumerate(diffs)
            )
            if score > best_score:
                best, best_score = (i, j), score
        chosen.append(best)
        i, j = best
        ssq = [ssq[s] + d[i, j] * d[i, j] for s, d in enumerate(diffs)]
        ratio = min(math.sqrt(ssq[s]) / dists[s] for s in range(len(diffs)))
        if ratio >= target_ratio:
            return chosen, ratio, True
    return chosen, ratio, False


@pytest.mark.parametrize("seed", range(6))
def test_greedy_matches_reference_with_exact_ties(seed):
    """Small integer entries and duplicated entries plant exact ties in
    every step's scores; the picks, their order and the ratio match the
    reference bit for bit, with fewer samples (5) than the 21 candidates
    and with more (30), and where max_size stops the search one pick
    before the last candidate."""
    dim = 6
    cands = upper_pairs(dim)
    for n in (5, 30):
        rng = np.random.default_rng(seed)
        diffs = rng.integers(-2, 3, (n, dim, dim)).astype(float)
        diffs[:, 4, 5] = diffs[:, 0, 1]
        diffs[:, 2, 3] = diffs[:, 0, 1]
        diffs[:, 1, 1] = diffs[:, 3, 3]
        diffs = np.array([symmetrize(d) for d in diffs])
        diffs[:, 0, 0] += 1.0  # no all-zero sample
        dists = np.array([np.abs(d).sum() for d in diffs])
        for target, max_size in ((1.0, len(cands)), (0.3, None), (1.0, 4), (1.0, len(cands) - 1)):
            got = sc.greedy_select([sc.upper_triangle(d) for d in diffs], dists, target, max_size)
            want = reference_greedy(list(diffs), dists, cands, target, max_size or len(cands))
            assert (list(got.mset), got.achieved_ratio, got.reached) == want


@pytest.mark.parametrize("seed", range(3))
def test_pruned_greedy_matches_reference_across_score_blocks(seed, monkeypatch):
    """Where the bound prunes: more than twice BOUND_SAMPLES samples and
    105 candidates (dim 14) whose columns repeat a few integer patterns,
    up to sign, so equal bounds and equal scores span more than one
    SCORE_BLOCK. The picks, their order and the ratio match the
    reference bit for bit, also one pick short of all candidates, and
    no pair is picked twice."""
    widths = []
    scores = sc._scores

    def recorded(values, ssq, dists):
        widths.append(values.shape[1])
        return scores(values, ssq, dists)

    monkeypatch.setattr(sc, "_scores", recorded)
    dim = 14
    cands = upper_pairs(dim)
    rng = np.random.default_rng(seed)
    for n in (2 * sc.BOUND_SAMPLES + 1, 5 * sc.BOUND_SAMPLES):
        patterns = rng.integers(-2, 3, (n, 4)).astype(float)
        patterns[:, 0] = 1.0  # no all-zero sample
        cols = patterns[:, rng.integers(0, 4, len(cands))] * rng.choice([-1.0, 1.0], len(cands))
        diffs = [symmetric_from_upper(row) for row in cols]
        dists = np.array([np.abs(d).sum() for d in diffs])
        for target, max_size in ((1.0, len(cands)), (1.0, len(cands) - 1), (0.9, None)):
            got = sc.greedy_select([sc.upper_triangle(d) for d in diffs], dists, target, max_size)
            want = reference_greedy(diffs, dists, cands, target, max_size or len(cands))
            assert (list(got.mset), got.achieved_ratio, got.reached) == want
            assert len(set(got.mset)) == len(got.mset)
    # some step scored a full block exactly and then another: each step
    # opens with its bound over all 105 candidates, wider than a block
    assert any(a == sc.SCORE_BLOCK and b <= sc.SCORE_BLOCK for a, b in zip(widths, widths[1:]))
