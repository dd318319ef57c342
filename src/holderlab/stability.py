"""Stability sweeps, empirical Holder envelope fitting, and the
flat-vs-analytic counterexample study.

A built forward problem (operators.ForwardProblem) owns its kind's
parameter space, one symmetric matrix per cell: sampling cells and
directions, the cell count, the basis dimension k, the whitener and the
map itself. Sampling and sweeps take the built problem and read all of
these from it; the caller adds only plain values, the ellipticity
bounds lambda_lo and lambda_hi and a sweep's 1-based recovered-cell
labels, which sample_point and sweep check before any solve. This
module imports neither problem module and branches on no kind.

A sweep samples parameter pairs from a compact ellipticity class,
evaluates the forward map on both, and forms the operator difference
M_p - M_q once per record: whitened once with the forward problem's
whitener, it gives the operator distance delta_F and the scalarization
value phi. A sweep gives every record it may make one row, fixed by
its job and step, and the job that makes the record writes its
measurements and a kept bit into that row in place; a sweep asked for
its differences also writes the raw difference's triangle columns
(scalarization.triangle_indices) into the row of one (rows x k(k+1)/2)
block, where scalarization.finite_distances and the greedy selection
read them.
Any other sweep keeps no difference beyond the record that made it. The
kept rows, gathered once, become the result's columns, record i at
position i of each: the recovered-quantity distance delta_R, delta_F,
phi, and the ray step t, which follows from the row's index; kind()
and injectivity_violation() derive the rest. The kept triangles move
up in place, so the result's differences are one array with one row
per record. A sweep solves each ray's base point once for all the
ray's steps.

A sweep job is a random pair or a whole ray, named by its index: the
job samples its own points from (seed, stream, index). Pair i writes
row i, and ray r the rows of its steps after all the pairs' rows. The
jobs are a closure over the sweep's own locals, and each row array sits
in an anonymous shared mapping of its own. With W > 1 workers, the
sweep forks W processes that inherit the rows, the closure and the
built problem; worker w runs jobs w, w + W, w + 2W, ..., so each gets
an equal share of the pairs and of the rays, writes their rows and
sends nothing back. Then the sweep reruns the share of any worker that
did not exit 0: every job is deterministic, so the rerun rewrites the
same rows, and a failure seen only in a worker, such as a kill, leaves
no trace when the rerun succeeds. A row's place depends on its job
alone, so the output does not depend on the worker count. Each worker
sets its OpenBLAS libraries to one thread as it starts, as the command
line does for the whole process; otherwise the workers' BLAS thread
pools would oversubscribe the CPUs.

The envelope fit estimates (theta, C) so that every record lies below
log delta_R <= theta * log delta_F + log C + slack. It reads two arrays
of distances, so a finite distance or phi can take delta_F's place.
"""

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    DegenerateSample,
    HolderLabError,
    InsufficientSpread,
    ToleranceNotReached,
)
from .operators import operator_distance, whiten
from .scalarization import phi, probe_weights, triangle_indices

# rng stream tags so every sampled object is a pure function of
# (seed, stream, index)
_STREAM_RANDOM_P = 1
_STREAM_RANDOM_Q = 2
_STREAM_RAY_BASE = 3
_STREAM_RAY_DIR = 4


@dataclass
class SweepResult:
    """Kept records as columns: record i sits at position i of each."""

    delta_R: np.ndarray
    delta_F: np.ndarray
    phi: np.ndarray
    t: np.ndarray  # the ray step; NaN for a random pair
    dropped: int
    # (records x k(k+1)/2): row i is the upper_triangle of record i's raw
    # M_p - M_q; None where the sweep was not asked to keep them
    differences: np.ndarray | None


def kind(t):
    """The kind of a record of ray step t, which is NaN for a random pair."""
    return "random_random" if math.isnan(t) else "near_diagonal"


def injectivity_violation(delta_R, delta_F):
    """Whether records, one or an array, have equal maps but unequal delta_R."""
    return (delta_F == 0.0) & (delta_R > 0.0)


@dataclass
class HolderFit:
    theta: float
    theta_precap: float
    log_C: float
    n_bins: int
    slack: float
    max_violation: float
    records_used: int
    constant_R: bool = False


def _rng(seed, stream, index):
    return np.random.default_rng([int(seed), int(stream), int(index)])


def _check_bounds(lambda_lo, lambda_hi):
    """A ValueError unless 0 < lambda_lo <= lambda_hi."""
    if not (0.0 < lambda_lo <= lambda_hi):
        raise ValueError("need 0 < lambda_lo <= lambda_hi")


def _check_labels(recovered_cells, n_cells):
    """The 1-based recovered-cell labels as an intp array. Anything but
    a 1-d sequence of Python or numpy integers, bools not among them,
    is a ValueError naming the labels, and so are labels that are
    empty, repeated, below 1 or above n_cells."""
    try:
        items = list(recovered_cells)
    except TypeError:
        items = None
    if items is None or not all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in items
    ):
        raise ValueError(
            "recovered cell labels %r are not a 1-d sequence of integers" % (recovered_cells,)
        )
    if not items:
        raise ValueError("recovered quantity needs at least one cell")
    if len(set(items)) != len(items):
        raise ValueError("duplicate cell indices")
    if min(items) < 1:
        raise ValueError("cell labels are 1-based")
    if max(items) > n_cells:
        raise ValueError("recovered cell label outside the partition")
    return np.array(items, dtype=np.intp)


def sample_point(problem, lambda_lo, lambda_hi, seed, stream, index):
    """Cell matrices of parameter point `index` of a stream, one per
    cell of the problem's partition, with eigenvalues in [lambda_lo,
    lambda_hi]; it depends only on (seed, stream, index)."""
    _check_bounds(lambda_lo, lambda_hi)
    rng = _rng(seed, stream, index)
    return problem.sample_cells(rng, lambda_lo, lambda_hi)


def sample_direction(problem, seed, index=0):
    """Random symmetric per-cell direction with unit global Frobenius
    norm over the whole tuple, counter-seeded: ray `index` of a sweep
    walks along it."""
    rng = _rng(seed, _STREAM_RAY_DIR, index)
    return problem.sample_direction(rng)


def _cell_frobenius(cells_a, cells_b, idx):
    """Max Frobenius distance between the cell matrices at the 0-based
    indices idx; inf, without a warning, where it overflows, which sweep
    then refuses."""
    diff = cells_a[idx] - cells_b[idx]
    with np.errstate(over="ignore"):
        return float(np.max(np.sqrt(np.sum(diff**2, axis=(1, 2)))))


def default_ray_steps(n):
    """Log-spaced ray parameters spanning the near-diagonal regime
    while staying above solver noise."""
    return np.geomspace(1e-6, 1e-1, n)


def _row_arrays(n_rows, n_entries):
    """The zeroed triangle block (n_rows x n_entries floats), values
    (n_rows x 3 floats) and kept bits (n_rows int8) of a sweep, each in
    an anonymous shared mapping that workers forked after it share."""
    specs = (((n_rows, n_entries), np.float64), ((n_rows, 3), np.float64), ((n_rows,), np.int8))

    def mapped(shape, dtype):
        size = math.prod(shape) * np.dtype(dtype).itemsize
        return np.ndarray(shape, dtype, mmap.mmap(-1, max(1, size)))

    return [mapped(shape, dtype) for shape, dtype in specs]


def _worker_count(threads, n_jobs):
    """Processes a sweep of n_jobs jobs runs on: at most `threads`, the
    CPUs this process may use, and n_jobs. One means in-process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, n_jobs))


# The names under which OpenBLAS builds export set_num_threads: scipy's
# 64-bit-integer build, scipy's 32-bit one, and OpenBLAS's own.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _pin_blas():
    """One BLAS thread in this process: set_num_threads(1) on every
    OpenBLAS library that /proc/self/maps lists, under the first of
    its names the library exports. Without such a library or name,
    nothing changes."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _OPENBLAS_SET_THREADS if hasattr(lib, n)), None)
        if name is not None:
            set_num_threads = getattr(lib, name)
            set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
            set_num_threads(1)


def _run_on_workers(run, workers):
    """run(0, 1) on `workers` forked processes: worker w pins BLAS, runs
    run(w, workers) and leaves through os._exit, 0 on success and 1
    otherwise, so it never returns into its caller's frames or flushes
    inherited buffers. Once all are reaped, this process reruns the
    share of each that did not exit 0, raising its error here."""
    pids = []
    try:
        for w in range(workers):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _pin_blas()
                    run(w, workers)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
    finally:
        failed = [w for w, pid in enumerate(pids) if os.waitpid(pid, 0)[1] != 0]
    for w in failed:
        run(w, workers)


def sweep(
    problem, lambda_lo, lambda_hi, recovered_cells, n_random_pairs, n_rays, ray_steps, seed,
    probe_k=None, threads=1, differences=False,
):
    """Stability records of a built forward problem for random pairs
    and near-diagonal rays, sampled with eigenvalues in [lambda_lo,
    lambda_hi]; delta_R is the largest Frobenius distance over the cells
    whose 1-based labels recovered_cells lists. With differences=True
    the result also holds the raw operator difference M_p - M_q of every
    record as its upper_triangle, one row of k(k+1)/2 floats per record
    in one C-contiguous (records x k(k+1)/2) array, as the greedy
    selection reads them; otherwise no record keeps one and
    result.differences is None. Bounds outside 0 < lambda_lo <= lambda_hi, recovered
    labels that are no 1-d sequence of integers, or are empty, repeated,
    below 1 or outside the problem's partition, and a ray step that is
    not finite and positive are each a ValueError, and a probe_k above
    the basis dimension a BasisMismatch, all raised before any solve.

    Rays fix a base point p and a unit direction dp per ray and walk
    q = p + t*dp along the given steps. Each record whitens its
    difference once with the problem's whitener; delta_F and phi both
    read the whitened one. Job i < n_random_pairs is random pair i and
    writes row i; job n_random_pairs + r is ray r, which solves its base
    point once and writes row n_random_pairs + r * len(ray_steps) + s
    for step s; without steps there is no ray job, so no base point is
    sampled or solved. A row holds delta_R, delta_F, phi and a kept bit;
    the kept rows, in row order, are the result's columns, and a
    record's t follows from its row's index. `threads` > 1 runs the jobs
    on up to that many worker processes; the columns do not depend on
    that count. A record whose solve fails is dropped and counted, and
    a failed base solve drops all its ray's records. A record whose
    delta_R, delta_F or phi is not finite, such as a delta_R that
    overflows on cells near the largest float, raises DegenerateSample
    naming the first such record.
    """
    _check_bounds(lambda_lo, lambda_hi)
    labels = _check_labels(recovered_cells, problem.form.n_cells)
    k = problem.k if probe_k is None else probe_k
    if k > problem.k:
        raise BasisMismatch("truncation order %d exceeds basis dimension %d" % (k, problem.k))
    steps = np.asarray(ray_steps, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(steps) & (steps > 0.0)))
    if bad.size:
        raise ValueError("ray step %r is not finite and positive" % float(steps[bad[0]]))
    n_jobs = n_random_pairs + (n_rays if len(steps) else 0)
    n_rows = n_random_pairs + n_rays * len(steps)
    workers = _worker_count(threads, n_jobs)
    upper = triangle_indices(problem.k)
    triangles, values, kept = _row_arrays(n_rows, len(upper) if differences else 0)
    weights = probe_weights(k)
    recovered = labels - 1

    def record(row, cells_p, m_p, cells_q):
        try:
            raw = m_p - problem.forward(cells_q)
        except HolderLabError:
            return
        d_r = _cell_frobenius(cells_p, cells_q, recovered)
        d = whiten(problem.whitener, raw)
        values[row] = d_r, operator_distance(d), phi(d, weights)
        kept[row] = 1
        if differences:
            np.take(raw, upper, out=triangles[row])

    def run(start, step):
        """Write the rows of jobs start, start + step, start + 2*step, ...;
        a dropped record's row keeps its kept bit 0."""
        for i in range(start, n_jobs, step):
            if i < n_random_pairs:
                row = i
                cells_p = sample_point(problem, lambda_lo, lambda_hi, seed, _STREAM_RANDOM_P, i)
                qs = [sample_point(problem, lambda_lo, lambda_hi, seed, _STREAM_RANDOM_Q, i)]
            else:
                r = i - n_random_pairs
                row = n_random_pairs + r * len(steps)
                cells_p = sample_point(problem, lambda_lo, lambda_hi, seed, _STREAM_RAY_BASE, r)
                dp = sample_direction(problem, seed, r)
                qs = [cells_p + t * dp for t in steps]
            try:
                m_p = problem.forward(cells_p)
            except HolderLabError:
                continue
            for s, cells_q in enumerate(qs):
                record(row + s, cells_p, m_p, cells_q)

    if workers > 1:
        _run_on_workers(run, workers)
    else:
        run(0, 1)

    rows = np.flatnonzero(kept)
    measured = values[rows]
    bad = np.flatnonzero(~np.isfinite(measured).all(axis=1))
    if bad.size:
        raise DegenerateSample(
            "record %d has a value that is not finite (delta_R=%r, delta_F=%r, phi=%r)"
            % (bad[0], *measured[bad[0]].tolist())
        )
    t = np.full(len(rows), np.nan)
    on_ray = rows >= n_random_pairs
    t[on_ray] = steps[(rows[on_ray] - n_random_pairs) % len(steps)]
    for pair_id, row in enumerate(rows.tolist() if differences else ()):
        if pair_id != row:
            triangles[pair_id] = triangles[row]  # kept rows move up, in place
    diffs = triangles[: len(rows)] if differences else None
    return SweepResult(*measured.T, t, n_rows - len(rows), diffs)


def _distances(delta_R, delta_F):
    """delta_R and delta_F as float arrays; a ValueError unless both are 1-d and equally long."""
    d_r, d_f = np.asarray(delta_R, dtype=float), np.asarray(delta_F, dtype=float)
    if d_r.ndim != 1 or d_r.shape != d_f.shape:
        raise ValueError(
            "need two equally long 1-d sequences of distances, got shapes %s and %s"
            % (d_r.shape, d_f.shape)
        )
    return d_r, d_f


def fit_holder(delta_R, delta_F, n_bins=8, slack=0.1):
    """Upper-envelope power-law fit of delta_R against delta_F, two
    equally long sequences holding record i's distances at position i.

    Records whose two distances are positive are binned by log delta_F;
    the per-bin maximum of log delta_R anchors a least-squares line
    whose slope is theta (capped at 1, pre-cap value kept); the
    intercept is then lifted minimally so every record sits within
    `slack` log units of the envelope. Records that all have
    delta_R = 0 give the constant-R fit; no records at all raise
    InsufficientSpread, and a record with an infinite or NaN distance
    raises DegenerateSample naming its position.
    """
    if n_bins < 2:
        raise ValueError("need at least two bins")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    d_r, d_f = _distances(delta_R, delta_F)
    if not len(d_r):
        raise InsufficientSpread("no records to fit")
    bad = np.flatnonzero(~(np.isfinite(d_f) & np.isfinite(d_r)))
    if bad.size:
        i = int(bad[0])
        raise DegenerateSample(
            "record %d has a distance that is not finite (delta_F=%r, delta_R=%r)"
            % (i, float(d_f[i]), float(d_r[i]))
        )
    if np.all(d_r == 0.0):
        return HolderFit(
            theta=1.0, theta_precap=1.0, log_C=float("-inf"), n_bins=n_bins, slack=slack,
            max_violation=0.0, records_used=0, constant_R=True,
        )
    usable = (d_f > 0.0) & (d_r > 0.0)
    if np.count_nonzero(usable) < 2:
        raise InsufficientSpread("need at least two records with positive distances")
    x, y = np.log(d_f[usable]), np.log(d_r[usable])
    span = (x.max() - x.min()) / math.log(10.0)
    if span < 2.0:
        raise InsufficientSpread(
            "delta_F spans %.2f decades, need at least 2" % span
        )
    edges_lo, edges_hi = x.min(), x.max()
    idx = np.clip(
        ((x - edges_lo) / (edges_hi - edges_lo) * n_bins).astype(int), 0, n_bins - 1
    )
    # by bin, then descending y, then record order (lexsort is stable):
    # each bin's first is its anchor, its first record of largest y
    order = np.lexsort((-y, idx))
    first = order[np.flatnonzero(np.diff(idx[order], prepend=-1))]
    ax, ay = x[first], y[first]
    design = np.column_stack([ax, np.ones_like(ax)])
    (theta_precap, intercept), *_ = np.linalg.lstsq(design, ay, rcond=None)
    theta = min(float(theta_precap), 1.0)
    if theta != theta_precap:
        intercept = float(np.mean(ay - theta * ax))
    excess = y - (theta * x + intercept)
    lift = max(0.0, float(excess.max()) - slack)
    log_c = float(intercept) + lift
    return HolderFit(
        theta=theta, theta_precap=float(theta_precap), log_C=log_c, n_bins=n_bins, slack=slack,
        max_violation=float(excess.max()) - lift, records_used=len(x),
    )


def _slope_table(ts, fs):
    """The columns (t, F(t), local slope), the slope a centered log-log
    difference quotient, one-sided at the ends."""
    if len(ts) < 2:
        raise ValueError("a log-log slope needs at least 2 sample points, got %d" % len(ts))
    lt, lf = np.log(ts), np.log(fs)
    i = np.arange(len(ts))
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, len(ts) - 1)
    return ts, fs, (lf[hi] - lf[lo]) / (lt[hi] - lt[lo])


def _sample_points(ts):
    """The sample points sorted: one outside (0, 1] is a ValueError, and
    the first whose log repeats the previous one's a DegenerateSample."""
    ts = np.sort(np.asarray(ts, dtype=float))
    if ts[0] <= 0.0 or ts[-1] > 1.0:
        raise ValueError("sample points must lie in (0, 1]")
    same = np.flatnonzero(np.diff(np.log(ts)) == 0.0)
    if same.size:
        raise DegenerateSample(
            "sample point %r repeats the logarithm of the one before it, so a log-log "
            "slope divides by 0" % float(ts[same[0] + 1])
        )
    return ts


# A backstop for the fraction's loop, not a knob: at x = 1/t^2 >= 1, as
# on (0, 1], a step reached exactly 1.0, which meets any tol, within 277
# terms at each of 200001 t sampled in [0.036, 1].
_FLAT_TERMS = 1000


def _flat_map(t, tol):
    """F(t) = integral of exp(-1/s^2) over [0, t] for 0 < t <= 1.

    F(t) = Gamma(-1/2, x) / 2 at x = 1/t^2, and x^(-1/2) = t, so by
    Legendre's continued fraction for Gamma(a, x) (DLMF 8.9.2)
    F(t) = t * exp(-x) * CF / 2 with

        CF = 1/(x + (3/2)/(1 + 1/(x + (5/2)/(1 + 2/(x + ...))))),

    evaluated by modified Lentz. All its elements are positive, so
    consecutive convergents bracket CF: stopping at the first step that
    changes it by at most tol relative leaves it within tol of CF.
    Raises ToleranceNotReached if no step does within _FLAT_TERMS. The
    rounding of x adds about x * 2e-16 relative, 1e-13 at t = 0.05.
    """
    x = 1.0 / (t * t)
    # c and d are the ratios A_j / A_(j-1) and B_(j-1) / B_j of the
    # convergents A_j / B_j, positive like the elements; A_0 = 0
    c, d = math.inf, 1.0 / x
    cf = d
    for j in range(2, _FLAT_TERMS + 1):
        k = j // 2
        a, b = (k + 0.5, 1.0) if j % 2 == 0 else (k, x)
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = c * d
        cf *= step
        if abs(step - 1.0) <= tol:
            return 0.5 * t * cf * math.exp(-x)
    raise ToleranceNotReached(
        "F(%r): no step within %r relative after %d terms" % (t, tol, _FLAT_TERMS)
    )


def flat_counterexample(ts, tol=1e-14):
    """The columns (t, F, slope) at the sorted sample points: F(t) =
    integral of exp(-1/s^2) over [0, t], which is Gamma(-1/2, 1/t^2) / 2,
    to relative tolerance tol, and its local log-log slopes; the slopes
    blow up as t decreases, defeating any power-law envelope. Where F
    underflows to 0 it has no logarithm, and where it is subnormal it
    has lost significant bits: the smallest t where F falls below the
    smallest normal float raises DegenerateSample, as do coincident
    sample points."""
    ts = _sample_points(ts)
    fs = np.array([_flat_map(float(t), tol) for t in ts])
    low = np.flatnonzero(fs < np.finfo(float).tiny)
    if low.size:
        t, f = float(ts[low[0]]), float(fs[low[0]])
        raise DegenerateSample(
            "F(%r) underflows to %r, below the smallest normal float, so its "
            "logarithm is lost or inexact" % (t, f)
        )
    return _slope_table(ts, fs)


_CONTROL_GRID = 100  # points per axis of analytic_control's grid of pairs


def analytic_control(ts, n_bins=8, slack=0.1):
    """Same pipeline on the analytic map F(t) = t^3, evaluated exactly:
    the columns (t, F, slope) as flat_counterexample gives them, the
    slopes all 3, and an envelope fit over a brute-force grid of
    parameter pairs."""
    ts = _sample_points(ts)
    table = _slope_table(ts, ts**3)
    grid = np.linspace(-1.0, 1.0, _CONTROL_GRID)
    p, q = (a.ravel() for a in np.meshgrid(grid, grid))
    keep = p != q
    d_f = np.abs(p[keep] ** 3 - q[keep] ** 3)
    d_r = np.abs(p[keep] - q[keep])
    return table, fit_holder(d_r, d_f, n_bins=n_bins, slack=slack)


def injectivity_probe(delta_R, delta_F, floor):
    """Positions of the records whose recovered-quantity distance
    delta_R[i] clears the floor while the operator distance delta_F[i]
    sits below floor times the data scale; an empty list is a pass for
    the exact-recovery hypothesis.

    The scale is the largest observed delta_F, or 1 if all operator
    distances vanish.
    """
    d_r, d_f = _distances(delta_R, delta_F)
    scale = float(d_f.max(initial=0.0)) or 1.0
    return np.flatnonzero((d_r > floor) & (d_f < floor * scale)).tolist()
