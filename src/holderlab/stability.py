"""Stability sweeps, empirical Holder envelope fitting, and the
flat-vs-analytic counterexample study.

A built forward problem (operators.ForwardProblem) owns its kind's
parameter space, one symmetric matrix per cell: sampling cells and
directions, the cell count, the basis dimension k, the whitener and the
map itself. Sampling and sweeps take the built problem and read all of
these from it; a CompactSetSpec adds only the ellipticity bounds. This
module imports neither problem module and branches on no kind.

A sweep samples parameter pairs from a compact ellipticity class,
evaluates the forward map on both, and forms the operator difference
M_p - M_q once per record: whitened once with the forward problem's
whitener, it gives the operator distance delta_F and the scalarization
value phi. A sweep gives every record it may make one row, fixed by
its job and step, and the job that makes the record writes its
measurements and a kept bit into that row in place; a sweep asked for
its differences also writes the raw difference's upper triangle into
the row of one (rows x k(k+1)/2) block, where add_finite_distances and
the greedy selection read it. Any other sweep keeps no difference beyond
the record that made it. One pass over the kept rows then makes the
records, deriving kind and t from the row's index and flags from its
measurements, and moves the kept triangles up in place, so the result's
differences are one array with one row per record. A record also holds
the recovered-quantity distance delta_R. A sweep solves each ray's base
point once for all the ray's steps.

A sweep job is a random pair or a whole ray, named by its index: the
job samples its own points from (seed, stream, index). With W > 1
workers, the sweep puts its rows in one anonymous shared mapping and
forks worker processes that inherit it and the built problem; worker w
runs jobs w, w + W, w + 2W, ..., so each gets an equal share of the
pairs and of the rays, writes their rows and returns nothing. In-process
the same jobs write ordinary arrays. A row's place depends on its job
alone, so the output does not depend on the worker count. Each worker
sets its OpenBLAS libraries to one thread as it starts, as the command
line does for the whole process; otherwise the workers' BLAS thread
pools would oversubscribe the CPUs.

The envelope fit estimates (theta, C) so that every record lies below
log delta_R <= theta * log delta_F + log C + slack.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BasisMismatch,
    DegenerateSample,
    HolderLabError,
    InsufficientSpread,
    ToleranceNotReached,
)
from .operators import operator_distance, whiten
from .scalarization import finite_distance, phi, probe_weights

# rng stream tags so every sampled object is a pure function of
# (seed, stream, index)
_STREAM_RANDOM_P = 1
_STREAM_RANDOM_Q = 2
_STREAM_RAY_BASE = 3
_STREAM_RAY_DIR = 4


@dataclass(frozen=True)
class CompactSetSpec:
    """Ellipticity class: all cell matrices have eigenvalues in
    [lambda_lo, lambda_hi]; the forward problem gives the cell count."""

    lambda_lo: float
    lambda_hi: float

    def __post_init__(self):
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ValueError("need 0 < lambda_lo <= lambda_hi")


@dataclass(frozen=True)
class RecoveredQuantity:
    """Cell labels (1-based) whose matrices the stability estimate
    recovers; the max Frobenius distance over these cells is
    delta_R."""

    cell_subset: tuple

    def __post_init__(self):
        if len(self.cell_subset) == 0:
            raise ValueError("recovered quantity needs at least one cell")
        if len(set(self.cell_subset)) != len(self.cell_subset):
            raise ValueError("duplicate cell indices")
        if min(self.cell_subset) < 1:
            raise ValueError("cell labels are 1-based")


@dataclass
class StabilityRecord:
    pair_id: int
    kind: str  # "random_random" or "near_diagonal"
    t: float | None
    delta_R: float
    delta_F: float
    phi: float
    delta_finite: float | None = None
    flags: tuple = ()


@dataclass
class SweepResult:
    records: list
    dropped: int
    # (records x k(k+1)/2): row i is the upper_triangle of record i's raw
    # M_p - M_q; None where the sweep was not asked to keep them
    differences: np.ndarray | None


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


@dataclass
class FlatMapSample:
    t: float
    F_t: float
    local_slope: float


def _rng(seed, stream, index):
    return np.random.default_rng([int(seed), int(stream), int(index)])


def sample_point(problem, spec, seed, stream, index):
    """Cell matrices of parameter point `index` of a stream, one per
    cell of the problem's partition; it depends only on (seed, stream,
    index)."""
    rng = _rng(seed, stream, index)
    return problem.sample_cells(rng, spec.lambda_lo, spec.lambda_hi, problem.form.n_cells)


def sample_direction(problem, seed, index=0):
    """Random symmetric per-cell direction with unit global Frobenius
    norm over the whole tuple, counter-seeded: ray `index` of a sweep
    walks along it."""
    rng = _rng(seed, _STREAM_RAY_DIR, index)
    return problem.sample_direction(rng, problem.form.n_cells)


def _cell_frobenius(cells_a, cells_b, subset):
    """Max Frobenius distance between cell matrices over the subset of
    1-based cell labels; inf, without a warning, where it overflows,
    which sweep then refuses."""
    idx = np.array(subset, dtype=int) - 1
    diff = cells_a[idx] - cells_b[idx]
    with np.errstate(over="ignore"):
        return float(np.max(np.sqrt(np.sum(diff**2, axis=(1, 2)))))


def default_ray_steps(n):
    """Log-spaced ray parameters spanning the near-diagonal regime
    while staying above solver noise."""
    return np.geomspace(1e-6, 1e-1, n)


@dataclass(frozen=True)
class _SweepJobs:
    """The jobs of one sweep, all they read and the rows they write. Job
    i < n_pairs is random pair i and writes row i; job n_pairs + r is ray
    r < n_rays, which solves its base point once for all its steps and
    writes row n_pairs + r * len(ray_steps) + s for step s. A job samples
    its own points from (seed, stream, index), so its index is all a
    worker needs. A row holds measurements and a kept bit; the parent
    derives the record's kind, t and flags."""

    problem: object
    spec: CompactSetSpec
    rq: RecoveredQuantity
    n_pairs: int
    n_rays: int
    ray_steps: np.ndarray
    seed: int
    weights: np.ndarray  # probe weights of phi
    values: np.ndarray  # (rows, 3): delta_R, delta_F and phi of each row
    kept: np.ndarray  # int8 kept bit per row: 1 where the row holds a record
    triangles: np.ndarray | None  # (rows, k(k+1)/2): raw differences' upper triangles
    upper: np.ndarray  # flat indices of a k x k matrix's upper triangle

    def run(self, start, step):
        """Write the rows of jobs start, start + step, start + 2*step, ...;
        a dropped record's row keeps its kept bit 0."""
        for i in range(start, self.n_pairs + self.n_rays, step):
            self._job(i)

    def _job(self, i):
        problem, spec, seed = self.problem, self.spec, self.seed
        if i < self.n_pairs:
            row = i
            cells_p = sample_point(problem, spec, seed, _STREAM_RANDOM_P, i)
            qs = [sample_point(problem, spec, seed, _STREAM_RANDOM_Q, i)]
        else:
            r = i - self.n_pairs
            row = self.n_pairs + r * len(self.ray_steps)
            cells_p = sample_point(problem, spec, seed, _STREAM_RAY_BASE, r)
            dp = sample_direction(problem, seed, r)
            qs = [cells_p + t * dp for t in self.ray_steps]
        try:
            m_p = problem.forward(cells_p)
        except HolderLabError:
            return
        for s, cells_q in enumerate(qs):
            self._record(row + s, cells_p, m_p, cells_q)

    def _record(self, row, cells_p, m_p, cells_q):
        try:
            raw = m_p - self.problem.forward(cells_q)
        except HolderLabError:
            return
        d_r = _cell_frobenius(cells_p, cells_q, self.rq.cell_subset)
        d = whiten(self.problem.whitener, raw)
        d_f = operator_distance(d)
        self.values[row] = d_r, d_f, phi(d, self.weights)
        self.kept[row] = 1
        if self.triangles is not None:
            np.take(raw, self.upper, out=self.triangles[row])


def _row_arrays(n_rows, n_entries, shared):
    """The zeroed triangle block (n_rows x n_entries floats), values
    (n_rows x 3 floats) and kept bits (n_rows int8) of a sweep: ordinary
    arrays, or with shared, views of one anonymous shared mapping that
    workers forked after it write and this process reads."""
    specs = (((n_rows, n_entries), np.float64), ((n_rows, 3), np.float64), ((n_rows,), np.int8))
    if not shared:
        return [np.zeros(shape, dtype) for shape, dtype in specs]
    import mmap  # imported here, like the pool's modules: in-process sweeps map nothing

    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    buf = mmap.mmap(-1, max(1, sum(sizes)))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        arrays.append(np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


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


_worker_jobs = None  # the sweep's jobs inside a worker process


def _install_jobs(jobs):
    global _worker_jobs
    _worker_jobs = jobs
    _pin_blas()


def _run_share(start, step):
    _worker_jobs.run(start, step)


def _run_on_workers(jobs, workers):
    """jobs.run(0, 1) on `workers` processes: worker w runs jobs w,
    w + workers, ..., writing their rows in place, and returns nothing."""
    # Imported here: they cost the commands that never sweep ~17 ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, so the workers inherit the built problem, the shared rows and
    # the loaded numpy and scipy instead of importing and building them
    # again; the executor forks every worker before it starts its own
    # thread.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_install_jobs, initargs=(jobs,)
    ) as pool:
        for future in [pool.submit(_run_share, w, workers) for w in range(workers)]:
            future.result()


def sweep(
    problem, spec, rq, n_random_pairs, n_rays, ray_steps, seed, probe_k=None, threads=1,
    differences=False,
):
    """Stability records of a built forward problem for random pairs
    and near-diagonal rays. With differences=True the result also holds
    the raw operator difference M_p - M_q of every record as its
    upper_triangle, one row of k(k+1)/2 floats per record in one
    C-contiguous (records x k(k+1)/2) array, as the greedy selection
    reads them; otherwise no record keeps one and result.differences
    is None. A recovered cell label outside the problem's partition is a
    ValueError, and a probe_k above its basis dimension a BasisMismatch,
    both raised before any solve.

    Rays fix a base point p and a unit direction dp per ray and walk
    q = p + t*dp along the given steps. Each record whitens its
    difference once with the problem's whitener; delta_F and phi both
    read the whitened one.
    `threads` > 1 runs the jobs on up to that many worker processes.
    Records are ordered by pair id regardless of that count; a record
    whose solve fails is dropped and counted, and a failed base solve
    drops all its ray's records. A record whose delta_R, delta_F or phi
    is not finite, such as a delta_R that overflows on cells near the
    largest float, raises DegenerateSample naming the first such record.
    """
    if max(rq.cell_subset) > problem.form.n_cells:
        raise ValueError("recovered cell label outside the partition")
    k = problem.k if probe_k is None else probe_k
    if k > problem.k:
        raise BasisMismatch("truncation order %d exceeds basis dimension %d" % (k, problem.k))
    steps = np.asarray(ray_steps, dtype=float)
    n_jobs = n_random_pairs + n_rays
    n_rows = n_random_pairs + n_rays * len(steps)
    workers = _worker_count(threads, n_jobs)
    rows, cols = np.triu_indices(problem.k)
    triangles, values, kept = _row_arrays(n_rows, len(rows) if differences else 0, workers > 1)
    jobs = _SweepJobs(
        problem, spec, rq, n_random_pairs, n_rays, steps, seed, probe_weights(k),
        values, kept, triangles if differences else None, rows * problem.k + cols,
    )
    if workers > 1:
        _run_on_workers(jobs, workers)
    else:
        jobs.run(0, 1)

    records = []
    for pair_id, row in enumerate(np.flatnonzero(kept).tolist()):
        d_r, d_f, ph = values[row].tolist()
        if not (math.isfinite(d_r) and math.isfinite(d_f) and math.isfinite(ph)):
            raise DegenerateSample(
                "record %d has a value that is not finite (delta_R=%r, delta_F=%r, phi=%r)"
                % (pair_id, d_r, d_f, ph)
            )
        if row < n_random_pairs:
            kind, t = "random_random", None
        else:
            kind, t = "near_diagonal", float(steps[(row - n_random_pairs) % len(steps)])
        flags = ("injectivity_violation",) if d_f == 0.0 and d_r > 0.0 else ()
        records.append(StabilityRecord(pair_id, kind, t, d_r, d_f, ph, flags=flags))
        if differences and pair_id != row:
            triangles[pair_id] = triangles[row]  # kept rows move up, in place
    diffs = triangles[: len(records)] if differences else None
    return SweepResult(records, n_rows - len(records), diffs)


def add_finite_distances(result, fm):
    """Copy of the sweep result with delta_finite filled from the
    records' raw differences (their upper triangles); a result of a
    sweep that kept none is a ValueError."""
    if result.differences is None:
        raise ValueError("the sweep kept no differences: sweep with differences=True")
    return replace(result, records=[
        replace(rec, delta_finite=finite_distance(fm, d))
        for rec, d in zip(result.records, result.differences)
    ])


def fit_holder(records, n_bins=8, slack=0.1):
    """Upper-envelope power-law fit of delta_R against delta_F.

    Records are binned by log delta_F; the per-bin maximum of
    log delta_R anchors a least-squares line whose slope is theta
    (capped at 1, pre-cap value kept); the intercept is then lifted
    minimally so every record sits within `slack` log units of the
    envelope. Records that all have delta_R = 0 give the constant-R
    fit; no records at all raise InsufficientSpread, and a record with
    an infinite or NaN distance raises DegenerateSample.
    """
    if n_bins < 2:
        raise ValueError("need at least two bins")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    records = list(records)
    if not records:
        raise InsufficientSpread("no records to fit")
    for r in records:
        if not (math.isfinite(r.delta_F) and math.isfinite(r.delta_R)):
            raise DegenerateSample(
                "record %d has a distance that is not finite (delta_F=%r, delta_R=%r)"
                % (r.pair_id, r.delta_F, r.delta_R)
            )
    if all(r.delta_R == 0.0 for r in records):
        return HolderFit(
            theta=1.0,
            theta_precap=1.0,
            log_C=float("-inf"),
            n_bins=n_bins,
            slack=slack,
            max_violation=0.0,
            records_used=0,
            constant_R=True,
        )
    usable = [r for r in records if r.delta_F > 0.0 and r.delta_R > 0.0]
    if len(usable) < 2:
        raise InsufficientSpread("need at least two records with positive distances")
    x = np.log(np.array([r.delta_F for r in usable]))
    y = np.log(np.array([r.delta_R for r in usable]))
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
        theta=theta,
        theta_precap=float(theta_precap),
        log_C=log_c,
        n_bins=n_bins,
        slack=slack,
        max_violation=float(excess.max()) - lift,
        records_used=len(usable),
        constant_R=False,
    )


def _slope_samples(ts, fs):
    """Samples (t, F(t)) with centered log-log difference quotients,
    one-sided at the ends, as their local slopes."""
    lt = np.log(ts)
    lf = np.log(fs)
    i = np.arange(len(ts))
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i + 1, len(ts) - 1)
    slopes = (lf[hi] - lf[lo]) / (lt[hi] - lt[lo])
    return [FlatMapSample(float(t), float(f), float(s)) for t, f, s in zip(ts, fs, slopes)]


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
    """F(t) = integral of exp(-1/s^2) over [0, t], which is
    Gamma(-1/2, 1/t^2) / 2, to relative tolerance tol, with local
    log-log slopes; the slopes blow up as t decreases, defeating any
    power-law envelope. Where F underflows to 0 it has no logarithm,
    and where it is subnormal it has lost significant bits: the smallest
    t where F falls below the smallest normal float raises
    DegenerateSample, as do coincident sample points."""
    ts = _sample_points(ts)
    fs = np.array([_flat_map(float(t), tol) for t in ts])
    low = np.flatnonzero(fs < np.finfo(float).tiny)
    if low.size:
        t, f = float(ts[low[0]]), float(fs[low[0]])
        raise DegenerateSample(
            "F(%r) underflows to %r, below the smallest normal float, so its "
            "logarithm is lost or inexact" % (t, f)
        )
    return _slope_samples(ts, fs)


@dataclass
class AnalyticControl:
    samples: list
    fit: HolderFit


_CONTROL_GRID = 100  # points per axis of analytic_control's grid of pairs


def analytic_control(ts, n_bins=8, slack=0.1):
    """Same pipeline on the analytic map F(t) = t^3, evaluated exactly:
    local slopes (all 3), and an envelope fit over a brute-force grid of
    parameter pairs."""
    ts = _sample_points(ts)
    samples = _slope_samples(ts, ts**3)
    grid = np.linspace(-1.0, 1.0, _CONTROL_GRID)
    p, q = (a.ravel() for a in np.meshgrid(grid, grid))
    keep = p != q
    d_f = np.abs(p[keep] ** 3 - q[keep] ** 3)
    d_r = np.abs(p[keep] - q[keep])
    records = [
        StabilityRecord(i, "grid_pair", None, float(r), float(f), 0.0)
        for i, (r, f) in enumerate(zip(d_r, d_f))
    ]
    return AnalyticControl(samples, fit_holder(records, n_bins=n_bins, slack=slack))


def injectivity_probe(records, floor):
    """Records whose recovered-quantity distance clears the floor while
    the operator distance sits below floor times the data scale; an
    empty list is a pass for the exact-recovery hypothesis.

    The scale is the largest observed delta_F, or 1 if all operator
    distances vanish.
    """
    records = list(records)
    scale = max((r.delta_F for r in records), default=0.0)
    if scale == 0.0:
        scale = 1.0
    return [
        r for r in records if r.delta_R > floor and r.delta_F < floor * scale
    ]
