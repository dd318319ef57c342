import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from holderlab import conductivity as cd
from holderlab import mesh as mx
from holderlab import stability as sl
from holderlab.cli import PROBLEMS
from holderlab.errors import (
    BasisMismatch,
    DegenerateSample,
    InsufficientSpread,
    NotPositiveDefinite,
    ToleranceNotReached,
)
from holderlab.numerics import spectral_norm, symmetrize
from holderlab.operators import gram_inv_sqrt, operator_distance, whiten
from holderlab.scalarization import greedy_select, triangle_dim, upper_triangle

from helpers import eig_min, symmetric_from_upper


def bottom_mesh(n_sub, cols=1, rows=1):
    return mx.build_mesh(
        n_sub, mx.PartitionSpec(cols, rows), mx.PatchSpec("bottom", 0.0, 1.0)
    )


SPEC = sl.CompactSetSpec(0.5, 2.0)

# F(t) = Gamma(-1/2, 1/t^2) / 2 at these binary t, from a 60-digit
# evaluation and rounded to the nearest float. The tests run without an
# arbitrary-precision library, so these literals are the reference.
FLAT_EXACT = {
    0.05: 1.1925201306957522e-178,
    0.1: 1.8328115612557248e-47,
    0.2: 5.251223974643087e-14,
    0.5: 8.667500636944228e-4,
    1.0: 0.08907385589078035,
}


def built(kind, n_sub=4, cols=1, rows=1):
    """The forward problem of a kind on a bottom-patch mesh."""
    return PROBLEMS[kind](bottom_mesh(n_sub, cols, rows))


def points(problem, spec, count, seed, stream=0):
    """The first `count` parameter points of a stream."""
    return [sl.sample_point(problem, spec, seed, stream, i) for i in range(count)]


def synthetic_records(delta_f, delta_r):
    return [
        sl.StabilityRecord(i, "random_random", None, float(r), float(f), 0.0)
        for i, (f, r) in enumerate(zip(delta_f, delta_r))
    ]


def test_compact_set_validation():
    with pytest.raises(ValueError):
        sl.CompactSetSpec(2.0, 0.5)
    with pytest.raises(ValueError):
        sl.CompactSetSpec(0.0, 2.0)


def test_recovered_quantity_validation():
    with pytest.raises(ValueError):
        sl.RecoveredQuantity(())
    with pytest.raises(ValueError):
        sl.RecoveredQuantity((0,))
    with pytest.raises(ValueError):
        sl.RecoveredQuantity((1, 1))


def test_sampling_deterministic():
    problem = built("conductivity", n_sub=3, cols=3)
    a = points(problem, SPEC, 4, seed=9)
    b = points(problem, SPEC, 4, seed=9)
    for p, q in zip(a, b):
        assert np.array_equal(p, q)
    # sample i depends only on (seed, i), not on count
    c = points(problem, SPEC, 2, seed=9)
    assert np.array_equal(a[0], c[0])
    assert np.array_equal(a[1], c[1])


def test_sampling_eigenvalue_bounds():
    """Each kind's sampled cells are symmetric matrices with eigenvalues
    in the class's interval, and its map has the degree its class
    states: F(2 p) = 2^degree F(p)."""
    for kind in PROBLEMS:
        problem = built(kind, cols=2)
        for cells in points(problem, SPEC, 10, seed=3):
            assert np.array_equal(cells, cells.transpose(0, 2, 1))
            for m in cells:
                w = np.linalg.eigvalsh(m)
                assert w[0] >= 0.5 - 1e-12
                assert w[-1] <= 2.0 + 1e-12
            want = 2.0**problem.degree * problem.forward(cells)
            got = problem.forward(2 * cells)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sampling_degenerate_interval():
    spec = sl.CompactSetSpec(1.0, 1.0)
    for cells in points(built("conductivity", cols=2), spec, 3, seed=1):
        for m in cells:
            assert np.allclose(m, np.eye(2), atol=1e-12)
    for cells in points(built("elasticity"), spec, 3, seed=1):
        assert np.allclose(cells[0], np.eye(3), atol=1e-12)


def per_cell_elasticity(rng, spec, n_cells):
    """Elasticity cells drawn and rotated one cell at a time."""
    cells = np.empty((n_cells, 3, 3))
    for j in range(n_cells):
        e = rng.uniform(spec.lambda_lo, spec.lambda_hi, 3)
        g = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        cells[j] = symmetrize(q @ np.diag(e) @ q.T)
    return cells


@pytest.mark.parametrize("n_cells", [1, 2, 4])
def test_elasticity_sampling_matches_per_cell_loop(n_cells):
    """The stacked rotations give the per-cell loop's cells bit for bit."""
    problem = built("elasticity", cols=n_cells)
    for seed in range(100):
        for stream in (1, 3):
            want = per_cell_elasticity(sl._rng(seed, stream, 7), SPEC, n_cells)
            assert np.array_equal(sl.sample_point(problem, SPEC, seed, stream, 7), want)


def small_sweep(threads=1, seed=42, differences=False):
    rq = sl.RecoveredQuantity((1, 2))
    return sl.sweep(
        built("conductivity", n_sub=8, cols=2),
        SPEC,
        rq,
        n_random_pairs=10,
        n_rays=3,
        ray_steps=sl.default_ray_steps(4),
        seed=seed,
        threads=threads,
        differences=differences,
    )


def test_sweep_bookkeeping():
    res = small_sweep()
    assert len(res.records) + res.dropped == 10 + 3 * 4
    kinds = [r.kind for r in res.records]
    assert kinds.count("random_random") <= 10
    rays = [r for r in res.records if r.kind == "near_diagonal"]
    assert all(r.t is not None and r.t > 0 for r in rays)
    ids = [r.pair_id for r in res.records]
    assert ids == sorted(ids)


def test_sweep_contract_no_silent_injectivity_failure(tmp_path, monkeypatch):
    """A record with delta_F = 0 and delta_R > 0 carries
    injectivity_violation, in the result and in records.csv. small_sweep
    has no such record, so a forward that maps every point to one
    matrix makes every record one, in-process and on two workers."""
    from holderlab import cli

    res = small_sweep()
    for r in res.records:
        if r.delta_F == 0.0 and r.delta_R > 0.0:
            assert "injectivity_violation" in r.flags
    problem = built("conductivity", n_sub=8, cols=2)
    fixed = cd.nd_matrix(problem, sl.sample_point(problem, SPEC, 42, sl._STREAM_RANDOM_P, 0))
    monkeypatch.setattr(cd, "nd_matrix", lambda problem, cells: fixed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = {
        "problem": "conductivity",
        "seed": 42,
        "mesh": {"n_sub": 8, "grid_cols": 2},
        "sweep": {"n_random_pairs": 10, "n_rays": 3, "n_ray_steps": 4},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for threads in (1, 2):
        res = small_sweep(threads=threads)
        assert len(res.records) == 10 + 3 * 4
        for r in res.records:
            assert r.delta_F == 0.0 and r.delta_R > 0.0
            assert r.flags == ("injectivity_violation",)
        assert cli.main(["sweep", str(path), "--threads", str(threads)]) == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        assert len(rows) == 10 + 3 * 4
        assert {row["flags"] for row in rows} == {"injectivity_violation"}


def test_sweep_thread_count_invariance():
    a = small_sweep(threads=1)
    b = small_sweep(threads=3)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.delta_R == rb.delta_R
        assert ra.delta_F == rb.delta_F
        assert ra.phi == rb.phi


@pytest.mark.parametrize("kind", tuple(PROBLEMS))
def test_sweep_drops_ray_steps_outside_the_cone(kind):
    """Long rays from a wide class leave the SPD cone; those steps are
    dropped and counted, and the sweep still finishes the same on any
    thread count."""
    spec = sl.CompactSetSpec(0.1, 2.0)
    rq = sl.RecoveredQuantity((1, 2))
    steps = np.geomspace(1e-6, 0.9, 20)
    problem = built(kind, n_sub=8, cols=2)
    runs = [sl.sweep(problem, spec, rq, 200, 20, steps, 1729, threads=t) for t in (1, 3)]
    for res in runs:
        assert res.dropped > 0
        assert len(res.records) + res.dropped == 200 + 20 * 20
    assert runs[0].records == runs[1].records


def shared_counter():
    """A call counter that worker processes forked after its creation
    update in shared memory, and a wrapper counting calls of a function."""
    count = multiprocessing.get_context("fork").Value("i", 0)

    def counting(fn):
        def counted(*args, **kwargs):
            with count.get_lock():
                count.value += 1
            return fn(*args, **kwargs)

        return counted

    return count, counting


def child_pids():
    """Live or unreaped child processes of this process."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % task) as f:
                pids.update(f.read().split())
        except FileNotFoundError:
            pass  # a thread, such as a pool's manager, ended after listdir
    return pids


def test_sweep_solves_each_ray_base_once(monkeypatch):
    """P random pairs and R rays of S steps take 2P + R(S+1) forward
    solves: each ray solves its base point once for all its steps, in
    process or on worker processes."""
    count, counting = shared_counter()
    monkeypatch.setattr(cd, "nd_matrix", counting(cd.nd_matrix))
    for threads in (1, 3):
        count.value = 0
        res = small_sweep(threads=threads)
        assert len(res.records) == 10 + 3 * 4
        assert count.value == 2 * 10 + 3 * (4 + 1)


def recorded_forwards(monkeypatch):
    """The cell arrays of every conductivity forward from now on, in
    this process."""
    seen = []
    real = cd.nd_matrix

    def recorded(problem, cells):
        seen.append(np.asarray(cells))
        return real(problem, cells)

    monkeypatch.setattr(cd, "nd_matrix", recorded)
    return seen


def test_sweep_rejects_recovered_cell_outside_partition(monkeypatch):
    """A recovered cell label the problem's partition lacks is an error
    before any forward runs."""
    seen = recorded_forwards(monkeypatch)
    rq = sl.RecoveredQuantity((1, 3))
    with pytest.raises(ValueError, match="outside the partition"):
        sl.sweep(built("conductivity", cols=2), SPEC, rq, 5, 1, [1e-3], 42)
    assert seen == []


def test_sweep_rejects_probe_k_above_basis_dimension(monkeypatch):
    """A probe_k above the basis dimension is a BasisMismatch before
    any forward runs, not after the first record's solves."""
    seen = recorded_forwards(monkeypatch)
    problem = built("conductivity", n_sub=8)
    rq = sl.RecoveredQuantity((1,))
    with pytest.raises(BasisMismatch, match="exceeds basis dimension 8"):
        sl.sweep(problem, SPEC, rq, 5, 1, [1e-3], 42, probe_k=problem.k + 1)
    assert seen == []
    assert len(sl.sweep(problem, SPEC, rq, 1, 0, [], 42, probe_k=problem.k).records) == 1


def test_sweep_samples_points_of_the_problem_shape(monkeypatch):
    """On 2x2 cells every sampled point has one 2x2 matrix per cell of
    the problem's partition, and no record is dropped."""
    seen = recorded_forwards(monkeypatch)
    problem = built("conductivity", cols=2, rows=2)
    rq = sl.RecoveredQuantity((1, 2, 3, 4))
    res = sl.sweep(problem, SPEC, rq, 6, 1, sl.default_ray_steps(5), 42)
    assert res.dropped == 0
    assert len(res.records) == 6 + 5
    assert len(seen) == 2 * 6 + 1 + 5
    assert {cells.shape for cells in seen} == {(4, 2, 2)}


def test_worker_count_is_capped(monkeypatch):
    """A sweep runs on no more processes than it asks for, than the CPUs
    it may use, or than it has jobs; one means in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert sl._worker_count(3, 100) == 3
    assert sl._worker_count(3, 2) == 2
    assert sl._worker_count(1, 100) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert sl._worker_count(3, 100) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert sl._worker_count(3, 100) == 1


def test_single_job_sweep_stays_in_process(monkeypatch):
    """One job at --threads 3 forks no worker: its solves run here."""
    pids = []
    real = cd.nd_matrix

    def recorded(problem, cells):
        pids.append(os.getpid())
        return real(problem, cells)

    monkeypatch.setattr(cd, "nd_matrix", recorded)
    res = sl.sweep(built("conductivity"), SPEC, sl.RecoveredQuantity((1,)), 1, 0, [], 3, threads=3)
    assert len(res.records) == 1
    assert pids == [os.getpid()] * 2


def test_strided_workers_merge_in_job_order(monkeypatch):
    """Worker w of W runs jobs w, w + W, ... and writes their rows; the
    records and differences of small_sweep's 13 jobs are the same at 1
    to 4 workers, even splits or not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    ref = small_sweep(differences=True)
    for threads in (2, 3, 4):
        assert sl._worker_count(threads, 13) == threads
        res = small_sweep(threads=threads, differences=True)
        assert res.records == ref.records
        assert res.dropped == ref.dropped
        assert len(res.differences) == len(ref.differences)
        assert all(np.array_equal(a, b) for a, b in zip(res.differences, ref.differences))


def test_shared_rows_drop_and_compact_alike_at_any_worker_count(monkeypatch):
    """With pair 3's q solve and ray 1's base solve failing, the records,
    the dropped count and the differences are the same at 1 to 4
    workers, and each kept row, moved up over the dropped ones, holds
    the upper triangle of its own record's M_p - M_q."""
    problem = built("conductivity", n_sub=8, cols=2)
    q3 = sl.sample_point(problem, SPEC, 42, sl._STREAM_RANDOM_Q, 3)
    base1 = sl.sample_point(problem, SPEC, 42, sl._STREAM_RAY_BASE, 1)
    real = cd.nd_matrix

    def failing(problem, cells):
        if np.array_equal(cells, q3) or np.array_equal(cells, base1):
            raise NotPositiveDefinite("injected")
        return real(problem, cells)

    steps = sl.default_ray_steps(4)
    pairs = [
        (sl.sample_point(problem, SPEC, 42, sl._STREAM_RANDOM_P, i),
         sl.sample_point(problem, SPEC, 42, sl._STREAM_RANDOM_Q, i))
        for i in range(10) if i != 3
    ]
    for r in (0, 2):
        base = sl.sample_point(problem, SPEC, 42, sl._STREAM_RAY_BASE, r)
        dp = sl.sample_direction(problem, 42, r)
        pairs += [(base, base + t * dp) for t in steps]
    want = [upper_triangle(problem.forward(p) - problem.forward(q)) for p, q in pairs]

    monkeypatch.setattr(cd, "nd_matrix", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    ref = small_sweep(differences=True)
    assert ref.dropped == 1 + 4
    assert [r.pair_id for r in ref.records] == list(range(len(pairs)))
    assert [r.t for r in ref.records] == [None] * 9 + [float(t) for t in steps] * 2
    assert len(ref.differences) == len(want)
    for row, triangle in zip(ref.differences, want):
        assert np.array_equal(row, triangle)
    for threads in (2, 3, 4):
        res = small_sweep(threads=threads, differences=True)
        assert res.records == ref.records
        assert res.dropped == ref.dropped
        assert np.array_equal(res.differences, ref.differences)


@pytest.mark.parametrize("zero", [False, True], ids=["all_positive", "one_zero"])
@pytest.mark.parametrize("threads", [1, 2])
def test_select_reads_the_sweep_block_in_place(tmp_path, monkeypatch, threads, zero):
    """The sweep's differences are one C-contiguous (records x entries)
    array, and where every record has delta_F > 0, select hands that
    same buffer to greedy_select, in-process and from the workers'
    shared rows alike. A record with delta_F = 0 is left out: the greedy
    gets the other rows and distances, in record order."""
    from holderlab import cli

    seen = {}
    real_sweep, real_greedy = sl.sweep, cli.greedy_select

    def sweep(*args, **kwargs):
        seen["result"] = real_sweep(*args, **kwargs)
        if zero:
            seen["result"].records[1].delta_F = 0.0
        return seen["result"]

    def greedy(diffs, dists, *args):
        seen["diffs"], seen["dists"] = diffs, dists
        return real_greedy(diffs, dists, *args)

    monkeypatch.setattr(sl, "sweep", sweep)
    monkeypatch.setattr(cli, "greedy_select", greedy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = {
        "problem": "conductivity",
        "seed": 42,
        "mesh": {"n_sub": 8, "grid_cols": 2},
        "sweep": {"n_random_pairs": 10, "n_rays": 3, "n_ray_steps": 4},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["select", str(path), "--threads", str(threads)]) == 0
    res = seen["result"]
    assert isinstance(res.differences, np.ndarray)
    assert res.differences.ndim == 2 and res.differences.flags.c_contiguous
    assert res.differences.shape[0] == len(res.records) == 10 + 3 * 4
    triangle_dim(res.differences.shape[1])
    if not zero:
        assert all(r.delta_F > 0.0 for r in res.records)
        assert np.shares_memory(seen["diffs"], res.differences)
    else:
        keep = [i for i in range(len(res.records)) if i != 1]
        assert np.array_equal(seen["diffs"], res.differences[keep])
        assert list(seen["dists"]) == [res.records[i].delta_F for i in keep]


def test_sweep_pool_returns_nothing(monkeypatch):
    """The workers write their records into the shared rows: every
    future of the sweep's pool returns None, and the records are those
    of the in-process sweep."""
    import concurrent.futures

    futures = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    res = small_sweep(threads=3, differences=True)
    assert len(futures) == 3
    assert [f.result() for f in futures] == [None] * 3
    ref = small_sweep(differences=True)
    assert res.records == ref.records
    assert np.array_equal(res.differences, ref.differences)


BLAS_WORKERS = r"""
import ctypes, json, os, sys

import numpy as np

from holderlab import conductivity as cd
from holderlab import mesh as mx
from holderlab import stability as sl


def blas_threads():
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    threads = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                get_num_threads = getattr(lib, name)
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                threads.append(get_num_threads())
                break
    return threads


real = sl.whiten


def whiten(whitener, raw):
    with open(sys.argv[1], "a") as log:
        log.write(json.dumps([os.getpid(), blas_threads()]) + "\n")
    return real(whitener, raw)


sl.whiten = whiten
os.sched_getaffinity = lambda pid: {0, 1}
mesh = mx.build_mesh(8, mx.PartitionSpec(2, 1), mx.PatchSpec("bottom", 0.0, 1.0))
before = blas_threads()
sl.sweep(cd.NDProblem(mesh), sl.CompactSetSpec(0.5, 2.0), sl.RecoveredQuantity((1,)), 4, 2,
         sl.default_ray_steps(2), 42, threads=2)
print(json.dumps({"pid": os.getpid(), "before": before, "after": blas_threads()}))
"""


def test_sweep_workers_run_one_blas_thread(tmp_path):
    """In a fresh process without the BLAS thread variables, each sweep
    worker reads back one thread from every OpenBLAS library it has
    loaded, whatever the process loaded them with; the process itself
    keeps its own setting."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    log = tmp_path / "workers.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_WORKERS, str(log)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    parent = json.loads(proc.stdout)
    if not parent["before"]:
        pytest.skip("numpy loaded no OpenBLAS library")
    assert parent["after"] == parent["before"]
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(calls) == 4 + 2 * 2
    assert len({pid for pid, _ in calls}) == 2 and parent["pid"] not in {pid for pid, _ in calls}
    assert all(threads == [1] * len(parent["before"]) for _, threads in calls)


def inject_failure(monkeypatch, seed):
    """Make the forward of the last ray's base point of small_sweep
    raise an error that is not a HolderLabError."""
    problem = built("conductivity", cols=2)
    base = sl.sample_point(problem, SPEC, seed, sl._STREAM_RAY_BASE, 2)
    real = cd.nd_matrix

    def failing(problem, cells):
        if np.array_equal(cells, base):
            raise FloatingPointError("injected")
        return real(problem, cells)

    monkeypatch.setattr(cd, "nd_matrix", failing)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_job_error_reaches_caller(monkeypatch, threads):
    """An error that is not a HolderLabError is no dropped record: it
    reaches the caller with its type, from a worker process too."""
    inject_failure(monkeypatch, 42)
    with pytest.raises(FloatingPointError, match="injected"):
        small_sweep(threads=threads)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists children from /proc")
@pytest.mark.parametrize("command", ["sweep", "select"])
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
def test_no_worker_outlives_the_command(tmp_path, monkeypatch, command, fail):
    """Every worker process has exited and been reaped when sweep or
    select returns, whether it succeeds or raises."""
    from holderlab.cli import main

    config = {
        "problem": "conductivity",
        "seed": 42,
        "mesh": {"n_sub": 8, "grid_cols": 2},
        "sweep": {"n_random_pairs": 10, "n_rays": 3, "n_ray_steps": 4},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if fail:
        inject_failure(monkeypatch, 42)
    before = child_pids()
    if fail:
        with pytest.raises(FloatingPointError):
            main([command, str(path), "--threads", "2"])
    else:
        assert main([command, str(path), "--threads", "2"]) == 0
    assert child_pids() == before


def test_sweep_runs_no_backsolve(backsolves):
    """Every forward of a sweep solves only over the trailing rows of
    the patch-last system: no full back-substitution (back_solve) runs."""
    res = small_sweep(threads=1)
    assert len(res.records) == 10 + 3 * 4
    problem = built("elasticity", cols=2)
    res = sl.sweep(problem, SPEC, sl.RecoveredQuantity((1,)), 3, 1, [1e-3, 1e-2], 42)
    assert len(res.records) == 3 + 2
    assert backsolves == []


def test_sweep_failed_ray_base_drops_every_step(monkeypatch):
    """A failed base solve drops each record of its ray, counted one
    by one; the other rays and the pairs are unaffected."""
    base = sl.sample_point(built("conductivity", cols=2), SPEC, 42, sl._STREAM_RAY_BASE, 1)
    real = cd.nd_matrix

    def failing(problem, cells):
        if np.array_equal(cells, base):
            raise NotPositiveDefinite("injected")
        return real(problem, cells)

    monkeypatch.setattr(cd, "nd_matrix", failing)
    res = small_sweep()
    assert res.dropped == 4
    assert len(res.records) == 10 + 2 * 4
    assert [r.pair_id for r in res.records] == list(range(18))


def test_one_cell_ray_matches_scaling_oracle():
    """Along the identity ray the map scales exactly as 1/a, so both
    distances have closed forms and the log ratio tends to 1."""
    m = bottom_mesh(8)
    problem = cd.NDProblem(m)
    base = problem.forward(np.eye(2)[None])
    w = gram_inv_sqrt(problem.gram)
    norm_base = spectral_norm(w @ base @ w)
    ratios = []
    for t in (1e-1, 1e-3, 1e-5):
        s = t / math.sqrt(2.0)  # unit-Frobenius identity direction
        stepped = problem.forward((1.0 + s) * np.eye(2)[None])
        d_f = operator_distance(whiten(problem.whitener, base - stepped))
        expected = s / (1.0 + s) * norm_base
        # relative agreement down to the absolute solver-noise floor
        assert abs(d_f - expected) <= 1e-12 * expected + 1e-14
        ratios.append(math.log(t) / math.log(d_f))
    assert abs(ratios[-1] - 1.0) < 0.1
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_fit_exact_power_law():
    rng = np.random.default_rng(0)
    d_f = 10.0 ** rng.uniform(-6.0, -1.0, 400)
    fit = sl.fit_holder(synthetic_records(d_f, d_f**0.5), n_bins=8, slack=0.1)
    assert abs(fit.theta - 0.5) <= 1e-6
    assert abs(math.exp(fit.log_C) - 1.0) <= 1e-6
    assert fit.max_violation <= fit.slack


def test_fit_caps_theta_at_one():
    rng = np.random.default_rng(1)
    d_f = 10.0 ** rng.uniform(-6.0, -1.0, 300)
    fit = sl.fit_holder(synthetic_records(d_f, d_f**1.5), n_bins=8, slack=0.1)
    assert fit.theta == 1.0
    assert fit.theta_precap > 1.2


def test_fit_envelope_invariant():
    res = small_sweep()
    fit = sl.fit_holder(res.records, n_bins=8, slack=0.1)
    for r in res.records:
        if r.delta_F > 0 and r.delta_R > 0:
            assert math.log(r.delta_R) <= (
                fit.theta * math.log(r.delta_F) + fit.log_C + fit.slack + 1e-12
            )
    assert fit.max_violation <= fit.slack + 1e-15


def test_fit_scale_awareness():
    rng = np.random.default_rng(2)
    d_f = 10.0 ** rng.uniform(-5.0, -1.0, 200)
    d_r = d_f**0.4 * np.exp(rng.uniform(-0.5, 0.0, 200))
    base = sl.fit_holder(synthetic_records(d_f, d_r), n_bins=8, slack=0.1)
    s = 7.3
    scaled = sl.fit_holder(synthetic_records(s * d_f, d_r), n_bins=8, slack=0.1)
    assert abs(scaled.theta - base.theta) <= 1e-10
    assert abs(scaled.log_C - (base.log_C - base.theta * math.log(s))) <= 1e-10


def test_fit_insufficient_spread():
    d_f = np.full(50, 1e-3)
    with pytest.raises(InsufficientSpread):
        sl.fit_holder(synthetic_records(d_f, d_f**0.5))


def test_fit_no_records_raises():
    """No records is not a constant recovered quantity: only a nonempty
    set whose delta_R all vanish gets the constant-R fit."""
    with pytest.raises(InsufficientSpread):
        sl.fit_holder([])


@pytest.mark.parametrize("column", ["delta_F", "delta_R"])
def test_fit_infinite_distance_raises_naming_the_record(column):
    """An infinite distance has no logarithm to fit: a named error
    naming the record, not a failed least squares."""
    d_f = 10.0 ** np.linspace(-6.0, -1.0, 30)
    records = synthetic_records(d_f, d_f**0.5)
    records[17] = replace(records[17], **{column: math.inf})
    with pytest.raises(DegenerateSample, match="record 17 "):
        sl.fit_holder(records)


@pytest.mark.parametrize("column", ["delta_F", "delta_R"])
def test_fit_nan_distance_raises_naming_the_record(column):
    """A NaN distance is not dropped in silence, which would leave the
    fit and records_used as if the record did not exist."""
    d_f = 10.0 ** np.linspace(-6.0, -1.0, 30)
    records = synthetic_records(d_f, d_f**0.5)
    records[17] = replace(records[17], **{column: math.nan})
    with pytest.raises(DegenerateSample, match="record 17 "):
        sl.fit_holder(records)


def per_bin_loop_fit(records, n_bins, slack):
    """fit_holder's fit with its anchors picked by a loop over the bins:
    np.argmax gives each bin's first record of largest log delta_R."""
    usable = [r for r in records if r.delta_F > 0.0 and r.delta_R > 0.0]
    x = np.log(np.array([r.delta_F for r in usable]))
    y = np.log(np.array([r.delta_R for r in usable]))
    idx = np.clip(((x - x.min()) / (x.max() - x.min()) * n_bins).astype(int), 0, n_bins - 1)
    ax, ay = [], []
    for b in range(n_bins):
        mask = idx == b
        if mask.any():
            top = np.argmax(y[mask])
            ax.append(x[mask][top])
            ay.append(y[mask][top])
    ax, ay = np.array(ax), np.array(ay)
    design = np.column_stack([ax, np.ones_like(ax)])
    (theta_precap, intercept), *_ = np.linalg.lstsq(design, ay, rcond=None)
    theta = min(float(theta_precap), 1.0)
    if theta != theta_precap:
        intercept = float(np.mean(ay - theta * ax))
    excess = y - (theta * x + intercept)
    lift = max(0.0, float(excess.max()) - slack)
    return sl.HolderFit(
        theta, float(theta_precap), float(intercept) + lift, n_bins, slack,
        float(excess.max()) - lift, len(usable),
    )


@pytest.mark.parametrize("n_bins", [2, 8, 64, 1000])
@pytest.mark.parametrize("power", [0.5, 1.5], ids=["below_cap", "capped"])
def test_fit_anchors_match_a_per_bin_loop_on_ties(n_bins, power):
    """Records in shuffled order whose delta_R takes a few values, so
    that the largest delta_R ties inside a bin and across bins: the fit
    picks each bin's first record of largest delta_R, as a loop over
    the bins does, field by field."""
    rng = np.random.default_rng(n_bins)
    d_f = 10.0 ** rng.uniform(-6.0, -1.0, 300)
    d_r = 10.0 ** np.round(np.log10(d_f**power))  # a few values, tied
    records = synthetic_records(d_f, d_r)
    records += synthetic_records(d_f[:100], d_r[:100])  # exact duplicates
    assert sl.fit_holder(records, n_bins=n_bins) == per_bin_loop_fit(records, n_bins, 0.1)


def test_fit_with_a_billion_bins_returns():
    """The fit's cost does not grow with the bin count: a loop over
    10^9 bins would take most of an hour on 600 records."""
    rng = np.random.default_rng(3)
    d_f = 10.0 ** rng.uniform(-6.0, -1.0, 600)
    fit = sl.fit_holder(synthetic_records(d_f, d_f**0.5), n_bins=10**9)
    assert fit.n_bins == 10**9 and fit.records_used == 600
    assert abs(fit.theta - 0.5) <= 1e-6


def test_fit_constant_r_flagged():
    d_f = 10.0 ** np.linspace(-6.0, -1.0, 30)
    fit = sl.fit_holder(synthetic_records(d_f, np.zeros(30)))
    assert fit.constant_R
    assert fit.theta == 1.0
    assert fit.log_C == float("-inf")


def test_flat_counterexample_properties():
    ts = np.array([0.05, 0.07, 0.1, 0.14, 0.2, 0.28, 0.4])
    samples = sl.flat_counterexample(ts)
    fs = [s.F_t for s in samples]
    assert all(a < b for a, b in zip(fs, fs[1:]))
    for s in samples:
        assert 0.0 < s.F_t <= s.t * math.exp(-1.0 / s.t**2)
    slopes = [s.local_slope for s in samples]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    at_tenth = samples[2]
    assert abs(at_tenth.t - 0.1) < 1e-12
    assert at_tenth.local_slope >= 100.0


def test_flat_counterexample_names_the_first_t_where_f_underflows():
    """F underflows to 0 below t of about 0.0369 and is subnormal, with
    few significant bits, below about 0.0379; the smallest such t is
    named before any logarithm is taken."""
    with pytest.raises(DegenerateSample, match=r"F\(0\.02\) underflows to 0"):
        sl.flat_counterexample([0.5, 0.03, 0.02, 0.1])
    with pytest.raises(DegenerateSample, match=r"F\(0\.037\) underflows to 1\.5e-322"):
        sl.flat_counterexample([0.5, 0.0376, 0.037, 0.1])


def test_flat_map_matches_60_digit_values():
    samples = sl.flat_counterexample(list(FLAT_EXACT))
    for s in samples:
        exact = FLAT_EXACT[s.t]
        assert abs(s.F_t - exact) <= 1e-12 * exact, (s.t, s.F_t, exact)


def test_flat_map_looser_tol_stays_within_it():
    """The fraction's convergents bracket its value, so the step it
    stops on bounds its error, at t = 1 too, where it converges
    slowest."""
    for s in sl.flat_counterexample(list(FLAT_EXACT), tol=1e-6):
        exact = FLAT_EXACT[s.t]
        assert abs(s.F_t - exact) <= 1e-6 * exact, (s.t, s.F_t, exact)


def test_flat_map_term_cap_raises(monkeypatch):
    monkeypatch.setattr(sl, "_FLAT_TERMS", 2)
    with pytest.raises(ToleranceNotReached, match=r"F\(0\.5\)"):
        sl.flat_counterexample([0.5])


def test_analytic_control_properties():
    ts = np.array([0.05, 0.1, 0.2, 0.5, 1.0])
    ctl = sl.analytic_control(ts)
    for s in ctl.samples:
        assert abs(s.local_slope - 3.0) <= 1e-10
    assert abs(ctl.samples[-1].F_t - 1.0) <= 1e-13
    assert 0.30 <= ctl.fit.theta <= 0.37


@pytest.mark.parametrize("study", [sl.flat_counterexample, sl.analytic_control])
def test_coincident_sample_points_raise_naming_the_first(study):
    """Sample points that coincide, or differ but share a logarithm,
    leave a log-log slope dividing by 0: a DegenerateSample naming the
    first such point once sorted, not nan slopes."""
    with pytest.raises(DegenerateSample, match=r"sample point 0\.2 repeats"):
        study([0.5, 0.2, 0.1, 0.2, 0.5])
    t = float(np.nextafter(0.05, 1.0))
    assert t != 0.05 and math.log(t) == math.log(0.05)
    with pytest.raises(DegenerateSample, match="sample point %s repeats" % re.escape(repr(t))):
        study([0.5, t, 0.05])


def test_flat_dominates_analytic_slopes():
    ts = np.geomspace(0.05, 0.5, 11)
    flat = max(s.local_slope for s in sl.flat_counterexample(ts))
    cubic = max(s.local_slope for s in sl.analytic_control(ts).samples)
    assert flat >= 30.0 * cubic


def test_injectivity_probe():
    good = synthetic_records([1e-2, 2e-2], [1e-1, 2e-1])
    assert sl.injectivity_probe(good, 1e-8) == []
    bad = sl.StabilityRecord(0, "random_random", None, 1.0, 0.0, 0.0)
    assert sl.injectivity_probe([bad], 1e-8) == [bad]
    assert sl.injectivity_probe([bad], float("inf")) == []


def test_injectivity_probe_one_cell_sweep():
    rq = sl.RecoveredQuantity((1,))
    res = sl.sweep(built("conductivity", n_sub=8), SPEC, rq, 10, 2, sl.default_ray_steps(4), seed=5)
    assert res.dropped == 0
    assert sl.injectivity_probe(res.records, 1e-8) == []


def test_add_finite_distances_fills_column():
    res = small_sweep(differences=True)
    from holderlab.scalarization import FiniteMap

    k = triangle_dim(len(res.differences[0]))
    fm = FiniteMap(tuple((i, i) for i in range(k)), k)
    filled = sl.add_finite_distances(res, fm)
    for rec, d in zip(filled.records, map(symmetric_from_upper, filled.differences)):
        expected = float(np.linalg.norm(np.diag(d)))
        assert abs(rec.delta_finite - expected) <= 1e-14


def test_add_finite_distances_needs_the_differences():
    """A sweep keeps no differences unless asked to, and filling
    delta_finite from one that kept none is a named ValueError."""
    from holderlab.scalarization import FiniteMap

    res = small_sweep()
    assert res.differences is None
    with pytest.raises(ValueError, match="kept no differences"):
        sl.add_finite_distances(res, FiniteMap(((0, 0),), 16))


def test_default_sweep_keeps_no_operator_matrix_per_record():
    """A sweep not asked for its differences drops each record's k x k
    difference once the record is made: its peak stays below the
    n_records * k^2 float64s that keeping them would take, here about
    0.7 MB for 100 elasticity records of k = 30."""
    problem = built("elasticity", n_sub=16, cols=2, rows=2)
    rq = sl.RecoveredQuantity((1,))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = sl.sweep(problem, SPEC, rq, 50, 5, sl.default_ray_steps(10), 7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < len(res.records) * problem.k**2 * 8
    assert res.differences is None


@pytest.fixture(scope="module")
def elasticity_selection_sweep():
    """select's sweep on elasticity, n_sub 16, 2x2 cells, k = 30: 100
    pairs and 10 rays of 10 steps, 200 records, with the bytes that
    tracemalloc sees the result keep. In-process: tracemalloc does not
    see the shared mapping that a sweep on workers writes."""
    problem = built("elasticity", n_sub=16, cols=2, rows=2)
    rq = sl.RecoveredQuantity((1,))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = sl.sweep(problem, SPEC, rq, 100, 10, sl.default_ray_steps(10), 1729, differences=True)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return problem, res, kept


def test_sweep_keeps_an_upper_triangle_per_record(elasticity_selection_sweep):
    """A sweep asked for its differences keeps k(k+1)/2 floats of each
    record, not k^2: all it keeps stays below 3/4 of the k x k matrices,
    about 1.1 MB here, where the triangles take 0.74 MB."""
    problem, res, kept = elasticity_selection_sweep
    k = problem.k
    assert len(res.differences) == len(res.records) == 200
    assert all(d.shape == (k * (k + 1) // 2,) for d in res.differences)
    assert kept < 0.75 * len(res.records) * k * k * 8


def test_greedy_peaks_within_a_quarter_over_its_entries(elasticity_selection_sweep):
    """greedy_select on the sweep's 200 upper triangles holds them once
    in one (samples x entries) array and no score array of that size:
    its tracemalloc peak, which includes that array, stays within 1.25
    times it. All 465 entries are picked here, so every step runs."""
    problem, res, _ = elasticity_selection_sweep
    kept = [(d, r.delta_F) for d, r in zip(res.differences, res.records) if r.delta_F > 0.0]
    diffs, dists = map(list, zip(*kept))
    entries = len(diffs) * len(diffs[0]) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sel = greedy_select(diffs, dists, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(sel.mset) == problem.k * (problem.k + 1) // 2
    assert peak <= 1.25 * entries


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_whitens_each_record_once(monkeypatch, threads):
    count, counting = shared_counter()
    monkeypatch.setattr(sl, "whiten", counting(whiten))
    res = small_sweep(threads=threads, differences=True)
    assert count.value == len(res.records) == len(res.differences)


def test_sweep_differences_are_raw_operator_differences():
    """differences[i] is the upper triangle of M_p - M_q of record i,
    for a random pair and for a ray step alike."""
    problem = cd.NDProblem(bottom_mesh(8, cols=2))
    res = small_sweep(differences=True)
    ps = points(problem, SPEC, 10, 42, sl._STREAM_RANDOM_P)
    qs = points(problem, SPEC, 10, 42, sl._STREAM_RANDOM_Q)
    for i in (0, 9):
        want = upper_triangle(problem.forward(ps[i]) - problem.forward(qs[i]))
        assert np.array_equal(res.differences[i], want)
    base = sl.sample_point(problem, SPEC, 42, sl._STREAM_RAY_BASE, 0)
    t = float(sl.default_ray_steps(4)[0])
    stepped = base + t * sl.sample_direction(problem, 42, index=0)
    want = upper_triangle(problem.forward(base) - problem.forward(stepped))
    first_ray = next(i for i, r in enumerate(res.records) if r.kind == "near_diagonal")
    assert res.records[first_ray].t == t
    assert np.array_equal(res.differences[first_ray], want)


def test_elasticity_sweep_runs():
    rq = sl.RecoveredQuantity((1,))
    problem = built("elasticity", n_sub=8, cols=2)
    res = sl.sweep(problem, SPEC, rq, 4, 1, sl.default_ray_steps(3), seed=6)
    assert len(res.records) == 7
    assert res.dropped == 0
    for r in res.records:
        assert r.delta_F > 0
        assert eig_min(np.array([[r.phi]])) >= 0  # phi nonnegative
