#!/usr/bin/env python3
"""Benchmark of the holderlab command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

A workload is a JSON config generated from --seed plus a fixed list of
`holderlab` commands. The commands run as fresh child processes of the
checked-out `src/`, one at a time: a closed loop with one client. The
BLAS thread variables are stripped from every child, so numbers never
depend on the caller's shell.

Whole pipelines of the workload's commands repeat until the next one
would end past --seconds; at least one runs. The set-up command, `mesh`,
runs at least five times. Metrics are medians over these runs.

Every output is checked. At the default seed 1729 the check is against
the reference files in perfbench/reference/<workload>/. At any other
seed it is against invariants. A failed check makes the run incorrect
and the exit code 1.

--trace 0 prints the end-to-end metrics. --trace 1 runs the pipeline
once more through traced.py and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

write_reference() regenerates the reference files of a workload; call it
only when an output format changes on purpose.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from traced import covered, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 1729
SETUP_RUNS = 5
# Children still running this long after the run started are killed.
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Relative tolerances against the reference. They were sized by running
# every workload at the default seed with the changes of ROADMAP items 2
# and 4 patched in: a grounded banded Cholesky (each of eight ground
# nodes, with and without mean removal), the dense solver on one BLAS
# thread, the difference identity, and the identity on the banded
# solver. The largest relative shifts from the reference were:
# - ray records: delta_F 2.1e-6 and phi 3.8e-6 at t = 1e-6 (banded,
#   grounded at corner node 0; 9.2e-7 and 7.4e-7 for the identity). The
#   rounding error of a difference of two near-equal operators grows
#   like 1/t, and shift * t stayed below 9.3e-12 at every t;
# - random-pair records: 3.0e-11;
# - theta, theta_precap, log_C, max_violation, achieved_ratio: 5.6e-9.
# Each tolerance is about 3x the largest shift. Single-precision
# arithmetic (relative error ~1e-7) fails PAIR_TOL by three decades.
RAY_TOL_T = 3e-11  # a ray record's tolerance is RAY_TOL_T / t
PAIR_TOL = 1e-10
SUMMARY_TOL = 2e-8
# At --threads 1 the self times of a traced command's spans must sum to
# its wall time measured from outside, less at most this much for
# interpreter start, the tracer's own imports and writing the spans.
SELF_SUM_MARGIN_S = 0.25
SELF_SUM_MARGIN_FRAC = 0.02

_FORWARD = (
    ("calls", "count"),
    ("s", "s"),
    ("self_s", "s"),
    ("ms_p50", "ms"),
    ("ms_tail", "ms"),
    ("ms_tail_pct", "%"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("mesh.build_s", "s"),
    *(("conductivity.forward." + k, u) for k, u in _FORWARD),
    ("conductivity.assemble.s", "s"),
    ("conductivity.loads.s", "s"),
    *(("elasticity.forward." + k, u) for k, u in _FORWARD),
    ("elasticity.assemble.s", "s"),
    ("numerics.factor.calls", "count"),
    ("numerics.factor.s", "s"),
    ("numerics.solve.calls", "count"),
    ("numerics.solve.s", "s"),
    ("numerics.solves_per_factor", "count"),
    ("operators.distance.calls", "count"),
    ("operators.distance.s", "s"),
    ("operators.gram_inv_sqrt.calls", "count"),
    ("operators.gram_inv_sqrt.s", "s"),
    ("scalarization.phi.calls", "count"),
    ("scalarization.phi.s", "s"),
    ("scalarization.greedy.s", "s"),
    ("scalarization.greedy.picks", "count"),
    ("stability.sweep.s", "s"),
    ("stability.sweep.self_s", "s"),
    ("stability.forwards_per_record", "count"),
    ("stability.busy_frac", "fraction"),
    ("stability.fit.s", "s"),
    ("cli.io.s", "s"),
    ("cli.io.bytes", "bytes"),
    ("cli.fit_s", "s"),
    ("cli.select_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unclaimed_frac", "fraction"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n_sub: int
    grid: tuple  # (grid_cols, grid_rows)
    pairs: int
    rays: int
    steps: int
    threads: int
    commands: tuple

    @property
    def jobs(self):
        return self.pairs + self.rays * self.steps

    def config(self, seed):
        return {
            "problem": self.problem,
            "seed": seed,
            "mesh": {
                "n_sub": self.n_sub,
                "grid_cols": self.grid[0],
                "grid_rows": self.grid[1],
            },
            "sweep": {
                "n_random_pairs": self.pairs,
                "n_rays": self.rays,
                "n_ray_steps": self.steps,
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The pinned acceptance sweep of criterion 7 and the plain
        # single-threaded baseline. Small systems, so per-call overhead
        # weighs most; two thirds of the records walk rays that share
        # 20 base points.
        Workload(
            "cond-acceptance", "conductivity", 16, (2, 1), 200, 20, 20, 1,
            ("mesh", "sweep", "fit"),
        ),
        # The ROADMAP's n_sub=64 size, where factor and solve take ~99%.
        # Random pairs share no parameter point, so reuse of solves
        # cannot act here. Random pairs alone may not span the two
        # decades of delta_F that fit needs, so there is no fit.
        Workload(
            "cond-fine-random", "conductivity", 64, (2, 2), 2, 0, 0, 1,
            ("mesh", "sweep"),
        ),
        # The only workload on elasticity, the thread pool and a greedy
        # selection that runs every step (it ends unreached at the seed).
        Workload(
            "elas-threaded", "elasticity", 16, (2, 2), 100, 10, 10, 2,
            ("mesh", "sweep", "fit", "select"),
        ),
    )
}


@dataclass
class Child:
    command: str
    wall: float
    rss_mb: float
    code: int


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    env: dict = field(default_factory=dict)

    def line(self):
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd, log_name, deadline):
    """Run one child to completion; wall seconds from outside, its peak
    RSS from os.wait4, and its exit code."""
    start = time.perf_counter()
    with open(cwd / log_name, "w") as log:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


ENV_PROBE = r"""
import ctypes, json, os, platform, numpy, scipy, scipy.linalg
blas = []
try:
    with open("/proc/self/maps") as maps:
        paths = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()})
except OSError:
    paths = []
for path in paths:
    lib = ctypes.CDLL(path)
    for threads, config in (
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
        ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
        ("openblas_get_num_threads", "openblas_get_config"),
    ):
        if hasattr(lib, threads) and hasattr(lib, config):
            getattr(lib, threads).restype = ctypes.c_int
            getattr(lib, config).restype = ctypes.c_char_p
            blas.append({"library": os.path.basename(path),
                         "config": getattr(lib, config)().decode(),
                         "threads": getattr(lib, threads)()})
            break
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(), "machine": platform.machine(), "openblas": blas,
    "stripped": %r,
}))
""" % (BLAS_VARS,)


def probe_env():
    """Versions, nproc and both OpenBLAS libraries with their thread
    counts, as a child with the benchmark's environment sees them."""
    out = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if out.returncode != 0:
        return {"error": out.stderr.strip()[-300:]}
    return json.loads(out.stdout)


def argv_of(w, command):
    if command == "fit":
        return ["fit", "records.csv"]
    argv = [command, "config.json"]
    if command in ("sweep", "select"):
        argv += ["--threads", str(w.threads)]
    return argv


def prepare(run_dir, w, seed):
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(w.config(seed), indent=2) + "\n")
    return run_dir


def run_command(w, run_dir, command, deadline, traced=False):
    if traced:
        prefix = [sys.executable, str(BENCH / "traced.py"), "spans-%s.json" % command]
    else:
        prefix = [sys.executable, "-m", "holderlab.cli"]
    wall, rss, code = run_child(prefix + argv_of(w, command), run_dir, command + ".log", deadline)
    return Child(command, wall, rss, code)


def run_pipeline(w, run_dir, deadline, traced=False):
    children = []
    for command in w.commands:
        children.append(run_command(w, run_dir, command, deadline, traced))
        if children[-1].code != 0:
            break
    return children


# ---------------------------------------------------------------- checks


def _close(got, want, tol=SUMMARY_TOL):
    return abs(got - want) <= tol * abs(want)


def record_tol(row):
    """Relative tolerance of a record's delta_F and phi."""
    return RAY_TOL_T / float(row["t"]) if row["t"] else PAIR_TOL


def parse_records(path):
    """(header line, dropped count, column names, rows as dicts)."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    dropped = [int(c.split()[2]) for c in comments if c.split()[1:2] == ["dropped"]]
    columns = data[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in data[1:]]
    return comments[0], (dropped[0] if dropped else None), columns, rows


def parse_fit(path):
    head, _, body = path.read_text().partition("\n")
    return head, json.loads(body)


def parse_selection(path):
    lines = path.read_text().splitlines()
    tokens = lines[1].split()
    summary = {
        "achieved_ratio": float(tokens[2]),
        "reached": tokens[4],
        "size": int(tokens[6]),
    }
    return lines[0], summary, lines[2], lines[3:]


def check_records(w, seed, run_dir, reference):
    out = []
    head, dropped, columns, rows = parse_records(run_dir / "records.csv")
    if not head.startswith("# holderlab ") or not head.endswith(" seed=%d" % seed):
        out.append("records.csv header %r" % head)
    if dropped != 0:
        out.append("records.csv dropped %s" % dropped)
    if len(rows) != w.jobs:
        out.append("records.csv has %d records, expected %d" % (len(rows), w.jobs))
    for i, row in enumerate(rows):
        kind = "random_random" if i < w.pairs else "near_diagonal"
        if (
            row.get("kind") != kind
            or not float(row["delta_F"]) > 0.0
            or not float(row["phi"]) >= 0.0
        ):
            out.append("records.csv row %d breaks an invariant: %s" % (i, row))
            break
    if reference is None:
        return out
    r_head, r_dropped, r_columns, r_rows = parse_records(reference / "records.csv")
    if (head, dropped, columns, len(rows)) != (r_head, r_dropped, r_columns, len(r_rows)):
        out.append("records.csv header, drop count, columns or length differ from the reference")
        return out
    for i, (row, ref) in enumerate(zip(rows, r_rows)):
        exact = [k for k in columns if k not in ("delta_F", "phi") and row[k] != ref[k]]
        tol = record_tol(ref)
        loose = [k for k in ("delta_F", "phi") if not _close(float(row[k]), float(ref[k]), tol)]
        if exact or loose:
            out.append("records.csv row %d differs from the reference in %s" % (i, exact + loose))
            break
    return out


def check_fit(w, seed, run_dir, reference):
    head, body = parse_fit(run_dir / "fit.json")
    out = []
    if not head.endswith(" seed=%d" % seed):
        out.append("fit.json header %r" % head)
    if (
        body.get("records_used") != w.jobs
        or body.get("dropped") != 0
        or not 0.0 < body.get("theta", 0.0) <= 1.0
    ):
        out.append("fit.json breaks an invariant: %s" % body)
    if reference is None:
        return out
    r_head, r_body = parse_fit(reference / "fit.json")
    loose = ("theta", "theta_precap", "log_C", "max_violation")
    if head != r_head or body.keys() != r_body.keys():
        out.append("fit.json header or keys differ from the reference")
    elif any(body[k] != r_body[k] for k in body if k not in loose) or not all(
        _close(body[k], r_body[k]) for k in loose
    ):
        out.append("fit.json differs from the reference: %s vs %s" % (body, r_body))
    return out


def check_selection(w, seed, run_dir, reference):
    head, summary, columns, pairs = parse_selection(run_dir / "selection.csv")
    out = []
    if not head.endswith(" seed=%d" % seed) or columns != "i,j":
        out.append("selection.csv header %r / %r" % (head, columns))
    if (
        summary["size"] != len(pairs)
        or not summary["size"] >= 1
        or not summary["achieved_ratio"] > 0.0
    ):
        out.append("selection.csv breaks an invariant: %s with %d pairs" % (summary, len(pairs)))
    if reference is None:
        return out
    r_head, r_summary, _, _ = parse_selection(reference / "selection.csv")
    if (
        head != r_head
        or summary["reached"] != r_summary["reached"]
        or summary["size"] != r_summary["size"]
        or not _close(summary["achieved_ratio"], r_summary["achieved_ratio"])
    ):
        out.append("selection.csv differs from the reference: %s vs %s" % (summary, r_summary))
    return out


CHECKS = {"sweep": check_records, "fit": check_fit, "select": check_selection}


def check_outputs(w, seed, run_dir, children, reference):
    """Problems found in one pipeline's outputs; empty when correct."""
    out = [
        "%s exited %d (see %s.log)" % (c.command, c.code, c.command)
        for c in children
        if c.code != 0
    ]
    if out or len(children) != len(w.commands):
        return out
    ref = reference / w.name if seed == DEFAULT_SEED else None
    for c in children:
        if c.command in CHECKS:
            try:
                out += CHECKS[c.command](w, seed, run_dir, ref)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                out.append("%s output unreadable: %r" % (c.command, exc))
    return out


def tally(result, w, run_dir, children, reference):
    """Add one pipeline's sweep jobs and check problems to the result.

    Every job a sweep or select asks for is attempted. A command that
    exits nonzero fails all its jobs; otherwise the failed jobs are those
    records.csv reports dropped. select reruns the sweep of the same
    config and seed, so it drops the same jobs."""
    dropped = 0
    for c in children:
        if c.command == "sweep" and c.code == 0:
            try:
                dropped = parse_records(run_dir / "records.csv")[1] or 0
            except (OSError, ValueError, IndexError):
                dropped = w.jobs
    for c in children:
        if c.command in ("sweep", "select"):
            result.attempted += w.jobs
            result.failed += w.jobs if c.code != 0 else dropped
    result.problems += check_outputs(w, result.seed, run_dir, children, reference)


# --------------------------------------------------------------- metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(durations):
    """(p50, tail, tail percentile): the tail is the highest of p90,
    p99 and p99.9 with at least ten samples beyond it, else the p50."""
    if not durations:
        return 0.0, 0.0, 0.0
    d = sorted(durations)
    pct = 50.0
    for p in (90.0, 99.0, 99.9):
        if len(d) * (1.0 - p / 100.0) >= 10.0:
            pct = p
    return _percentile(d, 50.0), _percentile(d, pct), pct


def end_to_end(w, setups, pipelines):
    mesh = [c.wall for c in setups] + [c.wall for p in pipelines for c in p if c.command == "mesh"]
    sweeps = [c.wall for p in pipelines for c in p if c.command == "sweep" and c.code == 0]
    totals = [sum(c.wall for c in p) for p in pipelines if len(p) == len(w.commands)]
    rss = [c.rss_mb for c in setups] + [c.rss_mb for p in pipelines for c in p]
    metrics = {}
    if mesh:
        metrics["setup_s"] = (_median(mesh), "s")
    if sweeps:
        metrics["sweep_s"] = (_median(sweeps), "s")
        metrics["records_per_s"] = (_median([w.jobs / s for s in sweeps]), "1/s")
    if totals:
        metrics["total_s"] = (_median(totals), "s")
    if rss:
        metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


def load_spans(run_dir, command):
    with open(run_dir / ("spans-%s.json" % command)) as f:
        return json.load(f)


def per_layer(w, run_dir, traced, setups, plain_pipelines, result):
    """Per-layer metrics of one traced pipeline. Also checks that at
    --threads 1 each command's span self times sum to its wall time."""
    durations = defaultdict(list)
    forward_self = defaultdict(float)
    self_total = defaultdict(float)
    notes = defaultdict(float)
    counts = defaultdict(int)
    absent = set()
    sweep_busy = sweep_capacity = 0.0
    forwards_in_sweeps = 0
    unclaimed = 0.0
    for child in traced:
        trace = load_spans(run_dir, child.command)
        spans = trace["spans"]
        absent.update(trace["absent"])
        for k, v in trace["counts"].items():
            counts[k] += v
        own = self_times(spans)
        by_layer = defaultdict(float)
        for (name, start, end, parent, thread, note), s in zip(spans, own):
            by_layer[name] += s
            self_total[name] += s
        single = child.command not in ("sweep", "select") or w.threads == 1
        gap = child.wall - sum(own)
        if single and not -1e-3 <= gap <= SELF_SUM_MARGIN_S + SELF_SUM_MARGIN_FRAC * child.wall:
            result.problems.append(
                "traced %s: span self times sum to %.4f s, wall %.4f s"
                % (child.command, sum(own), child.wall)
            )
        # Time no layer claims: cli.main and stability.sweep self time
        # hold whatever runs outside a wrapped function.
        none = by_layer["cli.main"] + by_layer["stability.sweep"]
        unclaimed += none
        top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:6]
        result.notes.append(
            "traced %s: wall %.3f s, self-time sum %.3f s, unclaimed %.1f%%, top self: %s"
            % (
                child.command,
                child.wall,
                sum(own),
                100.0 * none / child.wall,
                ", ".join("%s %.3f" % kv for kv in top),
            )
        )

        kids = defaultdict(list)
        for i, (name, start, end, parent, thread, note) in enumerate(spans):
            durations[name].append(end - start)
            for k, v in (note or {}).items():
                notes[name + "." + k] += v
            if parent is not None:
                kids[parent].append((name, start, end, thread))
        for i, (name, start, end, parent, thread, note) in enumerate(spans):
            if name.endswith(".forward"):
                numerics = [(a, b) for n, a, b, t in kids[i] if n.startswith("numerics.")]
                forward_self[name] += (end - start) - covered(numerics, start, end)
                j = parent
                while j is not None and spans[j][0] != "stability.sweep":
                    j = spans[j][3]
                forwards_in_sweeps += j is not None
            if name == "stability.sweep":
                threads = (note or {}).get("threads", 1)
                per_thread = defaultdict(list)
                for n, a, b, t in kids[i]:
                    per_thread[t].append((a, b))
                sweep_busy += sum(covered(v, start, end) for v in per_thread.values())
                sweep_capacity += (end - start) * threads

    calls = defaultdict(int, {n: len(d) for n, d in durations.items()})
    total = defaultdict(float, {n: sum(d) for n, d in durations.items()})
    m = {}
    m["cli.import_s"] = _median(durations["cli.import"])
    m["mesh.build_s"] = _median(durations["mesh.build"])
    for prob in ("conductivity", "elasticity"):
        name = prob + ".forward"
        p50, tail, pct = _tail(durations[name])
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
        m[name + ".self_s"] = forward_self[name]
        m[name + ".ms_p50"] = 1e3 * p50
        m[name + ".ms_tail"] = 1e3 * tail
        m[name + ".ms_tail_pct"] = pct
        m[prob + ".assemble.s"] = total[prob + ".assemble"]
    m["conductivity.loads.s"] = total["conductivity.loads"]
    for name in (
        "numerics.factor",
        "numerics.solve",
        "operators.distance",
        "operators.gram_inv_sqrt",
        "scalarization.phi",
    ):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
    factors = calls["numerics.factor"]
    m["numerics.solves_per_factor"] = counts["numerics.backsolve"] / factors if factors else 0.0
    m["scalarization.greedy.s"] = total["scalarization.greedy"]
    m["scalarization.greedy.picks"] = notes["scalarization.greedy.picks"]
    m["stability.sweep.s"] = total["stability.sweep"]
    m["stability.sweep.self_s"] = self_total["stability.sweep"]
    records = notes["stability.sweep.records"]
    m["stability.forwards_per_record"] = forwards_in_sweeps / records if records else 0.0
    m["stability.busy_frac"] = sweep_busy / sweep_capacity if sweep_capacity else 0.0
    m["stability.fit.s"] = total["stability.fit"]
    m["cli.io.s"] = total["cli.io"]
    m["cli.io.bytes"] = notes["cli.io.bytes"]
    plain = defaultdict(list)
    for c in setups + [c for p in plain_pipelines for c in p]:
        plain[c.command].append(c.wall)
    for command in ("fit", "select"):
        m["cli.%s_s" % command] = _median(plain[command])
    # Each traced command against the median of its plain runs. The
    # plain sweep runs only a few times, so this is noise-bound.
    m["trace.overhead_s"] = sum(c.wall - _median(plain[c.command]) for c in traced)
    m["trace.unclaimed_frac"] = unclaimed / sum(c.wall for c in traced)
    if absent:
        result.notes.append("absent (reported as 0): %s" % ", ".join(sorted(absent)))
    units = dict(PER_LAYER)
    return {k: (m[k], units[k]) for k, _ in PER_LAYER}


# ------------------------------------------------------------------ runs


def run_workload(w, seed, seconds, trace, reference=REFERENCE):
    """Measure one workload; the Result carries metrics and problems."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    result = Result(w.name, seed, env=probe_env())
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    plain = prepare(work / "plain", w, seed)

    setups = []
    for _ in range(SETUP_RUNS - 1):
        setups.append(run_command(w, plain, "mesh", deadline))
        if setups[-1].code != 0:
            result.problems.append("mesh exited %d (see mesh.log)" % setups[-1].code)
            return result
    pipelines = []
    while True:
        began = time.monotonic()
        children = run_pipeline(w, plain, deadline)
        pipelines.append(children)
        tally(result, w, plain, children, reference)
        now = time.monotonic()
        if result.problems or now - start + (now - began) > seconds:
            break
    result.notes.append(
        "%d pipelines, %d set-up runs" % (len(pipelines), len(setups) + len(pipelines))
    )
    result.metrics = end_to_end(w, setups, pipelines)

    if trace and not result.problems:
        run_dir = prepare(work / "traced", w, seed)
        traced = run_pipeline(w, run_dir, deadline, traced=True)
        tally(result, w, run_dir, traced, reference)
        if not result.problems:
            result.metrics = per_layer(w, run_dir, traced, setups, pipelines, result)
    return result


def write_reference(w, reference=REFERENCE):
    """Run the default seed once and store its outputs as the reference."""
    shutil.rmtree(WORK / w.name, ignore_errors=True)
    run_dir = prepare(WORK / w.name / "reference", w, DEFAULT_SEED)
    children = run_pipeline(w, run_dir, time.monotonic() + DEADLINE_S)
    if any(c.code != 0 for c in children):
        raise SystemExit("%s: a command failed, no reference written" % w.name)
    target = reference / w.name
    target.mkdir(parents=True, exist_ok=True)
    for name in ("records.csv", "fit.json", "selection.csv"):
        if (run_dir / name).exists():
            shutil.copyfile(run_dir / name, target / name)
            print("wrote %s" % (target / name))


def print_result(result):
    print("# workload %s seed %d" % (result.workload, result.seed))
    print("# env %s" % json.dumps(result.env, sort_keys=True))
    for note in result.notes:
        print("# %s" % note)
    for problem in result.problems:
        print("# FAILED CHECK: %s" % problem)
    for name, (value, unit) in result.metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print(result.line(), flush=True)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_child, which kills its child


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holderlab" / "cli.py").is_file():
        print("no holderlab sources at %s" % SRC, file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print_result(result)
        ok = ok and not result.problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
