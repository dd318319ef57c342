"""The north-star grid, end to end: holderlab commands on two source
trees, alternating, with each run's wall time, peak RSS and outputs.

    python3 bench/grid.py --before TREE --after TREE --label NAME
        [--cells conductivity:16,elasticity:64] [--commands sweep,select]
        [--runs N] [--threads 1,2] [--grid COLSxROWS] [--out DIR]

A tree is a checkout whose `src/` holds the holderlab package. Every
cell (problem, n_sub) runs on the partition grid of --grid (default
2x1 cells, which must divide every n_sub), the full bottom patch, seed
1729 and the default sweep (600 records). Each run is a fresh child
`python -m holderlab.cli` with PYTHONPATH set to the tree's `src/` and
the BLAS thread variables removed, so the command line pins them as it
does for a user. The commands of one run go in the order given, in one
fresh directory, so `fit` reads the `records.csv` its `sweep` wrote.
Besides the default sweep, select and fit, --commands takes mesh,
forward, derivcheck and counterexample, which take no --threads, so
one run can compare every command's output file between two trees.
Every cell runs at each thread count of --threads, the --threads of
`sweep` and `select`, and the results are keyed by both, as in
"elasticity-64-threads-2". Run i of a cell at a thread count starts
with the before tree when i is even and with the after tree when i is
odd.

For every command the file records each run's wall seconds (measured
from outside the child), peak RSS in MB (os.wait4's ru_maxrss: the
largest of the child and its sweep workers) and exit code, their
medians, and whether every output file of every run is byte-identical
to that of the before tree's first run of the cell at the first thread
count, so outputs that change with the thread count show. It also
records, per tree, the Python, numpy and scipy versions, nproc and the
OpenBLAS threads, read in a child that has imported holderlab.cli, so
they are the ones the commands run with. The grid is end to end only: it reports no layer
times. The cells of the full grid that --cells leaves out are listed.

Writes BENCH_<label>.json in --out (default: the current directory),
which it makes, with its parents, before the first run.
"""

import argparse
import filecmp
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBLEMS = ("conductivity", "elasticity")
GRID_N_SUB = (16, 32, 64)
COMMANDS = ("sweep", "select", "fit")  # the default
OUTPUTS = {
    "sweep": "records.csv", "select": "selection.csv", "fit": "fit.json", "mesh": "mesh.txt",
    "forward": "operator.csv", "derivcheck": "derivcheck.csv",
    "counterexample": "counterexample.csv",
}
THREADED = ("sweep", "select")  # the commands that take --threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 1729

ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import holderlab.cli
import numpy
blas = []
try:
    with open("/proc/self/maps") as maps:
        paths = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()})
except OSError:
    paths = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            getattr(lib, name).argtypes = []
            getattr(lib, name).restype = ctypes.c_int
            blas.append({"library": os.path.basename(path), "threads": getattr(lib, name)()})
            break
scipy = sys.modules.get("scipy")
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__ if scipy else None,
    "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    "openblas": blas,
}))
"""


def child_env(tree):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    return env


def probe_env(tree):
    out = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=child_env(tree), capture_output=True, text=True
    )
    if out.returncode != 0:
        return {"error": out.stderr.strip()[-300:]}
    return json.loads(out.stdout)


def tree_commit(tree):
    """The tree's git commit, with "-dirty" where tracked files differ
    from it, or None where the tree is no git checkout."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(tree), *argv], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def config(problem, n_sub, grid):
    return {
        "problem": problem,
        "seed": SEED,
        "mesh": {"n_sub": n_sub, "grid_cols": grid[0], "grid_rows": grid[1]},
    }


def argv_of(command, threads):
    if command == "fit":
        return ["fit", "records.csv"]
    return [command, "config.json"] + (["--threads", str(threads)] if command in THREADED else [])


def run_child(argv, cwd, env, log):
    """Wall seconds from outside, peak RSS in MB from os.wait4 and the
    exit code of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_side(tree, cell, grid, commands, threads, run_dir):
    """One run of the commands on one tree, in run_dir: a dict per command."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(config(*cell, grid)) + "\n")
    env = child_env(tree)
    out = {}
    with open(run_dir / "log.txt", "w") as log:
        for command in commands:
            argv = [sys.executable, "-m", "holderlab.cli"] + argv_of(command, threads)
            wall, rss, code = run_child(argv, run_dir, env, log)
            out[command] = {"wall_s": wall, "peak_rss_mb": rss, "exit": code}
    return out


def parse_cells(text):
    cells = []
    for item in text.split(","):
        problem, _, n_sub = item.strip().partition(":")
        if problem not in PROBLEMS or not n_sub.isdigit():
            raise SystemExit("bad cell %r: expected problem:n_sub, e.g. elasticity:32" % item)
        cells.append((problem, int(n_sub)))
    return cells


def parse_threads(text):
    """The thread counts of a comma-separated list, each at least 1."""
    items = [item.strip() for item in text.split(",")]
    if not all(item.isdigit() and int(item) >= 1 for item in items):
        raise SystemExit("bad --threads %r: expected counts >= 1, e.g. 1,2" % text)
    return [int(item) for item in items]


def parse_grid(text):
    """(cols, rows) of a COLSxROWS partition grid, each at least 1; an
    argparse type, so a malformed grid exits through the parser."""
    match = re.fullmatch(r"([0-9]+)x([0-9]+)", text.strip())
    if not match or min(int(g) for g in match.groups()) < 1:
        raise argparse.ArgumentTypeError("bad grid %r: expected COLSxROWS, e.g. 2x2" % text)
    return int(match[1]), int(match[2])


def parse_commands(text):
    commands = [c.strip() for c in text.split(",")]
    bad = [c for c in commands if c not in OUTPUTS]
    if bad:
        raise SystemExit("unknown commands %s: expected some of %s" % (bad, list(OUTPUTS)))
    if "fit" in commands and "sweep" not in commands[:commands.index("fit")]:
        raise SystemExit("fit reads the records.csv of a sweep listed before it")
    return commands


def summary(runs, commands):
    out = {}
    for command in commands:
        walls = [r[command]["wall_s"] for r in runs]
        rss = [r[command]["peak_rss_mb"] for r in runs]
        out[command] = {
            "wall_s": walls,
            "peak_rss_mb": rss,
            "exit": [r[command]["exit"] for r in runs],
            "wall_median_s": statistics.median(walls),
            "peak_rss_median_mb": statistics.median(rss),
        }
    return out


def same_file(a, b):
    return a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)


def grid(before, after, cells, partition, commands, runs, thread_counts, work):
    results = {}
    for cell in cells:
        ref = None  # the before tree's first run of the cell
        for threads in thread_counts:
            name = "%s-%d-threads-%d" % (*cell, threads)
            sides = {"before": [], "after": []}
            dirs = {"before": [], "after": []}
            for i in range(runs):
                order = ("before", "after") if i % 2 == 0 else ("after", "before")
                for side in order:
                    run_dir = work / name / ("%s-%d" % (side, i))
                    tree = before if side == "before" else after
                    sides[side].append(
                        run_side(tree, cell, partition, commands, threads, run_dir)
                    )
                    dirs[side].append(run_dir)
                    line = json.dumps(sides[side][-1])
                    print("%s %s run %d: %s" % (name, side, i, line), flush=True)
            entry = {side: summary(sides[side], commands) for side in sides}
            if ref is None:
                ref = dirs["before"][0]
            entry["outputs_identical"] = {
                command: all(
                    same_file(ref / OUTPUTS[command], d / OUTPUTS[command])
                    for d in dirs["before"] + dirs["after"]
                )
                for command in commands
            }
            results[name] = entry
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="tree of the parent")
    parser.add_argument("--after", required=True, help="tree of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument(
        "--cells",
        default=",".join("%s:%d" % (p, n) for p in PROBLEMS for n in GRID_N_SUB),
        help="problem:n_sub list (default: the six cells of the grid)",
    )
    parser.add_argument("--commands", default=",".join(COMMANDS), help="in run order")
    parser.add_argument("--runs", type=int, default=1, help="runs per tree and cell")
    parser.add_argument(
        "--threads", default="1", help="comma-separated --threads of sweep and select (default: 1)"
    )
    parser.add_argument(
        "--grid", type=parse_grid, default="2x1", help="COLSxROWS cells of every run (default: 2x1)"
    )
    parser.add_argument("--out", default=".", help="directory of the BENCH file, made if missing")
    args = parser.parse_args(argv)
    cells = parse_cells(args.cells)
    cols, rows = args.grid
    uneven = sorted({n for _, n in cells if n % cols or n % rows})
    if uneven:
        parser.error("--grid %dx%d does not divide n_sub %s" % (cols, rows, uneven))
    commands = parse_commands(args.commands)
    thread_counts = parse_threads(args.threads)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    out = Path(args.out)
    try:  # before the first run, so a bad --out loses none
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit("cannot create --out %s: %s" % (out, exc.strerror))
    full = [(p, n) for p in PROBLEMS for n in GRID_N_SUB]
    with tempfile.TemporaryDirectory(prefix="holderlab-grid-") as work:
        work = Path(work)
        results = grid(
            args.before, args.after, cells, args.grid, commands, args.runs, thread_counts, work
        )
    bench = {
        "label": args.label,
        "kind": "end to end only: wall and peak RSS of whole CLI children, no layer times",
        "setup": {
            "cells": ["%s:%d" % c for c in cells],
            "left_out": ["%s:%d" % c for c in full if c not in cells],
            "commands": commands,
            "runs": args.runs,
            "threads": thread_counts,
            "grid": "%dx%d" % args.grid,
            "mesh": "%dx%d cells, full bottom patch" % args.grid,
            "seed": SEED,
            "sweep": "default: 200 pairs and 20 rays of 20 steps",
            "order": "run i starts with the before tree when i is even",
        },
        "trees": {
            side: {"commit": tree_commit(tree), "env": probe_env(tree)}
            for side, tree in (("before", args.before), ("after", args.after))
        },
        "platform": {"system": platform.system(), "cpu_count": os.cpu_count()},
        "results": results,
    }
    path = out / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print("-> %s" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
