"""The north-star grid, end to end: holderlab commands on two source
trees, alternating, with each run's wall time, peak RSS and outputs.

    python3 bench/grid.py --before TREE --after TREE --label NAME
        [--cells conductivity:16,elasticity:64] [--commands sweep,select]
        [--runs N] [--threads T] [--out DIR]

A tree is a checkout whose `src/` holds the holderlab package. Every
cell (problem, n_sub) runs on 2x1 cells, the full bottom patch, seed
1729 and the default sweep (600 records). Each run is a fresh child
`python -m holderlab.cli` with PYTHONPATH set to the tree's `src/` and
the BLAS thread variables removed, so the command line pins them as it
does for a user. The commands of one run go in the order given, in one
fresh directory, so `fit` reads the `records.csv` its `sweep` wrote.
Run i of a cell starts with the before tree when i is even and with
the after tree when i is odd.

For every command the file records each run's wall seconds (measured
from outside the child), peak RSS in MB (os.wait4's ru_maxrss: the
largest of the child and its sweep workers) and exit code, their
medians, and whether every output file of every run is byte-identical
to the before tree's first. It also records, per tree, the Python,
numpy and scipy versions, nproc and the OpenBLAS threads, read in a
child that has imported holderlab.cli, so they are the ones the
commands run with. The grid is end to end only: it reports no layer
times. The cells of the full grid that --cells leaves out are listed.

Writes BENCH_<label>.json in --out (default: the current directory).
"""

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBLEMS = ("conductivity", "elasticity")
GRID_N_SUB = (16, 32, 64)
COMMANDS = ("sweep", "select", "fit")
OUTPUTS = {"sweep": "records.csv", "select": "selection.csv", "fit": "fit.json"}
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


def config(problem, n_sub):
    return {
        "problem": problem,
        "seed": SEED,
        "mesh": {"n_sub": n_sub, "grid_cols": 2, "grid_rows": 1},
    }


def argv_of(command, threads):
    if command == "fit":
        return ["fit", "records.csv"]
    return [command, "config.json", "--threads", str(threads)]


def run_child(argv, cwd, env, log):
    """Wall seconds from outside, peak RSS in MB from os.wait4 and the
    exit code of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_side(tree, cell, commands, threads, run_dir):
    """One run of the commands on one tree, in run_dir: a dict per command."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(config(*cell)) + "\n")
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


def parse_commands(text):
    commands = [c.strip() for c in text.split(",")]
    bad = [c for c in commands if c not in COMMANDS]
    if bad:
        raise SystemExit("unknown commands %s: expected some of %s" % (bad, list(COMMANDS)))
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


def grid(before, after, cells, commands, runs, threads, work):
    results = {}
    for cell in cells:
        name = "%s-%d" % cell
        sides = {"before": [], "after": []}
        dirs = {"before": [], "after": []}
        for i in range(runs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                run_dir = work / name / ("%s-%d" % (side, i))
                tree = before if side == "before" else after
                sides[side].append(run_side(tree, cell, commands, threads, run_dir))
                dirs[side].append(run_dir)
                print("%s %s run %d: %s" % (name, side, i, json.dumps(sides[side][-1])), flush=True)
        entry = {side: summary(sides[side], commands) for side in sides}
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
    parser.add_argument("--threads", type=int, default=1, help="--threads of sweep and select")
    parser.add_argument("--out", default=".", help="directory of the BENCH file")
    args = parser.parse_args(argv)
    cells = parse_cells(args.cells)
    commands = parse_commands(args.commands)
    if args.runs < 1 or args.threads < 1:
        raise SystemExit("--runs and --threads must be at least 1")
    full = [(p, n) for p in PROBLEMS for n in GRID_N_SUB]
    with tempfile.TemporaryDirectory(prefix="holderlab-grid-") as work:
        work = Path(work)
        results = grid(args.before, args.after, cells, commands, args.runs, args.threads, work)
    bench = {
        "label": args.label,
        "kind": "end to end only: wall and peak RSS of whole CLI children, no layer times",
        "setup": {
            "cells": ["%s:%d" % c for c in cells],
            "left_out": ["%s:%d" % c for c in full if c not in cells],
            "commands": commands,
            "runs": args.runs,
            "threads": args.threads,
            "mesh": "2x1 cells, full bottom patch",
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
    path = Path(args.out) / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print("-> %s" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
