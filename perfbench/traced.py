"""Traced run of one holderlab command, and the self-time accounting of
its spans.

    python3 perfbench/traced.py SPANS_JSON COMMAND [ARGS...]

runs `holderlab COMMAND ARGS...` in this process after wrapping the
package's public functions where their callers look them up, so that
each call records a span (layer name, start, end, parent span, thread).
The spans stay in memory and are written to SPANS_JSON when the command
ends; the exit code is the command's.

Spans opened on a pool thread, whose own stack is empty, are parented
to the innermost span open on the main thread, which is the enclosing
sweep: the main thread waits inside `stability.sweep` while the pool
runs its jobs.

A wrapped name that the package no longer has is listed as absent, not
treated as an error, so a refactor that deletes it still traces.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _sweep_note(args, kwargs, result):
    return {"records": len(result.records), "threads": kwargs.get("threads", 1)}


def _greedy_note(args, kwargs, result):
    return {"picks": len(result.mset)}


def _write_note(args, kwargs, result):
    return {"bytes": len(args[1].encode())}


def _read_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, layer, note) for every wrapped name. Each
# name is patched in the namespace its caller looks it up in: cli calls
# `sl.sweep`, the forward closures in stability call `cd.nd_matrix`,
# and the forward modules call the factor and solve names they import.
TARGETS = (
    ("holderlab.mesh", "build_mesh", "mesh.build", None),
    ("holderlab.stability", "sweep", "stability.sweep", _sweep_note),
    ("holderlab.stability", "fit_holder", "stability.fit", None),
    ("holderlab.conductivity", "nd_matrix", "conductivity.forward", None),
    ("holderlab.conductivity", "stiffness_block", "conductivity.assemble", None),
    ("holderlab.conductivity", "mean_value_row", "conductivity.assemble", None),
    ("holderlab.conductivity", "_patch_loads", "conductivity.loads", None),
    ("holderlab.conductivity", "factor_constrained", "numerics.factor", None),
    ("holderlab.numerics", "ConstrainedFactor.solve", "numerics.solve", None),
    ("holderlab.elasticity", "dn_matrix", "elasticity.forward", None),
    ("holderlab.elasticity", "full_vector_stiffness", "elasticity.assemble", None),
    ("holderlab.elasticity", "factor_spd", "numerics.factor", None),
    ("holderlab.elasticity", "solve", "numerics.solve", None),
    ("holderlab.stability", "operator_distance", "operators.distance", None),
    ("holderlab.scalarization", "operator_distance", "operators.distance", None),
    ("holderlab.operators", "gram_inv_sqrt", "operators.gram_inv_sqrt", None),
    ("holderlab.stability", "phi", "scalarization.phi", None),
    ("holderlab.cli", "greedy_select", "scalarization.greedy", _greedy_note),
    ("holderlab.cli", "records_csv", "cli.io", None),
    ("holderlab.cli", "_write", "cli.io", _write_note),
    ("holderlab.cli", "parse_records_csv", "cli.io", _read_note),
)

# Calls that are counted but get no span: every triangular back-solve
# pass, refinement passes included.
COUNTED = (
    ("scipy.linalg", "cho_solve", "numerics.backsolve"),
    ("scipy.linalg", "cho_solve_banded", "numerics.backsolve"),
)


class Tracer:
    """In-memory span recorder; spans are lists
    [name, start, end, parent, thread, note]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            origin = stack or self._main_stack
            parent = origin[-1] if origin else None
            span = [name, 0.0, 0.0, parent, threading.get_ident(), None]
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    span[5] = note(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # a changed signature loses the note, not the run
            return result

        return traced

    def count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, path, make):
        """Replace module.path (dotted within the module) by make(old)."""
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            old = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append("%s.%s" % (module, path))
            return
        setattr(owner, attr, make(old))

    def install(self):
        for module, path, layer, note in TARGETS:
            self.patch(module, path, lambda fn, l=layer, n=note: self.wrap(fn, l, n))
        for module, path, name in COUNTED:
            self.patch(module, path, lambda fn, n=name: self.count(fn, n))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Per span, its duration minus the part of it that its child spans
    cover (children on several threads may overlap one another)."""
    children = defaultdict(list)
    for name, start, end, parent, thread, note in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent, thread, note) in enumerate(spans)
    ]


def main(argv):
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import holderlab.cli

    end = time.perf_counter()
    tracer.spans.append(["cli.import", start, end, None, threading.get_ident(), None])
    tracer.install()
    try:
        return tracer.wrap(holderlab.cli.main, "cli.main")(command)
    finally:
        with open(spans_path, "w") as f:
            json.dump(
                {"spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent}, f
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
