#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk to n_sub=4 and a handful of records, against
a reference made from the shrunk workload's own run, and checks that

- an untraced and a traced run print every metric BENCHMARK.json names,
  each with its unit;
- the reference check passes on the outputs as written, passes on a
  change well inside the tolerance, and fails on a change beyond it in
  records.csv, fit.json or selection.csv;
- another seed passes the invariant checks.

Exits 1 and names each failed check otherwise.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import sys

import run

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL: " + message)


def shrink(w):
    return dataclasses.replace(
        w, n_sub=4, pairs=3, rays=2 if w.rays else 0, steps=3 if w.rays else 0
    )


def printed(result):
    """(stdout lines, parsed last line) of print_result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(result)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def expect_metrics(w, result, declared, what):
    tag = "%s %s" % (w.name, what)
    lines, last = printed(result)
    keys = {"correct", "attempted", "failed", "metrics"}
    expect(set(last) == keys, "%s: last-line keys %s" % (tag, sorted(last)))
    expect(last["correct"] and last["attempted"] >= 1, "%s: %s" % (tag, result.problems))
    names = {m["name"] for m in declared}
    expect(last["metrics"].keys() == names, "%s: metrics differ from BENCHMARK.json" % tag)
    for m in declared:
        unit = last["metrics"].get(m["name"], {}).get("unit")
        expect(unit == m["unit"], "%s: %s has unit %r" % (tag, m["name"], unit))
        expect(
            any(line.split()[::2] == [m["name"], m["unit"]] for line in lines),
            "%s: %s is not printed with its unit" % (tag, m["name"]),
        )


def edit(path, old, new):
    text = path.read_text()
    expect(old in text, "cannot find %r in %s" % (old, path.name))
    path.write_text(text.replace(old, new, 1))


def scaled(value, factor):
    return repr(float(value) * factor)


def expect_reference_check(w, reference):
    """Perturb one checked value of each output and rerun the check."""
    run_dir = run.WORK / w.name / "plain"
    ok = [run.Child(c, 0.0, 0.0, 0) for c in w.commands]

    def problems():
        return run.check_outputs(w, run.DEFAULT_SEED, run_dir, ok, reference)

    expect(problems() == [], "%s: unchanged outputs fail the reference check" % w.name)
    backup = run_dir / "backup"
    backup.mkdir()
    names = ("records.csv", "fit.json", "selection.csv")
    outputs = [p for p in run_dir.iterdir() if p.name in names]
    for p in outputs:
        shutil.copyfile(p, backup / p.name)

    rows = run.parse_records(run_dir / "records.csv")[3]
    for row in (rows[0], rows[-1]):  # a random pair; a ray record if any
        delta_f, tol = row["delta_F"], run.record_tol(row)
        for factor, should_fail in ((1 + tol / 10, False), (1 + 10 * tol, True)):
            edit(run_dir / "records.csv", "," + delta_f + ",", "," + scaled(delta_f, factor) + ",")
            expect(
                bool(problems()) == should_fail,
                "%s: delta_F scaled by %r, check says %s" % (w.name, factor, problems()),
            )
            shutil.copyfile(backup / "records.csv", run_dir / "records.csv")

    if "fit" in w.commands:
        theta = run.parse_fit(run_dir / "fit.json")[1]["theta"]
        lower = scaled(theta, 1 - 10 * run.SUMMARY_TOL)
        edit(run_dir / "fit.json", '"theta": %r' % theta, '"theta": %s' % lower)
        expect(bool(problems()), "%s: a changed theta passes the reference check" % w.name)
    if "select" in w.commands:
        reached = run.parse_selection(run_dir / "selection.csv")[1]["reached"]
        flipped = "True" if reached == "False" else "False"
        edit(run_dir / "selection.csv", "reached " + reached, "reached " + flipped)
        expect(bool(problems()), "%s: a flipped reached passes the reference check" % w.name)
    for p in outputs:
        shutil.copyfile(backup / p.name, p)


def main():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    reference = run.WORK / "selftest-reference"
    shutil.rmtree(reference, ignore_errors=True)
    for w in map(shrink, run.WORKLOADS.values()):
        with contextlib.redirect_stdout(io.StringIO()):
            run.write_reference(w, reference)
        result = run.run_workload(w, run.DEFAULT_SEED, 0, trace=False, reference=reference)
        expect_metrics(w, result, bench["end_to_end"], "--trace 0")
        expect_reference_check(w, reference)
        result = run.run_workload(w, run.DEFAULT_SEED, 0, trace=True, reference=reference)
        expect_metrics(w, result, bench["per_layer"], "--trace 1")
        result = run.run_workload(w, 7, 0, trace=False, reference=reference)
        expect(not result.problems, "%s: seed 7 fails: %s" % (w.name, result.problems))
        print("%s: checked" % w.name)
    print("selftest: %s" % ("%d failures" % len(FAILURES) if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
