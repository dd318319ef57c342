"""End-to-end checks of the command line front end."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holderlab import __version__
from holderlab import mesh as mx
from holderlab import stability as sl
from holderlab.cli import (
    FIELDS,
    PROBLEMS,
    config_hash,
    header_line,
    main,
    normalize_config,
    parse_records_csv,
    records_csv,
)
from holderlab.errors import ConfigError

BASE = {
    "problem": "conductivity",
    "seed": 7,
    "mesh": {"n_sub": 8, "grid_cols": 2, "grid_rows": 1},
    "sweep": {"n_random_pairs": 8, "n_rays": 2, "n_ray_steps": 4},
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE))
    if extra:
        cfg.update(extra)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_normalize_fills_defaults():
    cfg = normalize_config(json.loads(json.dumps(BASE)))
    assert cfg["recovered_cells"] == [1, 2]
    assert cfg["fit"] == {"n_bins": 8, "slack": 0.1}
    assert cfg["select"]["target_ratio"] == 0.5
    assert cfg["probe_k"] is None
    assert cfg["mesh"]["side"] == "bottom"


# (patch over BASE, the field the rejection names)
BAD_FIELDS = [
    ({"problem": "heat"}, "problem"),
    ({"seed": "7"}, "seed"),
    ({"mesh": {"n_sub": 7, "grid_cols": 2}}, "mesh.n_sub"),
    ({"mesh": {"n_sub": 8, "side": "inside"}}, "mesh.side"),
    ({"recovered_cells": [0]}, "recovered_cells"),
    ({"recovered_cells": [1, 1]}, "recovered_cells"),
    ({"compact_set": {"lambda_lo": 2.0, "lambda_hi": 0.5}}, "compact_set.lambda_lo"),
    ({"select": {"target_ratio": 0.0}}, "select.target_ratio"),
    ({"typo_section": {}}, "typo_section"),
    ({"sweep": {"n_random_pair": 5}}, "sweep.n_random_pair"),
    ({"mesh": {"n_sub": 8, "sid": "top"}}, "mesh.sid"),
    ({"compact_set": {"lambda_lo": "abc"}}, "compact_set.lambda_lo"),
    ({"compact_set": [1, 2]}, "compact_set"),
    ({"sweep": {"t_min": None}}, "sweep.t_min"),
    ({"derivcheck": {"steps": ["x"]}}, "derivcheck.steps"),
    ({"seed": -1}, "seed"),
    ({"fit": {"slack": True}}, "fit.slack"),
    ({"fit": {"slack": "0.1"}}, "fit.slack"),
    ({"fit": {"slack": float("nan")}}, "fit.slack"),
    ({"counterexample": {"tol": -1}}, "counterexample.tol"),
    ({"sweep": {"t_max": float("inf")}}, "sweep.t_max"),
]


def test_normalize_rejects_bad_fields():
    for patch, field in BAD_FIELDS:
        raw = json.loads(json.dumps(BASE))
        raw.update(patch)
        with pytest.raises(ConfigError) as err:
            normalize_config(raw)
        assert err.value.field == field


@pytest.mark.parametrize("patch, field", BAD_FIELDS)
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, patch, field):
    path = write_config(tmp_path, patch)
    assert main(["validate", str(path)]) == 2
    assert "(field %s)" % field in capsys.readouterr().err


def test_missing_seed_is_rejected():
    raw = json.loads(json.dumps(BASE))
    del raw["seed"]
    with pytest.raises(ConfigError) as err:
        normalize_config(raw)
    assert err.value.field == "seed"


def test_config_hash_ignores_key_order():
    a = normalize_config(json.loads(json.dumps(BASE)))
    flipped = dict(reversed(list(a.items())))
    assert config_hash(a) == config_hash(flipped)
    b = normalize_config({**json.loads(json.dumps(BASE)), "seed": 8})
    assert config_hash(a) != config_hash(b)


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_bad_field_exits_2_and_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"recovered_cells": [1, 3]})
    assert main(["validate", str(path)]) == 2
    assert "recovered_cells" in capsys.readouterr().err


def test_validate_echoes_normalized_config(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["recovered_cells"] == [1, 2]
    assert echoed["sweep"]["t_min"] == 1e-6


def test_mesh_output_has_header(tmp_path):
    path = write_config(tmp_path)
    assert main(["mesh", str(path)]) == 0
    lines = (tmp_path / "out" / "mesh.txt").read_text().splitlines()
    assert lines[0].startswith("# holderlab %s config=" % __version__)
    assert "seed=7" in lines[0]


# (command, the file it writes, its summary: the stdout line before " -> ")
SUMMARIES = [
    ("mesh", "mesh.txt", r"mesh: \d+ nodes, \d+ triangles, \d+ patch edges"),
    ("forward", "operator.csv", r"forward: conductivity_nd operator, dim \d+"),
    (
        "derivcheck",
        "derivcheck.csv",
        r"derivcheck: rel errors \[\S+, \S+, \S+\], radial identity \S+",
    ),
    ("sweep", "records.csv", r"sweep: 16 records \(0 dropped\)"),
    (
        "select",
        "selection.csv",
        r"select: \d+ measurements, ratio \d\.\d{4}, target 0\.5 (reached|NOT reached)",
    ),
    (
        "counterexample",
        "counterexample.csv",
        r"counterexample: flat max slope \d+\.\d, cubic max slope \d+\.\d{4},"
        r" cubic theta \d\.\d{4}",
    ),
    ("fit", "fit.json", r"fit: theta=\S+ theta_precap=\S+ records_used=\d+"),
]


@pytest.mark.parametrize("command, name, summary", SUMMARIES, ids=[c[0] for c in SUMMARIES])
def test_command_prints_summary_to_path_and_writes_header(tmp_path, capsys, command, name, summary):
    """Each command that writes a file prints one stdout line, its
    summary and then `-> <path>`, and the file opens with the header
    line naming the run; fit names the run of the records it read."""
    path = write_config(tmp_path)
    written = tmp_path / "out" / name
    if command == "fit":
        assert main(["sweep", str(path)]) == 0
        capsys.readouterr()
        assert main(["fit", str(tmp_path / "out" / "records.csv")]) == 0
    else:
        assert main([command, str(path)]) == 0
    stdout = capsys.readouterr().out
    assert re.fullmatch("%s -> %s\n" % (summary, re.escape(str(written))), stdout), stdout
    cfg = normalize_config(json.loads(path.read_text()))
    assert written.read_text().splitlines()[0] == header_line(config_hash(cfg), 7)


def test_sweep_is_thread_count_invariant(tmp_path):
    """records.csv and selection.csv are the same bytes whether the
    sweep runs in-process or on two or three worker processes."""
    for problem in PROBLEMS:
        path = write_config(tmp_path, {"problem": problem})
        outputs = set()
        for threads in ("1", "2", "3"):
            assert main(["sweep", str(path), "--threads", threads]) == 0
            assert main(["select", str(path), "--threads", threads]) == 0
            outputs.add(tuple(
                (tmp_path / "out" / name).read_bytes()
                for name in ("records.csv", "selection.csv")
            ))
        assert len(outputs) == 1, problem


def test_sweep_records_roundtrip(tmp_path):
    path = write_config(tmp_path)
    assert main(["sweep", str(path)]) == 0
    records, head, dropped = parse_records_csv(str(tmp_path / "out" / "records.csv"))
    assert dropped == 0
    assert head["seed"] == "7"
    assert len(records) == 8 + 2 * 4
    kinds = {r.kind for r in records}
    assert kinds == {"random_random", "near_diagonal"}
    rays = [r for r in records if r.kind == "near_diagonal"]
    assert all(r.t is not None for r in rays)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lambda_hi", [1e200, 1e300])
def test_sweep_with_an_overflowing_distance_exits_1_naming_the_record(
    tmp_path, capsys, lambda_hi, threads
):
    """Cells near the largest float overflow delta_R to inf: the sweep
    refuses the first such record, on any worker count, with no
    warning and no records.csv, instead of writing infinite distances
    that only fit rejects."""
    path = write_config(tmp_path, {
        "mesh": {"n_sub": 4, "grid_cols": 2, "grid_rows": 1},
        "compact_set": {"lambda_hi": lambda_hi},
    })
    assert main(["sweep", str(path), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "DegenerateSample: record 0 has a value that is not finite (delta_R=inf" in err
    assert not (tmp_path / "out" / "records.csv").exists()


RECORDS_HEAD = "# holderlab 0.1.0 config=abc seed=7\n# dropped 0\n"
COLUMNS = "pair_id,kind,t,delta_R,delta_F,phi,delta_finite,flags\n"
GOOD_ROW = "1,random_random,,0.1,0.01,0.0,,\n"


def power_law_records(n):
    """Columns and n records with delta_R = sqrt(delta_F), which fit."""
    rows = [COLUMNS.strip()]
    for i, df in enumerate(np.geomspace(1e-6, 1e-1, n)):
        rows.append("%d,random_random,,%r,%r,0.0,," % (i, float(np.sqrt(df)), float(df)))
    return "\n".join(rows) + "\n"


def test_fit_on_exact_power_law(tmp_path):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(power_law_records(40))
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 0
    body = json.loads(out.read_text().split("\n", 1)[1])
    assert abs(body["theta"] - 0.5) <= 1e-6
    assert body["records_used"] == 40
    assert body["dropped"] == 0


def test_fit_on_header_only_records_exits_1(tmp_path, capsys):
    """A records file whose every record was dropped has a header and no
    data rows; fitting it fails with a named error and writes nothing."""
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(
        "# holderlab 0.1.0 config=abc seed=7\n# dropped 3\n"
        "pair_id,kind,t,delta_R,delta_F,phi,delta_finite,flags\n"
    )
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 1
    assert "InsufficientSpread" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["", "# holderlab 0.1.0 config=abc seed=7\n# dropped 3\n"], ids=["empty", "comments"]
)
def test_fit_on_records_without_column_header_exits_1(tmp_path, capsys, text):
    """An empty or comment-only records file has no data rows either:
    the same named error as a header-only one, not a config error."""
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(text)
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 1
    assert "InsufficientSpread" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        (RECORDS_HEAD + COLUMNS + GOOD_ROW + "0,random_random,,abc,0.1,0.0,,\n", 5),
        (RECORDS_HEAD + COLUMNS + "\n" + "0,random_random,,0.1\n", 5),
        ("# dropped x\n" + COLUMNS + GOOD_ROW, 1),
        (RECORDS_HEAD.replace("dropped 0", "dropped -5") + COLUMNS + GOOD_ROW, 2),
        (RECORDS_HEAD + "# dropped 5\n" + COLUMNS + GOOD_ROW, 3),
    ],
    ids=["non-numeric", "short-row", "dropped-count", "negative-dropped", "second-dropped"],
)
def test_fit_on_malformed_records_exits_2_naming_the_line(tmp_path, capsys, text, line):
    """A malformed records row is a config error naming the file and the
    line, and no fit is written."""
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(text)
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 2
    assert "records file %s line %d:" % (csv_path, line) in capsys.readouterr().err
    assert not out.exists()


def test_fit_on_infinite_distance_exits_1_naming_the_record(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(power_law_records(10) + "10,random_random,,0.5,inf,0.0,,\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 1
    assert "DegenerateSample: record 10 " in capsys.readouterr().err
    assert not out.exists()


def test_fit_on_nan_distance_exits_1_naming_the_record(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(power_law_records(10) + "10,random_random,,nan,0.5,0.0,,\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(csv_path), "--out", str(out)]) == 1
    assert "DegenerateSample: record 10 " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_outputs_exit_2_naming_the_field(tmp_path, capsys):
    """An output path under a regular file cannot be made: the config
    error names output_dir, or --out for fit, and the path."""
    afile = tmp_path / "afile"
    afile.write_text("")
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["output_dir"] = str(afile / "sub")
    path.write_text(json.dumps(cfg))
    assert main(["mesh", str(path)]) == 2
    err = capsys.readouterr().err
    assert "(field output_dir)" in err and str(afile / "sub") in err

    csv_path = tmp_path / "records.csv"
    csv_path.write_text(power_law_records(10))
    assert main(["fit", str(csv_path), "--out", str(afile / "fit.json")]) == 2
    err = capsys.readouterr().err
    assert "(field --out)" in err and str(afile / "fit.json") in err


def test_fit_report_carries_sweep_header(tmp_path):
    path = write_config(tmp_path)
    assert main(["sweep", str(path)]) == 0
    records_path = tmp_path / "out" / "records.csv"
    assert main(["fit", str(records_path)]) == 0
    fit_head = (tmp_path / "out" / "fit.json").read_text().splitlines()[0]
    sweep_head = records_path.read_text().splitlines()[0]
    assert fit_head == sweep_head


def test_select_writes_pairs_within_dim(tmp_path):
    path = write_config(tmp_path)
    assert main(["select", str(path)]) == 0
    lines = (tmp_path / "out" / "selection.csv").read_text().splitlines()
    assert lines[2] == "i,j"
    pairs = [tuple(map(int, ln.split(","))) for ln in lines[3:]]
    assert pairs
    # bottom patch on an 8-subdivision mesh gives an 8-current basis
    assert all(0 <= i <= j < 8 for i, j in pairs)


def test_counterexample_table_has_both_maps(tmp_path):
    path = write_config(tmp_path, {"counterexample": {"n_points": 5}})
    assert main(["counterexample", str(path)]) == 0
    text = (tmp_path / "out" / "counterexample.csv").read_text()
    assert text.count("\nflat,") == 5
    assert text.count("\ncubic,") == 5


def test_counterexample_underflow_exits_2_naming_t_lo(tmp_path, capsys):
    """At t_lo 0.02 the flat map's F underflows to 0, and at 0.037 to a
    subnormal float: a config error naming counterexample.t_lo, and no
    file with nan or inexact slopes."""
    for t_lo in (0.02, 0.037):
        root = tmp_path / str(t_lo)
        root.mkdir()
        path = write_config(root, {"counterexample": {"t_lo": t_lo}})
        assert main(["counterexample", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error (field counterexample.t_lo): F(%r) underflows" % t_lo
        )
        assert not (root / "out").exists()


def test_counterexample_coincident_points_exit_2_naming_t_lo(tmp_path, capsys):
    """t_lo and t_hi one float apart give repeated sample points: a
    config error naming counterexample.t_lo, not a file of nan slopes."""
    path = write_config(tmp_path, {"counterexample": {"t_lo": 0.5, "t_hi": 0.5000000000000001}})
    assert main(["counterexample", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error (field counterexample.t_lo): sample point 0.5 repeats"
    )
    assert not (tmp_path / "out").exists()


def test_module_runs_as_script(tmp_path):
    path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "holderlab.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 7


def test_cli_pins_blas_threads_unless_set():
    code = (
        "import holderlab.cli, os; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    )
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }

    def child_sees(extra):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, **extra},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert child_sees({}) == ["1", "1"]
    assert child_sees({"OPENBLAS_NUM_THREADS": "2"}) == ["2", "1"]


def test_mesh_and_fit_load_no_process_pool(tmp_path):
    """Only a sweep on worker processes imports multiprocessing; a fresh
    process running mesh and fit never loads it."""
    path = write_config(tmp_path)
    records = tmp_path / "records.csv"
    rows = ["pair_id,kind,t,delta_R,delta_F,phi,delta_finite,flags"]
    rows += ["%d,random_random,,%r,%r,0.0,," % (i, 2.0 * df, df) for i, df in enumerate([1e-6, 1e-3, 1e-1])]
    records.write_text("\n".join(rows) + "\n")
    code = (
        "import sys; from holderlab.cli import main; "
        "assert main(['mesh', %r]) == 0; assert main(['fit', %r]) == 0; "
        "print([m for m in sys.modules if m.startswith('multiprocessing')])"
    ) % (str(path), str(records))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


PROBLEM_COMMANDS = ["forward", "derivcheck", "sweep", "select", "validate"]


@pytest.mark.parametrize("command", PROBLEM_COMMANDS)
def test_probe_k_above_basis_dimension_exits_2(tmp_path, capsys, monkeypatch, command):
    """probe_k 40 on the 8-current basis of n_sub=8 is a config error
    naming the field and the dimension, raised before any forward and
    before any output is written; validate, which solves nothing,
    rejects it too."""
    from holderlab import conductivity as cd

    def no_forward(problem, cells):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(cd, "nd_matrix", no_forward)
    path = write_config(tmp_path, {"probe_k": 40})
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error (field probe_k): must be at most the basis dimension 8\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", PROBLEM_COMMANDS)
def test_non_identifiable_config_exits_1_before_any_solve(tmp_path, capsys, monkeypatch, command):
    """Conductivity with 4x4 cells at n_sub=8 has 48 cell parameters and
    a map of 8 * 9 / 2 = 36 entries, so no data determine every cell:
    NotIdentifiable naming m, k and the mesh fields, exit 1, before any
    forward and before any output is written. Recovering a proper
    subset of the cells needs no injective map, so that config runs."""
    from holderlab import conductivity as cd

    def no_forward(problem, cells):
        raise AssertionError("a forward ran")

    mesh = {"n_sub": 8, "grid_cols": 4, "grid_rows": 4}
    monkeypatch.setattr(cd, "nd_matrix", no_forward)
    path = write_config(tmp_path, {"mesh": mesh})
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "NotIdentifiable: 48 cell parameters exceed the 36 entries of a map of basis "
        "dimension 8 (mesh.n_sub 8, mesh.grid_cols 4, mesh.grid_rows 4)\n"
    )
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    path = write_config(tmp_path, {"mesh": mesh, "recovered_cells": [1, 2]})
    assert main([command, str(path)]) == 0


def test_stability_imports_neither_problem_module():
    """Only the command line maps a config to a problem class: the
    sweep module reads everything from the built problem it is given."""
    code = "import sys, holderlab.stability; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "holderlab.stability" in loaded
    assert not {"holderlab.conductivity", "holderlab.elasticity"} & loaded


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(path), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--bins", "1"), ("--bins", "0"), ("--slack", "-1"), ("--slack", "nan"), ("--slack", "inf")],
)
def test_bad_fit_flags_exit_2(tmp_path, capsys, flag, value):
    path = write_config(tmp_path)
    assert main(["sweep", str(path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(tmp_path / "out" / "records.csv"), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()


def table_fields(table=FIELDS, prefix=""):
    """(dotted name, Field) for every field of the config table."""
    for name, spec in table.items():
        if isinstance(spec, dict):
            yield from table_fields(spec, prefix + name + ".")
        else:
            yield prefix + name, spec


def test_readme_config_surface_names_every_field():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Full config surface", 1)[1].split("```")[1]
    named = [ln.split()[0] for ln in block.splitlines() if ln and not ln[0].isspace()]
    assert sorted(named) == sorted(name for name, _ in table_fields())


def test_readme_library_example_runs():
    """README's python block runs as written, so the documented library
    API cannot drift from the code."""
    root = pathlib.Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


@st.composite
def valid_configs(draw):
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    raw = {
        "problem": draw(st.sampled_from(tuple(PROBLEMS))),
        "seed": draw(st.integers(0, 2**64)),
        "mesh": {
            "n_sub": cols * rows * draw(st.integers(1, 4)),
            "grid_cols": cols,
            "grid_rows": rows,
        },
    }
    cells = st.permutations(range(1, cols * rows + 1)).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k]))
    )
    # each range keeps clear of the other end's default, so every draw
    # is a valid config
    optional = {
        ("mesh", "side"): st.sampled_from(mx.SIDES),
        ("mesh", "t0"): st.floats(0.0, 0.4) | st.just(0),
        ("mesh", "t1"): st.floats(0.5, 1.0) | st.just(1),
        ("compact_set", "lambda_lo"): st.floats(1e-3, 0.5),
        ("compact_set", "lambda_hi"): st.floats(2.0, 10.0) | st.integers(2, 10),
        ("sweep", "n_rays"): st.integers(0, 50),
        ("sweep", "t_min"): st.floats(1e-12, 1e-6),
        ("sweep", "t_max"): st.floats(0.1, 1.0) | st.just(1),
        ("select", "target_ratio"): st.floats(1e-3, 1.0),
        ("select", "max_size"): st.none() | st.integers(1, 100),
        ("fit", "n_bins"): st.integers(2, 20),
        ("fit", "slack"): st.floats(0.0, 1.0) | st.just(0),
        ("counterexample", "t_hi"): st.floats(0.5, 1.0),
        ("counterexample", "tol"): st.floats(1e-16, 1e-8),
        ("derivcheck", "steps"): st.lists(
            st.floats(1e-8, 1e-2) | st.integers(1, 3), min_size=1, max_size=4
        ),
        (None, "recovered_cells"): st.none() | cells,
        (None, "probe_k"): st.none() | st.integers(1, 20),
        (None, "output_dir"): st.sampled_from([".", "out", "a/b"]),
    }
    for (section, name), values in optional.items():
        if draw(st.booleans()):
            target = raw if section is None else raw.setdefault(section, {})
            target[name] = draw(values)
    return raw


@settings(max_examples=50, deadline=None)
@given(valid_configs())
def test_normalize_is_idempotent_and_hash_stable(raw):
    cfg = normalize_config(raw)
    again = normalize_config(json.loads(json.dumps(cfg)))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    assert normalize_config(raw) == cfg


CHOICES = {"problem": tuple(PROBLEMS), "mesh.side": mx.SIDES}


def accepts(name, value):
    """Whether a field takes one of the values drawn as wrong-typed: null
    for the nullable fields, strings for the path and the choices."""
    if value is None:
        return dict(table_fields())[name].default is None
    return (name == "output_dir" and value != "") or value in CHOICES.get(name, ())


wrong_values = st.one_of(
    st.text(max_size=8),
    st.booleans(),
    st.lists(st.text(max_size=3) | st.booleans() | st.none(), max_size=3),
    st.none(),
    st.just(math.nan),
)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(name for name, _ in table_fields())), wrong_values)
def test_wrong_typed_field_is_rejected_by_name(name, value):
    assume(not accepts(name, value))
    raw = json.loads(json.dumps(BASE))
    section, _, key = name.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    with pytest.raises(ConfigError) as err:
        normalize_config(raw)
    assert err.value.field == name


records = st.lists(
    st.builds(
        sl.StabilityRecord,
        pair_id=st.integers(0, 10**9),
        kind=st.sampled_from(["random_random", "near_diagonal"]),
        t=st.none() | st.floats(allow_nan=False),
        delta_R=st.floats(allow_nan=False),
        delta_F=st.floats(allow_nan=False),
        phi=st.floats(allow_nan=False),
        delta_finite=st.none() | st.floats(allow_nan=False),
        flags=st.lists(st.sampled_from(["injectivity_violation", "other"])).map(tuple),
    ),
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(records, st.integers(0, 1000))
def test_records_csv_roundtrip_is_exact(recs, dropped):
    head = header_line("0123456789ab", 17)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        with open(path, "w") as f:
            f.write(head + "\n" + records_csv(sl.SweepResult(recs, dropped, [])))
        got, tokens, got_dropped = parse_records_csv(path)
    assert got == recs
    assert tokens == {"config": "0123456789ab", "seed": "17"}
    assert got_dropped == dropped
