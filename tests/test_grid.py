import argparse
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

from helpers import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_grid():
    spec = importlib.util.spec_from_file_location("grid", ROOT / "bench" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def test_grid_parses_a_list_of_thread_counts():
    """--threads is a comma-separated list of counts of at least 1, in
    the order given."""
    grid = load_grid()
    assert grid.parse_threads("1") == [1]
    assert grid.parse_threads("1,2") == [1, 2]
    assert grid.parse_threads(" 4, 1 ") == [4, 1]
    for bad in ("", "0", "1,", "1,-2", "two", "1.5"):
        with pytest.raises(SystemExit, match="bad --threads"):
            grid.parse_threads(bad)


def test_grid_parses_a_partition_grid():
    """--grid is COLSxROWS with both at least 1."""
    grid = load_grid()
    assert grid.parse_grid("2x1") == (2, 1)
    assert grid.parse_grid(" 4x4 ") == (4, 4)
    for bad in ("", "2", "2x", "x2", "0x1", "2x0", "2x-1", "2*2", "2X2", "1.5x1", "2x2x2", "２x2"):
        with pytest.raises(argparse.ArgumentTypeError, match="bad grid"):
            grid.parse_grid(bad)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", "2by2"], "argument --grid: bad grid '2by2'"),
        (["--grid", "0x1"], "argument --grid: bad grid '0x1'"),
        (
            ["--grid", "3x1", "--cells", "conductivity:6,elasticity:16"],
            r"3x1 does not divide n_sub \[16\]",
        ),
        (["--grid", "1x3"], r"1x3 does not divide n_sub \[16, 32, 64\]"),
    ],
    ids=["malformed", "zero", "uneven", "uneven-default-cells"],
)
def test_grid_exits_through_the_parser_on_a_bad_grid(monkeypatch, tmp_path, capsys, argv, message):
    """A malformed grid, or one that does not divide every n_sub of
    --cells, the default cells included, exits through the parser
    before any child starts or any file is made."""
    grid = load_grid()
    monkeypatch.setattr(grid.subprocess, "Popen", None)
    monkeypatch.setattr(grid.subprocess, "run", None)
    out = tmp_path / "out"
    base = ["--before", ".", "--after", ".", "--label", "x", "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        grid.main(base + argv)
    assert info.value.code == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_grid_runs_one_tree_twice_with_identical_outputs(tmp_path):
    """bench/grid.py on n_sub 4, the repository given as both trees:
    the BENCH file has every run, the environment read after importing
    holderlab.cli, the cells left out, and outputs that all compare
    equal, mesh's too, which takes no --threads. --out names a directory
    that does not exist yet."""
    out = tmp_path / "new" / "dir"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "grid.py"),
            "--before", str(ROOT), "--after", str(ROOT), "--label", "smoke",
            "--cells", "conductivity:4,elasticity:4", "--commands", "sweep,fit,select,mesh",
            "--out", str(out),
        ],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    bench = json.loads((out / "BENCH_smoke.json").read_text())
    assert set(bench) >= {"label", "kind", "setup", "trees", "platform", "results"}
    assert len(bench["setup"]["left_out"]) == 6
    for side in ("before", "after"):
        env = bench["trees"][side]["env"]
        assert {"python", "numpy", "scipy", "nproc", "openblas"} <= set(env)
        assert all(lib["threads"] == 1 for lib in env["openblas"])
    assert bench["setup"]["threads"] == [1]
    assert set(bench["results"]) == {"conductivity-4-threads-1", "elasticity-4-threads-1"}
    for entry in bench["results"].values():
        assert entry["outputs_identical"] == {"sweep": True, "fit": True, "select": True, "mesh": True}
        for side in ("before", "after"):
            for command in ("sweep", "fit", "select", "mesh"):
                run = entry[side][command]
                assert run["exit"] == [0]
                assert run["wall_median_s"] > 0.0 and run["peak_rss_median_mb"] > 0.0
