import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_grid_runs_one_tree_twice_with_identical_outputs(tmp_path):
    """bench/grid.py on n_sub 4, the repository given as both trees:
    the BENCH file has every run, the environment read after importing
    holderlab.cli, the cells left out, and outputs that all compare
    equal."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "grid.py"),
            "--before", str(ROOT), "--after", str(ROOT), "--label", "smoke",
            "--cells", "conductivity:4,elasticity:4", "--commands", "sweep,fit,select",
            "--out", str(tmp_path),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(bench) >= {"label", "kind", "setup", "trees", "platform", "results"}
    assert len(bench["setup"]["left_out"]) == 6
    for side in ("before", "after"):
        env = bench["trees"][side]["env"]
        assert {"python", "numpy", "scipy", "nproc", "openblas"} <= set(env)
        assert all(lib["threads"] == 1 for lib in env["openblas"])
    assert set(bench["results"]) == {"conductivity-4", "elasticity-4"}
    for entry in bench["results"].values():
        assert entry["outputs_identical"] == {"sweep": True, "fit": True, "select": True}
        for side in ("before", "after"):
            for command in ("sweep", "fit", "select"):
                run = entry[side][command]
                assert run["exit"] == [0]
                assert run["wall_median_s"] > 0.0 and run["peak_rss_median_mb"] > 0.0
