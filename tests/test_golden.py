"""Golden check: small pinned sweeps, fits, selections, forward maps
and derivative checks of both problems against committed outputs, so
a refactor of the solver stack can show it changes no number beyond
rounding.

Each tests/golden/<problem>/ holds the config and the records.csv,
selection.csv, operator.csv and derivcheck.csv it produced, and the
fit.json of fitting that records.csv;
tests/golden/conductivity/ also holds the counterexample.csv of the
flat and cubic maps, which read no problem. Regenerate (only when
outputs change on purpose) from the repository root with

    PYTHONPATH=src python -m holderlab.cli sweep tests/golden/<problem>/config.json
    PYTHONPATH=src python -m holderlab.cli fit tests/golden/<problem>/records.csv
    PYTHONPATH=src python -m holderlab.cli select tests/golden/<problem>/config.json
    PYTHONPATH=src python -m holderlab.cli forward tests/golden/<problem>/config.json
    PYTHONPATH=src python -m holderlab.cli derivcheck tests/golden/<problem>/config.json
    PYTHONPATH=src python -m holderlab.cli counterexample tests/golden/conductivity/config.json
"""

import json
from pathlib import Path

import pytest

from holderlab.cli import main, parse_records_csv, records_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
# Relative tolerances of the benchmark's reference check: a ray
# record's operator distances are differences of two near-equal
# operators, whose rounding error grows like 1/t.
RAY_TOL_T = 3e-11
PAIR_TOL = 1e-10
# Relative tolerance of a selection's achieved ratio and of a fit's
# floats, the benchmark's tolerance on summary numbers.
SUMMARY_TOL = 2e-8
# Tolerance of a forward-map entry, relative to the largest entry.
OPERATOR_TOL = 1e-13
# Rounding of the forward map relative to the derivative's scale: a
# difference quotient with step h amplifies it by 1/h, so a derivcheck
# error may move by DERIV_ROUND / h, and the radial identity error,
# which subtracts no nearby maps, by DERIV_ROUND.
DERIV_ROUND = 1e-14
# Relative tolerance of a counterexample F. Its rounding error is what
# may move: x = 1/t^2 rounds twice, which moves exp(-x) by up to
# x * 2.2e-16 relative, 9e-14 at the table's smallest t (x = 400), and
# the continued fraction stops within 1e-14 of its value.
FLAT_TOL = 1e-12
# A local slope divides the difference of two logarithms, each moved by
# at most FLAT_TOL, by a log-t spacing of at least ln(10)/10 = 0.23 on
# the default table: 8.7e-12.
SLOPE_TOL = 1e-11


def read_records(path):
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    return comments, header, [dict(zip(header, row)) for row in body]


def rel_err(got, want):
    got, want = float(got), float(want)
    return abs(got - want) / abs(want) if want else abs(got)


def write_config(folder, tmp_path):
    cfg = json.loads((folder / "config.json").read_text())
    cfg["output_dir"] = str(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_sweep_matches_golden_records(problem, tmp_path):
    folder = GOLDEN / problem
    assert main(["sweep", str(write_config(folder, tmp_path))]) == 0

    want_comments, want_header, want = read_records(folder / "records.csv")
    got_comments, got_header, got = read_records(tmp_path / "records.csv")
    assert got_comments == want_comments  # version, config hash, seed, dropped
    assert got_header == want_header
    assert len(got) == len(want)
    worst = 0.0
    for g, w in zip(got, want):
        for field in ("pair_id", "kind", "t", "delta_R", "delta_finite", "flags"):
            assert g[field] == w[field], (w["pair_id"], field)
        tol = RAY_TOL_T / float(w["t"]) if w["t"] else PAIR_TOL
        for field in ("delta_F", "phi"):
            err = rel_err(g[field], w[field])
            assert err <= tol, (w["pair_id"], field, err, tol)
            worst = max(worst, err / tol)
    print("%s golden: %d records, worst shift %.1e of tolerance" % (problem, len(got), worst))


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_golden_records_survive_parse_and_write(problem):
    """records_csv writes the parsed committed records.csv back byte
    for byte, all but its header line."""
    path = GOLDEN / problem / "records.csv"
    records, _ = parse_records_csv(str(path))
    assert records_csv(records) == path.read_text().split("\n", 1)[1]


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_fit_matches_golden_fit(problem, tmp_path):
    """The fit of the committed records.csv, checked as the benchmark
    checks a fit: the header line and the integer, boolean and null
    values exactly, the floats within SUMMARY_TOL."""
    folder = GOLDEN / problem
    out = tmp_path / "fit.json"
    assert main(["fit", str(folder / "records.csv"), "--out", str(out)]) == 0

    want_head, _, want = (folder / "fit.json").read_text().partition("\n")
    got_head, _, got = out.read_text().partition("\n")
    want, got = json.loads(want), json.loads(got)
    assert got_head == want_head  # version, config hash, seed
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert rel_err(got[key], value) <= SUMMARY_TOL, (key, got[key], value)
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_select_matches_golden_selection(problem, tmp_path):
    folder = GOLDEN / problem
    assert main(["select", str(write_config(folder, tmp_path))]) == 0

    want = (folder / "selection.csv").read_text().splitlines()
    got = (tmp_path / "selection.csv").read_text().splitlines()
    assert got[0] == want[0]  # version, config hash, seed
    # "# achieved_ratio <r> reached <bool> size <m>": all but <r> exactly
    summary, want_summary = got[1].split(), want[1].split()
    assert summary[:2] + summary[3:] == want_summary[:2] + want_summary[3:]
    assert rel_err(summary[2], want_summary[2]) <= SUMMARY_TOL
    assert got[2:] == want[2:]  # column header and the chosen pairs, in order


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_forward_matches_golden_operator(problem, tmp_path):
    folder = GOLDEN / problem
    assert main(["forward", str(write_config(folder, tmp_path))]) == 0

    want = (folder / "operator.csv").read_text().splitlines()
    got = (tmp_path / "operator.csv").read_text().splitlines()
    assert got[:2] == want[:2]  # version, config hash, seed; kind and dim
    assert len(got) == len(want)
    m_want = [[float(v) for v in row.split(",")] for row in want[2:]]
    m_got = [[float(v) for v in row.split(",")] for row in got[2:]]
    scale = max(abs(v) for row in m_want for v in row)
    for i, (g_row, w_row) in enumerate(zip(m_got, m_want)):
        assert len(g_row) == len(w_row), i
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            assert abs(g - w) <= OPERATOR_TOL * scale, (i, j, g, w)


@pytest.mark.parametrize("problem", ["conductivity", "elasticity"])
def test_derivcheck_matches_golden_errors(problem, tmp_path):
    folder = GOLDEN / problem
    assert main(["derivcheck", str(write_config(folder, tmp_path))]) == 0

    want = (folder / "derivcheck.csv").read_text().splitlines()
    got = (tmp_path / "derivcheck.csv").read_text().splitlines()
    assert got[:2] == want[:2]  # version, config hash, seed; column header
    assert len(got) == len(want)
    for g, w in zip(got[2:-1], want[2:-1]):
        (g_h, g_err), (w_h, w_err) = g.split(","), w.split(",")
        assert g_h == w_h
        assert abs(float(g_err) - float(w_err)) <= DERIV_ROUND / float(w_h), (w_h, g_err, w_err)
    # "# radial_identity_rel_err <e>"
    g_label, g_err = got[-1].rsplit(" ", 1)
    w_label, w_err = want[-1].rsplit(" ", 1)
    assert g_label == w_label
    assert abs(float(g_err) - float(w_err)) <= DERIV_ROUND, (g_err, w_err)


def test_counterexample_matches_golden_table(tmp_path):
    folder = GOLDEN / "conductivity"
    assert main(["counterexample", str(write_config(folder, tmp_path))]) == 0

    want = (folder / "counterexample.csv").read_text().splitlines()
    got = (tmp_path / "counterexample.csv").read_text().splitlines()
    assert got[:2] == want[:2]  # version, config hash, seed; column header
    assert len(got) == len(want)
    for g, w in zip(got[2:-1], want[2:-1]):
        (g_map, g_t, g_f, g_slope), (w_map, w_t, w_f, w_slope) = g.split(","), w.split(",")
        assert (g_map, g_t) == (w_map, w_t)
        assert rel_err(g_f, w_f) <= FLAT_TOL, (w_map, w_t, g_f, w_f)
        assert abs(float(g_slope) - float(w_slope)) <= SLOPE_TOL, (w_map, w_t, g_slope, w_slope)
    # "# cubic_fit_theta <theta>"
    g_label, g_theta = got[-1].rsplit(" ", 1)
    w_label, w_theta = want[-1].rsplit(" ", 1)
    assert g_label == w_label
    assert rel_err(g_theta, w_theta) <= SUMMARY_TOL
