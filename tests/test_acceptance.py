"""Acceptance gate: nine pinned criteria, one test per criterion.

Each test prints a single summary line; the pytest -v status line is
the pass/fail verdict. Tolerances are fixed here and not tuned to the
implementation.
"""

import json
import time

import numpy as np
import pytest

from holderlab import conductivity as cd
from holderlab import elasticity as el
from holderlab import stability as sl
from holderlab.cli import main
from holderlab.mesh import build_mesh
from holderlab.numerics import spectral_norm
from holderlab.operators import operator_distance, whiten
from holderlab.scalarization import (
    finite_distances,
    greedy_select,
    phi,
    probe_weights,
    triangle_dim,
)

from helpers import eig_min

SEED = 1729
FULL_BOTTOM = ("bottom", 0.0, 1.0)  # side, t0, t1
FLAT_TS = np.array([0.05, 0.07, 0.1, 0.14, 0.2, 0.28, 0.4])
BOUNDS = (0.5, 2.0)  # lambda_lo, lambda_hi


def points(problem, count, stream=0):
    """The first `count` parameter points of a stream, seed SEED."""
    return [sl.sample_point(problem, *BOUNDS, SEED, stream, i) for i in range(count)]


def rel_gap(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.fixture(scope="module")
def small_mesh():
    return build_mesh(8, 2, 1, *FULL_BOTTOM)


@pytest.fixture(scope="module")
def conductivity_sweep():
    """2-cell, n_sub=16, full bottom patch, (0.5, 2) ellipticity class,
    200 random pairs plus 20 rays of 20 steps. Shared by the sweep,
    finite-measurement, and timing checks."""
    mesh = build_mesh(16, 2, 1, *FULL_BOTTOM)
    start = time.perf_counter()
    result = sl.sweep(
        cd.NDProblem(mesh),
        *BOUNDS,
        (1, 2),
        200,
        20,
        sl.default_ray_steps(20),
        SEED,
        differences=True,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_scaling_identities():
    start = time.perf_counter()
    worst = 0.0
    for n_sub in (4, 8):
        mesh = build_mesh(n_sub, 2, 1, *FULL_BOTTOM)
        cp = cd.NDProblem(mesh)
        ep = el.DNProblem(mesh)
        pc = points(cp, 1)[0]
        pe = points(ep, 1)[0]
        base_c = cp.forward(pc)
        base_e = ep.forward(pe)
        for t in (0.5, 2.0, 10.0):
            scaled_c = cp.forward(t * pc)
            scaled_e = ep.forward(t * pe)
            worst = max(worst, rel_gap(scaled_c, base_c / t), rel_gap(scaled_e, t * base_e))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    print("criterion 1 PASS: scaling identities, worst rel err %.2e in %.2fs" % (worst, elapsed))


def test_criterion_2_symmetry_and_psd(small_mesh):
    cp = cd.NDProblem(small_mesh)
    ep = el.DNProblem(small_mesh)
    worst_sym = 0.0
    worst_ratio = 0.0
    draws = [
        (points(cp, 50), cp),
        (points(ep, 50), ep),
    ]
    for params, problem in draws:
        for p in params:
            m = problem.forward(p)
            worst_sym = max(worst_sym, np.abs(m - m.T).max() / np.abs(m).max())
            worst_ratio = min(worst_ratio, eig_min(m) / spectral_norm(m))
    assert worst_sym <= 1e-12
    assert worst_ratio >= -1e-10
    print(
        "criterion 2 PASS: 100 operators symmetric (%.1e) and PSD (eig_min/norm >= %.1e)"
        % (worst_sym, worst_ratio)
    )


def test_criterion_3_derivative_checks(small_mesh):
    cp = cd.NDProblem(small_mesh)
    ep = el.DNProblem(small_mesh)
    summaries = []
    for kind, problem in (("conductivity", cp), ("elasticity", ep)):
        p = points(problem, 1)[0]
        d = sl.sample_direction(problem, SEED)
        if kind == "conductivity":
            forward = cp.forward
            deriv = cp.derivative(p, d)
            radial_gap = rel_gap(cp.derivative(p, p), -forward(p))
        else:
            forward = ep.forward
            deriv = ep.derivative(p, d)
            radial_gap = rel_gap(ep.derivative(p, p), forward(p))
        scale = np.abs(deriv).max()
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (forward(p + h * d) - forward(p - h * d)) / (2.0 * h)
            errs.append(float(np.abs(fd - deriv).max() / scale))
        # second-order convergence observed on the truncation-dominated
        # steps; the smallest step only has to keep improving
        slope = np.log10(errs[0] / errs[1])
        assert errs[1] <= 1e-5
        assert 1.8 <= slope <= 2.2
        assert errs[2] < errs[1] < errs[0]
        assert radial_gap <= 1e-10
        summaries.append("%s err@1e-4=%.1e slope=%.2f radial=%.1e" % (kind, errs[1], slope, radial_gap))
    print("criterion 3 PASS: " + "; ".join(summaries))


def test_criterion_4_faithfulness(small_mesh):
    cp = cd.NDProblem(small_mesh)
    k = cp.k
    w = probe_weights(k)
    bound_const = float(np.sum(w**2)) ** 2
    ps = points(cp, 100, stream=1)
    qs = points(cp, 100, stream=2)
    for p, q in zip(ps, qs):
        a = cp.forward(p)
        b = cp.forward(q)
        d = whiten(cp.whitener, a - b)
        dist = operator_distance(d)
        value = phi(d, w)
        assert dist > 0.0 and value > 0.0
        assert value <= bound_const * dist**2 * (1.0 + 1e-12)
    for p in ps[:10]:
        a = cp.forward(p)
        b = cp.forward(p)
        d = whiten(cp.whitener, a - b)
        assert operator_distance(d) == 0.0
        assert phi(d, w) == 0.0
    print("criterion 4 PASS: phi=0 iff zero distance on 110 pairs, HS bound everywhere")


def test_criterion_5_fit_calibration():
    start = time.perf_counter()
    d_f = np.geomspace(1e-6, 1e-1, 200)
    exact = sl.fit_holder(np.sqrt(d_f), d_f)
    _, control_fit = sl.analytic_control(np.geomspace(0.05, 0.5, 11))
    elapsed = time.perf_counter() - start
    assert abs(exact.theta - 0.5) <= 1e-6
    assert 0.30 <= control_fit.theta <= 0.37
    assert elapsed < 5.0
    print(
        "criterion 5 PASS: exact power law theta=%.8f, cubic toy theta=%.4f in %.2fs"
        % (exact.theta, control_fit.theta, elapsed)
    )


def test_criterion_6_counterexample_discrimination():
    ts, fs, slopes = (column.tolist() for column in sl.flat_counterexample(FLAT_TS))
    (_, _, cubic_slopes), _ = sl.analytic_control(FLAT_TS)
    for f, t in zip(fs, FLAT_TS):
        assert f <= t * np.exp(-1.0 / t**2)
    slope_at_01 = next(s for t, s in zip(ts, slopes) if t == 0.1)
    assert slope_at_01 > 100.0
    worst_cubic = max(abs(s - 3.0) for s in cubic_slopes.tolist())
    assert worst_cubic <= 1e-10
    print(
        "criterion 6 PASS: flat slope at t=0.1 is %.1f, cubic slopes within %.1e of 3"
        % (slope_at_01, worst_cubic)
    )


def test_criterion_7_conductivity_sweep(conductivity_sweep):
    result, elapsed = conductivity_sweep
    d_r, d_f = result.delta_R, result.delta_F
    assert len(d_r) == 200 + 20 * 20
    assert sl.injectivity_probe(d_r, d_f, 1e-8) == []
    fit = sl.fit_holder(d_r, d_f)
    assert fit.theta > 0.05
    x = np.log(d_f)
    y = np.log(d_r)
    excess = y - (fit.theta * x + fit.log_C)
    assert excess.max() <= fit.slack + 1e-12
    assert elapsed < 300.0
    print(
        "criterion 7 PASS: %d records, no injectivity violations, theta=%.4f, "
        "post-lift excess %.1e <= slack, sweep %.1fs"
        % (len(d_r), fit.theta, excess.max() - fit.slack, elapsed)
    )


def test_criterion_8_finite_measurements(conductivity_sweep):
    result, _ = conductivity_sweep
    d_r, d_f = result.delta_R, result.delta_F
    theta_full = sl.fit_holder(d_r, d_f).theta
    k = triangle_dim(result.differences.shape[1])
    cap = k * (k + 1) // 2
    selection = greedy_select(result.differences, d_f, 0.5, cap)
    assert selection.reached
    assert len(selection.mset) <= cap
    finite = finite_distances(result.differences, selection.columns)
    theta_finite = sl.fit_holder(d_r, finite).theta
    assert theta_finite >= 0.8 * theta_full
    print(
        "criterion 8 PASS: %d measurements reach ratio %.3f (cap %d), "
        "theta_finite=%.4f >= 0.8*%.4f"
        % (len(selection.mset), selection.achieved_ratio, cap, theta_finite, theta_full)
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "problem": "conductivity",
        "seed": SEED,
        "mesh": {"n_sub": 16, "grid_cols": 2, "grid_rows": 1},
        "output_dir": None,
    }
    outputs = {}
    for run, threads in (("a", "1"), ("b", "3")):
        out_dir = tmp_path / run
        cfg["output_dir"] = str(out_dir)
        cfg_path = tmp_path / ("cfg_%s.json" % run)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", str(cfg_path), "--threads", threads]) == 0
        assert main(["fit", str(out_dir / "records.csv")]) == 0
        assert main(["select", str(cfg_path), "--threads", "2" if run == "b" else "1"]) == 0
        outputs[run] = {
            name: (out_dir / name).read_bytes()
            for name in ("records.csv", "fit.json", "selection.csv")
        }
    assert outputs["a"] == outputs["b"]
    theta = json.loads((tmp_path / "a" / "fit.json").read_text().split("\n", 1)[1])["theta"]
    print(
        "criterion 9 PASS: records/fit/selection byte-identical across thread "
        "counts, theta=%.4f" % theta
    )
