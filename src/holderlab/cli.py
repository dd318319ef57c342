"""Configuration-driven command line for reproducible experiments.

Configs are JSON with nested sections; every run is a pure function of
(config, seed), and every output file starts with a comment line
recording the tool version, the hash of the normalized config, and the
seed. Exit codes: 0 success, 1 runtime numerical failure (the message
names the originating error), 2 config validation failure.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys

# One BLAS thread per sweep worker: --threads sets the parallelism, and
# OpenBLAS reads these variables once, when numpy and scipy load their
# copies of it. An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import mesh as mx
from . import stability as sl
from .errors import ConfigError, HolderLabError
from .scalarization import all_candidate_pairs, greedy_select

_DEFAULTS = {
    "recovered_cells": None,  # all cells
    "probe_k": None,  # basis dimension
    "compact_set": {"lambda_lo": 0.5, "lambda_hi": 2.0},
    "sweep": {
        "n_random_pairs": 200,
        "n_rays": 20,
        "n_ray_steps": 20,
        "t_min": 1e-6,
        "t_max": 1e-1,
    },
    "select": {"target_ratio": 0.5, "max_size": None},  # k*(k+1)/2
    "fit": {"n_bins": 8, "slack": 0.1},
    "counterexample": {"t_lo": 0.05, "t_hi": 0.5, "n_points": 11, "tol": 1e-14},
    "derivcheck": {"steps": [1e-3, 1e-4, 1e-5]},
    "output_dir": ".",
}


def _require(cfg, field, types, where):
    if field not in cfg:
        raise ConfigError("missing required field", field="%s%s" % (where, field))
    value = cfg[field]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(
            "field has wrong type (%s)" % type(value).__name__,
            field="%s%s" % (where, field),
        )
    return value


def load_config(path):
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config is not valid JSON (line %d column %d)" % (exc.lineno, exc.colno)
        )
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def normalize_config(raw):
    """Fill defaults and validate; returns the effective config."""
    cfg = {}
    problem = _require(raw, "problem", str, "")
    if problem not in sl.KINDS:
        raise ConfigError("problem must be one of %s" % (sl.KINDS,), field="problem")
    cfg["problem"] = problem
    cfg["seed"] = _require(raw, "seed", int, "")

    mesh_raw = _require(raw, "mesh", dict, "")
    n_sub = _require(mesh_raw, "n_sub", int, "mesh.")
    cols = mesh_raw.get("grid_cols", 1)
    rows = mesh_raw.get("grid_rows", 1)
    for name, v in (("grid_cols", cols), ("grid_rows", rows)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigError("must be a positive integer", field="mesh." + name)
    if n_sub < 1 or n_sub % cols or n_sub % rows:
        raise ConfigError(
            "n_sub must be positive and divisible by the partition grid",
            field="mesh.n_sub",
        )
    side = mesh_raw.get("side", "bottom")
    if side not in mx.SIDES:
        raise ConfigError("side must be one of %s" % (mx.SIDES,), field="mesh.side")
    t0 = float(mesh_raw.get("t0", 0.0))
    t1 = float(mesh_raw.get("t1", 1.0))
    if not (0.0 <= t0 < t1 <= 1.0):
        raise ConfigError("need 0 <= t0 < t1 <= 1", field="mesh.t0")
    cfg["mesh"] = {
        "n_sub": n_sub,
        "grid_cols": cols,
        "grid_rows": rows,
        "side": side,
        "t0": t0,
        "t1": t1,
    }
    n_cells = cols * rows

    cs = dict(_DEFAULTS["compact_set"])
    cs.update(raw.get("compact_set", {}))
    lo, hi = float(cs["lambda_lo"]), float(cs["lambda_hi"])
    if not (0.0 < lo < hi):
        raise ConfigError("need 0 < lambda_lo < lambda_hi", field="compact_set.lambda_lo")
    cfg["compact_set"] = {"lambda_lo": lo, "lambda_hi": hi}

    cells = raw.get("recovered_cells")
    if cells is None:
        cells = list(range(1, n_cells + 1))
    if (
        not isinstance(cells, list)
        or not cells
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in cells)
    ):
        raise ConfigError("must be a nonempty list of integers", field="recovered_cells")
    if len(set(cells)) != len(cells):
        raise ConfigError("duplicate cell index", field="recovered_cells")
    if min(cells) < 1 or max(cells) > n_cells:
        raise ConfigError(
            "cell index outside 1..%d" % n_cells, field="recovered_cells"
        )
    cfg["recovered_cells"] = sorted(cells)

    sw = dict(_DEFAULTS["sweep"])
    sw.update(raw.get("sweep", {}))
    for name in ("n_random_pairs", "n_rays", "n_ray_steps"):
        v = sw[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ConfigError("must be a nonnegative integer", field="sweep." + name)
    t_min, t_max = float(sw["t_min"]), float(sw["t_max"])
    if not (0.0 < t_min < t_max):
        raise ConfigError("need 0 < t_min < t_max", field="sweep.t_min")
    cfg["sweep"] = {
        "n_random_pairs": sw["n_random_pairs"],
        "n_rays": sw["n_rays"],
        "n_ray_steps": sw["n_ray_steps"],
        "t_min": t_min,
        "t_max": t_max,
    }

    probe_k = raw.get("probe_k", _DEFAULTS["probe_k"])
    if probe_k is not None and (
        not isinstance(probe_k, int) or isinstance(probe_k, bool) or probe_k < 1
    ):
        raise ConfigError("must be null or a positive integer", field="probe_k")
    cfg["probe_k"] = probe_k

    se = dict(_DEFAULTS["select"])
    se.update(raw.get("select", {}))
    ratio = float(se["target_ratio"])
    if not (0.0 < ratio <= 1.0):
        raise ConfigError("must lie in (0, 1]", field="select.target_ratio")
    max_size = se["max_size"]
    if max_size is not None and (
        not isinstance(max_size, int) or isinstance(max_size, bool) or max_size < 1
    ):
        raise ConfigError("must be null or a positive integer", field="select.max_size")
    cfg["select"] = {"target_ratio": ratio, "max_size": max_size}

    ft = dict(_DEFAULTS["fit"])
    ft.update(raw.get("fit", {}))
    n_bins = ft["n_bins"]
    if not isinstance(n_bins, int) or isinstance(n_bins, bool) or n_bins < 2:
        raise ConfigError("must be an integer >= 2", field="fit.n_bins")
    slack = float(ft["slack"])
    if slack < 0:
        raise ConfigError("must be nonnegative", field="fit.slack")
    cfg["fit"] = {"n_bins": n_bins, "slack": slack}

    ce = dict(_DEFAULTS["counterexample"])
    ce.update(raw.get("counterexample", {}))
    t_lo, t_hi = float(ce["t_lo"]), float(ce["t_hi"])
    n_points = ce["n_points"]
    if not (0.0 < t_lo < t_hi <= 1.0):
        raise ConfigError("need 0 < t_lo < t_hi <= 1", field="counterexample.t_lo")
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 3:
        raise ConfigError("must be an integer >= 3", field="counterexample.n_points")
    cfg["counterexample"] = {
        "t_lo": t_lo,
        "t_hi": t_hi,
        "n_points": n_points,
        "tol": float(ce["tol"]),
    }

    dc = dict(_DEFAULTS["derivcheck"])
    dc.update(raw.get("derivcheck", {}))
    steps = dc["steps"]
    if not isinstance(steps, list) or not steps or any(float(h) <= 0 for h in steps):
        raise ConfigError("must be a list of positive steps", field="derivcheck.steps")
    cfg["derivcheck"] = {"steps": [float(h) for h in steps]}

    out = raw.get("output_dir", _DEFAULTS["output_dir"])
    if not isinstance(out, str):
        raise ConfigError("must be a path string", field="output_dir")
    cfg["output_dir"] = out

    for key in raw:
        if key not in cfg:
            raise ConfigError("unknown field", field=key)
    return cfg


def config_hash(cfg):
    """Short hash identifying the experiment; the output destination is
    not part of the identity, so moving results elsewhere keeps the hash."""
    identity = {k: v for k, v in cfg.items() if k != "output_dir"}
    canon = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def header_line(cfg_hash, seed):
    return "# holderlab %s config=%s seed=%s" % (__version__, cfg_hash, seed)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_mesh_from(cfg):
    m = cfg["mesh"]
    return mx.build_mesh(
        m["n_sub"],
        mx.PartitionSpec(m["grid_cols"], m["grid_rows"]),
        mx.PatchSpec(m["side"], m["t0"], m["t1"]),
    )


def build_spec_from(cfg):
    return sl.CompactSetSpec(
        cfg["compact_set"]["lambda_lo"],
        cfg["compact_set"]["lambda_hi"],
        cfg["mesh"]["grid_cols"] * cfg["mesh"]["grid_rows"],
        cfg["problem"],
    )


def _ray_steps(cfg):
    s = cfg["sweep"]
    return np.geomspace(s["t_min"], s["t_max"], s["n_ray_steps"])


def _out_path(cfg, name):
    os.makedirs(cfg["output_dir"], exist_ok=True)
    return os.path.join(cfg["output_dir"], name)


def _write(path, text):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def records_csv(result, head):
    buf = io.StringIO()
    buf.write(head + "\n")
    buf.write("# dropped %d\n" % result.dropped)
    buf.write("pair_id,kind,t,delta_R,delta_F,phi,delta_finite,flags\n")
    for r in result.records:
        buf.write(
            "%d,%s,%s,%s,%s,%s,%s,%s\n"
            % (
                r.pair_id,
                r.kind,
                _fmt(r.t),
                _fmt(r.delta_R),
                _fmt(r.delta_F),
                _fmt(r.phi),
                _fmt(r.delta_finite),
                ";".join(r.flags),
            )
        )
    return buf.getvalue()


def parse_records_csv(path):
    """Records plus (header tokens, dropped count) from a records CSV."""
    try:
        with open(path, "r") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read records file %s: %s" % (path, exc))
    head = {"config": "-", "seed": "-"}
    dropped = 0
    rows = []
    for line in lines:
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["dropped"] and len(parts) == 2:
                dropped = int(parts[1])
            for tok in parts:
                if tok.startswith("config="):
                    head["config"] = tok[len("config="):]
                if tok.startswith("seed="):
                    head["seed"] = tok[len("seed="):]
            continue
        rows.append(line)
    if not rows:
        raise ConfigError("records file %s has no data rows" % path)
    reader = csv.DictReader(io.StringIO("\n".join(rows)))
    needed = {"pair_id", "kind", "delta_R", "delta_F"}
    if not needed.issubset(reader.fieldnames or ()):
        raise ConfigError(
            "records file %s lacks columns %s" % (path, sorted(needed))
        )
    records = []
    for row in reader:
        records.append(
            sl.StabilityRecord(
                pair_id=int(row["pair_id"]),
                kind=row["kind"],
                t=float(row["t"]) if row.get("t") else None,
                delta_R=float(row["delta_R"]),
                delta_F=float(row["delta_F"]),
                phi=float(row.get("phi") or 0.0),
                delta_finite=(
                    float(row["delta_finite"]) if row.get("delta_finite") else None
                ),
                flags=tuple(f for f in (row.get("flags") or "").split(";") if f),
            )
        )
    return records, head, dropped


def fit_json(fit, dropped, head):
    body = {
        "theta": fit.theta,
        "theta_precap": fit.theta_precap,
        "log_C": fit.log_C if math.isfinite(fit.log_C) else None,
        "n_bins": fit.n_bins,
        "slack": fit.slack,
        "max_violation": fit.max_violation,
        "records_used": fit.records_used,
        "dropped": dropped,
        "constant_R": fit.constant_R,
    }
    return head + "\n" + json.dumps(body, indent=2, sort_keys=True) + "\n"


def cmd_mesh(cfg, args):
    mesh = build_mesh_from(cfg)
    head = header_line(config_hash(cfg), cfg["seed"])
    path = _out_path(cfg, "mesh.txt")
    _write(path, head + "\n" + mx.mesh_to_text(mesh))
    print(
        "mesh: %d nodes, %d triangles, %d patch edges -> %s"
        % (mesh.n_nodes, len(mesh.triangles), int(mesh.on_patch.sum()), path)
    )
    return 0


def _forward_problem(cfg):
    """The forward problem, the spec and the first sampled point."""
    spec = build_spec_from(cfg)
    cells = sl.sample_cells(spec, 1, cfg["seed"], stream=1)[0]
    return sl.forward_problem(build_mesh_from(cfg), spec.kind), spec, cells


def cmd_forward(cfg, args):
    problem, _, cells = _forward_problem(cfg)
    op = problem.forward(cells)
    head = header_line(config_hash(cfg), cfg["seed"])
    buf = [head, "# kind %s dim %d" % (op.kind, op.dim)]
    for row in op.matrix:
        buf.append(",".join(repr(float(v)) for v in row))
    path = _out_path(cfg, "operator.csv")
    _write(path, "\n".join(buf) + "\n")
    print("forward: %s operator, dim %d -> %s" % (op.kind, op.dim, path))
    return 0


def cmd_derivcheck(cfg, args):
    problem, spec, cells = _forward_problem(cfg)
    direction = sl.sample_direction(spec, cfg["seed"], index=0)
    deriv = problem.derivative(cells, direction)
    scale = float(np.abs(deriv).max())
    head = header_line(config_hash(cfg), cfg["seed"])
    lines = [head, "h,rel_err"]
    errs = []
    for h in cfg["derivcheck"]["steps"]:
        plus = problem.forward(cells + h * direction).matrix
        minus = problem.forward(cells - h * direction).matrix
        err = float(np.abs((plus - minus) / (2.0 * h) - deriv).max() / scale)
        errs.append(err)
        lines.append("%s,%s" % (repr(float(h)), repr(err)))
    radial = problem.derivative(cells, cells)
    base = problem.forward(cells).matrix
    sign = -1.0 if cfg["problem"] == "conductivity" else 1.0
    radial_err = float(np.abs(radial - sign * base).max() / np.abs(base).max())
    lines.append("# radial_identity_rel_err %s" % repr(radial_err))
    path = _out_path(cfg, "derivcheck.csv")
    _write(path, "\n".join(lines) + "\n")
    print("derivcheck: rel errors %s, radial identity %g -> %s" % (errs, radial_err, path))
    return 0


def _run_sweep(cfg, threads, keep_operators=False):
    mesh = build_mesh_from(cfg)
    spec = build_spec_from(cfg)
    rq = sl.RecoveredQuantity(tuple(cfg["recovered_cells"]))
    return sl.sweep(
        mesh,
        spec,
        rq,
        cfg["sweep"]["n_random_pairs"],
        cfg["sweep"]["n_rays"],
        _ray_steps(cfg),
        cfg["seed"],
        probe_k=cfg["probe_k"],
        threads=threads,
        keep_operators=keep_operators,
    )


def cmd_sweep(cfg, args):
    result = _run_sweep(cfg, args.threads)
    head = header_line(config_hash(cfg), cfg["seed"])
    path = _out_path(cfg, "records.csv")
    _write(path, records_csv(result, head))
    print(
        "sweep: %d records (%d dropped) -> %s"
        % (len(result.records), result.dropped, path)
    )
    return 0


def cmd_fit(cfg_path_unused, args):
    records, head_tokens, dropped = parse_records_csv(args.records)
    fit = sl.fit_holder(records, n_bins=args.bins, slack=args.slack)
    head = "# holderlab %s config=%s seed=%s" % (
        __version__,
        head_tokens["config"],
        head_tokens["seed"],
    )
    out = args.out or os.path.join(os.path.dirname(args.records) or ".", "fit.json")
    _write(out, fit_json(fit, dropped, head))
    print(
        "fit: theta=%s theta_precap=%s records_used=%d -> %s"
        % (fit.theta, fit.theta_precap, fit.records_used, out)
    )
    return 0


def cmd_select(cfg, args):
    result = _run_sweep(cfg, args.threads, keep_operators=True)
    pairs = [
        ops
        for ops, rec in zip(result.operators, result.records)
        if rec.delta_F > 0.0
    ]
    if not pairs:
        raise HolderLabError("no sample pair with positive operator distance")
    k = pairs[0][0].dim
    max_size = cfg["select"]["max_size"]
    if max_size is None:
        max_size = k * (k + 1) // 2
    sel = greedy_select(
        pairs,
        all_candidate_pairs(k),
        cfg["select"]["target_ratio"],
        max_size,
    )
    head = header_line(config_hash(cfg), cfg["seed"])
    lines = [
        head,
        "# achieved_ratio %s reached %s size %d"
        % (repr(sel.achieved_ratio), sel.reached, len(sel.mset)),
        "i,j",
    ]
    for i, j in sel.mset.pairs:
        lines.append("%d,%d" % (i, j))
    path = _out_path(cfg, "selection.csv")
    _write(path, "\n".join(lines) + "\n")
    print(
        "select: %d measurements, ratio %.4f, target %s %s -> %s"
        % (
            len(sel.mset),
            sel.achieved_ratio,
            cfg["select"]["target_ratio"],
            "reached" if sel.reached else "NOT reached",
            path,
        )
    )
    return 0


def cmd_counterexample(cfg, args):
    ce = cfg["counterexample"]
    ts = np.geomspace(ce["t_lo"], ce["t_hi"], ce["n_points"])
    flat = sl.flat_counterexample(ts, tol=ce["tol"])
    ctl = sl.analytic_control(
        ts, tol=ce["tol"], n_bins=cfg["fit"]["n_bins"], slack=cfg["fit"]["slack"]
    )
    head = header_line(config_hash(cfg), cfg["seed"])
    lines = [head, "map,t,F,local_slope"]
    for s in flat:
        lines.append("flat,%s,%s,%s" % (repr(s.t), repr(s.F_t), repr(s.local_slope)))
    for s in ctl.samples:
        lines.append("cubic,%s,%s,%s" % (repr(s.t), repr(s.F_t), repr(s.local_slope)))
    lines.append("# cubic_fit_theta %s" % repr(ctl.fit.theta))
    path = _out_path(cfg, "counterexample.csv")
    _write(path, "\n".join(lines) + "\n")
    print(
        "counterexample: flat max slope %.1f, cubic max slope %.4f, cubic theta %.4f -> %s"
        % (
            max(s.local_slope for s in flat),
            max(s.local_slope for s in ctl.samples),
            ctl.fit.theta,
            path,
        )
    )
    return 0


def cmd_validate(cfg, args):
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="stability laboratory for boundary-measurement forward maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name, help_text, threads=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        if threads:
            p.add_argument(
                "--threads", type=int, default=1, help="parallel solves for sweeps"
            )
        return p

    with_config("mesh", "write the mesh as a plain-text node/element file")
    with_config("forward", "evaluate the forward map at the first sampled point")
    with_config("derivcheck", "finite-difference check of the derivative")
    with_config("sweep", "run a stability sweep and write records CSV", threads=True)
    with_config("select", "greedy finite-measurement selection", threads=True)
    with_config("counterexample", "flat vs analytic scalar map tables")
    with_config("validate", "echo the normalized effective config")

    fit_p = sub.add_parser("fit", help="fit a Holder envelope to a records CSV")
    fit_p.add_argument("records", help="records CSV from the sweep subcommand")
    fit_p.add_argument("--bins", type=int, default=8, help="number of log bins")
    fit_p.add_argument("--slack", type=float, default=0.1, help="envelope slack, log units")
    fit_p.add_argument("--out", default=None, help="output JSON path")
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "forward": cmd_forward,
    "derivcheck": cmd_derivcheck,
    "sweep": cmd_sweep,
    "select": cmd_select,
    "counterexample": cmd_counterexample,
    "validate": cmd_validate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(None, args)
        cfg = normalize_config(load_config(args.config))
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        loc = " (field %s)" % exc.field if exc.field else ""
        print("config error%s: %s" % (loc, exc), file=sys.stderr)
        return 2
    except HolderLabError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
