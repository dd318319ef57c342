"""Configuration-driven command line for reproducible experiments.

Configs are JSON with nested sections; every run is a pure function of
(config, seed). PROBLEMS maps the config's `problem` to its
forward-problem class. build_problem_from(cfg), the one constructor
that `forward`, `derivcheck`, `sweep`, `select` and `validate` call,
builds the problem and checks the config against it before any solve;
the commands read the cell count, sampling and basis from it, and
compact_set gives only the ellipticity bounds. Every command but
`validate`, which echoes the config, writes one file, and one function,
`_emit`, writes them all: a comment line recording the tool version,
the hash of the normalized config and the seed, then the command's
body, in a file under output_dir (`fit` writes to --out), and then one
stdout line ending `-> <path>`. Exit codes: 0 success, 1 runtime
numerical failure (the message names the originating error;
NotIdentifiable included), 2 config validation failure, an unwritable
output path (the message names output_dir, or --out for `fit`), a
probe_k above the basis dimension and a counterexample t_lo where F
underflows below the smallest normal float included.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from collections import namedtuple

# One BLAS thread per sweep worker: --threads sets the parallelism, and
# OpenBLAS reads these variables once, when numpy and scipy load their
# copies of it. An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import conductivity as cd
from . import elasticity as el
from . import mesh as mx
from . import stability as sl
from .errors import ConfigError, DegenerateSample, HolderLabError, NotIdentifiable
from .scalarization import greedy_select

PROBLEMS = {"conductivity": cd.NDProblem, "elasticity": el.DNProblem}

REQUIRED = object()  # the default of a field the config must give

Field = namedtuple("Field", "default parse")


def _check(ok, message):
    """A parser passing on values v with ok(v) and raising ValueError(message)
    on others. JSON gives exact types, so `type(v) is int` rejects bools."""

    def parse(v):
        if not ok(v):
            raise ValueError(message)
        return v

    return parse


def _integer(lo):
    return _check(lambda v: type(v) is int and v >= lo, "must be an integer >= %d" % lo)


def _number(lo, hi=math.inf, closed=False):
    """A finite number in (lo, hi], or in [lo, hi] when closed, as a float."""
    bounds = "%s%g, %g%s" % ("[" if closed else "(", lo, hi, ")" if hi == math.inf else "]")
    inside = _check(
        lambda v: type(v) in (int, float)
        and abs(v) <= sys.float_info.max
        and (lo <= v if closed else lo < v)
        and v <= hi,
        "must be a finite number in " + bounds,
    )
    return lambda v: float(inside(v))


def _choice(options):
    return _check(lambda v: v in options, "must be one of %s" % (options,))


def _list_of(item):
    nonempty = _check(lambda v: type(v) is list and v != [], "must be a nonempty list")
    return lambda v: [item(x) for x in nonempty(v)]


def _or_null(parse):
    return lambda v: None if v is None else parse(v)


_path = _check(lambda v: type(v) is str and v != "", "must be a nonempty path string")


# Every config field with its default and its parser; a nested table is
# a section. The parsers check one field each; normalize_config checks
# the relations between fields.
FIELDS = {
    "problem": Field(REQUIRED, _choice(tuple(PROBLEMS))),
    "seed": Field(REQUIRED, _integer(0)),
    "mesh": {
        "n_sub": Field(REQUIRED, _integer(1)),
        "grid_cols": Field(1, _integer(1)),
        "grid_rows": Field(1, _integer(1)),
        "side": Field("bottom", _choice(mx.SIDES)),
        "t0": Field(0.0, _number(0.0, 1.0, closed=True)),
        "t1": Field(1.0, _number(0.0, 1.0, closed=True)),
    },
    "compact_set": {
        "lambda_lo": Field(0.5, _number(0.0)),
        "lambda_hi": Field(2.0, _number(0.0)),
    },
    "recovered_cells": Field(None, _or_null(_list_of(_integer(1)))),  # all cells
    "sweep": {
        "n_random_pairs": Field(200, _integer(0)),
        "n_rays": Field(20, _integer(0)),
        "n_ray_steps": Field(20, _integer(0)),
        "t_min": Field(1e-6, _number(0.0)),
        "t_max": Field(1e-1, _number(0.0)),
    },
    "probe_k": Field(None, _or_null(_integer(1))),  # basis dimension
    "select": {
        "target_ratio": Field(0.5, _number(0.0, 1.0)),
        "max_size": Field(None, _or_null(_integer(1))),  # k*(k+1)/2
    },
    "fit": {
        "n_bins": Field(8, _integer(2)),
        "slack": Field(0.1, _number(0.0, closed=True)),
    },
    "counterexample": {
        "t_lo": Field(0.05, _number(0.0, 1.0)),
        "t_hi": Field(0.5, _number(0.0, 1.0)),
        "n_points": Field(11, _integer(3)),
        "tol": Field(1e-14, _number(0.0)),
    },
    "derivcheck": {"steps": Field([1e-3, 1e-4, 1e-5], _list_of(_number(0.0)))},
    "output_dir": Field(".", _path),
}


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


def _parse_section(raw, table, prefix=""):
    """Defaults filled in and each field parsed; failures name the field."""
    if not isinstance(raw, dict):
        raise ConfigError("must be an object", field=prefix[:-1] or None)
    for key in raw:
        if key not in table:
            raise ConfigError("unknown field", field=prefix + key)
    out = {}
    for name, spec in table.items():
        if isinstance(spec, dict):
            out[name] = _parse_section(raw.get(name, {}), spec, prefix + name + ".")
        elif name not in raw and spec.default is REQUIRED:
            raise ConfigError("missing required field", field=prefix + name)
        else:
            try:
                out[name] = spec.parse(raw.get(name, spec.default))
            except ValueError as exc:
                raise ConfigError(str(exc), field=prefix + name) from None
    return out


def normalize_config(raw):
    """Fill defaults and validate; returns the effective config."""
    cfg = _parse_section(raw, FIELDS)
    mesh = cfg["mesh"]
    if mesh["n_sub"] % mesh["grid_cols"] or mesh["n_sub"] % mesh["grid_rows"]:
        raise ConfigError("not divisible by the cell grid", field="mesh.n_sub")
    for section, lo, hi in (
        ("mesh", "t0", "t1"),
        ("compact_set", "lambda_lo", "lambda_hi"),
        ("sweep", "t_min", "t_max"),
        ("counterexample", "t_lo", "t_hi"),
    ):
        if not cfg[section][lo] < cfg[section][hi]:
            raise ConfigError("need %s < %s" % (lo, hi), field="%s.%s" % (section, lo))
    n_cells = mesh["grid_cols"] * mesh["grid_rows"]
    cells = cfg["recovered_cells"]
    if cells is None:
        cells = list(range(1, n_cells + 1))
    if len(set(cells)) != len(cells) or max(cells) > n_cells:
        raise ConfigError(
            "need distinct cell labels in 1..%d" % n_cells, field="recovered_cells"
        )
    cfg["recovered_cells"] = sorted(cells)
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


def build_problem_from(cfg):
    """The forward problem of the config's kind on its mesh, after the
    checks that need it built; building it costs no solve. probe_k must
    not exceed the basis dimension k. A map has k(k+1)/2 entries, so
    when the cells' m parameters outnumber them no data determine every
    cell, and recovering them all is NotIdentifiable."""
    problem = PROBLEMS[cfg["problem"]](build_mesh_from(cfg))
    k, form = problem.k, problem.form
    if cfg["probe_k"] is not None and cfg["probe_k"] > k:
        raise ConfigError("must be at most the basis dimension %d" % k, "probe_k")
    m = form.n_cells * form.dim * (form.dim + 1) // 2
    if len(cfg["recovered_cells"]) == form.n_cells and m > k * (k + 1) // 2:
        mesh = cfg["mesh"]
        raise NotIdentifiable(
            "%d cell parameters exceed the %d entries of a map of basis dimension %d "
            "(mesh.n_sub %d, mesh.grid_cols %d, mesh.grid_rows %d)"
            % (m, k * (k + 1) // 2, k, mesh["n_sub"], mesh["grid_cols"], mesh["grid_rows"])
        )
    return problem


def build_spec_from(cfg):
    return sl.CompactSetSpec(cfg["compact_set"]["lambda_lo"], cfg["compact_set"]["lambda_hi"])


def _out_path(cfg, name):
    try:
        os.makedirs(cfg["output_dir"], exist_ok=True)
    except OSError as exc:
        msg = "cannot create %s: %s" % (cfg["output_dir"], exc.strerror)
        raise ConfigError(msg, "output_dir") from None
    return os.path.join(cfg["output_dir"], name)


def _write(path, text, field):
    """Write text to path; an unwritable path is a config error naming
    `field`, the setting that chose it."""
    try:
        with open(path, "w", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror), field) from None


def _emit(cfg, name, body, summary, head=None, out=None):
    """Write a command's output and report it: the header line naming the
    run, then `body`, into `name` under output_dir; then the stdout line
    `<summary> -> <path>`. Returns exit code 0. `fit`, which reads
    records rather than a config, passes their header as `head` and its
    path as `out`; an unwritable path is a config error naming --out."""
    if out is None:
        head = header_line(config_hash(cfg), cfg["seed"])
        out, field = _out_path(cfg, name), "output_dir"
    else:
        field = "--out"
    _write(out, head + "\n" + body, field)
    print("%s -> %s" % (summary, out))
    return 0


def records_csv(result):
    buf = io.StringIO()
    buf.write("# dropped %d\n" % result.dropped)
    buf.write("pair_id,kind,t,delta_R,delta_F,phi,delta_finite,flags\n")
    for r in result.records:
        row = (r.pair_id, r.kind, r.t, r.delta_R, r.delta_F, r.phi, r.delta_finite)
        buf.write(",".join(map(_fmt, row)) + "," + ";".join(r.flags) + "\n")
    return buf.getvalue()


def parse_records_csv(path):
    """Records plus (header tokens, dropped count) from a records CSV."""
    try:
        with open(path, "r") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read records file %s: %s" % (path, exc))
    def malformed(lineno, exc):
        return ConfigError("records file %s line %d: %s" % (path, lineno, exc))

    head = {"config": "-", "seed": "-"}
    dropped, dropped_at = 0, None
    rows, linenos = [], []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["dropped"] and len(parts) == 2:
                if dropped_at is not None:
                    raise malformed(lineno, "second dropped count, after line %d" % dropped_at)
                dropped_at = lineno
                try:
                    dropped = int(parts[1])
                except ValueError as exc:
                    raise malformed(lineno, exc) from None
                if dropped < 0:
                    raise malformed(lineno, "negative dropped count %d" % dropped)
            for key, eq, value in (tok.partition("=") for tok in parts):
                if eq and key in head:
                    head[key] = value
            continue
        rows.append(line)
        linenos.append(lineno)
    if not rows:
        return [], head, dropped  # nothing to fit; fit_holder says so
    # a field that a short row lacks reads as empty, which fails below
    reader = csv.DictReader(io.StringIO("\n".join(rows)), restval="")
    needed = {"pair_id", "kind", "delta_R", "delta_F"}
    if not needed.issubset(reader.fieldnames or ()):
        raise ConfigError(
            "records file %s lacks columns %s" % (path, sorted(needed))
        )
    records = []
    for row in reader:
        try:
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
        except ValueError as exc:
            raise malformed(linenos[reader.line_num - 1], exc) from None
    return records, head, dropped


def fit_json(fit, dropped):
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
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def cmd_mesh(cfg, args):
    mesh = build_mesh_from(cfg)
    summary = "mesh: %d nodes, %d triangles, %d patch edges" % (
        mesh.n_nodes, len(mesh.triangles), int(mesh.on_patch.sum())
    )
    return _emit(cfg, "mesh.txt", mx.mesh_to_text(mesh), summary)


def _forward_problem(cfg):
    """The forward problem and its first sampled point."""
    problem = build_problem_from(cfg)
    spec = build_spec_from(cfg)
    return problem, sl.sample_point(problem, spec, cfg["seed"], sl._STREAM_RANDOM_P, 0)


def cmd_forward(cfg, args):
    problem, cells = _forward_problem(cfg)
    m = problem.forward(cells)
    lines = ["# kind %s dim %d" % (problem.kind, m.shape[0])]
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    summary = "forward: %s operator, dim %d" % (problem.kind, m.shape[0])
    return _emit(cfg, "operator.csv", "\n".join(lines) + "\n", summary)


def cmd_derivcheck(cfg, args):
    problem, cells = _forward_problem(cfg)
    direction = sl.sample_direction(problem, cfg["seed"], index=0)
    deriv = problem.derivative(cells, direction)
    scale = float(np.abs(deriv).max())
    lines = ["h,rel_err"]
    errs = []
    for h in cfg["derivcheck"]["steps"]:
        plus = problem.forward(cells + h * direction)
        minus = problem.forward(cells - h * direction)
        err = float(np.abs((plus - minus) / (2.0 * h) - deriv).max() / scale)
        errs.append(err)
        lines.append("%s,%s" % (repr(float(h)), repr(err)))
    radial = problem.derivative(cells, cells)
    base = problem.forward(cells)
    radial_err = float(np.abs(radial - problem.degree * base).max() / np.abs(base).max())
    lines.append("# radial_identity_rel_err %s" % repr(radial_err))
    summary = "derivcheck: rel errors %s, radial identity %g" % (errs, radial_err)
    return _emit(cfg, "derivcheck.csv", "\n".join(lines) + "\n", summary)


def _run_sweep(cfg, threads, differences=False):
    s = cfg["sweep"]
    return sl.sweep(
        build_problem_from(cfg),
        build_spec_from(cfg),
        sl.RecoveredQuantity(tuple(cfg["recovered_cells"])),
        s["n_random_pairs"],
        s["n_rays"],
        np.geomspace(s["t_min"], s["t_max"], s["n_ray_steps"]),
        cfg["seed"],
        probe_k=cfg["probe_k"],
        threads=threads,
        differences=differences,
    )


def cmd_sweep(cfg, args):
    result = _run_sweep(cfg, args.threads)
    summary = "sweep: %d records (%d dropped)" % (len(result.records), result.dropped)
    return _emit(cfg, "records.csv", records_csv(result), summary)


def cmd_fit(args):
    records, head_tokens, dropped = parse_records_csv(args.records)
    fit = sl.fit_holder(records, n_bins=args.bins, slack=args.slack)
    head = header_line(head_tokens["config"], head_tokens["seed"])
    out = args.out or os.path.join(os.path.dirname(args.records) or ".", "fit.json")
    summary = "fit: theta=%s theta_precap=%s records_used=%d" % (
        fit.theta, fit.theta_precap, fit.records_used
    )
    return _emit(None, None, fit_json(fit, dropped), summary, head=head, out=out)


def cmd_select(cfg, args):
    result = _run_sweep(cfg, args.threads, differences=True)
    dists = np.array([rec.delta_F for rec in result.records])
    positive = dists > 0.0
    if not positive.any():
        raise HolderLabError("no sample pair with positive operator distance")
    # the sweep's (records x entries) triangles, read in place unless a
    # record with delta_F = 0 has to be left out
    diffs = result.differences if positive.all() else result.differences[positive]
    del result
    sel = greedy_select(
        diffs, dists[positive], cfg["select"]["target_ratio"], cfg["select"]["max_size"]
    )
    lines = [
        "# achieved_ratio %s reached %s size %d"
        % (repr(sel.achieved_ratio), sel.reached, len(sel.mset)),
        "i,j",
    ]
    for i, j in sel.mset:
        lines.append("%d,%d" % (i, j))
    summary = "select: %d measurements, ratio %.4f, target %s %s" % (
        len(sel.mset),
        sel.achieved_ratio,
        cfg["select"]["target_ratio"],
        "reached" if sel.reached else "NOT reached",
    )
    return _emit(cfg, "selection.csv", "\n".join(lines) + "\n", summary)


def cmd_counterexample(cfg, args):
    ce = cfg["counterexample"]
    ts = np.geomspace(ce["t_lo"], ce["t_hi"], ce["n_points"])
    try:
        flat = sl.flat_counterexample(ts, tol=ce["tol"])
    except DegenerateSample as exc:
        raise ConfigError(str(exc), "counterexample.t_lo") from None
    ctl = sl.analytic_control(ts, n_bins=cfg["fit"]["n_bins"], slack=cfg["fit"]["slack"])
    lines = ["map,t,F,local_slope"]
    for s in flat:
        lines.append("flat,%s,%s,%s" % (repr(s.t), repr(s.F_t), repr(s.local_slope)))
    for s in ctl.samples:
        lines.append("cubic,%s,%s,%s" % (repr(s.t), repr(s.F_t), repr(s.local_slope)))
    lines.append("# cubic_fit_theta %s" % repr(ctl.fit.theta))
    summary = "counterexample: flat max slope %.1f, cubic max slope %.4f, cubic theta %.4f" % (
        max(s.local_slope for s in flat), max(s.local_slope for s in ctl.samples), ctl.fit.theta
    )
    return _emit(cfg, "counterexample.csv", "\n".join(lines) + "\n", summary)


def cmd_validate(cfg, args):
    build_problem_from(cfg)
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def _flag(field, convert):
    """argparse keywords for a flag parsed like a config field: the
    field's default, and a type under which a bad value exits 2 naming
    the flag."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = text  # the field rejects a string with its own message
        try:
            return field.parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("%s, got %r" % (exc, text))

    return {"type": parse, "default": field.default}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="stability laboratory for boundary-measurement forward maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, threads=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.set_defaults(
            run=lambda args: handler(normalize_config(load_config(args.config)), args)
        )
        if threads:
            workers = _flag(Field(1, _integer(1)), int)
            p.add_argument("--threads", help="worker processes for sweeps", **workers)

    command("mesh", cmd_mesh, "write the mesh as a plain-text node/element file")
    command("forward", cmd_forward, "evaluate the forward map at the first sampled point")
    command("derivcheck", cmd_derivcheck, "finite-difference check of the derivative")
    command("sweep", cmd_sweep, "run a stability sweep and write records CSV", threads=True)
    command("select", cmd_select, "greedy finite-measurement selection", threads=True)
    command("counterexample", cmd_counterexample, "flat vs analytic scalar map tables")
    command("validate", cmd_validate, "check the config and echo it normalized")

    fit = FIELDS["fit"]
    fit_p = sub.add_parser("fit", help="fit a Holder envelope to a records CSV")
    fit_p.set_defaults(run=cmd_fit)
    fit_p.add_argument("records", help="records CSV from the sweep subcommand")
    fit_p.add_argument("--bins", help="number of log bins", **_flag(fit["n_bins"], int))
    fit_p.add_argument("--slack", help="envelope slack, log units", **_flag(fit["slack"], float))
    fit_p.add_argument("--out", default=None, help="output JSON path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        loc = " (field %s)" % exc.field if exc.field else ""
        print("config error%s: %s" % (loc, exc), file=sys.stderr)
        return 2
    except HolderLabError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
