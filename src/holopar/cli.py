"""Command-line front end: fixture verification, inline checks,
connection synthesis and the 2x2 isometry group, all emitting
deterministic JSON reports.

Exit codes: 0 all checks passed (or expected failures confirmed),
1 a check failed, 2 configuration error: a malformed spec, a frame that
is singular at or between its sampled points, or an --out path that
cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import report as report_mod
from .constructions import connection_from_covering_parallelism
from .errors import ConfigError, HoloparError
from .fixtures import (build_box, build_cover, build_fixture, build_norm, fixture_names,
                       is_finite_number, load_fixture, norm_dimension, require_keys)
from .geometry import segment
from .norms import ContinuousFamily, isometry_group_2x2
from .parallelism import CoveringParallelism, pushdown_norm
from .transport import parallel_transport, transport_ensemble
from .verification import (TORSION_SAMPLES, CheckReport, CurveGenerator,
                           berwald_obstruction, check_compalg_criterion,
                           check_holonomy_invariance, check_parallelism_compat,
                           torsion_samples)

# ---------------------------------------------------------------- config

def _load_config(arg):
    try:
        if arg.lstrip().startswith("{"):
            return json.loads(arg)
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:           # ValueError: bad JSON or encoding
        raise ConfigError(f"config is not a readable JSON file or object: {exc}") from exc


# the defaults of the common settings, read by the parser and run_fixture_suite
RUN_DEFAULTS = {"step": 1e-3, "tol": 1e-6, "curves": 100, "vectors": 20, "seed": 42}


def run_settings(step, tol, curves, vectors, seed):
    """The common settings of one run (see the check table), refusing
    curves, vectors or a seed that is not an integer, fewer than one
    curve or vector, a negative seed, a step or tolerance that is not a
    finite number, a negative tolerance, and a step whose grid misses
    the sample times t = 0.1, ..., 1.0: round(1/step) must be a positive
    multiple of 10."""
    for key, val, least in (("curves", curves, 1), ("vectors", vectors, 1), ("seed", seed, 0)):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{key} must be an integer, not {val!r}")
        if val < least:
            raise ConfigError(f"{key} must be at least {least}, not {val}")
    for key, val in (("step", step), ("tolerance", tol)):
        if not is_finite_number(val):
            raise ConfigError(f"{key} must be a finite number, not {val!r}")
    if tol < 0:
        raise ConfigError(f"tolerance must be at least 0, not {tol}")
    step, tol = float(step), float(tol)
    per_unit = 1.0 / step if step > 0.0 else 0.0
    if not (np.isfinite(per_unit) and round(per_unit) >= 10 and round(per_unit) % 10 == 0):
        raise ConfigError(f"step {step} does not divide the sample times 0.1, ..., 1.0: "
                          "round(1/step) must be a positive multiple of 10")
    return argparse.Namespace(step=step, tol=tol, curves=curves, vectors=vectors, seed=seed)


# ---------------------------------------------------------------- check table

# Each entry takes (fx, o, **overrides): o holds the common settings
# (step, tol, curves, vectors, seed) of one run, the overrides come from
# the fixture's declared suite.

def _holonomy(fx, o, max_curves=np.inf):
    gen = CurveGenerator(fx.domain.shrink(0.05), seed=o.seed,
                         count=min(o.curves, max_curves))
    return check_holonomy_invariance(fx.norm_field, fx.connection, gen, tol=o.tol,
                                     step=o.step, vectors=o.vectors)


def _compat(fx, o, tol=None, pairs=200):
    return check_parallelism_compat(fx.norm_field, fx.parallelism, pairs=pairs, vectors=o.vectors,
                                    tol=o.tol if tol is None else tol, seed=o.seed)


def _compalg(fx, o, tol=None):
    return check_compalg_criterion(fx.norm_field, fx.parallelism, fx.connection,
                                   tol=o.tol if tol is None else tol, seed=o.seed)


def _torsion(fx, o, floor=None):
    """The torsion obstruction: only reported without a floor, and passed
    only when it exceeds the floor otherwise."""
    worst = berwald_obstruction(fx.connection, fx.domain, TORSION_SAMPLES, seed=o.seed)
    name, rel, tol = (("torsion_obstruction", 0.0, np.inf) if floor is None else
                      ("torsion_obstruction_positive", 0.0 if worst > floor else 1.0, 0.5))
    return CheckReport(name, TORSION_SAMPLES, worst, rel, tol, {"obstruction": worst}, o.seed)


def _expected_torsion(fx, o):
    """T(E_1, E_2) at the torsion samples against the expected-table
    constant; the witness is the last sample with the largest error."""
    exp = fx.expected["torsion_E1_E2"]
    pts, T = torsion_samples(fx.connection, fx.domain, seed=o.seed)
    err = np.max(np.abs(T[:, 0] - np.asarray(exp.value)), axis=1)
    k = len(err) - 1 - int(np.argmax(err[::-1]))
    wit = {"p": pts[k].tolist(), "torsion": T[k, 0].tolist()}
    worst = float(err[k])
    return CheckReport(f"{fx.name}_torsion", len(err), worst, worst, exp.tol, wit, o.seed)


def _isometry_group(fx, o, group, tol=1e-6):
    """The isometry group of the frame-component norm against `group`."""
    name = f"{fx.name}_isometry_group"
    found = isometry_group_2x2(fx.minkowski_norm)
    if isinstance(found, ContinuousFamily):
        return CheckReport(name, 0, 1.0, 1.0, tol, {"continuous_family": True}, o.seed)
    err = 1.0
    if len(found) == len(group):
        err = 0.0
        for tgt in group:
            err = max(err, min(float(np.max(np.abs(np.asarray(g) - tgt))) for g in found))
    wit = {"count": len(found), "matrices": [np.asarray(g).tolist() for g in found]}
    return CheckReport(name, len(found), err, err, tol, wit, o.seed)


def _transport_oracle_report(fx, o, curves=20, tol=1e-7):
    """RK4 transport against the frame-transfer oracle [E(q)][E(p)]^-1
    (the parallelism's own transfer) on the generated curves, and
    against the expected table's 00 -> 10 matrix on that segment; the
    witness is the last curve with the largest error.

    The curves run as one ensemble at half the step, the run that
    parallel_transport keeps; the segment is one parallel_transport."""
    batch = CurveGenerator(fx.domain.shrink(0.05), seed=o.seed, count=curves).curves()
    half = 1.0 / (2 * max(1, int(round(1.0 / o.step))))
    phis, starts, ends = transport_ensemble(fx.connection, batch, [1.0], step=half)
    mats = phis[:, 0]
    oracle = fx.parallelism.transfer(starts, ends[:, 0])
    err = np.max(np.abs(mats - oracle), axis=(1, 2))
    k = len(err) - 1 - int(np.argmax(err[::-1]))
    worst, wit = float(err[k]), {"curve": batch[k].params, "matrix": mats[k].tolist()}
    seg = segment((0.0, 0.0), (1.0, 0.0), domain=fx.domain)
    exp_mat = np.asarray(fx.expected["transport_00_to_10"].value)
    got = parallel_transport(fx.connection, seg, 1.0, step=o.step)[0]
    worst = max(worst, float(np.max(np.abs(got - exp_mat))))
    return CheckReport(f"{fx.name}_transport_oracle", curves + 1, worst, worst, tol,
                       wit, o.seed, o.step)


def _pushdown(fx, o, tol=1e-9):
    name = f"{fx.name}_pushdown_independence"
    basepoints, vectors = 10, 200
    try:
        pushdown_norm(fx.norm_field, fx.parallelism, np.zeros(fx.dim),
                      basepoints=basepoints, vectors=vectors, tol=tol, seed=o.seed)
        err, witness = 0.0, {}
    except HoloparError as exc:
        err, witness = 1.0, getattr(exc, "witness", {"error": str(exc)})
    return CheckReport(name, basepoints * vectors, err, err, tol, witness, o.seed)


def _expected_failure(fx, o, check, ratio, ratio_tol=1e-6, **overrides):
    """A check the fixture expects to fail: confirmation that it does
    fail, with the witness ratio at its predicted value, is a pass."""
    inner = CHECKS[check](fx, o, **overrides)
    ratio_err = abs(inner.witness.get("value_ratio", np.nan) - ratio)
    confirmed = (not inner.passed) and ratio_err <= ratio_tol
    err = ratio_err if not inner.passed else 1.0
    return CheckReport(f"expected_{check}_failure", inner.samples, err,
                       err if confirmed else 1.0, ratio_tol,
                       {"inner": inner.to_dict(), "expected_ratio": ratio},
                       o.seed, inner.step)


# a fixture's `checks` names its verify suite here; `check --op` runs one
# of CHECK_OPS on an inline manifold
CHECKS = {
    "holonomy": _holonomy,
    "compat": _compat,
    "compalg": _compalg,
    "torsion": _torsion,
    "expected_torsion": _expected_torsion,
    "isometry_group": _isometry_group,
    "transport_oracle": _transport_oracle_report,
    "pushdown": _pushdown,
    "expected_failure": _expected_failure,
}
CHECK_OPS = ("holonomy", "compat", "compalg", "torsion")

# name -> (fx, o, reports by check name) -> value in a fixture's summary
SUMMARIES = {
    "torsion_max": lambda fx, o, by: berwald_obstruction(fx.connection, fx.domain,
                                                         seed=o.seed),
    "isometry_count": lambda fx, o, by: by[f"{fx.name}_isometry_group"].samples,
    "invariance_max_rel": lambda fx, o, by: by["holonomy_invariance"].max_rel_error,
}


def run_fixture_suite(name, **settings):
    """The report of a fixture's verify suite; settings override RUN_DEFAULTS."""
    o = run_settings(**{**RUN_DEFAULTS, **settings})
    fx = load_fixture(name)
    if not fx.checks:
        raise ConfigError(f"no verification suite for fixture {name!r}")
    checks = sorted((CHECKS[check](fx, o, **overrides) for check, overrides in fx.checks),
                    key=lambda r: r.check)
    doc = {"fixture": name, "seed": o.seed, "step": o.step, "tolerance": o.tol,
           "checks": [c.to_dict() for c in checks],
           "all_pass": all(c.passed for c in checks)}
    if fx.summary:
        by = {c.check: c for c in checks}
        doc["summary"] = {key: SUMMARIES[key](fx, o, by) for key in fx.summary}
    return doc


# ---------------------------------------------------------------- commands

STDOUT = (None, "-", "stdout")                   # --out values that write to stdout


def _check_out(out):
    """Refuse an --out path in a directory that is missing or not writable
    before any check runs."""
    if out not in STDOUT and not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK):
        raise ConfigError(f"cannot write the report to {out!r}: no writable directory")


def _emit(doc, out):
    text = report_mod.dumps(doc) + "\n"
    if out in STDOUT:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out!r}: {exc.strerror}") from exc


def cmd_verify(args):
    """One fixture's report, or the list of the named fixtures' reports in
    the order given, all run in this process; exit 1 if any fails."""
    settings = {key: getattr(args, key) for key in RUN_DEFAULTS}
    docs = [run_fixture_suite(name, **settings) for name in args.fixture]
    _emit(docs[0] if len(docs) == 1 else docs, args.out)
    return 0 if all(doc["all_pass"] for doc in docs) else 1


def cmd_check(args):
    config = _load_config(args.config)
    fx = build_fixture({"manifold": config})
    o = run_settings(config.get("step", args.step), config.get("tolerance", args.tol),
                     config.get("curves", args.curves), config.get("vectors", args.vectors),
                     config.get("seed", args.seed))
    if args.op in ("compat", "compalg") and isinstance(fx.parallelism, CoveringParallelism):
        raise ConfigError(f"check --op {args.op} takes one parallelism, not a cover")
    rep = CHECKS[args.op](fx, o)
    _emit({"config": config, "op": args.op, "report": rep.to_dict()}, args.out)
    return 0 if rep.passed else 1


def cmd_synthesize(args):
    config = _load_config(args.config)
    require_keys(config, ("region", "members", "grid"), ("region", "members"),
                 "synthesize config")
    g = config.get("grid", 5)
    if isinstance(g, bool) or not isinstance(g, int) or g < 1:
        raise ConfigError(f"grid must be an integer of at least 1, not {g!r}")
    region = build_box(config["region"])
    conn = connection_from_covering_parallelism(build_cover(config["members"], region))
    axes = [np.linspace(a, b, g + 2)[1:-1] for a, b in zip(region.lo, region.hi)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, region.dim)
    gamma = conn.coordinate_christoffels_batch(mesh)
    doc = {
        "config": config,
        "connection": {
            "frame": "coordinate",
            "grid_points": mesh.tolist(),
            "coordinate_christoffels": gamma.tolist(),
        },
    }
    _emit(doc, args.out)
    return 0


def cmd_isometry_group(args):
    spec = _load_config(args.norm)
    if (n := norm_dimension(spec)) != 2:
        raise ConfigError(f"isometry-group needs a 2-D norm, not dimension {n}")
    group = isometry_group_2x2(build_norm(spec))
    if isinstance(group, ContinuousFamily):
        doc = {"norm": spec, "continuous_family": True, "note": group.note}
    else:
        doc = {"norm": spec, "continuous_family": False,
               "count": len(group),
               "matrices": [np.asarray(g).tolist() for g in group]}
    _emit(doc, args.out)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="holopar",
        description="Certify holonomy invariance / parallelism compatibility "
                    "and reproduce the proper generalized Berwald example.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, checks=False):
        if checks:
            for key, val in RUN_DEFAULTS.items():
                p.add_argument(f"--{key}", type=type(val), default=val)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(fn=fn)

    pv = sub.add_parser("verify", help="run fixtures' full expected-table suites")
    pv.add_argument("fixture", nargs="+", choices=fixture_names(),
                    help="one fixture prints its report, several a list of theirs")
    common(pv, cmd_verify, checks=True)

    pc = sub.add_parser("check", help="run one check on an inline manifold spec")
    pc.add_argument("--config", required=True, help="JSON file or inline JSON")
    pc.add_argument("--op", default="holonomy", choices=CHECK_OPS)
    common(pc, cmd_check, checks=True)

    ps = sub.add_parser("synthesize",
                        help="blend a covering parallelism into a connection")
    ps.add_argument("--config", required=True)
    common(ps, cmd_synthesize)

    pi = sub.add_parser("isometry-group", help="2x2 isometry group of a 2-D norm")
    pi.add_argument("--norm", required=True, help="norm spec (JSON file or inline)")
    common(pi, cmd_isometry_group)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HoloparError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
