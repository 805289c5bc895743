"""The benchmark's workloads: each builds its inputs from a seed and
returns the operations one pass runs, every one with the check of its
expected verdict.

Operations call holopar through module attributes (``hp.cli.main``,
``hp.verification.check_uniqueness``) at call time, so that the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

HOLONOMY_TOL = 1e-6
VECTORS = 20
T_SAMPLES = 10                     # verification.DEFAULT_TS
SAMPLES_PER_CURVE = VECTORS * T_SAMPLES


@dataclass
class Outcome:
    """What one operation produced: the expected verdict held or not, the
    bytes that must repeat on every pass, and (max_rel_error, tolerance)
    of each check it ran."""

    ok: bool
    text: str = ""
    checks: list = field(default_factory=list)
    why: str = ""


@dataclass
class Op:
    name: str
    run: object            # () -> raw result
    check: object          # raw result -> Outcome
    curves: int = 0        # curve transports the operation certifies


def _expect(cond, why):
    if not cond:
        raise AssertionError(why)


# ---------------------------------------------------------------- cli_suite

README_CONFIG = {
    "domain": [[-5, 5], [-5, 5]],
    "frame": [["x", "1"], ["-1", "0"]],
    "norm": {"type": "randers", "Q": [[4, 0], [0, 12]], "beta": [-1, 0]},
}
SYNTH_RATE = 0.3                   # rotation rate of the exprs member frame
SYNTH_CONFIG = {
    "region": [[-2, 2], [-2, 2]],
    "members": [
        {"domain": [[-3, 0.5], [-3, 3]], "frame": "translation"},
        {"domain": [[-0.5, 3], [-3, 3]],
         "frame": [[f"cos({SYNTH_RATE}*x)", f"sin({SYNTH_RATE}*x)"],
                   [f"-sin({SYNTH_RATE}*x)", f"cos({SYNTH_RATE}*x)"]]},
    ],
    "grid": 5,
}
RANDERS_NORM = {"type": "randers", "Q": [[4, 0], [0, 12]], "beta": [-1, 0]}
CUSTOM_NORM = {"type": "custom", "expr": "sqrt(4*a^2+12*b^2)-a"}
ORACLE_CURVES = 21                 # cli._transport_oracle_report: 20 + 1 explicit


def _cli_run(hp, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hp.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    return run


def _cli_check(inspect):
    """Outcome of a CLI call: exit code 0, then ``inspect(doc)`` returns
    the (max_rel_error, tolerance) pairs after asserting the verdict."""

    def check(result):
        rc, out, err = result
        _expect(rc == 0, f"exit code {rc}: {err.strip()[:200]}")
        checks = inspect(json.loads(out))
        return Outcome(True, out, checks)
    return check


def _report_pairs(reports):
    return [(r["max_rel_error"], r["tolerance"]) for r in reports]


def _by_name(doc):
    return {c["check"]: c for c in doc["checks"]}


def _verify_check(fixture, curves):
    def inspect(doc):
        _expect(doc["fixture"] == fixture and doc["all_pass"] is True,
                f"verify {fixture}: all_pass is {doc['all_pass']}")
        by = _by_name(doc)
        if fixture == "section5":
            _expect(doc["summary"]["isometry_count"] == 2, "isometry group size != 2")
            _expect(by["section5_transport_oracle"]["samples"] == ORACLE_CURVES,
                    "oracle curve count")
        if fixture == "scaled_euclidean_incompatible":
            inner = by["expected_compat_failure"]["witness"]["inner"]
            _expect(inner["pass"] is False, "incompatible control passed")
            _expect(abs(inner["witness"]["value_ratio"] - math.e) <= 1e-6,
                    f"failure ratio {inner['witness']['value_ratio']} is not e")
        if curves:
            _expect(by["holonomy_invariance"]["samples"] == curves * SAMPLES_PER_CURVE,
                    "holonomy sample count")
        return _report_pairs(doc["checks"])
    return inspect


def _check_op_check(op, curves):
    def inspect(doc):
        rep = doc["report"]
        _expect(rep["pass"] is True, f"check --op {op} failed")
        if op == "holonomy":
            _expect(rep["samples"] == curves * SAMPLES_PER_CURVE, "holonomy sample count")
        if op == "torsion":
            # the README frame is section 5's: torsion (-1, 0)
            _expect(abs(rep["witness"]["obstruction"] - 1.0) <= 1e-9,
                    "torsion obstruction != 1")
            return []          # infinite tolerance: no error budget to spend
        return _report_pairs([rep])
    return inspect


def _synthesize_check(doc):
    """Coordinate symbols of the blend: zero where only the translation
    member is active, -rate * J in the x-slot where only the rotated
    member is, and -w * rate * J with a weight 0 < w < 1 in the overlap."""
    pts = np.asarray(doc["connection"]["grid_points"])
    gamma = np.asarray(doc["connection"]["coordinate_christoffels"])
    g = SYNTH_CONFIG["grid"]
    _expect(gamma.shape == (g * g, 2, 2, 2) and np.all(np.isfinite(gamma)),
            "synthesized grid shape")
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    _expect(np.max(np.abs(gamma[:, :, 1, :])) <= 1e-12, "y-symbols not zero")
    gx = gamma[:, :, 0, :]
    _expect(np.max(np.abs(gx + np.transpose(gx, (0, 2, 1)))) <= 1e-12,
            "x-symbols not antisymmetric")
    left, right = pts[:, 0] < -0.5, pts[:, 0] > 0.5
    _expect(np.max(np.abs(gx[left])) <= 1e-12, "translation member not flat")
    _expect(np.max(np.abs(gx[right] + SYNTH_RATE * J)) <= 1e-12,
            "rotated member symbols != -rate * J")
    mid = ~(left | right)
    share = gx[mid][:, 0, 1] / SYNTH_RATE
    _expect(np.all((share > 0.0) & (share < 1.0)), "overlap weights outside (0, 1)")
    return []


def _isometry_check(doc):
    _expect(doc["continuous_family"] is False and doc["count"] == 2,
            f"isometry group {doc.get('count')}")
    want = [np.eye(2), np.diag([1.0, -1.0])]
    got = [np.asarray(m) for m in doc["matrices"]]
    for w in want:
        _expect(min(np.max(np.abs(g - w)) for g in got) <= 1e-9,
                "isometry matrices are not {I, diag(1, -1)}")
    return []


def cli_suite(hp, seed, small=False):
    curves = 4 if small else 100
    size = ["--curves", str(curves)] if small else []
    common = ["--seed", str(seed)] + size
    cfg = json.dumps(README_CONFIG)
    ops = []
    for fixture, n in (("section5", curves), ("euclidean_flat", min(curves, 30)),
                       ("scaled_euclidean_incompatible", 0),
                       ("rotated_blend", min(curves, 30))):
        certified = n + (ORACLE_CURVES if fixture == "section5" else 0)
        ops.append(Op(f"verify.{fixture}", _cli_run(hp, ["verify", fixture] + common),
                      _cli_check(_verify_check(fixture, n)), certified))
    for op in ("holonomy", "compat", "compalg", "torsion"):
        n = curves if op == "holonomy" else 0
        ops.append(Op(f"check.{op}",
                      _cli_run(hp, ["check", "--op", op, "--config", cfg] + common),
                      _cli_check(_check_op_check(op, n)), n))
    ops.append(Op("synthesize",
                  _cli_run(hp, ["synthesize", "--config", json.dumps(SYNTH_CONFIG)]),
                  _cli_check(_synthesize_check)))
    for label, norm in (("randers", RANDERS_NORM), ("custom", CUSTOM_NORM)):
        ops.append(Op(f"isometry_group.{label}",
                      _cli_run(hp, ["isometry-group", "--norm", json.dumps(norm)]),
                      _cli_check(_isometry_check)))
    return ops


# ---------------------------------------------------------------- library workloads

def _report_check(dumps, curves=None):
    def check(rep):
        _expect(rep.passed, f"{rep.check} failed: max rel {rep.max_rel_error:.3e}")
        if curves is not None:
            _expect(rep.samples == curves * SAMPLES_PER_CURVE, f"{rep.check} sample count")
        return Outcome(True, dumps(rep.to_dict()), [(rep.max_rel_error, rep.tolerance)])
    return check


def holonomy_ensemble(hp, seed, small=False):
    """Batched certification at the default step and tolerance."""
    counts = {"section5": 4, "rotated_blend": 4} if small else \
        {"section5": 200, "rotated_blend": 100}
    ops = []
    for name, count in counts.items():
        fx = hp.fixtures.load_fixture(name)
        curves = hp.verification.CurveGenerator(fx.domain.shrink(0.05), seed=seed,
                                                count=count).curves()

        def run(fx=fx, curves=curves):
            return hp.verification.check_holonomy_invariance(
                fx.norm_field, fx.connection, curves, tol=HOLONOMY_TOL,
                step=1e-3, vectors=VECTORS, seed=seed)

        ops.append(Op(f"holonomy.{name}", run, _report_check(hp.report.dumps, count),
                      count))
    return ops


ROUND_TRIP_STEP = 1e-2
# The verdict's holonomy check sets the pass's accuracy margin. At 1e-2
# its worst error over 100 curves spans about 0.4 decades across seeds,
# 12% of a 1.9-decade margin; at 5e-3 the same spread is 7% of 3.1.
VERDICT_STEP = 5e-3
# Radial transport of the flat and section 5 connections is exact at any
# step (along a segment the coefficient is constant and nilpotent or zero),
# so the covers use a coarse one; each Christoffel evaluation of a rebuilt
# connection still takes 2n+1 radial transports per member.
COVER_STEP = 0.1
# Curves stay inside the overlap of all four members of the 2x2 box
# decomposition of [-4, 4]^2, so every curve point blends four members and
# the work per curve does not depend on where the seed puts the curve.
OVERLAP = ((-0.9, -0.9), (0.9, 0.9))


def round_trip(hp, seed, small=False):
    """Both constructive directions on ODE-built trivializations."""
    n_curves, verdict_curves = (1, 2) if small else (2, 100)
    s5 = hp.fixtures.load_fixture("section5")
    flat = hp.fixtures.load_fixture("euclidean_flat")
    work = hp.geometry.Box((-4.0, -4.0), (4.0, 4.0))
    curves = hp.verification.CurveGenerator(hp.geometry.Box(*OVERLAP), seed=seed,
                                            count=n_curves).curves()
    dumps = hp.report.dumps

    def rebuilt(conn):
        cover = hp.constructions.covering_from_connection(conn, work, step=COVER_STEP)
        return hp.constructions.connection_from_covering_parallelism(cover)

    def flat_round_trip():
        return hp.verification.check_holonomy_invariance(
            flat.norm_field, rebuilt(flat.connection), curves, tol=HOLONOMY_TOL,
            step=ROUND_TRIP_STEP, vectors=VECTORS, seed=seed)

    def uniqueness():
        return hp.verification.check_uniqueness(
            s5.norm_field, s5.connection, rebuilt(s5.connection), curves,
            tol=HOLONOMY_TOL, step=ROUND_TRIP_STEP)

    def verdict():
        return hp.verification.generalized_berwald_verdict(
            s5.norm_field, s5.connection, domain=work, tol=HOLONOMY_TOL,
            step=VERDICT_STEP, seed=seed, curves=verdict_curves, compat_pairs=50)

    def verdict_check(res):
        _expect(res.verdict == "generalized Berwald (certified)", res.verdict)
        _expect("not Berwald" in res.note, f"note: {res.note}")
        _expect(abs(res.torsion_obstruction - 1.0) <= 1e-9, "torsion obstruction != 1")
        _expect(all(r.passed for r in res.reports), "a verdict report failed")
        doc = {"verdict": res.verdict, "note": res.note,
               "torsion_obstruction": res.torsion_obstruction,
               "reports": [r.to_dict() for r in res.reports]}
        return Outcome(True, dumps(doc),
                       [(r.max_rel_error, r.tolerance) for r in res.reports])

    return [
        Op("round_trip.flat", flat_round_trip, _report_check(dumps, n_curves), n_curves),
        Op("uniqueness.section5", uniqueness, _report_check(dumps), n_curves),
        Op("verdict.section5", verdict, verdict_check, verdict_curves),
    ]


WORKLOADS = {
    "cli_suite": cli_suite,
    "holonomy_ensemble": holonomy_ensemble,
    "round_trip": round_trip,
}
