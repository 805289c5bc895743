"""Spans around holopar's public callables, recorded from outside the package.

The tracer rebinds each wrapped function in every ``holopar`` module that
imported it (``from .transport import parallel_transport`` binds the name
in ``cli`` and ``fixtures`` too), wraps class methods once on the class,
and wraps the callables that some factories return (radial ``phi``,
blended ``gamma``, partition weights), which exist only per object.

Spans are kept in memory as ``Span`` tuples and reduced by
``layer_totals``; ``layer_metrics`` turns the totals of the traced passes
into the per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "name parent start end attrs")


class Tracer:
    """Records one span per call of a wrapped callable while enabled."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._open = {}
        self._patches = []

    def wrap(self, name, fn, attrs=None, reentrant=True):
        """``fn`` recording a span per call while the tracer is enabled.

        ``name`` is a string or a callable of the call's arguments;
        ``attrs(args, kwargs, result)`` returns counts stored on the span.
        A non-reentrant span is not opened inside another of its name.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            if not reentrant and tracer._open.get(label):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._open[label] = tracer._open.get(label, 0) + 1
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[label] -= 1
                counts = attrs(args, kwargs, result) if attrs and result is not None else {}
                tracer.spans[idx] = Span(label, parent, start, end, counts)

        return traced

    def install(self, hp):
        """Wrap holopar's layer boundaries; ``hp`` holds its modules."""
        for mod, fname, name, attrs, reentrant in _functions(hp):
            orig = getattr(mod, fname)
            self._rebind(orig, self.wrap(name, orig, attrs, reentrant))
        for mod, fname, wrap_product in _factories(self):
            orig = getattr(getattr(hp, mod), fname)

            def factory(*args, _orig=orig, _wrap=wrap_product, **kwargs):
                return _wrap(_orig(*args, **kwargs))

            self._rebind(orig, functools.wraps(orig)(factory))
        for cls, meth, name, attrs in _methods(hp):
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig, attrs))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _rebind(self, orig, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "holopar" and not modname.startswith("holopar."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)


# ---------------------------------------------------------------- boundaries

def _rows(x):
    """Number of points (or vectors) in a (..., n) batch."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _batch(key):
    """Span counts: the number of points in the call's last argument."""
    return lambda args, kwargs, result: {key: _rows(args[-1])}


def _ensemble_attrs(sig):
    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        curves = len(a["curves"])
        steps = max(1, int(round(a["t_end"] / a["step"])))
        integrated = a["conn"].backing_parallelism is None
        return {"curves": curves, "rk4_steps": curves * steps if integrated else 0}
    return attrs


def _cli_name(argv=None, *rest, **kwargs):
    cmd = argv[0] if argv else "none"
    if cmd == "verify" and len(argv) > 1:
        return f"cli.verify.{argv[1]}"
    return "cli." + cmd.replace("-", "_")


def _frame_path(frame, coords):
    # a frame built from a matrix function has no fields and is
    # differentiated by central differences
    return ("geometry.frame_jacobian.fd" if getattr(frame, "_fields", None) is None
            else "geometry.frame_jacobian.jet")


def _functions(hp):
    v, t, c = hp.verification, hp.transport, hp.connections
    return [
        (hp.fixtures, "load_fixture", "fixtures.load", None, True),
        (v, "check_holonomy_invariance", "verification.holonomy", None, True),
        (v, "check_parallelism_compat", "verification.compat", None, True),
        (v, "check_compalg_criterion", "verification.compalg", None, True),
        (v, "berwald_obstruction", "verification.obstruction", None, True),
        (v, "check_uniqueness", "verification.uniqueness", None, True),
        (v, "generalized_berwald_verdict", "verification.verdict", None, True),
        (t, "transport_ensemble", "transport.ensemble",
         _ensemble_attrs(inspect.signature(t.transport_ensemble)), True),
        (t, "parallel_transport", "transport.parallel_transport", None, True),
        (c, "torsion", "connections.torsion", None, True),
        (c, "nabla_P", "connections.nabla_P", None, True),
        (hp.constructions, "covering_from_connection",
         "constructions.covering_from_connection", None, True),
        (hp.parallelism, "pushdown_norm", "parallelism.pushdown", None, True),
        (hp.norms, "isometry_group_2x2", "norms.isometry_group", None, True),
        (hp.norms, "lie_algebra_member", "norms.lie_algebra", None, True),
        (hp.report, "dumps", "report.dumps",
         lambda a, k, out: {"bytes": len(out.encode())}, False),
        (hp.cli, "main", _cli_name, None, True),
    ]


def _methods(hp):
    return [
        (hp.connections.Connection, "coordinate_christoffels_batch",
         "connections.christoffel_batch", _batch("points")),
        (hp.geometry.Frame, "matrix_jacobian_batch", _frame_path, _batch("points")),
        (hp.parallelism.Parallelism, "transfer", "parallelism.transfer", None),
        (hp.norms.NormField, "__call__", "norms.field_eval",
         lambda a, k, out: {"vectors": _rows(a[2] if len(a) > 2 else k["vectors"])}),
        (hp.verification.CurveGenerator, "curves", "verification.curvegen",
         lambda a, k, out: {"accepted": len(out)}),
        (hp.geometry.Curve, "validate", "verification.curvegen.validate", None),
    ]


def _factories(tracer):
    """Factories whose products carry callables that need their own spans."""

    def radial(par):
        par.phi = tracer.wrap("constructions.radial", par.phi, _batch("targets"))
        return par

    def blend(conn):
        return dataclasses.replace(
            conn, gamma=tracer.wrap("constructions.blend", conn.gamma, _batch("points")))

    def partition(weights):
        return [tracer.wrap("parallelism.partition", w, _batch("points")) for w in weights]

    return [
        ("constructions", "parallelism_from_connection", radial),
        ("constructions", "connection_from_covering_parallelism", blend),
        ("parallelism", "bump_partition", partition),
    ]


# ---------------------------------------------------------------- reduction

def layer_totals(spans):
    """Per span name: calls, busy_s, self_s and the summed span counts.

    busy_s adds a span's duration only when no enclosing span has the
    same name, so a layer nested in itself (a blended connection's gamma
    calling its members' coordinate_christoffels_batch) is not counted
    twice. self_s is each span's duration minus its direct children's.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    totals = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += dur - child[i]
        if not _nested_in_same(spans, i):
            t["busy_s"] += dur
        for key, val in s.attrs.items():
            t[key] = t.get(key, 0) + val
    return totals


def _nested_in_same(spans, i):
    name = spans[i].name
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def covered_s(spans):
    """Time covered by top-level spans."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def children_named(spans, child, parent):
    """Number of spans named ``child`` whose direct parent is named ``parent``."""
    return sum(1 for s in spans
               if s.name == child and s.parent is not None
               and spans[s.parent].name == parent)


# ---------------------------------------------------------------- metrics

VERIFICATION_CHECKS = ("holonomy", "compat", "compalg", "obstruction",
                       "uniqueness", "verdict")
FIXTURES = ("section5", "euclidean_flat", "scaled_euclidean_incompatible",
            "rotated_blend")


def _layer_metric_units():
    units = [(f"cli.verify.{fx}.s", "s") for fx in FIXTURES]
    units += [("cli.check.s", "s"), ("cli.synthesize.s", "s"),
              ("cli.isometry_group.s", "s"),
              ("fixtures.load.s", "s"), ("fixtures.load.pass_s", "s")]
    for check in VERIFICATION_CHECKS:
        units += [(f"verification.{check}.calls", "count"),
                  (f"verification.{check}.busy_s", "s"),
                  (f"verification.{check}.self_s", "s")]
    units += [("verification.curvegen.attempts", "count"),
              ("verification.curvegen.setup_attempts", "count"),
              ("verification.curvegen.accept_ratio", "ratio"),
              ("transport.ensemble.calls", "count"),
              ("transport.ensemble.curves", "count"),
              ("transport.ensemble.rk4_steps", "count"),
              ("transport.ensemble.busy_s", "s"),
              ("transport.ensemble.self_s", "s"),
              ("transport.parallel_transport.calls", "count"),
              ("transport.parallel_transport.busy_s", "s"),
              ("connections.christoffel_batch.calls", "count"),
              ("connections.christoffel_batch.points", "count"),
              ("connections.christoffel_batch.busy_s", "s"),
              ("connections.christoffel_batch.self_s", "s"),
              ("connections.christoffel_batch.points_per_call", "points/call"),
              ("connections.torsion.calls", "count"),
              ("connections.torsion.busy_s", "s"),
              ("connections.nabla_P.calls", "count"),
              ("connections.nabla_P.busy_s", "s"),
              ("geometry.frame_jacobian.jet.points", "count"),
              ("geometry.frame_jacobian.jet.busy_s", "s"),
              ("geometry.frame_jacobian.fd.calls", "count"),
              ("geometry.frame_jacobian.fd.points", "count"),
              ("geometry.frame_jacobian.fd.busy_s", "s"),
              ("geometry.frame_jacobian.fd_share", "ratio"),
              ("constructions.radial.calls", "count"),
              ("constructions.radial.targets", "count"),
              ("constructions.radial.busy_s", "s"),
              ("constructions.radial.self_s", "s"),
              ("constructions.radial_per_christoffel", "ratio"),
              ("constructions.blend.calls", "count"),
              ("constructions.blend.points", "count"),
              ("constructions.blend.self_s", "s"),
              ("constructions.covering_from_connection.busy_s", "s"),
              ("parallelism.partition.calls", "count"),
              ("parallelism.partition.points", "count"),
              ("parallelism.partition.busy_s", "s"),
              ("parallelism.transfer.calls", "count"),
              ("parallelism.transfer.busy_s", "s"),
              ("parallelism.pushdown.busy_s", "s"),
              ("norms.field_eval.calls", "count"),
              ("norms.field_eval.vectors", "count"),
              ("norms.field_eval.busy_s", "s"),
              ("norms.isometry_group.calls", "count"),
              ("norms.isometry_group.busy_s", "s"),
              ("norms.lie_algebra.calls", "count"),
              ("norms.lie_algebra.busy_s", "s"),
              ("report.dumps.bytes", "bytes"),
              ("report.dumps.busy_s", "s"),
              ("trace.overhead_s", "s"),
              ("trace.uncovered_share", "ratio")]
    return units


LAYER_METRICS = _layer_metric_units()


def layer_metrics(pass_spans, setup_spans, traced_walls, untraced_walls):
    """Per-layer metrics: per-pass means over the traced passes.

    ``pass_spans`` holds one span list per traced pass; ``setup_spans``
    the spans of one traced set-up.
    """
    npass = len(pass_spans)
    flat = {}
    radial_under_fd = 0
    covered = 0.0
    for spans in pass_spans:
        for name, tot in layer_totals(spans).items():
            acc = flat.setdefault(name, {})
            for key, val in tot.items():
                acc[key] = acc.get(key, 0) + val
        radial_under_fd += children_named(spans, "constructions.radial",
                                          "geometry.frame_jacobian.fd")
        covered += covered_s(spans)

    def get(name, key):
        return flat.get(name, {}).get(key, 0) / npass

    # "<span name>.<quantity>" by default; the derived metrics follow
    out = {}
    for name, _ in LAYER_METRICS:
        prefix, _, key = name.rpartition(".")
        out[name] = get(prefix, key)
    for fx in FIXTURES:
        out[f"cli.verify.{fx}.s"] = get(f"cli.verify.{fx}", "busy_s")
    for cmd in ("check", "synthesize", "isometry_group"):
        out[f"cli.{cmd}.s"] = get(f"cli.{cmd}", "busy_s")

    setup = layer_totals(setup_spans)
    out["fixtures.load.s"] = setup.get("fixtures.load", {}).get("busy_s", 0.0)
    out["fixtures.load.pass_s"] = get("fixtures.load", "busy_s")
    attempts = get("verification.curvegen.validate", "calls")
    setup_attempts = setup.get("verification.curvegen.validate", {}).get("calls", 0)
    accepted = (get("verification.curvegen", "accepted") * npass
                + setup.get("verification.curvegen", {}).get("accepted", 0))
    all_attempts = attempts * npass + setup_attempts
    out["verification.curvegen.attempts"] = attempts
    out["verification.curvegen.setup_attempts"] = setup_attempts
    out["verification.curvegen.accept_ratio"] = (accepted / all_attempts
                                                 if all_attempts else 0.0)

    calls = out["connections.christoffel_batch.calls"]
    out["connections.christoffel_batch.points_per_call"] = (
        out["connections.christoffel_batch.points"] / calls if calls else 0.0)
    jet, fd = (out["geometry.frame_jacobian.jet.points"],
               out["geometry.frame_jacobian.fd.points"])
    out["geometry.frame_jacobian.fd_share"] = fd / (jet + fd) if jet + fd else 0.0
    fd_calls = out["geometry.frame_jacobian.fd.calls"]
    out["constructions.radial_per_christoffel"] = (
        radial_under_fd / npass / fd_calls if fd_calls else 0.0)

    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(untraced_walls))
    out["trace.uncovered_share"] = 1.0 - covered / sum(traced_walls)
    return {name: out[name] for name, _ in LAYER_METRICS}
