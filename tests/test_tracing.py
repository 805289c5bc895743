"""The benchmark's tracer (bench/tracing.py) on the library: every name it
wraps exists, and transport's blended Christoffel calls are recorded
inside the ensemble span."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("cli", "connections", "constructions", "fixtures", "geometry",
           "norms", "parallelism", "report", "transport", "verification")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_blend_spans_open_inside_the_transport_ensemble():
    hp = SimpleNamespace(**{m: importlib.import_module(f"holopar.{m}") for m in MODULES})
    tracer = _tracer()
    untraced = hp.transport.transport_ensemble, hp.connections.Connection.__dict__[
        "coordinate_christoffels_batch"]
    try:
        tracer.install(hp)
        fx = hp.fixtures.rotated_blend()
        curves = hp.verification.CurveGenerator(fx.domain.shrink(0.05), seed=1,
                                                count=2).curves()
        tracer.spans.clear()
        hp.transport.transport_ensemble(fx.connection, curves, [0.5, 1.0], step=1e-2)
    finally:
        tracer.uninstall()
    assert (hp.transport.transport_ensemble, hp.connections.Connection.__dict__[
        "coordinate_christoffels_batch"]) == untraced
    spans = tracer.spans
    blends = [s for s in spans if s.name == "constructions.blend"]
    assert blends
    for s in blends:
        assert spans[s.parent].name == "transport.ensemble"
    assert sum(s.attrs["points"] for s in blends) == 2 * 201
