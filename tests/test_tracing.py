"""The benchmark's tracer (bench/tracing.py) on the library: every name it
wraps exists, transport's blended Christoffel calls are recorded inside
the ensemble span with the partition weights inside them, and the
compalg check's nabla P inside its own."""

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


def _traced_blend_ensemble():
    """Spans of a traced transport_ensemble of two rotated_blend curves;
    asserts that uninstalling the tracer restores what it wrapped."""
    hp = SimpleNamespace(**{m: importlib.import_module(f"holopar.{m}") for m in MODULES})
    tracer = _tracer()
    untraced = hp.transport.transport_ensemble, hp.connections.Connection.__dict__[
        "coordinate_christoffels_batch"]
    try:
        tracer.install(hp)
        fx = hp.fixtures.load_fixture("rotated_blend")
        curves = hp.verification.CurveGenerator(fx.domain.shrink(0.05), seed=1,
                                                count=2).curves()
        tracer.spans.clear()
        hp.transport.transport_ensemble(fx.connection, curves, [0.5, 1.0], step=1e-2)
    finally:
        tracer.uninstall()
    assert (hp.transport.transport_ensemble, hp.connections.Connection.__dict__[
        "coordinate_christoffels_batch"]) == untraced
    return tracer.spans


def test_blend_spans_open_inside_the_transport_ensemble():
    spans = _traced_blend_ensemble()
    blends = [s for s in spans if s.name == "constructions.blend"]
    assert blends
    for s in blends:
        assert spans[s.parent].name == "transport.ensemble"
    assert sum(s.attrs["points"] for s in blends) == 2 * 201


def test_every_blend_span_holds_a_partition_span_over_its_points():
    # the blend calls its moving member's weight on the whole batch, so
    # the tracer's partition layer stays live under every blend span
    spans = _traced_blend_ensemble()
    blends = [i for i, s in enumerate(spans) if s.name == "constructions.blend"]
    assert blends
    for i in blends:
        weights = [s for s in spans if s.parent == i and s.name == "parallelism.partition"]
        assert weights
        assert all(s.attrs["points"] == spans[i].attrs["points"] for s in weights)


def test_the_compalg_check_records_one_nabla_p_span():
    hp = SimpleNamespace(**{m: importlib.import_module(f"holopar.{m}") for m in MODULES})
    tracer = _tracer()
    fx = hp.fixtures.load_fixture("section5")
    try:
        tracer.install(hp)
        tracer.spans.clear()
        hp.verification.check_compalg_criterion(fx.norm_field, fx.parallelism, fx.connection,
                                                samples=10)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    nablas = [s for s in spans if s.name == "connections.nabla_P"]
    assert len(nablas) == 1
    assert spans[nablas[0].parent].name == "verification.compalg"
