"""Self-tests of the benchmark: every workload at its smallest size emits
every metric named in BENCHMARK.json with its unit, and the span
arithmetic gives the expected busy and self times.

    python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run
from tracing import Span, children_named, covered_s, layer_totals

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(w["name"] for w in BENCHMARK["workloads"]))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smallest_run_emits_every_metric(workload, trace, section):
    detail, result = run.measure(workload, seed=3, seconds=0.0, trace=trace, small=True)
    assert result["correct"], detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert detail["failed_frac"]["value"] == 0.0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, nonzero_on in BYPASS_PREDICTIONS.items():
            assert (values[name] > 0) == (workload in nonzero_on), name


# layer metrics that are zero on every workload but the named ones
BYPASS_PREDICTIONS = {
    "constructions.radial.calls": {"round_trip"},
    "geometry.frame_jacobian.fd.points": {"round_trip"},
    "transport.parallel_transport.calls": {"cli_suite"},
    "norms.isometry_group.calls": {"cli_suite", "round_trip"},
}


def _span(name, parent, start, end, **attrs):
    return Span(name, parent, start, end, attrs)


def test_self_time_of_blended_gamma_nested_in_christoffel_batch():
    # pass [0, 12]: the blended connection's coordinate_christoffels_batch
    # calls its gamma, whose members' batches differentiate ODE frames by
    # central differences; a sibling norm evaluation follows.
    spans = [
        _span("verification.holonomy", None, 0.0, 12.0),
        _span("connections.christoffel_batch", 0, 1.0, 10.0, points=100),
        _span("constructions.blend", 1, 2.0, 9.0, points=100),
        _span("connections.christoffel_batch", 2, 3.0, 5.0, points=60),
        _span("geometry.frame_jacobian.fd", 3, 3.5, 4.5, points=60),
        _span("constructions.radial", 4, 3.6, 3.8, targets=60),
        _span("constructions.radial", 4, 3.9, 4.1, targets=60),
        _span("connections.christoffel_batch", 2, 6.0, 8.0, points=40),
        _span("norms.field_eval", 0, 10.5, 11.5, vectors=7),
    ]
    t = layer_totals(spans)
    cb = t["connections.christoffel_batch"]
    assert cb["calls"] == 3 and cb["points"] == 200
    # busy counts only the outermost batch: the members' time is inside it
    assert cb["busy_s"] == pytest.approx(9.0)
    # self: (9 - 7) + (2 - 1) + (2 - 0)
    assert cb["self_s"] == pytest.approx(5.0)
    assert t["constructions.blend"]["self_s"] == pytest.approx(7.0 - 2.0 - 2.0)
    assert t["geometry.frame_jacobian.fd"]["self_s"] == pytest.approx(1.0 - 0.4)
    assert t["constructions.radial"]["busy_s"] == pytest.approx(0.4)
    assert t["constructions.radial"]["targets"] == 120
    assert t["verification.holonomy"]["self_s"] == pytest.approx(12.0 - 9.0 - 1.0)
    # the self times of all spans add up to the covered time
    assert sum(v["self_s"] for v in t.values()) == pytest.approx(covered_s(spans))
    assert children_named(spans, "constructions.radial", "geometry.frame_jacobian.fd") == 2
