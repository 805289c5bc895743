"""Command-line interface: fixture suites, inline checks, synthesis,
isometry groups, exit codes and report determinism."""

import json

import numpy as np
import pytest

from holopar import cli, report
from holopar.cli import build_box, build_frame, build_norm, main
from holopar.errors import ConfigError
from holopar.fixtures import load_fixture
from holopar.transport import parallel_transport, transport_ensemble

S5_CONFIG = {
    "domain": [[-5.0, 5.0], [-5.0, 5.0]],
    "frame": [["x", "1"], ["-1", "0"]],
    "norm": {"type": "randers", "Q": [[4.0, 0.0], [0.0, 12.0]], "beta": [-1.0, 0.0]},
    "curves": 10,
    "vectors": 10,
}

RANDERS_SPEC = json.dumps(S5_CONFIG["norm"])


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


# ---------------------------------------------------------------- verify

def test_verify_section5(tmp_path):
    code, doc = run(["verify", "section5", "--curves", "20"], tmp_path)
    assert code == 0 and doc["all_pass"]
    assert doc["summary"]["torsion_max"] == pytest.approx(1.0, abs=1e-9)
    assert doc["summary"]["isometry_count"] == 2
    assert doc["summary"]["invariance_max_rel"] <= 1e-6


def test_verify_euclidean_flat(tmp_path):
    code, doc = run(["verify", "euclidean_flat", "--curves", "10"], tmp_path)
    assert code == 0 and doc["all_pass"]


def test_verify_expected_failure_counts_as_pass(tmp_path):
    code, doc = run(["verify", "scaled_euclidean_incompatible"], tmp_path)
    assert code == 0 and doc["all_pass"]
    inner = doc["checks"][0]["witness"]["inner"]
    assert inner["pass"] is False
    assert inner["witness"]["value_ratio"] == pytest.approx(np.e, abs=1e-6)


def test_verify_rotated_blend(tmp_path):
    code, doc = run(["verify", "rotated_blend", "--curves", "10"], tmp_path)
    assert code == 0 and doc["all_pass"]
    by = {c["check"]: c for c in doc["checks"]}
    assert by["torsion_obstruction_positive"]["witness"]["obstruction"] > 1e-6


def test_verify_is_byte_deterministic(tmp_path):
    _, _ = run(["verify", "euclidean_flat", "--curves", "5"], tmp_path, "a.json")
    _, _ = run(["verify", "euclidean_flat", "--curves", "5"], tmp_path, "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_transport_oracle_batch_matches_one_curve_transport(monkeypatch):
    # the oracle's single ensemble run reproduces parallel_transport's
    # kept (step/2) matrix on every curve
    calls = []

    def recording(conn, curves, *args, **kwargs):
        out = transport_ensemble(conn, curves, *args, **kwargs)
        calls.append((conn, curves, out[0]))
        return out

    monkeypatch.setattr(cli, "transport_ensemble", recording)
    fx = load_fixture("section5")
    rep = cli._transport_oracle_report(fx, curves=5, step=1e-3)
    assert rep.passed and len(calls) == 1
    conn, curves, phis = calls[0]
    assert len(curves) == rep.samples == 6
    for curve, mats in zip(curves, phis):
        assert np.array_equal(mats[0], parallel_transport(conn, curve, 1.0, step=1e-3).matrix)


# ---------------------------------------------------------------- check

def test_check_holonomy_inline(tmp_path):
    code, doc = run(["check", "--config", json.dumps(S5_CONFIG),
                     "--op", "holonomy"], tmp_path)
    assert code == 0 and doc["report"]["pass"]


def test_check_compat_inline(tmp_path):
    code, doc = run(["check", "--config", json.dumps(S5_CONFIG),
                     "--op", "compat", "--tol", "1e-9"], tmp_path)
    assert code == 0 and doc["report"]["pass"]


def test_check_torsion_inline(tmp_path):
    code, doc = run(["check", "--config", json.dumps(S5_CONFIG),
                     "--op", "torsion"], tmp_path)
    assert code == 0
    assert doc["report"]["witness"]["obstruction"] == pytest.approx(1.0, abs=1e-9)


def test_check_config_from_file(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(S5_CONFIG))
    code, doc = run(["check", "--config", str(cfg), "--op", "compat",
                     "--tol", "1e-9"], tmp_path)
    assert code == 0 and doc["report"]["pass"]


# ---------------------------------------------------------------- synthesize

def test_synthesize_single_member(tmp_path):
    config = {
        "region": [[-4.0, 4.0], [-4.0, 4.0]],
        "members": [{"domain": [[-5.0, 5.0], [-5.0, 5.0]],
                     "frame": [["x", "1"], ["-1", "0"]]}],
        "grid": 3,
    }
    code, doc = run(["synthesize", "--config", json.dumps(config)], tmp_path)
    assert code == 0
    gammas = np.asarray(doc["connection"]["coordinate_christoffels"])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = -1.0
    assert np.max(np.abs(gammas - expected)) <= 1e-9


def test_synthesize_translation_members(tmp_path):
    config = {
        "region": [[-2.0, 2.0], [-2.0, 2.0]],
        "members": [{"domain": [[-3.0, 1.0], [-3.0, 3.0]], "frame": "translation"},
                    {"domain": [[-1.0, 3.0], [-3.0, 3.0]], "frame": "translation"}],
        "grid": 3,
    }
    code, doc = run(["synthesize", "--config", json.dumps(config)], tmp_path)
    assert code == 0
    gammas = np.asarray(doc["connection"]["coordinate_christoffels"])
    assert np.max(np.abs(gammas)) <= 1e-9


# ---------------------------------------------------------------- isometry-group

def test_isometry_group_randers(tmp_path):
    code, doc = run(["isometry-group", "--norm", RANDERS_SPEC], tmp_path)
    assert code == 0 and doc["count"] == 2 and not doc["continuous_family"]


def test_isometry_group_custom_expr(tmp_path):
    spec = json.dumps({"type": "custom", "expr": "sqrt(4*a^2+12*b^2)-a"})
    code, doc = run(["isometry-group", "--norm", spec], tmp_path)
    assert code == 0 and doc["count"] == 2


def test_isometry_group_euclidean_is_continuous(tmp_path):
    spec = json.dumps({"type": "custom", "expr": "sqrt(a^2+b^2)"})
    code, doc = run(["isometry-group", "--norm", spec], tmp_path)
    assert code == 0 and doc["continuous_family"] is True


# ---------------------------------------------------------------- errors

def test_unknown_config_key_is_rejected():
    bad = dict(S5_CONFIG, typo=1)
    assert main(["check", "--config", json.dumps(bad), "--op", "compat"]) == 2


def test_invalid_json_is_rejected():
    assert main(["check", "--config", "{not json", "--op", "compat"]) == 2


def test_bad_norm_via_is_rejected():
    bad = dict(S5_CONFIG, norm_via="sideways")
    assert main(["check", "--config", json.dumps(bad), "--op", "compat"]) == 2


def test_indefinite_custom_norm_is_rejected():
    spec = json.dumps({"type": "custom", "expr": "a"})
    assert main(["isometry-group", "--norm", spec]) == 1


def test_expression_vocabulary_is_closed():
    with pytest.raises(ConfigError):
        build_norm({"type": "custom", "expr": "__import__('os')"})
    with pytest.raises(ConfigError):
        build_norm({"type": "custom", "expr": "q + 1"})
    with pytest.raises(ConfigError):
        build_frame([["x", "1"], ["open('x')", "0"]], build_box([[-1, 1], [-1, 1]]))


# ---------------------------------------------------------------- reports

def test_float_serialization_is_17_digits():
    assert "0.10000000000000001" in report.dumps({"x": 0.1})
    doc = json.loads(report.dumps({"a": [1, True, None, "s"]}))
    assert doc == {"a": [1, True, None, "s"]}


def test_numpy_values_serialize(tmp_path):
    text = report.dumps({"m": np.array([[1.0, 0.5]]), "n": np.int64(3),
                         "f": np.float64(2.0)})
    doc = json.loads(text)
    assert doc["m"] == [[1.0, 0.5]] and doc["n"] == 3 and doc["f"] == 2.0
