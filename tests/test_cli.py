"""Command-line interface: fixture suites, inline checks, synthesis,
isometry groups, exit codes and report determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holopar import cli, exprs, report
from holopar.cli import main
from holopar.connections import Connection, constant_christoffels
from holopar.errors import ConfigError
from holopar.exprs import parse_exprs
from holopar.fixtures import (SPECS, build_box, build_fixture, build_frame, build_norm,
                              fixture_names, load_fixture)
from holopar.norms import ContinuousFamily, RandersData, randers_norm
from holopar.transport import parallel_transport, transport_ensemble
from holopar.verification import check_compalg_criterion

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


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_declares_a_suite_in_the_check_table(name):
    fx = load_fixture(name)
    assert fx.checks
    for check, overrides in fx.checks:
        assert check in cli.CHECKS and isinstance(overrides, dict)
    assert all(key in cli.SUMMARIES for key in fx.summary)


@pytest.mark.parametrize("name", fixture_names())
def test_verify_reports_are_the_declared_suite(name, monkeypatch):
    # the suite runs each declared entry once, and its reports are the
    # checks of the document (nested entries, as inside an expected
    # failure, add no report of their own)
    calls, depth = [], [0]

    def recording(check, fn):
        def run(fx, options, **overrides):
            depth[0] += 1
            try:
                rep = fn(fx, options, **overrides)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                calls.append((check, rep.check))
            return rep
        return run

    for check, fn in list(cli.CHECKS.items()):
        monkeypatch.setitem(cli.CHECKS, check, recording(check, fn))
    doc = cli.run_fixture_suite(name, curves=3, vectors=3)
    assert [c for c, _ in calls] == [c for c, _ in load_fixture(name).checks]
    assert sorted(c["check"] for c in doc["checks"]) == sorted(r for _, r in calls)


def test_check_ops_are_the_four_table_checks():
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    op = next(a for a in sub.choices["check"]._actions if a.dest == "op")
    assert tuple(op.choices) == ("holonomy", "compat", "compalg", "torsion")
    assert set(op.choices) <= set(cli.CHECKS)


@pytest.mark.parametrize("argv", [
    ["synthesize", "--config", "{}", "--seed", "1"],
    ["isometry-group", "--norm", RANDERS_SPEC, "--curves", "5"],
])
def test_check_settings_are_usage_errors_where_no_check_runs(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("grid", [-3, "a", 0, 2.5, True])
def test_bad_synthesize_grid_is_a_config_error_naming_the_value(grid, capsys):
    config = {"region": [[-2.0, 2.0], [-2.0, 2.0]], "grid": grid,
              "members": [{"domain": [[-3.0, 3.0], [-3.0, 3.0]], "frame": "translation"}]}
    assert main(["synthesize", "--config", json.dumps(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid ") and repr(grid) in err
    assert "Traceback" not in err


def test_synthesize_config_seed_is_rejected():
    config = {"region": [[-2.0, 2.0], [-2.0, 2.0]], "seed": 1,
              "members": [{"domain": [[-3.0, 3.0], [-3.0, 3.0]], "frame": "translation"}]}
    assert main(["synthesize", "--config", json.dumps(config)]) == 2


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


def test_check_holonomy_on_a_one_dimensional_manifold(tmp_path):
    config = {"domain": [[-1, 1]], "frame": [["1"]],
              "norm": {"type": "custom", "expr": "sqrt(a^2)"}}
    code, doc = run(["check", "--config", json.dumps(config), "--op", "holonomy"], tmp_path)
    assert code == 0 and doc["report"]["pass"]
    assert doc["report"]["max_rel_error"] <= 1e-12


def test_check_config_from_file(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(S5_CONFIG))
    code, doc = run(["check", "--config", str(cfg), "--op", "compat",
                     "--tol", "1e-9"], tmp_path)
    assert code == 0 and doc["report"]["pass"]


# verify's settings of the goldens
GOLDEN_RUN = ["--seed", "7", "--curves", "12", "--step", "2e-3"]


@pytest.mark.parametrize("name", [n for n in fixture_names()
                                  if any(c in cli.CHECK_OPS for c, _ in SPECS[n]["checks"])])
def test_check_on_a_fixture_manifold_spec_gives_its_verify_entries(name, tmp_path):
    # verify and check build the manifold with one builder: check --op on
    # the fixture's own manifold spec, with the suite's tolerance, repeats
    # verify's report (the torsion floor has no check flag: its obstruction)
    _, verified = run(["verify", name] + GOLDEN_RUN, tmp_path, "verify.json")
    by = {c["check"]: c for c in verified["checks"]}
    config = json.dumps(SPECS[name]["manifold"])
    for op, overrides in SPECS[name]["checks"]:
        if op not in cli.CHECK_OPS:
            continue
        tol = ["--tol", repr(overrides["tol"])] if "tol" in overrides else []
        _, doc = run(["check", "--op", op, "--config", config] + GOLDEN_RUN + tol,
                     tmp_path, f"{op}.json")
        rep = doc["report"]
        if "floor" in overrides:
            assert rep["witness"] == by[rep["check"] + "_positive"]["witness"]
        else:
            assert rep == by[rep["check"]]


def test_readme_check_config_gives_the_section5_holonomy_entry(tmp_path):
    argv = next(a for a in _readme_commands() if a[1] == "check")
    assert argv[argv.index("--op") + 1] == "holonomy"
    _, doc = run(argv[1:] + GOLDEN_RUN, tmp_path, "check.json")
    _, verified = run(["verify", "section5"] + GOLDEN_RUN, tmp_path, "verify.json")
    by = {c["check"]: c for c in verified["checks"]}
    assert doc["report"] == by["holonomy_invariance"]


@pytest.mark.parametrize("name", fixture_names())
def test_check_runs_on_every_fixture_manifold_spec(name, tmp_path):
    config = json.dumps(SPECS[name]["manifold"])
    code, doc = run(["check", "--op", "torsion", "--config", config], tmp_path)
    assert code == 0 and doc["config"] == SPECS[name]["manifold"]
    assert doc["report"]["check"] == "torsion_obstruction"


@pytest.mark.parametrize("op", ["compat", "compalg"])
def test_parallelism_checks_of_a_cover_are_config_errors(op, capsys):
    config = json.dumps(SPECS["rotated_blend"]["manifold"])
    assert main(["check", "--op", op, "--config", config]) == 2
    assert "not a cover" in capsys.readouterr().err


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


def test_isometry_group_of_conjugate_rotations_is_certified(tmp_path):
    # iso of sqrt(4a^2+12b^2) is a conjugate of O(2), not the standard
    # rotations; its non-zero Lie algebra certifies the family
    spec = json.dumps({"type": "custom", "expr": "sqrt(4*a^2+12*b^2)"})
    code, doc = run(["isometry-group", "--norm", spec], tmp_path)
    assert code == 0 and doc["continuous_family"] is True
    assert doc["note"] == ContinuousFamily().note


@pytest.mark.parametrize("spec", [
    {"type": "custom", "expr": "sqrt(a^2+b^2+c^2)", "dimension": 3},
    {"type": "randers", "Q": np.eye(3).tolist(), "beta": [0.2, 0.0, 0.0]},
])
def test_isometry_group_of_a_non_planar_norm_is_a_config_error(spec, capsys):
    assert main(["isometry-group", "--norm", json.dumps(spec)]) == 2
    assert "2-D norm" in capsys.readouterr().err


def test_isometry_group_of_the_even_l4_norm(tmp_path):
    # f(-v) = f(v); the group is the 8 signed permutation matrices
    spec = json.dumps({"type": "custom", "expr": "sqrt(sqrt(a^4+b^4))"})
    code, doc = run(["isometry-group", "--norm", spec], tmp_path)
    assert code == 0 and not doc["continuous_family"] and doc["count"] == 8
    got = {tuple(np.round(np.asarray(m).ravel(), 12)) for m in doc["matrices"]}
    assert got == {(a, 0.0, 0.0, b) for a in (1, -1) for b in (1, -1)} | \
        {(0.0, a, b, 0.0) for a in (1, -1) for b in (1, -1)}


def test_isometry_group_of_a_kinked_custom_norm_is_refused(tmp_path, capsys):
    # the l1 norm has kinks on the axes, where the jet gradient divides by
    # sqrt(0); the refusal is an error exit with no numpy warning (tier-1
    # turns warnings into errors)
    spec = json.dumps({"type": "custom", "expr": "sqrt(a^2)+sqrt(b^2)"})
    assert main(["isometry-group", "--norm", spec]) == 1
    assert "gradient that is finite" in capsys.readouterr().err
    # the smooth custom norm still lists its two elements
    spec = json.dumps({"type": "custom", "expr": "sqrt(4*a^2+12*b^2)-a"})
    code, doc = run(["isometry-group", "--norm", spec], tmp_path)
    assert code == 0 and doc["count"] == 2


def test_compalg_of_a_kinked_custom_norm_is_refused(tmp_path, capsys):
    # the same l1 norm on README's frame: a NaN gradient would make every
    # violation NaN, so compalg refuses it before writing a report
    cfg = dict(S5_CONFIG, norm={"type": "custom", "expr": "sqrt(a^2)+sqrt(b^2)"})
    code, doc = run(["check", "--op", "compalg", "--config", json.dumps(cfg)], tmp_path)
    assert code == 1 and doc is None
    assert "gradient that is finite" in capsys.readouterr().err


def test_custom_norm_gradient_is_the_exact_jet_gradient():
    custom = build_norm({"type": "custom", "expr": "sqrt(4*a^2+12*b^2)-a"})
    exact = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    v = np.random.default_rng(3).normal(size=(5, 7, 2))
    assert custom.gradient(v).shape == (5, 7, 2)
    assert np.max(np.abs(custom.gradient(v) - exact.gradient(v))) <= 1e-12


def test_compalg_on_a_custom_norm_decides_with_its_tol():
    # Gamma^x_xx = 1 makes (nabla P)_v a non-zero endomorphism outside the
    # trivial algebra of the section5 norm; written as a custom expression
    # the norm must give the Randers violation and flip at the check's tol
    custom = build_fixture({"manifold": dict(S5_CONFIG, norm={"type": "custom",
                                                              "expr": "sqrt(4*a^2+12*b^2)-a"})})
    randers = build_fixture({"manifold": S5_CONFIG})
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = Connection(custom.frame, constant_christoffels(gamma))
    want = check_compalg_criterion(randers.norm_field, randers.parallelism, conn,
                                   samples=10).max_rel_error
    assert want > 1e-3
    for tol in (want * (1.0 - 1e-9), want * (1.0 + 1e-9)):
        rep = check_compalg_criterion(custom.norm_field, custom.parallelism, conn,
                                      samples=10, tol=tol)
        assert rep.max_rel_error == pytest.approx(want, rel=1e-12)
        assert rep.passed == (tol > want)


# ---------------------------------------------------------------- errors

def test_unknown_config_key_is_rejected():
    bad = dict(S5_CONFIG, typo=1)
    assert main(["check", "--config", json.dumps(bad), "--op", "compat"]) == 2


@pytest.mark.parametrize("op", ["holonomy", "compat"])
def test_non_numeric_check_setting_is_rejected(op):
    bad = dict(S5_CONFIG, curves="many")
    assert main(["check", "--config", json.dumps(bad), "--op", op]) == 2


@pytest.mark.parametrize("argv, named", [
    (["verify", "section5", "--curves", "0"], "curves must be at least 1, not 0"),
    (["verify", "section5", "--curves", "-1"], "curves must be at least 1, not -1"),
    (["verify", "section5", "--vectors", "0"], "vectors must be at least 1, not 0"),
    (["verify", "section5", "--step", "0"], "step 0.0 "),
    (["verify", "section5", "--step=0.3"], "step 0.3 "),
    (["verify", "section5", "--step=-1e-3"], "step -0.001 "),
    (["verify", "section5", "--step", "2"], "step 2.0 "),
    (["verify", "section5", "--step", "0.03"], "step 0.03 "),
    (["check", "--config", json.dumps(dict(S5_CONFIG, curves=0))],
     "curves must be at least 1, not 0"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, vectors=0))],
     "vectors must be at least 1, not 0"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, step=0))], "step 0.0 "),
    (["check", "--config", json.dumps(dict(S5_CONFIG, step=0.3))], "step 0.3 "),
    (["check", "--config", json.dumps(dict(S5_CONFIG, step=0.0015))], "step 0.0015 "),
    (["check", "--config", json.dumps(S5_CONFIG), "--step", "0"], "step 0.0 "),
    (["verify", "euclidean_flat", "--seed=-1"], "seed must be at least 0, not -1"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, seed=-3))],
     "seed must be at least 0, not -3"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, curves=2.7))],
     "curves must be an integer, not 2.7"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, curves=True))],
     "curves must be an integer, not True"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, curves="3"))],
     "curves must be an integer, not '3'"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, vectors=2.0))],
     "vectors must be an integer, not 2.0"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, seed=1.9))],
     "seed must be an integer, not 1.9"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, tolerance="nan"))],
     "tolerance must be a finite number, not 'nan'"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, tolerance=-1))],
     "tolerance must be at least 0, not -1"),
    (["verify", "section5", "--tol", "nan"], "tolerance must be a finite number, not nan"),
    (["verify", "section5", "--tol=-1"], "tolerance must be at least 0, not -1.0"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, step="0.01"))],
     "step must be a finite number, not '0.01'"),
    (["check", "--config", json.dumps(dict(S5_CONFIG, tolerance=10 ** 400))],
     "tolerance must be a finite number, not 1000"),
])
def test_bad_run_setting_is_a_config_error_naming_the_value(argv, named, capsys, monkeypatch):
    # refused before any fixture is loaded or any check runs
    monkeypatch.setattr(cli, "load_fixture", lambda name: pytest.fail("fixture loaded"))
    monkeypatch.setattr(cli, "CHECKS", {})
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert "Traceback" not in err


_EYE = '[["1", "0"], ["0", "1"]]'
_EUCLID = '{"type": "custom", "expr": "sqrt(a^2+b^2)"}'
_UNIT = "[[-1, 1], [-1, 1]]"


@pytest.mark.parametrize("box, named", [
    ("[[-1, 1], [-1, NaN]]", "box bound nan "),
    ("[[-1, 1e400], [-1, 1]]", "box bound inf "),
    ("[[-1e400, 1], [-1, 1]]", "box bound -inf "),
], ids=["nan", "1e400", "-1e400"])
@pytest.mark.parametrize("argv", [
    ["check", "--config", f'{{"domain": BOX, "frame": {_EYE}, "norm": {_EUCLID}}}'],
    ["check", "--config", f'{{"domain": {_UNIT}, "frame": {_EYE}, "norm": {_EUCLID}, '
                          f'"cover": [{{"domain": BOX, "frame": "translation"}}]}}'],
    ["synthesize", "--config", f'{{"region": BOX, "members": '
                               f'[{{"domain": {_UNIT}, "frame": "translation"}}]}}'],
], ids=["domain", "member", "region"])
def test_a_box_bound_that_is_not_finite_is_a_config_error_naming_it(box, named, argv, capsys):
    assert main([a.replace("BOX", box) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert "Traceback" not in err


def test_steps_whose_grid_holds_the_sample_times_are_accepted():
    for step in (1e-3, 2e-3, 5e-3, 1e-2, 0.1, 1 / 30):
        assert cli.run_settings(step, 1e-6, 1, 1, 0).step == step


def test_invalid_json_is_rejected():
    assert main(["check", "--config", "{not json", "--op", "compat"]) == 2


def test_a_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["synthesize", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_bad_norm_via_is_rejected():
    bad = dict(S5_CONFIG, norm_via="sideways")
    assert main(["check", "--config", json.dumps(bad), "--op", "compat"]) == 2


def test_indefinite_custom_norm_is_rejected():
    spec = json.dumps({"type": "custom", "expr": "a"})
    assert main(["isometry-group", "--norm", spec]) == 1


@pytest.mark.parametrize("norm, named", [
    ({"type": "custom", "expr": "sqrt(a^2+b^2)", "dimension": "x"}, "dimension must be"),
    ({"type": "randers", "Q": [[4, 0], [0, 12]], "beta": [-1, 0, 0]}, "shapes (2, 2) and (3,)"),
    ({"type": "randers", "Q": np.eye(3).tolist(), "beta": [0.2, 0, 0]},
     "3-D norm on a 2-D domain"),
    ({"type": "custom", "expr": "exp(x)*sqrt(a^2+b^2)"}, "names coordinates"),
])
def test_malformed_norm_spec_is_a_config_error(norm, named, capsys):
    config = json.dumps(dict(S5_CONFIG, norm=norm))
    assert main(["check", "--op", "compat", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert "Traceback" not in err


def test_a_norm_field_that_names_coordinates_is_checked_for_definiteness(capsys):
    # x |v| is negative on half of the domain
    config = {"domain": [[-1, 1], [-1, 1]], "frame": [["1", "0"], ["0", "1"]],
              "norm": {"type": "custom", "expr": "x*sqrt(a^2+b^2)"}}
    assert main(["check", "--op", "compat", "--config", json.dumps(config)]) == 1
    assert "norm not positive" in capsys.readouterr().err


def test_a_repeated_subexpression_is_evaluated_once_per_call(monkeypatch):
    # rotated_blend's member frame names its angle twice per field
    calls = []
    step = exprs._CALLS["smooth_step"]
    monkeypatch.setitem(exprs._CALLS, "smooth_step", lambda t: calls.append(1) or step(t))
    frame = build_frame(SPECS["rotated_blend"]["manifold"]["cover"][1]["frame"], None)
    x = np.linspace(-2.0, 2.0, 9)
    cols = [f((x, 0.0 * x)) for f in frame.fields]
    assert len(calls) == 2
    angle = np.pi / 6.0 * step((x + 1.0) * 0.5)
    assert np.array_equal(cols[0][0], np.cos(angle)) and np.array_equal(cols[1][0], -np.sin(angle))


def test_expression_vocabulary_is_closed():
    with pytest.raises(ConfigError):
        build_norm({"type": "custom", "expr": "__import__('os')"})
    with pytest.raises(ConfigError):
        build_norm({"type": "custom", "expr": "q + 1"})
    with pytest.raises(ConfigError):
        build_frame([["x", "1"], ["open('x')", "0"]], build_box([[-1, 1], [-1, 1]]))


@pytest.mark.parametrize("expr", ["a^b", "x^(y+1)", "b^-a", "x^(2*y)"])
def test_a_power_with_a_variable_exponent_is_refused_when_parsed(expr):
    with pytest.raises(ConfigError, match="power exponent must be a constant"):
        parse_exprs([expr], ("a", "b", "x", "y"))


def test_a_power_with_a_constant_exponent_parses():
    vals = np.array([4.0, 9.0])
    assert np.array_equal(parse_exprs(["a^2"], ("a",))(vals)[0], vals ** 2.0)
    assert np.array_equal(parse_exprs(["x^0.5"], ("x",))(vals)[0], vals ** 0.5)
    assert parse_exprs(["x^(1+sqrt(4))"], ("x",))(2.0)[0] == 8.0


# ---------------------------------------------------------------- README

def _readme_commands():
    """argv of every `holopar ...` command in README's "Command line" block;
    a quoted argument may run over several lines."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending += line + "\n"
        try:
            commands.append(shlex.split(pending))
        except ValueError:           # an open quote continues on the next line
            continue
        pending = ""
    assert not pending, "unterminated command in README"
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {"verify", "check", "synthesize",
                                              "isometry-group"}
    parser = cli.make_parser()
    for argv in commands:
        assert argv[0] == "holopar"
        args = parser.parse_args(argv[1:])
        for inline in (getattr(args, "config", None), getattr(args, "norm", None)):
            if inline is not None and inline.lstrip().startswith("{"):
                json.loads(inline)


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


# ---------------------------------------------------------------- dependencies

def test_the_runtime_imports_no_scipy():
    # scipy is a test dependency only; a fresh interpreter sees what
    # importing holopar and its CLI loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, holopar, holopar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
