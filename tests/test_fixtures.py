"""Built-in manifolds and their expected-value tables."""

import numpy as np
import pytest

from holopar.fixtures import SPECS, Expected, build_fixture, fixture_names, load_fixture
from holopar.geometry import point
from holopar.verification import (CurveGenerator, check_holonomy_invariance,
                                  check_parallelism_compat)


def test_registry_names():
    assert fixture_names() == ["euclidean_flat", "rotated_blend",
                               "scaled_euclidean_incompatible", "section5"]
    with pytest.raises(KeyError):
        load_fixture("nope")


def test_all_fixtures_load(s5, flat2, scaled, blend):
    for name in fixture_names():
        fx = load_fixture(name)
        assert fx.name == name
        assert fx.dim == 2


def test_euclidean_flat_in_three_dimensions():
    flat3 = {"domain": [[-5.0, 5.0]] * 3,
             "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
             "norm": {"type": "custom", "expr": "sqrt(a^2+b^2+c^2)"}}
    fx = build_fixture(dict(SPECS["euclidean_flat"], manifold=flat3), "euclidean_flat")
    assert fx.dim == 3
    gen = CurveGenerator(fx.domain.shrink(0.05), seed=3, count=8)
    assert check_holonomy_invariance(fx.norm_field, fx.connection, gen).passed
    assert check_parallelism_compat(fx.norm_field, fx.parallelism, pairs=20, tol=1e-9).passed


def test_an_identity_frame_spec_builds_the_coordinate_frame(flat2, scaled, blend):
    # and with it the translation parallelism, which skips frame evaluation
    for fx in (flat2, scaled, blend):
        assert fx.frame.coordinate
    assert flat2.parallelism.frame.coordinate and scaled.parallelism.frame.coordinate
    assert not load_fixture("section5").frame.coordinate


def test_section5_expected_table_provenance(s5):
    tags = {k: e.provenance for k, e in s5.expected.items()}
    assert tags["torsion_E1_E2"] == "analytic"
    assert tags["transport_00_to_10"] == "derived"
    assert isinstance(s5.expected["norm_values"], Expected)


def test_section5_norm_values(s5):
    F = s5.norm_field
    # d/dy at the origin reads as (1, 0) through the coframe
    assert float(F(np.array([0.0, 0.0]), np.array([0.0, 1.0]))) == pytest.approx(1.0)
    # (1, 1) at (1, 0): dy = 1, -dx + x dy = 0
    assert float(F(np.array([1.0, 0.0]), np.array([1.0, 1.0]))) == pytest.approx(1.0)
    for base in ((0.0, 0.0), (2.0, -3.0)):
        assert float(F(np.array(base), np.zeros(2))) == 0.0


def test_section5_frame_matches_quoted_fields(s5):
    E = s5.frame.matrix(point(2.0, 0.5))
    assert np.allclose(E, [[2.0, -1.0], [1.0, 0.0]])


def test_validate_rejects_wrong_expected_value(s5):
    import dataclasses
    bad = dataclasses.replace(
        s5, expected={"torsion_E1_E2": Expected([0.0, 0.0], 1e-9, "analytic")})
    with pytest.raises(AssertionError):
        bad.validate()


def test_scaled_fixture_suite_is_the_expected_compat_failure(scaled):
    (check, overrides), = scaled.checks
    assert check == "expected_failure"
    assert overrides["check"] == "compat" and overrides["ratio"] == np.e
    assert scaled.expected == {}


def test_rescaling_connection_symbols(rescaling):
    conn = rescaling
    g = conn.coordinate_christoffels(point(0.3, 0.3))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_blend_members_cover_region(blend):
    boxes = [box for box, _ in blend.parallelism.members]
    rng = np.random.default_rng(0)
    pts = blend.domain.sample(rng, 300)
    covered = np.zeros(len(pts), dtype=bool)
    for b in boxes:
        covered |= b.contains_batch(pts)
    assert np.all(covered)


def test_fixture_instances_are_independent():
    a = load_fixture("section5")
    b = load_fixture("section5")
    assert a is not b
    assert np.array_equal(a.frame.matrix(point(1.0, 1.0)),
                          b.frame.matrix(point(1.0, 1.0)))
