"""Check runners, obstruction, uniqueness and verdicts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopar.connections import Connection, constant_christoffels
from holopar.constructions import connection_from_covering_parallelism
from holopar.errors import DomainError, PreconditionError, RegularityError
from holopar.geometry import (Box, Curve, coordinate_frame, curve_positions_velocities, point,
                              segment_coords)
from holopar.jets import jcos
from holopar.norms import RandersData, constant_norm_field, randers_norm
from holopar.parallelism import CoveringParallelism, frame_parallelism, translation_parallelism
from holopar import report, verification
from holopar.transport import transport_ensemble
from holopar.verification import (CheckReport, CurveGenerator, VerdictResult,
                                  berwald_obstruction, check_compalg_criterion,
                                  check_holonomy_invariance,
                                  check_parallelism_compat, check_uniqueness,
                                  bezier_coords, circle_coords, generalized_berwald_verdict,
                                  sine_coords)

WORK = Box((-4.0, -4.0), (4.0, 4.0))


# ---------------------------------------------------------- invariance

def test_section5_invariance_passes(s5):
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=1, count=20)
    rep = check_holonomy_invariance(s5.norm_field, s5.connection, gen,
                                    tol=1e-6, step=1e-3)
    assert rep.passed
    assert rep.samples == 20 * 10 * 20
    assert "value_ratio" in rep.witness


def test_flat_invariance_is_exact(flat2):
    gen = CurveGenerator(flat2.domain.shrink(0.05), seed=2, count=10)
    rep = check_holonomy_invariance(flat2.norm_field, flat2.connection, gen,
                                    tol=1e-6, step=1e-3)
    assert rep.passed and rep.max_abs_error <= 1e-12


@pytest.mark.parametrize("name", ["s5", "blend"])
def test_invariance_takes_no_christoffel_tensor(name, request, monkeypatch):
    # the transport coefficients come from Gamma(v) alone: with the tensor
    # path unreachable the report keeps every byte
    fx = request.getfixturevalue(name)

    def run():
        gen = CurveGenerator(fx.domain.shrink(0.05), seed=4, count=12)
        rep = check_holonomy_invariance(fx.norm_field, fx.connection, gen, step=2e-3)
        return report.dumps(rep.to_dict())

    def unreachable(*args):
        raise AssertionError("coordinate Christoffel tensor evaluated")

    restored = run()
    monkeypatch.setattr(Connection, "coordinate_christoffels_batch", unreachable)
    assert run() == restored
    monkeypatch.undo()
    assert run() == restored


def test_rescaling_connection_fails_invariance(rescaling):
    from holopar.norms import constant_norm_field, euclidean_norm
    F = constant_norm_field(euclidean_norm(2))
    conn = rescaling
    gen = CurveGenerator(WORK.shrink(0.05), seed=3, count=10)
    rep = check_holonomy_invariance(F, conn, gen, tol=1e-6, step=1e-3)
    assert not rep.passed


# ---------------------------------------------------------- compat

def test_section5_compat_passes(s5):
    rep = check_parallelism_compat(s5.norm_field, s5.parallelism, pairs=200, tol=1e-9)
    assert rep.passed


def test_compat_at_coincident_points_is_trivial(s5):
    pairs = [((0.4, 0.4), (0.4, 0.4)), ((-2.0, 1.0), (-2.0, 1.0))]
    rep = check_parallelism_compat(s5.norm_field, s5.parallelism, pairs=pairs, tol=1e-12)
    assert rep.passed and rep.max_abs_error <= 1e-14


def test_scaled_field_fails_compat_with_witness(scaled):
    rep = check_parallelism_compat(scaled.norm_field, scaled.parallelism,
                                   pairs=[((0.0, 0.0), (1.0, 0.0))], tol=1e-9)
    assert not rep.passed
    assert rep.witness["value_ratio"] == pytest.approx(np.e, abs=1e-9)


# ---------------------------------------------------------- compalg

def test_section5_compalg_passes(s5):
    rep = check_compalg_criterion(s5.norm_field, s5.parallelism, s5.connection,
                                  samples=50, tol=1e-8)
    assert rep.passed and rep.max_abs_error <= 1e-10


def test_compalg_rejects_perturbed_connection(s5):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    bad = Connection(s5.frame, constant_christoffels(gamma))
    rep = check_compalg_criterion(s5.norm_field, s5.parallelism, bad,
                                  samples=50, tol=1e-8)
    assert not rep.passed


def test_compalg_witness_when_every_violation_is_zero(flat2):
    # the flat connection's nabla P vanishes, so every violation is exactly 0
    rep = check_compalg_criterion(flat2.norm_field, flat2.parallelism, flat2.connection,
                                  samples=5)
    assert rep.passed and rep.max_abs_error == 0.0
    assert rep.witness["violation"] == 0.0
    assert set(rep.witness) == {"p", "v", "endomorphism", "violation"}


# ---------------------------------------------------------- obstruction

def test_section5_obstruction_is_one(s5):
    assert berwald_obstruction(s5.connection, s5.domain) == pytest.approx(1.0, abs=1e-9)


def test_flat_obstruction_is_zero(flat2):
    assert berwald_obstruction(flat2.connection, flat2.domain) == 0.0


def test_blend_obstruction_is_positive(blend):
    assert berwald_obstruction(blend.connection, blend.domain) > 1e-3


# ---------------------------------------------------------- uniqueness

def test_uniqueness_of_connection_with_itself(s5):
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=4, count=10)
    rep = check_uniqueness(s5.norm_field, s5.connection, s5.connection, gen, tol=1e-6)
    assert rep.passed and rep.max_abs_error == 0.0


def test_uniqueness_against_synthesized_connection(s5):
    cover = CoveringParallelism.build([(s5.domain, s5.parallelism)], WORK)
    synth = connection_from_covering_parallelism(cover)
    gen = CurveGenerator(WORK.shrink(0.05), seed=5, count=10)
    rep = check_uniqueness(s5.norm_field, s5.connection, synth, gen, tol=1e-6)
    assert rep.passed


def test_uniqueness_transports_each_connection_once(s5, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return transport_ensemble(*args, **kwargs)

    monkeypatch.setattr(verification, "transport_ensemble", counting)
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=4, count=3)
    rep = check_uniqueness(s5.norm_field, s5.connection, s5.connection, gen, tol=1e-6)
    assert rep.passed and len(calls) == 2


def test_uniqueness_refuses_continuous_isometry_group(flat2, blend):
    gen = CurveGenerator(Box((-3.0, -3.0), (3.0, 3.0)).shrink(0.05), seed=6, count=5)
    with pytest.raises(PreconditionError, match="continuous"):
        check_uniqueness(flat2.norm_field, flat2.connection, blend.connection, gen)


def test_uniqueness_refuses_three_dimensions_before_integrating(monkeypatch):
    calls = []
    monkeypatch.setattr(verification, "transport_ensemble",
                        lambda *args, **kwargs: calls.append(args))
    F = constant_norm_field(randers_norm(RandersData(np.eye(3), np.array([0.3, 0.0, 0.0]))))
    flat = Connection.flat(coordinate_frame(3))
    gen = CurveGenerator(Box((-1.0,) * 3, (1.0,) * 3), seed=2, count=3)
    with pytest.raises(PreconditionError, match="n = 2"):
        check_uniqueness(F, flat, flat, gen)
    assert calls == []


def test_uniqueness_refuses_non_invariant_connection(s5, rescaling):
    gen = CurveGenerator(WORK.shrink(0.05), seed=7, count=5)
    with pytest.raises(PreconditionError, match="not holonomy invariant"):
        check_uniqueness(s5.norm_field, s5.connection, rescaling, gen)


# ---------------------------------------------------------- verdicts

def test_section5_verdict_certified_not_berwald(s5):
    res = generalized_berwald_verdict(
        s5.norm_field, CoveringParallelism.build([(s5.domain, s5.parallelism)], WORK),
        curves=10, compat_pairs=50)
    assert isinstance(res, VerdictResult)
    assert res.verdict == "generalized Berwald (certified)"
    assert res.torsion_obstruction == pytest.approx(1.0, abs=1e-9)
    assert "not Berwald" in res.note


def test_section5_verdict_from_connection(s5):
    res = generalized_berwald_verdict(s5.norm_field, s5.connection, domain=WORK,
                                      curves=10, compat_pairs=50)
    assert res.verdict == "generalized Berwald (certified)"


def test_euclidean_verdict_certified_torsion_free(flat2):
    cover = CoveringParallelism.build([(flat2.domain, flat2.parallelism)], WORK)
    res = generalized_berwald_verdict(flat2.norm_field, cover,
                                      curves=10, compat_pairs=50)
    assert res.verdict == "generalized Berwald (certified)"
    assert res.torsion_obstruction <= 1e-9
    assert "torsion-free" in res.note


def test_scaled_verdict_not_certified(scaled):
    cover = CoveringParallelism.build([(scaled.domain, scaled.parallelism)],
                                      Box((-2.0, -2.0), (2.0, 2.0)))
    res = generalized_berwald_verdict(scaled.norm_field, cover,
                                      curves=5, compat_pairs=50)
    assert res.verdict == "not certified"
    assert any(not r.passed for r in res.reports)


# ---------------------------------------------------------- plumbing

def test_invariance_compat_equivalence_both_directions(s5):
    # invariant connection -> compatible built parallelism, and compatible
    # cover -> invariant synthesized connection, both at 1e-6
    from holopar.constructions import ConvexChartRegion, parallelism_from_connection
    region = ConvexChartRegion(point(0.0, 0.0), WORK)
    built = parallelism_from_connection(s5.connection, region, step=1e-3)
    assert check_parallelism_compat(s5.norm_field, built, pairs=50, tol=1e-6).passed
    cover = CoveringParallelism.build([(s5.domain, s5.parallelism)], WORK)
    synth = connection_from_covering_parallelism(cover)
    gen = CurveGenerator(WORK.shrink(0.05), seed=8, count=10)
    assert check_holonomy_invariance(s5.norm_field, synth, gen, tol=1e-6).passed


def test_reports_are_deterministic(s5):
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=9, count=5)
    a = check_holonomy_invariance(s5.norm_field, s5.connection, gen)
    b = check_holonomy_invariance(s5.norm_field, s5.connection, gen)
    assert report.dumps(a.to_dict()) == report.dumps(b.to_dict())


def test_report_pass_flag_is_consistent():
    with pytest.raises(AssertionError):
        CheckReport("x", 1, 0.0, 2.0, 1.0, True)
    rep = CheckReport("x", 1, 0.0, 0.5, 1.0, True)
    d = rep.to_dict()
    assert d["pass"] is True and d["check"] == "x"


def test_report_pass_flag_is_enforced_under_optimize():
    # python -O strips assert statements; the consistency check must survive
    code = ("from holopar.verification import CheckReport\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    CheckReport('x', 1, 0.0, 2.0, 1.0, True)\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(verification.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised"


def test_curve_generator_lets_family_bugs_propagate():
    class Broken(CurveGenerator):
        def _make(self, family, rng, box):
            return Curve(lambda t: [t, None + t], domain=self.domain)

    with pytest.raises(TypeError):
        Broken(WORK, seed=1, count=3).curves()


def test_curve_generator_refuses_domain_no_curve_fits():
    # every curve drawn in a 1e-12 box is slower than the regularity floor
    tiny = Box((0.0, 0.0), (1e-12, 1e-12))
    with pytest.raises(DomainError, match=r"0 of 2 curves fit in Box.*after 200 attempts"):
        CurveGenerator(tiny, seed=1, count=2).curves()


def test_curve_generator_is_deterministic_and_regular():
    gen = CurveGenerator(WORK.shrink(0.1), seed=10, count=12)
    a = gen.curves()
    b = gen.curves()
    assert len(a) == 12
    for ca, cb in zip(a, b):
        assert ca.params == cb.params
        ca.validate()


# each family's coordinates rebuilt from a witness's params alone
_FROM_PARAMS = {
    "segment": lambda t, p: segment_coords(t, p["p0"], p["p1"]),
    "circle": lambda t, p: circle_coords(t, p["center"], p["radius"], p["theta0"],
                                         p["dtheta"], *p["axes"]),
    "sine": lambda t, p: sine_coords(t, p["p0"], p["d"], p["perp"], p["omega"]),
    "bezier": lambda t, p: bezier_coords(t, *p["ctrl"]),
}


@pytest.mark.parametrize("n", [2, 3])
def test_each_family_curve_is_rebuilt_from_its_params(n):
    curves = CurveGenerator(Box((-3.0,) * n, (2.0,) * n), seed=9, count=40).curves()
    assert {c.params["family"] for c in curves} == set(verification.CURVE_FAMILIES)
    ts = np.linspace(0.0, 1.0, 7)
    for curve in curves:
        params = json.loads(report.dumps(curve.params))
        coords = _FROM_PARAMS[params["family"]](ts, params)
        rebuilt = np.stack([np.broadcast_to(x, ts.shape) for x in coords], axis=-1)
        assert np.allclose(curve.positions_velocities(ts)[0], rebuilt, rtol=0.0, atol=1e-12)


def test_a_one_dimensional_generator_skips_circles():
    curves = CurveGenerator(Box((-1.0,), (1.0,)), seed=42, count=12).curves()
    assert [c.params["family"] for c in curves[:3]] == ["segment", "sine", "bezier"]
    assert "circle" not in {c.params["family"] for c in curves}


def _wavy(n):
    """A closure curve, outside every family."""
    return Curve(lambda t: [0.2 * jcos(2.0 * t + d) + 0.1 * t * t for d in range(n)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       corner=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
       sides=st.lists(st.floats(0.01, 30.0), min_size=3, max_size=3),
       n=st.sampled_from([2, 3]), samples=st.integers(1, 300))
def test_batched_curve_evaluation_is_per_curve_evaluation_bit_for_bit(seed, corner, sides, n,
                                                                      samples):
    box = Box(tuple(corner[:n]), tuple(c + s for c, s in zip(corner, sides[:n])))
    curves = CurveGenerator(box, seed=seed, count=13).curves() + [_wavy(n)]
    rng = np.random.default_rng(seed)
    mixed = [curves[i] for i in rng.permutation(len(curves))]
    ts = np.sort(rng.uniform(0.0, 1.0, samples))
    pos, vel = curve_positions_velocities(mixed, ts)
    assert pos.shape == vel.shape == (len(mixed), samples, n)
    for c, curve in enumerate(mixed):
        p, v = curve.positions_velocities(ts)
        assert np.array_equal(pos[c], p) and np.array_equal(vel[c], v)


def _curves_one_at_a_time(gen):
    """CurveGenerator.curves validating each candidate as it is drawn."""
    rng = np.random.default_rng(gen.seed)
    inner = gen.domain.shrink(0.1)
    out, i = [], 0
    while len(out) < gen.count:
        if i == verification.MAX_ATTEMPTS_PER_CURVE * gen.count:
            raise DomainError(f"only {len(out)} of {gen.count} curves fit in "
                              f"{gen.domain} after {i} attempts")
        curve = gen._make(verification.CURVE_FAMILIES[i % len(verification.CURVE_FAMILIES)],
                          rng, inner)
        i += 1
        try:
            out.append(curve.validate())
        except (DomainError, RegularityError):
            continue
    return out


class _Loose(CurveGenerator):
    """Draws from a box larger than the domain, so candidates leave it."""

    def _make(self, family, rng, box):
        return super()._make(family, rng, self.domain.shrink(-0.3))


@pytest.mark.parametrize("gen", [
    CurveGenerator(WORK, seed=3, count=40),
    CurveGenerator(Box((-1.0,) * 3, (1.0,) * 3), seed=4, count=25),
    # speeds near the 1e-9 regularity floor: about 4 in 5 candidates fail
    CurveGenerator(Box((0.0, 0.0), (3e-9, 3e-9)), seed=5, count=20),
    _Loose(WORK, seed=6, count=30),
])
def test_curve_generator_accepts_the_candidates_of_the_one_at_a_time_loop(gen):
    got, want = gen.curves(), _curves_one_at_a_time(gen)
    assert [c.params for c in got] == [c.params for c in want]


def test_curve_generator_attempt_limit_matches_the_one_at_a_time_loop():
    # 2 of 3 curves are found in the 300 attempts allowed
    gen = CurveGenerator(Box((0.0, 0.0), (1.05e-9, 1.05e-9)), seed=1, count=3)
    with pytest.raises(DomainError) as want:
        _curves_one_at_a_time(gen)
    with pytest.raises(DomainError) as got:
        gen.curves()
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("only 2 of 3 curves fit in Box(")
    assert str(got.value).endswith(" after 300 attempts")


def test_holonomy_check_evaluates_no_curve_alone(s5, monkeypatch):
    def alone(*args, **kwargs):
        raise AssertionError("a curve was evaluated on its own")

    gen = CurveGenerator(s5.domain.shrink(0.05), seed=12, count=50)
    monkeypatch.setattr(Curve, "positions_velocities", alone)
    monkeypatch.setattr(Curve, "validate", alone)
    rep = check_holonomy_invariance(s5.norm_field, s5.connection, gen)
    assert rep.passed and rep.samples == 50 * 10 * 20
