"""Check runners, obstruction, uniqueness and verdicts."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopar.connections import Connection, constant_christoffels
from holopar.constructions import connection_from_covering_parallelism
from holopar.errors import DomainError, PreconditionError, RegularityError
from holopar.geometry import (Box, Curve, Frame, apply_matrices, coordinate_frame,
                              curve_positions_velocities, segment, segment_coords)
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

@pytest.mark.parametrize("n", [2, 3])
def test_transports_are_applied_as_the_einsum_contractions(n):
    # the holonomy check's (m, T, n, n) x (m, V, n) and the compat check's
    # (m, n, n) x (V, n); for n = 2 the sum has einsum's bits
    rng = np.random.default_rng(n)
    phis, v = rng.normal(size=(7, 4, n, n)), rng.normal(size=(7, 5, n))
    mats, w = rng.normal(size=(7, n, n)), rng.normal(size=(5, n))
    for got, want in ((apply_matrices(phis[:, :, None], v[:, None]),
                       np.einsum("mtij,mvj->mtvi", phis, v)),
                      (apply_matrices(mats[:, None], w), np.einsum("mij,vj->mvi", mats, w))):
        assert got.shape == want.shape
        if n == 2:
            assert np.array_equal(got, want)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


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


def test_holonomy_report_evaluates_the_frame_once_per_point(s5, monkeypatch):
    # the norm field reads the coframe at the m start points and the m*T
    # sample points, not once per random vector (m*T*V)
    m, T, V = 12, 10, 20
    curves = CurveGenerator(s5.domain.shrink(0.05), seed=4, count=m).curves()
    ts = np.linspace(0.1, 1.0, T)
    transported = transport_ensemble(s5.connection, curves, ts, step=2e-3)
    calls = []
    matrix_batch = Frame.matrix_batch
    monkeypatch.setattr(Frame, "matrix_batch",
                        lambda self, c: calls.append(len(c)) or matrix_batch(self, c))
    rep = verification._invariance_report(s5.norm_field, curves, ts, *transported, tol=1e-6,
                                          step=2e-3, vectors=V)
    assert rep.samples == m * T * V and calls == [m, m * T]


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


_EMPTY_SAMPLES = {
    "holonomy_ts": (lambda fx, c: check_holonomy_invariance(fx.norm_field, fx.connection, c,
                                                            ts=()), "ts"),
    "holonomy_vectors": (lambda fx, c: check_holonomy_invariance(fx.norm_field, fx.connection,
                                                                 c, vectors=0), "vectors"),
    "holonomy_curves": (lambda fx, c: check_holonomy_invariance(fx.norm_field, fx.connection,
                                                                []), "curves"),
    "compat_pairs": (lambda fx, c: check_parallelism_compat(fx.norm_field, fx.parallelism,
                                                            pairs=0), "pairs"),
    "compat_vectors": (lambda fx, c: check_parallelism_compat(fx.norm_field, fx.parallelism,
                                                              vectors=0), "vectors"),
    "compalg_samples": (lambda fx, c: check_compalg_criterion(fx.norm_field, fx.parallelism,
                                                              fx.connection, samples=0),
                        "samples"),
    "uniqueness_curves": (lambda fx, c: check_uniqueness(fx.norm_field, fx.connection,
                                                         fx.connection, []), "curves"),
}


@pytest.mark.parametrize("case", sorted(_EMPTY_SAMPLES))
def test_an_empty_sample_is_refused_before_any_transport(case, s5, monkeypatch):
    calls = []
    monkeypatch.setattr(verification, "transport_ensemble",
                        lambda *args, **kwargs: calls.append(args))
    run, named = _EMPTY_SAMPLES[case]
    curves = [segment((0.0, 0.0), (1.0, 0.0))]
    with pytest.raises(PreconditionError, match=f"{named} is empty"):
        run(s5, curves)
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


# for a cover the members' compat reports come first, then holonomy; for a
# connection holonomy comes first, then the regions' compat reports; the
# sha256 of each report's dumps
_VERDICT_PINS = {
    "cover": [
        ("member_0_compat", "8b23d7a359af8c0b56fbf65a6ac907578e4e0d0faf7c4a3ce200de8bdcac08db"),
        ("member_1_compat", "edacfc8d8a45254053d7b064993aa6ec409cf5951972014bbb320316985b69c6"),
        ("holonomy_invariance",
         "00c751a2a7f896cfbf150d74ff7d5ccbd87659c504c4dfb6dc9e1f04c349da85"),
    ],
    "connection": [
        ("holonomy_invariance",
         "5856026c27d81b25c7db3be9b46d76428fa2250ca1f267fd1b61b535b11eba70"),
        ("region_0_compat", "ca9eb5932ffbfa101d8b08f3db6ad01227e702434d16c042d467747c260477d7"),
        ("region_1_compat", "ab849b62205c8d89a8da67b15fe22d41b3e5fd8903f9ba62d99322e6117e58c9"),
        ("region_2_compat", "61f17161a0ed21de798de6efdff2e12636717f72cf56ac01d48312f26e019f25"),
        ("region_3_compat", "2ba32af45c9692cf79f79d336c347f393c5d50c72b4d1ca63e92b4618121b5bc"),
    ],
}


@pytest.mark.parametrize("structure", ["cover", "connection"])
def test_verdict_reports_are_pinned_in_order(structure, blend, s5):
    # rotated_blend's two-member cover, and section5's connection on [-2, 2]^2
    if structure == "cover":
        res = generalized_berwald_verdict(blend.norm_field, blend.parallelism,
                                          curves=4, compat_pairs=10)
    else:
        res = generalized_berwald_verdict(s5.norm_field, s5.connection,
                                          domain=Box((-2.0, -2.0), (2.0, 2.0)),
                                          curves=4, compat_pairs=10)
    assert res.verdict == "generalized Berwald (certified)"
    assert [(r.check, hashlib.sha256(report.dumps(r.to_dict()).encode()).hexdigest())
            for r in res.reports] == _VERDICT_PINS[structure]


# ---------------------------------------------------------- plumbing

def test_invariance_compat_equivalence_both_directions(s5):
    # invariant connection -> compatible built parallelism, and compatible
    # cover -> invariant synthesized connection, both at 1e-6
    from holopar.constructions import ConvexChartRegion, parallelism_from_connection
    region = ConvexChartRegion(np.array([0.0, 0.0]), WORK)
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


@pytest.mark.parametrize("error, passed", [(0.5, True), (1.0, True), (2.0, False),
                                           (np.nan, False)])
def test_report_pass_flag_is_the_error_against_the_tolerance(error, passed):
    rep = CheckReport("x", 1, error, error, 1.0)
    assert rep.passed is passed and rep.to_dict()["pass"] is passed


def test_curve_generator_lets_family_bugs_propagate():
    class Broken(CurveGenerator):
        def _make(self, family, rng, bounds):
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
    # and sines, which would be straight segments: the 1-D draw alternates
    # segments and Bezier curves
    curves = CurveGenerator(Box((-1.0,), (1.0,)), seed=42, count=12).curves()
    assert [c.params["family"] for c in curves[:3]] == ["segment", "bezier", "segment"]
    assert {c.params["family"] for c in curves} == {"segment", "bezier"}


def _wavy(n):
    """A closure curve: a family of one with no args."""
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
    bounds = verification._draw_bounds(gen.domain.shrink(0.1))
    out, i = [], 0
    while len(out) < gen.count:
        if i == verification.MAX_ATTEMPTS_PER_CURVE * gen.count:
            raise DomainError(f"only {len(out)} of {gen.count} curves fit in "
                              f"{gen.domain} after {i} attempts")
        curve = gen._make(verification.CURVE_FAMILIES[i % len(verification.CURVE_FAMILIES)],
                          rng, bounds)
        i += 1
        try:
            out.append(curve.validate())
        except (DomainError, RegularityError):
            continue
    return out


class _Loose(CurveGenerator):
    """Draws from a box larger than the domain, so candidates leave it."""

    def _make(self, family, rng, bounds):
        return super()._make(family, rng, verification._draw_bounds(self.domain.shrink(-0.3)))


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


def test_curve_generator_accepted_curves_are_pinned():
    # the params of every accepted curve on four boxes (a thin one rejects
    # candidates) and three seeds; a change to the draw, or to which
    # candidates pass check_curves, moves the digest
    digest = hashlib.sha256()
    for box in (Box((-5.0, -5.0), (5.0, 5.0)), Box((-1.0, -2.0, -3.0), (1.0, 2.0, 3.0)),
                Box((-2.0,), (3.0,)), Box((0.0, 0.0), (0.01, 4.0))):
        for seed in (0, 1, 42):
            curves = CurveGenerator(box, seed=seed, count=60).curves()
            digest.update(json.dumps([c.params for c in curves]).encode())
    assert digest.hexdigest() == \
        "47f109043cded1d8b7ca4a2be7bc85cacfdbe043be6f7c3b15c8e567a98bd337"


class _UniformDraws(CurveGenerator):
    """The generator as it drew candidates with rng.uniform(lo, hi, size),
    bounds checked on every draw: the reference for the draws
    lo + (hi - lo) * rng.random(size)."""

    def _make(self, family, rng, bounds):
        box = self.domain.shrink(0.1)
        lo, hi = np.asarray(box.lo, dtype=float), np.asarray(box.hi, dtype=float)
        n, side = lo.size, hi - lo
        inner = {f: (lo + m * side, hi - m * side)
                 for f, m in (("circle", 0.25), ("sine", 0.15), ("bezier", 0.1))}
        if family == "segment":
            p0, p1 = rng.uniform(lo, hi, size=(2, n))
            if np.linalg.norm(p1 - p0) < 1e-3:
                p1 = p0 + 0.1 * side
            return segment(p0, p1, domain=self.domain)
        if family == "circle":
            margin = 0.25 * float(np.min(side))
            c = [float(v) for v in rng.uniform(*inner["circle"], size=(1, n))[0]]
            r = float(rng.uniform(0.2, 0.95) * margin)
            th0 = float(rng.uniform(0.0, 2.0 * np.pi))
            dth = float(rng.uniform(0.5 * np.pi, 2.0 * np.pi))
            axes = rng.permutation(n)[:2]
            return Curve(circle_coords, (c, r, th0, dth),
                         key=(int(axes[0]), int(axes[1])), domain=self.domain,
                         params={"family": "circle", "center": c, "radius": r,
                                 "theta0": th0, "dtheta": dth,
                                 "axes": [int(axes[0]), int(axes[1])]})
        if family == "sine":
            p0, p1 = rng.uniform(*inner["sine"], size=(2, n))
            d = p1 - p0
            if np.linalg.norm(d) < 1e-3:
                d = 0.1 * side
            perp = rng.normal(size=n)
            perp -= perp @ d / (d @ d) * d
            nrm = np.linalg.norm(perp)
            perp = perp / nrm if nrm > 1e-12 else np.zeros(n)
            amp = float(rng.uniform(0.02, 0.1) * np.min(side))
            omega = float(rng.uniform(1.0, 3.0) * np.pi)
            p0l, dl, pl = ([float(v) for v in x] for x in (p0, d, amp * perp))
            return Curve(sine_coords, (p0l, dl, pl, omega), domain=self.domain,
                         params={"family": "sine", "p0": p0l, "d": dl,
                                 "perp": pl, "omega": omega})
        ctrl = [[float(v) for v in row] for row in rng.uniform(*inner["bezier"], size=(4, n))]
        return Curve(bezier_coords, tuple(ctrl), domain=self.domain,
                     params={"family": "bezier", "ctrl": ctrl})


@pytest.mark.parametrize("box", [Box((-2.0,), (3.0,)), Box((-5.0, -5.0), (5.0, 5.0)),
                                 Box((0.0, 0.0), (0.01, 4.0)),
                                 Box((-1.0, -2.0, -3.0), (1.0, 2.0, 3.0))],
                         ids=["1d", "2d", "2d_thin", "3d"])
def test_curve_draws_are_the_bits_of_array_bound_uniform_draws(box):
    # json.dumps writes each float's shortest repr, so equal text is equal bits
    for seed in range(6):
        got = CurveGenerator(box, seed=seed, count=40).curves()
        want = _UniformDraws(box, seed=seed, count=40).curves()
        assert json.dumps([c.params for c in got]) == json.dumps([c.params for c in want])


def test_a_box_whose_side_overflows_is_refused_by_name():
    # hi - lo is inf: rng.uniform refused it as "Range exceeds valid bounds"
    # on every draw; shrinking it and drawing in it are refused once, naming it
    box = Box((-1e308, 0.0), (1e308, 1.0))
    with pytest.raises(DomainError, match=r"Box\(lo=\(-1e\+308, 0.0\).* a side overflows"):
        CurveGenerator(box, seed=1, count=3).curves()
    with pytest.raises(DomainError, match=r"cannot draw curves in Box\(.* not finite"):
        verification._draw_bounds(box)


def test_holonomy_check_evaluates_no_curve_alone(s5, monkeypatch):
    def alone(*args, **kwargs):
        raise AssertionError("a curve was evaluated on its own")

    gen = CurveGenerator(s5.domain.shrink(0.05), seed=12, count=50)
    monkeypatch.setattr(Curve, "positions_velocities", alone)
    monkeypatch.setattr(Curve, "validate", alone)
    rep = check_holonomy_invariance(s5.norm_field, s5.connection, gen)
    assert rep.passed and rep.samples == 50 * 10 * 20
