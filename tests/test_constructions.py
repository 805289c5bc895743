"""Both constructive directions between connections and covering
parallelisms."""

import numpy as np
import pytest

from holopar.connections import Connection
from holopar.constructions import (ConvexChartRegion,
                                   connection_from_covering_parallelism,
                                   covering_from_connection, decompose_box,
                                   parallelism_from_connection)
from holopar.fixtures import SPECS, build_frame
from holopar.geometry import Box, Curve, coordinate_frame, segment
from holopar.jets import jsin
from holopar.norms import (RandersData, constant_norm_field, euclidean_norm,
                           one_form_norm_field, randers_norm)
from holopar.parallelism import CoveringParallelism, frame_parallelism, translation_parallelism
from holopar.transport import transport_ensemble
from holopar.verification import CurveGenerator, check_holonomy_invariance, check_parallelism_compat

DOM = Box((-5.0, -5.0), (5.0, 5.0))
S5_FRAME = SPECS["section5"]["manifold"]["frame"]
ROTATED_FRAME = SPECS["rotated_blend"]["manifold"]["cover"][1]["frame"]
WORK = Box((-4.0, -4.0), (4.0, 4.0))


@pytest.fixture(scope="module")
def s5_conn():
    return Connection.flat(build_frame(S5_FRAME, DOM))


@pytest.fixture(scope="module")
def s5_F():
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    return one_form_norm_field(build_frame(S5_FRAME, DOM), f)


# ------------------------------------------------- parallelism from connection

def test_flat_connection_builds_translation_parallelism():
    conn = Connection.flat(coordinate_frame(2, DOM))
    region = ConvexChartRegion(np.array([0.0, 0.0]), WORK)
    par = parallelism_from_connection(conn, region, step=1e-2)
    rng = np.random.default_rng(0)
    ps = WORK.sample(rng, 30, margin=0.05)
    qs = WORK.sample(rng, 30, margin=0.05)
    assert np.max(np.abs(par.transfer(ps, qs) - np.eye(2))) <= 1e-10


def test_radial_parallel_frame_evaluates_the_current_phi():
    # an ODE-built parallelism has no frame of its own: its parallel frame
    # reads phi when evaluated, so a phi swapped in later is the one used
    conn = Connection.flat(coordinate_frame(2, DOM))
    par = parallelism_from_connection(conn, ConvexChartRegion(np.array([0.0, 0.0]), WORK),
                                      step=1e-2)
    assert par.frame is None
    seen = []
    phi = par.phi
    par.phi = lambda coords: seen.append(len(coords)) or phi(coords)
    par.parallel_frame().matrix_batch(np.zeros((3, 2)))
    assert seen == [3]


def test_section5_radial_parallelism_matches_frame(s5_conn):
    region = ConvexChartRegion(np.array([0.0, 0.0]), WORK)
    built = parallelism_from_connection(s5_conn, region, step=1e-3)
    frame_par = frame_parallelism(s5_conn.frame)
    rng = np.random.default_rng(1)
    ps = WORK.sample(rng, 100, margin=0.05)
    qs = WORK.sample(rng, 100, margin=0.05)
    dev = np.max(np.abs(built.transfer(ps, qs) - frame_par.transfer(ps, qs)))
    assert dev <= 1e-7


@pytest.mark.parametrize("name", ["s5", "blend"])
def test_radial_parallelism_is_segment_transport(name, request):
    # radial transport and curve ensembles share one path from a segment
    # family to the RK4 kernel, so the bits agree
    fx = request.getfixturevalue(name)
    box = fx.domain.shrink(0.1)
    center = np.array([0.3, -0.2])
    par = parallelism_from_connection(fx.connection,
                                      ConvexChartRegion(center, box), step=1e-3)
    qs = box.sample(np.random.default_rng(3), 6, margin=0.05)
    phis, _, _ = transport_ensemble(fx.connection, [segment(center, q) for q in qs],
                                    [1.0], step=1e-3)
    assert np.array_equal(par.phi(qs), phis[:, 0])


def test_compatibility_transfers_to_built_parallelism(s5_conn, s5_F):
    region = ConvexChartRegion(np.array([0.0, 0.0]), WORK)
    built = parallelism_from_connection(s5_conn, region, step=1e-3)
    rep = check_parallelism_compat(s5_F, built, pairs=100, tol=1e-6)
    assert rep.passed


def test_region_center_must_lie_inside():
    with pytest.raises(ValueError):
        ConvexChartRegion(np.array([9.0, 0.0]), WORK)


# ------------------------------------------------- connection from covering

def test_single_member_cover_reproduces_section5_symbols(s5_conn):
    cover = CoveringParallelism.build(
        [(DOM, frame_parallelism(s5_conn.frame))], WORK)
    conn = connection_from_covering_parallelism(cover)
    g = conn.coordinate_christoffels(np.array([0.7, -0.4]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = -1.0
    assert np.max(np.abs(g - expected)) <= 1e-9


def test_two_identical_translation_members_give_flat_connection():
    b1 = Box((-5.0, -5.0), (1.0, 5.0))
    b2 = Box((-1.0, -5.0), (5.0, 5.0))
    cover = CoveringParallelism.build(
        [(b1, translation_parallelism(b1)), (b2, translation_parallelism(b2))],
        WORK)
    conn = connection_from_covering_parallelism(cover)
    rng = np.random.default_rng(2)
    g = conn.coordinate_christoffels_batch(WORK.sample(rng, 50, margin=0.02))
    assert np.max(np.abs(g)) <= 1e-9


def test_blend_along_vectors_skips_its_translation_member():
    # the translation member is zero in the coordinate frame: neither its
    # frame nor its weight is evaluated, for the tensors or contracted
    def unreachable(*args):
        raise AssertionError("translation member evaluated")

    b1 = Box((-5.0, -5.0), (1.0, 5.0))
    b2 = Box((-1.0, -5.0), (5.0, 5.0))
    translation = translation_parallelism(b1)
    for name in ("matrix_batch", "matrix_jacobian_batch", "matrix_derivative_batch"):
        setattr(translation.frame, name, unreachable)
    rotated = frame_parallelism(build_frame(ROTATED_FRAME, DOM))
    built = CoveringParallelism.build([(b1, translation), (b2, rotated)], WORK)
    cover = CoveringParallelism(built.members, (unreachable, built.partition[1]), WORK)
    conn = connection_from_covering_parallelism(cover)
    rng = np.random.default_rng(9)
    pts = WORK.sample(rng, 200, margin=0.02)
    v = rng.normal(size=(200, 2))
    full = conn.coordinate_christoffels_batch(pts)
    got = conn.coordinate_christoffels_along(pts, v)
    want = np.einsum("mj,mijk->mik", v, full)
    assert np.max(np.abs(full)) > 0.1 and np.max(np.abs(full[pts[:, 0] < -1.0])) == 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(v)) * np.max(np.abs(full))


def _gather_scatter_blend(cover, coords, vectors):
    """The blend as a reference: each member on an integer-index gather
    of its active points, accumulated by an indexed += scatter."""
    n = cover.region.dim
    out = np.zeros((n, n, len(coords)))
    for (_, par), weight in zip(cover.members, cover.partition):
        conn_a = Connection.flat(par.parallel_frame())
        if conn_a.frame.coordinate:
            continue
        w = np.asarray(weight(coords), dtype=float)
        active = np.flatnonzero(w > 0.0)
        if not active.size:
            continue
        ga = conn_a.coordinate_christoffels_along(coords.T[:, active].T, vectors.T[:, active].T)
        out[:, :, active] += w[active] * ga.transpose(1, 2, 0)
    return out.transpose(2, 0, 1)


def _guarded_member(spec, box, seen):
    """A frame member that records the points it is evaluated on and
    raises on any point outside its box (a NaN point included)."""
    frame = build_frame(spec, DOM)
    derivative = frame.matrix_derivative_batch

    def inside_only(coords, vectors):
        if not np.all(box.contains(coords)):
            raise AssertionError("member frame evaluated outside its box")
        seen.append(coords)
        return derivative(coords, vectors)

    frame.matrix_derivative_batch = inside_only
    return box, frame_parallelism(frame)


@pytest.mark.parametrize("batch", ["inactive", "partly", "all_active", "nan_row"])
def test_blend_is_the_gather_scatter_sum_bit_for_bit(batch):
    # a translation member and two frame members: the rotated one is
    # active on x > -1, the section5 one on y < 0.5
    seen = []
    members = [(Box((-5.0, -5.0), (1.0, 5.0)), translation_parallelism(DOM)),
               _guarded_member(ROTATED_FRAME, Box((-1.0, -5.0), (5.0, 5.0)), seen),
               _guarded_member(S5_FRAME, Box((-5.0, -5.0), (5.0, 0.5)), seen)]
    cover = CoveringParallelism.build(members, WORK)
    rng = np.random.default_rng(13)
    box = {"inactive": Box((-4.0, 0.6), (-1.2, 4.0)),
           "all_active": Box((1.2, -4.0), (4.0, 4.0))}.get(batch, WORK)
    pts = box.sample(rng, 300)
    v = rng.normal(size=(300, 2))
    if batch == "nan_row":
        pts[7, 0] = np.nan
    weights = [np.asarray(w(pts)) for w in cover.partition[1:]]
    got = connection_from_covering_parallelism(cover).gamma(pts, v)
    want = _gather_scatter_blend(cover, pts, v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if batch == "inactive":
        assert not seen and not np.any(got)
    else:
        assert np.max(np.abs(got)) > 0.01
    if batch == "all_active":
        # every point is active for the rotated member, which sees them all
        assert np.all(weights[0] > 0.0) and len(seen[0]) == len(pts)
    if batch in ("partly", "nan_row"):
        assert all(np.any(w == 0.0) and np.any(w > 0.0) for w in weights)
    if batch == "nan_row":
        assert all(w[7] == 0.0 for w in weights) and not np.any(got[7])


def test_blended_connection_is_euclidean_invariant(blend):
    gen = CurveGenerator(blend.domain.shrink(0.05), seed=11, count=30)
    rep = check_holonomy_invariance(blend.norm_field, blend.connection, gen,
                                    tol=1e-6, step=1e-3)
    assert rep.passed


# ------------------------------------------------- round trips

def test_round_trip_reproduces_transport_operators(s5_conn):
    # connection -> radial parallelism -> single-member cover -> connection,
    # compared through the transport operators themselves: the rebuilt
    # connection's integrated transport and the parallelism's own transfer
    region = ConvexChartRegion(np.array([0.0, 0.0]), WORK)
    par = parallelism_from_connection(s5_conn, region, step=1e-2)
    inner = Box((-3.5, -3.5), (3.5, 3.5))
    rebuilt = connection_from_covering_parallelism(
        CoveringParallelism.build([(WORK, par)], inner))
    curves = CurveGenerator(inner.shrink(0.05), seed=3, count=10).curves()
    ts = np.array([1.0])
    a, pos0, pos_s = transport_ensemble(s5_conn, curves, ts, step=1e-2)
    b, _, _ = transport_ensemble(rebuilt, curves, ts, step=1e-2)
    assert np.max(np.abs(a - b)) <= 1e-6
    assert np.max(np.abs(a[:, 0] - par.transfer(pos0, pos_s[:, 0]))) <= 1e-6


def test_section5_round_trip_returns_its_christoffels(s5_conn):
    # the rebuilt connection differs from the original by the radial gauge
    # curvature integral, which vanishes for section5: in the overlap of all
    # four members, where every member and weight contributes, the
    # coordinate symbols come back up to FD and step noise (about 3e-10)
    cover = covering_from_connection(s5_conn, WORK, step=1e-2)
    assert len(cover.members) == 4
    rebuilt = connection_from_covering_parallelism(cover)
    pts = Box((-0.9, -0.9), (0.9, 0.9)).sample(np.random.default_rng(5), 10)
    got = rebuilt.coordinate_christoffels_batch(pts)
    assert np.max(np.abs(got - s5_conn.coordinate_christoffels_batch(pts))) <= 1e-7


def test_flat_round_trip_keeps_invariance():
    # for the Euclidean fixture only invariance is asserted, not operator
    # equality (any O(2)-valued transport is compatible)
    conn = Connection.flat(coordinate_frame(2, DOM))
    cover = covering_from_connection(conn, WORK, step=1e-2)
    rebuilt = connection_from_covering_parallelism(cover)
    F = constant_norm_field(euclidean_norm(2))
    gen = CurveGenerator(WORK.shrink(0.05), seed=4, count=5)
    rep = check_holonomy_invariance(F, rebuilt, gen, tol=1e-6, step=1e-2)
    assert rep.passed


def test_piecewise_gluing_bounds_error(blend):
    # invariance error along a curve crossing the chart overlap is at most
    # the sum of the per-piece errors
    F = blend.norm_field
    conn = blend.connection
    c = Curve(lambda t: [-2.0 + 4.0 * t, 0.4 * jsin(2.0 * t)], domain=blend.domain)
    c1 = Curve(lambda t: c.fn(0.5 * t), domain=blend.domain)
    c2 = Curve(lambda t: c.fn(0.5 + 0.5 * t), domain=blend.domain)
    ts = np.array([1.0])
    rng = np.random.default_rng(5)
    v = rng.normal(size=(40, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)

    def err(curve, vecs, step):
        phis, p0, ps = transport_ensemble(conn, [curve], ts, step=step)
        moved = vecs @ phis[0, 0].T
        e = np.abs(F(np.broadcast_to(ps[0, 0], moved.shape), moved)
                   - F(np.broadcast_to(p0[0], vecs.shape), vecs))
        return float(np.max(e)), moved

    e_full, _ = err(c, v, 1e-3)
    e1, moved1 = err(c1, v, 5e-4)
    e2, _ = err(c2, moved1 / np.linalg.norm(moved1, axis=1, keepdims=True), 5e-4)
    scale = float(np.max(np.linalg.norm(moved1, axis=1)))
    assert e_full <= e1 + scale * e2 + 1e-9


# ------------------------------------------------- box decomposition

def test_decompose_box_overlaps_and_covers():
    boxes = decompose_box(WORK)
    assert len(boxes) == 4
    rng = np.random.default_rng(6)
    pts = WORK.sample(rng, 500)
    covered = np.zeros(500, dtype=bool)
    for b in boxes:
        covered |= b.contains(pts)
    assert np.all(covered)
    # adjacent pieces genuinely overlap
    inter = boxes[0].intersection(boxes[2])
    assert inter.hi[0] > inter.lo[0] and inter.hi[1] > inter.lo[1]
