"""Parallelisms, trivializations, partitions of unity and the pushed-down
norm."""

import itertools

import numpy as np
import pytest

from holopar import parallelism
from holopar.errors import (CoveringGapError, DomainError,
                            IncompatibleParallelismError)
from holopar.fixtures import SPECS, build_frame
from holopar.geometry import Box
from holopar.norms import (RandersData, constant_norm_field, euclidean_norm,
                           one_form_norm_field, randers_norm, unit_sphere)
from holopar.parallelism import (CoveringParallelism, Parallelism, _bump_1d,
                                 bump_partition, frame_parallelism, pushdown_norm,
                                 translation_parallelism)
from holopar.verification import check_parallelism_compat

DOM = Box((-5.0, -5.0), (5.0, 5.0))
S5_FRAME = SPECS["section5"]["manifold"]["frame"]


@pytest.fixture(scope="module")
def s5_par():
    return frame_parallelism(build_frame(S5_FRAME, DOM))


# ---------------------------------------------------------- axioms

def test_transfer_at_equal_points_is_identity(s5_par):
    mat = s5_par.transfer(np.array([1.7, -0.3]), np.array([1.7, -0.3]))
    assert np.max(np.abs(mat - np.eye(2))) <= 1e-14


def test_section5_transfer_explicit(s5_par):
    mat = s5_par.transfer(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(mat, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)


def test_translation_parallelism_transfer_is_identity():
    par = translation_parallelism(DOM)
    rng = np.random.default_rng(0)
    ps = DOM.sample(rng, 20)
    qs = DOM.sample(rng, 20)
    assert np.max(np.abs(par.transfer(ps, qs) - np.eye(2))) == 0.0


@pytest.mark.parametrize("builder", ["frame", "translation"])
def test_cocycle_on_200_triples(builder, s5_par):
    par = s5_par if builder == "frame" else translation_parallelism(DOM)
    rng = np.random.default_rng(1)
    ps = DOM.sample(rng, 200, margin=0.05)
    rs = DOM.sample(rng, 200, margin=0.05)
    qs = DOM.sample(rng, 200, margin=0.05)
    lhs = par.transfer(rs, qs) @ par.transfer(ps, rs)
    rhs = par.transfer(ps, qs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_parallel_frame_fields_are_transferred_to_themselves(s5_par):
    frame = s5_par.parallel_frame()
    rng = np.random.default_rng(2)
    ps = DOM.sample(rng, 50, margin=0.05)
    qs = DOM.sample(rng, 50, margin=0.05)
    Ep = frame.matrix_batch(ps)
    Eq = frame.matrix_batch(qs)
    moved = s5_par.transfer(ps, qs) @ Ep
    assert np.max(np.abs(moved - Eq)) <= 1e-12


def test_parallel_frame_is_the_frame_the_parallelism_came_from():
    frame = build_frame(S5_FRAME, DOM)
    assert frame_parallelism(frame).parallel_frame() is frame
    coords = DOM.sample(np.random.default_rng(3), 10)
    E, dE = translation_parallelism(DOM).parallel_frame().matrix_jacobian_batch(coords)
    assert np.array_equal(E, np.broadcast_to(np.eye(2), E.shape))
    assert np.array_equal(dE, np.zeros_like(dE))


def test_compat_of_a_frame_without_domain_is_a_domain_error():
    frame = build_frame(S5_FRAME, None)
    F = one_form_norm_field(frame, euclidean_norm(2))
    with pytest.raises(DomainError, match="infinite bound"):
        check_parallelism_compat(F, frame_parallelism(frame))


# ---------------------------------------------------------- trivializations

def test_trivialization_compatibility_identity(s5_par):
    # the transfer applied to the trivialization at q, re-anchored by a
    # constant eta, lands on the trivialization at r, on 100 sampled pairs
    eta = np.array([[2.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(4)
    qs = DOM.sample(rng, 100, margin=0.05)
    rs = DOM.sample(rng, 100, margin=0.05)
    lhs = s5_par.transfer(qs, rs) @ s5_par.phi(qs) @ eta
    assert np.max(np.abs(lhs - s5_par.phi(rs) @ eta)) <= 1e-10


# ---------------------------------------------------------- pushdown

def test_section5_pushdown_basepoint_independent(s5_par):
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(build_frame(S5_FRAME, DOM), f)
    for p in (np.array([0.0, 0.0]), np.array([3.0, -2.0])):
        pushed = pushdown_norm(F, s5_par, p)
        # the pushed norm is f itself read through the anchor frame
        v = np.array([0.0, 1.0])
        expected = float(F(p, s5_par.phi(p[None, :])[0] @ v))
        assert float(pushed(v)) == pytest.approx(expected, abs=1e-12)


def test_euclidean_pushdown_is_euclidean():
    F = constant_norm_field(euclidean_norm(2))
    pushed = pushdown_norm(F, translation_parallelism(DOM), np.array([0.0, 0.0]))
    rng = np.random.default_rng(5)
    v = rng.normal(size=(40, 2))
    assert np.max(np.abs(pushed(v) - np.linalg.norm(v, axis=1))) <= 1e-12


def test_pushed_norm_gradient_is_exact_on_section5(s5_par):
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(build_frame(S5_FRAME, DOM), f)
    p = np.array([1.5, -0.5])
    pushed = pushdown_norm(F, s5_par, p)
    v = np.random.default_rng(10).normal(size=(30, 2))
    # phi_p^T (grad_v F)(p, phi_p v) to rounding (at most 2 ulps of its
    # terms' magnitudes measured at 50 points), and central differences of
    # F_p o phi_p
    phi_p = s5_par.phi(p[None, :])[0]
    g = F.gradient(np.broadcast_to(p, v.shape), v @ phi_p.T)
    exact = g @ phi_p
    assert np.all(np.abs(pushed.gradient(v) - exact) <= 4 * np.spacing(np.abs(g) @ np.abs(phi_p)))
    h = 1e-6
    fd = np.stack([(pushed(v + e) - pushed(v - e)) / (2 * h) for e in h * np.eye(2)],
                  axis=-1)
    assert np.max(np.abs(pushed.gradient(v) - fd)) <= 1e-6


def test_pushdown_evaluates_phi_once_per_basepoint(s5_par):
    calls = []

    def phi(coords):
        calls.append(len(coords))
        return s5_par.phi(coords)

    par = Parallelism(DOM, phi)
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(build_frame(S5_FRAME, DOM), f)
    pushed = pushdown_norm(F, par, np.array([0.0, 0.0]))
    assert calls == [11]                 # the anchor p and the 10 basepoints, in one call
    v = unit_sphere(2, 50)
    pushed(v)
    pushed.gradient(v)
    pushed.gradient(v[0])
    assert len(calls) == 1


def test_incompatible_pair_raises_with_witness(scaled):
    with pytest.raises(IncompatibleParallelismError) as ei:
        pushdown_norm(scaled.norm_field, scaled.parallelism, np.array([0.0, 0.0]))
    assert "deviation" in ei.value.witness


# ---------------------------------------------------------- partitions

def test_single_box_partition_is_constant_one():
    region = Box((-1.0, -1.0), (1.0, 1.0))
    weights = bump_partition([Box((-2.0, -2.0), (2.0, 2.0))], region)
    rng = np.random.default_rng(6)
    pts = region.sample(rng, 200)
    assert np.max(np.abs(weights[0](pts) - 1.0)) == 0.0


def test_two_half_infinite_strips():
    b1 = Box((-2.0, -np.inf), (1.0, np.inf))
    b2 = Box((-1.0, -np.inf), (2.0, np.inf))
    region = Box((-1.9, -3.0), (1.9, 3.0))
    w1, w2 = bump_partition([b1, b2], region)
    rng = np.random.default_rng(7)
    pts = region.sample(rng, 500)
    total = w1(pts) + w2(pts)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    # each weight vanishes outside its strip
    outside = np.array([[1.5, 0.0], [1.99, 1.0]])
    assert np.max(w1(outside)) == 0.0
    inside_only_b1 = np.array([[-1.5, 0.0]])
    assert w2(inside_only_b1)[0] == 0.0
    assert w1(inside_only_b1)[0] == pytest.approx(1.0)


def test_three_overlapping_boxes_sum_to_one():
    boxes = [Box((-3.0, -3.0), (0.0, 3.0)),
             Box((-1.0, -3.0), (2.0, 3.0)),
             Box((1.0, -3.0), (3.0, 3.0))]
    region = Box((-2.5, -2.5), (2.5, 2.5))
    weights = bump_partition(boxes, region)
    rng = np.random.default_rng(8)
    pts = region.sample(rng, 1000)
    total = np.sum([w(pts) for w in weights], axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert all(np.min(w(pts)) >= 0.0 for w in weights)


def test_partition_weight_evaluates_each_bump_once(monkeypatch):
    boxes = [Box((-3.0, -3.0), (0.5, 3.0)), Box((-0.5, -3.0), (3.0, 3.0)),
             Box((0.0, -1.0), (3.0, 3.0))]
    weights = bump_partition(boxes, Box((-2.0, -2.0), (2.0, 2.0)))
    # points inside and outside every box
    pts = np.random.default_rng(12).uniform(-3.5, 3.5, (400, 2))
    raw = np.stack([_bump_1d(pts[:, 0], b.lo[0], b.hi[0]) * _bump_1d(pts[:, 1], b.lo[1], b.hi[1])
                    for b in boxes])
    tot = np.sum(raw, axis=0)
    pos = tot > 0.0
    calls = []
    monkeypatch.setattr(parallelism, "_bump_1d",
                        lambda *a, **k: calls.append(1) or _bump_1d(*a, **k))
    for w, r in zip(weights, raw):
        want = np.zeros_like(r)
        want[pos] = r[pos] / tot[pos]
        assert np.array_equal(w(pts), want)
    # one 1-D bump per distinct axis and bounds in each weight call: the
    # first two boxes share their y bounds
    assert len(calls) == len(weights) * (len(boxes) * 2 - 1)


def test_partition_weight_of_a_point_alone_is_its_weight_in_a_batch():
    # nine boxes: the total sums the raw weights in box order for one
    # point too (numpy's pairwise sum of nine rows of one point would not)
    pieces = ((-3.5, -0.5), (-1.5, 1.5), (0.5, 3.5))
    boxes = [Box((a, c), (b, d)) for (a, b), (c, d) in itertools.product(pieces, pieces)]
    weights = bump_partition(boxes, Box((-2.5, -2.5), (2.5, 2.5)))
    pts = np.random.default_rng(14).uniform(-2.5, 2.5, (200, 2))
    for w in weights:
        batch = w(pts)
        assert np.array_equal(np.concatenate([w(p) for p in pts]), batch)
        assert np.array_equal(w(pts[:1]), batch[:1])


def test_covering_gap_is_detected():
    boxes = [Box((-3.0, -3.0), (-1.0, 3.0)), Box((1.0, -3.0), (3.0, 3.0))]
    with pytest.raises(CoveringGapError):
        bump_partition(boxes, Box((-2.5, -2.5), (2.5, 2.5)))


def test_covering_parallelism_build(blend):
    cover = blend.parallelism
    assert isinstance(cover, CoveringParallelism)
    rng = np.random.default_rng(9)
    pts = cover.region.sample(rng, 300)
    total = np.sum([w(pts) for w in cover.partition], axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
