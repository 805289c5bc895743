"""Christoffel symbols, frame changes, torsion and the (nabla P)
endomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopar.connections import (Connection, christoffels_in_frame,
                                 constant_christoffels, covariant_derivative,
                                 from_coordinate_christoffels, nabla_P, torsion,
                                 zero_christoffels)
from holopar.errors import SingularFrameError
from holopar.fixtures import rotated_frame, section5_frame
from holopar.geometry import (Box, ChartPoint, Frame, TangentVector, VectorField,
                              coordinate_frame, point)
from holopar.jets import jcos, jexp, jsin
from holopar.norms import euclidean_norm, lie_algebra_member
from holopar.parallelism import frame_parallelism, translation_parallelism

DOM = Box((-5.0, -5.0), (5.0, 5.0))


@pytest.fixture(scope="module")
def s5_conn():
    return Connection(section5_frame(DOM), zero_christoffels(2))


# ---------------------------------------------------------- frame changes

def test_section5_symbols_vanish_in_own_frame(s5_conn):
    g = christoffels_in_frame(s5_conn, s5_conn.frame, point(1.3, -0.4))
    assert np.max(np.abs(g)) <= 1e-12


def test_section5_coordinate_symbols(s5_conn):
    g = s5_conn.coordinate_christoffels(point(0.7, -0.4))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = -1.0
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_flat_connection_coordinate_symbols_vanish():
    conn = Connection.flat(coordinate_frame(2, DOM))
    g = conn.coordinate_christoffels(point(2.0, 2.0))
    assert np.max(np.abs(g)) <= 1e-15


def test_christoffels_frame_round_trip(s5_conn):
    # coordinate view -> rotated frame -> back to coordinates
    other = rotated_frame(DOM)
    rng = np.random.default_rng(2)
    for row in DOM.sample(rng, 10, margin=0.05):
        p = ChartPoint(row)
        g_rot = christoffels_in_frame(s5_conn, other, p)
        reexpressed = Connection(other, constant_christoffels(g_rot))
        back = reexpressed.coordinate_christoffels(p)
        direct = s5_conn.coordinate_christoffels(p)
        assert np.max(np.abs(back - direct)) <= 1e-9


# ---------------------------------------------------------- torsion

def test_section5_torsion_is_minus_d_dx(s5_conn):
    e1, e2 = s5_conn.frame.fields
    for p in (point(0.0, 0.0), point(2.5, -3.0)):
        t = torsion(s5_conn, e1, e2, p)
        assert np.allclose(t.components, [-1.0, 0.0], atol=1e-12)


def test_torsion_of_field_with_itself_vanishes(s5_conn):
    e1 = s5_conn.frame.fields[0]
    t = torsion(s5_conn, e1, e1, point(1.0, 1.0))
    assert np.max(np.abs(t.components)) == 0.0


def test_flat_connection_is_torsion_free():
    conn = Connection.flat(coordinate_frame(2, DOM))
    dx, dy = conn.frame.fields
    t = torsion(conn, dx, dy, point(0.5, 0.5))
    assert np.max(np.abs(t.components)) == 0.0


def test_torsion_is_tensorial(s5_conn):
    e1, e2 = s5_conn.frame.fields
    scale = VectorField(2, components=lambda xs: ((1.0 + xs[0] * xs[0]) * xs[0],
                                                  (1.0 + xs[0] * xs[0]) * 1.0),
                        domain=DOM)   # (1 + x^2) E_1
    rng = np.random.default_rng(3)
    for row in DOM.sample(rng, 10, margin=0.05):
        p = ChartPoint(row)
        f = 1.0 + row[0] ** 2
        scaled = torsion(s5_conn, scale, e2, p).components
        plain = torsion(s5_conn, e1, e2, p).components
        assert np.max(np.abs(scaled - f * plain)) <= 1e-9


# ---------------------------------------------------------- covariant derivative

def test_covariant_derivative_kills_frame_fields(s5_conn):
    e1, e2 = s5_conn.frame.fields
    for X in (e1, e2):
        for Y in (e1, e2):
            d = covariant_derivative(s5_conn, X, Y, point(0.8, -1.2))
            assert np.max(np.abs(d.components)) <= 1e-12


def test_covariant_derivative_coordinate_formula():
    # flat connection: nabla_X Y = directional derivative of Y along X
    conn = Connection.flat(coordinate_frame(2, DOM))
    Y = VectorField(2, components=lambda xs: (xs[0] * xs[1], xs[1]), domain=DOM)
    X = VectorField(2, components=lambda xs: (1.0, 2.0), domain=DOM)
    d = covariant_derivative(conn, X, Y, point(3.0, 4.0))
    # J(Y) = [[y, x], [0, 1]]; J @ (1,2) = (y + 2x, 2)
    assert np.allclose(d.components, [10.0, 2.0], atol=1e-12)


# ---------------------------------------------------------- nabla_P

def test_nabla_p_vanishes_for_parallel_frame(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    v = TangentVector(point(1.0, 2.0), np.array([0.3, -0.7]))
    endo = nabla_P(s5_conn, par, v)
    assert np.max(np.abs(endo.matrix)) <= 1e-12


def test_nabla_p_is_zero_for_zero_vector(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    endo = nabla_P(s5_conn, par, TangentVector(point(0.5, 0.5), np.zeros(2)))
    assert np.max(np.abs(endo.matrix)) == 0.0


def test_nabla_p_linear_in_v(s5_conn):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    gamma[1, 0, 1] = -0.5
    conn = Connection(s5_conn.frame, constant_christoffels(gamma))
    par = translation_parallelism(DOM)
    p = point(0.4, 0.9)
    v1 = TangentVector(p, np.array([1.0, 0.2]))
    v2 = TangentVector(p, np.array([-0.3, 1.1]))
    a, b = 0.6, -1.4
    combo = TangentVector(p, a * v1.components + b * v2.components)
    lhs = nabla_P(conn, par, combo).matrix
    rhs = a * nabla_P(conn, par, v1).matrix + b * nabla_P(conn, par, v2).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_blended_nabla_p_is_antisymmetric_for_rotated_blend(blend):
    # compatibility criterion face: the blended derivative's endomorphisms
    # must generate Euclidean isometries, i.e. be antisymmetric
    rng = np.random.default_rng(4)
    member_par = blend.parallelism.members[1][1]
    pts = Box((-0.5, -3.0), (0.5, 3.0)).sample(rng, 10)
    f = euclidean_norm(2)
    for row in pts:
        p = ChartPoint(row)
        v = TangentVector(p, rng.normal(size=2))
        endo = nabla_P(blend.connection, member_par, v)
        assert np.max(np.abs(endo.matrix + endo.matrix.T)) <= 1e-8
        ok, _ = lie_algebra_member(f, endo.matrix)
        assert ok


def test_compalg_rejects_nonzero_endomorphism_for_discrete_group(s5_conn):
    from holopar.norms import RandersData, one_form_norm_field, randers_norm
    from holopar.geometry import dual_coframe
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(dual_coframe(s5_conn.frame), f)
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = Connection(s5_conn.frame, constant_christoffels(gamma))
    par = frame_parallelism(s5_conn.frame)
    p = point(0.2, 0.3)
    v = TangentVector(p, s5_conn.frame.matrix(p)[:, 0])   # v = E_1(p)
    endo = nabla_P(conn, par, v)
    assert np.max(np.abs(endo.matrix)) > 1e-3
    ok, viol = lie_algebra_member(F.at(p), endo.matrix)
    assert not ok and viol > 1e-3


def test_nabla_p_refuses_a_singular_parallel_frame(s5_conn):
    # a rank-1 frame, as jet fields and as a matrix function, and a frame
    # with |det| = 1e-13 <= DET_FLOOR, which an LU solve would accept
    tiny = Frame(matrix_fn=lambda c: np.broadcast_to(np.diag([1.0, 1e-13]), c.shape[:1] + (2, 2)),
                 domain=DOM, dim=2)
    v = TangentVector(point(0.3, -0.2), np.array([1.0, 0.5]))
    for frame in (*_frames(2, np.eye(2), np.zeros(3), np.zeros((2, 3)), rank=1), tiny):
        with pytest.raises(SingularFrameError, match="parallel frame in nabla_P"):
            nabla_P(s5_conn, frame_parallelism(frame), v)


def test_from_coordinate_christoffels_round_trip():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 2.0
    conn = from_coordinate_christoffels(constant_christoffels(gamma), 2, DOM)
    assert np.max(np.abs(conn.coordinate_christoffels(point(1.0, -1.0)) - gamma)) <= 1e-12


# ---------------------------------------------------------- Christoffel transform

def _textbook_christoffels(conn, coords):
    """Gamma^a_{bc} = C^j_b C^k_c (E^a_i Gt^i_{jk} - E^d_j d_d E^a_k), C = E^-1,
    contracted term by term: the oracle for the batched kernel."""
    E, dE = conn.frame.matrix_jacobian_batch(coords)
    C = np.linalg.inv(E)
    gt = conn.gamma(coords)
    term = np.einsum("mijk,mai->majk", gt, E) - np.einsum("mdj,makd->majk", E, dE)
    return np.einsum("mjb,mkc,majk->mabc", C, C, term)


@st.composite
def frame_data(draw):
    """E(x) = Q R(theta0 + w.x) diag(exp(s0 + S x)) with Q orthogonal, R a
    rotation of the first two axes, and constant frame-relative symbols."""
    n = draw(st.sampled_from([2, 3]))
    unit = st.floats(-1.0, 1.0)
    q, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=unit)))
    angle = draw(arrays(float, n + 1, elements=st.floats(-3.0, 3.0)))
    scale = draw(arrays(float, (n, n + 1), elements=st.floats(-0.5, 0.5)))
    gamma = draw(arrays(float, (n, n, n), elements=st.floats(-2.0, 2.0)))
    return n, q, angle, scale, gamma


def _frame_matrix(xs, q, angle, scale, rank):
    """Entries E[a][k] on floats, arrays or Jets; columns k >= rank vanish."""
    n = len(xs)
    th = angle[0] + sum(angle[1 + d] * xs[d] for d in range(n))
    rot = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
    rot[0][0] = rot[1][1] = jcos(th)
    rot[1][0] = jsin(th)
    rot[0][1] = -1.0 * jsin(th)
    diag = [jexp(scale[k, 0] + sum(scale[k, 1 + d] * xs[d] for d in range(n)))
            * (1.0 if k < rank else 0.0) for k in range(n)]
    return [[sum(q[a, b] * rot[b][k] for b in range(n)) * diag[k] for k in range(n)]
            for a in range(n)]


def _frames(n, q, angle, scale, rank):
    """The same frame with jet fields and as a matrix function (FD Jacobian)."""
    dom = Box((-2.0,) * n, (2.0,) * n)
    fields = [VectorField(n, components=lambda xs, k=k: [row[k] for row in
                                                          _frame_matrix(xs, q, angle, scale, rank)],
                          domain=dom) for k in range(n)]

    def matrix_fn(coords):
        rows = _frame_matrix(tuple(coords[:, d] for d in range(n)), q, angle, scale, rank)
        return np.stack([np.stack([np.broadcast_to(e, coords.shape[:1]) for e in row], axis=-1)
                         for row in rows], axis=1)

    return (Frame(fields=fields, domain=dom),
            Frame(matrix_fn=matrix_fn, domain=dom, dim=n))


@settings(max_examples=60, deadline=None)
@given(frame_data())
def test_coordinate_christoffels_batch_matches_textbook_formula(data):
    n, q, angle, scale, gamma = data
    coords = np.random.default_rng(0).uniform(-1.0, 1.0, (16, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        conn = Connection(frame, constant_christoffels(gamma))
        got = conn.coordinate_christoffels_batch(coords)
        want = _textbook_christoffels(conn, coords)
        assert got.shape == (16, n, n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(frame_data())
def test_coordinate_christoffels_batch_refuses_singular_frame(data):
    n, q, angle, scale, gamma = data
    coords = np.random.default_rng(0).uniform(-1.0, 1.0, (4, n))
    for frame in _frames(n, q, angle, scale, rank=n - 1):
        with pytest.raises(SingularFrameError):
            Connection(frame, constant_christoffels(gamma)).coordinate_christoffels_batch(coords)


@settings(max_examples=30, deadline=None)
@given(frame_data())
def test_zero_symbols_match_the_general_path(data):
    # gamma=None computes -dE^T C only; the general path on explicit zeros
    # must agree entry for entry, on jet and finite-difference frames
    n, q, angle, scale, _ = data
    coords = np.random.default_rng(1).uniform(-1.0, 1.0, (16, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        zero = np.zeros((n, n, n))
        got = Connection(frame, zero_christoffels(n)).coordinate_christoffels_batch(coords)
        general = Connection(frame, constant_christoffels(zero))
        assert np.array_equal(got, general.coordinate_christoffels_batch(coords))
        want = _textbook_christoffels(general, coords)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


@settings(max_examples=20, deadline=None)
@given(frame_data())
def test_zero_symbols_still_refuse_singular_frame(data):
    n, q, angle, scale, _ = data
    coords = np.random.default_rng(0).uniform(-1.0, 1.0, (4, n))
    for frame in _frames(n, q, angle, scale, rank=n - 1):
        with pytest.raises(SingularFrameError):
            Connection.flat(frame).coordinate_christoffels_batch(coords)


@settings(max_examples=20, deadline=None)
@given(frame_data())
def test_coordinate_frame_returns_its_symbols_without_frame_jets(data):
    n, _, _, _, gamma = data
    coords = np.random.default_rng(2).uniform(-1.0, 1.0, (16, n))
    frame = coordinate_frame(n)
    calls = []
    jacobian = Frame.matrix_jacobian_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Frame, "matrix_jacobian_batch",
                   lambda self, c: calls.append(1) or jacobian(self, c))
        got = Connection(frame, constant_christoffels(gamma)).coordinate_christoffels_batch(coords)
        flat = Connection(frame, zero_christoffels(n)).coordinate_christoffels_batch(coords)
    assert np.array_equal(got, np.broadcast_to(gamma, (16, n, n, n)))
    assert np.array_equal(flat, np.zeros((16, n, n, n)))
    assert calls == []


def test_only_coordinate_frames_are_marked_coordinate():
    assert coordinate_frame(2).coordinate and coordinate_frame(3, DOM).coordinate
    assert not Frame.coordinate
    assert not section5_frame(DOM).coordinate
    # an identity frame that is not built as the coordinate frame takes the
    # general path, with the same symbols
    ident = Frame(matrix_fn=lambda c: np.broadcast_to(np.eye(2), c.shape[:1] + (2, 2)),
                  domain=DOM, dim=2)
    gamma = np.arange(8.0).reshape(2, 2, 2)
    coords = np.array([[0.1, 0.2], [-1.0, 3.0]])
    got = Connection(ident, constant_christoffels(gamma)).coordinate_christoffels_batch(coords)
    assert np.array_equal(got, np.broadcast_to(gamma, (2, 2, 2, 2)))
