"""Christoffel symbols, frame changes, torsion and the (nabla P)
endomorphism."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopar.connections import (Connection, christoffels_in_frame,
                                 constant_christoffels, covariant_derivative,
                                 from_coordinate_christoffels, nabla_P, nabla_P_batch,
                                 torsion)
from holopar.errors import SingularFrameError
from holopar.fixtures import SPECS, build_frame
from holopar.geometry import (Box, ChartPoint, Frame, TangentVector, VectorField,
                              coordinate_frame, dual_coframe, point)
from holopar.jets import jcos, jexp, jsin
from holopar.norms import (NormField, RandersData, euclidean_norm, lie_algebra_member,
                           one_form_norm_field, randers_norm)
from holopar.parallelism import frame_parallelism, translation_parallelism
from holopar.transport import _coefficient_grid
from holopar.verification import check_compalg_criterion, torsion_samples

DOM = Box((-5.0, -5.0), (5.0, 5.0))
S5_FRAME = SPECS["section5"]["manifold"]["frame"]
ROTATED_FRAME = SPECS["rotated_blend"]["manifold"]["cover"][1]["frame"]


@pytest.fixture(scope="module")
def s5_conn():
    return Connection.flat(build_frame(S5_FRAME, DOM))


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
    other = build_frame(ROTATED_FRAME, DOM)
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


def _frame_3d():
    """A non-orthogonal, non-constant 3-D jet frame."""
    dom = Box((-2.0,) * 3, (2.0,) * 3)
    cols = ((lambda xs: (1.0, 0.0, 0.0)),
            (lambda xs: (xs[2], 1.0, 0.0)),
            (lambda xs: (jsin(xs[1]), xs[0], jexp(0.2 * xs[0]))))
    return Frame(fields=[VectorField(3, components=c, domain=dom) for c in cols],
                 domain=dom)


def _torsion_connections(s5_conn, blend):
    gamma = np.arange(27.0).reshape(3, 3, 3) / 10.0 - 1.0
    return {"section5": (s5_conn, DOM),
            "rotated_blend": (blend.connection, blend.domain),
            "frame_3d": (Connection(_frame_3d(), constant_christoffels(gamma)),
                         Box((-2.0,) * 3, (2.0,) * 3))}


@pytest.mark.parametrize("name", ["section5", "rotated_blend", "frame_3d"])
def test_batched_torsion_is_the_pointwise_torsion_bit_for_bit(name, s5_conn, blend):
    conn, dom = _torsion_connections(s5_conn, blend)[name]
    pts, T = torsion_samples(conn, dom, samples=12, seed=5)
    pairs = [(i, j) for i in range(conn.dim) for j in range(i + 1, conn.dim)]
    assert T.shape == (12, len(pairs), conn.dim)
    fields = conn.frame.fields
    for k, (i, j) in enumerate(pairs):
        batch = torsion(conn, fields[i], fields[j], pts)
        assert np.array_equal(batch, T[:, k])
        for row, t in zip(pts, batch):
            one = torsion(conn, fields[i], fields[j], ChartPoint(row))
            assert isinstance(one, TangentVector)
            assert np.array_equal(one.components, t)
    assert np.max(np.abs(T)) > 0.0


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
    assert np.max(np.abs(endo)) <= 1e-12


def test_nabla_p_is_zero_for_zero_vector(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    endo = nabla_P(s5_conn, par, TangentVector(point(0.5, 0.5), np.zeros(2)))
    assert np.max(np.abs(endo)) == 0.0


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
    lhs = nabla_P(conn, par, combo)
    rhs = a * nabla_P(conn, par, v1) + b * nabla_P(conn, par, v2)
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
        assert np.max(np.abs(endo + endo.T)) <= 1e-8
        ok, _ = lie_algebra_member(f, endo)
        assert ok


def test_compalg_rejects_nonzero_endomorphism_for_discrete_group(s5_conn):
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(dual_coframe(s5_conn.frame), f)
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = Connection(s5_conn.frame, constant_christoffels(gamma))
    par = frame_parallelism(s5_conn.frame)
    p = point(0.2, 0.3)
    v = TangentVector(p, s5_conn.frame.matrix(p)[:, 0])   # v = E_1(p)
    endo = nabla_P(conn, par, v)
    assert np.max(np.abs(endo)) > 1e-3
    ok, viol = lie_algebra_member(F.at(p), endo)
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

def _textbook_christoffels(frame, gamma, coords):
    """Gamma^a_{bc} = C^j_b C^k_c (E^a_i Gt^i_{jk} - E^d_j d_d E^a_k), C = E^-1,
    contracted term by term for constant frame-relative symbols
    gamma[i, j, k] = Gt^i_{jk}: the oracle for the batched kernel."""
    E, dE = frame.matrix_jacobian_batch(coords)
    C = np.linalg.inv(E)
    term = np.einsum("ijk,mai->majk", gamma, E) - np.einsum("mdj,makd->majk", E, dE)
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
    # symbols below 1e-300 in magnitude are flushed to 0: their products with
    # the O(1) frame entries can be subnormal, where no 1e-12 relative bound holds
    normal = st.floats(-2.0, 2.0).map(lambda g: g if abs(g) >= 1e-300 else 0.0)
    gamma = draw(arrays(float, (n, n, n), elements=normal))
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
@example((3, np.eye(3)[[1, 2, 0]], np.array([0.3, 0.5, -0.2, 0.1]),
          np.linspace(-0.5, 0.5, 12).reshape(3, 4), np.arange(27.0).reshape(3, 3, 3) / 13.0 - 1.0))
def test_coordinate_christoffels_batch_matches_textbook_formula(data):
    n, q, angle, scale, gamma = data
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1.0, 1.0, (16, n))
    vel = rng.normal(size=(4, 4, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        conn = Connection(frame, constant_christoffels(gamma))
        got = conn.coordinate_christoffels_batch(coords)
        want = _textbook_christoffels(frame, gamma, coords)
        assert got.shape == (16, n, n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the transport coefficients contract the same symbols with a velocity
        A = _coefficient_grid(conn, coords.reshape(4, 4, n), vel)
        A_want = -np.einsum("mgj,mgijk->mgik", vel, got.reshape(4, 4, n, n, n))
        assert np.max(np.abs(A - A_want)) <= 1e-13 * np.max(np.abs(vel)) * np.max(np.abs(got))


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
    # gamma=None leaves out the E Gt(C v) C term; the general path on
    # explicit zeros must agree entry for entry, on jet and
    # finite-difference frames
    n, q, angle, scale, _ = data
    coords = np.random.default_rng(1).uniform(-1.0, 1.0, (16, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        zero = np.zeros((n, n, n))
        got = Connection.flat(frame).coordinate_christoffels_batch(coords)
        general = Connection(frame, constant_christoffels(zero))
        assert np.array_equal(got, general.coordinate_christoffels_batch(coords))
        want = _textbook_christoffels(frame, zero, coords)
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
    v = np.random.default_rng(3).normal(size=(16, n))
    frame = coordinate_frame(n)
    calls = []
    jacobian = Frame.matrix_jacobian_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Frame, "matrix_jacobian_batch",
                   lambda self, c: calls.append(1) or jacobian(self, c))
        mp.setattr(Frame, "matrix_derivative_batch", lambda *args: calls.append(1))
        conn = Connection(frame, constant_christoffels(gamma))
        flat = Connection.flat(frame)
        got = conn.coordinate_christoffels_batch(coords)
        got_along = conn.coordinate_christoffels_along(coords, v)
        flat_full = flat.coordinate_christoffels_batch(coords)
        flat_along = flat.coordinate_christoffels_along(coords, v)
    assert np.array_equal(got, np.broadcast_to(gamma, (16, n, n, n)))
    assert np.max(np.abs(got_along - np.einsum("mj,ijk->mik", v, gamma))) <= (
        1e-13 * np.max(np.abs(v)) * np.max(np.abs(gamma)))
    assert np.array_equal(flat_full, np.zeros((16, n, n, n)))
    assert np.array_equal(flat_along, np.zeros((16, n, n)))
    assert calls == []


# a frame parameter drawn subnormal gives subnormal derivatives, where no
# relative bound holds: differences below the smallest normal float pass
_TINY = np.finfo(float).tiny


def _along_cases(n, q, angle, scale, gamma, rank):
    """Connections on every path of coordinate_christoffels_along: flat and
    with constant symbols, in a jet frame, the same frame as a matrix
    function (central differences) and the coordinate frame."""
    jet, fd = _frames(n, q, angle, scale, rank)
    return [conn for frame in (jet, fd, coordinate_frame(n))
            for conn in (Connection.flat(frame), Connection(frame, constant_christoffels(gamma)))]


@settings(max_examples=40, deadline=None)
@given(frame_data())
def test_christoffels_along_are_the_contracted_symbols(data):
    n, q, angle, scale, gamma = data
    rng = np.random.default_rng(4)
    coords = rng.uniform(-1.0, 1.0, (16, n))
    v = rng.normal(size=(16, n))
    for conn in _along_cases(n, q, angle, scale, gamma, rank=n):
        got = conn.coordinate_christoffels_along(coords, v)
        full = conn.coordinate_christoffels_batch(coords)
        want = np.einsum("mj,mijk->mik", v, full)
        assert got.shape == (16, n, n)
        bound = 1e-13 * np.max(np.abs(v)) * np.max(np.abs(full))
        assert np.max(np.abs(got - want)) <= max(bound, _TINY)


@settings(max_examples=20, deadline=None)
@given(frame_data())
def test_christoffels_along_refuse_singular_frame(data):
    n, q, angle, scale, gamma = data
    coords = np.random.default_rng(0).uniform(-1.0, 1.0, (4, n))
    for conn in _along_cases(n, q, angle, scale, gamma, rank=n - 1):
        if conn.frame.coordinate:
            continue
        with pytest.raises(SingularFrameError, match="singular frame in Christoffel transform"):
            conn.coordinate_christoffels_along(coords, np.ones((4, n)))


@st.composite
def symbols_and_vectors(draw):
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 40))
    gamma = draw(arrays(float, (n, n, n), elements=st.floats(-2.0, 2.0)))
    return gamma, draw(arrays(float, (m, n), elements=st.floats(-3.0, 3.0)))


@settings(max_examples=40, deadline=None)
@given(symbols_and_vectors())
def test_constant_symbols_along_a_batch_are_the_row_by_row_bits(data):
    # a point's Gamma(v) does not depend on the batch it is evaluated in
    gamma, v = data
    m, n = v.shape
    conn = from_coordinate_christoffels(constant_christoffels(gamma), n)
    coords = np.zeros((m, n))
    got = conn.coordinate_christoffels_along(coords, v)
    rows = [conn.coordinate_christoffels_along(coords[i:i + 1], v[i:i + 1])[0] for i in range(m)]
    assert np.array_equal(got, np.array(rows))


def _two_fields(n):
    """Two non-constant vector fields on the box of `_frames`."""
    dom = Box((-2.0,) * n, (2.0,) * n)
    X = VectorField(n, components=lambda xs: [1.0 + 0.3 * xs[n - 1]]
                    + [jsin(xs[d - 1]) for d in range(1, n)], domain=dom)
    Y = VectorField(n, components=lambda xs: [xs[d] * xs[0] - 0.5 for d in range(n)],
                    domain=dom)
    return X, Y


@settings(max_examples=40, deadline=None)
@given(frame_data())
def test_torsion_is_the_antisymmetrized_textbook_contraction(data):
    # T(X, Y)^a = Gamma^a_{bc} (X^b Y^c - Y^b X^c) with the textbook symbols
    # of constant frame-relative ones, on jet and finite-difference frames
    n, q, angle, scale, gamma = data
    coords = np.random.default_rng(6).uniform(-1.0, 1.0, (16, n))
    X, Y = _two_fields(n)
    xv, yv = X.values_batch(coords), Y.values_batch(coords)
    for frame in _frames(n, q, angle, scale, rank=n):
        got = torsion(Connection(frame, constant_christoffels(gamma)), X, Y, coords)
        G = _textbook_christoffels(frame, gamma, coords)
        want = (np.einsum("mabc,mb,mc->ma", G, xv, yv)
                - np.einsum("mabc,mb,mc->ma", G, yv, xv))
        assert got.shape == (16, n)
        bound = 1e-12 * np.max(np.abs(G)) * np.max(np.abs(xv)) * np.max(np.abs(yv))
        assert np.max(np.abs(got - want)) <= max(bound, _TINY)


@settings(max_examples=30, deadline=None)
@given(frame_data())
def test_frame_values_and_directional_derivatives_keep_the_jacobian_bits(data):
    # jet values do not depend on the seeded partials: value-only and
    # directional passes give E bit for bit as the Jacobian pass does
    n, q, angle, scale, _ = data
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1.0, 1.0, (16, n))
    v = rng.normal(size=(16, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        E, dE = frame.matrix_jacobian_batch(coords)
        E_v, dvE = frame.matrix_derivative_batch(coords, v)
        assert np.array_equal(frame.matrix_batch(coords), E)
        assert np.array_equal(E_v, E)
        want = np.einsum("makd,md->mak", dE, v)
        bound = 1e-13 * np.max(np.abs(v)) * np.max(np.abs(dE))
        assert np.max(np.abs(dvE - want)) <= max(bound, _TINY)


def test_only_coordinate_frames_are_marked_coordinate():
    assert coordinate_frame(2).coordinate and coordinate_frame(3, DOM).coordinate
    assert not Frame.coordinate
    assert not build_frame(S5_FRAME, DOM).coordinate
    # an identity frame that is not built as the coordinate frame takes the
    # general path, with the same symbols
    ident = Frame(matrix_fn=lambda c: np.broadcast_to(np.eye(2), c.shape[:1] + (2, 2)),
                  domain=DOM, dim=2)
    gamma = np.arange(8.0).reshape(2, 2, 2)
    coords = np.array([[0.1, 0.2], [-1.0, 3.0]])
    got = Connection(ident, constant_christoffels(gamma)).coordinate_christoffels_batch(coords)
    assert np.array_equal(got, np.broadcast_to(gamma, (2, 2, 2, 2)))


# ---------------------------------------------------------- batched nabla_P

_S5_NORM = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))


_TINY_GAMMA = np.zeros((2, 2, 2))
_TINY_GAMMA[0, 0, 0] = 4.1e-265


@settings(max_examples=40, deadline=None)
@given(frame_data())
# both frames equal and one tiny symbol: the two terms cancel to about 0
@example((2, np.eye(2), np.zeros(3), np.full((2, 3), 0.5), _TINY_GAMMA))
def test_batched_nabla_p_matches_the_frame_change_formula(data):
    n, q, angle, scale, gamma = data
    assume(np.any(gamma != 0.0))
    parallel = _frames(n, q, angle, scale, rank=n)[0]
    # the connection lives in another jet frame, with non-zero symbols there
    other = _frames(n, q.T, -angle, scale[::-1], rank=n)[0]
    conn = Connection(other, constant_christoffels(gamma))
    rng = np.random.default_rng(3)
    coords = rng.uniform(-1.0, 1.0, (8, n))
    vectors = rng.normal(size=(8, n))
    got = nabla_P_batch(conn, frame_parallelism(parallel), coords, vectors)
    assert got.shape == (8, n, n)
    # the textbook formula (d_d phi v^d) phi^-1 + Gamma^a_{bc} v^b, from the
    # full frame Jacobian and the coordinate tensor
    phi, dphi = parallel.matrix_jacobian_batch(coords)
    terms = (np.einsum("makd,md->mak", dphi, vectors) @ np.linalg.inv(phi),
             np.einsum("mabc,mb->mac", conn.coordinate_christoffels_batch(coords), vectors))
    # the two terms can cancel to far below their own size: rounding is
    # bounded relative to the terms
    scale = max(np.max(np.abs(term)) for term in terms)
    assert np.max(np.abs(got - (terms[0] + terms[1]))) <= 1e-12 * scale
    one = nabla_P(conn, frame_parallelism(parallel), TangentVector(ChartPoint(coords[2]),
                                                                  vectors[2]))
    assert np.array_equal(one, got[2])


def test_batched_nabla_p_refuses_a_rank_deficient_parallel_frame(s5_conn):
    frame = _frames(2, np.eye(2), np.zeros(3), np.zeros((2, 3)), rank=1)[0]
    coords = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1]])
    with pytest.raises(SingularFrameError, match="parallel frame in nabla_P"):
        nabla_P_batch(s5_conn, frame_parallelism(frame), coords, np.ones((3, 2)))
    F = one_form_norm_field(dual_coframe(s5_conn.frame), _S5_NORM)
    with pytest.raises(SingularFrameError, match="parallel frame in nabla_P"):
        check_compalg_criterion(F, frame_parallelism(frame), s5_conn, samples=5)


def test_compalg_takes_one_christoffel_and_one_frame_jacobian_call(s5_conn, monkeypatch):
    # the connection is written in the coordinate frame, so its Gamma(v)
    # call takes no frame derivative: the one derivative call is the
    # parallel (jet) frame's, seeded along v; no tensor, no full Jacobian
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = from_coordinate_christoffels(constant_christoffels(gamma), 2, DOM)
    F = one_form_norm_field(dual_coframe(s5_conn.frame), _S5_NORM)
    counted_methods = [(Connection, "coordinate_christoffels_along"),
                       (Connection, "coordinate_christoffels_batch"),
                       (Frame, "matrix_derivative_batch"),
                       (Frame, "matrix_jacobian_batch")]
    calls = {name: 0 for _, name in counted_methods}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls, name in counted_methods:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    rep = check_compalg_criterion(F, frame_parallelism(s5_conn.frame), conn, samples=100)
    assert calls == {"coordinate_christoffels_along": 1, "coordinate_christoffels_batch": 0,
                     "matrix_derivative_batch": 1, "matrix_jacobian_batch": 0}
    assert rep.samples == 100 and not rep.passed


def test_norm_field_without_gradient_gets_central_differences(s5_conn):
    exact = one_form_norm_field(dual_coframe(s5_conn.frame), _S5_NORM)
    plain = NormField(2, exact.evaluator)
    rng = np.random.default_rng(6)
    coords = rng.uniform(-4.0, 4.0, (5, 7, 2))
    vectors = rng.normal(size=(5, 7, 2))
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    got = plain.gradient(coords, vectors)
    want = exact.gradient(coords, vectors)
    assert got.shape == (5, 7, 2)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    par = frame_parallelism(s5_conn.frame)
    rep = check_compalg_criterion(plain, par, s5_conn, samples=20)
    assert rep.passed and rep.max_abs_error <= 1e-12
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    bent = Connection(s5_conn.frame, constant_christoffels(gamma))
    want = check_compalg_criterion(exact, par, bent, samples=20).max_abs_error
    got = check_compalg_criterion(plain, par, bent, samples=20).max_abs_error
    assert want > 1e-3 and got == pytest.approx(want, rel=1e-7)
