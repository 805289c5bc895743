"""Christoffel symbols, frame changes, torsion and the (nabla P)
endomorphism."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopar.connections import (Connection, constant_christoffels,
                                 from_coordinate_christoffels, nabla_P, torsion)
from holopar.constructions import ConvexChartRegion, parallelism_from_connection
from holopar.errors import SingularFrameError
from holopar.exprs import parse_exprs
from holopar.fixtures import COORD_NAMES, SPECS, build_frame
from holopar.geometry import Box, Frame, coordinate_frame
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

def _symbols_in_frame(conn, frame, p):
    """Symbols Gt^i_{jk} of conn relative to `frame` B at p:
    Gt_j = B^-1 (nabla P)_{B_j} B with P = frame_parallelism(B)."""
    B = frame.matrix(p)
    cov = nabla_P(conn, frame_parallelism(frame), np.tile(p, (len(B), 1)), B.T)
    return (np.linalg.inv(B) @ cov @ B).swapaxes(0, 1)            # [j, i, k] -> [i, j, k]


def test_section5_symbols_vanish_in_own_frame(s5_conn):
    g = _symbols_in_frame(s5_conn, s5_conn.frame, np.array([1.3, -0.4]))
    assert np.max(np.abs(g)) <= 1e-12


def test_section5_coordinate_symbols(s5_conn):
    g = s5_conn.coordinate_christoffels(np.array([0.7, -0.4]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = -1.0
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_flat_connection_coordinate_symbols_vanish():
    conn = Connection.flat(coordinate_frame(2, DOM))
    g = conn.coordinate_christoffels(np.array([2.0, 2.0]))
    assert np.max(np.abs(g)) <= 1e-15


def test_christoffels_frame_round_trip(s5_conn):
    # coordinate view -> rotated frame -> back to coordinates
    other = build_frame(ROTATED_FRAME, DOM)
    rng = np.random.default_rng(2)
    for p in DOM.sample(rng, 10, margin=0.05):
        g_rot = _symbols_in_frame(s5_conn, other, p)
        reexpressed = Connection(other, constant_christoffels(g_rot))
        back = reexpressed.coordinate_christoffels(p)
        direct = s5_conn.coordinate_christoffels(p)
        assert np.max(np.abs(back - direct)) <= 1e-9


# ---------------------------------------------------------- torsion

def test_section5_torsion_is_minus_d_dx(s5_conn):
    pts = np.array([[0.0, 0.0], [2.5, -3.0]])
    E = s5_conn.frame.matrix_batch(pts)
    t = torsion(s5_conn, E[:, :, 0], E[:, :, 1], pts)
    assert np.allclose(t, [-1.0, 0.0], atol=1e-12)


def test_torsion_of_field_with_itself_vanishes(s5_conn):
    pts = np.array([[1.0, 1.0]])
    e1 = s5_conn.frame.matrix_batch(pts)[:, :, 0]
    t = torsion(s5_conn, e1, e1, pts)
    assert np.max(np.abs(t)) == 0.0


def test_flat_connection_is_torsion_free():
    conn = Connection.flat(coordinate_frame(2, DOM))
    t = torsion(conn, [[1.0, 0.0]], [[0.0, 1.0]], np.array([[0.5, 0.5]]))
    assert np.max(np.abs(t)) == 0.0


def test_torsion_is_tensorial(s5_conn):
    pts = DOM.sample(np.random.default_rng(3), 10, margin=0.05)
    E = s5_conn.frame.matrix_batch(pts)
    f = 1.0 + pts[:, :1] ** 2
    scaled = torsion(s5_conn, f * E[:, :, 0], E[:, :, 1], pts)     # (1 + x^2) E_1
    plain = torsion(s5_conn, E[:, :, 0], E[:, :, 1], pts)
    assert np.max(np.abs(scaled - f * plain)) <= 1e-9


def _frame_3d():
    """A non-orthogonal, non-constant 3-D jet frame."""
    dom = Box((-2.0,) * 3, (2.0,) * 3)
    return Frame(entries=lambda xs: [1.0, xs[2], jsin(xs[1]),
                                     0.0, 1.0, xs[0],
                                     0.0, 0.0, jexp(0.2 * xs[0])], dim=3, domain=dom)


def _torsion_connections(s5_conn, blend):
    gamma = np.arange(27.0).reshape(3, 3, 3) / 10.0 - 1.0
    return {"section5": (s5_conn, DOM),
            "rotated_blend": (blend.connection, blend.domain),
            "frame_3d": (Connection(_frame_3d(), constant_christoffels(gamma)),
                         Box((-2.0,) * 3, (2.0,) * 3))}


@pytest.mark.parametrize("name", ["section5", "rotated_blend", "frame_3d"])
def test_batched_torsion_is_the_pointwise_torsion_bit_for_bit(name, s5_conn, blend):
    conn, dom = _torsion_connections(s5_conn, blend)[name]
    pts, T = torsion_samples(conn, dom, seed=5)
    pairs = [(i, j) for i in range(conn.dim) for j in range(i + 1, conn.dim)]
    assert T.shape == (50, len(pairs), conn.dim)
    E = conn.frame.matrix_batch(pts)
    for k, (i, j) in enumerate(pairs):
        batch = torsion(conn, E[:, :, i], E[:, :, j], pts)
        assert np.array_equal(batch, T[:, k])
        for row, t in zip(pts, batch):
            Er = conn.frame.matrix_batch(row[None, :])
            one = torsion(conn, Er[:, :, i], Er[:, :, j], row[None, :])
            assert np.array_equal(one, t[None, :])
    assert np.max(np.abs(T)) > 0.0


# a 3-D frame (3 pairs) and a 1-D frame (no pair)
TORSION_SPECS = {
    "three_d": ([["cos(0.3*z)", "sin(0.3*z)", "x*y"],
                 ["-sin(0.3*z)", "cos(0.3*z)", "smooth_step(y)"],
                 ["exp(0.1*x)", "0", "1+z^2"]], Box((-1.0,) * 3, (1.0,) * 3)),
    "one_d": ([["1+x^2"]], Box((-1.0,), (1.0,))),
}


@pytest.mark.parametrize("name", sorted(TORSION_SPECS))
def test_torsion_samples_are_the_per_pair_torsions_bit_for_bit(name):
    # the reference evaluates each field of each pair from its own column,
    # parsed alone, as a frame of vector fields would
    spec, dom = TORSION_SPECS[name]
    n = dom.dim
    gamma = np.arange(n ** 3, dtype=float).reshape(n, n, n) / 7.0 - 1.0
    conn = Connection(build_frame(spec, dom), constant_christoffels(gamma))
    pts, T = torsion_samples(conn, dom, seed=4)
    assert np.array_equal(pts, dom.sample(np.random.default_rng(4), 50, margin=0.05))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert T.shape == (50, len(pairs), n) and len(pairs) == n * (n - 1) // 2

    def field(k):
        comps = parse_exprs(spec[k], COORD_NAMES[:n])(*pts.T)
        return np.stack([np.broadcast_to(c, pts.shape[:1]) for c in comps], axis=1)

    for k, (i, j) in enumerate(pairs):
        assert np.array_equal(T[:, k], torsion(conn, field(i), field(j), pts))


@pytest.mark.parametrize("name", ["section5", "rotated_blend", "frame_3d"])
def test_torsion_bits_do_not_follow_the_layout_of_the_transform(name, s5_conn, blend,
                                                                monkeypatch):
    # the transform returns a view of component-major planes; a C-contiguous
    # copy of the same values gives the same torsion bit for bit
    conn, dom = _torsion_connections(s5_conn, blend)[name]
    pts = dom.sample(np.random.default_rng(9), 200, margin=0.05)
    E = conn.frame.matrix_batch(pts)
    want = torsion(conn, E[:, :, 0], E[:, :, -1], pts)
    along = Connection.coordinate_christoffels_along
    monkeypatch.setattr(Connection, "coordinate_christoffels_along",
                        lambda self, coords, v: np.ascontiguousarray(along(self, coords, v)))
    assert np.array_equal(torsion(conn, E[:, :, 0], E[:, :, -1], pts), want)


# ---------------------------------------------------------- covariant derivative

def _covariant_derivative(conn, frame, k, v, p):
    """(nabla_v E_k)(p) for the field E_k of `frame`: (nabla P)_v E_k(p)
    with P = frame_parallelism(frame), since (nabla P)_v = (d_v E + Gamma(v) E) E^-1."""
    cov = nabla_P(conn, frame_parallelism(frame), p[None, :], v[None, :])[0]
    return cov @ frame.matrix(p)[:, k]


def test_covariant_derivative_kills_frame_fields(s5_conn):
    p = np.array([0.8, -1.2])
    for v in s5_conn.frame.matrix(p).T:                      # v = E_j(p)
        for k in range(2):
            d = _covariant_derivative(s5_conn, s5_conn.frame, k, v, p)
            assert np.max(np.abs(d)) <= 1e-12


def test_covariant_derivative_coordinate_formula():
    # flat connection: nabla_X Y = directional derivative of Y along X
    conn = Connection.flat(coordinate_frame(2, DOM))
    # the frame (Y, d/dx) with Y = (x y, y)
    frame = Frame(entries=lambda xs: [xs[0] * xs[1], 1.0, xs[1], 0.0], dim=2, domain=DOM)
    d = _covariant_derivative(conn, frame, 0, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    # J(Y) = [[y, x], [0, 1]]; J @ (1,2) = (y + 2x, 2)
    assert np.allclose(d, [10.0, 2.0], atol=1e-12)


# ---------------------------------------------------------- nabla_P

def test_nabla_p_vanishes_for_parallel_frame(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    endo = nabla_P(s5_conn, par, np.array([[1.0, 2.0]]), np.array([[0.3, -0.7]]))
    assert np.max(np.abs(endo)) <= 1e-12


def test_nabla_p_is_zero_for_zero_vector(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    endo = nabla_P(s5_conn, par, np.array([[0.5, 0.5]]), np.zeros((1, 2)))
    assert np.max(np.abs(endo)) == 0.0


def test_nabla_p_linear_in_v(s5_conn):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    gamma[1, 0, 1] = -0.5
    conn = Connection(s5_conn.frame, constant_christoffels(gamma))
    par = translation_parallelism(DOM)
    p = np.array([[0.4, 0.9]])
    v1 = np.array([[1.0, 0.2]])
    v2 = np.array([[-0.3, 1.1]])
    a, b = 0.6, -1.4
    lhs = nabla_P(conn, par, p, a * v1 + b * v2)
    rhs = a * nabla_P(conn, par, p, v1) + b * nabla_P(conn, par, p, v2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_blended_nabla_p_is_antisymmetric_for_rotated_blend(blend):
    # compatibility criterion face: the blended derivative's endomorphisms
    # must generate Euclidean isometries, i.e. be antisymmetric
    rng = np.random.default_rng(4)
    member_par = blend.parallelism.members[1][1]
    pts = Box((-0.5, -3.0), (0.5, 3.0)).sample(rng, 10)
    f = euclidean_norm(2)
    for endo in nabla_P(blend.connection, member_par, pts, rng.normal(size=(10, 2))):
        assert np.max(np.abs(endo + endo.T)) <= 1e-8
        ok, _ = lie_algebra_member(f, endo)
        assert ok


def test_compalg_rejects_nonzero_endomorphism_for_discrete_group(s5_conn):
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(s5_conn.frame, f)
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = Connection(s5_conn.frame, constant_christoffels(gamma))
    par = frame_parallelism(s5_conn.frame)
    p = np.array([0.2, 0.3])
    v = s5_conn.frame.matrix(p)[:, 0]                     # v = E_1(p)
    endo = nabla_P(conn, par, p[None, :], v[None, :])[0]
    assert np.max(np.abs(endo)) > 1e-3
    ok, viol = lie_algebra_member(F.at(p), endo)
    assert not ok and viol > 1e-3


def test_nabla_p_refuses_a_singular_parallel_frame(s5_conn):
    # a rank-1 frame, as jet fields and as a matrix function, and a frame
    # with |det| = 1e-13 <= DET_FLOOR, which an LU solve would accept
    tiny = Frame(matrix_fn=lambda c: np.broadcast_to(np.diag([1.0, 1e-13]), c.shape[:1] + (2, 2)),
                 domain=DOM, dim=2)
    p, v = np.array([[0.3, -0.2]]), np.array([[1.0, 0.5]])
    for frame in (*_frames(2, np.eye(2), np.zeros(3), np.zeros((2, 3)), rank=1), tiny):
        with pytest.raises(SingularFrameError, match="singular frame in Christoffel transform"):
            nabla_P(s5_conn, frame_parallelism(frame), p, v)


def test_from_coordinate_christoffels_round_trip():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 2.0
    conn = from_coordinate_christoffels(constant_christoffels(gamma), 2, DOM)
    assert np.max(np.abs(conn.coordinate_christoffels(np.array([1.0, -1.0])) - gamma)) <= 1e-12


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

    def matrix_fn(coords):
        rows = _frame_matrix(tuple(coords[:, d] for d in range(n)), q, angle, scale, rank)
        return np.stack([np.stack([np.broadcast_to(e, coords.shape[:1]) for e in row], axis=-1)
                         for row in rows], axis=1)

    return (Frame(entries=lambda xs: [e for row in _frame_matrix(xs, q, angle, scale, rank)
                                      for e in row], dim=n, domain=dom),
            Frame(matrix_fn=matrix_fn, domain=dom, dim=n))


# a frame parameter drawn subnormal gives subnormal derivatives, where no
# relative bound holds: differences below the smallest normal float pass
_TINY = np.finfo(float).tiny


def _fd_bound(jet, coords, v, inverse=False):
    """How far a matrix-function frame's derivative along v (m, n), one
    central difference of step h = 1e-5, may lie from the exact one of
    its jet twin: 1e-8 max|v| (max|dE| + max|E|). On these frames the
    truncation, about h^2/6 |d^3 E|, stays below 5e-10 max|v| max|dE|,
    and the rounding, about eps/h = 2e-11 of |v| |E|, holds where dE is
    small. With inverse=True the bound is for (d_v E) E^-1 and so for
    Gamma(v): times max|E^-1|."""
    E, dE = jet.matrix_jacobian_batch(coords)
    bound = 1e-8 * np.max(np.abs(v)) * (np.max(np.abs(dE)) + np.max(np.abs(E)))
    return bound * np.max(np.abs(np.linalg.inv(E))) if inverse else bound


@settings(max_examples=60, deadline=None)
@given(frame_data())
@example((3, np.eye(3)[[1, 2, 0]], np.array([0.3, 0.5, -0.2, 0.1]),
          np.linspace(-0.5, 0.5, 12).reshape(3, 4), np.arange(27.0).reshape(3, 3, 3) / 13.0 - 1.0))
def test_coordinate_christoffels_batch_matches_textbook_formula(data):
    n, q, angle, scale, gamma = data
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1.0, 1.0, (16, n))
    vel = rng.normal(size=(4, 4, n))
    jet, fd = _frames(n, q, angle, scale, rank=n)
    for frame in (jet, fd):
        conn = Connection(frame, constant_christoffels(gamma))
        got = conn.coordinate_christoffels_batch(coords)
        want = _textbook_christoffels(frame, gamma, coords)
        assert got.shape == (16, n, n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the transport coefficients contract the same symbols with a velocity
        A = _coefficient_grid(conn, coords.reshape(4, 4, n), vel)
        if frame is jet:
            A_want = -np.einsum("mgj,mgijk->mgik", vel, got.reshape(4, 4, n, n, n))
            assert np.max(np.abs(A - A_want)) <= (
                1e-13 * np.max(np.abs(vel)) * np.max(np.abs(got)))
            A_exact = A
        else:
            # one central difference along each velocity: the jet twin's
            # exact coefficients, to the finite-difference bound
            bound = _fd_bound(jet, coords, vel.reshape(16, n), inverse=True)
            assert np.max(np.abs(A - A_exact)) <= max(bound, _TINY)


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


def _along_cases(n, q, angle, scale, gamma, rank):
    """Connections on every path of coordinate_christoffels_along: flat and
    with constant symbols, in a jet frame, the same frame as a matrix
    function (central differences) and the coordinate frame, in that
    order, so cases[k + 2] is the matrix-function twin of cases[k]."""
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
    cases = _along_cases(n, q, angle, scale, gamma, rank=n)
    for k, conn in enumerate(cases):
        got = conn.coordinate_christoffels_along(coords, v)
        assert got.shape == (16, n, n)
        if k in (2, 3):
            # the matrix-function twin differentiates along v by one
            # central difference: the jet twin's exact symbols to the
            # finite-difference bound
            jet_conn = cases[k - 2]
            want = jet_conn.coordinate_christoffels_along(coords, v)
            bound = _fd_bound(jet_conn.frame, coords, v, inverse=True)
        else:
            full = conn.coordinate_christoffels_batch(coords)
            want = np.einsum("mj,mijk->mik", v, full)
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


def _two_fields(coords):
    """Components (m, n) at coords of two non-constant vector fields."""
    n = coords.shape[1]
    X = np.stack([1.0 + 0.3 * coords[:, n - 1]]
                 + [np.sin(coords[:, d - 1]) for d in range(1, n)], axis=1)
    return X, coords * coords[:, :1] - 0.5


@settings(max_examples=40, deadline=None)
@given(frame_data())
def test_torsion_is_the_antisymmetrized_textbook_contraction(data):
    # T(X, Y)^a = Gamma^a_{bc} (X^b Y^c - Y^b X^c) with the textbook symbols
    # of constant frame-relative ones, on jet and finite-difference frames
    n, q, angle, scale, gamma = data
    coords = np.random.default_rng(6).uniform(-1.0, 1.0, (16, n))
    xv, yv = _two_fields(coords)
    jet, fd = _frames(n, q, angle, scale, rank=n)
    got, exact = (torsion(Connection(frame, constant_christoffels(gamma)), xv, yv, coords)
                  for frame in (fd, jet))
    G = _textbook_christoffels(jet, gamma, coords)
    want = (np.einsum("mabc,mb,mc->ma", G, xv, yv)
            - np.einsum("mabc,mb,mc->ma", G, yv, xv))
    assert exact.shape == got.shape == (16, n)
    bound = 1e-12 * np.max(np.abs(G)) * np.max(np.abs(xv)) * np.max(np.abs(yv))
    assert np.max(np.abs(exact - want)) <= max(bound, _TINY)
    # the matrix-function twin differentiates along X and Y by central
    # differences: Gamma(X) Y - Gamma(Y) X to n times the bound of each term
    bound = n * _fd_bound(jet, coords, np.concatenate([xv, yv]), inverse=True) * max(
        np.max(np.abs(xv)), np.max(np.abs(yv)))
    assert np.max(np.abs(got - exact)) <= max(bound, _TINY)


@settings(max_examples=30, deadline=None)
@given(frame_data())
def test_frame_values_and_directional_derivatives_keep_the_jacobian_bits(data):
    # jet values are the plain operations' values: the plain value pass and
    # the directional pass give E bit for bit as the Jacobian pass does
    n, q, angle, scale, _ = data
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1.0, 1.0, (16, n))
    v = rng.normal(size=(16, n))
    jet, fd = _frames(n, q, angle, scale, rank=n)
    for frame in (jet, fd):
        E, dE = frame.matrix_jacobian_batch(coords)
        E_v, dvE = frame.matrix_derivative_batch(coords, v)
        assert np.array_equal(frame.matrix_batch(coords), E)
        assert np.array_equal(E_v, E)
        if frame is jet:
            want = np.einsum("makd,md->mak", dE, v)
            bound = 1e-13 * np.max(np.abs(v)) * np.max(np.abs(dE))
            exact = dvE
        else:
            # one central difference along v: the jet twin's exact d_v E
            want, bound = exact, _fd_bound(jet, coords, v)
        assert np.max(np.abs(dvE - want)) <= max(bound, _TINY)


def _matrix_function_frame(n, calls=None):
    """A random frame of ``_frames`` as a matrix function, recording the
    number of points of each call in `calls`."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, (n, n)))
    fd = _frames(n, q, rng.uniform(-2.0, 2.0, n + 1), rng.uniform(-0.5, 0.5, (n, n + 1)),
                 rank=n)[1]
    if calls is None:
        return fd
    return Frame(matrix_fn=lambda c: calls.append(len(c)) or fd.matrix_batch(c), dim=n)


@pytest.mark.parametrize("n", [2, 3])
def test_a_matrix_function_frame_is_differentiated_along_v_in_three_calls(n):
    # E(x) and E(x +- h v/|v|), where the full Jacobian takes 2n + 1 calls
    calls = []
    frame = _matrix_function_frame(n, calls)
    rng = np.random.default_rng(8)
    frame.matrix_derivative_batch(rng.uniform(-1.0, 1.0, (12, n)), rng.normal(size=(12, n)))
    assert calls == [12, 12, 12]
    calls.clear()
    frame.matrix_jacobian_batch(rng.uniform(-1.0, 1.0, (12, n)))
    assert calls == [12] * (2 * n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_a_matrix_function_frame_along_v_gives_its_values_bit_for_bit(n):
    # also at points laid out as the blend passes them, columns of a
    # transposed array
    frame = _matrix_function_frame(n)
    rng = np.random.default_rng(9)
    for coords in (rng.uniform(-1.0, 1.0, (12, n)),
                   np.ascontiguousarray(rng.uniform(-1.0, 1.0, (n, 12))).T):
        E, _ = frame.matrix_derivative_batch(coords, rng.normal(size=(12, n)))
        assert np.array_equal(E, frame.matrix_batch(coords))


@pytest.mark.parametrize("n", [2, 3])
def test_a_zero_vector_gives_a_zero_derivative_of_a_matrix_function_frame(n):
    frame = _matrix_function_frame(n)
    rng = np.random.default_rng(10)
    coords = rng.uniform(-1.0, 1.0, (12, n))
    v = rng.normal(size=(12, n))
    v[::3] = 0.0
    _, dvE = frame.matrix_derivative_batch(coords, v)
    assert np.array_equal(dvE[::3], np.zeros((4, n, n)))
    assert not np.any(np.signbit(dvE[::3]))
    # the other rows do not depend on the zero rows of their batch
    keep = np.arange(12) % 3 != 0
    assert np.array_equal(dvE[keep], frame.matrix_derivative_batch(coords[keep], v[keep])[1])


@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_directions_give_the_jacobian_columns_bit_for_bit(n):
    # so coordinate_christoffels_batch of an ODE-built frame keeps its bits
    frame = _matrix_function_frame(n)
    coords = np.random.default_rng(11).uniform(-1.0, 1.0, (12, n))
    _, dE = frame.matrix_jacobian_batch(coords)
    for d in range(n):
        e = np.zeros((12, n))
        e[:, d] = 1.0
        assert np.array_equal(frame.matrix_derivative_batch(coords, e)[1], dE[..., d])
        assert np.array_equal(frame.matrix_derivative_batch(coords, -2.5 * e)[1],
                              -2.5 * dE[..., d])


def test_compalg_passes_on_the_radial_parallelism_of_section5(s5_conn):
    # nabla P of an ODE-built parallel frame: three radial transports of the
    # sampled points, one at each point and two shifted along v
    region = ConvexChartRegion(np.zeros(2), Box((-2.0, -2.0), (2.0, 2.0)))
    par = parallelism_from_connection(s5_conn, region, step=1e-2)
    phi, seen = par.phi, []
    par.phi = lambda coords: seen.append(len(coords)) or phi(coords)
    F = one_form_norm_field(s5_conn.frame, _S5_NORM)
    rep = check_compalg_criterion(F, par, s5_conn)
    assert seen == [100, 100, 100]
    assert rep.passed, rep.max_abs_error


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
    got = nabla_P(conn, frame_parallelism(parallel), coords, vectors)
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
    one = nabla_P(conn, frame_parallelism(parallel), coords[2:3], vectors[2:3])
    assert np.array_equal(one, got[2:3])


def test_batched_nabla_p_refuses_a_rank_deficient_parallel_frame(s5_conn):
    frame = _frames(2, np.eye(2), np.zeros(3), np.zeros((2, 3)), rank=1)[0]
    coords = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1]])
    with pytest.raises(SingularFrameError, match="singular frame in Christoffel transform"):
        nabla_P(s5_conn, frame_parallelism(frame), coords, np.ones((3, 2)))
    F = one_form_norm_field(s5_conn.frame, _S5_NORM)
    with pytest.raises(SingularFrameError, match="singular frame in Christoffel transform"):
        check_compalg_criterion(F, frame_parallelism(frame), s5_conn)


def _exactly_zero(endo):
    # array_equal counts -0 as 0, so the sign bits are read too
    return np.array_equal(endo, np.zeros_like(endo)) and not np.any(np.signbit(endo))


@settings(max_examples=40, deadline=None)
@given(frame_data())
def test_nabla_p_of_a_frame_against_its_own_flat_connection_is_exactly_zero(data):
    # Gamma(v) - Gamma_P(v) subtracts the same bits: +0, jets and FD alike
    n, q, angle, scale, _ = data
    rng = np.random.default_rng(5)
    coords = rng.uniform(-1.0, 1.0, (8, n))
    vectors = rng.normal(size=(8, n))
    for frame in _frames(n, q, angle, scale, rank=n):
        endo = nabla_P(Connection.flat(frame), frame_parallelism(frame), coords, vectors)
        assert endo.shape == (8, n, n) and _exactly_zero(endo)


def test_nabla_p_of_a_radial_parallelism_against_its_own_flat_connection_is_exactly_zero(s5_conn):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0], gamma[1, 0, 1] = 1.0, 0.3
    bent = Connection(s5_conn.frame, constant_christoffels(gamma))
    region = ConvexChartRegion(np.zeros(2), Box((-2.0, -2.0), (2.0, 2.0)))
    par = parallelism_from_connection(bent, region, step=1e-2)
    rng = np.random.default_rng(8)
    coords = region.box.sample(rng, 10, margin=0.05)
    endo = nabla_P(Connection.flat(par.parallel_frame()), par, coords, rng.normal(size=(10, 2)))
    assert _exactly_zero(endo)


def test_compalg_takes_two_christoffel_calls_and_one_frame_derivative(s5_conn, monkeypatch):
    # nabla P is Gamma(v) - Gamma_P(v), one transform per connection; the
    # connection is written in the coordinate frame, so its Gamma(v) takes
    # no frame derivative: the one derivative call is the parallel (jet)
    # frame's, seeded along v; no tensor, no full Jacobian
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    conn = from_coordinate_christoffels(constant_christoffels(gamma), 2, DOM)
    F = one_form_norm_field(s5_conn.frame, _S5_NORM)
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
    rep = check_compalg_criterion(F, frame_parallelism(s5_conn.frame), conn)
    assert calls == {"coordinate_christoffels_along": 2, "coordinate_christoffels_batch": 0,
                     "matrix_derivative_batch": 1, "matrix_jacobian_batch": 0}
    assert rep.samples == 100 and not rep.passed


def test_compalg_reads_the_jet_gradient_of_a_bare_field_evaluator(s5_conn):
    # a NormField is its evaluator alone: one built on the one-form field's
    # evaluator has its gradient bit for bit, and compalg passes on it
    exact = one_form_norm_field(s5_conn.frame, _S5_NORM)
    plain = NormField(2, lambda x, w: exact.evaluator(x, w))
    rng = np.random.default_rng(6)
    coords = rng.uniform(-4.0, 4.0, (5, 7, 2))
    vectors = rng.normal(size=(5, 7, 2))
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    got = plain.gradient(coords, vectors)
    want = exact.gradient(coords, vectors)
    assert got.shape == (5, 7, 2)
    assert np.array_equal(got, want)
    par = frame_parallelism(s5_conn.frame)
    rep = check_compalg_criterion(plain, par, s5_conn)
    assert rep.passed and rep.max_abs_error <= 1e-12
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    bent = Connection(s5_conn.frame, constant_christoffels(gamma))
    want = check_compalg_criterion(exact, par, bent).max_abs_error
    got = check_compalg_criterion(plain, par, bent).max_abs_error
    assert want > 1e-3 and got == pytest.approx(want, rel=1e-7)
