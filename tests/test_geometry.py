"""Fields, brackets, frames, coframes and curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopar.connections import Connection, christoffels_in_frame
from holopar.errors import DomainError, PreconditionError, RegularityError, SingularFrameError
from holopar.geometry import (FD_STEP, Box, ChartPoint, Curve, Frame, VectorField,
                              constant_field, coordinate_frame, dual_coframe, invert_frames,
                              jet_eval, lie_bracket, point, segment)
from holopar.parallelism import frame_parallelism
from holopar.jets import jsin
from holopar.verification import berwald_obstruction

DOM2 = Box((-5.0, -5.0), (5.0, 5.0))
DOM3 = Box((-5.0,) * 3, (5.0,) * 3)


def e1_field(domain=DOM2):
    return VectorField(2, components=lambda xs: (xs[0], 1.0), domain=domain)


def e2_field(domain=DOM2):
    return VectorField(2, components=lambda xs: (-1.0, 0.0), domain=domain)


# ------------------------------------------------------------------ jet_eval

def test_jet_eval_constant_field():
    vals, jac = jet_eval(constant_field((1.0, 0.0), DOM2), point(0.4, -2.1))
    assert np.array_equal(vals, [1.0, 0.0])
    assert np.array_equal(jac, np.zeros((2, 2)))


def test_jet_eval_linear_frame_field():
    vals, jac = jet_eval(e1_field(Box((-6.0, -6.0), (6.0, 6.0))), point(2.0, 5.0))
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(jac, [[1.0, 0.0], [0.0, 0.0]])


def test_jet_eval_linear_map_jacobian_is_matrix():
    A = np.array([[1.0, 2.0], [-3.0, 0.5]])
    X = VectorField(2, components=lambda xs: (1.0 * xs[0] + 2.0 * xs[1],
                                              -3.0 * xs[0] + 0.5 * xs[1]),
                    domain=DOM2)
    for p in (point(0.0, 0.0), point(1.5, -2.0)):
        _, jac = jet_eval(X, p)
        assert np.allclose(jac, A, atol=1e-14)


def test_jet_eval_outside_domain():
    with pytest.raises(DomainError):
        jet_eval(e1_field(), point(7.0, 0.0))


# ------------------------------------------------------------------ brackets

def test_bracket_of_frame_fields_is_d_dx():
    b = lie_bracket(e1_field(), e2_field())
    for p in (point(0.0, 0.0), point(2.3, -1.1)):
        assert np.allclose(b.at(p).components, [1.0, 0.0], atol=1e-14)


def test_bracket_with_itself_vanishes():
    X = VectorField(2, components=lambda xs: (xs[0] * xs[1], jsin(xs[0])), domain=DOM2)
    b = lie_bracket(X, X)
    assert np.allclose(b.at(point(1.2, 0.7)).components, 0.0, atol=1e-14)


def test_coordinate_fields_commute():
    dx = constant_field((1.0, 0.0), DOM2)
    dy = constant_field((0.0, 1.0), DOM2)
    b = lie_bracket(dx, dy)
    assert np.allclose(b.at(point(0.3, 0.4)).components, 0.0)


def _poly_fields(n, seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(-1.0, 1.0, (n, n, n))
    L = rng.uniform(-1.0, 1.0, (n, n))
    c0 = rng.uniform(-1.0, 1.0, n)

    def comps(xs, C=C, L=L, c0=c0):
        return [c0[i]
                + sum(L[i][j] * xs[j] for j in range(n))
                + sum(C[i][j][k] * xs[j] * xs[k] for j in range(n) for k in range(n))
                for i in range(n)]

    return VectorField(n, components=comps)


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_bilinear_and_antisymmetric(n):
    X = _poly_fields(n, 10)
    Y = _poly_fields(n, 11)
    Z = _poly_fields(n, 12)
    a, b = 0.7, -1.3
    aXbY = VectorField(n, components=lambda xs: [a * u + b * v
                                                 for u, v in zip(X(xs), Y(xs))])
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, (20, n))
    left = lie_bracket(aXbY, Z).values_batch(pts)
    right = (a * lie_bracket(X, Z).values_batch(pts)
             + b * lie_bracket(Y, Z).values_batch(pts))
    assert np.max(np.abs(left - right)) <= 1e-12
    anti = (lie_bracket(X, Y).values_batch(pts)
            + lie_bracket(Y, X).values_batch(pts))
    assert np.max(np.abs(anti)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_identity(n):
    X = _poly_fields(n, 20)
    Y = _poly_fields(n, 21)
    Z = _poly_fields(n, 22)
    total = None
    for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
        term = lie_bracket(A, lie_bracket(B, C))
        total = term if total is None else lie_bracket_sum(total, term)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (20, n))
    assert np.max(np.abs(total.values_batch(pts))) <= 1e-9


def lie_bracket_sum(X, Y):
    n = X.dim
    return VectorField(n, components=lambda xs: [u + v for u, v in zip(X(xs), Y(xs))])


# ------------------------------------------------------------------ coframes

def test_dual_coframe_of_slanted_frame():
    from holopar.fixtures import SPECS, build_frame
    frame = build_frame(SPECS["section5"]["manifold"]["frame"], DOM2)
    C = dual_coframe(frame).matrix(point(3.0, -1.0))
    # rows are dy and -dx + x dy
    assert np.allclose(C, [[0.0, 1.0], [-1.0, 3.0]], atol=1e-14)


def test_dual_coframe_of_coordinate_frame_is_identity():
    C = dual_coframe(coordinate_frame(2, DOM2)).matrix(point(0.1, 0.2))
    assert np.allclose(C, np.eye(2))


def test_scaled_frame_gives_inverse_scaled_coframe():
    fr = coordinate_frame(2, DOM2)
    scaled = type(fr)(fields=[VectorField(2, components=lambda xs, f=f: [2.0 * c for c in f(xs)])
                              for f in fr.fields], domain=DOM2)
    C = dual_coframe(scaled).matrix(point(1.0, 1.0))
    assert np.allclose(C, 0.5 * np.eye(2))


@st.composite
def conditioned_frames(draw):
    """A batch O diag(s) U of n x n frames, O and U orthogonal, s in [0.5, 2]."""
    n = draw(st.sampled_from([2, 3]))
    unit = st.floats(-1.0, 1.0)
    o, _ = np.linalg.qr(draw(arrays(float, (4, n, n), elements=unit)) + 2.0 * np.eye(n))
    u, _ = np.linalg.qr(draw(arrays(float, (4, n, n), elements=unit)) - 2.0 * np.eye(n))
    s = draw(arrays(float, (4, n), elements=st.floats(0.5, 2.0)))
    return o @ (s[:, :, None] * u)


@settings(max_examples=60, deadline=None)
@given(conditioned_frames())
def test_invert_frames_matches_numpy(E):
    want = np.linalg.inv(E)
    got = invert_frames(E, "test frame")
    assert got.shape == E.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _rank_deficient_frame(n):
    """Jet frame whose last field is twice the first: det E = 0 everywhere."""
    dom = Box((-2.0,) * n, (2.0,) * n)
    cols = [np.eye(n)[k] for k in range(n - 1)] + [2.0 * np.eye(n)[0]]
    fields = [VectorField(n, components=lambda xs, c=c: [(1.0 + xs[0] * xs[0]) * float(ci)
                                                         for ci in c], domain=dom)
              for c in cols]
    return Frame(fields=fields, domain=dom)


@pytest.mark.parametrize("n", [2, 3])
def test_rank_deficient_frame_is_refused_on_every_inversion_path(n):
    frame = _rank_deficient_frame(n)
    coords = np.random.default_rng(3).uniform(-1.0, 1.0, (4, n))
    calls = {
        "frame in Christoffel transform":
            lambda: Connection.flat(frame).coordinate_christoffels_batch(coords),
        "target frame":
            lambda: christoffels_in_frame(Connection.flat(coordinate_frame(n)), frame,
                                          ChartPoint(coords[0])),
        "frame matrix in dual_coframe": lambda: dual_coframe(frame).matrix_batch(coords),
        "trivialization matrix": lambda: frame_parallelism(frame).transfer(coords[0], coords),
    }
    for what, call in calls.items():
        with pytest.raises(SingularFrameError, match=f"singular {what}"):
            call()


@pytest.mark.parametrize("n", [2, 3])
def test_coframe_duality_identity(n):
    fields = [_poly_fields(n, 40 + k) for k in range(n)]
    from holopar.geometry import Frame
    frame = Frame(fields=fields, domain=DOM3 if n == 3 else DOM2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.4, 0.4, (25, n))
    E = frame.matrix_batch(pts)
    C = dual_coframe(frame).matrix_batch(pts)
    dev = np.max(np.abs(C @ E - np.eye(n)))
    assert dev <= 1e-12


def test_a_matrix_function_frame_has_no_fields():
    frame = Frame(matrix_fn=lambda coords: np.broadcast_to(np.eye(2), (len(coords), 2, 2)),
                  domain=DOM2, dim=2)
    with pytest.raises(PreconditionError, match="matrix function"):
        frame.fields
    with pytest.raises(PreconditionError, match="matrix function"):
        berwald_obstruction(Connection.flat(frame), DOM2, samples=3)


def _rotation_field(coords):
    """A matrix function (m, n) -> (m, n, n): a rotation in the first two
    axes by x0 * x1, scaled by 1 + x_{n-1}^2."""
    n = coords.shape[1]
    th = coords[:, 0] * coords[:, 1]
    E = np.broadcast_to(np.eye(n), (len(coords), n, n)).copy()
    E[:, 0, 0], E[:, 0, 1] = np.cos(th), -np.sin(th)
    E[:, 1, 0], E[:, 1, 1] = np.sin(th), np.cos(th)
    return E * (1.0 + coords[:, -1:, None] ** 2)


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_frame_jacobian_is_the_per_coordinate_loop_bit_for_bit(n):
    coords = np.random.default_rng(n).uniform(-1.0, 1.0, (9, n))
    want = np.empty((9, n, n, n))
    for d in range(n):
        e = np.zeros(n)
        e[d] = FD_STEP
        want[..., d] = (_rotation_field(coords + e) - _rotation_field(coords - e)) / (2 * FD_STEP)
    E, dE = Frame(matrix_fn=_rotation_field, dim=n).matrix_jacobian_batch(coords)
    assert np.array_equal(E, _rotation_field(coords))
    assert np.array_equal(dE, want)
    # derivative-major: the rows (d, a) reshape without a copy
    assert dE.transpose(0, 3, 1, 2).flags.c_contiguous


# ------------------------------------------------------------------ curves

def test_segment_positions_and_velocity():
    c = segment((0.0, 0.0), (2.0, -4.0), domain=DOM2)
    pos, vel = c.positions_velocities(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(pos, [[0, 0], [1, -2], [2, -4]])
    assert np.allclose(vel, [[2, -4]] * 3)


def test_curve_validation_rejects_domain_escape():
    c = segment((0.0, 0.0), (9.0, 0.0), domain=DOM2)
    with pytest.raises(DomainError):
        c.validate()


def test_curve_validation_rejects_stationary_curve():
    c = Curve(lambda t: [0.0 + 0.0 * t, 1.0 + 0.0 * t], domain=DOM2)
    with pytest.raises(RegularityError):
        c.validate()


@pytest.mark.parametrize("lo, hi", [((0.0, np.nan), (1.0, 1.0)), ((0.0, 0.0), (np.nan, 1.0)),
                                    ((0.0, 1.0), (1.0, 1.0))], ids=["nan_lo", "nan_hi", "empty"])
def test_box_refuses_a_nan_or_empty_side(lo, hi):
    with pytest.raises(ValueError, match="empty box"):
        Box(lo, hi)


def test_box_sampling_stays_inside():
    rng = np.random.default_rng(8)
    pts = DOM3.sample(rng, 200, margin=0.05)
    assert np.all(DOM3.contains_batch(pts))
    assert not DOM3.contains((5.1, 0.0, 0.0))


@pytest.mark.parametrize("box", [Box((-np.inf, -np.inf), (np.inf, np.inf)),
                                 Box((-1.0, -np.inf), (1.0, 2.0))],
                         ids=["infinite", "half_infinite"])
def test_infinite_box_refuses_to_shrink_or_sample(box):
    for call in (lambda: box.shrink(0.05), lambda: box.sample(np.random.default_rng(0), 3)):
        with pytest.raises(DomainError, match="infinite bound") as info:
            call()
        assert repr(box) in str(info.value)
