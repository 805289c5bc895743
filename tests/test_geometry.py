"""Fields, brackets, frames, coframes and curves."""

import numpy as np
import pytest

from holopar.errors import DomainError, RegularityError
from holopar.geometry import (Box, ChartPoint, Curve, Frame, VectorField, constant_field,
                              coordinate_frame, dual_coframe, jet_eval,
                              lie_bracket, point, segment)
from holopar.jets import jsin

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


def test_bracket_numeric_path_cross_check():
    # same fields once through jets, once through the finite-difference path
    Xg = _poly_fields(2, 30)
    Yg = _poly_fields(2, 31)
    Xn = VectorField(2, values_fn=lambda c: Xg.values_batch(c))
    Yn = VectorField(2, values_fn=lambda c: Yg.values_batch(c))
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2.0, 2.0, (20, 2))
    exact = lie_bracket(Xg, Yg).values_batch(pts)
    approx = lie_bracket(Xn, Yn).values_batch(pts)
    assert np.max(np.abs(exact - approx)) <= 1e-6


# ------------------------------------------------------------------ coframes

def test_dual_coframe_of_slanted_frame():
    from holopar.fixtures import section5_frame
    frame = section5_frame(DOM2)
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


def test_matrix_frame_builds_its_fields_once():
    frame = Frame(matrix_fn=lambda coords: np.broadcast_to(np.eye(2), (len(coords), 2, 2)),
                  domain=DOM2, dim=2)
    assert frame.fields is frame.fields
    assert np.array_equal(frame.fields[1].values_batch(np.zeros((1, 2))), [[0.0, 1.0]])


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


def test_box_sampling_stays_inside():
    rng = np.random.default_rng(8)
    pts = DOM3.sample(rng, 200, margin=0.05)
    assert np.all(DOM3.contains_batch(pts))
    assert not DOM3.contains((5.1, 0.0, 0.0))
