"""Frames, their inverses and curves."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopar import exprs, jets
from holopar.connections import Connection
from holopar.errors import DomainError, RegularityError, SingularFrameError
from holopar.exprs import parse_exprs
from holopar.fixtures import COORD_NAMES, SPECS, build_frame
from holopar.geometry import (FD_STEP, Box, Curve, Frame, check_curves, coordinate_frame,
                              curve_positions_velocities, invert_frames, segment)
from holopar.jets import as_jet, seed_jets
from holopar.norms import euclidean_norm, one_form_norm_field
from holopar.parallelism import frame_parallelism
from holopar.verification import berwald_obstruction

DOM2 = Box((-5.0, -5.0), (5.0, 5.0))
DOM3 = Box((-5.0,) * 3, (5.0,) * 3)


# ------------------------------------------------------------------ jet evaluation

def _jet_eval(components, p):
    """Components and Jacobian (jacobian[i][j] = d_j X^i) at p of a vector
    field given by its components on scalars or jets, from the jet pass of
    a frame whose first column it is (the second is d/dy)."""
    frame = Frame(entries=lambda xs: [c for row in zip(components(xs), (0.0, 1.0)) for c in row],
                  dim=2, domain=DOM2)
    E, dE = frame.matrix_jacobian_batch(p[None, :])
    return E[0, :, 0], dE[0, :, 0]


def test_jet_eval_constant_field():
    vals, jac = _jet_eval(lambda xs: (1.0, 0.0), np.array([0.4, -2.1]))
    assert np.array_equal(vals, [1.0, 0.0])
    assert np.array_equal(jac, np.zeros((2, 2)))


def test_jet_eval_linear_frame_field():
    vals, jac = _jet_eval(lambda xs: (xs[0], 1.0), np.array([2.0, 5.0]))
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(jac, [[1.0, 0.0], [0.0, 0.0]])


def test_jet_eval_linear_map_jacobian_is_matrix():
    A = np.array([[1.0, 2.0], [-3.0, 0.5]])
    for p in (np.array([0.0, 0.0]), np.array([1.5, -2.0])):
        _, jac = _jet_eval(lambda xs: (1.0 * xs[0] + 2.0 * xs[1], -3.0 * xs[0] + 0.5 * xs[1]), p)
        assert np.allclose(jac, A, atol=1e-14)


# ------------------------------------------------------------------ coframes

def _poly_frame(n, seed):
    """A jet frame whose n*n entries are random quadratic polynomials."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(-1.0, 1.0, (n * n, n, n))
    L = rng.uniform(-1.0, 1.0, (n * n, n))
    c0 = rng.uniform(-1.0, 1.0, n * n)

    def entries(xs):
        return [c0[i]
                + sum(L[i][j] * xs[j] for j in range(n))
                + sum(C[i][j][k] * xs[j] * xs[k] for j in range(n) for k in range(n))
                for i in range(n * n)]

    return Frame(entries=entries, dim=n, domain=DOM3 if n == 3 else DOM2)


def test_dual_coframe_of_slanted_frame():
    frame = build_frame(SPECS["section5"]["manifold"]["frame"], DOM2)
    C = invert_frames(frame.matrix(np.array([3.0, -1.0])), "test frame")
    # rows are dy and -dx + x dy
    assert np.allclose(C, [[0.0, 1.0], [-1.0, 3.0]], atol=1e-14)


def test_dual_coframe_of_coordinate_frame_is_identity():
    C = invert_frames(coordinate_frame(2, DOM2).matrix(np.array([0.1, 0.2])), "test frame")
    assert np.allclose(C, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_frame_matrix_is_its_fields_jet_values_bit_for_bit(n):
    # the coordinate frame takes the plain pass that the same entries take
    # in a frame not marked coordinate, into an array that owns its data
    ident = Frame(entries=lambda xs: [1.0 if a == k else 0.0 for a in range(n) for k in range(n)],
                  dim=n)
    coords = np.random.default_rng(n).uniform(-1.0, 1.0, (7, n))
    got = coordinate_frame(n).matrix_batch(coords)
    assert np.array_equal(got, ident.matrix_batch(coords))
    assert got.flags.writeable and got.flags.owndata


def test_scaled_frame_gives_inverse_scaled_coframe():
    scaled = Frame(entries=lambda xs: [2.0, 0.0, 0.0, 2.0], dim=2, domain=DOM2)
    C = invert_frames(scaled.matrix(np.array([1.0, 1.0])), "test frame")
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
    E = np.eye(n)
    E[:, n - 1] = 2.0 * E[:, 0]
    return Frame(entries=lambda xs: [(1.0 + xs[0] * xs[0]) * float(e) for e in E.ravel()],
                 dim=n, domain=dom)


@pytest.mark.parametrize("n", [2, 3])
def test_rank_deficient_frame_is_refused_on_every_inversion_path(n):
    frame = _rank_deficient_frame(n)
    coords = np.random.default_rng(3).uniform(-1.0, 1.0, (4, n))
    calls = {
        "frame in Christoffel transform":
            lambda: Connection.flat(frame).coordinate_christoffels_batch(coords),
        "frame in one_form_norm_field":
            lambda: one_form_norm_field(frame, euclidean_norm(n))(coords, coords),
        "trivialization matrix": lambda: frame_parallelism(frame).transfer(coords[0], coords),
    }
    for what, call in calls.items():
        with pytest.raises(SingularFrameError, match=f"singular {what}"):
            call()


@pytest.mark.parametrize("n", [2, 3])
def test_a_nan_frame_is_singular_without_a_warning(n):
    E = np.eye(n)[None].copy()
    E[0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrameError, match="^singular frame$"):
            invert_frames(E, "frame")


@pytest.mark.parametrize("n", [2, 3])
def test_coframe_duality_identity(n):
    frame = _poly_frame(n, 40)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.4, 0.4, (25, n))
    E = frame.matrix_batch(pts)
    C = invert_frames(E, "test frame")
    dev = np.max(np.abs(C @ E - np.eye(n)))
    assert dev <= 1e-12


def test_a_matrix_function_frame_has_the_torsion_of_its_jet_frame():
    # torsion reads a frame's fields as its matrix columns, so a frame given
    # by a matrix function (central differences) has torsion samples too
    jet = build_frame(SPECS["section5"]["manifold"]["frame"], DOM2)
    fd = Frame(matrix_fn=jet.matrix_batch, domain=DOM2, dim=2)
    want = berwald_obstruction(Connection.flat(jet), DOM2)
    assert want == pytest.approx(1.0, abs=1e-12)
    assert berwald_obstruction(Connection.flat(fd), DOM2) == pytest.approx(want,
                                                                                   abs=1e-8)


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


# ------------------------------------------------------------------ one jet pass per frame

FRAME_SPECS = {
    "rotated_member": SPECS["rotated_blend"]["manifold"]["cover"][1]["frame"],
    "sheared": [["2+x", "0.7"], ["0.3*y", "1.5+sin(x)"]],
    "three_d": [["cos(0.3*z)", "sin(0.3*z)", "x*y"],
                ["-sin(0.3*z)", "cos(0.3*z)", "smooth_step(y)"],
                ["exp(0.1*x)", "0", "1+z^2"]],
    # a jet over a jet, a float over a jet and a jet over a float
    "quotient": [["x/(2+y)", "3/(4+x*x)"], ["(1+y)/3", "2+sin(x)/(2+cos(y))"]],
}


def _per_field_pass(spec, coords, directions):
    """E and its partials from one jet pass per field, each field's
    column parsed on its own: the reference for the shared pass."""
    m, n = coords.shape
    k = n if directions is None else len(directions)
    E, parts = np.empty((m, n, n)), np.empty((m, n, n, k))
    xs = seed_jets(tuple(coords[:, d] for d in range(n)), directions)
    for j, col in enumerate(spec):
        for a, c in enumerate(parse_exprs(col, COORD_NAMES[:n])(*xs)):
            c = as_jet(c, k)
            E[:, a, j] = c.value
            for d, p in enumerate(c.partials):
                parts[:, a, j, d] = p
    return E, parts


@pytest.mark.parametrize("name", sorted(FRAME_SPECS))
def test_one_frame_pass_is_the_per_field_passes_bit_for_bit(name):
    spec = FRAME_SPECS[name]
    n = len(spec)
    rng = np.random.default_rng(len(name))
    coords, v = rng.uniform(-3.0, 3.0, (2, 400, n))
    frame = build_frame(spec, None)
    E, dE = _per_field_pass(spec, coords, None)
    got = frame.matrix_jacobian_batch(coords)
    assert np.array_equal(got[0], E) and np.array_equal(got[1], dE)
    # the plain value pass has the E of both derivative passes
    assert np.array_equal(frame.matrix_batch(coords), E)
    E, dvE = _per_field_pass(spec, coords, (np.ascontiguousarray(v.T),))
    got = frame.matrix_derivative_batch(coords, v)
    assert np.array_equal(got[0], E) and np.array_equal(got[1], dvE[..., 0])


class _CountingNumpy:
    """numpy, with the calls of sin and cos recorded."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("sin", "cos"):
            return fn
        return lambda *a, **k: self.calls.append(name) or fn(*a, **k)


def test_a_whole_frame_pass_of_the_rotated_member_evaluates_its_angle_once(monkeypatch):
    calls = []
    step = exprs._CALLS["smooth_step"]
    monkeypatch.setitem(exprs._CALLS, "smooth_step",
                        lambda t: calls.append("smooth_step") or step(t))
    monkeypatch.setattr(jets, "np", _CountingNumpy(calls))
    frame = build_frame(FRAME_SPECS["rotated_member"], None)
    coords, v = np.random.default_rng(3).uniform(-3.0, 3.0, (2, 50, 2))
    for run in (lambda: frame.matrix_batch(coords), lambda: frame.matrix_jacobian_batch(coords),
                lambda: frame.matrix_derivative_batch(coords, v)):
        calls.clear()
        run()
        assert sorted(calls) == ["cos", "sin", "smooth_step"]


# ------------------------------------------------------------------ curves

def test_segment_positions_and_velocity():
    c = segment((0.0, 0.0), (2.0, -4.0), domain=DOM2)
    pos, vel = c.positions_velocities(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(pos, [[0, 0], [1, -2], [2, -4]])
    assert np.allclose(vel, [[2, -4]] * 3)


def test_curves_sharing_a_no_arg_fn_are_one_family_of_their_count():
    def f(t):
        return [t, 0.5 * t * t]

    def g(t):
        return [1.0 - t, t]

    pos, vel = curve_positions_velocities([Curve(f), Curve(f), Curve(g)],
                                          np.linspace(0.0, 1.0, 5))
    assert pos.shape == vel.shape == (3, 5, 2)
    assert np.array_equal(pos[0], pos[1]) and np.array_equal(vel[0], vel[1])
    assert np.array_equal(pos[2, :, 0], 1.0 - np.linspace(0.0, 1.0, 5))


def test_check_curves_tests_each_domain_once_with_the_per_curve_verdicts(monkeypatch):
    inner = Box((-1.0, -1.0), (1.0, 1.0))
    curves = [segment((0.0, 0.0), (0.5, 0.5), domain=inner),
              segment((0.0, 0.0), (3.0, 0.0), domain=inner),
              segment((0.0, 0.0), (3.0, 0.0), domain=DOM2),
              segment((0.0, 0.0), (9.0, 0.0), domain=DOM2),
              segment((0.0, 0.0), (9.0, 0.0)),
              segment((0.0, 0.0), (0.0, -0.9), domain=Box((-1.0, -1.0), (1.0, 1.0)))]
    calls = []
    contains = Box.contains
    monkeypatch.setattr(Box, "contains",
                        lambda self, c: calls.append(self) or contains(self, c))
    inside, regular = check_curves(curves)
    assert inside.tolist() == [True, False, True, False, True, True] and regular.all()
    # boxes are compared by value: the last curve's box is the first one's
    assert sorted(map(str, calls)) == sorted(map(str, [inner, DOM2]))


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
    assert np.all(DOM3.contains(pts))
    assert not DOM3.contains((5.1, 0.0, 0.0))
    assert isinstance(DOM3.contains((0.0, 0.0, 0.0)), np.bool_)


@pytest.mark.parametrize("box", [Box((-np.inf, -np.inf), (np.inf, np.inf)),
                                 Box((-1.0, -np.inf), (1.0, 2.0))],
                         ids=["infinite", "half_infinite"])
def test_infinite_box_refuses_to_shrink_or_sample(box):
    for call in (lambda: box.shrink(0.05), lambda: box.sample(np.random.default_rng(0), 3)):
        with pytest.raises(DomainError, match="infinite bound") as info:
            call()
        assert repr(box) in str(info.value)
