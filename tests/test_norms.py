"""Randers norms, isometry tests, the 2x2 group oracle and Lie-algebra
membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.optimize import brentq

from holopar.errors import DefinitenessError, PreconditionError
from holopar.fixtures import SPECS, build_frame, build_norm
from holopar.geometry import Box, Frame, central_differences
from holopar.jets import jsqrt
from holopar.norms import (ORACLE_ANGLES, ContinuousFamily, MinkowskiNorm, NormField,
                           RandersData, _quadratic_form, euclidean_norm, is_isometry,
                           isometry_algebra, isometry_group_2x2, lie_algebra_member,
                           one_form_norm_field, randers_norm, unit_sphere)
from holopar.parallelism import frame_parallelism, pushdown_norm

S5 = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))


def rot(th):
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


# ------------------------------------------------------------------ randers

def test_randers_values():
    assert float(S5(np.array([1.0, 0.0]))) == pytest.approx(1.0)
    assert float(S5(np.array([0.0, 1.0]))) == pytest.approx(np.sqrt(12.0))
    assert float(S5(np.zeros(2))) == 0.0


def test_randers_positive_homogeneity():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(50, 2))
    lam = 3.7
    assert np.max(np.abs(S5(lam * v) - lam * S5(v))) <= 1e-12 * lam * np.max(np.abs(S5(v)))


def test_randers_rejects_indefinite_data():
    with pytest.raises(DefinitenessError):
        RandersData(np.diag([1.0, 1.0]), np.array([1.5, 0.0]))
    with pytest.raises(DefinitenessError):
        RandersData(np.array([[1.0, 0.4], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(DefinitenessError):
        RandersData(np.diag([1.0, -1.0]), np.zeros(2))


def test_randers_gradient_matches_finite_differences():
    u = unit_sphere(2, 100)
    h = 1e-6
    g = S5.gradient(u)
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (S5(u + e) - S5(u - e)) / (2 * h)
        rel = np.abs(g[:, d] - fd) / np.maximum(np.abs(fd), 1.0)
        assert np.max(rel) <= 1e-6


class _EinsumRanders:
    """The Randers norm with its quadratic form taken by einsum and its
    gradient written out as (Q v) / alpha + beta: the reference for the
    explicit multiply-adds and the jet gradient. It has what the isometry
    functions read of a norm: dim, values and gradient."""

    def __init__(self, Q, beta):
        self.Q, self.beta, self.dim = Q, beta, len(Q)

    def alpha(self, v):
        return np.sqrt(np.einsum("...i,ij,...j->...", v, self.Q, v))

    def __call__(self, v):
        return self.alpha(v) + v @ self.beta

    def gradient(self, v):
        return (v @ self.Q) / self.alpha(v)[..., None] + self.beta

    def gradient_scale(self, v):
        """The gradient with every term's magnitude added: its rounding
        is a few ulps of this."""
        return (np.abs(v) @ np.abs(self.Q)) / self.alpha(v)[..., None] + np.abs(self.beta)


def _within_ulps(got, want, scale, ulps=8):
    return np.all(np.abs(got - want) <= ulps * np.spacing(scale))


class _CentralDifferenceNorm(MinkowskiNorm):
    """A norm whose gradient is central differences of its values."""

    def gradient(self, v):
        return central_differences(self, v)


def _random_randers(rng, n, zero_beta=False):
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.3 * np.eye(n)
    if zero_beta:
        return Q, np.zeros(n)
    beta = rng.normal(size=n)
    beta *= rng.uniform(0.0, 0.95) / np.sqrt(beta @ np.linalg.solve(Q, beta))
    return Q, beta


# a single 2-vector is left out: einsum sums its form row by row,
# (v0 Q00 v0 + v0 Q01 v1) + (v1 Q10 v0 + v1 Q11 v1), see the next test;
# the jet gradient rounds its own way, within 4 ulps of the gradient's
# term magnitudes on these draws
@pytest.mark.parametrize("n, batch", [(3, ()), (2, (5,)), (3, (5,)), (2, (3, 4, 7)),
                                      (3, (3, 4, 7)), (2, (1024, 128))])
def test_randers_form_equals_einsum_bit_for_bit(n, batch):
    rng = np.random.default_rng(7 * n + len(batch))
    for _ in range(30):
        Q, beta = _random_randers(rng, n)
        got, want = randers_norm(RandersData(Q, beta)), _EinsumRanders(Q, beta)
        v = rng.normal(size=batch + (n,)) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(got(v), want(v))
        assert _within_ulps(got.gradient(v), want.gradient(v), want.gradient_scale(v))


def test_single_vector_randers_form_agrees_with_einsum_to_rounding():
    rng = np.random.default_rng(11)
    for _ in range(200):
        Q, beta = _random_randers(rng, 2)
        v = rng.normal(size=2)
        want = np.einsum("...i,ij,...j->...", v, Q, v)
        bound = 4 * np.spacing(np.abs(v) @ np.abs(Q) @ np.abs(v))
        assert abs(_quadratic_form(v, Q) - want) <= bound
        # with Q diagonal the cross terms are exact zeros and every order agrees
        D = np.diag(np.diag(Q))
        assert randers_norm(RandersData(D, 0.1 * beta))(v) == _EinsumRanders(D, 0.1 * beta)(v)


def test_check_definite_rejects_signed_function():
    bad = MinkowskiNorm(2, lambda v: v[..., 0])
    with pytest.raises(DefinitenessError):
        bad.check_definite()


# ------------------------------------------------------------------ is_isometry

def test_identity_is_isometry():
    ok, dev = is_isometry(S5, np.eye(2))
    assert ok and dev <= 1e-15


def test_reflection_preserves_section5_norm():
    ok, _ = is_isometry(S5, np.diag([1.0, -1.0]))
    assert ok


def test_quarter_rotation_is_not_isometry():
    ok, dev = is_isometry(S5, rot(np.pi / 2))
    # f(rot(1,0)) = f(0,1) = sqrt(12) while f(1,0) = 1
    assert not ok and dev >= np.sqrt(12.0) - 1.0 - 1e-9


def test_singular_matrix_is_rejected_automatically():
    ok, _ = is_isometry(euclidean_norm(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert not ok


# ------------------------------------------------------------------ group oracle

def test_group_of_section5_norm_has_two_elements():
    group = isometry_group_2x2(S5)
    assert not isinstance(group, ContinuousFamily)
    assert len(group) == 2
    got = sorted(group, key=lambda g: g[1, 1])
    assert np.max(np.abs(got[0] - np.diag([1.0, -1.0]))) <= 1e-6
    assert np.max(np.abs(got[1] - np.eye(2))) <= 1e-6


def test_euclidean_group_is_continuous():
    assert isinstance(isometry_group_2x2(euclidean_norm(2)), ContinuousFamily)


def test_conjugate_rotation_group_is_a_certified_family():
    # iso of sqrt(4a^2+12b^2) is a conjugate of O(2): no standard rotation
    # but the identity preserves it, and its algebra is one-dimensional
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.zeros(2)))
    assert isometry_group_2x2(f) == ContinuousFamily()
    (A,) = isometry_algebra(f)
    assert is_isometry(f, expm(1.3 * A))[0]


L4 = MinkowskiNorm(2, lambda v: (v[..., 0] ** 4 + v[..., 1] ** 4) ** 0.25)
SHEAR = np.array([[1.0, 0.7], [0.0, 1.3]])


def _in_group(A, group, tol=1e-9):
    return min(float(np.max(np.abs(A - B))) for B in group) <= tol


@pytest.mark.parametrize("f, conj", [
    (L4, np.eye(2)),
    (MinkowskiNorm(2, lambda v: L4.evaluator(v @ SHEAR.T)), SHEAR),
], ids=["l4", "sheared_l4"])
def test_group_of_an_even_norm_is_its_eight_signed_permutations(f, conj):
    # f(-v) = f(v): the l4 group is the 8 signed permutation matrices, and
    # l4(B v) has their conjugates B^-1 P B; both have a zero Lie algebra
    assert len(isometry_algebra(f)) == 0
    group = isometry_group_2x2(f)
    assert not isinstance(group, ContinuousFamily) and len(group) == 8
    perms = [np.array([[a, 0.0], [0.0, b]]) for a in (1, -1) for b in (1, -1)]
    perms += [np.array([[0.0, a], [b, 0.0]]) for a in (1, -1) for b in (1, -1)]
    for P in perms:
        assert _in_group(np.linalg.solve(conj, P @ conj), group, tol=1e-12)
    for A in group:
        assert is_isometry(f, A)[0]
        assert _in_group(np.linalg.inv(A), group)
        for B in group:
            assert _in_group(A @ B, group)


ORACLE_WITNESSES = 128                    # directions w in the reference's misfit sum
ORACLE_DEDUPE_TOL = 1e-6


def _einsum_sweep_group(f):
    """The 2x2 oracle as an angle sweep of a misfit sum, one broadcasting
    einsum, with each local minimum refined by a root of its derivative:
    the reference for the Fourier-coefficient candidates."""
    if len(isometry_algebra(f)):
        return ContinuousFamily()
    e = unit_sphere(2, ORACLE_ANGLES)
    L = np.linalg.cholesky(np.linalg.inv(e.T @ (e / f(e)[:, None] ** 4)))
    Lt, Lt_inv = L.T, np.linalg.inv(L.T)
    w = e[::ORACLE_ANGLES // ORACLE_WITNESSES]
    fw = f(w)
    th = np.linspace(0.0, 2.0 * np.pi, ORACLE_ANGLES, endpoint=False)
    h = th[1]

    def family(t, S):
        c, s = np.cos(t)[..., None, None], np.sin(t)[..., None, None]
        R = np.block([[c, -s], [s, c]])
        dR = np.block([[-s, -c], [c, -s]])
        return Lt_inv @ R @ S @ Lt, Lt_inv @ dR @ S @ Lt

    def slope(t, S):
        A, dA = family(t, S)
        Aw = w @ A.T
        return 2.0 * np.sum((f(Aw) - fw) * np.einsum("wi,wi->w", f.gradient(Aw), w @ dA.T))

    matrices = []
    for S in (np.eye(2), np.diag([1.0, -1.0])):
        A, _ = family(th, S)
        sweep = np.sum((f(np.einsum("tij,wj->twi", A, w)) - fw) ** 2, axis=1)
        for t in th[(sweep <= np.roll(sweep, 1)) & (sweep < np.roll(sweep, -1))]:
            lo, hi = slope(t - h, S), slope(t + h, S)
            if lo * hi < 0.0:
                t = brentq(slope, t - h, t + h, args=(S,), xtol=1e-15)
            A = family(t, S)[0]
            if is_isometry(f, A)[0] and not any(
                    np.max(np.abs(A - B)) < ORACLE_DEDUPE_TOL for B in matrices):
                matrices.append(A)
    return matrices


def _same_group(got, want):
    if isinstance(want, ContinuousFamily):
        return got == want
    return len(got) == len(want) and all(_in_group(A, want, tol=1e-12) for A in got)


def test_isometry_scan_matches_the_einsum_sweep_on_random_randers_norms():
    # the reference also takes its quadratic forms by einsum; every tenth
    # norm is Riemannian (beta = 0) and both must return ContinuousFamily
    rng = np.random.default_rng(2012)
    families = 0
    for k in range(100):
        Q, beta = _random_randers(rng, 2, zero_beta=k % 10 == 0)
        got = isometry_group_2x2(randers_norm(RandersData(Q, beta)))
        want = _einsum_sweep_group(_EinsumRanders(Q, beta))
        assert _same_group(got, want)
        families += isinstance(got, ContinuousFamily)
    assert families == 10


@pytest.mark.parametrize("f", [L4, build_norm({"type": "custom", "expr": "sqrt(4*a^2+12*b^2)-a"})],
                         ids=["l4", "readme_custom"])
def test_isometry_scan_matches_the_einsum_sweep(f):
    got = isometry_group_2x2(f)
    assert len(got) in (2, 8) and _same_group(got, _einsum_sweep_group(f))


def _trigonometric_norm(a, b):
    """|v| (1 + a cos 3t + b sin 6t): a norm, since h + h'' >= 1 - 8a - 35b > 0.
    b != 0 breaks every reflection: C_3 for b != 0, D_3 for b = 0. With
    (c, s) = v / |v| = (cos t, sin t), cos 3t = 4c^3 - 3c and
    sin 6t = 2 sin 3t cos 3t, sin 3t = 3s - 4s^3, so jets run through it."""

    def evaluator(v):
        r = jsqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])
        c, s = v[..., 0] / r, v[..., 1] / r
        cos3 = 4.0 * c ** 3 - 3.0 * c
        sin6 = 2.0 * (3.0 * s - 4.0 * s ** 3) * cos3
        return r * (1.0 + a * cos3 + b * sin6)

    return MinkowskiNorm(2, evaluator)


@pytest.mark.parametrize("a, b, conj, reflections", [
    (0.03, 0.01, np.eye(2), 0),
    (0.05, 0.0, np.eye(2), 3),
    (0.03, 0.01, SHEAR, 0),
], ids=["c3", "d3", "sheared_c3"])
def test_group_of_an_odd_order_norm(a, b, conj, reflections):
    # read through B, the C_3 norm has the conjugates B^-1 R B
    f0 = _trigonometric_norm(a, b)
    f = MinkowskiNorm(2, lambda v: f0.evaluator(v @ conj.T))
    group = isometry_group_2x2(f)
    assert not isinstance(group, ContinuousFamily)
    dets = np.linalg.det(group)
    assert np.sum(dets > 0) == 3 and np.sum(dets < 0) == reflections
    for k in range(3):
        assert _in_group(np.linalg.solve(conj, rot(2 * np.pi * k / 3) @ conj), group, tol=1e-12)
    for A in group:
        assert _in_group(np.linalg.inv(A), group)
        for B in group:
            assert _in_group(A @ B, group)


def test_group_oracle_refuses_other_dimensions():
    with pytest.raises(PreconditionError, match="n = 2"):
        isometry_group_2x2(euclidean_norm(3))


@pytest.mark.parametrize("f", [S5, _CentralDifferenceNorm(2, S5.evaluator)],
                         ids=["exact_gradient", "central_differences"])
def test_group_of_section5_norm_matches_its_closed_form(f):
    # the candidates come from values of f alone; the gradient only decides
    # that the Lie algebra is zero, so either gradient lists the same group
    group = isometry_group_2x2(f)
    assert len(group) == 2
    for tgt in (np.eye(2), np.diag([1.0, -1.0])):
        assert _in_group(tgt, group, tol=1e-12)


def test_generic_randers_group_is_identity_plus_reflection():
    # with beta != 0 the group is always {I, R}: the isometries of the
    # quadratic part form a conjugate of O(2), and exactly one non-trivial
    # element of it also fixes the linear form
    f = randers_norm(RandersData(np.diag([1.0, 2.0]), np.array([0.3, 0.3])))
    group = isometry_group_2x2(f)
    assert not isinstance(group, ContinuousFamily)
    assert len(group) == 2
    R = np.array([[1.0, 4.0], [2.0, -1.0]]) / 3.0   # Q-reflection fixing beta
    assert np.allclose(R.T @ np.diag([1.0, 2.0]) @ R, np.diag([1.0, 2.0]))
    assert np.allclose(np.array([0.3, 0.3]) @ R, [0.3, 0.3])
    devs = sorted(min(float(np.max(np.abs(g - tgt))) for g in group)
                  for tgt in (np.eye(2), R))
    assert devs[-1] <= 1e-6


def test_group_closed_under_product_and_inverse():
    for f in (S5, randers_norm(RandersData(np.diag([1.0, 2.0]), np.array([0.3, 0.3])))):
        group = isometry_group_2x2(f)
        for A in group:
            for B in group:
                assert is_isometry(f, A @ B, tol=1e-7)[0]
            assert is_isometry(f, np.linalg.inv(A), tol=1e-7)[0]


def test_limit_of_isometries_is_isometry():
    # rotation sequence converging entrywise to the identity, Euclidean norm
    f = euclidean_norm(2)
    seq = [rot(2.0 ** -k) for k in range(1, 40)]
    assert all(is_isometry(f, A)[0] for A in seq)
    limit = np.eye(2)
    assert np.max(np.abs(seq[-1] - limit)) < 1e-11
    assert is_isometry(f, limit)[0]
    # and a constant sequence at the reflection for the Randers norm
    assert is_isometry(S5, np.diag([1.0, -1.0]))[0]


# ------------------------------------------------------------------ lie algebra

def test_zero_matrix_generates_isometries():
    ok, viol = lie_algebra_member(S5, np.zeros((2, 2)))
    assert ok and viol <= 1e-15


def test_antisymmetric_generates_euclidean_isometries():
    ok, _ = lie_algebra_member(euclidean_norm(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert ok


def test_section5_lie_algebra_is_trivial():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        A /= np.linalg.norm(A)
        ok, viol = lie_algebra_member(S5, A)
        assert not ok and viol > 1e-3


def test_secant_fallback_for_gradient_free_norm():
    # a norm rebuilt from a bare evaluator takes its gradient from one jet pass
    plain = MinkowskiNorm(2, euclidean_norm(2).evaluator)
    ok, _ = lie_algebra_member(plain, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert ok
    ok, _ = lie_algebra_member(plain, np.eye(2))
    assert not ok


def test_a_numpy_only_evaluator_has_no_gradient():
    # np.linalg.norm of a jet fails loudly: no gradient is made up for it
    plain = MinkowskiNorm(2, lambda v: np.linalg.norm(v, axis=-1))
    u = unit_sphere(2, 50)
    assert np.array_equal(plain(u), np.linalg.norm(u, axis=-1))
    with pytest.raises(TypeError):
        plain.gradient(u)
    with pytest.raises(TypeError):
        isometry_algebra(plain)
    field = NormField(2, lambda x, w: (1.0 + x[..., 0] ** 2) * np.linalg.norm(w, axis=-1))
    with pytest.raises(TypeError):
        field.gradient(np.zeros(2), u)


def test_norm_field_gradient_is_one_jet_pass_of_its_evaluator():
    # the gradient of (1 + x^2) S5 is (1 + x^2) grad S5, to rounding, at
    # points that broadcast to the vectors; a rewrapped evaluator has the
    # bits of the norm's own gradient
    rng = np.random.default_rng(5)
    coords = rng.uniform(-2.0, 2.0, (4, 1, 2))
    v = rng.normal(size=(4, 6, 2))
    assert np.array_equal(MinkowskiNorm(2, S5.evaluator).gradient(v), S5.gradient(v))
    field = NormField(2, lambda x, w: (1.0 + x[..., 0] ** 2) * S5.evaluator(w))
    got = field.gradient(coords, v)
    assert got.shape == (4, 6, 2)
    want = (1.0 + coords[..., :1] ** 2) * S5.gradient(v)
    assert _within_ulps(got, want, np.abs(want), ulps=2)
    assert np.array_equal(field.at(coords[1, 0]).gradient(v[1]), got[1])


# ------------------------------------------------------------------ restrictions

def _one_form_field(n):
    """(F, frame, f, reference f): section5's field in 2-D; in 3-D a
    Randers norm read through a polynomial jet frame that is invertible on
    [-1, 1]^3."""
    if n == 2:
        frame = build_frame(SPECS["section5"]["manifold"]["frame"], Box((-5.0,) * 2, (5.0,) * 2))
        data = RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0]))
    else:
        frame = Frame(entries=lambda xs: [1.0 + 0.2 * xs[1], 0.0, 0.1 * xs[0],
                                          0.3 * xs[0], 1.0, 0.0,
                                          0.0, 0.4 * xs[2], 1.0],
                      dim=3, domain=Box((-1.0,) * 3, (1.0,) * 3))
        data = RandersData(np.diag([1.0, 2.0, 3.0]), np.array([0.2, 0.1, 0.0]))
    f = randers_norm(data)
    return one_form_norm_field(frame, f), frame, f, _EinsumRanders(data.Q, data.beta)


@pytest.mark.parametrize("n", [2, 3])
def test_one_form_restriction_equals_the_field(n):
    F = _one_form_field(n)[0]
    rng = np.random.default_rng(n)
    for p in rng.uniform(-1.0, 1.0, (5, n)):
        Fp = F.at(p)
        v = rng.normal(size=(30, n))
        assert np.array_equal(Fp(v), F(p, v))
        assert np.array_equal(Fp.gradient(v), F.gradient(p, v))


@pytest.mark.parametrize("n", [2, 3])
def test_one_form_field_at_broadcast_points_is_the_materialized_reading(n):
    # points (m, 1, n) against vectors (m, V, n) give the bits of the points
    # materialized to the vectors' shape, the coframe C = E^-1 taken at
    # every vector and read as C v, j ascending; the jet gradient is C^T g,
    # g the closed-form gradient at C v, to rounding (at most 2 and 13.5
    # ulps of its term magnitudes for n = 2 and 3 over 300 draws), with
    # the same bits at both points
    F, frame, f, ref = _one_form_field(n)
    rng = np.random.default_rng(10 + n)
    pts = rng.uniform(-1.0, 1.0, (6, 1, n))
    v = rng.normal(size=(6, 9, n))
    full = np.broadcast_to(pts, v.shape)
    E = frame.matrix_batch(full.reshape(-1, n)).reshape(v.shape + (n,))
    if n == 2:                                  # the closed-form inverse
        det = E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0]
        C = np.stack([np.stack([E[..., 1, 1], -E[..., 0, 1]], -1),
                      np.stack([-E[..., 1, 0], E[..., 0, 0]], -1)], -2) / det[..., None, None]
    else:
        C = np.linalg.inv(E)
    w = C[..., 0] * v[..., None, 0]
    for j in range(1, n):
        w += C[..., j] * v[..., None, j]
    g, g_scale = ref.gradient(w), ref.gradient_scale(w)
    grad = C[..., 0, :] * g[..., None, 0]
    for i in range(1, n):
        grad += C[..., i, :] * g[..., None, i]
    if n == 2:                                  # einsum's bits, which it has only for n = 2
        assert np.array_equal(w, np.einsum("...ij,...j->...i", C, v))
        assert np.array_equal(grad, np.einsum("...ij,...i->...j", C, g))
    scale = np.einsum("...ij,...i->...j", np.abs(C), g_scale)
    for at in (pts, full):
        assert np.array_equal(F(at, v), f(w))
        assert _within_ulps(F.gradient(at, v), grad, scale, ulps=32)
    assert np.array_equal(F.gradient(pts, v), F.gradient(full, v))


# ------------------------------------------------------------------ algebra

@st.composite
def randers_data(draw, dims=(2, 3), zero_beta=True):
    """Q = O diag(lam) O^T with lam in [0.5, 2]; beta = 0 (if zero_beta),
    or beta with beta^T Q^-1 beta = margin in [0.04, 0.8]."""
    n = draw(st.sampled_from(dims))
    o, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0))))
    Q = o @ np.diag(draw(arrays(float, n, elements=st.floats(0.5, 2.0)))) @ o.T
    Q = 0.5 * (Q + Q.T)
    if zero_beta and draw(st.booleans()):
        return Q, np.zeros(n)
    w = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    w = w / np.linalg.norm(w) if np.linalg.norm(w) > 1e-3 else np.eye(n)[0]
    margin = draw(st.floats(0.04, 0.8))
    return Q, np.sqrt(margin) * np.linalg.cholesky(Q) @ w


@settings(max_examples=40, deadline=None)
@given(randers_data())
def test_isometry_algebra_of_random_randers_norms(data):
    # iso(f) is so(Q) when beta = 0 and the stabilizer of beta in so(Q)
    # otherwise, with jet or central-difference gradients alike
    Q, beta = data
    n = len(beta)
    f = randers_norm(RandersData(Q, beta))
    dim = n * (n - 1) // 2 if not beta.any() else (n - 1) * (n - 2) // 2
    basis = isometry_algebra(f)
    assert basis.shape == (dim, n, n)
    assert len(isometry_algebra(_CentralDifferenceNorm(n, f.evaluator))) == dim
    for A in basis:
        assert lie_algebra_member(f, A)[0]
        assert is_isometry(f, expm(0.7 * A))[0]


def _transpose_apply(M, g):
    """M^T g for stacks M (..., n, n) and g (..., n)."""
    return np.einsum("...ij,...i->...j", M, g)


@settings(max_examples=30, deadline=None)
@given(randers_data(), st.integers(0, 2 ** 32 - 1))
def test_jet_gradients_are_the_closed_forms_on_random_randers_data(data, seed):
    # grad f = (Q v) / alpha + beta; through a frame E(x) = A + x_0 B the
    # field F = f o C, C = E^-1, has grad_v F(p, v) = C^T grad f(C v); and F
    # pushed down through E's own parallelism at p, F(p, phi v) with
    # phi = E(p), has phi^T (grad_v F)(p, phi v). Each holds to rounding:
    # within 64 ulps of the terms' magnitudes (at most 17 measured over
    # 3000 draws), and central differences agree to 1e-8 on unit vectors
    Q, beta = data
    n = len(beta)
    f, ref = randers_norm(RandersData(Q, beta)), _EinsumRanders(Q, beta)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(20, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert _within_ulps(f.gradient(v), ref.gradient(v), ref.gradient_scale(v), ulps=64)
    assert np.max(np.abs(f.gradient(v) - central_differences(f, v))) <= 1e-8
    A, B = np.eye(n) + 0.05 * rng.normal(size=(2, n, n))
    frame = Frame(entries=lambda xs: [A[a, k] + B[a, k] * xs[0]
                                      for a in range(n) for k in range(n)],
                  dim=n, domain=Box((-1.0,) * n, (1.0,) * n))
    F = one_form_norm_field(frame, f)
    p = rng.uniform(-0.9, 0.9, n)
    E = frame.matrix_batch(p[None, :])[0]
    C = np.linalg.inv(E)
    w = v @ C.T
    want = _transpose_apply(C, ref.gradient(w))
    scale = _transpose_apply(np.abs(C), ref.gradient_scale(w))
    assert _within_ulps(F.gradient(p, v), want, scale, ulps=64)
    pushed = pushdown_norm(F, frame_parallelism(frame), p)
    w = v @ (C @ E).T
    want = _transpose_apply(E, _transpose_apply(C, ref.gradient(w)))
    scale = _transpose_apply(np.abs(E), _transpose_apply(np.abs(C), ref.gradient_scale(w)))
    assert _within_ulps(pushed.gradient(v), want, scale, ulps=64)


@settings(max_examples=25, deadline=None)
@given(randers_data(dims=(2,), zero_beta=False))
def test_group_of_random_randers_norms(data):
    # with beta != 0 the group is {I, R}, R the Q-reflection 2 x x^T Q /
    # (x^T Q x) - I that fixes x = Q^-1 beta and so the form beta
    Q, beta = data
    group = isometry_group_2x2(randers_norm(RandersData(Q, beta)))
    x = np.linalg.solve(Q, beta)
    R = 2.0 * np.outer(x, x) @ Q / (x @ Q @ x) - np.eye(2)
    assert not isinstance(group, ContinuousFamily) and len(group) == 2
    for tgt in (np.eye(2), R):
        assert _in_group(tgt, group, tol=1e-12)


# ------------------------------------------------------------------ spheres

def test_unit_sphere_grids_are_unit_length():
    for n in (2, 3, 4):
        u = unit_sphere(n, 100)
        assert u.shape == (100, n)
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12
