"""Randers norms, isometry tests, the 2x2 group oracle and Lie-algebra
membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from holopar.errors import DefinitenessError, PreconditionError
from holopar.norms import (ContinuousFamily, MinkowskiNorm, RandersData,
                           euclidean_norm, is_isometry, isometry_algebra,
                           isometry_group_2x2, lie_algebra_member, randers_norm,
                           unit_sphere)

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


def test_group_oracle_refuses_an_even_norm():
    # f(-v) = f(v) makes the column constraints hold on the whole level
    # set; the l4 norm's group is finite (signed permutations), so the
    # oracle must refuse rather than enumerate or flag a family
    l4 = MinkowskiNorm(2, lambda v: np.sum(np.asarray(v) ** 4, axis=-1) ** 0.25)
    assert len(isometry_algebra(l4)) == 0
    with pytest.raises(PreconditionError):
        isometry_group_2x2(l4)


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
    plain = MinkowskiNorm(2, euclidean_norm(2).evaluator)
    ok, _ = lie_algebra_member(plain, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert ok
    ok, _ = lie_algebra_member(plain, np.eye(2))
    assert not ok


def test_gradient_free_norm_gets_central_differences():
    plain = MinkowskiNorm(2, euclidean_norm(2).evaluator)
    u = unit_sphere(2, 50)
    assert np.max(np.abs(plain.gradient(u) - u)) <= 1e-9


# ------------------------------------------------------------------ algebra

@st.composite
def randers_data(draw):
    """Q = O diag(lam) O^T with lam in [0.5, 2]; beta = 0, or beta with
    beta^T Q^-1 beta = margin in [0.04, 0.8]."""
    n = draw(st.sampled_from([2, 3]))
    o, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0))))
    Q = o @ np.diag(draw(arrays(float, n, elements=st.floats(0.5, 2.0)))) @ o.T
    Q = 0.5 * (Q + Q.T)
    if draw(st.booleans()):
        return Q, np.zeros(n)
    w = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    w = w / np.linalg.norm(w) if np.linalg.norm(w) > 1e-3 else np.eye(n)[0]
    margin = draw(st.floats(0.04, 0.8))
    return Q, np.sqrt(margin) * np.linalg.cholesky(Q) @ w


@settings(max_examples=40, deadline=None)
@given(randers_data())
def test_isometry_algebra_of_random_randers_norms(data):
    # iso(f) is so(Q) when beta = 0 and the stabilizer of beta in so(Q)
    # otherwise, with exact or central-difference gradients alike
    Q, beta = data
    n = len(beta)
    f = randers_norm(RandersData(Q, beta))
    dim = n * (n - 1) // 2 if not beta.any() else (n - 1) * (n - 2) // 2
    basis = isometry_algebra(f)
    assert basis.shape == (dim, n, n)
    assert len(isometry_algebra(MinkowskiNorm(n, f.evaluator))) == dim
    for A in basis:
        assert lie_algebra_member(f, A)[0]
        assert is_isometry(f, expm(0.7 * A))[0]


# ------------------------------------------------------------------ spheres

def test_unit_sphere_grids_are_unit_length():
    for n in (2, 3, 4):
        u = unit_sphere(n, 100)
        assert u.shape == (100, n)
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12
