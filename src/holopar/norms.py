"""Definite norms on R^n and on tangent spaces; isometry machinery.

A norm is one callable, its evaluator, which runs on arrays and on
``Jet``s alike (``jsqrt``, not np.sqrt; ``v[..., i]`` and ``v @ M``), so
its gradient in v is one jet pass of it, exact to rounding: v seeded as
``Jet(v, e_k)``. An evaluator that runs on numpy arrays only has no
gradient: ``np.linalg.norm`` of a jet raises TypeError. So the Lie
algebra of iso(f), the A with grad f(u) . Au = 0 on the unit sphere, is
one SVD nullspace in any dimension and one membership test.
The 2x2 oracle lists finite groups: every isometry preserves the
Binet-Legendre inner product of f, so the group is a C_k or D_k read off
one FFT of f on that inner product's unit circle, and each candidate is
certified on a dense circle.
A norm field F takes a batch of vectors (..., n) and points of any shape
that broadcasts to it, and restricts to the tangent space at a point p
(n,) as the Minkowski norm F_p. A one-form field F = f o C, C = E^-1 the
coframe of a frame E, inverts E once per given point, so F_p evaluates
C_p once per call.
``MinkowskiNorm``, ``NormField`` and ``RandersData`` (checked definite
when built) are plain classes with __slots__ and ``ContinuousFamily`` a
NamedTuple, each far cheaper to create at import than a dataclass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DefinitenessError, PreconditionError
from .geometry import apply_matrices, invert_frames
from .jets import Jet, jsqrt

ISOMETRY_TOL = 1e-9
LIE_ALGEBRA_TOL = 1e-8
LIE_ALGEBRA_SAMPLES = 200                 # unit-sphere grid of the membership test
# on random Randers norms, exact or central-difference gradients, the null
# singular values measured <= 1e-11 of the largest and the others >= 0.07
ALGEBRA_RANK_TOL = 1e-6
ORACLE_ANGLES = 1024                      # angle grid of the 2x2 oracle
DEFINITE_RADII, DEFINITE_SAMPLES = (1e-3, 1.0, 1e3), 360   # check_definite's spheres


def unit_sphere(n, count):
    """Deterministic quasi-uniform grid on the unit sphere of R^n."""
    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if n == 3:
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        theta = np.pi * (1.0 + 5.0 ** 0.5) * k
        return np.stack([np.cos(theta) * np.sin(phi),
                         np.sin(theta) * np.sin(phi),
                         np.cos(phi)], axis=1)
    rng = np.random.default_rng(count)
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _v_gradient(evaluator, v):
    """The partials (..., n) in v of evaluator at vectors v (..., n): one
    jet pass, v seeded as Jet(v, e_k broadcast to v). Every partial then
    has its value's shape, so a matmul rounds it alike at points that
    broadcast and at the points materialized (seeded as e_k (n,), a 3-D
    one-form field's partials did not). A kink (sqrt of 0) gives a
    non-finite partial, without a warning, for the caller to refuse."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = evaluator(Jet(v, tuple(np.broadcast_to(e, v.shape) for e in np.eye(v.shape[-1]))))
    return np.stack([np.broadcast_to(p, v.shape[:-1]) for p in out.partials], axis=-1)


class MinkowskiNorm:
    """Definite continuous function on R^n; the evaluator takes batches
    (..., n) -> (...) of arrays or jets."""

    __slots__ = ("dim", "evaluator")

    def __init__(self, dim, evaluator):
        self.dim = dim
        self.evaluator = evaluator

    def __call__(self, v):
        return self.evaluator(np.asarray(v, dtype=float))

    def gradient(self, v):
        """The gradient (..., n) at vectors v (..., n), away from 0."""
        return _v_gradient(self.evaluator, v)

    def check_definite(self):
        """Refuse a norm that is not positive and finite on the spheres of
        DEFINITE_RADII or does not vanish at the origin; a NaN or
        overflowing sample is refused, not warned about."""
        u = unit_sphere(self.dim, DEFINITE_SAMPLES)
        with np.errstate(over="ignore", invalid="ignore"):
            for r in DEFINITE_RADII:
                f = self(r * u)
                if not np.all(f > 0.0):
                    raise DefinitenessError("norm not positive on a sphere sample")
                if not np.all(f < np.inf):
                    raise DefinitenessError("norm not finite on a sphere sample")
            if not abs(float(self(np.zeros(self.dim)))) <= 1e-300:
                raise DefinitenessError("norm does not vanish at the origin")
        return self


class RandersData:
    """Riemannian square root plus a one-form: f(v) = sqrt(v^T Q v) + beta(v),
    refused when built unless definite."""

    __slots__ = ("Q", "beta")

    def __init__(self, Q, beta):
        self.Q = np.asarray(Q, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise DefinitenessError("Q must be symmetric")
        w = np.linalg.eigvalsh(self.Q)
        if np.any(w <= 0.0):
            raise DefinitenessError("Q must be positive definite")
        margin = float(self.beta @ np.linalg.solve(self.Q, self.beta))
        if margin >= 1.0:
            raise DefinitenessError(
                f"indefinite Randers data: beta^T Q^-1 beta = {margin:.6g} >= 1")

    @property
    def dim(self):
        return self.Q.shape[0]


def _quadratic_form(v, Q):
    """v^T Q v over the last axis as explicit multiply-adds, i outer and j
    inner, each term (v_i Q_ij) v_j. On a batch of three or more vectors
    that is einsum("...i,ij,...j->...")'s order, bit for bit, without its
    per-call setup; einsum sums one or two 2-vectors row by row, which
    can differ in the last bit."""
    quad = 0.0
    for i in range(len(Q)):
        for j in range(len(Q)):
            quad = quad + v[..., i] * Q[i, j] * v[..., j]
    return quad


def randers_norm(data):
    """sqrt(v^T Q v) + beta(v), beta(v) summed in index order like the
    form, so a vector's value does not depend on the batch it is in (a
    matmul by BLAS rounds by the batch's layout)."""
    Q, beta = data.Q, data.beta
    return MinkowskiNorm(data.dim, lambda v: jsqrt(_quadratic_form(v, Q))
                         + sum(v[..., i] * beta[i] for i in range(len(beta))))


def euclidean_norm(n):
    return MinkowskiNorm(n, lambda v: jsqrt(sum(v[..., i] * v[..., i] for i in range(n))))


def is_isometry(f, A, samples=720, tol=ISOMETRY_TOL):
    """Whether f(Av) = f(v) on a unit-sphere grid; returns (bool, max deviation).

    Singular A comes out False automatically: some unit vector is crushed
    towards the kernel and definiteness separates the values.
    """
    A = np.asarray(A, dtype=float)
    u = unit_sphere(f.dim, samples)
    dev = float(np.max(np.abs(f(u @ A.T) - f(u))))
    return dev <= tol, dev


class ContinuousFamily(NamedTuple):
    """Marker: iso(f) is a Lie group of positive dimension (e.g. O(2) for
    the Euclidean norm), certified by a non-zero `isometry_algebra`."""

    note: str = "solutions fill an angle interval"


def isometry_algebra(f):
    """Basis, shape (k, n, n), of the Lie algebra of iso(f).

    A generates isometries iff grad f(u) . Au = 0 for every unit u. Each
    sampled u gives the row grad f(u) (x) u of a linear system in the n^2
    entries of A; the algebra is its right null space, read off an SVD.
    A kink on the sampled sphere (a non-finite gradient) is refused.
    """
    n = f.dim
    u = unit_sphere(n, 100 * n * n)
    grad = f.gradient(u)
    if not np.all(np.isfinite(grad)):
        raise PreconditionError("iso(f) needs a gradient that is finite on the unit sphere")
    rows = (grad[:, :, None] * u[:, None, :]).reshape(len(u), n * n)
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(sv > ALGEBRA_RANK_TOL * sv[0]))
    return vt[rank:].reshape(-1, n, n)


def isometry_group_2x2(f):
    """All 2x2 matrices preserving f, or a ContinuousFamily exactly when
    the Lie algebra of iso(f) is non-zero.

    An isometry maps the unit ball onto itself, so it preserves the ball's
    second moment M and the Binet-Legendre inner product g = M^-1 = L L^T
    (Matveev and Troyanov, Geom. Topol. 16, 2012): every one is
    A = L^-T R(t) S L^T with S = I (the rotation by t of u = L^T v) or
    S = diag(1, -1) (the reflection across the axis at t / 2), and a finite
    group of them is a cyclic C_k or a dihedral D_k. With c_m the Fourier
    coefficients of h(t) = f(L^-T e(t)), the rotation by a preserves h iff
    every c_m (e^(ima) - 1) = 0, and the reflection across the axis at b iff
    every c_m e^(imb) is real. So k divides every m with c_m != 0, and in
    particular the m >= 1 of the largest |c_m|: the m rotations by
    2 pi j / m and the m reflections across (pi j - arg c_m) / m, j < m,
    contain the group, and `is_isometry` certifies each, rotations first,
    from the identity. The group is complete when g, a quadrature on the
    angle grid, is accurate: for smooth norms it is, while a polygon norm
    may list a subset of its group.
    """
    if f.dim != 2:
        raise PreconditionError(f"isometry_group_2x2 requires n = 2, got n = {f.dim}")
    if len(isometry_algebra(f)):
        return ContinuousFamily()
    e = unit_sphere(2, ORACLE_ANGLES)
    L = np.linalg.cholesky(np.linalg.inv(e.T @ (e / f(e)[:, None] ** 4)))
    Lt, Lt_inv = L.T, np.linalg.inv(L.T)
    c = np.fft.rfft(f(e @ Lt_inv.T))
    m = 1 + int(np.argmax(np.abs(c[1:])))
    j = np.arange(m)
    matrices = []
    for S, angles in ((np.eye(2), 2.0 * np.pi * j / m),
                      (np.diag([1.0, -1.0]), 2.0 * (np.pi * j - np.angle(c[m])) / m)):
        for t in angles:
            A = Lt_inv @ np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) @ S @ Lt
            if is_isometry(f, A)[0]:
                matrices.append(A)
    return matrices


def lie_algebra_member(f, A, samples=LIE_ALGEBRA_SAMPLES, tol=LIE_ALGEBRA_TOL):
    """Whether A generates isometries of f: (bool, max violation).

    The violation is max |grad f(u) . Au| on a unit-sphere grid, the
    derivative of f along the flow of A, which vanishes exactly on the
    Lie algebra of iso(f).
    """
    A = np.asarray(A, dtype=float)
    u = unit_sphere(f.dim, samples)
    viol = float(np.max(np.abs(np.einsum("si,si->s", f.gradient(u), apply_matrices(A, u)))))
    return viol <= tol, viol


class NormField:
    """Manifold-wide norm F; the evaluator, (...,n),(...,n) -> (...), takes
    (coords, vectors) batches, the vectors arrays or jets, as a
    MinkowskiNorm's.

    The vectors carry the batch shape (..., n), and the points may have
    any shape that broadcasts to it: points (m, 1, n) with vectors
    (m, V, n) give the V vectors at each of m points.
    """

    __slots__ = ("dim", "evaluator")

    def __init__(self, dim, evaluator):
        self.dim = dim
        self.evaluator = evaluator

    def __call__(self, coords, vectors):
        return self.evaluator(np.asarray(coords, dtype=float),
                              np.asarray(vectors, dtype=float))

    def gradient(self, coords, v):
        """The gradient in v (..., n) at points coords and vectors v."""
        c = np.asarray(coords, dtype=float)
        return _v_gradient(lambda w: self.evaluator(c, w), v)

    def at(self, p):
        """Restriction F_p to the tangent space at p (n,), as a MinkowskiNorm."""
        c = np.asarray(p, dtype=float)
        return MinkowskiNorm(self.dim, lambda v: self.evaluator(c, v))


def _coframes(frame, coords):
    """C = E^-1 at points (..., n): (..., n, n), one frame evaluation and
    inversion per point."""
    n = frame.dim
    E = frame.matrix_batch(np.reshape(coords, (-1, n)))
    C = invert_frames(E, "frame in one_form_norm_field")
    return C.reshape(np.shape(coords)[:-1] + (n, n))


def one_form_norm_field(frame, f):
    """F = f o (E^1, ..., E^n): the norm read through the coframe C = E^-1
    of a frame E. The coframe is evaluated once per given point and the
    vectors there are read as C v by ``apply_matrices``."""
    return NormField(f.dim, lambda coords, vectors: f.evaluator(
        apply_matrices(_coframes(frame, coords), vectors)))


def constant_norm_field(f):
    """The same Minkowski norm on every tangent space."""
    return NormField(f.dim, lambda coords, vectors: f.evaluator(vectors))
