"""Definite norms on R^n and on tangent spaces; isometry machinery.

Every norm has a gradient in v; one that is not given is taken by
``geometry.central_differences``, the package's one finite difference.
So the Lie algebra of iso(f), the A with grad f(u) . Au = 0 on the unit
sphere, is one SVD nullspace in any dimension and one membership test.
The 2x2 oracle lists finite groups: every isometry preserves the
Binet-Legendre inner product of f, so the group is a C_k or D_k read off
one FFT of f on that inner product's unit circle, and each candidate is
certified on a dense circle.
A norm field restricts to each tangent space; a one-form field
F = f o C restricts to f o C_p, with the coframe matrix C_p computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, PreconditionError
from .geometry import central_differences

ISOMETRY_TOL = 1e-9
LIE_ALGEBRA_TOL = 1e-8
LIE_ALGEBRA_SAMPLES = 200                 # unit-sphere grid of the membership test
# on random Randers norms, exact or central-difference gradients, the null
# singular values measured <= 1e-11 of the largest and the others >= 0.07
ALGEBRA_RANK_TOL = 1e-6
ORACLE_ANGLES = 1024                      # angle grid of the 2x2 oracle


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


@dataclass(frozen=True)
class MinkowskiNorm:
    """Definite continuous function on R^n; evaluator is batch-friendly;
    the gradient defaults to central differences."""

    dim: int
    evaluator: object                     # (..., n) -> (...)
    gradient: object = None               # (..., n) -> (..., n), away from 0

    def __post_init__(self):
        if self.gradient is None:
            object.__setattr__(self, "gradient", lambda v: central_differences(self, v))

    def __call__(self, v):
        return self.evaluator(np.asarray(v, dtype=float))

    def check_definite(self, radii=(1e-3, 1.0, 1e3), count=360):
        u = unit_sphere(self.dim, count)
        for r in radii:
            if np.any(self(r * u) <= 0.0):
                raise DefinitenessError("norm not positive on a sphere sample")
        if abs(float(self(np.zeros(self.dim)))) > 1e-300:
            raise DefinitenessError("norm does not vanish at the origin")
        return self


@dataclass(frozen=True)
class RandersData:
    """Riemannian square root plus a one-form: f(v) = sqrt(v^T Q v) + beta(v)."""

    Q: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
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
    Q, beta = data.Q, data.beta

    def evaluator(v):
        v = np.asarray(v, dtype=float)
        return np.sqrt(_quadratic_form(v, Q)) + v @ beta

    def gradient(v):
        v = np.asarray(v, dtype=float)
        return (v @ Q) / np.sqrt(_quadratic_form(v, Q))[..., None] + beta

    return MinkowskiNorm(data.dim, evaluator, gradient=gradient)


def euclidean_norm(n):
    return MinkowskiNorm(
        n,
        lambda v: np.linalg.norm(np.asarray(v, dtype=float), axis=-1),
        gradient=lambda v: v / np.linalg.norm(v, axis=-1, keepdims=True),
    )


def is_isometry(f, A, samples=720, tol=ISOMETRY_TOL):
    """Whether f(Av) = f(v) on a unit-sphere grid; returns (bool, max deviation).

    Singular A comes out False automatically: some unit vector is crushed
    towards the kernel and definiteness separates the values.
    """
    A = np.asarray(A, dtype=float)
    u = unit_sphere(f.dim, samples)
    dev = float(np.max(np.abs(f(u @ A.T) - f(u))))
    return dev <= tol, dev


@dataclass(frozen=True)
class ContinuousFamily:
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
    viol = float(np.max(np.abs(np.einsum("si,si->s", f.gradient(u), u @ A.T))))
    return viol <= tol, viol


def _coords(p):
    return np.asarray(p.coords if hasattr(p, "coords") else p, dtype=float)


def _read(C, v):
    """Frame components C v of vectors v; C (..., n, n) broadcasts."""
    return np.einsum("...ij,...j->...i", C, v)


def _pull_back(C, g):
    """C^T g: a gradient in frame components as one in coordinates."""
    return np.einsum("...ij,...i->...j", C, g)


@dataclass(frozen=True)
class NormField:
    """Manifold-wide norm F; evaluator takes (coords, vectors) batches; the
    gradient in v defaults to central differences, as a MinkowskiNorm's."""

    dim: int
    evaluator: object                     # (...,n),(...,n) -> (...)
    gradient: object = None               # (...,n),(...,n) -> (...,n), in v

    def __post_init__(self):
        if self.gradient is None:
            def gradient(coords, v):
                return central_differences(lambda w: self(coords, w), v)
            object.__setattr__(self, "gradient", gradient)

    def __call__(self, coords, vectors):
        return self.evaluator(np.asarray(coords, dtype=float),
                              np.asarray(vectors, dtype=float))

    def at(self, p):
        """Restriction F_p to the tangent space at p, as a MinkowskiNorm."""
        c = _coords(p)

        def restrict(fn):
            return lambda v: fn(np.broadcast_to(c, np.shape(v)), np.asarray(v, dtype=float))

        return MinkowskiNorm(self.dim, restrict(self.evaluator), gradient=restrict(self.gradient))


@dataclass(frozen=True)
class _OneFormNormField(NormField):
    """F = f o C for a coframe matrix field C; see one_form_norm_field."""

    coframe: object = None
    norm: object = None

    def at(self, p):
        """F_p = f o C_p, with the coframe evaluated once, at p."""
        C = self.coframe.matrix_batch(_coords(p)[None, :])[0]
        f = self.norm
        return MinkowskiNorm(self.dim, lambda v: f(_read(C, v)),
                             gradient=lambda v: _pull_back(C, f.gradient(_read(C, v))))


def one_form_norm_field(coframe, f):
    """F = f o (E^1, ..., E^n): the norm read through a coframe."""

    def matrices(coords):
        C = coframe.matrix_batch(np.reshape(coords, (-1, f.dim)))
        return C.reshape(coords.shape[:-1] + (f.dim, f.dim))

    def evaluator(coords, vectors):
        return f(_read(matrices(coords), vectors))

    def gradient(coords, vectors):
        C = matrices(coords)
        return _pull_back(C, f.gradient(_read(C, vectors)))

    return _OneFormNormField(f.dim, evaluator, gradient, coframe, f)


def constant_norm_field(f):
    """The same Minkowski norm on every tangent space."""
    return NormField(f.dim, lambda coords, vectors: f(vectors),
                     gradient=lambda coords, vectors: f.gradient(vectors))
