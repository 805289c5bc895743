"""Definite norms on R^n and on tangent spaces; isometry machinery.

Every norm has a gradient (central differences when none is given), so
the Lie algebra of iso(f), the A with grad f(u) . Au = 0 on the unit
sphere, is one SVD nullspace in any dimension and one membership test.
The 2x2 oracle lists finite groups: every isometry preserves the
Binet-Legendre inner product of f, which leaves one angle to scan per
orientation, and each root found is certified on a dense circle.
A norm field restricts to each tangent space; a one-form field
F = f o C restricts to f o C_p, with the coframe matrix C_p computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DefinitenessError, PreconditionError
from .geometry import FD_STEP

ISOMETRY_TOL = 1e-9
LIE_ALGEBRA_TOL = 1e-8
# on random Randers norms, exact or central-difference gradients, the null
# singular values measured <= 1e-11 of the largest and the others >= 0.07
ALGEBRA_RANK_TOL = 1e-6
ORACLE_ANGLES = 1024                      # angle grid of the 2x2 oracle
ORACLE_WITNESSES = 128                    # directions w in its misfit sum
ORACLE_DEDUPE_TOL = 1e-6


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
    the gradient defaults to central differences with step FD_STEP."""

    dim: int
    evaluator: object                     # (..., n) -> (...)
    kind: str = "custom"
    gradient: object = None               # (..., n) -> (..., n), away from 0

    def __post_init__(self):
        if self.gradient is None:
            steps = FD_STEP * np.eye(self.dim)

            def gradient(v):
                v = np.asarray(v, dtype=float)
                return np.stack([self(v + h) - self(v - h) for h in steps],
                                axis=-1) / (2 * FD_STEP)

            object.__setattr__(self, "gradient", gradient)

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


def randers_norm(data):
    Q, beta = data.Q, data.beta

    def evaluator(v):
        v = np.asarray(v, dtype=float)
        quad = np.einsum("...i,ij,...j->...", v, Q, v)
        return np.sqrt(quad) + v @ beta

    def gradient(v):
        v = np.asarray(v, dtype=float)
        quad = np.einsum("...i,ij,...j->...", v, Q, v)
        return (v @ Q) / np.sqrt(quad)[..., None] + beta

    return MinkowskiNorm(data.dim, evaluator, kind="randers", gradient=gradient)


def euclidean_norm(n):
    return MinkowskiNorm(
        n,
        lambda v: np.linalg.norm(np.asarray(v, dtype=float), axis=-1),
        kind="euclidean",
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
    """
    n = f.dim
    u = unit_sphere(n, 100 * n * n)
    rows = (f.gradient(u)[:, :, None] * u[:, None, :]).reshape(len(u), n * n)
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(sv > ALGEBRA_RANK_TOL * sv[0]))
    return vt[rank:].reshape(-1, n, n)


def isometry_group_2x2(f):
    """All 2x2 matrices preserving f, or a ContinuousFamily exactly when
    the Lie algebra of iso(f) is non-zero.

    An isometry maps the unit ball onto itself, so it preserves the ball's
    second moment M and the Binet-Legendre inner product g = M^-1 = L L^T
    (Matveev and Troyanov, Geom. Topol. 16, 2012): every one is
    A(theta) = L^-T R(theta) S L^T with S = I or diag(1, -1). One sweep of
    the misfit sum_w (f(Aw) - f(w))^2 over the angle grid finds its local
    minima, a root of its theta-derivative refines each, and `is_isometry`
    certifies the result.
    """
    if f.dim != 2:
        raise PreconditionError(f"isometry_group_2x2 requires n = 2, got n = {f.dim}")
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
        """A(t) and dA/dt for rotation angles t (...,)."""
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
            # a root of the derivative, not a bounded minimization: that
            # stops at a relative angle tolerance of about 1.5e-8
            lo, hi = slope(t - h, S), slope(t + h, S)
            if lo * hi < 0.0:
                t = brentq(slope, t - h, t + h, args=(S,), xtol=1e-15)
            A = family(t, S)[0]
            if is_isometry(f, A)[0] and not any(
                    np.max(np.abs(A - B)) < ORACLE_DEDUPE_TOL for B in matrices):
                matrices.append(A)
    return matrices


def lie_algebra_member(f, A, samples=200, tol=LIE_ALGEBRA_TOL):
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
    """Manifold-wide norm F; evaluator takes (coords, vectors) batches."""

    dim: int
    evaluator: object                     # (...,n),(...,n) -> (...)
    gradient: object = None               # (...,n),(...,n) -> (...,n), in v

    def __call__(self, coords, vectors):
        return self.evaluator(np.asarray(coords, dtype=float),
                              np.asarray(vectors, dtype=float))

    def at(self, p):
        """Restriction F_p to the tangent space at p, as a MinkowskiNorm."""
        c = _coords(p)

        def evaluator(v):
            v = np.asarray(v, dtype=float)
            return self.evaluator(np.broadcast_to(c, v.shape), v)

        def gradient(v):
            v = np.asarray(v, dtype=float)
            return self.gradient(np.broadcast_to(c, v.shape), v)

        return MinkowskiNorm(self.dim, evaluator, kind="restriction",
                             gradient=None if self.gradient is None else gradient)


@dataclass(frozen=True)
class _OneFormNormField(NormField):
    """F = f o C for a coframe matrix field C; see one_form_norm_field."""

    coframe: object = None
    norm: object = None

    def at(self, p):
        """F_p = f o C_p, with the coframe evaluated once, at p."""
        C = self.coframe.matrix_batch(_coords(p)[None, :])[0]
        f = self.norm
        return MinkowskiNorm(self.dim, lambda v: f(_read(C, v)), kind="restriction",
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
