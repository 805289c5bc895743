"""Definite norms on R^n and on tangent spaces; isometry machinery.

Every norm has a gradient (central differences when none is given), so
the Lie algebra of iso(f), the A with grad f(u) . Au = 0 on the unit
sphere, is one SVD nullspace in any dimension and one membership test.
The brute-force 2x2 oracle lists finite groups: four norm-preservation
constraints solved column-wise, then certified on a dense circle.
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
ORACLE_ANGLES = 1024                      # direction-angle grid of the 2x2 oracle
ORACLE_CANDIDATE_TOL = 1e-7
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


def _radius_for(f, u, target, r_max=1e6):
    """Solve f(r*u) = target for r > 0 by bisection; None if no bracket."""
    g = lambda r: float(f(r * u)) - target
    lo, hi = 0.0, 1.0
    val = float(f(u))
    if val > 0:
        hi = max(1e-6, 2.0 * target / val)
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > r_max:
            return None
    return brentq(g, lo, hi, xtol=1e-14, rtol=1e-15)


def _column_candidates(f, t_plus, t_minus):
    """Candidate columns c with f(c) = t_plus and f(-c) = t_minus.

    Scans a direction-angle grid, solving the radius by bisection and
    treating the second constraint as a residual in the angle: the grid
    angles where it nearly vanishes and the roots between sign changes.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, ORACLE_ANGLES, endpoint=False)

    def column_at(th):
        u = np.array([np.cos(th), np.sin(th)])
        r = _radius_for(f, u, t_plus)
        return None if r is None else r * u

    def residual(th):
        c = column_at(th)
        return np.nan if c is None else float(f(-c)) - t_minus

    residuals = np.array([residual(th) for th in thetas])
    near = np.abs(residuals) < ORACLE_CANDIDATE_TOL
    if near.all():
        raise PreconditionError(
            "f(-c) = f(c) on the whole level set: the column constraints "
            "cannot isolate the isometries of an even norm")
    cols = [column_at(th) for th in thetas[near]]
    for i in range(ORACLE_ANGLES):
        j = (i + 1) % ORACLE_ANGLES
        a, b = residuals[i], residuals[j]
        if np.isnan(a) or np.isnan(b) or a == 0.0 or a * b >= 0.0:
            continue
        th_hi = thetas[j] if j != 0 else 2.0 * np.pi
        try:
            th = brentq(residual, thetas[i], th_hi, xtol=1e-14)
        except ValueError:
            continue
        cols.append(column_at(th))
    return [c for c in cols if c is not None]


def isometry_group_2x2(f):
    """All 2x2 matrices preserving f, or a ContinuousFamily exactly when
    the Lie algebra of iso(f) is non-zero.

    Independent oracle for the finite group of a norm that is not even:
    each column must preserve the norms of (+-1, 0) and (0, +-1), and the
    candidates are certified against a 720-angle circle sweep.
    """
    if f.dim != 2:
        raise ValueError("isometry_group_2x2 requires n = 2")
    if len(isometry_algebra(f)):
        return ContinuousFamily()
    e1, e2 = np.eye(2)
    col1 = _column_candidates(f, float(f(e1)), float(f(-e1)))
    col2 = _column_candidates(f, float(f(e2)), float(f(-e2)))
    matrices = []
    for c1 in col1:
        for c2 in col2:
            A = np.stack([c1, c2], axis=1)
            if not is_isometry(f, A)[0]:
                continue
            if any(np.max(np.abs(A - B)) < ORACLE_DEDUPE_TOL for B in matrices):
                continue
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
        c = np.asarray(p.coords if hasattr(p, "coords") else p, dtype=float)

        def evaluator(v):
            v = np.asarray(v, dtype=float)
            return self.evaluator(np.broadcast_to(c, v.shape), v)

        def gradient(v):
            v = np.asarray(v, dtype=float)
            return self.gradient(np.broadcast_to(c, v.shape), v)

        return MinkowskiNorm(self.dim, evaluator, kind="restriction",
                             gradient=None if self.gradient is None else gradient)


def one_form_norm_field(coframe, f):
    """F = f o (E^1, ..., E^n): the norm read through a coframe."""

    def evaluator(coords, vectors):
        C = coframe.matrix_batch(np.reshape(coords, (-1, f.dim)))
        C = C.reshape(coords.shape[:-1] + (f.dim, f.dim))
        return f(np.einsum("...ij,...j->...i", C, vectors))

    def gradient(coords, vectors):
        C = coframe.matrix_batch(np.reshape(coords, (-1, f.dim)))
        C = C.reshape(coords.shape[:-1] + (f.dim, f.dim))
        g = f.gradient(np.einsum("...ij,...j->...i", C, vectors))
        return np.einsum("...ij,...i->...j", C, g)

    return NormField(f.dim, evaluator, gradient=gradient)


def constant_norm_field(f):
    """The same Minkowski norm on every tangent space."""
    return NormField(f.dim, lambda coords, vectors: f(vectors),
                     gradient=lambda coords, vectors: f.gradient(vectors))
