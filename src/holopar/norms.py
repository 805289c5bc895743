"""Definite norms on R^n and on tangent spaces; isometry machinery.

Includes Randers norms with exact gradients, an isometry test on sphere
grids, a Lie-algebra membership test, and the brute-force 2x2 isometry
group oracle (four norm-preservation constraints solved column-wise,
then certified on a dense circle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import DefinitenessError

ISOMETRY_TOL = 1e-9
LIE_ALGEBRA_TOL = 1e-8
SECANT_TOL = 1e-6


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
    """Definite continuous function on R^n; evaluator is batch-friendly."""

    dim: int
    evaluator: object                     # (..., n) -> (...)
    kind: str = "custom"
    gradient: object = None               # (..., n) -> (..., n), away from 0

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
    """Marker: the isometry solutions fill an angle interval (a Lie group
    of positive dimension, e.g. O(2) for the Euclidean norm)."""

    note: str = "solutions fill an angle interval"


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


def _column_candidates(f, t_plus, t_minus, angle_grid, cand_tol=1e-7):
    """Candidate columns c with f(c) = t_plus and f(-c) = t_minus.

    Scans a direction-angle grid, solving the radius by bisection and
    treating the second constraint as a residual in the angle. Returns
    (list of columns, continuous_flag).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, angle_grid, endpoint=False)
    residuals = np.full(angle_grid, np.nan)
    radii = np.full(angle_grid, np.nan)
    for i, th in enumerate(thetas):
        u = np.array([np.cos(th), np.sin(th)])
        r = _radius_for(f, u, t_plus)
        if r is None:
            continue
        radii[i] = r
        residuals[i] = float(f(-r * u)) - t_minus

    near = np.abs(residuals) < cand_tol
    # wrap-around run detection for a continuous family
    if near.all():
        return [], True
    doubled = np.concatenate([near, near])
    run = best = 0
    for flag in doubled:
        run = run + 1 if flag else 0
        best = max(best, run)
    if best >= 3:
        return [], True

    def column_at(th):
        u = np.array([np.cos(th), np.sin(th)])
        r = _radius_for(f, u, t_plus)
        return None if r is None else r * u

    cols = [column_at(thetas[i]) for i in np.nonzero(near)[0]]
    # refine sign changes of the residual between adjacent grid angles
    def residual(th):
        u = np.array([np.cos(th), np.sin(th)])
        r = _radius_for(f, u, t_plus)
        return np.nan if r is None else float(f(-r * u)) - t_minus

    for i in range(angle_grid):
        j = (i + 1) % angle_grid
        a, b = residuals[i], residuals[j]
        if np.isnan(a) or np.isnan(b) or a == 0.0 or a * b >= 0.0:
            continue
        th_hi = thetas[j] if j != 0 else 2.0 * np.pi
        try:
            th = brentq(residual, thetas[i], th_hi, xtol=1e-14)
        except ValueError:
            continue
        cols.append(column_at(th))
    return [c for c in cols if c is not None], False


def isometry_group_2x2(f, angle_grid=1024, circle_samples=720, tol=ISOMETRY_TOL,
                       dedupe_tol=1e-6):
    """All 2x2 matrices preserving f, or a ContinuousFamily flag.

    Independent oracle: each column of an isometry must preserve the
    norms of (+-1, 0) and (0, +-1); candidates from those four
    constraints are certified against a 720-angle circle sweep.
    """
    if f.dim != 2:
        raise ValueError("isometry_group_2x2 requires n = 2")
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    col1, cont1 = _column_candidates(f, float(f(e1)), float(f(-e1)), angle_grid)
    col2, cont2 = _column_candidates(f, float(f(e2)), float(f(-e2)), angle_grid)

    if cont1 or cont2:
        # certify on a sparse set of rotations before flagging
        ths = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        rots = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in ths]
        if all(is_isometry(f, R, circle_samples, tol)[0] for R in rots):
            return ContinuousFamily()
        # fall through is impossible for the norms in scope; report anyway
        return ContinuousFamily(note="column constraints fill an angle interval")

    matrices = []
    for c1 in col1:
        for c2 in col2:
            A = np.stack([c1, c2], axis=1)
            ok, _ = is_isometry(f, A, circle_samples, tol)
            if not ok:
                continue
            if any(np.max(np.abs(A - B)) < dedupe_tol for B in matrices):
                continue
            matrices.append(A)
    return matrices


def lie_algebra_member(f, A, samples=200, tol=LIE_ALGEBRA_TOL,
                       secant_tol=SECANT_TOL):
    """Whether A generates isometries of f: (bool, max violation).

    Uses the exact gradient when available (directional derivative of f
    along the flow of A must vanish); otherwise a secant test on
    f(exp(tA)v) with a widened tolerance.
    """
    A = np.asarray(A, dtype=float)
    u = unit_sphere(f.dim, samples)
    if f.gradient is not None:
        viol = float(np.max(np.abs(np.einsum("si,si->s", f.gradient(u), u @ A.T))))
        return viol <= tol, viol
    worst = 0.0
    for t in (-1e-2, -1e-4, 1e-4, 1e-2):
        et = expm(t * A)
        worst = max(worst, float(np.max(np.abs(f(u @ et.T) - f(u)) / abs(t))))
    return worst <= secant_tol, worst


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
            cc = np.broadcast_to(c, v.shape)
            return self.evaluator(cc, v)

        grad = None
        if self.gradient is not None:
            def grad(v, _c=c):
                v = np.asarray(v, dtype=float)
                cc = np.broadcast_to(_c, v.shape)
                return self.gradient(cc, v)

        return MinkowskiNorm(self.dim, evaluator, kind="restriction", gradient=grad)


def one_form_norm_field(coframe, f):
    """F = f o (E^1, ..., E^n): the norm read through a coframe."""

    def evaluator(coords, vectors):
        C = coframe.matrix_batch(np.reshape(coords, (-1, f.dim)))
        C = C.reshape(coords.shape[:-1] + (f.dim, f.dim))
        return f(np.einsum("...ij,...j->...i", C, vectors))

    gradient = None
    if f.gradient is not None:
        def gradient(coords, vectors):
            C = coframe.matrix_batch(np.reshape(coords, (-1, f.dim)))
            C = C.reshape(coords.shape[:-1] + (f.dim, f.dim))
            g = f.gradient(np.einsum("...ij,...j->...i", C, vectors))
            return np.einsum("...ij,...i->...j", C, g)

    return NormField(f.dim, evaluator, gradient=gradient)


def constant_norm_field(f):
    """The same Minkowski norm on every tangent space."""
    return NormField(
        f.dim,
        lambda coords, vectors: f(vectors),
        gradient=(None if f.gradient is None
                  else (lambda coords, vectors: f.gradient(vectors))),
    )
