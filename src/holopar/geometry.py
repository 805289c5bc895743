"""Charts, points, tangent vectors, fields, frames, coframes and curves.

Everything lives in a single global chart whose domain is an open
axis-aligned box. Smooth fields are evaluated through jets, so first
derivatives (Jacobians, brackets, velocities) are exact to rounding;
central finite differences (h = 1e-5) are kept as a fallback for fields
that are only available numerically (e.g. ODE-built trivializations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, RegularityError, SingularFrameError
from .jets import Jet, as_jet, seed_jets

FD_STEP = 1e-5
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; bounds may be infinite."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("empty box")

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, coords):
        c = np.asarray(coords, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(c > lo) and np.all(c < hi))

    def contains_batch(self, coords):
        c = np.asarray(coords, dtype=float)
        return np.all((c > np.asarray(self.lo)) & (c < np.asarray(self.hi)), axis=-1)

    def _require_finite(self, what):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise DomainError(f"cannot {what} {self}: it has an infinite bound")

    def sample(self, rng, count, margin=0.0):
        """Uniform points, shrunk by `margin` (fraction of each side)."""
        self._require_finite("sample")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        side = hi - lo
        return rng.uniform(lo + margin * side, hi - margin * side, size=(count, self.dim))

    def shrink(self, margin):
        self._require_finite("shrink")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        side = hi - lo
        return Box(tuple(lo + margin * side), tuple(hi - margin * side))

    def intersection(self, other):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)


@dataclass(frozen=True)
class ChartPoint:
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def dim(self):
        return self.coords.shape[0]

    def __eq__(self, other):
        return isinstance(other, ChartPoint) and np.array_equal(self.coords, other.coords)


def point(*coords):
    return ChartPoint(np.asarray(coords, dtype=float))


@dataclass(frozen=True)
class TangentVector:
    base: ChartPoint
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))

    def _check_base(self, other):
        if self.base != other.base:
            raise ValueError("tangent vectors have different base points")

    def __add__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.components + other.components)

    def __sub__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.components - other.components)

    def __mul__(self, a):
        return TangentVector(self.base, a * self.components)

    __rmul__ = __mul__


class VectorField:
    """Smooth vector field on a chart domain.

    Built either from a jet-generic component callable (exact
    derivatives, supports nesting) or from a numeric batch evaluator
    (derivatives by central differences).
    """

    def __init__(self, dim, components=None, values_fn=None, domain=None):
        if components is None and values_fn is None:
            raise ValueError("need components or values_fn")
        self.dim = dim
        self.domain = domain
        self._components = components
        self._values_fn = values_fn

    @property
    def is_generic(self):
        return self._components is not None

    def __call__(self, xs):
        """Evaluate components on a tuple of scalars/Jets (generic path)."""
        if self._components is None:
            raise TypeError("numeric-only field has no generic evaluator")
        return self._components(xs)

    def values_batch(self, coords):
        coords = np.asarray(coords, dtype=float)
        if self._values_fn is not None:
            return np.asarray(self._values_fn(coords), dtype=float)
        vals, _ = self.jacobian_batch(coords)
        return vals

    def jacobian_batch(self, coords):
        """Components and Jacobian at a batch of points: (m,n), (m,n,n)."""
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        if self._components is not None:
            xs = seed_jets(tuple(coords[:, d] for d in range(n)))
            comps = [as_jet(c, n) for c in self._components(xs)]
            vals = np.stack([np.broadcast_to(np.asarray(c.value, dtype=float), (m,))
                             for c in comps], axis=1)
            jac = np.stack(
                [np.stack([np.broadcast_to(np.asarray(p, dtype=float), (m,))
                           for p in c.partials], axis=1) for c in comps], axis=1)
            return vals, jac
        jac = np.empty((m, n, n))
        for d in range(n):
            e = np.zeros(n)
            e[d] = FD_STEP
            jac[:, :, d] = (self._values_fn(coords + e) - self._values_fn(coords - e)) / (2 * FD_STEP)
        return np.asarray(self._values_fn(coords), dtype=float), jac

    def at(self, p):
        """Evaluate as a TangentVector at a point."""
        return TangentVector(p, self.values_batch(p.coords[None, :])[0])


def constant_field(components, domain=None):
    comp = tuple(float(c) for c in components)
    n = len(comp)
    return VectorField(n, components=lambda xs: comp, domain=domain)


def jet_eval(field, p, domain=None):
    """Components and Jacobian of a field at a point via dual numbers.

    jacobian[i][j] is the partial of component i along coordinate j.
    """
    dom = domain or field.domain
    if dom is not None and not dom.contains(p.coords):
        raise DomainError(f"point {p.coords} outside chart domain")
    vals, jac = field.jacobian_batch(p.coords[None, :])
    return vals[0], jac[0]


def lie_bracket(X, Y):
    """[X,Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    n = X.dim
    domain = X.domain or Y.domain

    if X.is_generic and Y.is_generic:
        def comps(xs):
            seeded = tuple(Jet(xs[d], tuple(1.0 if e == d else 0.0 for e in range(n)))
                           for d in range(n))
            Xc = [as_jet(c, n) for c in X(seeded)]
            Yc = [as_jet(c, n) for c in Y(seeded)]
            return [sum(Xc[j].value * Yc[i].partials[j] - Yc[j].value * Xc[i].partials[j]
                        for j in range(n)) for i in range(n)]
        return VectorField(n, components=comps, domain=domain)

    def values_fn(coords):
        xv, xj = X.jacobian_batch(coords)
        yv, yj = Y.jacobian_batch(coords)
        return np.einsum("mj,mij->mi", xv, yj) - np.einsum("mj,mij->mi", yv, xj)

    return VectorField(n, values_fn=values_fn, domain=domain)


class Frame:
    """n vector fields with everywhere-invertible component matrix."""

    def __init__(self, fields=None, matrix_fn=None, domain=None, dim=None):
        if fields is not None:
            self._fields = tuple(fields)
            self.dim = self._fields[0].dim
        else:
            if matrix_fn is None or dim is None:
                raise ValueError("need fields, or matrix_fn with dim")
            self._fields = None
            self.dim = dim
        self._matrix_fn = matrix_fn
        self.domain = domain

    @cached_property
    def fields(self):
        if self._fields is not None:
            return self._fields
        mk = self._matrix_fn
        return tuple(
            VectorField(self.dim,
                        values_fn=(lambda coords, k=k: mk(coords)[:, :, k]),
                        domain=self.domain)
            for k in range(self.dim))

    def matrix_batch(self, coords):
        """Component matrices E with E[:, a, j] = (E_j)^a: (m,n,n)."""
        coords = np.asarray(coords, dtype=float)
        if self._fields is None:
            return np.asarray(self._matrix_fn(coords), dtype=float)
        return np.stack([f.values_batch(coords) for f in self._fields], axis=2)

    def matrix_jacobian_batch(self, coords):
        """E (m,n,n) and dE (m,n,n,n) with dE[:, a, k, d] = d_d (E_k)^a."""
        coords = np.asarray(coords, dtype=float)
        if self._fields is not None:
            pairs = [f.jacobian_batch(coords) for f in self._fields]
            E = np.stack([v for v, _ in pairs], axis=2)
            dE = np.stack([j for _, j in pairs], axis=2)
            return E, dE
        m, n = coords.shape
        E = np.asarray(self._matrix_fn(coords), dtype=float)
        dE = np.empty((m, n, n, n))
        for d in range(n):
            e = np.zeros(n)
            e[d] = FD_STEP
            dE[:, :, :, d] = (self._matrix_fn(coords + e) - self._matrix_fn(coords - e)) / (2 * FD_STEP)
        return E, dE

    def matrix(self, p):
        return self.matrix_batch(p.coords[None, :])[0]

    def check_invertible(self, coords):
        dets = np.linalg.det(self.matrix_batch(coords))
        if np.any(np.abs(dets) <= DET_FLOOR):
            raise SingularFrameError("frame matrix singular at a sampled point")


def invert_frames(E, what):
    """E^-1 of a batch (..., n, n) of frame matrices.

    Raises SingularFrameError ("singular <what>") when some |det E| is at
    most DET_FLOOR. For n = 2 the inverse is the adjugate over ad - bc,
    written into one output array; other n factorize through numpy.
    """
    E = np.asarray(E, dtype=float)
    two = E.shape[-1] == 2
    det = (E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0] if two
           else np.linalg.det(E))
    if np.any(np.abs(det) <= DET_FLOOR):
        raise SingularFrameError(f"singular {what}")
    if not two:
        return np.linalg.inv(E)
    # in place: building the quotient from negated temporaries raised
    # peak memory by about 10%; dividing (not multiplying by 1/det)
    # rounds each entry once
    inv = np.empty(E.shape)
    inv[..., 0, 0] = E[..., 1, 1]
    inv[..., 1, 1] = E[..., 0, 0]
    np.negative(E[..., 0, 1], out=inv[..., 0, 1])
    np.negative(E[..., 1, 0], out=inv[..., 1, 0])
    inv /= det[..., None, None]
    return inv


@dataclass(frozen=True)
class Coframe:
    """Dual forms E^i, stored as the pointwise inverse of a frame matrix."""

    frame: Frame

    def matrix_batch(self, coords):
        return invert_frames(self.frame.matrix_batch(coords),
                             "frame matrix in dual_coframe")

    def matrix(self, p):
        return self.matrix_batch(p.coords[None, :])[0]

    def apply(self, v):
        """Values (E^1(v), ..., E^n(v)) of the forms on a tangent vector."""
        return self.matrix(v.base) @ v.components


def dual_coframe(frame):
    return Coframe(frame)


def coordinate_frame(n, domain=None):
    fields = [constant_field(tuple(1.0 if i == k else 0.0 for i in range(n)), domain)
              for k in range(n)]
    return Frame(fields=fields, domain=domain)


class Curve:
    """Regular curve [0,1] -> chart domain, velocity via a jet in t."""

    def __init__(self, coords_fn, domain=None, params=None):
        self.coords_fn = coords_fn
        self.domain = domain
        self.params = params or {}

    def point(self, t):
        cs = self.coords_fn(t)
        return ChartPoint(np.asarray([float(c) for c in cs]))

    def positions(self, ts):
        """Positions at an array of parameters: (m, n)."""
        ts = np.asarray(ts, dtype=float)
        cs = self.coords_fn(ts)
        return np.stack([np.broadcast_to(np.asarray(c, dtype=float), ts.shape) for c in cs], axis=-1)

    def positions_velocities(self, ts):
        ts = np.asarray(ts, dtype=float)
        tj = Jet(ts, (1.0,))
        cs = [as_jet(c, 1) for c in self.coords_fn(tj)]
        pos = np.stack([np.broadcast_to(np.asarray(c.value, dtype=float), ts.shape) for c in cs], axis=-1)
        vel = np.stack([np.broadcast_to(np.asarray(c.partials[0], dtype=float), ts.shape) for c in cs], axis=-1)
        return pos, vel

    def velocity(self, t):
        pos, vel = self.positions_velocities(np.asarray([t]))
        return TangentVector(ChartPoint(pos[0]), vel[0])

    def validate(self, samples=64):
        ts = np.linspace(0.0, 1.0, samples)
        pos, vel = self.positions_velocities(ts)
        if self.domain is not None and not np.all(self.domain.contains_batch(pos)):
            raise DomainError("curve leaves the chart domain")
        speed = np.linalg.norm(vel, axis=1)
        if np.any(speed < 1e-9):
            raise RegularityError("curve velocity vanishes at a sampled parameter")
        return self


def segment(p0, p1, domain=None):
    # plain floats: numpy scalars do not defer cleanly to Jet arithmetic
    a = [float(c) for c in np.asarray(p0, dtype=float)]
    b = [float(c) for c in np.asarray(p1, dtype=float)]

    def coords_fn(t):
        return [a[i] + (b[i] - a[i]) * t for i in range(len(a))]

    return Curve(coords_fn, domain=domain, params={"family": "segment", "p0": a, "p1": b})
