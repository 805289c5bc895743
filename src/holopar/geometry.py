"""Charts, points, tangent vectors, fields, frames, coframes and curves.

Everything lives in a single global chart whose domain is an open
axis-aligned box. A vector field is evaluated through jets alone, so
first derivatives (Jacobians, brackets, velocities) are exact to
rounding. Finite differences are taken only where no closed form
exists, always through ``central_differences`` (step FD_STEP = 1e-5):
the Jacobian of a frame given by a matrix function (an ODE-built
trivialization) and the default gradient of a norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RegularityError, SingularFrameError
from .jets import Jet, as_jet, seed_jets

FD_STEP = 1e-5
DET_FLOOR = 1e-12


def central_differences(fn, x):
    """Central differences of fn at points x (..., n) along each
    coordinate, step FD_STEP: fn (..., *out) gives (..., n, *out).

    The direction axis sits right after the point axes (axis x.ndim - 1),
    so a Jacobian transposed to direction-last stays a view of a
    derivative-major array.
    """
    x = np.asarray(x, dtype=float)
    diffs = np.stack([fn(x + h) - fn(x - h) for h in FD_STEP * np.eye(x.shape[-1])],
                     axis=x.ndim - 1)
    diffs /= 2 * FD_STEP
    return diffs


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; bounds may be infinite, not NaN."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        # not (a < b), so that a NaN bound is refused too
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo {self.lo}, hi {self.hi}")

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
    """Smooth vector field on a chart domain, given by a component
    callable on a tuple of scalars or Jets: derivatives are exact, and
    jets may nest."""

    def __init__(self, dim, components, domain=None):
        self.dim = dim
        self.domain = domain
        self._components = components

    def __call__(self, xs):
        """Evaluate components on a tuple of scalars/Jets."""
        return self._components(xs)

    def values_batch(self, coords):
        coords = np.asarray(coords, dtype=float)
        vals = np.empty(coords.shape)
        self._jets_into(coords, (), vals, None)
        return vals

    def jacobian_batch(self, coords):
        """Components and Jacobian at a batch of points: (m,n), (m,n,n)."""
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        vals, jac = np.empty((m, n)), np.empty((m, n, n))
        self._jets_into(coords, None, vals, jac)
        return vals, jac

    def _jets_into(self, coords, directions, vals, parts):
        """Write the components into vals (m, n) and their derivatives
        into parts (m, n, k); both may be views of larger arrays.

        The jets are seeded with ``directions`` (as in ``seed_jets``):
        None gives the Jacobian, k directions the derivatives along each,
        and () the values alone (parts unused).
        """
        n = coords.shape[1]
        xs = seed_jets(tuple(coords[:, d] for d in range(n)), directions)
        k = n if directions is None else len(directions)
        for i, c in enumerate(self._components(xs)):
            c = as_jet(c, k)
            vals[:, i] = c.value
            for d, p in enumerate(c.partials):
                parts[:, i, d] = p

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

    def comps(xs):
        seeded = seed_jets(xs)
        Xc = [as_jet(c, n) for c in X(seeded)]
        Yc = [as_jet(c, n) for c in Y(seeded)]
        return [sum(Xc[j].value * Yc[i].partials[j] - Yc[j].value * Xc[i].partials[j]
                    for j in range(n)) for i in range(n)]
    return VectorField(n, components=comps, domain=X.domain or Y.domain)


class Frame:
    """n vector fields with everywhere-invertible component matrix, or a
    matrix function (m, n) -> (m, n, n) (an ODE-built trivialization),
    which has no fields and is differentiated by central differences.

    ``coordinate`` is True only on the frames of ``coordinate_frame``,
    whose matrix is the identity and whose derivative vanishes.
    """

    coordinate = False

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

    @property
    def fields(self):
        """The frame's vector fields; a frame given by a matrix function
        has none, and is refused."""
        if self._fields is None:
            raise PreconditionError("a frame given by a matrix function has no vector fields")
        return self._fields

    def matrix_batch(self, coords):
        """Component matrices E with E[:, a, j] = (E_j)^a: (m,n,n)."""
        coords = np.asarray(coords, dtype=float)
        if self._fields is None:
            return np.asarray(self._matrix_fn(coords), dtype=float)
        return np.stack([f.values_batch(coords) for f in self._fields], axis=2)

    def matrix_jacobian_batch(self, coords):
        """E (m,n,n) and dE (m,n,n,n) with dE[:, a, k, d] = d_d (E_k)^a.

        dE is a view of a derivative-major (m, d, a, k) array, so the
        rows (d, a) reshape to an (m, n*n, n) stack without a copy.
        """
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        if self._fields is None:
            E = np.asarray(self._matrix_fn(coords), dtype=float)
            return E, central_differences(self._matrix_fn, coords).transpose(0, 2, 3, 1)
        E = np.empty((m, n, n))
        dE = np.empty((m, n, n, n)).transpose(0, 2, 3, 1)
        for k, f in enumerate(self._fields):
            f._jets_into(coords, None, E[:, :, k], dE[:, :, k])
        return E, dE

    def matrix_derivative_batch(self, coords, vectors):
        """E (m,n,n) and its derivative along vectors (m,n): d_v E (m,n,n),
        (d_v E)[:, a, k] = v^d d_d (E_k)^a.

        A frame of fields takes both from one jet pass seeded along v,
        one partial per variable. A frame given by a matrix function
        contracts matrix_jacobian_batch with v, one (1, n) @ (n, n*n)
        product per point over its derivative-major dE.
        """
        coords = np.asarray(coords, dtype=float)
        v = np.asarray(vectors, dtype=float)
        m, n = coords.shape
        if self._fields is None:
            E, dE = self.matrix_jacobian_batch(coords)
            rows = dE.transpose(0, 3, 1, 2).reshape(m, n, n * n)
            return E, (v[:, None, :] @ rows).reshape(m, n, n)
        E, dvE = np.empty((m, n, n)), np.empty((m, n, n))
        along = (np.ascontiguousarray(v.T),)
        for k, f in enumerate(self._fields):
            f._jets_into(coords, along, E[:, :, k], dvE[:, :, k, None])
        return E, dvE

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


def dual_coframe(frame):
    return Coframe(frame)


def coordinate_frame(n, domain=None):
    fields = [constant_field(tuple(1.0 if i == k else 0.0 for i in range(n)), domain)
              for k in range(n)]
    frame = Frame(fields=fields, domain=domain)
    frame.coordinate = True
    return frame


class Curve:
    """Regular curve [0,1] -> chart domain, velocity via a jet in t.

    A curve of a coordinate family, ``Curve.of(fn, args, key)``, has the
    coordinates fn(t, *args, *key); ``curve_positions_velocities``
    evaluates all curves with the same fn and key in one jet pass. Any
    other curve is evaluated alone.
    """

    def __init__(self, coords_fn, domain=None, params=None):
        self.coords_fn = coords_fn
        self.domain = domain
        self.params = params or {}
        self.family = None

    @classmethod
    def of(cls, fn, args, key=(), domain=None, params=None):
        """The curve t -> fn(t, *args, *key). Each arg is a float or a
        (nested) list of floats; fn must also accept each float replaced
        by a (g, 1) column of g curves' values."""
        curve = cls(lambda t: fn(t, *args, *key), domain, params)
        curve.family = (fn, key, args)
        return curve

    def point(self, t):
        cs = self.coords_fn(t)
        return ChartPoint(np.asarray([float(c) for c in cs]))

    def positions_velocities(self, ts):
        """Positions and velocities at parameters ts (T,): (T, n) each."""
        pos, vel = curve_positions_velocities([self], ts)
        return pos[0], vel[0]

    def validate(self, samples=64):
        inside, regular = check_curves([self], samples)
        if not inside[0]:
            raise DomainError("curve leaves the chart domain")
        if not regular[0]:
            raise RegularityError("curve velocity vanishes at a sampled parameter")
        return self


def _stacked(args):
    """Per-curve args of one family stacked for one call of its fn: a
    float becomes a (g, 1) column, and a list's entries become columns."""
    return [np.moveaxis(np.asarray(vals, dtype=float), 0, -1)[..., None]
            for vals in zip(*args)]


def curve_positions_velocities(curves, ts):
    """Positions and velocities of curves at shared parameters ts (T,):
    two (m, T, n) arrays.

    Curves of one family (same fn and key) run as one jet pass of fn with
    their args stacked along a leading axis; any other curve, and a
    family of one, runs its own coords_fn. The arithmetic per entry is
    the same either way, so the bits do not depend on the grouping.
    """
    ts = np.asarray(ts, dtype=float)
    tj = Jet(ts, (1.0,))
    groups = {}
    for c, curve in enumerate(curves):
        groups.setdefault(curve if curve.family is None else curve.family[:2], []).append(c)
    pos = vel = np.empty((0, ts.size, 0))
    for members in groups.values():
        first = curves[members[0]]
        if len(members) == 1:
            cs = first.coords_fn(tj)
        else:
            fn, key, _ = first.family
            cs = fn(tj, *_stacked([curves[c].family[2] for c in members]), *key)
        if pos.shape[0] == 0:             # the first group gives the dimension
            pos = np.empty((len(curves), ts.size, len(cs)))
            vel = np.empty_like(pos)
        shape = (len(members), ts.size)
        for d, x in enumerate(cs):
            x = as_jet(x, 1)
            pos[members, :, d] = np.broadcast_to(x.value, shape)
            vel[members, :, d] = np.broadcast_to(x.partials[0], shape)
    return pos, vel


def check_curves(curves, samples=64):
    """Which curves pass ``Curve.validate``: boolean (m,) arrays inside
    (every sample in the curve's domain, if it has one) and regular (no
    sampled speed below 1e-9), from one evaluation of all curves at
    `samples` equispaced parameters."""
    pos, vel = curve_positions_velocities(curves, np.linspace(0.0, 1.0, samples))
    inside = np.ones(len(curves), dtype=bool)
    for c, curve in enumerate(curves):
        if curve.domain is not None:
            inside[c] = np.all(curve.domain.contains_batch(pos[c]))
    regular = ~np.any(np.linalg.norm(vel, axis=2) < 1e-9, axis=1)
    return inside, regular


def segment_coords(t, a, b):
    """Coordinates of the segment from a to b."""
    return [a[i] + (b[i] - a[i]) * t for i in range(len(a))]


def segment(p0, p1, domain=None):
    # plain floats: numpy scalars do not defer cleanly to Jet arithmetic
    a = [float(c) for c in np.asarray(p0, dtype=float)]
    b = [float(c) for c in np.asarray(p1, dtype=float)]
    return Curve.of(segment_coords, (a, b), domain=domain,
                    params={"family": "segment", "p0": a, "p1": b})
