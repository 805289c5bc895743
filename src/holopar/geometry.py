"""Charts, frames and curves.

Everything lives in a single global chart whose domain is an open
axis-aligned box. A point is its coordinates, an (n,) array, and a batch
of points an (m, n) array; a tangent vector is its coordinate
components, in the same shapes. A frame is its invertible component
matrix: ``invert_frames`` gives its coframe and refuses |det| <=
DET_FLOOR, and ``holopar.fixtures.build_frame`` samples a spec frame on
its box. A jet frame's values are one plain pass of its n*n entries, its
derivatives one jet pass, exact to rounding. A curve's velocity is a jet
too: one jet pass evaluates a family of curves (coordinates fn(t, *args,
*key), args stacked; see ``family_evaluator``). Finite differences are
taken only where no closed form exists, always through
``central_differences`` (step FD_STEP = 1e-5), and only for a frame
given by a matrix function (an ODE-built trivialization): its Jacobian
and, in 3 calls of the function, its derivative along a vector (the
Jacobian of the frame on the line through the vector). A norm's gradient
is a jet pass of its evaluator (``holopar.norms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegularityError, SingularFrameError
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
        """Which points (..., n) lie inside: bools (...), one for (n,)."""
        c = np.asarray(coords, dtype=float)
        return np.all((c > np.asarray(self.lo)) & (c < np.asarray(self.hi)), axis=-1)

    def sample(self, rng, count, margin=0.0):
        """Uniform points, shrunk by `margin` (fraction of each side)."""
        box = self.shrink(margin)
        return rng.uniform(box.lo, box.hi, size=(count, self.dim))

    def shrink(self, margin):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise DomainError(f"cannot sample or shrink {self}: it has an infinite bound")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        with np.errstate(over="ignore"):
            side = hi - lo
        if not np.all(np.isfinite(side)):
            raise DomainError(f"cannot sample or shrink {self}: a side overflows")
        return Box(tuple(lo + margin * side), tuple(hi - margin * side))

    def intersection(self, other):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)


class Frame:
    """n vector fields E_k, given by their everywhere-invertible component
    matrix E (E[:, a, k] = (E_k)^a) alone: one jet callable of its n*n
    entries on a tuple of n scalars or Jets, row by row ((E_k)^a at
    a*n + k, so one pass shares whatever the entries share), or a matrix
    function (m, n) -> (m, n, n) (an ODE-built trivialization), which is
    differentiated by central differences: its Jacobian in 2n + 1 calls,
    its derivative along a vector in 3.

    ``coordinate`` is True only on the frames of ``coordinate_frame``,
    whose matrix is the identity and whose derivative vanishes.
    """

    coordinate = False

    def __init__(self, entries=None, dim=None, matrix_fn=None, domain=None):
        if dim is None or (entries is None) == (matrix_fn is None):
            raise ValueError("need dim and one of entries or matrix_fn")
        self._entries = entries
        self._matrix_fn = matrix_fn
        self.dim = dim
        self.domain = domain

    def _jets_into(self, coords, directions, E, dE):
        """Write the entries at coords (m, n) into E (m, n, n) and their
        derivatives into dE (m, n, n, k), in one jet pass seeded with
        ``directions`` (as in ``seed_jets``: None gives the Jacobian, k
        directions the derivatives along each); both may be views of
        larger arrays, whose (a, k) axes must merge.
        """
        m, n = coords.shape
        xs = seed_jets(tuple(coords[:, d] for d in range(n)), directions)
        k = n if directions is None else len(directions)
        vals = E.reshape(m, n * n, copy=False)
        parts = dE.reshape(m, n * n, -1, copy=False)
        for i, c in enumerate(self._entries(xs)):
            c = as_jet(c, k)
            vals[:, i] = c.value
            for d, p in enumerate(c.partials):
                parts[:, i, d] = p

    def matrix_batch(self, coords):
        """Component matrices E with E[:, a, j] = (E_j)^a: (m,n,n); a jet
        frame's from one plain pass of its entries, the E of its jet
        passes bit for bit (a jet's value is the plain operation's)."""
        coords = np.asarray(coords, dtype=float)
        if self._matrix_fn is not None:
            return np.asarray(self._matrix_fn(coords), dtype=float)
        m, n = coords.shape
        E = np.empty((m, n, n))
        vals = E.reshape(m, n * n)
        for i, c in enumerate(self._entries(tuple(coords[:, d] for d in range(n)))):
            vals[:, i] = c
        return E

    def matrix_jacobian_batch(self, coords):
        """E (m,n,n) and dE (m,n,n,n) with dE[:, a, k, d] = d_d (E_k)^a.

        dE is a view of a derivative-major (m, d, a, k) array, so the
        rows (d, a) reshape to an (m, n*n, n) stack without a copy.
        """
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        if self._matrix_fn is not None:
            E = np.asarray(self._matrix_fn(coords), dtype=float)
            return E, central_differences(self._matrix_fn, coords).transpose(0, 2, 3, 1)
        E = np.empty((m, n, n))
        dE = np.empty((m, n, n, n)).transpose(0, 2, 3, 1)
        self._jets_into(coords, None, E, dE)
        return E, dE

    def matrix_derivative_batch(self, coords, vectors):
        """E (m,n,n) and its derivative along vectors (m,n): d_v E (m,n,n),
        (d_v E)[:, a, k] = v^d d_d (E_k)^a.

        A jet frame takes both from one jet pass seeded along v,
        one partial per variable, and writes them into component-major
        (n, n, m) planes: E and d_v E are views of them. A frame given by
        a matrix function takes one central difference along the unit
        vector u = v/|v|, |v| (E(x + h u) - E(x - h u)) / 2h: the
        Jacobian of the line frame s -> E(x + s u) at s = 0, taken by
        matrix_jacobian_batch, so 3 calls of the matrix function instead
        of the 2n + 1 of the full Jacobian. A coordinate direction gives
        the Jacobian's column bit for bit, and a zero row of v a zero
        derivative.
        """
        coords = np.asarray(coords, dtype=float)
        v = np.asarray(vectors, dtype=float)
        m, n = coords.shape
        if self._matrix_fn is not None:
            speed = np.linalg.norm(v, axis=1, keepdims=True)
            unit = np.divide(v, speed, out=np.zeros_like(v), where=speed > 0)
            line = Frame(matrix_fn=lambda s: self._matrix_fn(coords + s * unit), dim=n)
            E, dE = line.matrix_jacobian_batch(np.zeros((m, 1)))
            return E, dE[..., 0] * speed[..., None]
        E, dvE = (np.empty((n, n, m)).transpose(2, 0, 1) for _ in range(2))
        self._jets_into(coords, (np.ascontiguousarray(v.T),), E, dvE[..., None])
        return E, dvE

    def matrix(self, p):
        return self.matrix_batch(np.asarray(p, dtype=float)[None, :])[0]


def invert_frames(E, what):
    """E^-1 of a batch (..., n, n) of frame matrices.

    Raises SingularFrameError ("singular <what>") when some |det E| is at
    most DET_FLOOR. For n = 2 the inverse is the adjugate over ad - bc,
    written into one output array laid out as E is (component-major
    planes stay planes); other n factorize through numpy.
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
    inv = np.empty_like(E)
    inv[..., 0, 0] = E[..., 1, 1]
    inv[..., 1, 1] = E[..., 0, 0]
    np.negative(E[..., 0, 1], out=inv[..., 0, 1])
    np.negative(E[..., 1, 0], out=inv[..., 1, 0])
    inv /= det[..., None, None]
    return inv


def matmul_planes(P, Q):
    """P Q for component-major stacks P (n, k, ...) and Q (k, l, ...):
    entry (i, l) is sum_j P[i, j] Q[j, l], j ascending, one whole-plane
    multiply and add per term instead of one small matrix product per
    point. Each term is written into one plane-sized scratch array: a
    temporary of all n*l planes per term was 4 to 9 times slower."""
    out = np.empty(P.shape[:1] + Q.shape[1:2] + np.broadcast_shapes(P.shape[2:], Q.shape[2:]))
    term = np.empty(out.shape[2:])
    for i in range(P.shape[0]):
        for l in range(Q.shape[1]):
            np.multiply(P[i, 0], Q[0, l], out=out[i, l])
            for j in range(1, P.shape[1]):
                out[i, l] += np.multiply(P[i, j], Q[j, l], out=term)
    return out


def apply_matrices(M, v):
    """M v for matrices M (..., n, n) and vectors v (..., n) whose leading
    axes broadcast: sum_j M[..., :, j] v[..., j] as whole-array
    multiply-adds, j ascending, so the bits do not depend on the memory
    layout of M (a matmul of a C-contiguous stack goes to BLAS and rounds
    differently from a strided one); for n = 2 the bits of np.einsum, at
    a quarter of its time on a section5 ensemble. v may be a vector jet."""
    out = M[..., :, 0] * v[..., None, 0]
    for j in range(1, M.shape[-1]):
        out += M[..., :, j] * v[..., None, j]
    return out


def coordinate_frame(n, domain=None):
    ident = tuple(1.0 if a == k else 0.0 for a in range(n) for k in range(n))
    frame = Frame(entries=lambda xs: ident, dim=n, domain=domain)
    frame.coordinate = True
    return frame


class Curve:
    """Regular curve [0,1] -> chart domain with the coordinates
    fn(t, *args, *key), its velocity a jet in t.

    Each arg is a float or a (nested) list of floats, and fn must also
    accept each float replaced by a (g,) row of g curves' values, with t
    a (T, 1) column: the curves with the same fn and key are one family,
    which ``curve_evaluator`` evaluates in one jet pass.
    ``Curve(lambda t: [...])`` is a family with no args.
    """

    def __init__(self, fn, args=(), key=(), domain=None, params=None):
        self.fn = fn
        self.args = tuple(args)
        self.key = tuple(key)
        self.domain = domain
        self.params = params or {}

    def point(self, t):
        return self.positions_velocities([t])[0][0]

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


def family_evaluator(families):
    """evaluate(ts) for curve families (fn, args, key, g), each g curves
    with the coordinates fn(t, *args, *key) and its args stacked as rows
    (a float of each curve in a (g,) row, a list's entries in rows; a
    (1,) row is shared by all g).

    evaluate(ts) gives the positions and velocities of the curves, family
    by family, at parameters ts (T,): two grid-major (T, m, n) arrays,
    points ordered (parameter, curve), each a view of component-major
    (n, T, m) planes, from one jet pass of each family's fn with t a
    (T, 1) column.
    """
    m = sum(g for *_, g in families)

    def evaluate(ts):
        ts = np.asarray(ts, dtype=float)
        t = Jet(ts[:, None], (1.0,))
        pos = vel = np.empty((0, ts.size, m))
        lo = 0
        for fn, args, key, g in families:
            cs = fn(t, *args, *key)
            if pos.shape[0] == 0:             # the first family gives the dimension
                pos = np.empty((len(cs), ts.size, m))
                vel = np.empty_like(pos)
            for d, x in enumerate(cs):
                x = as_jet(x, 1)
                pos[d, :, lo:lo + g] = x.value
                vel[d, :, lo:lo + g] = x.partials[0]
            lo += g
        return pos.transpose(1, 2, 0), vel.transpose(1, 2, 0)

    return evaluate


def curve_evaluator(curves):
    """The curves grouped by family (same fn and key) once, for
    evaluation at many parameter sets: (order, evaluate).

    order (m,) lists the curve indices family by family, the order in
    which ``family_evaluator`` evaluates them; each family's args are
    stacked once. The arithmetic per entry does not depend on a family's
    size, so neither do the bits.
    """
    groups = {}
    for c, curve in enumerate(curves):
        groups.setdefault((curve.fn, curve.key), []).append(c)
    families = [(fn, [np.moveaxis(np.asarray(vals, dtype=float), 0, -1)
                      for vals in zip(*(curves[c].args for c in members))], key, len(members))
                for (fn, key), members in groups.items()]
    order = np.array([c for members in groups.values() for c in members], dtype=int)
    return order, family_evaluator(families)


def curve_positions_velocities(curves, ts):
    """Positions and velocities of curves at shared parameters ts (T,):
    two (m, T, n) arrays, in the order of `curves`, from one
    ``curve_evaluator`` pass."""
    order, evaluate = curve_evaluator(curves)
    back = np.argsort(order)
    return tuple(x.swapaxes(0, 1)[back] for x in evaluate(ts))


def check_curves(curves, samples=64):
    """Which curves pass ``Curve.validate``: boolean (m,) arrays inside
    (every sample in the curve's domain, if it has one) and regular (no
    sampled speed below 1e-9), from one evaluation of all curves at
    `samples` equispaced parameters."""
    pos, vel = curve_positions_velocities(curves, np.linspace(0.0, 1.0, samples))
    inside = np.ones(len(curves), dtype=bool)
    for domain in {curve.domain for curve in curves} - {None}:   # one test per domain
        cs = [c for c, curve in enumerate(curves) if curve.domain == domain]
        inside[cs] = np.all(domain.contains(pos[cs]), axis=1)
    regular = ~np.any(np.linalg.norm(vel, axis=2) < 1e-9, axis=1)
    return inside, regular


def segment_coords(t, a, b):
    """Coordinates of the segment from a to b."""
    return [a[i] + (b[i] - a[i]) * t for i in range(len(a))]


def segment(p0, p1, domain=None):
    # plain floats: numpy scalars do not defer cleanly to Jet arithmetic
    a = [float(c) for c in np.asarray(p0, dtype=float)]
    b = [float(c) for c in np.asarray(p1, dtype=float)]
    return Curve(segment_coords, (a, b), domain=domain,
                 params={"family": "segment", "p0": a, "p1": b})
