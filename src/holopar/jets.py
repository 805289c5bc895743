"""First-order forward-mode jets (dual numbers with n partials).

A ``Jet`` carries a value and its partial derivatives with respect to n
independent variables. Arithmetic propagates derivatives exactly (to
rounding), which is what the Lie bracket, Christoffel transforms and
curve velocities are built on. Values and partials may be floats, numpy
arrays (batched evaluation) or Jets themselves (nested, for second-order
quantities such as iterated brackets). A value is the plain operation's
(a quotient's is a / b), so jets keep a plain pass's values bit for bit.
``jsincos`` shares one sin and one cos; ``smooth_step`` takes exp only
where the step is neither 0 nor 1.
"""

from __future__ import annotations

import numpy as np

_SCALARS = (int, float, np.integer, np.floating, np.ndarray)


class Jet:
    """A value and its partials, one per seeded direction."""

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    # an ndarray on the left defers to the reflected operators below
    # instead of broadcasting over the Jet as an object
    __array_ufunc__ = None

    @staticmethod
    def constant(c, n):
        return Jet(c, (0.0,) * n)

    @staticmethod
    def variable(x, i, n):
        return Jet(x, tuple(1.0 if d == i else 0.0 for d in range(n)))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value,
                       tuple(a + b for a, b in zip(self.partials, other.partials)))
        if isinstance(other, _SCALARS):
            return Jet(self.value + other, self.partials)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, tuple(-p for p in self.partials))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value * other.value,
                       tuple(a * other.value + self.value * b
                             for a, b in zip(self.partials, other.partials)))
        if isinstance(other, _SCALARS):
            return Jet(self.value * other, tuple(p * other for p in self.partials))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / other.value
            return Jet(self.value / other.value,
                       tuple((a * other.value - self.value * b) * inv * inv
                             for a, b in zip(self.partials, other.partials)))
        if isinstance(other, _SCALARS):
            return Jet(self.value / other, tuple(p / other for p in self.partials))
        return NotImplemented

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return Jet(other / self.value,
                   tuple(-other * p * inv * inv for p in self.partials))

    def __pow__(self, k):
        if not isinstance(k, _SCALARS):
            return NotImplemented
        v = self.value ** k
        dv = k * self.value ** (k - 1)
        return Jet(v, tuple(p * dv for p in self.partials))


def as_jet(x, n):
    """Promote a scalar to a constant Jet with n partials."""
    return x if isinstance(x, Jet) else Jet.constant(x, n)


def seed_jets(values, directions=None):
    """Seed independent variables: values[i] becomes the i-th variable Jet.

    Its partials are the coordinate basis when ``directions`` is None, so
    a result's partials are its gradient. Otherwise directions[j][i] is
    the i-th component of the j-th direction, so a result's partials are
    its derivatives along those directions. A jet's value never depends
    on its partials.
    """
    n = len(values)
    if directions is None:
        return tuple(Jet.variable(values[i], i, n) for i in range(n))
    return tuple(Jet(values[i], tuple(d[i] for d in directions)) for i in range(n))


def _lift(fn_num, fn_jet):
    def wrapped(x):
        if isinstance(x, Jet):
            return fn_jet(x)
        return fn_num(x)
    return wrapped


jsqrt = _lift(np.sqrt, lambda x: (lambda s: Jet(s, tuple(p / (2.0 * s) for p in x.partials)))(jsqrt(x.value)))
jexp = _lift(np.exp, lambda x: (lambda e: Jet(e, tuple(p * e for p in x.partials)))(jexp(x.value)))


def jsincos(x):
    """(sin x, cos x) of a float, array or Jet, from one np.sin and one
    np.cos of the value; ``jsin`` and ``jcos`` are its halves."""
    if isinstance(x, Jet):
        s, c = jsincos(x.value)
        return (Jet(s, tuple(p * c for p in x.partials)),
                Jet(c, tuple(-p * s for p in x.partials)))
    return np.sin(x), np.cos(x)


jsin = _lift(np.sin, lambda x: jsincos(x)[0])
jcos = _lift(np.cos, lambda x: jsincos(x)[1])


def smooth_step_num(t, slope=False):
    """C^inf step: 0 for t<=0, 1 for t>=1, strictly increasing between;
    with `slope`, (step, derivative). Floats or arrays; exp is taken only
    inside 0 < t < 1, and elsewhere the step is exactly 0 or 1 with slope
    0 (NaN stays NaN), the bits the formula gives there."""
    t = np.asarray(t, dtype=float)
    val = np.asarray(t >= 1.0, dtype=float)
    val[np.isnan(t)] = np.nan
    band = np.flatnonzero((t > 0.0) & (t < 1.0))
    x = t.take(band)
    u = 1.0 - x
    with np.errstate(over="ignore", invalid="ignore"):
        g, h = np.exp(-1.0 / x), np.exp(-1.0 / u)
        val.put(band, g / (g + h))
        if not slope:
            return val[()]
        s = (g / x ** 2 * h + g * (h / u ** 2)) / (g + h) ** 2
    der = np.zeros(t.shape)
    # zero where a bump underflows (there x**2 may underflow too, leaving 0/0)
    der.put(band, np.where((g > 0.0) & (h > 0.0), s, 0.0))
    return val[()], der[()]


def smooth_step(t):
    """Jet-aware smooth step (values may be floats or arrays); a Jet's
    value and slope come from one pair of bumps."""
    if not isinstance(t, Jet):
        return smooth_step_num(t)
    val, slope = smooth_step_num(t.value, slope=True)
    return Jet(val, tuple(p * slope for p in t.partials))
