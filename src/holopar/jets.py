"""First-order forward-mode jets (dual numbers with n partials).

A ``Jet`` carries a value and its partial derivatives with respect to n
independent variables. Arithmetic propagates derivatives exactly (to
rounding), which is what the Lie bracket, Christoffel transforms and
curve velocities are built on. Values and partials may be floats, numpy
arrays (batched evaluation) or Jets themselves (nested, for second-order
quantities such as iterated brackets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SCALARS = (int, float, np.integer, np.floating, np.ndarray)


@dataclass(frozen=True)
class Jet:
    value: object
    partials: tuple

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
            return Jet(self.value * inv,
                       tuple((a * other.value - self.value * b) * inv * inv
                             for a, b in zip(self.partials, other.partials)))
        if isinstance(other, _SCALARS):
            return Jet(self.value / other, tuple(p / other for p in self.partials))
        return NotImplemented

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return Jet(other * inv,
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
    its derivatives along those directions; no directions give
    value-only jets. A jet's value never depends on its partials.
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


def jsin(x):
    if isinstance(x, Jet):
        # a value-only jet (no partials) needs no derivative factor
        c = jcos(x.value) if x.partials else None
        return Jet(jsin(x.value), tuple(p * c for p in x.partials))
    return np.sin(x)


def jcos(x):
    if isinstance(x, Jet):
        s = jsin(x.value) if x.partials else None
        return Jet(jcos(x.value), tuple(-p * s for p in x.partials))
    return np.cos(x)


def _bump_g(t):
    # exp(-1/t) for t > 0, 0 otherwise; the standard mollifier glue.
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / t), 0.0)


def smooth_step_num(t):
    """C^inf step: 0 for t<=0, 1 for t>=1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    g = _bump_g(t)
    h = _bump_g(1.0 - t)
    return g / (g + h)


def smooth_step(t):
    """Jet-aware smooth step (values may be floats or arrays); a Jet's
    value and slope come from one pair of bumps."""
    if not isinstance(t, Jet):
        return smooth_step_num(t)
    if not t.partials:                      # value-only: no slope
        return Jet(smooth_step_num(t.value), ())
    x = np.asarray(t.value, dtype=float)
    g = _bump_g(x)
    h = _bump_g(1.0 - x)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (g / x ** 2 * h + g * (h / (1.0 - x) ** 2)) / (g + h) ** 2
    # zero wherever a bump is: outside (0, 1), and where exp(-1/x) underflows
    # (there x**2 may underflow too, leaving 0/0)
    slope = np.where((g > 0.0) & (h > 0.0), slope, 0.0)
    return Jet(g / (g + h), tuple(p * slope for p in t.partials))
