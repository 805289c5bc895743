"""Jet arithmetic: exact derivative propagation."""

import operator

import numpy as np
import pytest

from holopar.jets import Jet, jexp, jsin, jsqrt, seed_jets, smooth_step

RNG = np.random.default_rng(3)


def test_variable_seeding_gives_basis_partials():
    x, y = seed_jets((2.0, 5.0))
    assert x.partials == (1.0, 0.0)
    assert y.partials == (0.0, 1.0)


def test_product_rule_exact():
    for _ in range(50):
        a, da, b, db = RNG.uniform(-10, 10, 4)
        h = Jet(a, (da,)) * Jet(b, (db,))
        assert h.value == a * b
        assert h.partials[0] == da * b + a * db


def test_sum_and_difference_linear():
    for _ in range(50):
        a, da, b, db = RNG.uniform(-10, 10, 4)
        f = Jet(a, (da,))
        g = Jet(b, (db,))
        assert (f + g).partials[0] == da + db
        assert (f - g).partials[0] == da - db


def test_quotient_rule():
    f = Jet(3.0, (2.0,))
    g = Jet(4.0, (-1.0,))
    h = f / g
    assert h.value == pytest.approx(0.75)
    assert h.partials[0] == pytest.approx((2.0 * 4.0 - 3.0 * (-1.0)) / 16.0)


def test_chain_rule_through_sqrt_sin_exp():
    x = Jet(2.0, (1.0,))
    s = jsqrt(x * x + 1.0)
    assert s.value == pytest.approx(np.sqrt(5.0))
    assert s.partials[0] == pytest.approx(2.0 / np.sqrt(5.0))
    assert jsin(x).partials[0] == pytest.approx(np.cos(2.0))
    assert jexp(x).partials[0] == pytest.approx(np.exp(2.0))


def test_power_with_constant_exponent():
    x = Jet(3.0, (1.0,))
    assert (x ** 4).partials[0] == pytest.approx(4 * 27.0)


def test_batched_values_broadcast():
    xs = np.linspace(0.0, 1.0, 7)
    j = Jet(xs, (1.0,))
    out = jsin(j * 2.0)
    assert np.allclose(out.value, np.sin(2 * xs))
    assert np.allclose(out.partials[0], 2 * np.cos(2 * xs))


def test_nested_jets_give_second_derivatives():
    # d^2/dx^2 of x^3 via a jet whose value is itself a jet
    inner = Jet(2.0, (1.0,))
    outer = Jet(inner, (Jet(1.0, (0.0,)),))
    cube = outer * outer * outer
    assert cube.value.partials[0] == pytest.approx(12.0)   # 3x^2
    assert cube.partials[0].partials[0] == pytest.approx(12.0)  # 6x


def test_smooth_step_endpoints_and_monotone():
    ts = np.linspace(-0.5, 1.5, 101)
    vals = smooth_step(ts)
    assert np.all(vals[ts <= 0.0] == 0.0)
    assert np.all(vals[ts >= 1.0] == 1.0)
    inside = vals[(ts > 0) & (ts < 1)]
    assert np.all(np.diff(inside) > 0)


def test_smooth_step_jet_derivative_matches_fd():
    h = 1e-6
    for t0 in (0.2, 0.5, 0.8):
        j = smooth_step(Jet(t0, (1.0,)))
        fd = (smooth_step(t0 + h) - smooth_step(t0 - h)) / (2 * h)
        assert j.partials[0] == pytest.approx(float(fd), rel=1e-6)


def test_smooth_step_slope_is_zero_where_a_bump_vanishes():
    # below about 1e-154, t**2 underflows along with exp(-1/t): the slope
    # is the limit 0, not 0/0
    ts = np.array([-1.0, 0.0, 1e-300, 1e-3, 1.0 - 1e-16, 1.0, 2.0])
    slope = smooth_step(Jet(ts, (np.ones_like(ts),))).partials[0]
    assert np.array_equal(slope, np.zeros_like(ts))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_ndarray_on_the_left_gives_the_jet_result(op):
    # without __array_ufunc__ = None numpy broadcast over the Jet as an
    # object and returned an object array of Jets
    fn = getattr(operator, op)
    a = RNG.uniform(0.5, 2.0, 2)
    j = Jet(RNG.uniform(0.5, 2.0, 2), (RNG.uniform(-1, 1, 2), RNG.uniform(-1, 1, 2)))
    for left in (a, np.float64(1.7)):
        got = fn(left, j)
        assert isinstance(got, Jet)
        want = fn(Jet.constant(left, 2), j)
        assert np.array_equal(got.value, want.value)
        assert all(np.array_equal(g, w) for g, w in zip(got.partials, want.partials))
        if op in ("add", "mul"):
            flipped = fn(j, left)
            assert np.array_equal(got.value, flipped.value)
            assert all(np.array_equal(g, w) for g, w in zip(got.partials, flipped.partials))
