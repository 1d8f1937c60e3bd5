"""Dual / hyper-dual arithmetic against hand-written analytic derivatives."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from singarc.duals import (Dual, HyperDual, OffTrace, Tape, cos, seed, sin,
                           value)


def _g(t):
    # generic smooth expression touching *, /, sin, cos
    return sin(t) * (t * t * t) / (2.0 + cos(t))


def _g_prime(t):
    num = math.sin(t) * t ** 3
    dnum = math.cos(t) * t ** 3 + 3.0 * t ** 2 * math.sin(t)
    den = 2.0 + math.cos(t)
    return (dnum * den + num * math.sin(t)) / den ** 2


def test_first_derivative_matches_analytic():
    for t0 in (0.3, -1.7, 2.9):
        y = _g(Dual(t0, 1.0))
        assert y.re == pytest.approx(_g(t0), rel=1e-15)
        assert y.im == pytest.approx(_g_prime(t0), rel=1e-13)


def test_second_derivative_of_polynomial_is_exact():
    t0 = 1.5
    y = _g_abstract_poly(Dual(Dual(t0, 1.0), Dual(1.0, 0.0)))
    assert y.im.im == 12.0 * t0 ** 2


def _g_abstract_poly(t):
    return t * t * t * t + 2.0 * t


def test_nested_dual_and_hyperdual_agree_on_cross_derivative():
    x0, y0 = 0.7, -0.4

    def f(x, y):
        # y * y: no scalar type of duals has **
        return sin(x * y) + x / (1.0 + y * y)

    nested = f(Dual(Dual(x0, 1.0), Dual(0.0, 0.0)),
               Dual(Dual(y0, 0.0), Dual(1.0, 0.0)))
    flat = f(HyperDual(x0, 1.0, 0.0, 0.0), HyperDual(y0, 0.0, 1.0, 0.0))

    exact = (math.cos(x0 * y0) - x0 * y0 * math.sin(x0 * y0)
             - 2.0 * y0 / (1.0 + y0 ** 2) ** 2)
    assert nested.im.im == pytest.approx(exact, rel=1e-12)
    assert flat.d == pytest.approx(exact, rel=1e-12)
    assert flat.a == nested.re.re
    assert flat.b == pytest.approx(nested.re.im, rel=1e-15)
    assert flat.c == pytest.approx(nested.im.re, rel=1e-15)
    assert flat.d == pytest.approx(nested.im.im, rel=1e-14)


def test_hyperdual_reciprocal_curvature():
    h = 1.0 / HyperDual(2.0, 1.0, 1.0, 0.0)
    assert h.a == 0.5
    assert h.b == -0.25 and h.c == -0.25
    assert h.d == 0.25  # d^2/dt^2 [1/t] = 2/t^3 at t=2


def test_reflected_operations():
    d = Dual(2.0, 1.0)
    y = 3.0 / d
    assert y.re == 1.5 and y.im == -0.75
    z = 5.0 - d
    assert z.re == 3.0 and z.im == -1.0
    w = np.float64(2.0) * d
    assert type(w) is Dual and w.im == 2.0


def test_value_strips_all_levels():
    assert value(5.0) == 5.0
    assert value(Dual(Dual(3.0, 1.0), Dual(1.0, 0.0))) == 3.0
    assert value(HyperDual(2.0, 9.0, 9.0, 9.0)) == 2.0


def test_seed_and_tangent_round_trip():
    xs = seed([1.0, 2.0], [3.0, 4.0])
    assert all(type(v) is Dual for v in xs)
    assert [v.re for v in xs] == [1.0, 2.0]
    assert [v.im for v in xs] == [3.0, 4.0]


def test_trig_forwards_plain_arrays_to_numpy():
    a = np.linspace(-1.0, 1.0, 7)
    npt.assert_array_equal(sin(a), np.sin(a))
    npt.assert_array_equal(cos(a), np.cos(a))


def test_dual_with_array_components_batches_the_derivative():
    t = np.linspace(0.1, 2.0, 11)
    d = Dual(t, np.ones_like(t))
    y = sin(d * d)
    npt.assert_allclose(y.re, np.sin(t ** 2), rtol=1e-15)
    npt.assert_allclose(y.im, 2.0 * t * np.cos(t ** 2), rtol=1e-13)


def test_tape_rewrites_only_exact_identities():
    tape = Tape()
    x, y = tape.input("x"), tape.input("y")
    assert type(x * 0.0) is float and x * 0.0 == 0.0   # structural zero
    assert x * 1.0 is x and x + 0.0 is x and x - 0.0 is x
    assert x * y is y * x and x + y is y + x          # shared, canonical
    assert x - y is not y - x and x / y is not y / x
    assert type(0.0 / x) is float and 0 / x == 0.0   # folded, checked
    sin(x) * 3.0                                       # recorded, unused
    fn = tape.compile([x * y + 2.0, (x / y, 0.0 - x, cos(y))])
    assert fn(3.0, 4.0) == [14.0, (0.75, -3.0, math.cos(4.0))]
    assert "sin" not in fn.source and "3.0" not in fn.source
    # the folded 0/x divides by nothing and keeps a zero check of x
    assert "0.0 / x" not in fn.source
    assert "if x == 0.0: raise ZeroDivisionError" in fn.source
    with pytest.raises(ZeroDivisionError):
        fn(0.0, 4.0)


def _zero_over(batched):
    tape = Tape()
    x = tape.input("x")
    return tape.compile([0.0 / x, x + 1.0], batched=batched)


def test_a_folded_zero_over_x_raises_where_the_division_raises():
    """0.0 / x compiles to the structural 0.0 behind a zero check of x: the
    float form raises ZeroDivisionError at x = +-0.0, as 0.0 / x does, and
    returns 0.0 at finite nonzero x and at +-inf; the batched form masks
    exactly the zero samples."""
    fn = _zero_over(batched=False)
    for x in (0.0, -0.0):
        with pytest.raises(ZeroDivisionError):
            0.0 / x
        with pytest.raises(ZeroDivisionError):
            fn(x)
    xs = [2.5, -3.0, 5e-324, -1e300, math.inf, -math.inf]
    for x in xs:
        assert fn(x) == [0.0 / x, x + 1.0] and fn(x)[0] == 0.0
    batch = np.array([1.0, 0.0, math.inf, -0.0, 5e-324, -math.inf, -2.0])
    with np.errstate(all="ignore"):
        (zero, inc), bad = _zero_over(batched=True)(batch)
    npt.assert_array_equal(bad, batch == 0.0)
    assert zero == 0.0
    npt.assert_array_equal(inc, batch + 1.0)


def test_a_float_kernel_reuses_the_names_of_dead_temporaries():
    """A chain of 400 sines needs one temporary name, not 400: each name
    is free again once its value's last reader has run."""
    tape = Tape()
    v = x = tape.input("x")
    for _ in range(400):
        v = sin(v)
    fn = tape.compile([v, x * 2.0])
    want = 0.5
    for _ in range(400):
        want = math.sin(want)
    assert fn(0.5) == [want, 1.0]
    assert fn.__code__.co_nlocals == 2


def test_tape_checks_and_divisions_stay_in_recorded_order():
    tape = Tape()
    x, y = tape.input("x"), tape.input("y")
    if abs(x) <= y:          # records a check; the trace takes the else
        raise AssertionError("a recorded condition answers False")
    _dead = 1.0 / y          # unused, but it can raise like the original
    fn = tape.compile(x + y)
    assert fn(2.0, 1.0) == 3.0
    with pytest.raises(OffTrace):
        fn(0.5, 1.0)
    with pytest.raises(ZeroDivisionError):
        fn(-2.0, 0.0)
    with pytest.raises(TypeError):
        bool(x + y)          # only comparisons can steer a trace
    with pytest.raises(TypeError):
        x * Dual(1.0, 2.0)   # a Rec records plain-scalar operations only
