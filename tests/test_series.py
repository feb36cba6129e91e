"""Series-in-1/u layer: windows, exactness, products, inverses, shifts."""

import random
from fractions import Fraction

import pytest

from yverma import (
    InputError,
    PolyQ,
    RationalFn,
    SERIES_ONE,
    SeriesU,
    TruncationError,
    expand_rational,
    parse_rational_fn,
    series_from_tail,
    series_inverse,
    series_mul,
    series_shift_argument,
)
from yverma.series import shifted_power_coeff


class TestSeriesU:
    def test_constant_term_must_be_one(self):
        with pytest.raises(InputError):
            SeriesU([2, 1])
        with pytest.raises(InputError):
            SeriesU([])

    def test_exact_strips_trailing_zeros(self):
        a = SeriesU([1, 2, 0, 0], exact=True)
        assert a.order == 1
        assert a.coeffs == (Fraction(1), Fraction(2))

    def test_inexact_keeps_window(self):
        a = SeriesU([1, 2, 0, 0], exact=False)
        assert a.order == 3

    def test_coeff_beyond_window(self):
        exact = SeriesU([1, 5], exact=True)
        assert exact.coeff(9) == 0
        trunc = SeriesU([1, 5], exact=False)
        assert trunc.coeff(1) == 5
        with pytest.raises(TruncationError) as exc:
            trunc.coeff(2)
        assert exc.value.needed == 2 and exc.value.order == 1

    def test_is_one(self):
        assert SERIES_ONE.is_one()
        assert not SeriesU([1, 1], exact=True).is_one()
        assert not series_from_tail([]).is_one()  # inexact window of order 0

    def test_equality_is_canonical(self):
        assert SeriesU([1, 2], exact=True) == SeriesU([1, 2, 0], exact=True)
        assert SeriesU([1, 2], exact=True) != SeriesU([1, 2], exact=False)


class TestMul:
    def test_exact_times_exact(self):
        a = SeriesU([1, 1], exact=True)
        b = SeriesU([1, -1], exact=True)
        p = series_mul(a, b)
        assert p.exact and p == SeriesU([1, 0, -1], exact=True)

    def test_exact_orders_add(self):
        a = SeriesU([1, 0, 1], exact=True)
        p = series_mul(a, a)
        assert p.exact and p.coeff(4) == 1 and p.order == 4

    def test_window_clamps_to_inexact_operand(self):
        a = SeriesU([1, 1, 1], exact=False)
        b = SeriesU([1, 5], exact=True)
        p = series_mul(a, b)
        assert not p.exact and p.order == 2
        assert p.coeffs == (Fraction(1), Fraction(6), Fraction(6))

    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(10):
            a = series_from_tail([rng.randint(-3, 3) for _ in range(5)])
            b = series_from_tail([rng.randint(-3, 3) for _ in range(7)])
            c = series_from_tail([rng.randint(-3, 3) for _ in range(6)])
            assert series_mul(a, b) == series_mul(b, a)
            lhs = series_mul(series_mul(a, b), c)
            rhs = series_mul(a, series_mul(b, c))
            assert [lhs.coeff(r) for r in range(6)] == [rhs.coeff(r) for r in range(6)]


class TestInverse:
    def test_inverse_times_self_is_one(self):
        a = series_from_tail([2, -1, 3, 5, 7])
        inv = series_inverse(a)
        p = series_mul(a, inv)
        assert all(p.coeff(r) == 0 for r in range(1, p.order + 1))

    def test_exact_inverse_of_polynomial_series(self):
        a = SeriesU([1, 1], exact=True)  # 1 + u^-1
        inv = series_inverse(a, order=5)
        assert inv.coeffs == tuple(Fraction((-1) ** r) for r in range(6))

    def test_order_required_past_window(self):
        a = series_from_tail([1, 2])
        with pytest.raises(TruncationError):
            series_inverse(a, order=5)


class TestShiftArgument:
    def test_shift_oracle(self):
        # (1 + (u-1)^-2) expanded back in u^-1: 1 + u^-2 + 2u^-3 + 3u^-4 + ...
        a = SeriesU([1, 0, 1], exact=True)
        s = series_shift_argument(a, -1, order=4)
        assert [s.coeff(r) for r in range(5)] == [1, 0, 1, 2, 3]

    def test_shift_zero_is_identity(self):
        a = series_from_tail([1, 2, 3])
        assert series_shift_argument(a, 0) is a

    def test_shift_composes(self):
        a = SeriesU([1, 2, 5], exact=True)
        once = series_shift_argument(a, 1, order=6)
        twice = series_shift_argument(series_shift_argument(a, 1, order=12), 1, order=6)
        direct = series_shift_argument(a, 2, order=6)
        assert [twice.coeff(r) for r in range(7)] == [direct.coeff(r) for r in range(7)]

    def test_shift_is_multiplicative(self):
        a = SeriesU([1, 1], exact=True)
        b = SeriesU([1, 0, -2], exact=True)
        lhs = series_shift_argument(series_mul(a, b), -1, order=6)
        rhs = series_mul(
            series_shift_argument(a, -1, order=6),
            series_shift_argument(b, -1, order=6),
        )
        assert [lhs.coeff(r) for r in range(7)] == [rhs.coeff(r) for r in range(7)]

    def test_truncation_guard(self):
        a = series_from_tail([1, 2])
        with pytest.raises(TruncationError):
            series_shift_argument(a, -1, order=5)


class TestShiftedPowerCoeff:
    def test_binomial_identity(self):
        # coefficient of u^-x in (u+c)^-s equals (-1)^(x-s) C(x-1, s-1) c^(x-s)
        from math import comb

        for s in range(1, 5):
            for x in range(s, 9):
                for c in (-1, 1, 2):
                    expect = Fraction((-1) ** (x - s) * comb(x - 1, s - 1) * c ** (x - s))
                    assert shifted_power_coeff(s, x, c) == expect

    def test_geometric_check(self):
        # (u+1)^-1 = u^-1 - u^-2 + u^-3 - ...
        vals = [shifted_power_coeff(1, x, 1) for x in range(1, 6)]
        assert vals == [1, -1, 1, -1, 1]


class TestExpandRational:
    def test_oracle(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        s = expand_rational(f, 4)
        assert [s.coeff(r) for r in range(5)] == [1, 1, -1, 1, -1]
        assert not s.exact

    def test_oracle_2(self):
        f = parse_rational_fn("(u+3)/(u+1)")
        s = expand_rational(f, 3)
        assert [s.coeff(r) for r in range(4)] == [1, 2, -2, 2]

    def test_pure_power_denominator_is_exact(self):
        f = parse_rational_fn("(u^2+3u+1)/u^2")
        s = expand_rational(f, 2)
        assert s.exact and s.coeffs == (Fraction(1), Fraction(3), Fraction(1))
        assert s.coeff(100) == 0

    def test_pure_power_needs_full_order(self):
        f = parse_rational_fn("(u^2+3u+1)/u^2")
        s = expand_rational(f, 1)  # window too small to certify exactness
        assert not s.exact and s.order == 1

    def test_matches_long_division_randomly(self):
        rng = random.Random(23)
        for _ in range(15):
            deg = rng.randint(1, 4)
            num = PolyQ([rng.randint(-6, 6) for _ in range(deg)] + [1])
            den = PolyQ([rng.randint(-6, 6) for _ in range(deg)] + [1])
            if num.degree != deg or den.degree != deg:
                continue
            try:
                f = RationalFn(num, den)
            except InputError:
                continue
            order = 10
            s = expand_rational(f, order)
            # residual check: num - den * s = O(u^{deg - order - 1})
            for x in range(order + 1):
                acc = Fraction(0)
                for k in range(x + 1):
                    acc += f.den.coeff(f.degree - k) * s.coeff(x - k)
                assert acc == f.num.coeff(f.degree - x)


def _random_series(rng):
    """A seeded series: exact or truncated, small fractions, zeros and trailing zeros."""
    tail = [
        rng.choice([0, 0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
        for _ in range(rng.randint(0, 7))
    ]
    return SeriesU([1, *tail], exact=rng.random() < 0.5)


def _outcome(fn, *args):
    """The result of fn, or the (needed, order) of the TruncationError it raised."""
    try:
        return fn(*args)
    except TruncationError as exc:
        return ("TruncationError", exc.needed, exc.order)


class TestReferenceLoops:
    """The series operations agree with the Fraction loops they replaced."""

    def test_mul_matches_former_loop(self):
        rng = random.Random(14)
        for _ in range(300):
            a, b = _random_series(rng), _random_series(rng)
            got = series_mul(a, b)
            assert got == _reference_series_mul(a, b), (a, b)
            assert all(type(c) is Fraction for c in got.coeffs)

    def test_inverse_matches_former_loop(self):
        rng = random.Random(15)
        for _ in range(200):
            a = _random_series(rng)
            for order in [None, *range(-1, a.order + 4)]:
                args = (a,) if order is None else (a, order)
                assert _outcome(series_inverse, *args) == _outcome(
                    _reference_series_inverse, *args
                ), (a, order)

    def test_inverse_past_a_truncated_window_raises_like_before(self):
        a = series_from_tail([1, 2])
        assert _outcome(series_inverse, a, 5) == ("TruncationError", 3, 2)
        assert _outcome(_reference_series_inverse, a, 5) == ("TruncationError", 3, 2)

    def test_expand_rational_matches_former_loop(self):
        rng = random.Random(16)
        seen = 0
        while seen < 60:
            deg = rng.randint(0, 4)
            num = PolyQ([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(deg)] + [1])
            # every third denominator is the pure power u^deg, whose expansion terminates
            den = PolyQ([0] * deg + [1]) if seen % 3 == 0 else PolyQ(
                [rng.randint(-6, 6) for _ in range(deg)] + [1]
            )
            try:
                f = RationalFn(num, den)
            except InputError:
                continue
            seen += 1
            for order in range(13):
                assert expand_rational(f, order) == _reference_expand_rational(f, order), (f, order)


def _reference_series_mul(a, b):
    """The former ``series_mul``: the windowed Cauchy product in Fractions."""
    if a.exact and b.exact:
        order, exact = a.order + b.order, True
    else:
        order, exact = min(s.order for s in (a, b) if not s.exact), False
    out = []
    for r in range(order + 1):
        acc = Fraction(0)
        for i in range(r + 1):
            ai = a.coeff(i) if i <= a.order else Fraction(0)
            if ai:
                bj = b.coeff(r - i) if r - i <= b.order else Fraction(0)
                if bj:
                    acc += ai * bj
        out.append(acc)
    return SeriesU(out, exact=exact)


def _reference_series_inverse(a, order=None):
    """The former ``series_inverse`` loop."""
    if order is None:
        order = a.order
    if a.is_one():
        return SERIES_ONE
    out = [Fraction(1)]
    for r in range(1, order + 1):
        acc = Fraction(0)
        for c in range(1, r + 1):
            ac = a.coeff(c)
            if ac:
                acc += ac * out[r - c]
        out.append(-acc)
    return SeriesU(out, exact=False)


def _reference_expand_rational(f, order):
    """The former ``expand_rational`` loop."""
    p = f.degree
    a = [f.num.coeff(p - k) for k in range(p + 1)]
    b = [f.den.coeff(p - k) for k in range(p + 1)]
    out = [Fraction(1)]
    for r in range(1, order + 1):
        acc = a[r] if r <= p else Fraction(0)
        for k in range(1, min(r, p) + 1):
            if b[k]:
                acc -= b[k] * out[r - k]
        out.append(acc)
    exact = all(f.den.coeff(k) == 0 for k in range(p)) and order >= p
    return SeriesU(out, exact=exact)
