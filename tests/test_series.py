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
    render_series,
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


def test_render_series():
    assert render_series(SeriesU([1, 2], exact=True)) == "1 + 2*u^-1"
    assert render_series(series_from_tail([1])).endswith("...")
