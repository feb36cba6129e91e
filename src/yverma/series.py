"""Truncated formal series in u^{-1} with constant term 1, over exact rationals.

A ``SeriesU`` stores coefficients of u^0, u^{-1}, ..., u^{-order}.  The
``exact`` flag records whether the series is known *completely*: an exact
series is a polynomial in u^{-1} and every coefficient beyond its stored
window is literally zero, while an inexact series only certifies the stored
window and raises ``TruncationError`` beyond it.

Arithmetic propagates truncation honestly: an exact operand never limits
the result's window, an inexact one clamps the result to its own order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import InputError, TruncationError, _record
from .rational import PolyQ, RationalFn, Scalar, rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


@_record
class SeriesU:
    """Series 1 + c_1 u^{-1} + ... + c_order u^{-order}; see module docstring."""

    coeffs: tuple[Fraction, ...]
    exact: bool = False

    def __init__(self, coeffs: Iterable[Scalar], exact: bool = False):
        cs = [rat(c) for c in coeffs]
        if not cs or cs[0] != 1:
            raise InputError("series must have constant term 1")
        if exact:
            while len(cs) > 1 and cs[-1] == 0:
                cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "exact", exact)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, r: int) -> Fraction:
        """Coefficient of u^{-r}; zero beyond the window only if exact."""
        if r < 0:
            return _ZERO
        if r < len(self.coeffs):
            return self.coeffs[r]
        if self.exact:
            return _ZERO
        raise TruncationError(r, self.order)

    def is_one(self) -> bool:
        return self.exact and len(self.coeffs) == 1


SERIES_ONE = SeriesU((1,), exact=True)


def series_from_tail(tail: Iterable[Scalar]) -> SeriesU:
    """Build 1 + t_1 u^{-1} + t_2 u^{-2} + ..., known through the last tail coefficient."""
    return SeriesU([_ONE, *tail])


def series_mul(a: SeriesU, b: SeriesU) -> SeriesU:
    """Exact product; the window is clamped by inexact operands only."""
    exact = a.exact and b.exact
    order = a.order + b.order if exact else min(s.order for s in (a, b) if not s.exact)
    cs = (PolyQ(a.coeffs[: order + 1]) * PolyQ(b.coeffs[: order + 1])).coeffs[: order + 1]
    # PolyQ drops trailing zeros, which an inexact window keeps
    return SeriesU(cs + (_ZERO,) * (order + 1 - len(cs)), exact=exact)


def _divide(num: Sequence[Fraction], den: Sequence[Fraction], order: int) -> list[Fraction]:
    """Coefficients 0..order of Y = N / D, for series N, D in u^{-1} with
    constant term 1 whose coefficients past the given lists are zero."""
    out = [_ONE]
    for r in range(1, order + 1):
        acc = num[r] if r < len(num) else _ZERO
        for k in range(1, min(r, len(den) - 1) + 1):
            if den[k]:
                acc -= den[k] * out[r - k]
        out.append(acc)
    return out


def series_inverse(a: SeriesU, order: Optional[int] = None) -> SeriesU:
    """Multiplicative inverse through the given order.

    The default order is ``a.order``.  The inverse of a nontrivial exact
    series is an infinite series, so the result is exact only for the
    constant series 1.
    """
    if order is None:
        order = a.order
    if a.is_one():
        return SERIES_ONE
    if not a.exact and order > a.order:
        # the u^{-r} output coefficient needs every input coefficient up to r
        raise TruncationError(a.order + 1, a.order)
    return SeriesU(_divide((_ONE,), a.coeffs, order), exact=False)


def shifted_power_coeff(s: int, x: int, c: int | Fraction) -> int | Fraction:
    """Coefficient of u^{-x} in (u + c)^{-s}, for s >= 1 and x >= s.

    Expanding (u+c)^{-s} = u^{-s} (1 + c/u)^{-s} gives the weight
    binom(-s, x-s) c^{x-s} = (-1)^{x-s} binom(x-1, s-1) c^{x-s}, an ``int``
    for an ``int`` shift c.
    """
    if s < 1 or x < s:
        return _ZERO
    j = x - s
    sign = -1 if j % 2 else 1
    return c**j * (sign * comb(x - 1, s - 1))


def series_shift_argument(a: SeriesU, c: Scalar, order: Optional[int] = None) -> SeriesU:
    """The series u |-> a(u + c), re-expanded in powers of u^{-1}.

    A zero shift returns ``a`` unchanged.  For c != 0 each basis power
    u^{-r} re-expands into an infinite tail, so the result is inexact
    with window ``order`` (default ``a.order``).
    """
    c = rat(c)
    if c == 0:
        return a
    if a.is_one():
        return SERIES_ONE
    if order is None:
        order = a.order
    if not a.exact and order > a.order:
        # the u^{-x} output coefficient needs every input coefficient up to x
        raise TruncationError(order, a.order)
    out = [_ONE]
    for x in range(1, order + 1):
        acc = _ZERO
        for r in range(1, min(x, a.order) + 1):
            ar = a.coeffs[r]
            if ar:
                acc += ar * shifted_power_coeff(r, x, c)
        out.append(acc)
    return SeriesU(out, exact=False)


def expand_rational(f: RationalFn, order: int) -> SeriesU:
    """Expansion of P(u)/Q(u) at u = infinity through u^{-order}.

    The result is exact when the denominator is the pure power u^p and the
    window covers degree p, because then the expansion terminates.
    """
    if order < 0:
        raise InputError("expansion order must be nonnegative")
    p = f.degree
    # descending coefficients: a_k multiplies u^{p-k}
    a = [f.num.coeff(p - k) for k in range(p + 1)]
    b = [f.den.coeff(p - k) for k in range(p + 1)]
    den_is_power = all(f.den.coeff(k) == 0 for k in range(p))
    return SeriesU(_divide(a, b, order), exact=den_is_power and order >= p)
