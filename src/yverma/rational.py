"""Exact rationals, polynomials over Q, and ratios of monic polynomials.

Conventions used throughout the package:

* scalars are ``fractions.Fraction`` (arbitrary precision, always reduced),
  except that the action kernel holds Python ``int`` until a value with a
  denominator enters (the two mix through the numeric tower), the Gram
  route rescales its weight so that every entry is an ``int``, and the
  parser, Sturm chains and gcds compute on integer coefficient lists (Z[u]);
  division goes only through ``Fraction``, so no value is ever a ``float``;
* ``PolyQ`` stores coefficients ascending by degree, with no trailing zeros;
* ``RationalFn`` is a ratio P(u)/Q(u) of *monic* polynomials of equal degree
  with gcd(P, Q) = 1.  Equal degrees and equal (monic) leading coefficients
  make the expansion of P/Q at u = infinity start with constant term 1,
  which is the normalization every highest-weight ratio in this package
  carries.  A power u^v that P and Q share is stripped by a shift before
  ``poly_gcd`` runs, so its modular certificate can settle what is left.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError, digit_limit_error, _record

_ZERO = Fraction(0)
_ONE = Fraction(1)

Scalar = Union[int, Fraction, str]


def rat(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string like ``-3/2`` to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        _, e, exp = text.upper().partition("E")
        try:
            power = abs(int(exp)) if e else 0
        except ValueError:  # not an exponent: Fraction decides
            power = 0
        # Fraction builds 10**power before anything else, however large
        if power > sys.get_int_max_str_digits() > 0:
            raise digit_limit_error(f"the power of ten 10^{power}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            if any(len(d) > sys.get_int_max_str_digits() > 0 for d in re.findall(r"\d+", text)):
                raise digit_limit_error("an integer literal") from None
            raise InputError(f"not a rational number: {x!r}") from exc
    raise InputError(f"cannot interpret {x!r} as a rational number")


def format_rat(q: Fraction) -> str:
    """Render exactly: ``3``, ``-3``, or ``3/2`` (never a float)."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise digit_limit_error("a report value") from None


@_record
class PolyQ:
    """Polynomial over Q in the variable u, coefficients ascending by degree.

    The zero polynomial is the empty tuple; otherwise the last coefficient
    is nonzero.  Instances are immutable and hashable.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def __call__(self, x: Scalar) -> Fraction:
        x = rat(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "PolyQ":
        return PolyQ(-c for c in self.coeffs)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        # convolve integers cleared of denominators, divide once when rebuilding
        da, a = _cleared(self.coeffs)
        db, b = _cleared(other.coeffs)
        d = da * db
        return PolyQ(Fraction(c, d) for c in _convolve(a, b))

    def scaled(self, c: Scalar) -> "PolyQ":
        c = rat(c)
        return PolyQ(a * c for a in self.coeffs)

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return PolyQ(), self
        quot = [_ZERO] * (dq + 1)
        inv_lead = 1 / other.leading
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return PolyQ(quot), PolyQ(rem)

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def monic(self) -> "PolyQ":
        if not self or self.leading == 1:
            return self
        return self.scaled(1 / self.leading)

    def shift_arg(self, c: Scalar) -> "PolyQ":
        """The polynomial u |-> P(u + c), computed by Horner recombination."""
        c = rat(c)
        shift = PolyQ((c, _ONE))
        acc = PolyQ()
        for a in reversed(self.coeffs):
            acc = acc * shift + PolyQ((a,))
        return acc

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"PolyQ({render_poly(self)!r})"


POLY_ZERO = PolyQ()
POLY_ONE = PolyQ((1,))
POLY_U = PolyQ((0, 1))


# The prime 2^61 - 1 of the modular coprimality certificate in poly_gcd and of
# the linear-complexity profile (Berlekamp-Massey) that detect_recurrence reads.
_PRIME = (1 << 61) - 1


def _cleared(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators and the integer coefficients times d."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer coefficient lists; [] is the zero polynomial."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(ints: list[int]) -> list[int]:
    """The integers divided by their (positive) content."""
    g = gcd(*ints)
    return [c // g for c in ints]


def _primitive_ints(coeffs: tuple[Fraction, ...]) -> list[int]:
    """The coefficients times the positive rational that makes them coprime integers."""
    return _primitive(_cleared(coeffs)[1])


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of a mod b (b nonzero) by pseudo-division over Z.

    Each step scales the remainder by |lc(b)| > 0, so the sign is that of
    a mod b over Q."""
    r = list(a)
    scale, sign, db = abs(b[-1]), 1 if b[-1] > 0 else -1, len(b) - 1
    while len(r) > db:
        c = sign * r.pop()
        k = len(r) - db
        if scale != 1:
            r = [x * scale for x in r]
        for j in range(db):
            r[k + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def _rem_mod_prime(a: list[int], b: list[int]) -> list[int]:
    """Remainder of ``a`` by ``b`` over GF(_PRIME); ``b[-1]`` is nonzero."""
    r = list(a)
    inv = pow(b[-1], -1, _PRIME)
    db = len(b) - 1
    while len(r) > db:
        c = r.pop() * inv % _PRIME
        k = len(r) - db
        for j in range(db):
            r[k + j] = (r[k + j] - c * b[j]) % _PRIME
        while r and r[-1] == 0:
            r.pop()
    return r


def _coprime_mod_prime(a: PolyQ, b: PolyQ) -> bool:
    """True only if gcd(a, b) = 1, certified by a constant gcd modulo _PRIME.

    When both integer images keep their degree mod the prime, the integer
    gcd's leading coefficient (which divides theirs) survives too, so a
    common factor over Q would leave a common factor of the same degree
    mod the prime.  False means "unknown", never "not coprime".
    """
    images = []
    for f in (a, b):
        img = [c % _PRIME for c in _primitive_ints(f.coeffs)]
        if img[-1] == 0:
            return False
        images.append(img)
    x, y = images
    while y:
        x, y = y, _rem_mod_prime(x, y)
    return len(x) == 1


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic greatest common divisor (gcd(0, 0) = 0).

    A modular certificate settles coprime pairs in word-size arithmetic;
    any other pair runs the primitive remainder sequence over Z (Collins
    1967), whose last nonzero entry is the gcd up to a constant.
    """
    if a and b and _coprime_mod_prime(a, b):
        return POLY_ONE
    x, y = _primitive_ints(a.coeffs), _primitive_ints(b.coeffs)
    while y:
        x, y = y, _prem(x, y)
    return PolyQ(x).monic()


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """The Sturm chain g, g', -(g mod g'), ... as primitive integer coefficient lists.

    ``g`` has positive degree.  Each ``_prem`` entry is the chain over Q
    rescaled by a positive constant only, so sign-change counts are those
    of the chain over Q.  The last entry is gcd(g, g') up to a constant.
    """
    chain = [_primitive(g), _primitive([k * c for k, c in enumerate(g)][1:])]
    while r := _prem(chain[-2], chain[-1]):
        chain.append([-c for c in r])
    return chain


def _int_eval(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _sign_changes(chain: list[list[int]], x: int) -> int:
    count, last = 0, 0
    for cs in chain:
        v = _int_eval(cs, x)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _simple_integer_root(g: list[int], lo: int, hi: int) -> Optional[int]:
    """The one root of ``g`` in (lo, hi], a simple root, if it is an integer.

    Bisects on the sign of ``g`` alone: the sign changes once, at the root.
    """
    g_hi = _int_eval(g, hi)
    while g_hi and hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = _int_eval(g, mid)
        if g_mid and (g_mid > 0) != (g_hi > 0):
            lo = mid
        else:
            hi, g_hi = mid, g_mid
    return hi if g_hi == 0 else None


def _integer_roots(chain: list[list[int]]) -> Optional[list[int]]:
    """The roots of the square-free integer polynomial chain[0], if all are integers.

    Sturm counts on integer intervals (lo, hi] inside (-B, B], where
    B - 1 >= 2 max |g_(n-i)|^(1/i) is Fujiwara's root bound, rounded up
    to powers of two (|g_n| >= 1).  An interval with no root is dropped,
    one with a single root is searched by ``_simple_integer_root``, and
    one with more is bisected.  Returns None as soon as a non-real root,
    or a real root that is not an integer, is certain.
    """
    g = chain[0]
    n = len(g) - 1
    bound = 1 + 2 * max(
        1 << -(-abs(c).bit_length() // (n - i)) for i, c in enumerate(g[:-1])
    )
    v_lo, v_hi = _sign_changes(chain, -bound), _sign_changes(chain, bound)
    if v_lo - v_hi < n:
        return None  # fewer distinct real roots than the degree
    found = []
    stack = [(-bound, bound, v_lo, v_hi)]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 1:
            y = _simple_integer_root(g, lo, hi)
            if y is None:
                return None
            found.append(y)
        elif count > 1:
            if hi - lo == 1:
                return None  # hi is the only integer in (lo, hi]
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return found


def rational_roots(p: PolyQ) -> Optional[list[Fraction]]:
    """All roots with multiplicity if ``p`` splits over Q, else ``None``.

    Zero roots are stripped first.  The rest, cleared to a primitive
    integer a_0..a_n, is rescaled to the monic integer polynomial
    h(y) = sum a_i a_n^(n-1-i) y^i, whose rational roots are exactly the
    integers y = a_n r.  Sturm isolation finds the integer roots of the
    square-free part h / gcd(h, h') (see ``_integer_roots``), in time
    polynomial in the bit size of ``p``.  Each root r = y / a_n gets its
    multiplicity from exact deflation of ``p``, so every returned root is
    verified; if the deflated ``p`` keeps positive degree, ``p`` does not
    split.  The returned list is sorted.
    """
    if not p:
        raise InputError("zero polynomial has no root list")
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    roots = [_ZERO] * zeros
    p = PolyQ(p.coeffs[zeros:])
    if p.degree == 0:
        return roots
    a = _primitive_ints(p.coeffs)
    lead, n = a[-1], p.degree
    h = [c * lead ** (n - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    chain = _sturm_chain(h)
    if len(chain[-1]) > 1:  # repeated roots: isolate those of h / gcd(h, h')
        chain = _sturm_chain(_primitive_ints((PolyQ(h) // PolyQ(chain[-1])).coeffs))
    ys = _integer_roots(chain)
    if ys is None:
        return None
    for y in ys:
        r = Fraction(y, lead)
        while p(r) == 0:
            roots.append(r)
            p = p // PolyQ((-r, _ONE))
    if p.degree > 0:
        return None
    return sorted(roots)


@_record
class RationalFn:
    """Ratio P(u)/Q(u) of monic polynomials of equal degree, gcd(P, Q) = 1.

    Construction accepts any polynomial pair with equal degrees and equal
    leading coefficients and normalizes it: the largest u^v dividing both
    is dropped from their coefficient lists, then a monic rescale and the
    ``poly_gcd`` cancel.  The monic coprime pair is unique, so the strip
    changes no result; it only spares ``poly_gcd`` a common factor that
    would fail its certificate.
    Anything else is rejected: these ratios must expand at u = infinity
    as 1 + O(1/u).
    """

    num: PolyQ
    den: PolyQ

    def __init__(self, num: PolyQ, den: PolyQ):
        if not den:
            raise InputError("denominator polynomial is zero")
        if not num:
            raise InputError("numerator polynomial is zero")
        if num.degree != den.degree:
            raise InputError(
                "numerator and denominator degrees differ "
                f"({num.degree} vs {den.degree}); the ratio does not tend to 1"
            )
        if num.leading != den.leading:
            raise InputError(
                "leading coefficients differ; the ratio does not tend to 1"
            )
        v = min(next(i for i, c in enumerate(p.coeffs) if c) for p in (num, den))
        if v:  # the shared u^v: a shift, not a gcd
            num, den = PolyQ(num.coeffs[v:]), PolyQ(den.coeffs[v:])
        num = num.monic()
        den = den.monic()
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        """Common degree p of numerator and denominator after reduction."""
        return self.num.degree

    def is_one(self) -> bool:
        return self.num == self.den

    def __str__(self) -> str:
        return render_rational_fn(self)

    def __repr__(self) -> str:
        return f"RationalFn({render_rational_fn(self)!r})"


def require_rational_fn(f: object) -> None:
    """Reject anything but a ``RationalFn`` (a ``SeriesU`` weight, say) with ``InputError``."""
    if not isinstance(f, RationalFn):
        raise InputError(f"not a rational function: {f!r}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_term(c: Fraction, k: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if k == 0:
        body = format_rat(mag)
    else:
        var = "u" if k == 1 else f"u^{k}"
        body = var if mag == 1 else f"{format_rat(mag)}*{var}"
    return sign + body


def render_poly(p: PolyQ) -> str:
    """Compact exact form, highest degree first: ``u^2+3*u+1``."""
    if not p:
        return "0"
    parts = []
    first = True
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        parts.append(_render_term(c, k, first))
        first = False
    return "".join(parts)


def render_rational_fn(f: RationalFn) -> str:
    return f"({render_poly(f.num)})/({render_poly(f.den)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# expr   := '+'? term (('+'|'-') term)*
# term   := factor (('*'|'/') factor | factor-adjacent)*
# factor := atom ('^' uint)?
# atom   := 'u' | uint | '(' expr ')' | '-' factor
#
# Values during parsing are fractions of polynomials over Z, pairs of integer
# coefficient lists, so inputs like "(u+2)^2/(u+1)^2" or "1+1/(u+1)" all
# work; only the final pair becomes PolyQ, handed to RationalFn, which
# enforces the monic equal-degree normalization.


class _Tok:
    def __init__(self, text: str):
        # \d and \s are str.isdecimal and str.isspace
        self.toks: list[str] = re.findall(r"\d+|\S", text)
        for t in self.toks:
            if not (t.isdecimal() or t in "()+-*/^u"):
                raise InputError(f"unexpected character {t!r} in {text!r}")
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        t = self.peek()
        if t is None:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return t


_ZFrac = tuple[list[int], list[int]]  # numerator, denominator (denominator nonzero)


def _int_token(t: str) -> int:
    try:
        return int(t)
    except ValueError:
        raise digit_limit_error("an integer literal") from None


def _parse_expr(tk: _Tok) -> _ZFrac:
    if tk.peek() == "+":
        tk.take()
    num, den = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        sign = 1 if tk.take() == "+" else -1
        b_num, b_den = _parse_term(tk)
        num, rhs = _convolve(num, b_den), _convolve(b_num, den)
        num = [x + sign * y for x, y in zip_longest(num, rhs, fillvalue=0)]
        while num and num[-1] == 0:
            num.pop()
        den = _convolve(den, b_den)
    return num, den


def _parse_term(tk: _Tok) -> _ZFrac:
    num, den = _parse_factor(tk)
    while True:
        nxt = tk.peek()
        if nxt in ("*", "/", "u", "(") or (nxt and nxt.isdecimal()):
            # "/", "*" or juxtaposition: "3u", "2(u+1)"
            op = tk.take() if nxt in ("*", "/") else "*"
            b_num, b_den = _parse_factor(tk)
            if op == "/":
                if not b_num:
                    raise InputError("division by zero in rational-function expression")
                b_num, b_den = b_den, b_num
            num, den = _convolve(num, b_num), _convolve(den, b_den)
        else:
            return num, den


def _parse_factor(tk: _Tok) -> _ZFrac:
    num, den = _parse_atom(tk)
    while tk.peek() == "^":
        tk.take()
        exp_tok = tk.take()
        if not exp_tok.isdecimal():
            raise InputError(f"exponent must be a nonnegative integer, got {exp_tok!r}")
        n, pows = _int_token(exp_tok), ([1], [1])
        while n:  # repeated squaring
            if n & 1:
                pows = _convolve(pows[0], num), _convolve(pows[1], den)
            n >>= 1
            if n:
                num, den = _convolve(num, num), _convolve(den, den)
        num, den = pows
    return num, den


def _parse_atom(tk: _Tok) -> _ZFrac:
    t = tk.take()
    if t == "u":
        return [0, 1], [1]
    if t == "(":
        inner = _parse_expr(tk)
        tk.take()  # ")": _parse_expr stops only there or at the end
        return inner
    if t == "-":
        num, den = _parse_factor(tk)
        return [-c for c in num], den
    if t.isdecimal():
        n = _int_token(t)
        return [n] if n else [], [1]
    raise InputError(f"unexpected token {t!r}")


def parse_rational_fn(text: str) -> RationalFn:
    """Parse an expression over Q(u) into a normalized ``RationalFn``.

    Examples: ``(u+2)/(u+1)``, ``(u^2+3*u+1)/(u^2+1)``, ``(u+2)^2/(u+1)^2``,
    ``1``.  The result must tend to 1 at u = infinity or ``InputError``
    is raised.
    """
    tk = _Tok(text)
    if tk.peek() is None:
        raise InputError("empty rational-function expression")
    num, den = _parse_expr(tk)
    if tk.peek() is not None:
        raise InputError(f"trailing input at token {tk.peek()!r}")
    return RationalFn(PolyQ(num), PolyQ(den))
