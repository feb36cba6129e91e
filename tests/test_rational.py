"""Exact polynomial and rational-function layer."""

import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, lcm

import pytest

from yverma import (
    InputError,
    POLY_ONE,
    POLY_U,
    POLY_ZERO,
    PolyQ,
    RationalFn,
    parse_rational_fn,
    poly_gcd,
    rat,
    rational_roots,
    render_poly,
    render_rational_fn,
)
from yverma.rational import _primitive_ints, _sturm_chain

PRIME = (1 << 61) - 1  # the modulus of poly_gcd's coprimality certificate


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _reference_roots(p):
    """Trial division: every +-num/den with num | a_0 and den | a_n, deflating on a hit."""
    roots = []
    while p.degree > 0:
        if p.coeff(0) == 0:
            roots.append(Fraction(0))
            p = PolyQ(p.coeffs[1:])
            continue
        denom_lcm = lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * denom_lcm) for c in p.coeffs]
        found = next(
            (
                Fraction(sign * num, den)
                for num in _divisors(ints[0])
                for den in _divisors(ints[-1])
                for sign in (1, -1)
                if p(Fraction(sign * num, den)) == 0
            ),
            None,
        )
        if found is None:
            return None
        roots.append(found)
        p = p // PolyQ([-found, 1])
    return sorted(roots)


def _reference_gcd(a, b):
    """Euclid over Q, with no modular certificate."""
    while b:
        a, b = b, a % b
    return a.monic()


def _reference_normalized(num, den):
    """RationalFn's (num, den) by the route with no u^v strip: monic, Euclid over Q, then //."""
    num, den = num.monic(), den.monic()
    g = _reference_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    return num, den


def _normalization_case(rng, i):
    """A seeded pair with equal degrees and equal leading coefficients.

    Both share u^v, v = i % 5, and every other case a factor that is not
    a power of u; one side may carry further powers of u, and every
    seventh pair has equal cofactors, so that it reduces to degree 0.
    Coefficients are Fractions, some with the prime in a denominator, and
    the common leading coefficient may be negative or divisible by the prime.
    """
    def poly(deg, lead=1):
        return PolyQ([Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3, PRIME]))
                      for _ in range(deg)] + [lead])

    shared = _product([POLY_U] * (i % 5) + ([poly(rng.randint(1, 3))] if i % 2 else []))
    k = rng.randint(0, 4)
    a = poly(k)
    if i % 7 == 3:
        b = a
    else:
        b = poly(k)
        if k and rng.random() < 0.3:  # more powers of u on one side only
            j = rng.randint(1, k)
            b = _product([POLY_U] * j + [poly(k - j)])
    lead = rng.choice([1, -1, Fraction(-3, 2), Fraction(5, 7), PRIME, -2 * PRIME,
                       Fraction(PRIME, 3)])
    return (a * shared).scaled(lead), (b * shared).scaled(lead)


def _reference_sturm_chain(g):
    """The Sturm chain by remainders over Q, each entry then made primitive."""
    chain = [g, PolyQ([k * c for k, c in enumerate(g.coeffs)][1:])]
    while r := chain[-2] % chain[-1]:
        chain.append(-r)
    return [_primitive_ints(f.coeffs) for f in chain]


def _reference_pow(base, n):
    out = POLY_ONE
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class _RefTok:
    def __init__(self, text):
        self.toks, i = [], 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()+-*/^u":
                self.toks.append(ch)
                i += 1
            elif ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise InputError(f"unexpected character {ch!r} in {text!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return t


def _reference_parse(text):
    """The parser over PolyQ pairs (Fraction arithmetic) that the Z[u] parser replaced.

    Its digits are ``str.isdecimal`` like the new tokenizer's; with
    ``str.isdigit`` a superscript digit reached ``int()`` and raised ValueError.
    """

    def expr(tk):
        sign = tk.take() if tk.peek() in ("+", "-") else "+"
        num, den = term(tk)
        if sign == "-":
            num = -num
        while tk.peek() in ("+", "-"):
            op = tk.take()
            b = term(tk)
            num = num * b[1] + b[0] * den if op == "+" else num * b[1] - b[0] * den
            den = den * b[1]
        return num, den

    def term(tk):
        value = factor(tk)
        while True:
            nxt = tk.peek()
            if nxt in ("*", "/"):
                op = tk.take()
                rhs = factor(tk)
                if op == "*":
                    value = value[0] * rhs[0], value[1] * rhs[1]
                else:
                    if not rhs[0]:
                        raise InputError("division by zero in rational-function expression")
                    value = value[0] * rhs[1], value[1] * rhs[0]
            elif nxt == "u" or nxt == "(" or (nxt is not None and nxt.isdecimal()):
                rhs = factor(tk)
                value = value[0] * rhs[0], value[1] * rhs[1]
            else:
                return value

    def factor(tk):
        base = atom(tk)
        while tk.peek() == "^":
            tk.take()
            exp_tok = tk.take()
            if not exp_tok.isdecimal():
                raise InputError(f"exponent must be a nonnegative integer, got {exp_tok!r}")
            n = int(exp_tok)
            base = (_reference_pow(base[0], n), _reference_pow(base[1], n))
        return base

    def atom(tk):
        t = tk.take()
        if t == "u":
            return POLY_U, POLY_ONE
        if t == "(":
            inner = expr(tk)
            if tk.take() != ")":
                raise InputError("unbalanced parentheses")
            return inner
        if t == "-":
            inner = factor(tk)
            return -inner[0], inner[1]
        if t.isdecimal():
            return PolyQ((int(t),)), POLY_ONE
        raise InputError(f"unexpected token {t!r}")

    tk = _RefTok(text)
    if tk.peek() is None:
        raise InputError("empty rational-function expression")
    num, den = expr(tk)
    if tk.peek() is not None:
        raise InputError(f"trailing input at token {tk.peek()!r}")
    return RationalFn(num, den)


def _outcome(parse, text):
    """The parsed RationalFn, or the text of its InputError; any other exception propagates."""
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


def _product(factors):
    out = POLY_ONE
    for f in factors:
        out = out * f
    return out


def _oracle_case(rng, i):
    """A seeded polynomial of degree <= 6 and its roots, or None if it cannot split.

    Linear factors have denominators <= 7; some roots repeat, some are 0,
    the whole product is scaled by a non-unit constant, and every third
    case carries an irreducible u^2 + c or u^2 - prime.
    """
    irreducible = i % 3 == 0
    roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 7))
             for _ in range(rng.randint(0, 4 if irreducible else 6))]
    if roots and len(roots) < (4 if irreducible else 6) and rng.random() < 0.4:
        roots.append(rng.choice(roots))  # a repeated root
    if len(roots) < (4 if irreducible else 6) and rng.random() < 0.3:
        roots.append(Fraction(0))
    factors = [PolyQ([-r, 1]) for r in roots]
    if irreducible:
        c = rng.choice([rng.randint(1, 9), -rng.choice([2, 3, 5, 7, 11, 13])])
        factors.append(PolyQ([c, 0, 1]))
    p = _product(factors).scaled(rng.choice([1, -1, 2, -3, Fraction(5, 4), Fraction(-7, 2)]))
    return p, None if irreducible else sorted(roots)


class TestPolyQ:
    def test_trailing_zeros_stripped(self):
        assert PolyQ([1, 2, 0, 0]) == PolyQ([1, 2])
        assert PolyQ([0, 0]).degree == -1
        assert PolyQ([]) == POLY_ZERO

    def test_degree_and_leading(self):
        p = PolyQ([3, 0, 2])
        assert p.degree == 2
        assert p.leading == 2
        assert POLY_ZERO.degree == -1

    def test_coeff_beyond_degree_is_zero(self):
        p = PolyQ([1, 2])
        assert p.coeff(5) == 0
        assert p.coeff(0) == 1

    def test_ring_ops(self):
        a = PolyQ([1, 1])          # u + 1
        b = PolyQ([2, 1])          # u + 2
        assert a * b == PolyQ([2, 3, 1])
        assert a + b == PolyQ([3, 2])
        assert b - a == PolyQ([1])
        assert (-a) + a == POLY_ZERO
        assert a.scaled(Fraction(1, 2)) == PolyQ([Fraction(1, 2), Fraction(1, 2)])

    def test_product_matches_fraction_convolution(self):
        # the product clears each operand to integers and divides once
        rng = random.Random(5)
        for _ in range(60):
            a, b = (
                [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**9 + 7]))
                 for _ in range(rng.randint(0, 6))]
                for _ in range(2)
            )
            expected = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    expected[i + j] += x * y
            got = PolyQ(a) * PolyQ(b)
            assert got == PolyQ(expected)
            assert all(type(c) is Fraction for c in got.coeffs)

    def test_large_powers_are_binomial(self):
        n = 400
        whole = parse_rational_fn(f"(u+1)^{n}/(u+2)^{n}").num
        assert whole.coeffs == tuple(comb(n, k) for k in range(n + 1))
        half = parse_rational_fn(f"(u+1/2)^{n}/(u+3)^{n}").num
        assert half.coeffs == tuple(Fraction(comb(n, k), 2 ** (n - k)) for k in range(n + 1))

    def test_eval(self):
        p = PolyQ([2, 3, 1])
        assert p(Fraction(-1)) == 0
        assert p(Fraction(-2)) == 0
        assert p(Fraction(1)) == 6

    def test_divmod(self):
        num = PolyQ([2, 3, 1])
        q, r = divmod(num, PolyQ([1, 1]))
        assert q == PolyQ([2, 1]) and r == POLY_ZERO
        q, r = divmod(PolyQ([1, 0, 1]), PolyQ([1, 1]))
        assert q == PolyQ([-1, 1]) and r == PolyQ([2])
        assert num % PolyQ([1, 1]) == POLY_ZERO
        assert num // PolyQ([1, 1]) == PolyQ([2, 1])

    def test_division_identity_random(self):
        rng = random.Random(3)
        for _ in range(25):
            a = PolyQ([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
            b = PolyQ([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_shift_arg(self):
        p = PolyQ([0, 0, 1])  # u^2
        assert p.shift_arg(1) == PolyQ([1, 2, 1])
        assert p.shift_arg(-1) == PolyQ([1, -2, 1])
        q = PolyQ([2, 3, 1])
        assert q.shift_arg(0) == q
        # shift is a ring homomorphism
        a, b = PolyQ([1, 2, 1]), PolyQ([-1, 1])
        assert (a * b).shift_arg(2) == a.shift_arg(2) * b.shift_arg(2)

    def test_monic(self):
        assert PolyQ([2, 4]).monic() == PolyQ([Fraction(1, 2), 1])
        assert POLY_ZERO.monic() == POLY_ZERO  # zero is fixed, not an error

    def test_poly_gcd(self):
        a = PolyQ([2, 3, 1])   # (u+1)(u+2)
        b = PolyQ([3, 4, 1])   # (u+1)(u+3)
        assert poly_gcd(a, b) == PolyQ([1, 1])
        assert poly_gcd(a, POLY_ZERO) == a.monic()
        assert poly_gcd(PolyQ([1, 1]), PolyQ([2, 1])) == POLY_ONE


class TestRationalRoots:
    def test_splitting(self):
        p = PolyQ([2, 3, 1])
        assert rational_roots(p) == [Fraction(-2), Fraction(-1)]

    def test_multiplicity(self):
        p = PolyQ([1, 2, 1])  # (u+1)^2
        assert rational_roots(p) == [Fraction(-1), Fraction(-1)]

    def test_zero_roots(self):
        p = PolyQ([0, 0, 1, 1])  # u^2 (u+1)
        assert rational_roots(p) == [Fraction(-1), Fraction(0), Fraction(0)]

    def test_non_splitting_is_none(self):
        assert rational_roots(PolyQ([1, 0, 1])) is None        # u^2 + 1
        assert rational_roots(PolyQ([-2, 0, 1])) is None       # u^2 - 2

    def test_fractional_roots(self):
        p = PolyQ([1, 2]) * PolyQ([-1, 3])  # (2u+1)(3u-1)
        assert rational_roots(p) == [Fraction(-1, 2), Fraction(1, 3)]

    def test_constant(self):
        assert rational_roots(POLY_ONE) == []

    def test_matches_trial_division(self):
        rng = random.Random(10)
        for i in range(360):
            p, expected = _oracle_case(rng, i)
            assert p.degree <= 6
            got = rational_roots(p)
            assert got == expected, (i, str(p))
            assert got == _reference_roots(p), (i, str(p))

    def test_repeated_irrational_factor_is_none(self):
        # square-free part u^2 - 2 has real, non-integer roots
        p = PolyQ([-2, 0, 1]) * PolyQ([-2, 0, 1]) * PolyQ([1, 1])
        assert rational_roots(p) is None
        assert rational_roots(PolyQ([1, 0, 1]) * PolyQ([-1, 0, 1])) is None

    @pytest.mark.parametrize(
        "factors, roots",
        [
            ([PolyQ([10**18, 1]), PolyQ([1, 1])], [-(10**18), -1]),
            (
                [PolyQ([999999999999999989, 1]), PolyQ([Fraction(-3, 7), 1]),
                 PolyQ([Fraction(12345678901, 13), 1])],
                [-999999999999999989, Fraction(-12345678901, 13), Fraction(3, 7)],
            ),
            ([PolyQ([Fraction(-5, 10**18), 1]), PolyQ([3, 1])], [-3, Fraction(5, 10**18)]),
        ],
    )
    def test_huge_roots_are_fast(self, factors, roots):
        # trial division of constant terms near 1e18 never finished
        start = time.perf_counter()
        assert rational_roots(_product(factors)) == [Fraction(r) for r in roots]
        assert time.perf_counter() - start < 1.0

    def test_many_roots_are_fast(self):
        # the monic rescaling of the second has coefficients of over 2000
        # bits; trial division ran for minutes on the first at degree 20
        for roots in ([Fraction(-k) for k in range(1, 31)],
                      [Fraction(-3 * k - 1, 7) for k in range(1, 31)]):
            p = _product(PolyQ([-r, 1]) for r in roots)
            start = time.perf_counter()
            assert rational_roots(p) == sorted(roots)
            assert time.perf_counter() - start < 1.0

    def test_cli_character_with_root_near_1e18(self):
        argv = ["character", "--mu", "(u+1000000000000000000)/(u+1)", "--max-level", "4"]
        proc = subprocess.run(
            [sys.executable, "-m", "yverma", *argv], capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["dims"] == [1, 1, 1, 1, 1]


class TestPowAndGcd:
    def test_pow_matches_repeated_multiplication(self):
        # parser powers square repeatedly; "B^n" must equal "B*B*...*B"
        rng = random.Random(11)
        for _ in range(20):
            size = rng.randint(0, 4)
            base = PolyQ([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)])
            shift = PolyQ([Fraction(rng.randint(-5, 5), rng.randint(1, 3)), 1])
            num, den = f"({base})*u+1", f"u*({base})+({shift})"  # equal leading terms
            n = rng.randint(0, 9)
            powered = _outcome(parse_rational_fn, f"({num})^{n}/({den})^{n}")
            repeated = "*".join([f"({num})"] * n or ["1"]), "*".join([f"({den})"] * n or ["1"])
            assert powered == _outcome(parse_rational_fn, f"({repeated[0]})/({repeated[1]})")
            assert powered == _outcome(_reference_parse, f"({num})^{n}/({den})^{n}")
        with pytest.raises(InputError, match="exponent must be a nonnegative integer"):
            parse_rational_fn("(u+1)^-1/(u+2)^-1")

    def test_gcd_matches_euclid(self):
        rng = random.Random(12)
        for i in range(60):
            def rand_poly(deg):
                return PolyQ([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
                             + [rng.choice([1, -2, Fraction(3, 5)])])
            common = rand_poly(rng.randint(1, 3)) if i % 2 else POLY_ONE
            a = rand_poly(rng.randint(0, 4)) * common
            b = rand_poly(rng.randint(0, 4)) * common
            g = poly_gcd(a, b)
            assert g == _reference_gcd(a, b)
            assert a % g == POLY_ZERO and b % g == POLY_ZERO
            if i % 2:
                assert g.degree >= common.degree

    def test_leading_coefficient_divisible_by_the_prime_falls_back(self):
        # mod 2^61 - 1 the image of P*u + 1 is the constant 1, which would
        # certify a false coprimality if the degree check were skipped
        shared = PolyQ([1, PRIME])
        a, b = shared, shared * PolyQ([2, 1])
        assert poly_gcd(a, b) == PolyQ([Fraction(1, PRIME), 1])
        assert poly_gcd(b, a) == PolyQ([Fraction(1, PRIME), 1])
        f = RationalFn(b, shared * PolyQ([3, 1]))
        assert (f.num, f.den) == (PolyQ([2, 1]), PolyQ([3, 1]))
        assert poly_gcd(PolyQ([1, PRIME]), PolyQ([1, 1])) == POLY_ONE


def _random_expr(rng, depth):
    """A seeded expression: sums, quotients, powers, unary minus, juxtaposition, nesting."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["u", "u", str(rng.randint(0, 12)), f"{rng.randint(1, 9)}u"])
    a, b = _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
    kind = rng.randrange(8)
    if kind == 0:
        return f"{a}+{b}"
    if kind == 1:
        return f"{a}-{b}"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/({b})"
    if kind == 4:
        return f"({a})^{rng.randint(0, 3)}"
    if kind == 5:
        return f"-({a})"
    if kind == 6:
        return f"{rng.randint(1, 9)}({a})"  # juxtaposition
    return f"(({a})-({a}))" if rng.random() < 0.5 else f"({a})/({b}-{b})"  # zero, zero divisor


_PARSE_GRID = [
    "(u+2)/(u+1)", "1", "u/u", "(u+1/2)/(u-1/3)", "(2u+3)^2/((2u+1)(2u-5))",
    "1+1/(u+1)-2/(u+3)^2", "-(u+1)/(-(u+2))", "--u/u", "(u+1)^0", "0^0", "(u-u)/u",
    "u/(u-u)", "u/0", "0", "(u+1)^2^3/(u+2)^6", "3u/(3u+1)", "2(u+1)/(2u)", "u u/u^2",
    "(u+1)(u+3)/((u+3)(u+2))", "((u+1/2)^2-1/4)/(u^2-1/9)", "(u+1)^150*(u+3)/((u+2)^150*(u+3))",
    "", " ", "u+", "(u+2", "u)", "u/v", "2^u", "u^-1", "u^", "(u+2)//u", "3..5", "1/2/3",
    "u^2/(u+1)", "2u/u", "(u+\u00b2)/(u+1)", "(u+1)^\u00b2/(u+2)^\u00b2", "\u0663u/(3u+1)",
    "(u+\u00bd)/(u+1)", "(u+1)/(u+\u00e9)", "u/u\u3000", "\uff11u/u",
]


class TestReferenceOracles:
    """The integer parser, pseudo-remainder Sturm chain and PRS gcd against the Fraction routes."""

    def test_parser_grid_matches_fraction_parser(self):
        for text in _PARSE_GRID:
            assert _outcome(parse_rational_fn, text) == _outcome(_reference_parse, text), text

    def test_parser_fuzz_matches_fraction_parser(self):
        rng = random.Random(13)
        alphabet = "u()+-*/^ 0123456789\u00b2\u0663\u00e9"
        parsed = 0
        for i in range(600):
            text = _random_expr(rng, rng.randint(1, 4))
            if i % 4:  # a ratio that tends to 1 whenever the expression grows at infinity
                text = f"({text})/({text}+{rng.randint(1, 9)}/{_random_expr(rng, 1)})"
            if i % 3 == 0:  # malformed: delete, insert or replace one character
                k = rng.randrange(len(text) + 1)
                text = text[:k] + rng.choice(["", rng.choice(alphabet)]) + text[k + 1:]
            if re.search(r"\^\s*[0-9]{2}", text):
                continue  # an exponent grown by the mutation: slow, not interesting
            got = _outcome(parse_rational_fn, text)
            assert got == _outcome(_reference_parse, text), text
            parsed += isinstance(got, RationalFn)
        assert parsed > 100

    def test_sturm_chain_matches_remainders_over_q(self):
        rng = random.Random(10)
        for i in range(360):
            p, _ = _oracle_case(rng, i)
            a = _primitive_ints(p.coeffs)
            lead, n = a[-1], p.degree
            h = [c * lead ** (n - 1 - k) for k, c in enumerate(a[:-1])] + [1]
            for g in (a, h):  # the primitive case (any leading sign) and its monic rescale
                if len(g) > 1:
                    assert _sturm_chain(g) == _reference_sturm_chain(PolyQ(g)), (i, str(p))

    def test_gcd_matches_euclid_on_high_degree_common_factors(self):
        rng = random.Random(14)

        def rand_poly(deg):
            return PolyQ([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
                         + [rng.choice([1, -1, 3, Fraction(-2, 7)])])

        for i in range(80):
            common = _product(rand_poly(1) for _ in range(i % 12)) * rand_poly(i % 3)
            a, b = rand_poly(rng.randint(0, 6)) * common, rand_poly(rng.randint(0, 6)) * common
            if i % 10 == 0:
                b = a * rand_poly(2)
            g = poly_gcd(a, b)
            assert g == _reference_gcd(a, b), i
            assert g.degree >= common.degree
        for a, b in [(POLY_ZERO, POLY_ZERO), (POLY_ZERO, PolyQ([2, -4])), (PolyQ([3]), POLY_ZERO)]:
            assert poly_gcd(a, b) == _reference_gcd(a, b)


class TestRationalFn:
    def test_canonical_form(self):
        f = RationalFn(PolyQ([4, 6, 2]), PolyQ([2, 4, 2]))  # 2(u+1)(u+2) / 2(u+1)^2
        assert f.num == PolyQ([2, 1])
        assert f.den == PolyQ([1, 1])

    def test_rejects_unequal_degrees(self):
        with pytest.raises(InputError):
            RationalFn(PolyQ([1, 1]), PolyQ([1, 1, 1]))

    def test_rejects_unequal_leading(self):
        with pytest.raises(InputError):
            RationalFn(PolyQ([0, 2]), PolyQ([1, 1]))

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            RationalFn(POLY_ZERO, POLY_ONE)

    def test_is_one(self):
        assert RationalFn(PolyQ([1, 1]), PolyQ([1, 1])).is_one()
        assert not RationalFn(PolyQ([2, 1]), PolyQ([1, 1])).is_one()

    def test_equality_of_equivalent_forms(self):
        a = RationalFn(PolyQ([2, 1]), PolyQ([1, 1]))
        b = RationalFn(PolyQ([2, 3, 1]), PolyQ([1, 2, 1]))  # multiplied by (u+1)
        assert a == b

    def test_normalization_matches_the_route_with_no_strip(self):
        # stripping the shared u^v first leaves the monic coprime pair, which is unique
        rng = random.Random(37)
        seen = set()
        for i in range(600):
            num, den = _normalization_case(rng, i)
            f = RationalFn(num, den)
            assert (f.num, f.den) == _reference_normalized(num, den), (num, den)
            seen.add((i % 5, i % 2, f.degree == 0, num.leading < 0,
                      num.leading.numerator % PRIME == 0))
        assert {s[:2] for s in seen} == {(v, w) for v in range(5) for w in (0, 1)}
        assert {s[2:] for s in seen} >= {(True, False, False), (False, True, False),
                                         (False, False, True), (False, True, True)}

    def test_shared_power_of_u(self):
        f = RationalFn(PolyQ([0, 0, 3, 1]), PolyQ([0, 0, 2, 1]))  # u^2(u+3) / u^2(u+2)
        assert (f.num, f.den) == (PolyQ([3, 1]), PolyQ([2, 1]))
        g = RationalFn(PolyQ([0, 6, 5, 1]), PolyQ([0, 0, 0, 1]))  # u(u+2)(u+3) / u^3
        assert (g.num, g.den) == (PolyQ([6, 5, 1]), PolyQ([0, 0, 1]))
        assert RationalFn(PolyQ([0, -2]), PolyQ([0, -2])).degree == 0


class TestParser:
    def test_basic(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        assert f.num == PolyQ([2, 1]) and f.den == PolyQ([1, 1])

    def test_powers_and_products(self):
        f = parse_rational_fn("(u+2)^2/(u+1)^2")
        assert f.num == PolyQ([4, 4, 1]) and f.den == PolyQ([1, 2, 1])
        g = parse_rational_fn("(u+1)(u+3)/(u(u+2))")
        assert g.num == PolyQ([3, 4, 1]) and g.den == PolyQ([0, 2, 1])

    def test_fractional_coefficients(self):
        f = parse_rational_fn("(u+1/2)/u")
        assert f.num == PolyQ([Fraction(1, 2), 1])

    def test_juxtaposition_coefficient(self):
        f = parse_rational_fn("(u^2+3u+1)/(u^2+1)")
        assert f.num == PolyQ([1, 3, 1]) and f.den == PolyQ([1, 0, 1])

    def test_unary_minus_and_spaces(self):
        f = parse_rational_fn(" (u - 1) / (u + 2) ")
        assert f.num == PolyQ([-1, 1])
        g = parse_rational_fn("(-1+u)/(u+2)")
        assert g == f

    def test_one(self):
        assert parse_rational_fn("1").is_one()

    def test_rejects_garbage(self):
        for bad in ["", "u+", "(u+2", "u/v", "2^u", "u^-1", "(u+2)//u", "3..5"]:
            with pytest.raises(InputError):
                parse_rational_fn(bad)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InputError):
            parse_rational_fn("(u+1)/(u^2+1)")

    def test_roundtrip_via_render(self):
        rng = random.Random(5)
        for _ in range(25):
            deg = rng.randint(1, 4)
            num = PolyQ([Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [1])
            den = PolyQ([Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [1])
            if num.degree != deg or den.degree != deg:
                continue
            try:
                f = RationalFn(num, den)
            except InputError:
                continue
            assert parse_rational_fn(str(f)) == f


class TestRender:
    def test_poly(self):
        assert render_poly(PolyQ([1, 3, 1])) == "u^2+3*u+1"
        assert render_poly(PolyQ([0, -1])) == "-u"
        assert render_poly(POLY_ZERO) == "0"
        assert render_poly(PolyQ([Fraction(1, 2)])) == "1/2"

    def test_rational_fn(self):
        f = RationalFn(PolyQ([2, 1]), PolyQ([1, 1]))
        assert render_rational_fn(f) == "(u+2)/(u+1)"
        assert str(f) == "(u+2)/(u+1)"
        one = RationalFn(POLY_ONE, POLY_ONE)
        assert render_rational_fn(one) == "(1)/(1)"


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat("2/5") == Fraction(2, 5)
    assert rat(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(InputError):
        rat(0.5)
