"""Linear recurrences on series tails and exact rational reconstruction.

A series nu(u) = 1 + nu^(1) u^{-1} + nu^(2) u^{-2} + ... is a rational
function P(u)/Q(u) with deg P = deg Q and equal leading coefficients iff
its tail satisfies a finite linear recurrence

    c_0 nu^(r) + c_1 nu^(r+1) + ... + c_m nu^(r+m) = 0   for all r >= N.

Given such a witness the function itself is recovered exactly: writing
C(u) = sum_j c_j u^j and nu^(0) = 1, the recurrence at r = N, N+1, ...
kills the u^0, u^-1, ... coefficients of u^N C(u) nu(u), so that product
is a polynomial P(u) with

    P(u) = sum_{e=1}^{N+m} ( sum_{j >= max(0, e-N)} c_j nu^(N+j-e) ) u^e,
    nu(u) = P(u) / ( u^N C(u) ),

and both polynomials share degree N + deg C and leading coefficient, so
the normalized ratio is a valid ``RationalFn``.

Detection returns the smallest order m = 0..max_order that has a witness,
with the earliest tail start N for that order.  For fixed m, the instances
r = N..L-m (L coefficients supplied) form a Hankel system whose rows for
start N are those for start N+1 plus the row r = N.  Its kernel therefore
only shrinks as N falls, and the starts with a nonzero kernel run upward
without a gap.  So each order is scanned bottom-up, r = L-m, L-m-1, ...,
in two phases.  The rows go into one exact elimination only while its
rank is below m, where no row can fill rank m+1.  Then c is read off
the echelon once: at rank m the rows span exactly the vectors that c
kills, so each lower row is tested by one dot product with c, and the
first that c does not kill fills rank m+1 (a window that never reaches
rank m reads c off all its rows).  The earliest start lies one above
the filling row (N = 1 if none fills), and counts only if
N <= max(1, L//3) with at least max_order + 2 confirming instances, that
is N <= latest = min(max(1, L//3), L-m-max_order-1).
As a kernel vector of the echelon, c has last nonzero entry 1.  Both
phases read the integer window d nu^(r), d the lcm of its denominators:
one scale keeps every rank and kernel.  So does the
witness: c is cleared once to a primitive integer c' = lambda c, which
tests the lower rows, is checked on every instance r = N..L-m, and sums
the numerator off the window: that P' is lambda d P, and C' = lambda C,
so nu = P'(u) / (d u^N C'(u)).  That pair always shares u^v, v >= 1 (P'
has no u^0 term): ``RationalFn`` strips it by a shift, so the modular
certificate of ``poly_gcd`` can settle the rest with no remainder
sequence.  Before any exact elimination, one
Berlekamp-Massey pass mod P = ``rational._PRIME`` reads the window
backwards, x_i = d nu^(L-i) mod P for i = 0..L - latest(max_order), and
records l_k, the shortest LFSR length that generates x_0..x_{k-1}, for
every k.  With h = L - m - latest + 1, rows r = latest..L-m of order m are
the Hankel rows (x_s, ..., x_{s+m}), s < h, read right to left.  A kernel
vector mod P whose last nonzero entry sits at t <= m is an LFSR of length
t on the first h + t terms, and such an LFSR pads to a kernel vector; so
those rows have rank <= m mod P iff l_{h+t} <= t for some t in 0..m.
An order with no such t is skipped.  That is exact: the scan fails m iff
those rows have rank m+1 over Q, and the rank mod P of an integer matrix
never exceeds it.  An order the profile admits may still fail exactly (a
window divisible by P); the scan then goes on to the next admitted order.
Everything is exact; "no recurrence found" is a statement about the
window and budget only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Literal, Optional, Sequence, Union

from . import linalg
from .errors import InputError, InsufficientDataError, _record
from .rational import _PRIME, PolyQ, _cleared, RationalFn, Scalar, rat
from .series import SeriesU

_ZERO = Fraction(0)


@_record
class RecurrenceWitness:
    """A verified recurrence: coefficients c_0..c_m valid for r >= tail_start."""

    c: tuple[Fraction, ...]
    tail_start: int
    recovered: RationalFn


def detect_recurrence(
    coeffs: Sequence[Scalar], max_order: int
) -> Optional[RecurrenceWitness]:
    """Find the minimal-order, earliest-start recurrence on a series tail.

    ``coeffs`` lists nu^(1), nu^(2), ... (the constant term 1 is implied).
    One linear-complexity profile mod a prime of the reversed integer
    window d nu^(r) bounds, for every order m at once, the rank of the
    rows d (nu^(r), ..., nu^(r+m)) from the latest start up; only an order
    whose rows can fall short of rank m+1 is scanned exactly: its rows are
    eliminated up to rank m, c is read off that echelon once, and each
    lower row is tested by a dot product with c.  Returns ``None`` when
    no order <= max_order has an earliest start N <= max(1, L//3) with at
    least max_order + 2 instances r = N..L-m; raises
    ``InsufficientDataError`` when fewer than 2 * max_order + 2
    coefficients are supplied.
    """
    if max_order < 0:
        raise InputError("max_order must be >= 0")
    vals = [Fraction(1), *(rat(x) for x in coeffs)]  # vals[r] = nu^(r)
    L = len(vals) - 1
    if L < 2 * max_order + 2:
        raise InsufficientDataError(
            f"need at least {2 * max_order + 2} tail coefficients for "
            f"max_order={max_order}, got {L}"
        )

    window = _cleared(vals)[1]  # d nu^(r), d the lcm of the denominators
    lowest = min(max(1, L // 3), L - 2 * max_order - 1)  # latest at m = max_order
    profile = _complexity_profile([x % _PRIME for x in reversed(window[lowest:])])
    for m in range(max_order + 1):
        latest = min(max(1, L // 3), L - m - max_order - 1)
        h = L - m - latest + 1  # rows r = latest..L-m
        if all(profile[h + t] > t for t in range(m + 1)):
            continue  # those rows have rank m+1 mod P, so over Q: the scan fails m
        echelon = linalg.RowEchelon()
        r = L - m
        while r and echelon.rank < m:  # no row can fill rank m+1 here
            echelon.add(window[r : r + m + 1])
            r -= 1
        c = echelon.kernel(m + 1)[0]
        cint = _cleared(c)[1]  # primitive: c has an entry 1
        # at rank m the rows span exactly the vectors that c kills
        start = 1 + next(
            (s for s in range(r, 0, -1) if sum(map(mul, cint, window[s : s + m + 1]))), 0
        )
        if start > latest:
            continue
        recovered = _witnessed_fn(window, cint, start)
        return RecurrenceWitness(c=c, tail_start=start, recovered=recovered)
    return None


def _complexity_profile(xs: Sequence[int]) -> list[int]:
    """Linear-complexity profile of ``xs`` mod ``_PRIME`` (Berlekamp-Massey).

    Entry k is the least l such that some a_0..a_{l-1} mod P give
    x_{s+l} = a_0 x_s + ... + a_{l-1} x_{s+l-1} for s = 0..k-l-1: the
    shortest LFSR that generates xs[:k].  One pass, O(len(xs)^2).
    """
    conn, prev = [1], [1]  # C(x), and C before the last length change
    ell, shift, last = 0, 1, 1  # its length, x^shift on prev, prev's discrepancy
    profile = [0]
    for k in range(len(xs)):
        d = sum(map(mul, conn, xs[k::-1])) % _PRIME
        if d:
            f = d * pow(last, -1, _PRIME) % _PRIME
            new = conn + [0] * (len(prev) + shift - len(conn))
            for i, b in enumerate(prev, shift):
                new[i] = (new[i] - f * b) % _PRIME
            if 2 * ell <= k:
                ell, prev, last, shift = k + 1 - ell, conn, d, 0
            conn = new
        shift += 1
        profile.append(ell)
    return profile


def reconstruct_rational(
    coeffs: Sequence[Scalar], c: Sequence[Scalar], tail_start: int
) -> RationalFn:
    """Rebuild the rational function from a recurrence on the tail.

    ``coeffs`` lists nu^(1), nu^(2), ...; the recurrence with coefficients
    ``c`` must hold for every r >= tail_start that the window can check.
    The inputs are validated as rationals; then both are cleared to
    integers, and the check and the numerator run on those, as in
    ``detect_recurrence``.  A ``tail_start`` so far out that the numerator
    would read past the window is an ``InputError``.
    """
    vals = [Fraction(1), *(rat(x) for x in coeffs)]  # vals[r] = nu^(r)
    cvec = [rat(x) for x in c]
    if not any(cvec):
        raise InputError("recurrence coefficients are all zero")
    if tail_start < 1:
        raise InputError("tail_start must be >= 1")
    m = len(cvec) - 1
    L = len(vals) - 1
    if tail_start + m - 1 > L:
        raise InputError(
            f"tail_start {tail_start} lies past the window: the numerator reads "
            f"nu^({tail_start + m - 1}), the window ends at nu^({L})"
        )

    return _witnessed_fn(_cleared(vals)[1], _cleared(cvec)[1], tail_start)


def _witnessed_fn(window: list[int], c: list[int], n: int) -> RationalFn:
    """Check c = lambda (c_0..c_m) on every instance r >= n of the window
    d nu^(r) (d = window[0]), then build P'(u) / (d u^n C'(u)) = nu."""
    m = len(c) - 1
    for r in range(n, len(window) - m):
        if sum(a * b for a, b in zip(c, window[r : r + m + 1])) != 0:
            raise InputError(f"recurrence fails at r={r}")
    # the u^0 coefficient of u^n C(u) nu(u) is the recurrence at r = n, so 0;
    # summing it would read nu^(n+m), which a short window may not hold
    num = [0] + [
        sum(c[j] * window[n + j - e] for j in range(max(0, e - n), m + 1))
        for e in range(1, n + m + 1)
    ]
    return RationalFn(PolyQ(num), PolyQ([0] * n + [window[0] * x for x in c]))


@_record
class RationalityVerdict:
    """Explicit-budget answer to "is this weight series rational?"."""

    kind: Literal["rational", "no_recurrence_up_to", "insufficient_data"]
    budget: int
    rational: Optional[RationalFn] = None
    witness: Optional[RecurrenceWitness] = None

    def to_obj(self) -> dict:
        obj: dict = {"verdict": self.kind, "budget": self.budget}
        if self.rational is not None:
            obj["rational"] = str(self.rational)
        return obj


def is_rational_verdict(
    mu: Union[RationalFn, SeriesU], budget: int
) -> RationalityVerdict:
    """Decide rationality of a weight series within a recurrence-order budget.

    Rational inputs and exact series (polynomials in u^{-1}) are certified
    directly; truncated series go through recurrence detection.  All
    uncertainty is carried in the verdict -- this never raises on short
    data.
    """
    if budget < 0:
        raise InputError("budget must be >= 0")
    if isinstance(mu, RationalFn):
        return RationalityVerdict(kind="rational", budget=budget, rational=mu)
    if not isinstance(mu, SeriesU):
        raise InputError(f"not a weight series: {mu!r}")
    if mu.exact:
        p = mu.order
        num = PolyQ(reversed(mu.coeffs))  # sum_r c_r u^{p-r}
        den = PolyQ([_ZERO] * p + [Fraction(1)])
        return RationalityVerdict(
            kind="rational", budget=budget, rational=RationalFn(num, den)
        )
    tail = list(mu.coeffs[1:])
    try:
        witness = detect_recurrence(tail, budget)
    except InsufficientDataError:
        return RationalityVerdict(kind="insufficient_data", budget=budget)
    if witness is None:
        return RationalityVerdict(kind="no_recurrence_up_to", budget=budget)
    return RationalityVerdict(
        kind="rational",
        budget=budget,
        rational=witness.recovered,
        witness=witness,
    )
