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
without a gap.  So one exact elimination per order adds the rows
bottom-up, r = L-m, L-m-1, ..., and stops when the rank reaches m+1: the
earliest start lies one above the row that filled the rank (N = 1 if none
did).  A start counts only if N <= max(1, L//3) and at least
max_order + 2 instances confirm it.  The coefficients c are the first
canonical nullspace vector of that one (m, N) system, scaled so that the
last nonzero entry is 1.  Everything is exact; "no recurrence found" is
therefore a statement about the supplied window and budget only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence, Union

from . import linalg
from .errors import InputError, InsufficientDataError
from .rational import PolyQ, RationalFn, Scalar, rat
from .series import SeriesU

_ZERO = Fraction(0)


@dataclass(frozen=True)
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
    Each order m costs one elimination of the rows (nu^(r), ..., nu^(r+m)),
    added from r = L-m downwards until they reach rank m+1, and the
    witness's c costs one ``linalg.nullspace`` call (see the module
    docstring).  Returns ``None`` when no order <= max_order has an
    earliest start N <= max(1, L//3) with at least max_order + 2 instances
    r = N..L-m; raises ``InsufficientDataError`` when fewer than
    2 * max_order + 2 coefficients are supplied.
    """
    if max_order < 0:
        raise InputError("max_order must be >= 0")
    nu = [rat(x) for x in coeffs]
    L = len(nu)
    if L < 2 * max_order + 2:
        raise InsufficientDataError(
            f"need at least {2 * max_order + 2} tail coefficients for "
            f"max_order={max_order}, got {L}"
        )

    min_instances = max_order + 2
    for m in range(max_order + 1):
        last_r = L - m
        # nu[r - 1 : r + m] is the instance row (nu^(r), ..., nu^(r+m))
        echelon = linalg.RowEchelon()
        start = 1
        for r in range(last_r, 0, -1):
            echelon.add(nu[r - 1 : r + m])
            if echelon.rank == m + 1:
                start = r + 1
                break
        if start > min(max(1, L // 3), last_r - min_instances + 1):
            continue
        rows = [nu[r - 1 : r + m] for r in range(start, last_r + 1)]
        raw = linalg.nullspace(rows, m + 1)[0]
        last = next(x for x in reversed(raw) if x)
        c = tuple(x / last for x in raw)
        recovered = reconstruct_rational(nu, c, start)
        return RecurrenceWitness(c=c, tail_start=start, recovered=recovered)
    return None


def reconstruct_rational(
    coeffs: Sequence[Scalar], c: Sequence[Scalar], tail_start: int
) -> RationalFn:
    """Rebuild the rational function from a recurrence on the tail.

    ``coeffs`` lists nu^(1), nu^(2), ...; the recurrence with coefficients
    ``c`` must hold for every r >= tail_start that the window can check
    (verified here before reconstruction).  A ``tail_start`` so far out
    that the numerator would read past the window is an ``InputError``.
    """
    nu = [rat(x) for x in coeffs]
    cvec = [rat(x) for x in c]
    if not any(cvec):
        raise InputError("recurrence coefficients are all zero")
    if tail_start < 1:
        raise InputError("tail_start must be >= 1")
    m = len(cvec) - 1
    L = len(nu)
    if tail_start + m - 1 > L:
        raise InputError(
            f"tail_start {tail_start} lies past the window: the numerator reads "
            f"nu^({tail_start + m - 1}), the window ends at nu^({L})"
        )

    def value(idx: int) -> Fraction:
        if idx == 0:
            return Fraction(1)
        return nu[idx - 1]

    for r in range(tail_start, L - m + 1):
        if sum(cvec[j] * value(r + j) for j in range(m + 1)) != 0:
            raise InputError(f"recurrence fails at r={r}")

    n = tail_start
    # the u^0 coefficient of u^n C(u) nu(u) is the recurrence at r = n, so 0;
    # summing it would read nu^(n+m), which a short window may not hold
    num = [_ZERO] + [
        sum((cvec[j] * value(n + j - e) for j in range(max(0, e - n), m + 1)), _ZERO)
        for e in range(1, n + m + 1)
    ]
    return RationalFn(PolyQ(num), PolyQ([_ZERO] * n + cvec))  # P(u) / (u^n C(u))


@dataclass(frozen=True)
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
