"""Linear recurrences on series tails and exact rational reconstruction.

A series nu(u) = 1 + nu^(1) u^{-1} + nu^(2) u^{-2} + ... is a rational
function P(u)/Q(u) with deg P = deg Q and equal leading coefficients iff
its tail satisfies a finite linear recurrence

    c_0 nu^(r) + c_1 nu^(r+1) + ... + c_m nu^(r+m) = 0   for all r >= N.

Given such a witness the function itself is recovered exactly: writing
C(u) = sum_j c_j u^j, H(u) = sum_{t=0}^{N-1} nu^(t) u^{N-t} (nu^(0) = 1)
and B(u) = sum_{j=1}^{m} b_j u^j with b_j = sum_{k=j}^{m} c_k nu^(N+k-j),

    nu(u) = ( H(u) C(u) + B(u) ) / ( u^N C(u) ),

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


def _tail(coeffs: Sequence[Scalar]) -> list[Fraction]:
    return [rat(x) for x in coeffs]


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
    nu = _tail(coeffs)
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
    (verified here before reconstruction).
    """
    nu = _tail(coeffs)
    cvec = [rat(x) for x in c]
    if not any(cvec):
        raise InputError("recurrence coefficients are all zero")
    if tail_start < 1:
        raise InputError("tail_start must be >= 1")
    m = len(cvec) - 1
    L = len(nu)

    def value(idx: int) -> Fraction:
        if idx == 0:
            return Fraction(1)
        return nu[idx - 1]

    for r in range(tail_start, L - m + 1):
        if sum(cvec[j] * value(r + j) for j in range(m + 1)) != 0:
            raise InputError(f"recurrence fails at r={r}")

    n = tail_start
    cpoly = PolyQ(cvec)
    # H(u) = sum_{t=0}^{n-1} nu^(t) u^{n-t}: ascending coeff at u^j is nu^(n-j)
    hpoly = PolyQ([_ZERO] + [value(n - j) for j in range(1, n + 1)])
    b = [_ZERO] * (m + 1)
    for j in range(1, m + 1):
        b[j] = sum((cvec[k] * value(n + k - j) for k in range(j, m + 1)), _ZERO)
    bpoly = PolyQ(b)
    num = hpoly * cpoly + bpoly
    den = PolyQ([_ZERO] * n + [Fraction(1)]) * cpoly  # u^n * C(u)
    return RationalFn(num, den)


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
