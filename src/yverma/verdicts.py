"""Budget-explicit verdicts on reducibility, weight finiteness, and dimension.

For a Verma-type module over the Yangian of a semisimple Lie algebra the
highest weight is a tuple of series mu_i(u), one per simple root.  The
criteria wired here:

* the module is *reducible* as soon as some component mu_i is a rational
  function P_i/Q_i (monic, equal degree);
* all weight spaces of the irreducible quotient are *finite-dimensional*
  iff every component is such a rational function;
* the irreducible quotient is *finite-dimensional* when additionally the
  rigid identity P_i(u) = Q_i(u + d_i) holds for every i, with d_i the
  symmetrizer integers; shifted_quotient_polynomial gives the complete
  constructive form of that test (existence of a monic Q_i with
  mu_i(u) = Q_i(u + d_i)/Q_i(u)).

Truncated components make these undecidable in general, so each verdict
carries its recurrence budget and says "up to budget" or "undetermined"
instead of overclaiming.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence, Union

from .errors import InputError, _record
from .rational import POLY_ONE, PolyQ, RationalFn, rat, require_rational_fn
from .recurrence import RationalityVerdict, is_rational_verdict
from .rootsys import CartanData
from .series import SeriesU

WeightComponent = Union[RationalFn, SeriesU]


@_record
class HighestWeightTuple:
    """One weight component per simple root, each exact or truncated."""

    components: tuple[WeightComponent, ...]

    def __init__(self, components: Sequence[WeightComponent]):
        comps = tuple(components)
        if not comps:
            raise InputError("weight tuple must have at least one component")
        for c in comps:
            if not isinstance(c, (RationalFn, SeriesU)):
                raise InputError(f"not a weight component: {c!r}")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)


@_record
class ReducibilityVerdict:
    kind: Literal["reducible", "irreducible_up_to_budget", "undetermined"]
    budget: int
    components: tuple[RationalityVerdict, ...]


@_record
class WeightFinitenessVerdict:
    kind: Literal["finite", "not_finite_up_to_budget", "undetermined"]
    budget: int
    components: tuple[RationalityVerdict, ...]


def verdict_reducible(weights: HighestWeightTuple, budget: int) -> ReducibilityVerdict:
    """Reducible iff some component is rational (certain); otherwise qualified.

    ``classify(...)[0]``, kept because ``bench/tracing.py`` ``LAYERS`` names it."""
    return classify(weights, budget)[0]


def verdict_weight_finiteness(
    weights: HighestWeightTuple, budget: int
) -> WeightFinitenessVerdict:
    """All weight multiplicities finite iff every component is rational.

    ``classify(...)[1]``, kept because ``bench/tracing.py`` ``LAYERS`` names it."""
    return classify(weights, budget)[1]


def classify(
    weights: HighestWeightTuple, budget: int
) -> tuple[ReducibilityVerdict, WeightFinitenessVerdict]:
    """Both verdicts, from one rationality verdict per component."""
    comps = tuple(is_rational_verdict(c, budget) for c in weights.components)
    if any(v.kind == "rational" for v in comps):
        reducible = "reducible"
    elif any(v.kind == "insufficient_data" for v in comps):
        reducible = "undetermined"
    else:
        reducible = "irreducible_up_to_budget"
    if all(v.kind == "rational" for v in comps):
        finite = "finite"
    elif any(v.kind == "no_recurrence_up_to" for v in comps):
        finite = "not_finite_up_to_budget"
    else:
        finite = "undetermined"
    return (
        ReducibilityVerdict(kind=reducible, budget=budget, components=comps),
        WeightFinitenessVerdict(kind=finite, budget=budget, components=comps),
    )


def verdict_finite_dimensional(
    weights: HighestWeightTuple, cartan: CartanData
) -> Optional[bool]:
    """True/False when decidable exactly; None for truncated components.

    Decides the rigid polynomial identities P_i(u) = Q_i(u + d_i) on the
    canonical reduced form of each rational component, with d_i the
    symmetrizer integers.  A truncated series component leaves the
    question open (None), since no finite window settles a polynomial
    identity.

    The rigid identity is the special case Q = den of the general shifted
    quotient form mu_i(u) = Q(u + d_i)/Q(u): it holds iff the first peel
    of :func:`shifted_quotient_polynomial` leaves the ratio 1.  When root
    chains of step d_i telescope, the reduced form fails the rigid
    identity even though a realizing Q exists (e.g. (u+3)/(u+1) =
    Q(u+1)/Q(u) for Q = (u+1)(u+2), found by a second peel).  This
    verdict applies the rigid test, so such weights return False; use
    :func:`shifted_quotient_polynomial` per component for the complete
    constructive test.
    """
    if len(weights) != cartan.rank:
        raise InputError(
            f"weight tuple has {len(weights)} components for rank {cartan.rank}"
        )
    for mu, d in zip(weights.components, cartan.d):
        if not isinstance(mu, RationalFn):
            return None
        if mu.num != mu.den.shift_arg(d):
            return False
    return True


def shifted_quotient_polynomial(f: RationalFn, d: int) -> Optional[PolyQ]:
    """The monic Q with f(u) = Q(u+d)/Q(u), or None if no such Q exists.

    Such a Q is unique when it exists: if Q and Q' both realize f then
    Q/Q' is invariant under u -> u+d, which forces a constant ratio, and
    monicity forces the constant to 1.  Its degree is determined by the
    subleading coefficients: deg Q = (num[p-1] - den[p-1]) / d where p is
    the common degree of numerator and denominator.

    Q is built by forced peeling.  From num(u) Q(u) = den(u) Q(u+d) and
    gcd(num, den) = 1, den divides Q; writing Q = den * Q1 leaves
    Q1(u+d)/Q1(u) = num(u)/den(u+d), the same question on a reduced ratio
    with deg Q1 = deg Q - deg den.  Every peel is forced, so Q is the
    product of the denominators peeled until the ratio is 1, and a ratio
    that is not 1 once that product has reached deg Q proves that no Q
    exists.  The returned Q is re-verified against the identity before
    being reported.
    """
    require_rational_fn(f)
    if d < 1:
        raise InputError(f"shift step must be a positive integer, got {d}")
    if f.is_one():
        return POLY_ONE
    num, den = f.num, f.den
    p = num.degree
    qdeg = (num.coeff(p - 1) - den.coeff(p - 1)) / rat(d)
    if qdeg <= 0 or qdeg.denominator != 1:
        return None
    candidate, rest = POLY_ONE, f
    while not rest.is_one() and candidate.degree < qdeg:
        candidate = candidate * rest.den
        rest = RationalFn(rest.num, rest.den.shift_arg(d))
    if rest.is_one() and candidate.shift_arg(d) * den == candidate * num:
        return candidate
    return None
