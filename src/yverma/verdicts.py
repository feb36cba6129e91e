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

from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

from .errors import InputError
from .linalg import rref
from .rational import POLY_ONE, PolyQ, RationalFn, rat
from .recurrence import RationalityVerdict, is_rational_verdict
from .rootsys import CartanData
from .series import SeriesU

WeightComponent = Union[RationalFn, SeriesU]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ReducibilityVerdict:
    kind: Literal["reducible", "irreducible_up_to_budget", "undetermined"]
    budget: int
    components: tuple[RationalityVerdict, ...]


@dataclass(frozen=True)
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
    quotient form mu_i(u) = Q(u + d_i)/Q(u); when root chains of step d_i
    telescope, the reduced form fails the rigid identity even though a
    realizing Q exists (e.g. (u+3)/(u+1) = Q(u+1)/Q(u) for
    Q = (u+1)(u+2)).  This verdict applies the rigid test, so such
    weights return False; use :func:`shifted_quotient_polynomial` per
    component for the complete constructive test.
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
    the common degree of numerator and denominator.  The coefficients of
    Q are then the solution of the linear system

        Q(u+d) * den(u) - Q(u) * num(u) = 0,

    solved exactly; the returned Q is re-verified against the identity
    before being reported.
    """
    if not isinstance(f, RationalFn):
        raise InputError(f"not a rational function: {f!r}")
    if d < 1:
        raise InputError(f"shift step must be a positive integer, got {d}")
    if f.is_one():
        return POLY_ONE
    num, den = f.num, f.den
    p = num.degree
    qdeg = (num.coeff(p - 1) - den.coeff(p - 1)) / rat(d)
    if qdeg <= 0 or qdeg.denominator != 1:
        return None
    q = int(qdeg)
    # Q = u^q + sum_j c_j u^j with j < q; the identity is linear in the c_j.
    # Column j collects T_j = (u+d)^j den - u^j num; the monic top power
    # contributes the inhomogeneous part T_q.
    u_plus_d = PolyQ([d, 1])
    shifted_pow = POLY_ONE
    plain_pow = POLY_ONE
    cols: list[PolyQ] = []
    for _ in range(q):
        cols.append(shifted_pow * den - plain_pow * num)
        shifted_pow = shifted_pow * u_plus_d
        plain_pow = plain_pow * PolyQ([0, 1])
    t_top = shifted_pow * den - plain_pow * num
    rows = [
        [col.coeff(k) for col in cols] + [-t_top.coeff(k)] for k in range(q + p)
    ]
    reduced, pivots = rref(rows)
    if q in pivots:  # pivot in the augmented column: inconsistent system
        return None
    coeffs = [rat(0)] * q
    for row, col in zip(reduced, pivots):
        coeffs[col] = row[q]
    candidate = PolyQ(coeffs + [1])
    if candidate.shift_arg(d) * den != candidate * num:
        return None
    return candidate
