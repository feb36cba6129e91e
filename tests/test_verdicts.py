"""Reducibility, weight-finiteness, and finite-dimension verdicts."""

import random
from math import factorial
from fractions import Fraction

import pytest

import yverma
from yverma.errors import InputError
from yverma.linalg import rref
from yverma.rational import POLY_ONE, PolyQ, RationalFn, parse_rational_fn
from yverma.rootsys import CartanData
from yverma.series import SeriesU, expand_rational
from yverma.verdicts import (
    HighestWeightTuple,
    classify,
    shifted_quotient_polynomial,
    verdict_finite_dimensional,
    verdict_reducible,
    verdict_weight_finiteness,
)

A1 = CartanData.from_matrix([[2]])
A2 = CartanData.from_matrix([[2, -1], [-1, 2]])
B2 = CartanData.from_matrix([[2, -1], [-2, 2]])

RAT = parse_rational_fn("(u+2)/(u+1)")


def _reference_shifted_quotient(f: RationalFn, d: int):
    """The monic Q with f(u) = Q(u+d)/Q(u) read off the RREF of the system
    with T_q moved to the right-hand side: the linear-system reference for
    the peeling route in ``shifted_quotient_polynomial``."""
    if f.is_one():
        return POLY_ONE
    num, den = f.num, f.den
    p = num.degree
    qdeg = (num.coeff(p - 1) - den.coeff(p - 1)) / Fraction(d)
    if qdeg <= 0 or qdeg.denominator != 1:
        return None
    q = int(qdeg)
    cols, shifted_pow, plain_pow = [], POLY_ONE, POLY_ONE
    for _ in range(q + 1):
        cols.append(shifted_pow * den - plain_pow * num)
        shifted_pow, plain_pow = shifted_pow * PolyQ([d, 1]), plain_pow * PolyQ([0, 1])
    rows = [[col.coeff(k) for col in cols[:q]] + [-cols[q].coeff(k)] for k in range(q + p)]
    reduced, pivots = rref(rows)
    if q in pivots:  # pivot in the augmented column: inconsistent system
        return None
    coeffs = [Fraction(0)] * q
    for row, col in zip(reduced, pivots):
        coeffs[col] = row[q]
    candidate = PolyQ(coeffs + [1])
    if candidate.shift_arg(d) * den != candidate * num:
        return None
    return candidate


def _factorial_series(n: int) -> SeriesU:
    return SeriesU([Fraction(1, factorial(r)) for r in range(n + 1)], exact=False)


class TestWeightTuple:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            HighestWeightTuple([])

    def test_rejects_non_weights(self):
        with pytest.raises(InputError):
            HighestWeightTuple(["(u+2)/(u+1)"])

    def test_len(self):
        assert len(HighestWeightTuple([RAT, RAT])) == 2


class TestReducible:
    def test_rational_component_certain(self):
        v = verdict_reducible(HighestWeightTuple([RAT]), budget=2)
        assert v.kind == "reducible"

    def test_mixed_tuple_still_reducible(self):
        weights = HighestWeightTuple([_factorial_series(12), RAT])
        v = verdict_reducible(weights, budget=2)
        assert v.kind == "reducible"

    def test_detected_from_truncation(self):
        series = expand_rational(RAT, order=12)
        v = verdict_reducible(HighestWeightTuple([series]), budget=2)
        assert v.kind == "reducible"
        assert v.components[0].rational == RAT

    def test_qualified_negative(self):
        v = verdict_reducible(HighestWeightTuple([_factorial_series(12)]), budget=3)
        assert v.kind == "irreducible_up_to_budget"
        assert v.budget == 3

    def test_short_window_undetermined(self):
        short = SeriesU([1, 1, 1], exact=False)
        v = verdict_reducible(HighestWeightTuple([short]), budget=3)
        assert v.kind == "undetermined"


class TestWeightFiniteness:
    def test_all_rational_finite(self):
        v = verdict_weight_finiteness(HighestWeightTuple([RAT, RAT]), budget=2)
        assert v.kind == "finite"

    def test_any_nonrational_blocks(self):
        weights = HighestWeightTuple([RAT, _factorial_series(12)])
        v = verdict_weight_finiteness(weights, budget=3)
        assert v.kind == "not_finite_up_to_budget"

    def test_short_window_undetermined(self):
        weights = HighestWeightTuple([SeriesU([1, 1], exact=False)])
        v = verdict_weight_finiteness(weights, budget=3)
        assert v.kind == "undetermined"


class TestClassify:
    @pytest.mark.parametrize(
        "components, kinds",
        [
            ([RAT, RAT], ("reducible", "finite")),
            ([RAT, _factorial_series(12)], ("reducible", "not_finite_up_to_budget")),
            ([_factorial_series(12)], ("irreducible_up_to_budget", "not_finite_up_to_budget")),
            ([SeriesU([1, 1], exact=False)], ("undetermined", "undetermined")),
        ],
    )
    def test_both_verdicts_from_one_pass(self, components, kinds):
        weights = HighestWeightTuple(components)
        reducible, finiteness = classify(weights, budget=3)
        assert (reducible.kind, finiteness.kind) == kinds
        assert reducible.components == finiteness.components
        # the named wrappers are its two halves
        assert verdict_reducible(weights, budget=3) == reducible
        assert verdict_weight_finiteness(weights, budget=3) == finiteness

    def test_exported_from_the_package(self):
        assert yverma.classify is classify


class TestFiniteDimensional:
    def test_rigid_identity_holds(self):
        # (u+2)/(u+1) is exactly den(u+1)/den(u) with d = 1.
        assert verdict_finite_dimensional(HighestWeightTuple([RAT]), A1) is True

    def test_rigid_identity_fails(self):
        f = parse_rational_fn("(u+3)/(u+1)")
        assert verdict_finite_dimensional(HighestWeightTuple([f]), A1) is False

    def test_respects_symmetrizers(self):
        # For B2 the first simple root has d = 2: the shift must be by 2.
        ok = HighestWeightTuple(
            [parse_rational_fn("(u+2)/u"), parse_rational_fn("(u+1)/u")]
        )
        assert verdict_finite_dimensional(ok, B2) is True
        swapped = HighestWeightTuple(
            [parse_rational_fn("(u+1)/u"), parse_rational_fn("(u+2)/u")]
        )
        assert verdict_finite_dimensional(swapped, B2) is False

    def test_truncated_component_undetermined(self):
        weights = HighestWeightTuple([expand_rational(RAT, order=12)])
        assert verdict_finite_dimensional(weights, A1) is None

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InputError):
            verdict_finite_dimensional(HighestWeightTuple([RAT]), A2)


class TestShiftedQuotient:
    def test_rigid_case(self):
        q = shifted_quotient_polynomial(RAT, 1)
        assert q == PolyQ([1, 1])  # u + 1

    def test_telescoping_chain(self):
        # (u+3)/(u+1) = Q(u+1)/Q(u) for Q = (u+1)(u+2), which the rigid
        # verdict misses.
        f = parse_rational_fn("(u+3)/(u+1)")
        q = shifted_quotient_polynomial(f, 1)
        assert q == PolyQ([2, 3, 1])
        assert verdict_finite_dimensional(HighestWeightTuple([f]), A1) is False

    def test_trivial_weight(self):
        assert shifted_quotient_polynomial(parse_rational_fn("u/u"), 1) == POLY_ONE

    def test_no_solution(self):
        # Degree mismatch in the leading correction: (u+1)/u with d = 2
        # would need deg Q = 1/2.
        assert shifted_quotient_polynomial(parse_rational_fn("(u+1)/u"), 2) is None

    def test_negative_shift_direction(self):
        # (u+1)/(u+2) shifts the wrong way: no monic Q works.
        assert (
            shifted_quotient_polynomial(parse_rational_fn("(u+1)/(u+2)"), 1) is None
        )

    def test_irrational_root_pair(self):
        f = parse_rational_fn("(u^2+2u+3)/(u^2+2)")
        q = shifted_quotient_polynomial(f, 1)
        assert q == PolyQ([2, 0, 1])  # u^2 + 2

    def test_step_two(self):
        # Q = u: Q(u+2)/Q(u) = (u+2)/u.
        assert shifted_quotient_polynomial(
            parse_rational_fn("(u+2)/u"), 2
        ) == PolyQ([0, 1])

    def test_inconsistent_system(self):
        # Correct candidate degree but no consistent solution.
        f = parse_rational_fn("(u^2+3u+5)/(u^2+u)")
        assert shifted_quotient_polynomial(f, 1) is None

    def test_random_round_trips(self):
        rng = random.Random(77)
        for _ in range(25):
            d = rng.randint(1, 3)
            deg = rng.randint(1, 4)
            q = PolyQ([rng.randint(-5, 5) for _ in range(deg)] + [1])
            f = RationalFn(q.shift_arg(d), q)
            recovered = shifted_quotient_polynomial(f, d)
            assert recovered is not None
            # Q is unique only up to d-periodic freedom absent over Q(u):
            # the reconstruction must itself satisfy the identity.
            assert recovered.shift_arg(d) * f.den == recovered * f.num

    def test_matches_the_rref_reference(self):
        rng = random.Random(83)
        realizable = 0
        for _ in range(240):
            d = rng.randint(1, 3)
            q = PolyQ([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 4))] + [1])
            num = q.shift_arg(d)
            if rng.random() < 0.4:  # the same leading correction, off by a constant
                num = num + PolyQ([rng.choice([-2, -1, Fraction(1, 2), 3])])
            f = RationalFn(num, q)
            expected = _reference_shifted_quotient(f, d)
            assert shifted_quotient_polynomial(f, d) == expected, (f, d)
            realizable += expected is not None
        assert 120 <= realizable < 240

    def test_sweep_against_the_rref_reference(self):
        # Q of degree up to 8 from repeated linear factors, step-d chains
        # (which telescope, so f keeps fewer factors than Q and more than one
        # peel is needed) and irreducible quadratics.
        rng = random.Random(2024)
        realizable = multi_peel = 0
        cases = 320
        for _ in range(cases):
            d = rng.randint(1, 3)
            q, target = POLY_ONE, rng.randint(1, 8)
            while q.degree < target:
                a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                kind = rng.choice(["repeated", "chain", "quadratic"])
                if kind == "quadratic" and q.degree + 2 <= target:
                    b = Fraction(rng.randint(1, 4), rng.randint(1, 2))
                    q = q * PolyQ([a * a + b, 2 * a, 1])  # (u+a)^2 + b, b > 0
                elif kind == "chain":
                    for k in range(min(rng.randint(2, 3), target - q.degree)):
                        q = q * PolyQ([a + k * d, 1])
                else:
                    for _ in range(min(rng.randint(1, 3), target - q.degree)):
                        q = q * PolyQ([a, 1])
            num = q.shift_arg(d)
            if rng.random() < 0.4:  # off by a constant
                num = num + PolyQ([rng.choice([-3, -1, Fraction(1, 2), Fraction(5, 3), 2])])
            f = RationalFn(num, q)
            expected = _reference_shifted_quotient(f, d)
            assert shifted_quotient_polynomial(f, d) == expected, (f, d)
            if expected is not None:
                realizable += 1
                multi_peel += f.den.degree < expected.degree
        assert 0.3 * cases <= realizable <= 0.9 * cases
        assert multi_peel >= 30

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            shifted_quotient_polynomial(RAT, 0)
        with pytest.raises(InputError):
            shifted_quotient_polynomial("(u+2)/(u+1)", 1)
