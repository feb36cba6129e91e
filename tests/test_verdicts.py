"""Reducibility, weight-finiteness, and finite-dimension verdicts."""

import random
from math import factorial
from fractions import Fraction

import pytest

import yverma
from yverma.errors import InputError
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

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            shifted_quotient_polynomial(RAT, 0)
        with pytest.raises(InputError):
            shifted_quotient_polynomial("(u+2)/(u+1)", 1)
