"""Verma module vectors and the generator action on the creation basis."""

import random
from fractions import Fraction

import pytest

from yverma.errors import InputError
from yverma.rational import parse_rational_fn
from yverma.series import (
    SERIES_ONE,
    SeriesU,
    series_mul,
    series_shift_argument,
)
from yverma.verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    act_generator,
    act_quantum_det,
    basis_monomials,
    canonical_polynomial_weights,
    in_tail_submodule,
    monomial,
    monomial_degree,
    monomial_level,
    weight_of,
)

# mu = (u+2)/(u+1) realized with polynomial weight series 1 + 2/u and 1 + 1/u.
HW_POLY = canonical_polynomial_weights(parse_rational_fn("(u+2)/(u+1)"))
# Weight with lambda1 = 1, lambda2 = 1 + 1/u (series ratio mu = 1/(1 + 1/u)).
HW_UNIT = HighestWeightGL2(SERIES_ONE, SeriesU([1, 1], exact=True))


class TestMonomials:
    def test_normalization_sorts(self):
        assert monomial([3, 1, 2]) == (1, 2, 3)
        assert monomial([]) == ()

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(InputError):
            monomial([0])
        with pytest.raises(InputError):
            monomial([2, -1])

    def test_level_and_degree(self):
        assert monomial_level((1, 2, 2)) == 3
        assert monomial_degree((1, 2, 2)) == 5
        assert monomial_level(()) == 0
        assert monomial_degree(()) == 0

    def test_basis_enumeration(self):
        basis = basis_monomials(max_level=2, max_degree=4)
        assert basis == [
            (),
            (1,),
            (2,),
            (3,),
            (4,),
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 2),
        ]

    def test_basis_respects_bounds(self):
        for mono in basis_monomials(max_level=3, max_degree=6):
            assert monomial_level(mono) <= 3
            assert monomial_degree(mono) <= 6


class TestModuleVector:
    def test_zero_and_truthiness(self):
        z = ModuleVector.zero()
        assert z.is_zero() and not z
        assert ModuleVector.highest()

    def test_arithmetic(self):
        a = ModuleVector.basis([1]).scaled(2)
        b = ModuleVector.basis([2])
        s = a + b
        assert s.coefficient([1]) == 2
        assert s.coefficient([2]) == 1
        assert (s - a) == b
        assert (-b + b).is_zero()

    def test_terms_drop_zero_coefficients(self):
        v = ModuleVector.basis([1]) - ModuleVector.basis([1])
        assert v.terms == {}

    def test_levels_sorted(self):
        v = ModuleVector.basis([1, 2]) + ModuleVector.basis([3]) + ModuleVector.highest()
        assert v.levels() == [0, 1, 2]
        assert v.max_degree() == 3

    def test_serialization_round_trip(self):
        v = ModuleVector.basis([1, 4]).scaled(Fraction(-3, 7)) + ModuleVector.highest()
        assert ModuleVector.from_obj(v.to_obj()) == v


class TestGeneratorAction:
    def test_degree_zero_is_kronecker_delta(self):
        v = ModuleVector.basis([2, 3])
        assert act_generator(1, 1, 0, v, HW_POLY) == v
        assert act_generator(2, 2, 0, v, HW_POLY) == v
        assert act_generator(1, 2, 0, v, HW_POLY).is_zero()
        assert act_generator(2, 1, 0, v, HW_POLY).is_zero()

    def test_highest_vector_relations(self):
        one = ModuleVector.highest()
        for r in range(1, 5):
            assert act_generator(1, 2, r, one, HW_POLY).is_zero()
            assert act_generator(1, 1, r, one, HW_POLY) == one.scaled(
                HW_POLY.coeff(1, r)
            )
            assert act_generator(2, 2, r, one, HW_POLY) == one.scaled(
                HW_POLY.coeff(2, r)
            )
            assert act_generator(2, 1, r, one, HW_POLY) == ModuleVector.basis([r])

    def test_creation_operators_build_basis(self):
        v = act_generator(2, 1, 2, ModuleVector.highest(), HW_POLY)
        assert act_generator(2, 1, 1, v, HW_POLY) == ModuleVector.basis([1, 2])

    def test_diagonal_action_on_level_one(self):
        # In the module with lambda1 = 1 and lambda2 = 1 + 1/u the vector
        # v = t_21^(1) 1 satisfies
        #   t_11^(1) v = -v,   t_22^(1) v = 2 v,   t_12^(1) v = -1.
        v = ModuleVector.basis([1])
        assert act_generator(1, 1, 1, v, HW_UNIT) == v.scaled(-1)
        assert act_generator(2, 2, 1, v, HW_UNIT) == v.scaled(2)
        assert act_generator(1, 2, 1, v, HW_UNIT) == ModuleVector.highest().scaled(-1)

    def test_action_is_linear(self):
        a = ModuleVector.basis([1]).scaled(Fraction(1, 2))
        b = ModuleVector.basis([2]).scaled(-3)
        lhs = act_generator(1, 2, 2, a + b, HW_POLY)
        rhs = act_generator(1, 2, 2, a, HW_POLY) + act_generator(1, 2, 2, b, HW_POLY)
        assert lhs == rhs

    def test_cache_reuse_and_weight_guard(self):
        cache = ActionCache(HW_POLY)
        v = ModuleVector.basis([1, 2])
        plain = act_generator(1, 2, 3, v, HW_POLY)
        assert act_generator(1, 2, 3, v, HW_POLY, cache) == plain
        assert act_generator(1, 2, 3, v, HW_POLY, cache) == plain
        with pytest.raises(InputError):
            act_generator(1, 1, 1, v, HW_UNIT, cache)

    def test_index_validation(self):
        v = ModuleVector.highest()
        with pytest.raises(InputError):
            act_generator(0, 1, 1, v, HW_POLY)
        with pytest.raises(InputError):
            act_generator(1, 3, 1, v, HW_POLY)
        with pytest.raises(InputError):
            act_generator(1, 1, -1, v, HW_POLY)


class TestQuantumDeterminant:
    def test_eigenvalue_on_highest_vector(self):
        # qdet(u) acts on the highest vector by lambda1(u) lambda2(u-1).
        one = ModuleVector.highest()
        for hw in (HW_POLY, HW_UNIT):
            expected = series_mul(
                hw.lambda1, series_shift_argument(hw.lambda2, -1, order=6)
            )
            for r in range(0, 7):
                out = act_quantum_det(r, one, hw)
                assert out == one.scaled(expected.coeff(r)), f"degree {r}"

    def test_centrality_spot_checks(self):
        cache = ActionCache(HW_POLY)
        for mono in [(1,), (2,), (1, 1), (1, 2)]:
            v = ModuleVector.basis(mono)
            for r in range(1, 4):
                for (i, j, s) in [(2, 1, 1), (1, 2, 2), (1, 1, 1), (2, 2, 2)]:
                    a = act_quantum_det(
                        r, act_generator(i, j, s, v, HW_POLY, cache), HW_POLY, cache
                    )
                    b = act_generator(
                        i, j, s, act_quantum_det(r, v, HW_POLY, cache), HW_POLY, cache
                    )
                    assert a == b, (mono, r, (i, j, s))

    def test_rejects_negative_degree(self):
        with pytest.raises(InputError):
            act_quantum_det(-1, ModuleVector.highest(), HW_POLY)


class TestTailSubmodule:
    def test_membership(self):
        assert in_tail_submodule(ModuleVector.basis([2]), 1)
        assert not in_tail_submodule(ModuleVector.basis([1]), 1)
        mixed = ModuleVector.basis([2]) + ModuleVector.basis([1])
        assert not in_tail_submodule(mixed, 1)
        assert in_tail_submodule(ModuleVector.zero(), 1)
        # Only one index needs to exceed p; the others may be small.
        assert in_tail_submodule(ModuleVector.basis([1, 1, 5]), 2)

    def test_stability_under_action(self):
        # For polynomial weight series of degree <= p the tail span is
        # invariant under every generator.
        rng = random.Random(5)
        p = HW_POLY.lambda1.order
        assert p == 1
        cache = ActionCache(HW_POLY)
        inside = [
            ModuleVector.basis([2]),
            ModuleVector.basis([3]),
            ModuleVector.basis([1, 2]),
            ModuleVector.basis([2, 2]),
        ]
        for v in inside:
            for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                for r in range(1, 5):
                    assert in_tail_submodule(
                        act_generator(i, j, r, v, HW_POLY, cache), p
                    ), (v, i, j, r)
        del rng


class TestWeights:
    def test_canonical_polynomial_weights(self):
        hw = canonical_polynomial_weights(parse_rational_fn("(u+2)/(u+1)"))
        assert hw.lambda1 == SeriesU([1, 2], exact=True)
        assert hw.lambda2 == SeriesU([1, 1], exact=True)
        assert hw.mu(order=4) == SeriesU(
            [1, 1, -1, 1, -1], exact=False
        )

    def test_weight_of_levels(self):
        base = HW_POLY.coeff(1, 1) - HW_POLY.coeff(2, 1)
        assert base == 1
        info = weight_of(ModuleVector.basis([1]), HW_POLY)
        assert info.level == 1 and info.eigenvalue == -1
        info0 = weight_of(ModuleVector.highest(), HW_POLY)
        assert info0.level == 0 and info0.eigenvalue == 1

    def test_weight_of_rejects_mixed(self):
        mixed = ModuleVector.basis([1]) + ModuleVector.highest()
        with pytest.raises(InputError):
            weight_of(mixed, HW_POLY)
        with pytest.raises(InputError):
            weight_of(ModuleVector.zero(), HW_POLY)

    def test_diagonal_eigenvalue_matches_weight_of(self):
        # t_11^(1) - t_22^(1) acts diagonally on each level.
        cache = ActionCache(HW_POLY)
        for mono in [(1,), (2,), (1, 1), (1, 3), (1, 1, 2)]:
            v = ModuleVector.basis(mono)
            out = act_generator(1, 1, 1, v, HW_POLY, cache) - act_generator(
                2, 2, 1, v, HW_POLY, cache
            )
            info = weight_of(v, HW_POLY)
            assert out == v.scaled(info.eigenvalue), mono
