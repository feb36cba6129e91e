"""Verma module vectors and the generator action on the creation basis."""

import json
import random
from fractions import Fraction

import pytest

from yverma.errors import InputError
from yverma.rational import format_rat, parse_rational_fn
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
    _mono_sort_key,
    basis_monomials,
    canonical_polynomial_weights,
    in_tail_submodule,
    monomial,
    nondecreasing_tuples,
    terms_to_obj,
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
            assert len(mono) <= 3
            assert sum(mono) <= 6

    @pytest.mark.parametrize("max_level, max_degree", [(-1, 3), (2, -1), (-1, -1)])
    def test_negative_bounds_rejected(self, max_level, max_degree):
        with pytest.raises(InputError):
            basis_monomials(max_level, max_degree)

    def test_matches_recursive_reference_on_grid(self):
        for max_level in range(6):
            for max_degree in range(10):
                assert basis_monomials(max_level, max_degree) == _reference_basis_monomials(
                    max_level, max_degree
                ), (max_level, max_degree)

    def test_generator_is_lazy_and_lexicographic(self):
        gen = nondecreasing_tuples(3, 0, 10**9)
        assert [next(gen) for _ in range(3)] == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
        levels = [list(nondecreasing_tuples(k, 2, 9)) for k in range(5)]
        assert levels[0] == [()] and levels[4] == [(2, 2, 2, 2), (2, 2, 2, 3)]
        for tuples in levels:
            assert tuples == sorted(tuples)


def _reference_basis_monomials(max_level, max_degree):
    """The former enumerator: every prefix depth first, then sorted by (level, lex)."""
    out = []

    def extend(prefix, smallest, budget):
        out.append(tuple(prefix))
        if len(prefix) == max_level:
            return
        for r in range(smallest, budget + 1):
            prefix.append(r)
            extend(prefix, r, budget - r)
            prefix.pop()

    extend([], 1, max_degree)
    return sorted(out, key=_mono_sort_key)


class TestModuleVector:
    def test_zero_and_truthiness(self):
        z = ModuleVector()
        assert z.is_zero() and not z
        assert ModuleVector.highest()

    def test_arithmetic(self):
        a = ModuleVector.basis([1]).scaled(2)
        b = ModuleVector.basis([2])
        s = a + b
        assert s.terms == {(1,): 2, (2,): 1}
        assert (s - a) == b
        assert (b.scaled(-1) + b).is_zero()

    def test_terms_drop_zero_coefficients(self):
        v = ModuleVector.basis([1]) - ModuleVector.basis([1])
        assert v.terms == {}

    def test_levels_sorted(self):
        v = ModuleVector.basis([1, 2]) + ModuleVector.basis([3]) + ModuleVector.highest()
        assert v.levels() == [0, 1, 2]

    def test_serialization_round_trip(self):
        v = ModuleVector.basis([1, 4]).scaled(Fraction(-3, 7)) + ModuleVector.highest()
        assert ModuleVector.from_obj(v.to_obj()) == v

    def test_coefficient_normalizes_its_key(self):
        v = ModuleVector.basis([1, 2]).scaled(3)
        assert v.terms.get(monomial([2, 1]), 0) == v.terms.get(monomial((1, 2)), 0) == 3
        with pytest.raises(InputError):
            v.terms.get(monomial([0, 1]), 0)

    def test_coefficient_of_a_missing_monomial_is_int_zero(self):
        for v in (ModuleVector(), ModuleVector.basis([1, 2]).scaled(Fraction(1, 3))):
            c = v.terms.get(monomial([3]), 0)
            assert c == 0 and type(c) is int

    def test_constructor_sorts_monomial_keys(self):
        assert ModuleVector({(2, 1): 1}) == ModuleVector.basis([1, 2])
        assert ModuleVector({(2, 1): 1, (1, 2): 2}).terms == {(1, 2): 3}

    def test_action_on_an_unsorted_key_is_in_normal_form(self):
        image = act_generator(2, 1, 1, ModuleVector({(2, 1): 1}), HW_POLY)
        assert image.terms == {(1, 1, 2): 1}
        assert image == act_generator(2, 1, 1, ModuleVector.basis([1, 2]), HW_POLY)

    def test_from_obj_normalizes_and_rejects_index_zero(self):
        obj = {"terms": [{"mono": [3, 1], "coef": "2"}, {"mono": [1, 3], "coef": "1/2"}]}
        assert ModuleVector.from_obj(obj) == ModuleVector.basis([1, 3]).scaled(Fraction(5, 2))
        for terms in ({(0,): 1}, {(2, -1): 1}):
            with pytest.raises(InputError, match="indices must be >= 1"):
                ModuleVector(terms)
        with pytest.raises(InputError, match="indices must be >= 1"):
            ModuleVector.from_obj({"terms": [{"mono": [0], "coef": "1"}]})

    def test_to_obj_bytes_match_former_serializer(self):
        rng = random.Random(14)
        pool = basis_monomials(3, 7)
        for _ in range(60):
            terms = {}
            for m in rng.sample(pool, rng.randint(0, 8)):
                c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                if c:
                    terms[m] = c
            v = ModuleVector._of(terms)  # int and Fraction coefficients, as the kernel keeps them
            expected = _reference_vector_obj(terms)
            assert json.dumps(v.to_obj(), sort_keys=True) == json.dumps(expected, sort_keys=True)
            assert terms_to_obj(terms) == expected


def _reference_vector_obj(terms):
    """The former ``ModuleVector.to_obj`` body."""
    return {
        "terms": [
            {"mono": list(m), "coef": format_rat(c)}
            for m, c in sorted(terms.items(), key=lambda kv: _mono_sort_key(kv[0]))
        ]
    }


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
        assert in_tail_submodule(ModuleVector(), 1)
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

    def test_diagonal_eigenvalue_matches_weight_of(self):
        # t_11^(1) - t_22^(1) acts on level k by lambda1^(1) - lambda2^(1) - 2k.
        cache = ActionCache(HW_POLY)
        base = HW_POLY.coeff(1, 1) - HW_POLY.coeff(2, 1)
        assert base == 1
        for mono in [(), (1,), (2,), (1, 1), (1, 3), (1, 1, 2)]:
            v = ModuleVector.basis(mono)
            out = act_generator(1, 1, 1, v, HW_POLY, cache) - act_generator(
                2, 2, 1, v, HW_POLY, cache
            )
            assert out == v.scaled(base - 2 * len(mono)), mono
