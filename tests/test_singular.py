"""Singular-vector search and the canonical one-parameter family."""

import pytest

from yverma.errors import InputError, InsufficientDataError
from yverma.rational import parse_rational_fn
from yverma.series import expand_rational
from yverma.singular import (
    canonical_singular_vector,
    expand_f_vector,
    f_candidates,
    find_singular,
    fvector_to_obj,
    verify_singular,
)
from yverma.verma import ModuleVector

MU = parse_rational_fn("(u+2)/(u+1)")


class TestCandidates:
    def test_level_one(self):
        assert f_candidates(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_level_two_ordered(self):
        cands = f_candidates(2, 3)
        assert cands == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]
        for mono in cands:
            assert list(mono) == sorted(mono)

    def test_level_zero(self):
        assert f_candidates(0, 5) == [()]

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            f_candidates(-1, 2)
        with pytest.raises(InputError):
            f_candidates(1, -2)


class TestSearch:
    def test_level_one_documented_example(self):
        # For mu = (u+2)/(u+1) there is exactly one singular vector at
        # level 1 with degree bound 1, namely f^(0) 1 + f^(1) 1, whose PBW
        # expansion is t_21^(2) 1.
        res = find_singular(MU, level=1, degree_bound=1)
        assert res.stabilized
        assert res.relation_bound >= 3
        assert len(res.fbasis) == 1
        assert res.fbasis[0] == {(0,): 1, (1,): 1}
        assert res.basis[0] == ModuleVector.basis([2])

    def test_solution_space_dimension_grows_with_degree(self):
        # Raising the degree bound admits tails of the same family:
        # dimension D - p + 1 at level 1 with degree bound D (p = 1 here).
        for bound in (1, 2, 3):
            res = find_singular(MU, level=1, degree_bound=bound)
            assert res.stabilized
            assert len(res.fbasis) == bound, bound

    def test_every_basis_vector_is_singular(self):
        res = find_singular(MU, level=1, degree_bound=3)
        for vec in res.basis:
            assert verify_singular(vec, MU, rmax=8)

    def test_no_singular_vectors_below_degree(self):
        # With degree bound 0 only f^(0) 1 is available, and it is not
        # singular for this weight.
        res = find_singular(MU, level=1, degree_bound=0)
        assert res.stabilized
        assert res.fbasis == ()
        assert res.basis == ()

    def test_truncated_weight_insufficient_data(self):
        short = expand_rational(MU, order=3)
        with pytest.raises(InsufficientDataError):
            find_singular(short, level=1, degree_bound=1)

    def test_truncated_weight_with_enough_data(self):
        series = expand_rational(MU, order=40)
        res = find_singular(series, level=1, degree_bound=1)
        assert res.fbasis == ({(0,): 1, (1,): 1},)

    def test_h_classification(self):
        res = find_singular(MU, level=1, degree_bound=1, classify_h=True)
        assert res.h_eigen == (True,)

    def test_size_cap(self):
        with pytest.raises(InputError):
            find_singular(MU, level=3, degree_bound=30, size_cap=10)

    def test_truncation_boundaries(self):
        # The weight window decides relation_budget and stabilized in a report.
        with pytest.raises(InsufficientDataError):
            find_singular(expand_rational(MU, order=4), level=1, degree_bound=1)
        for order, expected in [(5, (3, False)), (6, (4, False)), (7, (5, True))]:
            res = find_singular(expand_rational(MU, order=order), level=1, degree_bound=1)
            assert (res.relation_bound, res.stabilized) == expected, order


class TestCanonicalFamily:
    def test_degree_one_weight(self):
        # s = 1: coefficients lambda2^(1-r) give f^(0) + f^(1).
        assert canonical_singular_vector(MU, 1) == {(0,): 1, (1,): 1}

    def test_expansion_is_single_creation_generator(self):
        for s in (1, 2, 3):
            fvec = canonical_singular_vector(MU, s)
            assert expand_f_vector(fvec, MU) == ModuleVector.basis([s + 1]), s

    def test_family_members_are_singular(self):
        for s in (1, 2, 3):
            fvec = canonical_singular_vector(MU, s)
            zeta = expand_f_vector(fvec, MU)
            assert verify_singular(zeta, MU, rmax=8), s

    def test_degree_two_weight(self):
        mu2 = parse_rational_fn("(u^2+3u+1)/(u^2+1)")
        fvec = canonical_singular_vector(mu2, 2)
        assert fvec == {(0,): 1, (2,): 1}  # lambda2 = 1 + 0/u + 1/u^2
        assert expand_f_vector(fvec, mu2) == ModuleVector.basis([3])
        assert verify_singular(expand_f_vector(fvec, mu2), mu2, rmax=8)

    def test_below_degree_rejected(self):
        mu2 = parse_rational_fn("(u^2+3u+1)/(u^2+1)")
        with pytest.raises(InputError):
            canonical_singular_vector(mu2, 1)


class TestFormatting:
    def test_fvector_to_obj_sorted_and_stringified(self):
        fvec = {(1,): 1, (0,): 1}
        assert fvector_to_obj(fvec) == {
            "terms": [
                {"mono": [0], "coef": "1"},
                {"mono": [1], "coef": "1"},
            ]
        }

    def test_fvector_to_obj_drops_zeros(self):
        assert fvector_to_obj({(0,): 0}) == {"terms": []}
