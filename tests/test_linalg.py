"""Exact linear algebra over Fraction."""

import random
from fractions import Fraction

from yverma.linalg import RowEchelon, nullspace, rank, rref


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestRref:
    def test_identity_like(self):
        reduced, pivots = rref(_frac_rows([[2, 0], [0, 3]]))
        assert pivots == [0, 1]
        assert reduced == [[1, 0], [0, 1]]

    def test_dependent_rows(self):
        reduced, pivots = rref(_frac_rows([[1, 2], [2, 4], [3, 6]]))
        assert pivots == [0]
        assert reduced == [[1, 2]]

    def test_pivot_normalization(self):
        reduced, pivots = rref(_frac_rows([[0, 2, 4], [1, 1, 1]]))
        assert pivots == [0, 1]
        assert reduced == [[1, 0, -1], [0, 1, 2]]

    def test_empty(self):
        reduced, pivots = rref([])
        assert reduced == [] and pivots == []


class TestRank:
    def test_rank_values(self):
        assert rank(_frac_rows([[1, 2], [2, 4]])) == 1
        assert rank(_frac_rows([[1, 0], [0, 1]])) == 2
        assert rank(_frac_rows([[0, 0], [0, 0]])) == 0
        assert rank([]) == 0

    def test_rank_bounded_random(self):
        rng = random.Random(2)
        for _ in range(20):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = _frac_rows(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            )
            r = rank(rows)
            assert 0 <= r <= min(n, m)


class TestNullspace:
    def test_no_constraints_gives_standard_basis(self):
        basis = nullspace([], 3)
        assert basis == [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]

    def test_kernel_of_sum(self):
        basis = nullspace(_frac_rows([[1, 1, 1]]), 3)
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_full_rank_trivial_kernel(self):
        basis = nullspace(_frac_rows([[1, 0], [0, 1]]), 2)
        assert basis == []

    def test_vectors_annihilate_rows_randomly(self):
        rng = random.Random(9)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            rows = _frac_rows(
                [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            )
            basis = nullspace(rows, m)
            assert len(basis) == m - rank(rows)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_canonical_for_equal_spaces(self):
        # Two different generating sets of the same row space give the same
        # canonical kernel basis.
        rows1 = _frac_rows([[1, 2, 3], [0, 1, 1]])
        rows2 = _frac_rows([[1, 3, 4], [2, 5, 7], [1, 2, 3]])
        assert nullspace(rows1, 3) == nullspace(rows2, 3)


class TestRowEchelon:
    def test_rank_after_each_row_matches_rank_of_prefix(self):
        rng = random.Random(5)
        for _ in range(25):
            n, m = rng.randint(1, 7), rng.randint(1, 5)
            rows = _frac_rows(
                [[rng.choice([0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(n)]
            )
            echelon = RowEchelon()
            for k, row in enumerate(rows, 1):
                echelon.add(row)
                assert echelon.rank == rank(rows[:k])
        assert RowEchelon().rank == 0
