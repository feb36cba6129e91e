"""Exact linear algebra over Fraction."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from yverma.linalg import RowEchelon, nullspace, rank, rref
from yverma.rational import _PRIME, PolyQ, RationalFn, _cleared
from yverma.series import expand_rational


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _reference_rref(rows):
    """Gauss-Jordan elimination, column by column over the whole matrix."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _reference_nullspace(rows, ncols):
    """Kernel read off the reference RREF: one vector per free column."""
    reduced, pivots = _reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def _matrices(seed, count):
    """Seeded random matrices of every shape class, plus the edge cases."""
    rng = random.Random(seed)
    yield [], 0
    yield [], 3
    yield [[], []], 0
    yield _frac_rows([[0, 0, 0], [0, 0, 0]]), 3
    yield _frac_rows([[1, -2, 3], [1, -2, 3], [0, 0, 0], [2, -4, 6]]), 3
    for _ in range(count):
        n, m = rng.choice([(rng.randint(1, 4), rng.randint(5, 9)),  # wide
                           (rng.randint(5, 9), rng.randint(1, 4)),  # tall
                           (rng.randint(1, 7), rng.randint(1, 7))])
        pool = rng.choice([[0, 0, 1, -1, 2], list(range(-9, 10)),
                           [Fraction(1, 3), Fraction(-5, 7), 0, 0, 4]])
        rows = _frac_rows([[rng.choice(pool) for _ in range(m)] for _ in range(n)])
        if n > 1 and rng.random() < 0.3:  # a duplicate and a zero row
            rows[rng.randrange(n)] = list(rows[0])
            rows[rng.randrange(n)] = [Fraction(0)] * m
        yield rows, m


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
                assert echelon.rank == len(_reference_rref(rows[:k])[1])
        assert RowEchelon().rank == 0

    def test_reduced_after_each_prefix_matches_reference(self):
        for rows, _ in _matrices(seed=11, count=120):
            echelon = RowEchelon()
            assert echelon.reduced() == ([], [])
            for k, row in enumerate(rows, 1):
                echelon.add(row)
                assert echelon.reduced() == _reference_rref(rows[:k]), rows[:k]
                assert echelon.rank == len(echelon.reduced()[1])

    def test_pivots_match_rref_and_leave_reduced_unchanged(self):
        for rows, _ in _matrices(seed=17, count=200):
            read, unread = RowEchelon(), RowEchelon()
            assert read.pivots == []
            for k, row in enumerate(rows, 1):
                read.add(row)
                unread.add(row)
                assert read.pivots == rref(rows[:k])[1], rows[:k]
            assert read.reduced() == unread.reduced(), rows
            assert read.pivots == rref(rows)[1]


class TestAgainstReference:
    """rref, rank and nullspace agree with the Gauss-Jordan reference."""

    def test_random_and_edge_matrices(self):
        for rows, ncols in _matrices(seed=3, count=300):
            before = [list(r) for r in rows]
            expected = _reference_rref(rows)
            assert rref(rows) == expected, rows
            assert rank(rows) == len(expected[1]), rows
            assert nullspace(rows, ncols) == _reference_nullspace(rows, ncols), rows
            assert rows == before


class TestIntRows:
    """Int rows (integral Gram matrices) give the exact Fraction results, never floats."""

    @staticmethod
    def _int_matrices():
        yield [[2, 1], [1, 3]], 2
        yield [[2, 1]], 2
        rng = random.Random(23)
        for _ in range(60):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            yield [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)], m

    def test_int_rows_match_fraction_reference(self):
        for rows, ncols in self._int_matrices():
            reduced, pivots = rref(rows)
            assert (reduced, pivots) == _reference_rref(_frac_rows(rows)), rows
            basis = nullspace(rows, ncols)
            assert basis == _reference_nullspace(_frac_rows(rows), ncols), rows
            entries = [x for row in reduced for x in row] + [x for v in basis for x in v]
            assert all(type(x) is Fraction for x in entries), rows

    def test_examples_that_used_float_division(self):
        assert rref([[2, 1], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])
        assert nullspace([[2, 1]], 2) == [(Fraction(-1, 2), Fraction(1))]
        assert type(nullspace([[2, 1]], 2)[0][0]) is Fraction


class _ReferenceEchelon:
    """The all-Fraction echelon: every stored row is made monic on arrival."""

    def __init__(self):
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    def add(self, row):
        v = list(row)
        for p in sorted(self._rows):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, self._rows[p])]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = Fraction(1) / v[lead]
            self._rows[lead] = [x * inv for x in v]

    def reduced(self):
        pivots = self.pivots
        for i, p in reversed(list(enumerate(pivots))):
            below = self._rows[p]
            for q in pivots[:i]:
                f = self._rows[q][p]
                if f:
                    self._rows[q] = [a - f * b for a, b in zip(self._rows[q], below)]
        return [self._rows[p] for p in pivots], pivots


def _mixed_matrices(seed, count):
    """Seeded int, Fraction and mixed matrices with the cases integer rows must survive.

    Zero rows, repeated rows and multiples of earlier rows, negative
    leads, entries past 2**64, and rows whose integer form is not
    primitive.
    """
    rng = random.Random(seed)
    big = 2**64
    pools = [
        list(range(-9, 10)),
        [0, 0, 1, -1, 2, -3],
        [big + 1, -big - 3, 3 * big, 0, 7, -1],
        [Fraction(1, 3), Fraction(-5, 7), 0, 4, -2],
        [Fraction(big, 3), Fraction(-1, big + 1), 2, -6, 0],
    ]
    for _ in range(count):
        n, m = rng.randint(1, 8), rng.randint(1, 7)
        kind = rng.choice(["int", "fraction", "mixed"])
        rows = []
        for _ in range(n):
            if rows and rng.random() < 0.2:  # a repeat or a multiple of an earlier row
                k = rng.choice([1, -1, 6, -big])
                rows.append([k * x for x in rng.choice(rows)])
                continue
            if rng.random() < 0.1:
                rows.append([0] * m)
                continue
            row = [rng.choice(rng.choice(pools[:3])) for _ in range(m)]
            if rng.random() < 0.3:  # not primitive: every entry shares a factor
                row = [6 * x for x in row]
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                row = [Fraction(x) + rng.choice([0, 0, rng.choice(pools[3] + pools[4])])
                       for x in row]
            rows.append(row)
        yield rows, m


class TestIntegerRows:
    """The integer-row echelon agrees with the all-Fraction reference on every read."""

    def test_every_read_matches_the_reference(self):
        rng = random.Random(41)
        checked = 0
        for rows, ncols in _mixed_matrices(seed=29, count=400):
            echelon, ref = RowEchelon(), _ReferenceEchelon()
            for row in rows:
                echelon.add(row)
                ref.add(row)
                assert echelon.rank == ref.rank, rows
                assert echelon.pivots == ref.pivots, rows
                for p, stored in echelon._rows.items():  # one row form: primitive int
                    assert all(type(x) is int for x in stored), rows
                    assert gcd(*stored) == 1 and stored[p] > 0, rows
                if rng.random() < 0.3:  # later rows are added after a reduced()
                    got = echelon.reduced()
                    assert got == ref.reduced(), rows
                    assert all(type(x) is Fraction for r in got[0] for x in r), rows
                    checked += 1
            reduced, pivots = echelon.reduced()
            assert (reduced, pivots) == ref.reduced(), rows
            assert all(type(x) is Fraction for r in reduced for x in r), rows
            expected = _reference_nullspace(_frac_rows(rows), ncols)
            assert nullspace(rows, ncols) == expected, rows
        assert checked > 100

    def test_integer_rows_are_stored_primitive_with_positive_lead(self):
        big = 2**64
        echelon = RowEchelon()
        echelon.add([0, -6 * big, 4 * big, -2 * big])
        echelon.add([-3, 6, 9, 12])
        echelon.add([1, 2, 3, 4])
        rows = echelon._rows
        assert rows[1] == [0, 3, -2, 1]
        # 3*[-3, 6, 9, 12] - 6*[0, 3, -2, 1] = [-9, 0, 39, 30], over -3
        assert rows[0] == [3, 0, -13, -10]
        # 3*[1, 2, 3, 4] - rows[0] = [0, 6, 22, 22]; 3*that - 6*rows[1] = [0, 0, 78, 60]
        assert rows[2] == [0, 0, 13, 10]
        assert all(type(x) is int for row in rows.values() for x in row)

    def test_mixed_rows_match_the_reference(self):
        rows = [[2, 4, 6], [Fraction(1, 2), 0, 1], [0, 3, 5], [1, Fraction(1, 3), 0]]
        echelon, ref = RowEchelon(), _ReferenceEchelon()
        for row in rows:
            echelon.add(row)
            ref.add(row)
        assert type(echelon._rows[0][0]) is int  # the first row stayed integral
        assert echelon.reduced() == ref.reduced()


class TestFullColumnRank:
    """At full column rank ``reduced()`` is the identity, and the echelon stays usable."""

    def test_matches_the_reference_and_stays_usable(self):
        rng = random.Random(31)
        kinds = set()
        for rows, ncols in _mixed_matrices(seed=37, count=400):
            if len(_reference_rref(_frac_rows(rows))[1]) < ncols:
                continue
            echelon, ref = RowEchelon(), _ReferenceEchelon()
            for row in rows:
                echelon.add(row)
                ref.add(row)
            reduced, pivots = echelon.reduced()
            assert (reduced, pivots) == ref.reduced(), rows
            assert reduced == [[int(i == j) for j in range(ncols)] for i in range(ncols)]
            assert all(type(x) is Fraction for r in reduced for x in r), rows
            for _ in range(3):  # later rows lie in the span
                echelon.add([rng.choice([0, 1, -3, Fraction(2, 5)]) for _ in range(ncols)])
                assert echelon.rank == ncols, rows
            assert echelon.reduced() == (reduced, pivots)
            assert nullspace(rows, ncols) == [], rows
            entries = {type(x) for row in rows for x in row}
            kinds.add((len(rows) == ncols, "mixed" if len(entries) > 1 else entries.pop().__name__))
        # square and tall, each with int, Fraction and mixed entries
        assert kinds == {(sq, k) for sq in (True, False) for k in ("int", "Fraction", "mixed")}


class TestKernel:
    """``RowEchelon.kernel`` is the reference nullspace of the rows added so far."""

    def test_every_prefix_matches_the_reference(self):
        kinds = set()
        for rows, ncols in _mixed_matrices(seed=43, count=400):
            echelon, ref = RowEchelon(), _ReferenceEchelon()
            assert echelon.kernel(ncols) == _reference_nullspace([], ncols)
            for k, row in enumerate(rows, 1):
                echelon.add(row)
                ref.add(row)
                expected = _reference_nullspace(_frac_rows(rows[:k]), ncols)
                basis = echelon.kernel(ncols)
                assert basis == expected, rows[:k]
                assert all(type(x) is Fraction for v in basis for x in v), rows[:k]
                # the 1 at each vector's free column is its last nonzero entry
                assert all(next(x for x in reversed(v) if x) == 1 for v in basis), rows[:k]
                # rows added after a kernel() read still match the reference
                assert (echelon.rank, echelon.pivots) == (ref.rank, ref.pivots), rows[:k]
                assert echelon.reduced() == ref.reduced(), rows[:k]
            entries = {type(x) for row in rows for x in row}
            kinds.add("mixed" if len(entries) > 1 else entries.pop().__name__)
        assert kinds == {"int", "Fraction", "mixed"}

    def test_full_column_rank_is_empty_and_leaves_the_rows(self):
        full = 0
        for rows, ncols in _mixed_matrices(seed=37, count=400):
            echelon, unread = RowEchelon(), RowEchelon()
            for row in rows:
                echelon.add(row)
                unread.add(row)
                if echelon.rank < ncols:
                    continue
                stored = {p: list(r) for p, r in echelon._rows.items()}
                assert echelon.kernel(ncols) == [], rows
                assert echelon._rows == stored, rows  # nothing back-substituted
                assert echelon.pivots == list(range(ncols)), rows
                assert echelon.reduced() == unread.reduced(), rows
                full += 1
        assert full > 100

    def test_reads_leave_integer_rows_as_added(self):
        # kernel() and reduced() back-substitute on copies, so an all-int
        # echelon keeps its primitive rows after being read
        rng = random.Random(47)
        read = 0
        for _ in range(200):
            ncols = rng.randint(2, 7)
            echelon = RowEchelon()
            for _ in range(rng.randint(1, ncols - 1)):
                echelon.add([rng.choice([0, 0, 1, -1, 2, -6, 9]) for _ in range(ncols)])
            stored = {p: list(r) for p, r in echelon._rows.items()}
            if echelon.kernel(ncols):
                read += 1
            assert echelon._rows == stored
            for p, row in echelon._rows.items():
                assert all(type(x) is int for x in row)
                assert row[p] > 0 and gcd(*row) == 1
            assert echelon.reduced() == echelon.reduced()
        assert read > 150


def _spanned(rng, basis, n, scale):
    """``n`` rows: the basis rows and combinations of them, with coefficients up to ``scale``."""
    rows = [list(r) for r in basis]
    while len(rows) < n:
        ks = [rng.randint(-scale, scale) for _ in basis]
        rows.append([sum(k * r[j] for k, r in zip(ks, basis)) for j in range(len(basis[0]))])
    rng.shuffle(rows)
    return rows


def _large_int_matrices(rng, count):
    """Rank-deficient int matrices with entries up to 10**12."""
    for _ in range(count):
        m = rng.randint(2, 8)
        r = rng.randint(1, m - 1)
        basis = [[rng.randint(-10**12, 10**12) for _ in range(m)] for _ in range(r)]
        yield _spanned(rng, basis, rng.randint(r, r + 4), 10**3), m


def _large_denominator_matrices(rng, count):
    """Rank-deficient Fraction matrices whose entries carry denominators up to 10**15."""
    for _ in range(count):
        m = rng.randint(2, 7)
        r = rng.randint(1, m - 1)
        basis = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**15))
                  for _ in range(m)] for _ in range(r)]
        yield _spanned(rng, basis, rng.randint(r, r + 3), 50), m


def _hankel_windows(rng, count):
    """The integer windows d nu^(r), r = 1..L-m, of rational tails at m = 12-24, L = 2m+2."""
    while count:
        m = rng.randint(12, 24)
        degree = rng.randint(1, m - 1)
        num, den = (PolyQ([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(degree)] + [1]) for _ in range(2))
        if num == den:
            continue
        series = expand_rational(RationalFn(num, den), 2 * m + 2)
        window = _cleared([series.coeff(r) for r in range(2 * m + 3)])[1]
        yield [window[r : r + m + 1] for r in range(1, m + 3)], m + 1
        count -= 1


class TestFractionFreeBackSubstitution:
    """``reduced()`` and ``kernel()`` back-substitute on the stored int rows.

    Entries large enough to grow under ``lead*a - f*b`` still give the
    reference forms, and a read leaves every stored row as ``add`` wrote it.
    """

    def test_large_entries_match_the_reference(self):
        rng = random.Random(37)
        cases = [*_large_int_matrices(rng, 60), *_large_denominator_matrices(rng, 40),
                 *_hankel_windows(rng, 8)]
        grew = 0
        for rows, ncols in cases:
            echelon = RowEchelon()
            for row in rows:
                echelon.add(row)
            stored = {p: (row, list(row)) for p, row in echelon._rows.items()}
            assert echelon.rank < ncols, rows  # rank-deficient: a kernel to read
            basis = echelon.kernel(ncols)
            reduced = echelon.reduced()
            assert reduced == _reference_rref(_frac_rows(rows)), rows
            assert basis == _reference_nullspace(_frac_rows(rows), ncols), rows
            assert all(type(x) is Fraction for r in reduced[0] for x in r), rows
            assert all(type(x) is Fraction for v in basis for x in v), rows
            for p, (row, copy) in stored.items():  # replaced, never written into
                assert echelon._rows[p] is row and row == copy, rows
            assert echelon.kernel(ncols) == basis and echelon.reduced() == reduced
            given = max(max(abs(Fraction(x).numerator), Fraction(x).denominator)
                        for row in rows for x in row)
            grew += any(max(abs(x.numerator), x.denominator) > given**2
                        for r in reduced[0] for x in r)
        assert grew >= 40  # a reduced entry outgrows the square of every given one


SRC = Path(__file__).resolve().parent.parent / "src" / "yverma"


def prime_literals(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of every integer constant expression equal to 2^61 - 1."""
    arithmetic = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Constant, ast.BinOp, ast.UnaryOp)):
                continue
            parts = list(ast.walk(node))
            if all(isinstance(n, arithmetic) for n in parts) and all(
                type(n.value) is int for n in parts if isinstance(n, ast.Constant)
            ):
                if eval(compile(ast.Expression(node), module, "eval")) == (1 << 61) - 1:
                    found.append((module, node.lineno))
    return found


def test_one_modulus_for_every_certificate():
    # poly_gcd's coprimality check and the recurrence scan's complexity
    # profile share rational._PRIME; a second copy could drift from it unnoticed
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    line = next(i for i, text in enumerate(sources["rational"].splitlines(), 1)
                if text.startswith("_PRIME ="))
    assert prime_literals(sources) == [("rational", line)]
    assert _PRIME == 2**61 - 1
    spelled = "A = (1 << 61) - 1\nB = 2**61 - 1\nC = 2305843009213693951\nD = (1 << 61) - 2\n"
    assert prime_literals({"m": spelled}) == [("m", 1), ("m", 2), ("m", 3)]
