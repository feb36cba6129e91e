"""Irreducible-quotient weight dimensions: Gram ranks vs product formula."""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import yverma.character as character
import yverma.linalg as linalg
import yverma.selftest as selftest
from yverma.character import (
    GramReport,
    character_formula,
    contravariant_pairing,
    irreducible_weight_dims,
    reorder_strings,
)
from yverma.errors import InputError
from yverma.linalg import rank
from yverma.rational import POLY_ONE, PolyQ, RationalFn, parse_rational_fn
from yverma.series import SeriesU, expand_rational
from yverma.verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    act_generator,
    basis_monomials,
    canonical_polynomial_weights,
)

MU1 = parse_rational_fn("(u+2)/(u+1)")  # one string of length 1
MU2 = parse_rational_fn("(u+3)/(u+1)")  # one string of length 2
MU_PROD = parse_rational_fn("(u+2)(u+4)/((u+1)(u+3))")  # two strings
MU_P3 = parse_rational_fn("(u+3)(u+5)(u+9)/((u+1)(u+2)(u+4))")


def _F(x, y=1):
    return Fraction(x, y)


class TestPairing:
    def test_highest_vector_normalization(self):
        hw = canonical_polynomial_weights(MU1)
        assert contravariant_pairing((), (), hw) == 1

    def test_cache_bound_to_other_weight_rejected_after_memo_hit(self):
        hw1 = canonical_polynomial_weights(MU1)
        hw2 = canonical_polynomial_weights(MU2)
        cache = ActionCache(hw1)
        assert contravariant_pairing((1,), (1,), hw1, cache) == contravariant_pairing(
            (1,), (1,), hw1
        )
        for m1, m2 in [((1,), (1,)), ((), ())]:
            with pytest.raises(InputError):
                contravariant_pairing(m1, m2, hw2, cache)

    def test_unequal_levels_rejected_or_zero(self):
        hw = canonical_polynomial_weights(MU1)
        with pytest.raises(InputError):
            contravariant_pairing((1,), (1, 2), hw)

    def test_left_index_below_one_rejected(self):
        hw = canonical_polynomial_weights(MU1)
        with pytest.raises(InputError):
            contravariant_pairing((0,), (1,), hw)

    def test_unsorted_left_monomial_shares_memo_key(self):
        hw = canonical_polynomial_weights(MU_PROD)
        cache = ActionCache(hw)
        sorted_value = contravariant_pairing((1, 2), (1, 2), hw, cache)
        assert contravariant_pairing((2, 1), (1, 2), hw, cache) == sorted_value
        assert all(key[0] != (2, 1) for key in cache.data if len(key) == 2)

    def test_symmetry(self):
        hw = canonical_polynomial_weights(MU_PROD)
        cache = ActionCache(hw)
        monos = [m for m in basis_monomials(2, 4) if m]
        for m1 in monos:
            for m2 in monos:
                if len(m1) == len(m2):
                    assert contravariant_pairing(
                        m1, m2, hw, cache
                    ) == contravariant_pairing(m2, m1, hw, cache), (m1, m2)

    def test_contravariance(self):
        # <t_21^(r) x, y> = <x, t_12^(r) y> for monomials x, y.
        hw = canonical_polynomial_weights(MU_PROD)
        cache = ActionCache(hw)
        for x, y in [((1,), (1, 2)), ((2,), (1, 1)), ((1, 2), (1, 1, 3))]:
            for r in (1, 2, 3):
                tx = act_generator(2, 1, r, ModuleVector.basis(x), hw, cache)
                ty = act_generator(1, 2, r, ModuleVector.basis(y), hw, cache)
                lhs = sum(c * contravariant_pairing(m, y, hw, cache) for m, c in tx.terms.items())
                rhs = sum(c * contravariant_pairing(x, m, hw, cache) for m, c in ty.terms.items())
                assert lhs == rhs, (x, y, r)


class TestSymmetricMemo:
    """Below the top level the memo keeps one entry per unordered pair; the
    top keeps the order asked for, so the symmetry check compares two routes."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every (i, j, r, monomial) image the pairing recursion reads."""
        log = []
        inner = character._act_mono

        def spy(i, j, r, mono, cache):
            log.append((i, j, r, mono))
            return inner(i, j, r, mono, cache)

        monkeypatch.setattr(character, "_act_mono", spy)
        return log

    def test_selftest_catches_a_doubled_t12_image(self, monkeypatch):
        inner = character._act_mono

        def doubled(i, j, r, mono, cache):
            image = inner(i, j, r, mono, cache)
            return {m: 2 * c for m, c in image.items()} if (i, j, r) == (1, 2, 2) else image

        monkeypatch.setattr(character, "_act_mono", doubled)
        failing = []
        for seed in range(6):
            rng = random.Random(f"{seed}:pairing_symmetric")
            try:
                selftest._check_pairing(rng)
            except selftest._Fail:
                failing.append(seed)
        assert failing == [0, 1, 2, 3]

    def test_reversed_call_reads_another_image(self, reads):
        hw = canonical_polynomial_weights(MU_PROD)
        m1, m2 = (1, 2), (2, 2)
        forward = contravariant_pairing(m1, m2, hw)
        forward_reads = set(reads)
        reads.clear()
        assert contravariant_pairing(m2, m1, hw) == forward
        assert set(reads) - forward_reads

    def test_keys_below_the_top_are_ordered(self):
        hw = canonical_polynomial_weights(MU_P3)
        cache = ActionCache(hw)
        monos = [m for m in basis_monomials(3, 7) if len(m) == 3]
        for m1, m2 in itertools.product(monos, monos):
            if m1 > m2:
                contravariant_pairing(m1, m2, hw, cache)
        keys = [key for key in cache.data if len(key) == 2]
        assert all(a > b for a, b in keys if len(a) == 3)
        assert all(a <= b for a, b in keys if len(a) < 3)
        assert any(len(a) == 2 for a, _ in keys)

    @pytest.mark.parametrize("mu", [MU_PROD, MU_P3])
    def test_gram_memo_holds_each_pair_once(self, monkeypatch, mu):
        cache = _recorded_gram_cache(monkeypatch, mu)
        keys = [key for key in cache.data if len(key) == 2]
        assert keys and all(a <= b for a, b in keys)


class TestGramDims:
    def test_two_dim_irreducible(self):
        reports = irreducible_weight_dims(MU1, max_level=3)
        assert [r.rank for r in reports] == [1, 1, 0, 0]

    def test_three_dim_irreducible(self):
        reports = irreducible_weight_dims(MU2, max_level=4)
        assert [r.rank for r in reports] == [1, 1, 1, 0, 0]

    def test_product_weight(self):
        reports = irreducible_weight_dims(MU_PROD, max_level=4)
        assert [r.rank for r in reports] == [1, 2, 1, 0, 0]

    def test_spanning_sizes(self):
        # Level-k spanning sets are multisets from {1..p}.
        reports = irreducible_weight_dims(MU_PROD, max_level=3)
        assert [r.spanning_size for r in reports] == [1, 2, 3, 4]
        assert repr(reports[2]) == "GramReport(level=2, spanning_size=3, rank=1)"

    def test_rank_never_exceeds_span(self):
        for mu in (MU1, MU2, MU_PROD):
            for rep in irreducible_weight_dims(mu, max_level=3):
                assert 0 <= rep.rank <= rep.spanning_size

    def test_negative_level_rejected(self):
        with pytest.raises(InputError):
            irreducible_weight_dims(MU1, max_level=-1)

    def test_series_weight_rejected(self):
        with pytest.raises(InputError, match="not a rational function"):
            irreducible_weight_dims(expand_rational(MU1, 4), max_level=2)

    @pytest.mark.parametrize(
        "text, max_level, ranks",
        [
            ("(u+3)(u+5)(u+9)/((u+1)(u+2)(u+4))", 7, [1, 3, 4, 4, 4, 4, 4, 4]),
            # half-integer shift 3/2 pairs with no denominator: ranks saturate at 8
            ("(u+3/2)(u+4)(u+5)/((u+1)(u+2)(u+3))", 7, [1, 3, 5, 7, 8, 8, 8, 8]),
            ("(u+3)(u+5)(u+9)(u+10)/((u+1)(u+2)(u+4)(u+7))", 5, [1, 4, 8, 11, 12, 12]),
        ],
    )
    def test_large_weights_match_character_formula(self, text, max_level, ranks):
        mu = parse_rational_fn(text)
        got = [r.rank for r in irreducible_weight_dims(mu, max_level)]
        assert got == ranks
        assert tuple(got) == character_formula(mu, max_level).dims


def _level_one_pairing_cache(lam1):
    """A plain cache on the pair (lam1, 1), where t_22 acts by 1."""
    return ActionCache(HighestWeightGL2(lam1, SeriesU([1], exact=True)))


class TestLevelOneRationality:
    """At level 1 the pairing on (mu, 1) is <t21(r), t21(s)> = mu^(r+s-1), a
    Hankel matrix in the coefficients of mu, so its rank is deg mu on a
    rational mu (Kronecker) and grows without bound on a non-rational one."""

    RATIONAL = expand_rational(parse_rational_fn("(u+1/2)(u+7)/((u+3)(u+1/3))"), 20)
    FACTORIAL = SeriesU([Fraction(1, math.factorial(k)) for k in range(21)], exact=False)

    def _hankel(self, cache, size):
        return [[contravariant_pairing((r,), (s,), cache.hw, cache)
                 for s in range(1, size + 1)] for r in range(1, size + 1)]

    @pytest.mark.parametrize("lam1", [RATIONAL, FACTORIAL])
    def test_pairing_reads_one_coefficient(self, lam1):
        cache = _level_one_pairing_cache(lam1)
        for r in range(1, 8):
            for s in range(1, 8):
                assert contravariant_pairing((r,), (s,), cache.hw, cache) == lam1.coeff(
                    r + s - 1
                ), (r, s)

    def test_rank_stops_at_the_degree_on_a_rational_weight(self):
        cache = _level_one_pairing_cache(self.RATIONAL)
        assert [rank(self._hankel(cache, size)) for size in range(1, 11)] == [1] + [2] * 9

    def test_rank_is_full_on_the_factorial_tail(self):
        cache = _level_one_pairing_cache(self.FACTORIAL)
        assert [rank(self._hankel(cache, size)) for size in range(1, 11)] == list(range(1, 11))


def _elementary(k, xs):
    """The elementary symmetric polynomial e_k(xs); zero for k < 0 or k > len(xs)."""
    if k < 0:
        return 0
    return sum((math.prod(c) for c in itertools.combinations(xs, k)), Fraction(0))


def _leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(m[i][sigma[i]] for i in range(n))
    return total


class TestLevelOneSplitFactorization:
    """On a split weight mu = prod (u+a_m)/(u+b_m), realized by its polynomial
    pair with a plain cache, the level-1 pairing factors site by site:

        <t21(r), t21(s)> = sum_m e_{r-1}(b_1..b_{m-1}, a_{m+1}..a_p) (a_m - b_m)
                                 e_{s-1}(a_1..a_{m-1}, b_{m+1}..b_p),

    for every pairing of the a's with the b's, and the p x p level-1 Gram
    determinant is (-1)^{p(p-1)/2} prod_{i,j} (a_i - b_j)."""

    @staticmethod
    def _check(a, b):
        p = len(a)
        mu = RationalFn(math.prod((PolyQ([x, 1]) for x in a), start=POLY_ONE),
                        math.prod((PolyQ([x, 1]) for x in b), start=POLY_ONE))
        assert mu.degree == p
        hw = canonical_polynomial_weights(mu)
        cache = ActionCache(hw)
        gram = [[contravariant_pairing((r,), (s,), hw, cache) for s in range(1, p + 2)]
                for r in range(1, p + 2)]
        for r in range(1, p + 2):  # r or s = p + 1 reads zero on both sides
            for s in range(1, p + 2):
                expected = sum(
                    _elementary(r - 1, b[:m] + a[m + 1:]) * (a[m] - b[m])
                    * _elementary(s - 1, a[:m] + b[m + 1:])
                    for m in range(p)
                )
                assert gram[r - 1][s - 1] == expected, (a, b, r, s)
        expected = (-1) ** (p * (p - 1) // 2) * math.prod(x - y for x in a for y in b)
        assert _leibniz_det([row[:p] for row in gram[:p]]) == expected, (a, b)

    @staticmethod
    def _roots(rng, p, den):
        while True:
            xs = [Fraction(rng.randint(-6 * den, 6 * den), den) for _ in range(2 * p)]
            if len(set(xs)) == 2 * p:
                return xs[:p], xs[p:]

    @pytest.mark.parametrize("den", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_seeded_weights(self, p, den):
        rng = random.Random(100 * p + den)
        for _ in range(12):
            self._check(*self._roots(rng, p, den))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_pairing_of_the_roots(self, p):
        rng = random.Random(p)
        for _ in range(16):
            a, b = self._roots(rng, p, rng.randint(1, 3))
            for b_order in itertools.permutations(b):
                self._check(a, list(b_order))


def _spanning(p, max_level):
    return [
        m
        for k in range(max_level + 1)
        for m in combinations_with_replacement(range(1, p + 1), k)
    ]


def _projecting_cache(hw, p):
    cache = ActionCache(hw)
    cache._tail = p
    return cache


def _recorded_gram_cache(monkeypatch, mu, max_level=4):
    """The one cache ``irreducible_weight_dims`` builds, after a run to max_level."""
    caches = []

    class Recording(ActionCache):
        def __init__(self, hw):
            super().__init__(hw)
            caches.append(self)

    monkeypatch.setattr(character, "ActionCache", Recording)
    irreducible_weight_dims(mu, max_level)
    (cache,) = caches
    return cache


def _reference_dims(mu, max_level):
    """The full route: rank of the Gram matrix on every level-k monomial over {1..p}."""
    p = mu.degree
    hw = canonical_polynomial_weights(mu)
    cache = _projecting_cache(hw, p)
    reports = []
    for k in range(max_level + 1):
        monos = list(combinations_with_replacement(range(1, p + 1), k))
        gram = [[contravariant_pairing(m1, m2, hw, cache) for m2 in monos] for m1 in monos]
        reports.append(GramReport(level=k, spanning_size=len(monos), rank=rank(gram)))
    return reports


def _split_weight(rng, p, offset):
    """prod (u + a_i) / prod (u + b_i) with a_i - b_i in {1..4} + offset, roots disjoint."""
    while True:
        betas = rng.sample(range(0, 8), p)
        alphas = [b + rng.randint(1, 4) + offset for b in betas]
        if len(set(alphas)) == p and not set(alphas) & set(betas):
            num = "".join(f"(u+{a})" for a in alphas)
            den = "".join(f"(u+{b})" for b in betas)
            return parse_rational_fn(f"{num}/({den})")


def _shifted_split_weight(rng, p, den):
    """A split weight whose shifts have denominator den, roots disjoint.

    Each pair (a, b) shares a random shift with denominator den; about
    half of the differences a - b are integers in {1..4} and the rest are
    off by 1/den, so the ranks saturate on some strings and not others.
    """
    while True:
        betas = [b + Fraction(rng.randrange(den), den) for b in rng.sample(range(0, 8), p)]
        alphas = [b + rng.randint(1, 4) + rng.choice([0, Fraction(1, den)]) for b in betas]
        if len(set(alphas)) == p and not set(alphas) & set(betas):
            num = "".join(f"(u+{a})" for a in alphas)
            den_text = "".join(f"(u+{b})" for b in betas)
            mu = parse_rational_fn(f"{num}/({den_text})")
            if any(c.denominator > 1 for c in mu.num.coeffs + mu.den.coeffs):
                return mu


class TestCarriedBasis:
    """Gram ranks on the carried basis equal the full spanning-set route."""

    @pytest.mark.parametrize("offset", [Fraction(0), Fraction(1, 2)], ids=["sat", "gen"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_full_spanning_route_on_seeded_split_weights(self, p, offset):
        rng = random.Random(100 * p + offset.denominator)
        max_level = 5 if p < 3 else 4
        for _ in range(3):
            mu = _split_weight(rng, p, offset)
            got = irreducible_weight_dims(mu, max_level)
            assert got == _reference_dims(mu, max_level), str(mu)
            assert tuple(r.rank for r in got) == character_formula(mu, max_level).dims

    def test_basis_is_pivot_columns_not_a_prefix(self):
        # at level 4 an early monomial of S_4 is dependent; carrying the
        # first rank(S_4) monomials instead of the pivots loses a dimension
        mu = parse_rational_fn("(u+3)(u+6)(u+11)/(u(u+2)(u+7))")
        reports = irreducible_weight_dims(mu, max_level=5)
        assert [r.rank for r in reports] == [1, 3, 5, 7, 9, 10]
        assert reports == _reference_dims(mu, 5)

    def test_degree_zero_weight(self):
        mu = parse_rational_fn("1")
        assert irreducible_weight_dims(mu, 3) == _reference_dims(mu, 3)

    def test_p5_matches_character_formula(self):
        mu = parse_rational_fn(
            "(u+3)(u+5)(u+9)(u+10)(u+14)/((u+1)(u+2)(u+4)(u+7)(u+11))"
        )
        reports = irreducible_weight_dims(mu, max_level=6)
        assert [r.rank for r in reports] == [1, 5, 13, 24, 35, 43, 47]
        assert [r.spanning_size for r in reports] == [1, 5, 15, 35, 70, 126, 210]
        assert tuple(r.rank for r in reports) == character_formula(mu, 6).dims

    def test_empty_basis_stays_empty_with_full_spanning_count(self):
        mu = parse_rational_fn("(u+3)(u+4)/((u+1)(u+2))")
        reports = irreducible_weight_dims(mu, max_level=10)
        assert [r.rank for r in reports] == [1, 2, 2, 2, 1] + [0] * 6
        assert [r.spanning_size for r in reports] == [k + 1 for k in range(11)]


class TestIntegerGram:
    """On a non-integral weight the Gram route pairs in Y_D, all in ints."""

    @pytest.mark.parametrize("den", [2, 3, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_reference_and_formula(self, p, den):
        rng = random.Random(1000 * den + p)
        max_level = 5 if p < 4 else 4
        for _ in range(2):
            mu = _shifted_split_weight(rng, p, den)
            got = irreducible_weight_dims(mu, max_level)
            assert got == _reference_dims(mu, max_level), str(mu)
            assert tuple(r.rank for r in got) == character_formula(mu, max_level).dims

    def test_non_split_weight_matches_reference(self):
        # numerator roots -7/2 +- i sqrt2, denominator roots -3/2 +- i sqrt2
        mu = parse_rational_fn("(u^2+7u+57/4)(u+7/3)/((u^2+3u+17/4)(u+1/3))")
        with pytest.raises(InputError):
            character_formula(mu, 5)
        reports = irreducible_weight_dims(mu, max_level=5)
        assert [r.rank for r in reports] == [1, 3, 6, 7, 6, 3]
        assert reports == _reference_dims(mu, 5)

    @pytest.mark.parametrize(
        "text",
        [
            "(u+7/2)(u+11/2)(u+9)/((u+1/2)(u+2)(u+4))",
            "(u+7/3)(u+5)/((u+1/3)(u+2))",
            "(u^2+7u+57/4)(u+7/3)/((u^2+3u+17/4)(u+1/3))",
        ],
    )
    def test_gram_cache_holds_only_ints(self, monkeypatch, text):
        cache = _recorded_gram_cache(monkeypatch, parse_rational_fn(text))
        assert cache.hw.hbar > 1
        values = [
            x
            for key, value in cache.data.items()
            for x in ([value] if len(key) == 2 else value.values())
        ]
        assert len(values) > 100
        assert all(type(x) is int for x in values)

    @pytest.mark.parametrize(
        "text",
        [
            "(u+7/2)(u+11/2)(u+9)/((u+1/2)(u+2)(u+4))",
            "(u+7/3)(u+5)/((u+1/3)(u+2))",
            "(u^2+7u+57/4)(u+7/3)/((u^2+3u+17/4)(u+1/3))",
            "(u+3)(u+5)(u+9)(u+10)/((u+1)(u+2)(u+4)(u+7))",
        ],
    )
    def test_gram_cache_holds_no_tail_index(self, monkeypatch, text):
        # t_21^(r), r > p, acts by zero, so no monomial of N is ever created
        mu = parse_rational_fn(text)
        p = mu.degree
        cache = _recorded_gram_cache(monkeypatch, mu)
        monos = [
            m
            for key, value in cache.data.items()
            for m in (key if len(key) == 2 else [key[3], *value])
        ]
        assert len(monos) > 100 and max(map(len, monos)) == 4
        assert all(x <= p for m in monos for x in m)

    @pytest.mark.parametrize(
        "text",
        [
            "(u+3)(u+5)(u+9)/((u+1)(u+2)(u+4))",
            "(u+7/2)(u+11/2)(u+9)/((u+1/2)(u+2)(u+4))",
            "(u^2+7u+57/4)(u+7/3)/((u^2+3u+17/4)(u+1/3))",
        ],
    )
    def test_gram_echelons_hold_only_primitive_int_rows(self, monkeypatch, text):
        echelons = []

        class Recording(linalg.RowEchelon):
            def __init__(self):
                super().__init__()
                echelons.append(self)

        monkeypatch.setattr(linalg, "RowEchelon", Recording)
        irreducible_weight_dims(parse_rational_fn(text), max_level=4)
        rows = [(p, row) for echelon in echelons for p, row in echelon._rows.items()]
        assert len(echelons) == 5 and len(rows) > 10
        assert all(type(x) is int for _, row in rows for x in row)
        assert all(math.gcd(*row) == 1 and row[p] > 0 for p, row in rows)

    def test_cli_gram_with_denominator_1e9_plus_7(self):
        # D = 10^9 + 7 scales every entry; finding D must not factor anything
        argv = ["gram", "--mu", "(u+1/1000000007)/(u+1)", "--max-level", "4"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "yverma", *argv], capture_output=True, text=True, timeout=20
        )
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 0, proc.stderr
        assert [lv["rank"] for lv in json.loads(proc.stdout)["levels"]] == [1] * 5


class TestTailProjection:
    """A cache that drops the tail submodule N changes no pairing."""

    @pytest.mark.parametrize("mu", [MU1, MU2, MU_PROD, MU_P3], ids=str)
    def test_pairings_equal_with_and_without_projection(self, mu):
        p = mu.degree
        hw = canonical_polynomial_weights(mu)
        plain, projecting = ActionCache(hw), _projecting_cache(hw, p)
        monos = _spanning(p, 3)
        for m1 in monos:
            for m2 in monos:
                if len(m1) == len(m2):
                    got = contravariant_pairing(m1, m2, hw, projecting)
                    assert got == contravariant_pairing(m1, m2, hw, plain), (m1, m2)

    @pytest.mark.parametrize("mu", [MU1, MU2, MU_PROD, MU_P3], ids=str)
    def test_projected_action_is_plain_action_modulo_tail(self, mu):
        p = mu.degree
        hw = canonical_polynomial_weights(mu)
        plain, projecting = ActionCache(hw), _projecting_cache(hw, p)
        for mono in _spanning(p, 3):
            v = ModuleVector.basis(mono)
            for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
                for r in range(2 * p + 3):
                    full = act_generator(i, j, r, v, hw, plain)
                    kept = {m: c for m, c in full.terms.items() if all(x <= p for x in m)}
                    assert act_generator(i, j, r, v, hw, projecting).terms == kept

    def test_plain_cache_keeps_tail_monomials(self):
        hw = canonical_polynomial_weights(MU1)
        for cache in (None, ActionCache(hw)):
            out = act_generator(1, 2, 2, ModuleVector.basis([1, 1]), hw, cache)
            assert any(max(m) > 1 for m in out.terms if m), out


class TestReorder:
    def test_documented_example(self):
        pairs, l = reorder_strings(
            [_F(2), _F(5)], [_F(4), _F(1)]
        )
        assert pairs == ((_F(2), _F(1)), (_F(5), _F(4)))
        assert l == 2

    def test_non_integer_residual(self):
        pairs, l = reorder_strings([_F(1, 2)], [_F(0)])
        assert l == 0
        assert pairs == ((_F(1, 2), _F(0)),)

    def test_mixed(self):
        pairs, l = reorder_strings([_F(3), _F(1, 2)], [_F(1), _F(0)])
        assert l == 1
        assert pairs[0] == (_F(3), _F(1))

    def test_tie_broken_by_smaller_numerator(self):
        pairs, l = reorder_strings([_F(1), _F(2)], [_F(1), _F(2)])
        assert l == 2
        assert pairs == ((_F(1), _F(1)), (_F(2), _F(2)))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            reorder_strings([_F(1)], [])

    def test_one_pass_matches_repeated_scan(self):
        # small pools force repeated shifts and ties; denominators 1-3 mix
        # integer and non-integer differences
        rng = random.Random(27)
        for _ in range(20000):
            n = rng.randint(0, 7)
            den = rng.randint(1, 3)
            pool = [Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(3)]
            alphas = [rng.choice(pool) for _ in range(n)]
            betas = [rng.choice(pool) - rng.randint(0, 2) for _ in range(n)]
            expected = _reference_reorder(alphas, betas)
            assert reorder_strings(alphas, betas) == expected, (alphas, betas)


def _reference_reorder(alphas, betas):
    """Repeated full scan for the least key (a - b, a) over the remaining shifts."""
    rem_a, rem_b = sorted(alphas), sorted(betas)
    pairs = []
    while rem_a:
        best = None
        for a in rem_a:
            for b in rem_b:
                d = a - b
                if d >= 0 and d.denominator == 1 and (best is None or (d, a) < best):
                    best = (d, a)
        if best is None:
            break
        d, a = best
        rem_a.remove(a)
        rem_b.remove(a - d)
        pairs.append((a, a - d))
    l = len(pairs)
    pairs.extend(zip(sorted(rem_a, reverse=True), sorted(rem_b, reverse=True)))
    return tuple(pairs), l


class TestCharacterFormula:
    def test_single_string(self):
        res = character_formula(MU2, max_level=4)
        assert res.dims == (1, 1, 1, 0, 0)
        assert res.integer_pair_count == 1

    def test_product_of_strings(self):
        res = character_formula(MU_PROD, max_level=4)
        assert res.dims == (1, 2, 1, 0, 0)
        assert res.integer_pair_count == 2

    def test_total_dimension_is_product_of_lengths(self):
        # For all-integer pairings the quotient is finite dimensional with
        # total dimension prod (d_i + 1).
        res = character_formula(MU_PROD, max_level=10)
        assert sum(res.dims) == 4  # (1+1)(1+1)

    def test_non_integer_difference_gives_infinite_tail(self):
        # mu = (u+1/2)/u has no nonnegative-integer pairing: every level
        # keeps dimension 1 (the quotient is the whole Verma module here).
        mu = parse_rational_fn("(2u+1)/(2u)")
        res = character_formula(mu, max_level=5)
        assert res.integer_pair_count == 0
        assert res.dims == (1, 1, 1, 1, 1, 1)

    def test_series_weight_rejected(self):
        with pytest.raises(InputError, match="not a rational function"):
            character_formula(expand_rational(MU2, 4), max_level=2)

    def test_irrational_roots_rejected(self):
        mu = parse_rational_fn("(u^2+2)/(u^2+1)")
        with pytest.raises(InputError):
            character_formula(mu, max_level=2)

    def test_agreement_with_gram_route(self):
        for mu in (MU1, MU2, MU_PROD):
            reports = irreducible_weight_dims(mu, max_level=4)
            res = character_formula(mu, max_level=4)
            assert tuple(r.rank for r in reports) == res.dims, str(mu)

    def test_window_sums_match_former_convolution(self):
        rng = random.Random(14)
        checked_wide = 0
        for _ in range(80):
            p = rng.randint(1, 4)
            betas = [Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3])) for _ in range(p)]
            alphas = [b + rng.choice([rng.randint(1, 70), Fraction(1, 2)]) for b in betas]
            num = "*".join(f"(u+{a.numerator}/{a.denominator})" for a in alphas)
            den = "*".join(f"(u+{b.numerator}/{b.denominator})" for b in betas)
            max_level = rng.randint(0, 60)
            res = character_formula(parse_rational_fn(f"{num}/({den})"), max_level)
            pairs = tuple(zip(res.alphas, res.betas))
            assert res.dims == _reference_character_dims(pairs, res.integer_pair_count, max_level)
            checked_wide += any(a - b > max_level for a, b in pairs[: res.integer_pair_count])
        assert checked_wide  # some string is longer than the window

    @pytest.mark.parametrize("max_level", [0, 1, 7, 60])
    def test_zero_difference_pair_is_the_identity_factor(self, monkeypatch, max_level):
        # a reduced weight never pairs a shift with itself, so inject one
        real = character.reorder_strings
        extra = (Fraction(5), Fraction(5))

        def with_equal_pair(alphas, betas):
            pairs, l = real(alphas, betas)
            return (extra,) + pairs, l + 1

        monkeypatch.setattr(character, "reorder_strings", with_equal_pair)
        res = character_formula(parse_rational_fn("(u+3)(u+1/2)/((u+1)(u-1/3))"), max_level)
        pairs = tuple(zip(res.alphas, res.betas))
        assert pairs[0] == extra
        assert res.dims == _reference_character_dims(pairs, res.integer_pair_count, max_level)
        monkeypatch.undo()
        assert res.dims == character_formula(
            parse_rational_fn("(u+3)(u+1/2)/((u+1)(u-1/3))"), max_level
        ).dims


def _reference_convolve_trunc(a, b, max_k):
    """The former ``character._convolve_trunc``."""
    out = [0] * (max_k + 1)
    for i, x in enumerate(a[: max_k + 1]):
        if x:
            for j, y in enumerate(b[: max_k + 1 - i]):
                out[i + j] += x * y
    return out


def _reference_character_dims(pairs, l, max_level):
    """Level dimensions by the former loop: one truncated all-ones convolution per pair."""
    dims = [1] + [0] * max_level
    for i, (a, b) in enumerate(pairs):
        width = min(int(a - b) + 1, max_level + 1) if i < l else max_level + 1
        dims = _reference_convolve_trunc(dims, [1] * width, max_level)
    return tuple(dims)
