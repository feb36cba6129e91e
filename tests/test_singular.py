"""Singular-vector search and the canonical one-parameter family."""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from yverma import linalg, singular
from yverma.errors import InputError, InsufficientDataError, TruncationError
from yverma.gauss import act_e, act_h, as_gl2_weights, e_series
from yverma.rational import PolyQ, RationalFn, format_rat, parse_rational_fn, rat
from yverma.recurrence import detect_recurrence
from yverma.series import SERIES_ONE, SeriesU, expand_rational
from yverma.singular import (
    _f_monomials,
    canonical_singular_vector,
    expand_f_monomial,
    expand_f_vector,
    find_singular,
    verify_singular,
)
from yverma.verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    _mono_sort_key,
    act_generator,
    terms_to_obj,
)

MU = parse_rational_fn("(u+2)/(u+1)")


def _reference_find_singular(mu, level, degree_bound, max_extra_relations=32):
    """The direct search: every row kept, the kernel re-solved each round.

    Returns (relation_bound, stabilized, fbasis, basis) as find_singular
    reports them; stops once the kernel is empty or equal for two rounds.
    """
    hw = as_gl2_weights(mu)
    cache = ActionCache(hw)
    cands = list(_f_monomials(level, degree_bound))
    try:
        vectors = [expand_f_monomial(fm, hw, cache) for fm in cands]
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short to expand level-{level} candidates: {exc}"
        ) from exc
    r_start = degree_bound + level + 1
    rows = []
    e_images = [e_series(v, hw, cache) for v in vectors]

    def add_relations():
        images = [next(series) for series in e_images]
        monos = sorted({m for img in images for m in img.terms}, key=_mono_sort_key)
        for mono in monos:
            rows.append([img.terms.get(mono, 0) for img in images])

    try:
        for _ in range(r_start + 1):
            add_relations()
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short for relation bound {r_start}: {exc}"
        ) from exc
    current = linalg.nullspace(rows, len(cands))
    bound = r_start
    stabilized = not current
    if current:
        unchanged = 0
        for extra in range(1, max_extra_relations + 1):
            try:
                add_relations()
            except TruncationError:
                break
            bound = r_start + extra
            nxt = linalg.nullspace(rows, len(cands))
            unchanged = unchanged + 1 if nxt == current else 0
            current = nxt
            if not current or unchanged >= 2:
                stabilized = True
                break
    fbasis = tuple(
        {cands[j]: coord for j, coord in enumerate(vec) if coord} for vec in current
    )
    basis = tuple(
        sum((vectors[j].scaled(c) for j, c in enumerate(vec) if c), ModuleVector())
        for vec in current
    )
    return bound, stabilized, fbasis, basis


def _search(mu, level, degree_bound):
    res = find_singular(mu, level, degree_bound)
    return res.relation_bound, res.stabilized, res.fbasis, res.basis


def _outcome(search, *args):
    try:
        return search(*args)
    except InsufficientDataError as exc:
        return str(exc)


class TestCandidates:
    def test_level_one(self):
        assert find_singular(MU, 1, 3).candidates == ((0,), (1,), (2,), (3,))

    def test_level_two_ordered(self):
        cands = find_singular(MU, 2, 3).candidates
        assert cands == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2))
        for mono in cands:
            assert list(mono) == sorted(mono)

    def test_level_zero(self):
        assert find_singular(MU, 0, 5).candidates == ((),)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            find_singular(MU, -1, 2)
        with pytest.raises(InputError):
            find_singular(MU, 1, -2)

    def test_matches_recursive_reference_on_grid(self):
        for level in range(6):
            for degree_bound in range(10):
                assert list(_f_monomials(level, degree_bound)) == list(
                    _reference_f_monomials(level, degree_bound)
                ), (level, degree_bound)

    @pytest.mark.parametrize("level, degree_bound", [(-1, 3), (2, -1)])
    def test_bounds_checked_at_call_time(self, level, degree_bound):
        with pytest.raises(InputError):
            _f_monomials(level, degree_bound)  # before the first candidate is drawn


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
        # every basis vector is an eigenvector of h^(0)
        res = find_singular(MU, level=1, degree_bound=3)
        assert len(res.basis) == 3
        for w in res.basis:
            image = act_h(0, w, MU)
            mono = next(iter(w.terms))
            # integral coefficients are ints, so divide exactly
            assert image == w.scaled(Fraction(image.terms.get(mono, 0), w.terms[mono]))

    def test_size_cap(self):
        # level 9 with degree bound 150 has far more candidates than can be
        # listed; the search stops reading them at the cap of 5000
        argv = ["singular", "--mu", "(u+2)/(u+1)", "--level", "9", "--degree", "150"]
        proc = subprocess.run(
            [sys.executable, "-m", "yverma", *argv], capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "code": "input",
            "message": "candidate space exceeds the cap of 5000 monomials",
        }
        start = time.perf_counter()
        with pytest.raises(InputError, match="exceeds the cap of 5000"):
            find_singular(MU, level=9, degree_bound=150)
        assert time.perf_counter() - start < 1.0

    def test_truncation_boundaries(self):
        # The weight window decides relation_budget and stabilized in a report.
        with pytest.raises(InsufficientDataError):
            find_singular(expand_rational(MU, order=4), level=1, degree_bound=1)
        for order, expected in [(5, (3, False)), (6, (4, False)), (7, (5, True))]:
            res = find_singular(expand_rational(MU, order=order), level=1, degree_bound=1)
            assert (res.relation_bound, res.stabilized) == expected, order


class TestFullRankStop:
    """On an exact weight the relation rounds end once the kernel is empty."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        counts = []
        inner = singular.e_series

        def counting(v, hw, cache=None):
            counts.append(0)
            k = len(counts) - 1
            for img in inner(v, hw, cache):
                counts[k] += 1
                yield img

        monkeypatch.setattr(singular, "e_series", counting)
        return counts

    def test_exact_weight_stops_before_r_start(self, drawn):
        res = find_singular(MU, 3, 7)
        r_start = 7 + 3 + 1
        assert (res.relation_bound, res.stabilized, res.fbasis) == (r_start, True, ())
        assert len(drawn) == len(res.candidates)
        assert max(drawn) < r_start + 1

    def test_truncated_weight_draws_every_round_to_r_start(self, drawn):
        res = find_singular(expand_rational(MU, order=40), 2, 1)
        r_start = 1 + 2 + 1
        assert (res.relation_bound, res.stabilized, res.fbasis) == (r_start, True, ())
        assert drawn == [r_start + 1] * len(res.candidates)

    def test_integral_weight_rows_are_int(self, monkeypatch):
        rows = []
        add = linalg.RowEchelon.add

        def spy_add(self, row):
            rows.append(list(row))
            add(self, row)

        monkeypatch.setattr(linalg.RowEchelon, "add", spy_add)
        find_singular(MU, 3, 7)
        assert rows
        assert all(type(x) is int for row in rows for x in row)

    def test_level_six_degree_twelve(self):
        # the rank is full after two relation rounds; the time bound only guards against a hang
        start = time.perf_counter()
        res = find_singular(MU, 6, 12)
        assert len(res.candidates) == 227
        assert (res.relation_bound, res.stabilized) == (19, True)
        assert res.fbasis == () and res.basis == ()
        assert time.perf_counter() - start < 30


class TestAgainstReference:
    """find_singular reports what the per-round kernel search reports."""

    WEIGHTS = [
        "(u+2)/(u+1)",
        "(u+4)/(u+1)",
        "(u+1)/(u+3)",
        "(u+5/2)/(u+1)",
        "(u+1/2)/(u+2)",
        "(u^2+3u+1)/(u^2+1)",
        "(u+3)(u+5)/((u+1)(u+2))",
    ]

    @classmethod
    def grid(cls):
        """The seeded (weight text, level, degree bound) cases."""
        rng = random.Random(6)
        cases = [(w, 1, d) for w in cls.WEIGHTS for d in range(7)]
        cases += [(w, 2, rng.randint(0, 6)) for w in cls.WEIGHTS]
        cases += [(w, 3, rng.randint(0, 4)) for w in cls.WEIGHTS]
        # level 4 on the exact weights, where the rounds end at full rank, at
        # degrees where the per-round reference stays near a second each
        cases += [(w, 4, 5 if "/2" in w else 6) for w in cls.WEIGHTS]
        return cases

    #: Truncated windows (weight text, order) and (level, degree bound) searches.
    TRUNCATED = [
        (text, order)
        for order in range(4, 17)
        for text in ["(u+2)/(u+1)", "(u+5/2)/(u+1)", "(u^2+3u+1)/(u^2+1)"]
    ]
    TRUNCATED_SEARCHES = [(1, 1), (1, 3), (2, 2), (3, 1)]

    def test_seeded_grid(self):
        kinds = set()
        for text, level, bound in self.grid():
            mu = parse_rational_fn(text)
            expected = _outcome(_reference_find_singular, mu, level, bound)
            assert _outcome(_search, mu, level, bound) == expected, (text, level, bound)
            kinds.add(bool(expected[2]))
        assert kinds == {True, False}  # empty and nonempty kernels

    def test_truncated_series(self):
        kinds = set()
        for text, order in self.TRUNCATED:
            series = expand_rational(parse_rational_fn(text), order=order)
            for args in self.TRUNCATED_SEARCHES:
                expected = _outcome(_reference_find_singular, series, *args)
                got = _outcome(_search, series, *args)
                assert got == expected, (text, order, args)
                kinds.add("error" if isinstance(expected, str) else expected[1])
        assert kinds == {"error", True, False}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls per name of the kernel reads the search could make."""
        count = dict.fromkeys(["kernel", "nullspace", "rref"], 0)

        def counting(name, inner):
            def wrapper(*args):
                count[name] += 1
                return inner(*args)

            return wrapper

        echelon = linalg.RowEchelon
        monkeypatch.setattr(echelon, "kernel", counting("kernel", echelon.kernel))
        monkeypatch.setattr(linalg, "nullspace", counting("nullspace", linalg.nullspace))
        monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
        return count

    @pytest.mark.parametrize(
        "mu, level, bound",
        [
            (MU, 1, 3),  # nonempty kernel, stabilized
            (MU, 2, 1),  # empty kernel
            (expand_rational(MU, order=5), 1, 1),  # window ends first
        ],
    )
    def test_one_nullspace_per_search(self, calls, mu, level, bound):
        find_singular(mu, level, bound)
        assert calls == {"kernel": 1, "nullspace": 0, "rref": 0}


def _t12_row_search(mu, level, degree_bound):
    """find_singular's rounds with the rows of t_12^(r+1) v in place of e^(r) v.

    t_22(u) e(u) = t_12(u) and t_22^(0) = 1 give t_12^(r+1) v = e^(r) v +
    sum_{c=1..r} t_22^(c) e^(r-c) v: rounds 0..R of either kind of row
    impose the same conditions, so every round has the same kernel.  Runs
    on the unscaled weight; the kernel read off the echelon is canonical.
    """
    hw = as_gl2_weights(mu)
    exact = hw.lambda1.exact and hw.lambda2.exact
    cache = ActionCache(hw)
    cands = list(_f_monomials(level, degree_bound))
    try:
        vectors = [expand_f_monomial(fm, hw, cache) for fm in cands]
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short to expand level-{level} candidates: {exc}"
        ) from exc
    r_start = degree_bound + level + 1
    echelon = linalg.RowEchelon()

    def add_relations(r):
        images = [act_generator(1, 2, r + 1, v, hw, cache).terms for v in vectors]
        for mono in sorted({m for img in images for m in img}, key=_mono_sort_key):
            if echelon.rank == len(cands):
                break
            echelon.add([img.get(mono, 0) for img in images])

    bound, unchanged = r_start, 0
    for r in range(r_start + singular._MAX_EXTRA_RELATIONS + 1):
        if (echelon.rank == len(cands) and (exact or r > r_start)) or unchanged >= 2:
            break
        before = echelon.rank
        try:
            add_relations(r)
        except TruncationError as exc:
            if r > r_start:
                break
            raise InsufficientDataError(
                f"weight series too short for relation bound {r_start}: {exc}"
            ) from exc
        if r > r_start:
            bound = r
            unchanged = unchanged + 1 if echelon.rank == before else 0
    kernel = echelon.kernel(len(cands))
    fbasis = tuple({cands[j]: c for j, c in enumerate(vec) if c} for vec in kernel)
    basis = tuple(
        sum((vectors[j].scaled(c) for j, c in enumerate(vec) if c), ModuleVector())
        for vec in kernel
    )
    stabilized = echelon.rank == len(cands) or unchanged >= 2
    return bound, stabilized, fbasis, basis


class TestT12Rows:
    """Rows of t_12^(r+1) v give the search find_singular reports."""

    def test_seeded_grid(self):
        kinds = set()
        for text, level, bound in TestAgainstReference.grid():
            mu = parse_rational_fn(text)
            expected = _outcome(_search, mu, level, bound)
            assert _outcome(_t12_row_search, mu, level, bound) == expected, (text, level, bound)
            kinds.add(bool(expected[2]))
        assert kinds == {True, False}

    def test_truncated_series(self):
        kinds = set()
        for text, order in TestAgainstReference.TRUNCATED:
            series = expand_rational(parse_rational_fn(text), order=order)
            for args in TestAgainstReference.TRUNCATED_SEARCHES:
                expected = _outcome(_search, series, *args)
                assert _outcome(_t12_row_search, series, *args) == expected, (text, order, args)
                kinds.add("error" if isinstance(expected, str) else expected[1])
        assert kinds == {"error", True, False}


class TestSeriesWindowReads:
    """The coefficients of mu a search on the series weight (mu, 1) reads."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Indices of lambda1 read per phase: "expand", then relation round r."""
        log: dict = {}
        phase = ["expand"]
        coeff = SeriesU.coeff
        inner = singular.e_series

        def spy(series, r):
            if series is not SERIES_ONE:
                log.setdefault(phase[0], set()).add(r)
            return coeff(series, r)

        def rounds(v, hw, cache=None):
            images = inner(v, hw, cache)
            for r in itertools.count():
                phase[0] = r
                yield next(images)

        monkeypatch.setattr(SeriesU, "coeff", spy)
        monkeypatch.setattr(singular, "e_series", rounds)
        return log

    @pytest.mark.parametrize("text", ["(u+2)/(u+1)", "(u^2+3u+1)/(u^2+1)"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_round_r_reads_up_to_degree_plus_r_plus_1(self, reads, text, level):
        window = expand_rational(parse_rational_fn(text), order=60)
        for degree in range(7):
            reads.clear()
            find_singular(window, level, degree)
            assert "expand" not in reads
            assert sorted(reads) == list(range(len(reads)))
            for r, indices in reads.items():
                assert max(indices) == degree + r + 1, (degree, r)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_order_2d_plus_k_plus_2_covers_r_start(self, level):
        mu = parse_rational_fn("(u+2)/(u+1)")
        for degree in range(7):
            order = 2 * degree + level + 2
            res = find_singular(expand_rational(mu, order=order), level, degree)
            assert res.relation_bound >= degree + level + 1
            with pytest.raises(InsufficientDataError, match="relation bound"):
                find_singular(expand_rational(mu, order=order - 1), level, degree)


def _shift_weight(rng, denominator):
    """A seeded mu = prod (u + a_i)/(u + b_i), p <= 2, with some shift of the given denominator."""
    p = rng.randint(1, 2)
    shifts = [Fraction(rng.randint(-6, 12), rng.choice([1, denominator])) for _ in range(2 * p)]
    shifts[0] = Fraction(rng.randint(-6, 12) * denominator + 1, denominator)

    def factors(part):
        return "".join(f"(u{'+' if a >= 0 else '-'}{format_rat(abs(a))})" for a in part)

    return parse_rational_fn(f"{factors(shifts[:p])}/({factors(shifts[p:])})")


def _tail(mu, n):
    series = expand_rational(mu, order=n)
    return [series.coeff(r) for r in range(1, n + 1)]


def _lowest_fcoeffs(res):
    """f^(0..D) coefficients of the first basis vector of a level-1 search."""
    return [res.fbasis[0].get((j,), 0) for j in range(res.degree_bound + 1)]


class TestLevelOneIsTheRecurrence:
    """Level-1 singular vectors of M(mu) are den(u) Q[u], and den is the recurrence.

    ``find_singular`` (the Gauss layer) and ``detect_recurrence`` (the Hankel
    scan on the expansion) share no code past ``linalg``: at degree D the
    level-1 kernel has dimension max(0, D - p + 1), and its first vector's
    f-coefficients are den(u) = u^(N-1) C(u), with C the witness c and N its
    tail start.
    """

    def test_documented_weights(self):
        for text, c in [
            ("(u+3)(u+5)/((u+1)(u+2))", [2, 3, 1]),
            ("(u+1/2)(u+7)/((u+3)(u+1/3))", [1, Fraction(10, 3), 1]),
        ]:
            mu = parse_rational_fn(text)
            assert list(detect_recurrence(_tail(mu, 20), max_order=4).c) == c
            assert _lowest_fcoeffs(find_singular(mu, level=1, degree_bound=2)) == c
            assert _lowest_fcoeffs(find_singular(mu, level=1, degree_bound=4)) == c + [0, 0]

    def test_seeded_rational_weights(self):
        rng = random.Random(10)
        zero_shift = 0
        for _ in range(100):
            p = rng.randint(1, 3)
            while True:
                a = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(p)]
                b = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(p)]
                if not set(a) & set(b):
                    break
            num, den = PolyQ([1]), PolyQ([1])
            for x, y in zip(a, b):
                num, den = num * PolyQ([x, 1]), den * PolyQ([y, 1])
            mu = RationalFn(num, den)
            w = detect_recurrence(_tail(mu, 2 * p + 6), max_order=p + 1)
            lowest = [0] * (w.tail_start - 1) + list(w.c)  # den(u) = u^(N-1) C(u)
            assert len(lowest) == p + 1, (a, b)
            zero_shift += w.tail_start > 1
            for degree in range(p + 3):
                res = find_singular(mu, level=1, degree_bound=degree)
                assert len(res.fbasis) == max(0, degree - p + 1), (a, b, degree)
                if res.fbasis:
                    assert _lowest_fcoeffs(res) == lowest + [0] * (degree - p), (a, b)
        assert zero_shift > 0

    def test_factorial_reciprocals(self):
        tail = [Fraction(1, factorial(k)) for k in range(1, 41)]
        assert detect_recurrence(tail, max_order=4) is None
        series = SeriesU([1, *tail])
        for degree in range(5):
            assert find_singular(series, level=1, degree_bound=degree).fbasis == ()


class TestRescaledSearch:
    """An exact non-integral weight is searched in Y_D and mapped back exactly."""

    def test_matches_the_unscaled_kernel(self):
        rng = random.Random(26)
        weights = [_shift_weight(rng, den) for den in (2, 3, 6) for _ in range(11)]
        kinds = set()
        for k, mu in enumerate(weights):
            level = 1 + k % 3
            res = find_singular(mu, level, rng.randint(0, [6, 4, 3][level - 1]))
            hw = as_gl2_weights(mu)
            cache = ActionCache(hw)
            vectors = [expand_f_monomial(fm, hw, cache) for fm in res.candidates]
            rows = []
            for r in range(res.relation_bound + 1):
                images = [act_e(r, v, hw, cache) for v in vectors]
                for mono in sorted({m for img in images for m in img.terms}):
                    rows.append([img.terms.get(mono, 0) for img in images])
            expected = tuple(
                {res.candidates[j]: c for j, c in enumerate(vec) if c}
                for vec in linalg.nullspace(rows, len(vectors))
            )
            assert res.fbasis == expected, (str(mu), level, res.degree_bound)
            assert res.basis == tuple(expand_f_vector(fv, mu) for fv in res.fbasis)
            assert all(type(c) is Fraction for fv in res.fbasis for c in fv.values())
            kinds.add(bool(res.fbasis))
        assert kinds == {True, False}  # empty and nonempty kernels

    @pytest.mark.parametrize(
        "text",
        ["(u+3)(u+5)/((u+1)(u+2))", "(u+5/2)/(u+1)", "(u+7/3)(u+1)/((u+1/3)(u+3))",
         "(u+5/6)(u+1)/((u+1/3)(u-1/2))"],
        ids=["integral", "half", "third", "sixth"],
    )
    def test_exact_weight_rows_are_int(self, monkeypatch, text):
        rows = []
        add = linalg.RowEchelon.add

        def spy_add(self, row):
            rows.append(list(row))
            add(self, row)

        monkeypatch.setattr(linalg.RowEchelon, "add", spy_add)
        find_singular(parse_rational_fn(text), 2, 4)
        assert rows
        assert not [x for row in rows for x in row if type(x) is not int]

    @pytest.mark.parametrize("text", ["(u+3)/(u+1)", "(u+5/2)/(u+3/2)"], ids=["integral", "half"])
    def test_pair_in_y_hbar_is_mapped_back_by_d_alone(self, text):
        # a pair with hbar = 2 is searched in Y_(2D), and only D is undone
        hw = as_gl2_weights(parse_rational_fn(text))
        pair = HighestWeightGL2(hw.lambda1, hw.lambda2, 2)
        for level in (1, 2):
            res = find_singular(pair, level, 4)
            assert res.fbasis
            for fv, v in zip(res.fbasis, res.basis):
                assert v == expand_f_vector(fv, pair)
                assert verify_singular(v, pair, res.relation_bound)


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

    def test_series_weight_rejected(self):
        with pytest.raises(InputError, match="not a rational function"):
            canonical_singular_vector(expand_rational(MU, 4), 1)


class TestFormatting:
    def test_fvector_to_obj_sorted_and_stringified(self):
        fvec = {(1,): 1, (0,): 1}
        assert terms_to_obj(fvec) == {
            "terms": [
                {"mono": [0], "coef": "1"},
                {"mono": [1], "coef": "1"},
            ]
        }

    def test_fvector_to_obj_drops_zeros(self):
        assert terms_to_obj({(0,): 0}) == {"terms": []}

    def test_fvector_to_obj_bytes_match_former_serializer(self):
        rng = random.Random(14)
        pool = list(_f_monomials(3, 6))
        for _ in range(60):
            fvec = {
                m: rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                for m in rng.sample(pool, rng.randint(0, 8))
            }
            got = json.dumps(terms_to_obj(fvec), sort_keys=True)
            assert got == json.dumps(_reference_fvector_obj(fvec), sort_keys=True)


def _reference_f_monomials(level, degree_bound):
    """The former recursive enumerator, depth first."""

    def extend(prefix, smallest, budget):
        if len(prefix) == level:
            yield tuple(prefix)
            return
        slots_left = level - len(prefix)
        for r in range(smallest, budget // slots_left + 1):
            prefix.append(r)
            yield from extend(prefix, r, budget - r)
            prefix.pop()

    return extend([], 0, degree_bound)


def _reference_fvector_obj(fvec):
    """The former ``fvector_to_obj`` body."""
    return {
        "terms": [
            {"mono": list(m), "coef": format_rat(rat(c))}
            for m, c in sorted(fvec.items(), key=lambda kv: _mono_sort_key(kv[0]))
            if c
        ]
    }
