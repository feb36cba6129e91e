"""Recurrence detection on series tails and rational reconstruction."""

import random
from fractions import Fraction
from math import factorial

import pytest

from yverma import linalg, rational, recurrence
from yverma.errors import InputError, InsufficientDataError
from yverma.rational import _PRIME, PolyQ, RationalFn, _cleared, parse_rational_fn
from yverma.recurrence import (
    RationalityVerdict,
    RecurrenceWitness,
    detect_recurrence,
    is_rational_verdict,
    reconstruct_rational,
)
from yverma.series import SeriesU, expand_rational


def _tail_of(f: RationalFn, length: int) -> list[Fraction]:
    series = expand_rational(f, order=length)
    return [series.coeff(r) for r in range(1, length + 1)]


def _reference_detect(coeffs, max_order):
    """The direct scan: one nullspace per (order m, start N), both ascending."""
    if max_order < 0:
        raise InputError("max_order must be >= 0")
    nu = [Fraction(x) for x in coeffs]
    L = len(nu)
    if L < 2 * max_order + 2:
        raise InsufficientDataError("short tail")
    min_instances = max_order + 2
    for m in range(max_order + 1):
        for start in range(1, max(1, L // 3) + 1):
            last_r = L - m
            if last_r - start + 1 < min_instances:
                break  # larger starts only shrink the instance window
            rows = [
                [nu[r + j - 1] for j in range(m + 1)] for r in range(start, last_r + 1)
            ]
            kernel = linalg.nullspace(rows, m + 1)
            if not kernel:
                continue
            raw = kernel[0]
            last = next(x for x in reversed(raw) if x)
            c = tuple(x / last for x in raw)
            recovered = reconstruct_rational(nu, c, start)
            return RecurrenceWitness(c=c, tail_start=start, recovered=recovered)
    return None


def _outcome(detect, tail, max_order):
    try:
        w = detect(tail, max_order)
    except InsufficientDataError:
        return "insufficient"
    return None if w is None else (w.c, w.tail_start, str(w.recovered))


def _shift_tail(rng, degree, n):
    """nu^(1..n) of prod (u+a_i)/(u+b_i) with distinct a_i, no a_i = b_j."""
    while True:
        alphas = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(degree)]
        betas = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(degree)]
        if len(set(alphas)) == degree and not set(alphas) & set(betas):
            break
    num, den = PolyQ([1]), PolyQ([1])
    for a, b in zip(alphas, betas):
        num, den = num * PolyQ([a, 1]), den * PolyQ([b, 1])
    return _tail_of(RationalFn(num, den), n)


def _tail_class(rng, kind, n):
    if kind == "int-recurrence":
        # order-m integer recurrence after a random prefix of 0-6 terms
        m, prefix = rng.randint(0, 4), rng.randint(0, 6)
        cs = [rng.randint(-3, 3) for _ in range(m)]
        tail = [rng.randint(-3, 3) for _ in range(max(m, 1) + prefix)]
        while len(tail) < n:
            tail.append(sum(cs[j] * tail[len(tail) - m + j] for j in range(m)))
        return tail[:n]
    if kind == "sparse":
        return [rng.choice([0, 0, 0, 1, -1]) for _ in range(n)]
    if kind == "periodic-altered":
        period = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        tail = [period[i % len(period)] for i in range(n)]
        tail[-1] += rng.choice([1, -1])
        return tail
    if kind == "factorial":
        return [Fraction(1, factorial(r)) for r in range(1, n + 1)]
    if kind in ("rational", "prefix"):
        tail = _shift_tail(rng, rng.randint(1, 3), n)
        if kind == "prefix":
            tail[0] += rng.choice([1, -1, 2])
            tail[1] += rng.choice([1, -1, Fraction(1, 2)])
        return tail
    # the non-rational tails of exp(c/u), (1 - c/u)^(1/2), (u/c) log(1 + c/u)
    c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
    if kind == "exp":
        return [c**k / factorial(k) for k in range(1, n + 1)]
    if kind == "sqrt":
        out, coef = [], Fraction(1)
        for k in range(1, n + 1):
            coef = coef * (Fraction(1, 2) - (k - 1)) / k
            out.append(coef * (-c) ** k)
        return out
    return [(-c) ** k / (k + 1) for k in range(1, n + 1)]


TAIL_CLASSES = (
    "int-recurrence", "sparse", "periodic-altered", "factorial",
    "rational", "prefix", "exp", "sqrt", "log",
)


class TestDetect:
    def test_simple_geometric_tail(self):
        # (u+2)/(u+1) = 1 + 1/u - 1/u**2 + 1/u**3 - ...
        f = parse_rational_fn("(u+2)/(u+1)")
        witness = detect_recurrence(_tail_of(f, 12), max_order=2)
        assert witness is not None
        assert witness.recovered == f

    def test_witness_normalization(self):
        # The last nonzero recurrence coefficient is normalized to 1.
        f = parse_rational_fn("(u+2)/(u+1)")
        witness = detect_recurrence(_tail_of(f, 12), max_order=2)
        last = next(c for c in reversed(witness.c) if c)
        assert last == 1

    def test_minimal_order_and_earliest_start(self):
        # Degree-1 denominator needs only a first-order recurrence.
        f = parse_rational_fn("(u+3)/(u+1)")
        witness = detect_recurrence(_tail_of(f, 14), max_order=3)
        assert len(witness.c) == 2
        assert witness.tail_start >= 1

    def test_insufficient_window_raises(self):
        with pytest.raises(InsufficientDataError):
            detect_recurrence([1, 2, 3], max_order=2)  # needs 6

    def test_threshold_is_exact(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        tail = _tail_of(f, 6)
        assert detect_recurrence(tail, max_order=2) is not None  # 6 == 2*2+2
        with pytest.raises(InsufficientDataError):
            detect_recurrence(tail[:5], max_order=2)

    def test_no_recurrence_for_factorial_reciprocals(self):
        tail = [Fraction(1, factorial(r)) for r in range(1, 11)]
        assert detect_recurrence(tail, max_order=3) is None

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            detect_recurrence([1, 2, 3, 4], max_order=-1)

    def test_random_round_trips(self):
        rng = random.Random(31)
        for _ in range(15):
            deg = rng.randint(1, 3)
            num = PolyQ([rng.randint(-4, 4) for _ in range(deg)] + [1])
            den = PolyQ([rng.randint(-4, 4) for _ in range(deg)] + [1])
            if den.coeff(0) == 0 and all(
                den.coeff(k) == 0 for k in range(deg)
            ):
                continue
            f = RationalFn(num, den)
            length = 2 * max(f.num.degree, 1) + 8
            witness = detect_recurrence(_tail_of(f, length), max_order=4)
            assert witness is not None
            assert witness.recovered == f


class TestAgainstReferenceScan:
    """The one-elimination-per-order scan returns what the direct scan does."""

    def test_seeded_tails(self):
        rng = random.Random(4)
        outcomes = set()
        for i in range(360):
            max_order = rng.randint(0, 6)
            n = 2 * max_order + 2 + rng.randint(0, 8)
            tail = _tail_class(rng, TAIL_CLASSES[i % len(TAIL_CLASSES)], n)
            if i % 7 == 0:
                tail = tail[: n - 1]  # one short of the threshold when n is minimal
            expected = _outcome(_reference_detect, tail, max_order)
            assert _outcome(detect_recurrence, tail, max_order) == expected, (tail, max_order)
            outcomes.add(expected if expected in (None, "insufficient") else "witness")
        assert outcomes == {None, "insufficient", "witness"}

    def _pin(self, tail, max_order):
        got = _outcome(detect_recurrence, tail, max_order)
        assert got == _outcome(_reference_detect, tail, max_order)
        return got

    def test_start_clipped_by_third_of_window(self):
        # nu^(r) = 0 from r = 3 with 4 >= 3 instances, but 3 > L//3 = 2, so
        # order 0 has no witness and order 1 wins
        c, start, _ = self._pin([2, 1, 0, 0, 0, 0], max_order=1)
        assert (c, start) == ((0, 1), 2)

    def test_start_clipped_by_instance_count(self):
        # tribonacci from r = 2: order 3, start 2 <= L//3, but only 4 of the
        # 5 instances needed at L = 8; two more terms confirm it
        tail = [7, 1, 1, 1, 3, 5, 9, 17]
        assert self._pin(tail, max_order=3) is None
        c, start, _ = self._pin(tail + [31, 57], max_order=3)
        assert (c, start) == ((-1, -1, -1, 1), 2)

    def test_kernel_at_the_witness_is_one_dimensional(self):
        # The order-2 system has a 2-dimensional kernel, but then a lower
        # order always has a witness too: the earliest start of the minimal
        # order sits where the rank falls just short of m + 1, or at N = 1,
        # and a kernel vector with c_0 = 0 shifts to order m - 1 from N + 1.
        tail = [0, 0, 0, 0, 0, 1]
        assert len(linalg.nullspace([tail[r - 1 : r + 2] for r in range(1, 5)], 3)) == 2
        c, start, _ = self._pin(tail, max_order=2)
        assert (c, start) == ((1, 0), 1)
        assert len(linalg.nullspace([tail[r - 1 : r + 1] for r in range(1, 6)], 2)) == 1

    def test_witness_with_zero_top_coefficient(self):
        # c = (1, 0): nu^(r) = 0 on every order-1 instance r = 1..5, which
        # never reads nu^(6) as a leading term
        c, start, recovered = self._pin([0, 0, 0, 0, 0, 1], max_order=1)
        assert (c, start, recovered) == ((1, 0), 1, "(1)/(1)")

    def test_all_zero_tail(self):
        for max_order in range(4):
            tail = [0] * (2 * max_order + 2)
            assert self._pin(tail, max_order) == ((1,), 1, "(1)/(1)")

    # The scan eliminates rows r = L-m, L-m-1, ... while r >= latest, where
    # latest = min(max(1, L//3), L - m - max_order - 1) is the latest start
    # the window allows; below it, it tests rows against the kernel vector.

    def test_start_at_latest_where_the_third_binds(self):
        # 2^r from r = 4; L//3 = 4 binds (the instance count allows 8), so
        # order 1 reads its kernel at r = 3, where the dot product fills: N = 4
        tail = [1, 1, 1] + [2**r for r in range(4, 13)]
        c, start, _ = self._pin(tail, max_order=2)
        assert (c, start) == ((-2, 1), 4)

    def test_start_at_latest_where_the_instance_count_binds(self):
        # tribonacci from r = 2; at order 3 the six instances r = 2..7 allow
        # N <= 2 < L//3 = 3, and the dot product at r = 1 fills the rank
        tail = [7, 1, 1, 1, 3, 5, 9, 17, 31, 57]
        c, start, _ = self._pin(tail, max_order=4)
        assert (c, start) == ((-1, -1, -1, 1), 2)

    def test_fill_at_latest_fails_the_order(self):
        # 2^r from r = 5: row r = 4 = latest fills order 1 while it is still
        # eliminated, so N = 5 is out of the window and order 2 is tried
        tail = [1, 1, 1, 1] + [2**r for r in range(5, 13)]
        c, start, _ = self._pin(tail, max_order=2)
        assert (c, start) == ((0, -2, 1), 4)

    def test_no_fill_after_the_kernel_is_read(self):
        # (u+2)/(u+1): the kernel is read at r = 3 and no lower row fills
        c, start, recovered = self._pin([(-1) ** (r + 1) for r in range(1, 13)], 2)
        assert (c, start, recovered) == ((1, 1), 1, "(u+2)/(u+1)")

    def test_no_fill_with_latest_one(self):
        # latest = 1 leaves no row below it: c is read off the final echelon
        c, start, recovered = self._pin([1, -1, 1, -1], max_order=1)
        assert (c, start, recovered) == ((1, 1), 1, "(u+2)/(u+1)")

    def test_rank_m_is_reached_at_or_above_latest(self):
        # Rank m is never reached only below latest at the order returned:
        # rows latest..L-m of rank < m have a two-dimensional kernel, which
        # holds a witness of order m - 1 from latest + 1 (c_0 = 0) and one on
        # all but its last instance from latest (c_m = 0); by Massey's
        # length-change bound both fit only when L - latest + 1 <= 2m - 1,
        # fewer instances than max_order + 2.  So the kernel read at
        # r = latest - 1 is always the witness's.
        rng = random.Random(9)
        witnesses = 0
        for i in range(120):
            max_order = rng.randint(1, 5)
            n = 2 * max_order + 2 + rng.randint(0, 8)
            tail = _tail_class(rng, TAIL_CLASSES[i % len(TAIL_CLASSES)], n)
            w = _reference_detect(tail, max_order)
            if w is None or len(w.c) == 1:
                continue
            witnesses += 1
            m = len(w.c) - 1
            latest = min(max(1, n // 3), n - m - max_order - 1)
            echelon = linalg.RowEchelon()
            for r in range(latest, n - m + 1):
                echelon.add(tail[r - 1 : r + m])
            assert echelon.rank == m, (tail, max_order)
        assert witnesses >= 30


class TestNullspaceCalls:
    """detect_recurrence reads one kernel, off its own echelon, per witness."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = {"kernel": 0, "nullspace": 0}
        for owner, name in ((linalg.RowEchelon, "kernel"), (linalg, "nullspace")):

            def counting(*args, _inner=getattr(owner, name), _name=name):
                count[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(owner, name, counting)
        return count

    def test_one_call_for_a_witness(self, calls):
        f = parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))")
        assert detect_recurrence(_tail_of(f, 20), max_order=6).recovered == f
        assert calls == {"kernel": 1, "nullspace": 0}

    def test_no_call_without_a_witness(self, calls):
        tail = [Fraction(1, factorial(r)) for r in range(1, 23)]
        assert detect_recurrence(tail, max_order=10) is None
        assert calls == {"kernel": 0, "nullspace": 0}

    def test_no_call_on_an_order_that_fails(self, calls):
        # rows r = 4..11 reach rank 1 at order 0 and rank 2 at order 1 mod
        # P, so the certificate skips both before any echelon is built; only
        # order 2 builds one and reads its kernel
        tail = [1, 1, 1, 1] + [2**r for r in range(5, 13)]
        assert len(detect_recurrence(tail, max_order=2).c) == 3
        assert calls == {"kernel": 1, "nullspace": 0}

    def test_no_call_on_an_order_that_fails_exactly(self, calls, monkeypatch):
        # The same tail times P: every image mod P is 0, so all three orders
        # run the exact scan.  Order 0 is filled at r = 12; order 1 has rank
        # 1 from r = 11 and is filled by the row r = 4 = latest while still
        # eliminated, so neither reads its kernel; only order 2 does.
        built = [0]

        class Counting(linalg.RowEchelon):
            def __init__(self):
                super().__init__()
                built[0] += 1

        monkeypatch.setattr(linalg, "RowEchelon", Counting)
        tail = [_PRIME * x for x in [1, 1, 1, 1] + [2**r for r in range(5, 13)]]
        assert len(detect_recurrence(tail, max_order=2).c) == 3
        assert (built, calls) == ([3], {"kernel": 1, "nullspace": 0})


def _certificate_tail(rng, kind, n):
    """A tail from a family where the rank check mod _PRIME is off, empty or near its edge."""
    if kind == "zero":
        return [0] * n
    if kind == "long-prefix":
        # a rational tail with a prefix of any length altered, so the
        # earliest start falls on both sides of latest
        tail = _shift_tail(rng, rng.randint(1, 3), n)
        for i in range(rng.randint(1, n // 3 + 2)):
            tail[i] += rng.choice([1, -1, Fraction(1, 2)])
        return tail
    tail = _tail_class(rng, TAIL_CLASSES[rng.randrange(len(TAIL_CLASSES))], n)
    if kind == "multiple-of-P":
        return [_PRIME * x for x in tail]  # every image is 0: the rank mod P is 0
    if rng.random() < 0.5:
        # nu^(r) P^(r-k) keeps every recurrence's order (its roots scale by P)
        # and puts P in the denominators before r = k
        k = rng.randint(2, 4)
        tail = [x * Fraction(_PRIME) ** (r - k) for r, x in enumerate(tail, 1)]
    if all(Fraction(x).denominator % _PRIME for x in tail):
        tail[rng.randrange(n)] += Fraction(1, _PRIME)  # that denominator is divisible by P
    return tail


class TestRankCertificate:
    """The scan skips every order the profile mod _PRIME rejects, and agrees with the direct scan."""

    FAMILIES = ("zero", "long-prefix", "multiple-of-P", "P-denominator")

    @pytest.fixture
    def profiles(self, monkeypatch):
        seen = []

        def recording(xs, _inner=recurrence._complexity_profile):
            seen.append(_inner(xs))
            return seen[-1]

        monkeypatch.setattr(recurrence, "_complexity_profile", recording)
        return seen

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]

        class Counting(linalg.RowEchelon):
            def __init__(self):
                super().__init__()
                count[0] += 1

        monkeypatch.setattr(linalg, "RowEchelon", Counting)
        return count

    def test_seeded_tails_from_every_family(self, profiles, built):
        rng = random.Random(12)
        outcomes = {kind: set() for kind in self.FAMILIES}
        skipped = 0
        for i in range(240):
            kind = self.FAMILIES[i % len(self.FAMILIES)]
            max_order = rng.randint(0, 6)
            n = 2 * max_order + 2 + rng.randint(0, 8)
            tail = _certificate_tail(rng, kind, n)
            expected = _reference_detect(tail, max_order)
            profiles.clear()
            built[0] = 0  # the reference's nullspaces count too
            got = detect_recurrence(tail, max_order)
            assert got == expected and repr(got) == repr(expected), (kind, tail, max_order)
            scanned = len(expected.c) if expected else max_order + 1  # orders 0..found
            assert built[0] <= scanned
            if kind == "multiple-of-P":
                assert profiles and set(profiles[0]) == {0}, tail
                assert built[0] == scanned, tail  # every order ran exactly
            if kind == "P-denominator" and built[0] < scanned:
                skipped += 1  # a P in a denominator leaves the certificate on
            outcomes[kind].add("witness" if expected else None)
        assert outcomes == {
            "zero": {"witness"},
            "long-prefix": {"witness", None},
            "multiple-of-P": {"witness", None},
            "P-denominator": {"witness", None},
        }
        assert skipped > 0

    def test_scanned_orders_are_those_short_of_rank_mod_p(self, monkeypatch):
        # the profile admits order m iff rows latest..L-m of the integer
        # window have rank <= m mod P, by _rank_mod_p on those very rows
        scanned = set()

        def add(self, row, _inner=linalg.RowEchelon.add):
            scanned.add(len(row) - 1)
            _inner(self, row)

        cases = [
            (tail, max_order, _reference_detect(tail, max_order))
            for tail, max_order in [*_certificate_tails(), *_reference_tails()]
            if len(tail) >= 2 * max_order + 2
        ]
        monkeypatch.setattr(linalg.RowEchelon, "add", add)
        admitted = skipped = 0
        for tail, max_order, found in cases:
            window = _cleared([Fraction(1), *map(Fraction, tail)])[1]
            L = len(tail)
            short = []
            for m in range(len(found.c) if found else max_order + 1):
                latest = min(max(1, L // 3), L - m - max_order - 1)
                rows = [window[r : r + m + 1] for r in range(latest, L - m + 1)]
                if _rank_mod_p(rows) <= m:
                    short.append(m)
            scanned.clear()
            detect_recurrence(tail, max_order)
            assert sorted(scanned) == short, (tail, max_order)
            admitted += len(short)
            skipped += (len(found.c) if found else max_order + 1) - len(short)
        assert admitted > 300 and skipped > 300

    def test_a_rational_tail_skips_every_order_below_its_own(self, built, monkeypatch):
        rows = []

        def add(self, row, _inner=linalg.RowEchelon.add):
            rows.append(row)
            _inner(self, row)

        monkeypatch.setattr(linalg.RowEchelon, "add", add)
        f = parse_rational_fn("(u+3)(u+5)(u+9)/((u+1)(u+2)(u+4))")
        assert detect_recurrence(_tail_of(f, 20), max_order=6).recovered == f
        assert built == [1]  # orders 0-2 are rejected by the profile
        assert rows and {len(row) for row in rows} == {4}  # the one echelon is order 3's

    def test_no_echelon_for_factorial_reciprocals(self, built):
        tail = [Fraction(1, factorial(r)) for r in range(1, 23)]
        assert detect_recurrence(tail, max_order=10) is None
        assert built == [0]

    def test_no_echelon_at_max_order_40(self, built):
        # the max_order 40 shape that the benchmark leaves out for its cost
        tail = [Fraction(1, factorial(r)) for r in range(1, 125)]
        assert detect_recurrence(tail, max_order=40) is None
        assert built == [0]

    def test_the_profile_and_the_echelon_read_int(self, monkeypatch):
        modular, exact = [], []

        def profile(xs, _inner=recurrence._complexity_profile):
            modular.append(list(xs))
            return _inner(xs)

        def add(self, row, _inner=linalg.RowEchelon.add):
            exact.append(row)
            _inner(self, row)

        monkeypatch.setattr(recurrence, "_complexity_profile", profile)
        monkeypatch.setattr(linalg.RowEchelon, "add", add)
        f = parse_rational_fn("(u+1/2)(u+7)/((u+3)(u+1/3))")
        tail = _tail_of(f, 16)
        assert any(x.denominator > 1 for x in tail)
        witness = detect_recurrence(tail, max_order=4)
        assert (len(witness.c), witness.recovered) == (3, f)
        assert len(modular) == 1 and modular[0] and exact
        assert all(type(x) is int for x in modular[0])
        assert all(type(x) is int for row in exact for x in row)

    def test_one_profile_per_call(self, profiles):
        f = parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))")
        cases = [
            ([1] * 10, 3),  # found at order 0
            (_tail_of(f, 26), 12),  # found at order 2
            ([_PRIME * x for x in _tail_of(f, 26)], 12),  # every order runs exactly
            ([Fraction(1, factorial(r)) for r in range(1, 23)], 10),  # none found
        ]
        for tail, max_order in cases:
            profiles.clear()
            detect_recurrence(tail, max_order)
            assert len(profiles) == 1, (tail, max_order)
        profiles.clear()
        assert is_rational_verdict(expand_rational(f, order=26), 12).kind == "rational"
        assert len(profiles) == 1

    def test_one_echelon_for_the_order_found(self, built):
        f = parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))")
        witness = detect_recurrence(_tail_of(f, 26), max_order=12)
        assert (len(witness.c), witness.recovered) == (3, f)
        assert built == [1]


def _rank_mod_p(rows):
    """Rank mod _PRIME of ``int`` rows by plain Gauss-Jordan elimination."""
    rows = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, _PRIME)
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] * inv % _PRIME
                rows[i] = [(a - f * b) % _PRIME for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def _hankel(xs, h, width):
    """The h rows (x_s, ..., x_{s+width-1}), s = 0..h-1."""
    return [list(xs[s : s + width]) for s in range(h)]


def _shortest_lfsr(xs, k):
    """Least l with x_{s+l} in the span of (x_s..x_{s+l-1}) for s < k-l, mod _PRIME."""
    return next(
        l for l in range(k + 1)
        if _rank_mod_p(_hankel(xs, k - l, l)) == _rank_mod_p(_hankel(xs, k - l, l + 1))
    )


def _profile_sequence(rng, kind):
    n = rng.randint(1, 11)
    if kind == "small":
        return [rng.randint(-3, 3) for _ in range(n)]
    if kind == "lfsr":
        # an integer recurrence of order 0-4 after a prefix of 0-3 terms
        m, prefix = rng.randint(0, 4), rng.randint(0, 3)
        cs = [rng.randint(-2, 2) for _ in range(m)]
        xs = [rng.randint(-3, 3) for _ in range(max(m, 1) + prefix)]
        while len(xs) < n:
            xs.append(sum(c * x for c, x in zip(cs, xs[len(xs) - m :])))
        return xs[:n]
    if kind == "multiple-of-P":
        return [_PRIME * rng.randint(-3, 3) for _ in range(n)]
    if kind == "P-shifted":
        # P + 1 and friends: equal to a small sequence mod P, not over Q
        return [x + _PRIME * rng.choice([0, 0, 1, -1]) for x in _profile_sequence(rng, "lfsr")]
    # P-mixed
    return [rng.choice([0, 1, -2, _PRIME, 3 * _PRIME, _PRIME + 1]) for _ in range(n)]


class TestComplexityProfile:
    """``_complexity_profile`` against mod-P Hankel ranks, on seeded int sequences."""

    KINDS = ("small", "lfsr", "multiple-of-P", "P-shifted", "P-mixed")

    def _sequences(self):
        rng = random.Random(31)
        for i in range(300):
            kind = self.KINDS[i % len(self.KINDS)]
            yield kind, _profile_sequence(rng, kind)

    def test_each_entry_is_the_shortest_lfsr(self):
        for kind, xs in self._sequences():
            profile = recurrence._complexity_profile([x % _PRIME for x in xs])
            assert profile == [_shortest_lfsr(xs, k) for k in range(len(xs) + 1)], (kind, xs)

    def test_rank_of_every_order_and_start(self):
        # rows (x_s..x_{s+m}), s < h, have rank <= m mod P iff some t <= m has l_{h+t} <= t
        fell = checked = 0
        for kind, xs in self._sequences():
            profile = recurrence._complexity_profile([x % _PRIME for x in xs])
            for m in range(len(xs)):
                for h in range(1, len(xs) - m + 1):
                    rows = _hankel(xs, h, m + 1)
                    mod_p, over_q = _rank_mod_p(rows), linalg.rank(rows)
                    admitted = any(profile[h + t] <= t for t in range(m + 1))
                    assert (mod_p <= m) == admitted, (xs, m, h)
                    assert mod_p <= over_q  # so full rank mod P is full rank over Q
                    fell += mod_p < over_q
                    checked += 1
        assert checked > 3000 and fell > 100

    def test_sequences_that_lose_rank_mod_p(self):
        profile = recurrence._complexity_profile
        assert profile([0] * 4) == [0] * 5
        assert profile([x % _PRIME for x in [_PRIME, 2 * _PRIME, -_PRIME]]) == [0] * 4
        # (P+1, 1, P+1) is (1, 1, 1) mod P: its 2x2 Hankel is singular mod P only
        xs = [_PRIME + 1, 1, _PRIME + 1]
        assert profile([x % _PRIME for x in xs]) == [0, 1, 1, 1]
        assert (_rank_mod_p(_hankel(xs, 2, 2)), linalg.rank(_hankel(xs, 2, 2))) == (1, 2)
        assert profile([0, 0, 0, 1]) == [0, 0, 0, 0, 4]
        assert profile([2**r for r in range(6)]) == [0, 1, 1, 1, 1, 1, 1]


def _rational_tail(rng, degree, n):
    """nu^(1..n) of a random P/Q of the given degree, both monic with small int coefficients."""
    while True:
        num = PolyQ([rng.randint(-3, 3) for _ in range(degree)] + [1])
        den = PolyQ([rng.randint(-3, 3) for _ in range(degree)] + [1])
        if num != den:
            return _tail_of(RationalFn(num, den), n)


class TestHighOrdersAgainstReference:
    """max_order 12-24: the profile's skips keep the direct scan's witness."""

    def test_seeded_tails(self):
        rng = random.Random(36)
        kinds = ("rational", "prefix", "non-rational")
        outcomes = {kind: set() for kind in kinds}
        for i in range(63):
            kind = kinds[i % 3]
            max_order = rng.randint(12, 24)
            n = 2 * max_order + 2 + rng.randint(0, 6)
            if kind == "non-rational":
                tail = _tail_class(rng, rng.choice(["factorial", "exp", "sqrt", "log"]), n)
            else:
                tail = _rational_tail(rng, rng.randint(1, max_order), n)
                if kind == "prefix":
                    for j in range(rng.randint(1, n // 3 + 2)):
                        tail[j] += rng.choice([1, -1, Fraction(1, 2)])
            expected = _reference_detect(tail, max_order)
            got = detect_recurrence(tail, max_order)
            assert got == expected and repr(got) == repr(expected), (kind, tail, max_order)
            outcomes[kind].add(None if expected is None else len(expected.c) > 12)
        assert outcomes == {
            "rational": {False, True},
            "prefix": {None, False, True},
            "non-rational": {None},
        }


def _reference_tails():
    """The (tail, max_order) pairs of TestAgainstReferenceScan.test_seeded_tails."""
    rng = random.Random(4)
    for i in range(360):
        max_order = rng.randint(0, 6)
        n = 2 * max_order + 2 + rng.randint(0, 8)
        tail = _tail_class(rng, TAIL_CLASSES[i % len(TAIL_CLASSES)], n)
        yield (tail[: n - 1] if i % 7 == 0 else tail), max_order


def _certificate_tails():
    """The (tail, max_order) pairs of TestRankCertificate.test_seeded_tails_from_every_family."""
    rng = random.Random(12)
    for i in range(240):
        kind = TestRankCertificate.FAMILIES[i % len(TestRankCertificate.FAMILIES)]
        max_order = rng.randint(0, 6)
        n = 2 * max_order + 2 + rng.randint(0, 8)
        yield _certificate_tail(rng, kind, n), max_order


class TestIntegerWitness:
    """The witness is checked and its function built on the integer window."""

    def test_recovered_function_expands_to_the_tail(self):
        # An oracle apart from the numerator builder: the recovered function
        # expands to nu^(1..L-m+t), t the index of c's last nonzero entry.
        # The instances r = N..L-m read no further, so with c_m = 0 the
        # witness never reads nu^(L), where a periodic-altered tail differs.
        witnesses, short = 0, 0
        for tail, max_order in [*_reference_tails(), *_certificate_tails()]:
            try:
                w = detect_recurrence(tail, max_order)
            except InsufficientDataError:
                continue
            if w is None:
                continue
            m = len(w.c) - 1
            t = max(j for j, x in enumerate(w.c) if x)
            n = len(tail) - m + t
            assert _tail_of(w.recovered, n) == [Fraction(x) for x in tail[:n]], (tail, max_order)
            witnesses += 1
            short += t < m
        assert witnesses >= 200 and short > 0

    def test_detection_builds_on_int_and_calls_no_reconstruction(self, monkeypatch):
        built, reconstructed = [], []

        def builder(window, c, n, _inner=recurrence._witnessed_fn):
            built.append((window, c))
            return _inner(window, c, n)

        monkeypatch.setattr(recurrence, "_witnessed_fn", builder)
        monkeypatch.setattr(
            recurrence, "reconstruct_rational", lambda *args: reconstructed.append(args)
        )
        f = parse_rational_fn("(u+1/2)(u+7)/((u+3)(u+1/3))")
        tail = _tail_of(f, 16)
        assert any(x.denominator > 1 for x in tail)
        witness = detect_recurrence(tail, max_order=6)
        assert (len(witness.c), witness.recovered) == (3, f)
        assert all(type(x) is Fraction for x in witness.c)
        assert reconstructed == [] and len(built) == 1
        window, c = built[0]
        assert all(type(x) is int for x in window + c)

    def test_the_witness_runs_no_remainder_sequence(self, monkeypatch):
        # P'/(d u^N C') shares u^v; stripped by a shift, the rest is settled
        # by poly_gcd's certificate mod P: no _prem, no PolyQ division
        f = parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))")
        tail = _tail_of(f, 30)
        altered = [tail[0] + 1, tail[1] + Fraction(1, 2), *tail[2:]]
        calls = []

        def spy(name, inner):
            def counted(*args):
                calls.append(name)
                return inner(*args)
            return counted

        monkeypatch.setattr(rational, "_prem", spy("_prem", rational._prem))
        monkeypatch.setattr(PolyQ, "__divmod__", spy("divmod", PolyQ.__divmod__))
        found = detect_recurrence(tail, 12)
        shifted = detect_recurrence(altered, 12)
        assert calls == []
        assert (found.recovered, found.tail_start) == (f, 1)
        assert shifted.tail_start >= 2 and shifted.recovered.degree == 4


_F0 = Fraction(0)


def _fraction_reconstruct(coeffs, c, tail_start):
    """reconstruct_rational as summed in Fraction, before the integer window."""
    vals = [Fraction(1), *(Fraction(x) for x in coeffs)]
    cvec = [Fraction(x) for x in c]
    if not any(cvec):
        raise InputError("recurrence coefficients are all zero")
    if tail_start < 1:
        raise InputError("tail_start must be >= 1")
    m = len(cvec) - 1
    L = len(vals) - 1
    if tail_start + m - 1 > L:
        raise InputError(
            f"tail_start {tail_start} lies past the window: the numerator reads "
            f"nu^({tail_start + m - 1}), the window ends at nu^({L})"
        )
    for r in range(tail_start, L - m + 1):
        if sum(cvec[j] * vals[r + j] for j in range(m + 1)) != 0:
            raise InputError(f"recurrence fails at r={r}")
    n = tail_start
    num = [_F0] + [
        sum((cvec[j] * vals[n + j - e] for j in range(max(0, e - n), m + 1)), _F0)
        for e in range(1, n + m + 1)
    ]
    return RationalFn(PolyQ(num), PolyQ([_F0] * n + cvec))


def _rebuilt(reconstruct, nu, c, start):
    try:
        return reconstruct(nu, c, start)
    except InputError as exc:
        return f"InputError: {exc}"


class TestReconstruct:
    def test_matches_detection(self):
        f = parse_rational_fn("(u^2+3u+1)/(u^2+1)")
        tail = _tail_of(f, 16)
        witness = detect_recurrence(tail, max_order=3)
        rebuilt = reconstruct_rational(tail, witness.c, witness.tail_start)
        assert rebuilt == f

    def test_rejects_invalid_recurrence(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        tail = _tail_of(f, 10)
        with pytest.raises(InputError):
            reconstruct_rational(tail, [5, 1], tail_start=1)

    def test_rejects_zero_coefficients(self):
        with pytest.raises(InputError):
            reconstruct_rational([1, 1], [0, 0], tail_start=1)

    def test_rejects_bad_tail_start(self):
        with pytest.raises(InputError):
            reconstruct_rational([1, 1], [1, 1], tail_start=0)

    def test_rejects_tail_start_past_the_window(self):
        for start in (2, 3):
            with pytest.raises(InputError, match="past the window"):
                reconstruct_rational(["1/2"], [1, 1], start)
        # the last start whose numerator the window still holds
        assert reconstruct_rational(["1/2"], [1, 1], 1) == parse_rational_fn("(u+3/2)/(u+1)")

    def test_seeded_sweep_gives_a_result_or_an_input_error(self):
        rng = random.Random(17)
        outcomes = set()
        for _ in range(3000):
            nu = [rng.choice([0, 1, -2, Fraction(1, 2), 3]) for _ in range(rng.randint(0, 6))]
            c = [rng.choice([0, 0, 1, -1, Fraction(2, 3)]) for _ in range(rng.randint(1, 4))]
            start = rng.randint(-1, 8)
            try:
                result = reconstruct_rational(nu, c, start)
            except InputError:
                outcomes.add("input error")
            else:
                assert isinstance(result, RationalFn), (nu, c, start)
                outcomes.add("result")
        assert outcomes == {"result", "input error"}

    def test_seeded_sweep_matches_the_fraction_formula(self):
        # the sweep above: an equal function, or an InputError with the same
        # message, "recurrence fails at r=..." included
        rng = random.Random(17)
        fails = 0
        for _ in range(3000):
            nu = [rng.choice([0, 1, -2, Fraction(1, 2), 3]) for _ in range(rng.randint(0, 6))]
            c = [rng.choice([0, 0, 1, -1, Fraction(2, 3)]) for _ in range(rng.randint(1, 4))]
            start = rng.randint(-1, 8)
            got = _rebuilt(reconstruct_rational, nu, c, start)
            assert got == _rebuilt(_fraction_reconstruct, nu, c, start), (nu, c, start)
            fails += str(got).startswith("InputError: recurrence fails at r=")
        assert fails > 0


class TestVerdict:
    def test_rational_input_short_circuits(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        v = is_rational_verdict(f, budget=3)
        assert v.kind == "rational" and v.rational == f and v.witness is None

    def test_exact_series_is_polynomial_ratio(self):
        # An exact series 1 + 2/u is (u + 2)/u.
        v = is_rational_verdict(SeriesU([1, 2], exact=True), budget=2)
        assert v.kind == "rational"
        assert v.rational == parse_rational_fn("(u+2)/u")

    def test_truncated_series_detected(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        series = expand_rational(f, order=12)
        v = is_rational_verdict(series, budget=2)
        assert v.kind == "rational" and v.rational == f
        assert v.witness is not None

    def test_no_recurrence_within_budget(self):
        coeffs = [1] + [Fraction(1, factorial(r)) for r in range(1, 11)]
        series = SeriesU(coeffs, exact=False)
        v = is_rational_verdict(series, budget=3)
        assert v.kind == "no_recurrence_up_to" and v.budget == 3
        assert v.rational is None

    def test_insufficient_data(self):
        series = SeriesU([1, 1, 1], exact=False)
        v = is_rational_verdict(series, budget=3)
        assert v.kind == "insufficient_data"

    def test_to_obj(self):
        f = parse_rational_fn("(u+2)/(u+1)")
        v = is_rational_verdict(f, budget=1)
        assert v.to_obj() == {
            "verdict": "rational",
            "budget": 1,
            "rational": "(u+2)/(u+1)",
        }
        short = RationalityVerdict(kind="insufficient_data", budget=4)
        assert short.to_obj() == {"verdict": "insufficient_data", "budget": 4}
        assert (short.rational, short.witness) == (None, None)

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            is_rational_verdict(parse_rational_fn("u/u"), budget=-1)
