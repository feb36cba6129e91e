"""Finite root systems from Cartan matrices and PBW spanning counts."""

import contextlib
import io
import random
from fractions import Fraction
from math import comb

import pytest

import yverma.cli as cli
import yverma.rootsys as rootsys
from yverma.errors import InputError
from yverma.rational import _primitive_ints
from yverma.rootsys import (
    CartanData,
    cartan_matrix,
    positive_roots,
    root_height,
    spanning_count,
    symmetrizers,
    validate_cartan,
)

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -1], [-2, 2]]
G2 = [[2, -1], [-3, 2]]


def _reference_roots(a):
    """The plain string walk: for every root and direction, step down one root at a time."""
    rows = [list(r) for r in a]
    n = len(rows)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in range(n):
                pairing = sum(alpha[j] * rows[i][j] for j in range(n))
                depth = 0
                below = list(alpha)
                while True:
                    below[i] -= 1
                    if below[i] < 0 or tuple(below) not in roots:
                        break
                    depth += 1
                up = list(alpha)
                up[i] += 1
                if depth - pairing >= 1 and tuple(up) not in roots:
                    roots.add(tuple(up))
                    nxt.append(tuple(up))
        frontier = nxt
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


class TestValidation:
    def test_accepts_standard_matrices(self):
        for m in (A1, A2, B2, G2):
            validate_cartan(m)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InputError):
            validate_cartan([[1]])

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(InputError):
            validate_cartan([[2, 1], [-1, 2]])

    def test_rejects_asymmetric_zero_pattern(self):
        with pytest.raises(InputError):
            validate_cartan([[2, 0], [-1, 2]])

    @pytest.mark.parametrize("matrix", [
        [[2.9, -1.5], [-1, 2]],
        [[2, -1.7], [-1, 2]],
        [[2, Fraction(-1)], [-1, 2]],
        [[2, False], [False, 2]],
        [[True]],
    ])
    def test_rejects_entries_that_are_not_int(self, matrix):
        for call in (validate_cartan, symmetrizers, positive_roots):
            with pytest.raises(InputError, match="entries must be integers"):
                call(matrix)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            validate_cartan([[2, -1]])
        with pytest.raises(InputError):
            validate_cartan([])

    @pytest.mark.parametrize("call, matrix", [
        (validate_cartan, 5),
        (positive_roots, [5]),
        (symmetrizers, [[2], 3]),
        (CartanData.from_matrix, None),
    ])
    def test_rejects_a_matrix_or_row_that_is_not_iterable(self, call, matrix):
        with pytest.raises(InputError, match="sequence of rows"):
            call(matrix)


class TestSymmetrizers:
    def test_simply_laced_all_ones(self):
        assert symmetrizers(A2) == (1, 1)
        assert symmetrizers(cartan_matrix("D4")) == (1, 1, 1, 1)

    def test_doubled_edges(self):
        assert symmetrizers(B2) == (2, 1)
        assert symmetrizers(cartan_matrix("C3")) == (1, 1, 2)

    def test_triple_edge(self):
        assert symmetrizers(G2) == (3, 1)

    def test_symmetrizer_identity(self):
        for label in ("A3", "B3", "C4", "F4", "G2"):
            m = cartan_matrix(label)
            d = symmetrizers(m)
            n = len(d)
            for i in range(n):
                for j in range(n):
                    assert d[i] * m[i][j] == d[j] * m[j][i], (label, i, j)

    def test_per_component_normalization(self):
        # Disconnected B2 + A1: each component gets its own minimal d.
        m = [
            [2, -1, 0],
            [-2, 2, 0],
            [0, 0, 2],
        ]
        assert symmetrizers(m) == (2, 1, 1)

    def test_non_symmetrizable_rejected(self):
        # 3-cycles with inconsistent edge ratios; in the second, the edges
        # (0, 1) and (1, 2) force d_2 = 2 d_0 and the edge (0, 2) needs d_2 = d_0
        for m in (
            [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]],
            [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
        ):
            with pytest.raises(InputError, match="not symmetrizable"):
                symmetrizers(m)

    def test_cartan_data_bundles(self):
        data = CartanData.from_matrix(B2)
        assert data.rank == 2
        assert data.d == (2, 1)

    def test_random_matrices_agree_with_the_full_equation_check(self):
        rng = random.Random(25)
        outcomes = [_outcome(m) for m in (_random_matrix(rng) for _ in range(2000))]
        assert all(got == expect for got, expect in outcomes)
        cycles = sum(got == ("error", "Cartan matrix is not symmetrizable") for got, _ in outcomes)
        assert 300 < cycles < 1000


def _random_matrix(rng):
    """A 1-5 node matrix: mostly a generalized Cartan matrix, sometimes not."""
    n = rng.randint(1, 5)
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m[i][j], m[j][i] = rng.choice((-1, -2, -3)), rng.choice((-1, -2, -3))
            if rng.random() < 0.03:
                m[i][j] = rng.choice((1, 0))
    if rng.random() < 0.02:
        m[rng.randrange(n)][rng.randrange(n)] = 1
    return m


def _outcome(m):
    """``symmetrizers`` and ``_checked_symmetrizers`` on m: each a d or an error text."""
    out = []
    for solve in (symmetrizers, _checked_symmetrizers):
        try:
            out.append(("ok", solve(m)))
        except InputError as exc:
            out.append(("error", str(exc)))
    return tuple(out)


def _checked_symmetrizers(a):
    """Propagate ratios along the graph, then check every d_i A[i][j] = d_j A[j][i] again."""
    rows = validate_cartan(a)
    n = len(rows)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue, component = [start], [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or rows[i][j] == 0:
                    continue
                forced = d[i] * Fraction(rows[i][j], rows[j][i])
                if d[j] is None:
                    d[j] = forced
                    queue.append(j)
                    component.append(j)
                elif d[j] != forced:
                    raise InputError("Cartan matrix is not symmetrizable")
        for i, x in zip(component, _primitive_ints([d[i] for i in component])):
            d[i] = x
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise InputError("Cartan matrix is not symmetrizable")
    return tuple(d)


class TestOneValidationPerJob:
    """Each job validates and symmetrizes its matrix once, in ``CartanData.from_matrix``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"validate_cartan": 0, "from_matrix": 0, "built": []}
        validate, from_matrix = rootsys.validate_cartan, CartanData.from_matrix.__func__

        def counting_validate(a):
            counts["validate_cartan"] += 1
            return validate(a)

        def counting_from_matrix(cls, a):
            counts["from_matrix"] += 1
            counts["built"].append(from_matrix(cls, a))
            return counts["built"][-1]

        monkeypatch.setattr(rootsys, "validate_cartan", counting_validate)
        monkeypatch.setattr(CartanData, "from_matrix", classmethod(counting_from_matrix))
        return counts

    @pytest.mark.parametrize("argv", [
        ["roots", "--cartan", "B2"],
        ["verdict", "--mu", "(u+2)/(u+1)", "--mu", "(u+3)/(u+1)", "--budget", "2",
         "--cartan", "A2"],
    ])
    def test_cli_job(self, calls, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert (calls["validate_cartan"], calls["from_matrix"]) == (1, 1)

    def test_spanning_count(self, calls):
        assert spanning_count([2], [3], [[2]]) == comb(4, 3)
        assert (calls["validate_cartan"], calls["from_matrix"]) == (1, 1)

    def test_root_system_carries_the_instance_it_built(self, calls):
        system = positive_roots(G2)
        [built] = calls["built"]
        assert built is system.cartan
        assert system.rank == len(system.cartan.matrix) == 2
        assert system.cartan.d == (3, 1)


class TestPositiveRoots:
    def test_counts_for_small_types(self):
        assert positive_roots(A1).count() == 1
        assert positive_roots(A2).count() == 3
        assert positive_roots(B2).count() == 4
        assert positive_roots(G2).count() == 6
        assert positive_roots(cartan_matrix("A3")).count() == 6

    def test_a2_roots(self):
        system = positive_roots(A2)
        assert system.positive == ((0, 1), (1, 0), (1, 1))
        assert repr(system) == (
            "RootSystem(cartan=CartanData(matrix=((2, -1), (-1, 2)), d=(1, 1)),"
            " positive=((0, 1), (1, 0), (1, 1)))"
        )

    def test_b2_roots(self):
        system = positive_roots(B2)
        assert system.positive == ((0, 1), (1, 0), (1, 1), (1, 2))
        assert system.highest() == (1, 2)

    def test_g2_highest_root(self):
        system = positive_roots(G2)
        assert system.highest() == (2, 3)
        assert root_height(system.highest()) == 5

    def test_disconnected_diagram_has_no_highest_root(self):
        # A1 x A1 and A2 x A2: each component has its own highest root
        assert positive_roots([[2, 0], [0, 2]]).highest() is None
        a2_a2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
        assert positive_roots(a2_a2).highest() is None

    @pytest.mark.parametrize("label", ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"])
    def test_connected_diagram_highest_root_has_full_support(self, label):
        system = positive_roots(cartan_matrix(label))
        top = system.highest()
        heights = [root_height(r) for r in system.positive]
        assert top == system.positive[-1] and all(top)
        assert heights.count(root_height(top)) == 1

    def test_sorted_by_height(self):
        system = positive_roots(cartan_matrix("B3"))
        heights = [root_height(r) for r in system.positive]
        assert heights == sorted(heights)
        assert system.count() == 9

    def test_affine_matrix_rejected(self):
        with pytest.raises(InputError):
            positive_roots([[2, -2], [-2, 2]])

    def test_indefinite_matrices_rejected(self):
        for matrix in (
            [[2, -3], [-3, 2]],
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        ):
            with pytest.raises(InputError, match="not of finite type"):
                positive_roots(matrix)

    def test_highest_root_past_height_100(self):
        system = positive_roots(cartan_matrix("B51"))
        assert system.count() == 51**2
        assert root_height(system.highest()) == 101

    def test_larger_types(self):
        assert positive_roots(cartan_matrix("F4")).count() == 24
        assert positive_roots(cartan_matrix("D4")).count() == 12
        assert positive_roots(cartan_matrix("E6")).count() == 36

    @pytest.mark.parametrize(
        "label, count, height",
        [("A60", 1830, 60), ("B30", 900, 59), ("C30", 900, 59), ("D40", 1560, 77)],
    )
    def test_large_classical_counts_and_highest_heights(self, label, count, height):
        system = positive_roots(cartan_matrix(label))
        assert system.count() == count
        assert root_height(system.highest()) == height

    @pytest.mark.parametrize("label", ["E6", "E7", "E8", "F4", "G2", "B4", "C5", "D6", "A7"])
    def test_roots_and_order_match_string_walk(self, label):
        matrix = cartan_matrix(label)
        assert positive_roots(matrix).positive == _reference_roots(matrix)


def _reference_cartan_matrix(label):
    """The chain-and-patch builder: an A_n chain, unlinked and relinked for D,
    rebuilt one node shorter and grown by a node on index 2 for E."""
    family, n = label[0], int(label[1:])

    def chain(n):
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            m[i][i + 1] = -1
            m[i + 1][i] = -1
        return m

    m = chain(n)
    if family == "B":
        m[n - 1][n - 2] = -2
    elif family == "C":
        m[n - 2][n - 1] = -2
    elif family == "D":
        m[n - 1][n - 2] = 0
        m[n - 2][n - 1] = 0
        m[n - 1][n - 3] = -1
        m[n - 3][n - 1] = -1
    elif family == "E":
        m = chain(n - 1)
        for row in m:
            row.append(0)
        m.append([0] * n)
        m[n - 1][n - 1] = 2
        m[n - 1][2] = -1
        m[2][n - 1] = -1
    elif family == "F":
        m[1][2] = -2
    elif family == "G":
        m[1][0] = -3
    return tuple(tuple(row) for row in m)


class TestCartanLabels:
    LABELS = (
        [f"A{n}" for n in range(1, 13)]
        + [f"{family}{n}" for family in "BC" for n in range(2, 13)]
        + [f"D{n}" for n in range(3, 13)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )

    @pytest.mark.parametrize("label", LABELS)
    def test_matches_the_chain_and_patch_reference(self, label):
        assert cartan_matrix(label) == _reference_cartan_matrix(label)

    def test_rejects_unknown(self):
        for label in ("H2", "A0", "B1", "E9", "G3", "", "X"):
            with pytest.raises(InputError):
                cartan_matrix(label)

    def test_rank_cap_is_checked_before_the_matrix_is_built(self):
        # A100000 would be 10**10 cells
        for label in ("A101", "B101", "C101", "D101", "A100000"):
            with pytest.raises(InputError, match=r"\(ranks \d\.\.100\)"):
                cartan_matrix(label)
        assert len(cartan_matrix("D100")) == 100

    def test_case_and_space_insensitive(self):
        assert cartan_matrix(" a2 ") == ((2, -1), (-1, 2))

    def test_g2_convention(self):
        assert cartan_matrix("G2") == ((2, -1), (-3, 2))


class TestSpanningCount:
    def test_rank_one_closed_form(self):
        # For sl(2) with weight degree p, level k: multisets of size k from
        # p admissible exponents.
        for p in range(0, 5):
            for k in range(0, 7):
                expect = comb(p + k - 1, k) if p >= 1 else (1 if k == 0 else 0)
                assert spanning_count([p], [k], A1) == expect, (p, k)

    def test_rank_two_zero_weight(self):
        # Zero content always counts exactly the empty multiset.
        assert spanning_count([2, 3], [0, 0], A2) == 1

    def test_a2_simple_contents(self):
        # Content (1,0): only f_{alpha_1}^(r) with r < p_1.
        assert spanning_count([2, 3], [1, 0], A2) == 2
        assert spanning_count([2, 3], [0, 1], A2) == 3
        # Content (1,1): pairs {f_a1, f_a2} (2*3 ways) or single f_{a1+a2}
        # with bound p_1 + p_2 = 5.
        assert spanning_count([2, 3], [1, 1], A2) == 2 * 3 + 5

    def test_zero_degree_blocks_root(self):
        # With p = (1, 0), the second simple root admits no exponents, but
        # the sum alpha_1 + alpha_2 still does (bound 1).
        assert spanning_count([1, 0], [0, 1], A2) == 0
        assert spanning_count([1, 0], [1, 1], A2) == 1

    def test_input_validation(self):
        with pytest.raises(InputError):
            spanning_count([1], [0, 0], A2)
        with pytest.raises(InputError):
            spanning_count([-1], [0], A1)
        with pytest.raises(InputError):
            spanning_count([1], [-2], A1)

    @pytest.mark.parametrize("p, eta", [([1.9], [1]), ([2], [1.0]), ([True], [1]), ([2], [False])])
    def test_rejects_p_and_eta_that_are_not_int(self, p, eta):
        with pytest.raises(InputError, match="p and eta must be integers"):
            spanning_count(p, eta, A1)
