"""The sl(2) operators e, f, h obtained from the generator matrix."""

import ast
import random
from fractions import Fraction
from itertools import chain, islice, product, repeat
from math import factorial, prod
from pathlib import Path

import pytest

import yverma.gauss as gauss
from yverma.errors import InputError, TruncationError
from yverma.rational import parse_rational_fn
from yverma.series import (
    SERIES_ONE,
    SeriesU,
    expand_rational,
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
)
from yverma.gauss import (
    act_e,
    act_f,
    act_h,
    act_h_via_quantum_det,
    as_gl2_weights,
    e_series,
)

MU = parse_rational_fn("(u+2)/(u+1)")
HW = as_gl2_weights(MU)
#: The same weight exactly and as a truncated series; relations hold for both
#: on every basis monomial of level <= 2 and degree <= 4.
RELATION_WEIGHTS = (HW, as_gl2_weights(expand_rational(MU, order=24)))
RELATION_MONOMIALS = basis_monomials(max_level=2, max_degree=4)


class TestWeightCoercion:
    def test_rational_realization(self):
        assert HW.lambda1.coeffs == (1, 2)
        assert HW.lambda2.coeffs == (1, 1)

    def test_series_realization(self):
        mu_series = expand_rational(MU, order=10)
        hw = as_gl2_weights(mu_series)
        assert hw.lambda1 == mu_series
        assert hw.lambda2 == SERIES_ONE

    def test_rejects_other_types(self):
        with pytest.raises(InputError):
            as_gl2_weights("(u+2)/(u+1)")


class TestLoweringOperators:
    def test_f0_is_first_creation_generator(self):
        one = ModuleVector.highest()
        assert act_f(0, one, MU) == ModuleVector.basis([1])

    def test_f1_on_highest_vector(self):
        # f^(1) = t_21^(2) - t_21^(1) t_22^(1) on the highest vector, so the
        # second term contributes -lambda2^(1) t_21^(1) 1.
        one = ModuleVector.highest()
        expected = ModuleVector.basis([2]) - ModuleVector.basis([1])
        assert act_f(1, one, MU) == expected

    def test_f_raises_level_by_one(self):
        cache = ActionCache(HW)
        for mono in [(), (1,), (1, 2)]:
            v = ModuleVector.basis(mono)
            for r in range(0, 4):
                out = act_f(r, v, HW, cache)
                assert out.levels() == [len(mono) + 1], (mono, r)

    def test_negative_index_rejected(self):
        one = ModuleVector.highest()
        for op in (act_e, act_f, act_h, act_h_via_quantum_det):
            with pytest.raises(InputError):
                op(-1, one, MU)


class TestRaisingOperators:
    def test_e_kills_highest_vector(self):
        one = ModuleVector.highest()
        for r in range(0, 6):
            assert act_e(r, one, MU).is_zero()

    def test_e0_f0_on_highest_vector(self):
        # [e^(0), f^(0)] = h^(0) and e^(0) 1 = 0, so e^(0) f^(0) 1 is the
        # u^{-1} coefficient of mu(u) times the highest vector.
        one = ModuleVector.highest()
        out = act_e(0, act_f(0, one, MU), MU)
        mu_series = expand_rational(MU, order=4)
        assert out == one.scaled(mu_series.coeff(1))
        assert out == one  # that coefficient is 1 for (u+2)/(u+1)

    def test_e_lowers_level_by_one(self):
        cache = ActionCache(HW)
        for mono in [(1,), (2,), (1, 1), (1, 3)]:
            v = ModuleVector.basis(mono)
            for r in range(0, 3):
                out = act_e(r, v, HW, cache)
                if not out.is_zero():
                    assert out.levels() == [len(mono) - 1], (mono, r)


class TestCartanOperators:
    def test_h_eigenvalue_on_highest_vector(self):
        # h(u) 1 = mu(u) 1: coefficient of u^{-r-1} is mu^(r+1).
        one = ModuleVector.highest()
        mu_series = expand_rational(MU, order=10)
        for r in range(0, 8):
            assert act_h(r, one, MU) == one.scaled(mu_series.coeff(r + 1)), r

    def test_h_series_weight_eigenvalue(self):
        mu_series = expand_rational(parse_rational_fn("(u+3)/(u+1)"), order=12)
        one = ModuleVector.highest()
        for r in range(0, 6):
            assert act_h(r, one, mu_series) == one.scaled(mu_series.coeff(r + 1))

    def test_two_route_agreement(self):
        cache = ActionCache(HW)
        for mono in basis_monomials(max_level=2, max_degree=3):
            v = ModuleVector.basis(mono)
            for r in range(0, 3):
                assert act_h(r, v, HW, cache) == act_h_via_quantum_det(
                    r, v, HW, cache
                ), (mono, r)

    def test_h_preserves_level(self):
        cache = ActionCache(HW)
        for mono in [(1,), (1, 2)]:
            v = ModuleVector.basis(mono)
            for r in range(0, 3):
                out = act_h(r, v, HW, cache)
                if not out.is_zero():
                    assert out.levels() == [len(mono)]


class TestRelations:
    def test_ef_commutator_equals_h(self):
        for hw in RELATION_WEIGHTS:
            cache = ActionCache(hw)
            for mono in RELATION_MONOMIALS:
                v = ModuleVector.basis(mono)
                for r in range(0, 3):
                    for s in range(0, 3):
                        ef = act_e(r, act_f(s, v, hw, cache), hw, cache)
                        fe = act_f(s, act_e(r, v, hw, cache), hw, cache)
                        assert ef - fe == act_h(r + s, v, hw, cache), (hw, mono, r, s)

    def test_h_family_commutes(self):
        for hw in RELATION_WEIGHTS:
            cache = ActionCache(hw)
            for mono in RELATION_MONOMIALS:
                v = ModuleVector.basis(mono)
                for r in range(0, 3):
                    for s in range(0, 3):
                        ab = act_h(r, act_h(s, v, hw, cache), hw, cache)
                        ba = act_h(s, act_h(r, v, hw, cache), hw, cache)
                        assert ab == ba, (hw, mono, r, s)


class TestESeries:
    def test_agrees_with_act_e_term_by_term(self):
        for hw in (HW, as_gl2_weights(parse_rational_fn("(u+3)*(u+5)/((u+1)*(u+2))"))):
            for mono in [(), (1,), (2,), (1, 2), (1, 1, 3)]:
                v = ModuleVector.basis(mono)
                series = e_series(v, hw, ActionCache(hw))
                for r in range(0, 9):
                    assert next(series) == act_e(r, v, hw, ActionCache(hw)), (mono, r)


class TestTruncationBoundaries:
    # Where a truncated weight runs out decides which reports end in a
    # truncation error, so the first failing index r is pinned.
    HW6 = as_gl2_weights(expand_rational(MU, order=6))

    def first_truncated_r(self, op, mono, limit=12):
        for r in range(0, limit):
            try:
                op(r, ModuleVector.basis(mono), self.HW6)
            except TruncationError:
                return r
        return None

    def test_e(self):
        assert self.first_truncated_r(act_e, (1,)) == 6
        assert self.first_truncated_r(act_e, (1, 2)) == 5

    def test_h(self):
        assert self.first_truncated_r(act_h, ()) == 6
        assert self.first_truncated_r(act_h, (1,)) == 6
        assert self.first_truncated_r(act_h, (1, 2)) == 5

    def test_h_names_the_first_missing_coefficient(self):
        # a truncation report carries this index, so lookup order matters
        with pytest.raises(TruncationError) as exc:
            act_h(4, ModuleVector.basis((4,)), self.HW6)
        assert exc.value.needed == 8

    def test_f_never_truncates(self):
        for mono in [(), (1,), (1, 2)]:
            assert self.first_truncated_r(act_f, mono) is None

    def test_e_series_stops_where_act_e_does(self):
        series = e_series(ModuleVector.basis((1, 2)), self.HW6)
        for r in range(0, 5):
            assert next(series) == act_e(r, ModuleVector.basis((1, 2)), self.HW6)
        with pytest.raises(TruncationError):
            next(series)


def _shift_weight(s, x, c):
    """The u^{-x} coefficient of (u + c)^{-s}: binom(-s, x - s) c^(x - s)."""
    k = x - s
    return prod(range(-s, -s - k, -1)) // factorial(k) * c**k


def _reference_t22_solve(source, cache, shift=0):
    """Y(u) = t_22(u + shift)^{-1} S(u) by whole-vector subtraction: the
    reference for the one-dict solve in ``gauss._t22_solve``, on the same dicts."""
    ys = []
    for s_n in chain(source, repeat({})):
        y = ModuleVector(s_n)
        n = len(ys)
        for x in range(1, n + 1):
            if not ys[n - x]:
                continue
            # at shift 0 only s = x has a nonzero weight; acting by no other
            # t_22^(s) keeps the truncation a short lambda2 window reports
            for s in range(1, x + 1) if shift else (x,):
                t22_y = act_generator(2, 2, s, ys[n - x], cache.hw, cache)
                y = y - t22_y.scaled(_shift_weight(s, x, shift))
        ys.append(y)
        yield y.terms


#: name -> (r, v, hw, cache) -> the operator applied through gauss._t22_solve
SOLVE_ROUTES = {
    "e_series": lambda r, v, hw, cache: list(islice(e_series(v, hw, cache), r + 1)),
    "act_e": act_e,
    "act_f": act_f,
    "act_h": act_h,
    "act_h_via_quantum_det": act_h_via_quantum_det,
}


def _seeded_vectors(seed):
    """Unit vectors and seeded int and Fraction vectors of levels <= 3."""
    rng = random.Random(seed)
    monos = basis_monomials(max_level=3, max_degree=5)
    vectors = [ModuleVector.basis(m) for m in ((), (1,), (1, 2), (1, 1, 3))]
    for _ in range(3):
        picked = rng.sample(monos, rng.randint(2, 3))
        vectors.append(ModuleVector({m: rng.choice([-2, -1, 1, 3]) for m in picked}))
        picked = rng.sample(monos, rng.randint(2, 3))
        vectors.append(ModuleVector({m: Fraction(rng.randint(-5, 5) or 1, 3) for m in picked}))
    return vectors


class TestSolveAgainstReference:
    """Every e, f and h route through the one-dict solve and through its reference."""

    def _both(self, monkeypatch, compute):
        ours = compute()
        monkeypatch.setattr(gauss, "_t22_solve", _reference_t22_solve)
        try:
            return ours, compute()
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("route", SOLVE_ROUTES)
    def test_same_vectors(self, monkeypatch, route):
        op = SOLVE_ROUTES[route]
        weights = (
            HW,
            as_gl2_weights(parse_rational_fn("(u+7/2)(u+3)/((u+1/2)(u+2))")),
            HighestWeightGL2(HW.lambda1, HW.lambda2, hbar=2),
        )

        def compute():
            out = []
            for hw in weights:
                cache = ActionCache(hw)
                for v in _seeded_vectors(0):
                    out += [op(r, v, hw, cache) for r in range(6)]
            return out

        ours, reference = self._both(monkeypatch, compute)
        assert ours == reference
        assert any(ours)

    @pytest.mark.parametrize("route", SOLVE_ROUTES)
    def test_same_first_truncation(self, monkeypatch, route):
        op = SOLVE_ROUTES[route]
        hw6 = TestTruncationBoundaries.HW6

        def first_truncation(v):
            for r in range(9):
                try:
                    op(r, v, hw6, ActionCache(hw6))
                except TruncationError as exc:
                    return r, exc.needed
            return None

        def compute():
            return [first_truncation(v) for v in _seeded_vectors(1)]

        ours, reference = self._both(monkeypatch, compute)
        assert ours == reference
        assert any(ours) == (route != "act_f")

    @pytest.mark.parametrize("route", SOLVE_ROUTES)
    def test_same_vectors_and_truncation_with_both_weights_truncated(self, monkeypatch, route):
        # a hand-built pair with lambda2 truncated too: there reads of lambda2
        # run out, so the order a product sums its terms in could show
        op = SOLVE_ROUTES[route]
        weights = [
            HighestWeightGL2(SeriesU([1, 3, -1, 2, 5, -2, 1][: o1 + 1]),
                             SeriesU([1, -1, Fraction(1, 2), 2, -3, 1][: o2 + 1]))
            for o1, o2 in ((6, 3), (4, 5), (3, 2))
        ]

        def outcomes(v, hw):
            out = []
            for r in range(9):
                try:
                    out.append(op(r, v, hw, ActionCache(hw)))
                except TruncationError as exc:
                    return out, (r, exc.needed)
            return out, None

        def compute():
            return [outcomes(v, hw) for hw in weights for v in _seeded_vectors(2)]

        ours, reference = self._both(monkeypatch, compute)
        assert ours == reference
        assert any(truncation for _, truncation in ours)


@pytest.mark.parametrize("route", SOLVE_ROUTES)
def test_routes_build_no_intermediate_vectors(monkeypatch, route):
    # every sum and difference of the Gauss layer runs in one coefficient dict
    def forbidden(self, other):
        raise AssertionError("ModuleVector arithmetic inside the Gauss layer")

    monkeypatch.setattr(ModuleVector, "__add__", forbidden)
    monkeypatch.setattr(ModuleVector, "__sub__", forbidden)
    for hw in RELATION_WEIGHTS:
        cache = ActionCache(hw)
        for v in _seeded_vectors(3):
            for r in range(4):
                SOLVE_ROUTES[route](r, v, hw, cache)


#: (u+3)/(u+1) as its polynomial pair and, as a ``series:`` weight is read, as (mu, 1)
MU3_WEIGHTS = {
    "rational": as_gl2_weights(parse_rational_fn("(u+3)/(u+1)")),
    "series": as_gl2_weights(expand_rational(parse_rational_fn("(u+3)/(u+1)"), order=12)),
}


@pytest.mark.parametrize("hbar", (2, 3))
@pytest.mark.parametrize("weight", MU3_WEIGHTS)
class TestQuantumDeterminantInYhbar:
    """qdet(u) = t_11(u) t_22(u-hbar) - t_21(u) t_12(u-hbar) on a pair with hbar != 1."""

    MONOMIALS = [(), (1,), (2,), (1, 2)]

    @staticmethod
    def pair(weight, hbar):
        hw = MU3_WEIGHTS[weight]
        return HighestWeightGL2(hw.lambda1, hw.lambda2, hbar=hbar)

    def test_qdet_commutes_with_every_generator(self, weight, hbar):
        hw = self.pair(weight, hbar)
        cache = ActionCache(hw)
        checked = 0
        for mono, r, i, j, s in product(self.MONOMIALS, range(1, 4), (1, 2), (1, 2), range(1, 4)):
            v = ModuleVector.basis(mono)
            tv = act_generator(i, j, s, v, hw, cache)
            dv = act_quantum_det(r, v, hw, cache)
            assert act_generator(i, j, s, dv, hw, cache) == act_quantum_det(r, tv, hw, cache), (
                mono, r, (i, j, s)
            )
            checked += 1
        assert checked == 144

    def test_h_routes_agree(self, weight, hbar):
        hw = self.pair(weight, hbar)
        cache = ActionCache(hw)
        for mono in self.MONOMIALS:
            v = ModuleVector.basis(mono)
            for r in range(4):
                assert act_h(r, v, hw, cache) == act_h_via_quantum_det(r, v, hw, cache), (mono, r)

    def test_qdet_eigenvalue_on_highest_vector(self, weight, hbar):
        # qdet(u) 1 = lambda1(u) lambda2(u-hbar) 1
        hw = self.pair(weight, hbar)
        expected = series_mul(hw.lambda1, series_shift_argument(hw.lambda2, -hbar, order=8))
        one = ModuleVector.highest()
        for r in range(9):
            assert act_quantum_det(r, one, hw) == one.scaled(expected.coeff(r)), r


SRC = Path(__file__).resolve().parent.parent / "src" / "yverma"


def shift_weight_callers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, qualified function) of every call of ``shifted_power_coeff``."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope != "<module>" else child.name
            if isinstance(child, ast.Call):
                callee = child.func
                if getattr(callee, "id", getattr(callee, "attr", None)) == "shifted_power_coeff":
                    found.add((module, scope))
            visit(child, module, name)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_only_the_product_loop_and_series_shift_weigh_a_shifted_argument():
    # qdet and its h route re-expand t(u - hbar) through verma._t_times alone
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert shift_weight_callers(sources) == {
        ("verma", "_t_times"),
        ("series", "series_shift_argument"),
    }


def test_shift_weight_guard_sees_every_form_of_call():
    source = (
        "from .series import shifted_power_coeff as spc\n"
        "class C:\n"
        "    def f(self):\n"
        "        return [shifted_power_coeff(s, 3, -1) for s in (1, 2)]\n"
        "def g():\n"
        "    return series.shifted_power_coeff(1, 2, 1)\n"
        "def ok():\n"
        "    return shifted_power_coeff\n"
        "w = shifted_power_coeff(1, 1, 0)\n"
    )
    assert shift_weight_callers({"m": source}) == {("m", "C.f"), ("m", "g"), ("m", "<module>")}
