"""The built-in randomized property audit."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

import yverma.cli as cli
import yverma.selftest as selftest
from yverma.errors import InputError, TruncationError
from yverma.gauss import as_gl2_weights
from yverma.selftest import run_selftest, rtt_relation_defect
from yverma.rational import parse_rational_fn
from yverma.series import expand_rational, series_from_tail
from yverma.verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    act_generator,
    basis_monomials,
    canonical_polynomial_weights,
)

EXPECTED_PROPERTIES = [
    "rtt_relations",
    "ef_commutator_is_h",
    "h_two_route_agreement",
    "quantum_det_central",
    "highest_vector_eigen",
    "tail_submodule_stable",
    "level_gradation",
    "pairing_symmetric",
    "recurrence_roundtrip",
    "canonical_singular",
    "gram_rank_matches_character",
    "root_counts",
]


class TestRun:
    def test_default_seed_passes(self):
        report = run_selftest(seed=0)
        failing = [p.name for p in report.properties if not p.passed]
        assert report.passed, failing

    def test_other_seed_passes(self):
        assert run_selftest(seed=3).passed

    def test_property_names_stable(self):
        report = run_selftest(seed=0)
        assert [p.name for p in report.properties] == EXPECTED_PROPERTIES

    def test_deterministic_reports(self):
        a = run_selftest(seed=1).to_obj()
        b = run_selftest(seed=1).to_obj()
        assert a == b

    def test_report_shape(self):
        obj = run_selftest(seed=0).to_obj()
        assert obj["seed"] == 0
        assert obj["pass"] is True
        assert len(obj["properties"]) == len(EXPECTED_PROPERTIES)
        for entry in obj["properties"]:
            assert set(entry) == {"name", "pass", "detail"}


class TestDefectProbe:
    def test_defining_relation_defect_is_zero(self):
        hw = canonical_polynomial_weights(parse_rational_fn("(u+2)/(u+1)"))
        v = ModuleVector.basis([1, 2])
        for (i, j, r, k, l, s) in [
            (1, 1, 1, 2, 1, 2),
            (1, 2, 2, 2, 1, 1),
            (2, 2, 3, 1, 2, 1),
        ]:
            assert rtt_relation_defect(i, j, r, k, l, s, v, hw).is_zero()


def _composed_defect(i, j, r, k, l, s, vec, hw, cache=None):
    """The defect as products of whole-vector actions: the reference for the fused one."""
    lhs = act_generator(i, j, r, act_generator(k, l, s, vec, hw, cache), hw, cache)
    lhs -= act_generator(k, l, s, act_generator(i, j, r, vec, hw, cache), hw, cache)
    rhs = ModuleVector()
    for a in range(1, min(r, s) + 1):
        rhs += act_generator(
            k, j, a - 1, act_generator(i, l, r + s - a, vec, hw, cache), hw, cache
        )
        rhs -= act_generator(
            k, j, r + s - a, act_generator(i, l, a - 1, vec, hw, cache), hw, cache
        )
    return lhs - rhs


def _hbar_cache(hw, hbar):
    """A cache bound to hw's series as a weight of Y_hbar: the calls take ``cache.hw``."""
    return ActionCache(HighestWeightGL2(hw.lambda1, hw.lambda2, hbar))


GENERATOR_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
MU = parse_rational_fn("(u+2)/(u+1)")
DEFECT_WEIGHTS = {
    "rational": as_gl2_weights(parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))")),
    "series": as_gl2_weights(
        series_from_tail([Fraction((-1) ** k * (k % 5 + 1), k % 3 + 1) for k in range(16)])
    ),
}


def _defect_vectors():
    """Unit vectors and seeded two-term vectors, levels <= 2, degrees <= 4."""
    monos = basis_monomials(max_level=2, max_degree=4)
    vectors = [ModuleVector.basis(m) for m in monos]
    rng = random.Random(0)
    for _ in range(6):
        m1, m2 = rng.sample(monos, 2)
        c2 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        vectors.append(ModuleVector({m1: 1, m2: c2}))
    return vectors


class TestFusedDefect:
    """The one-dict defect against the products of whole-vector actions."""

    @pytest.mark.parametrize("hbar", (1, 2))
    @pytest.mark.parametrize("weight", DEFECT_WEIGHTS)
    def test_agrees_with_the_composed_defect(self, weight, hbar):
        hw = DEFECT_WEIGHTS[weight]
        fused_cache, composed_cache = _hbar_cache(hw, hbar), _hbar_cache(hw, hbar)
        hw = fused_cache.hw  # the pair in Y_hbar, equal to composed_cache.hw
        nonzero = 0
        for vec in _defect_vectors():
            for (i, j), (k, l), r, s in product(
                GENERATOR_PAIRS, GENERATOR_PAIRS, range(4), range(4)
            ):
                fused = rtt_relation_defect(i, j, r, k, l, s, vec, hw, fused_cache)
                composed = _composed_defect(i, j, r, k, l, s, vec, hw, composed_cache)
                assert fused == composed, (vec, (i, j, r), (k, l, s))
                nonzero += not fused.is_zero()
        # in Y_hbar with hbar = 2 the unscaled relations fail; in Y they hold
        assert (nonzero > 0) == (hbar == 2)

    @pytest.mark.parametrize(
        "indices",
        [(3, 1, 1, 1, 1, 1), (1, 1, -1, 1, 1, 1), (1, 1, 1, 3, 2, 1), (1, 1, 1, 1, 2, -1)],
    )
    def test_rejects_bad_indices_on_any_vector(self, indices):
        hw = DEFECT_WEIGHTS["rational"]
        for vec in (ModuleVector(), ModuleVector.basis([1, 2])):
            with pytest.raises(InputError):
                rtt_relation_defect(*indices, vec, hw)

    HW6 = as_gl2_weights(expand_rational(MU, order=6))

    def _needed(self, defect, *args):
        """The index a TruncationError names, or None; each call in a fresh cache."""
        try:
            defect(*args, self.HW6, ActionCache(self.HW6))
        except TruncationError as exc:
            return exc.needed
        return None

    def test_unit_vectors_name_the_same_missing_coefficient(self):
        truncated = 0
        for mono in basis_monomials(max_level=2, max_degree=4):
            vec = ModuleVector.basis(mono)
            for (i, j), (k, l), r, s in product(
                GENERATOR_PAIRS, GENERATOR_PAIRS, range(4), range(4)
            ):
                args = (i, j, r, k, l, s, vec)
                needed = self._needed(rtt_relation_defect, *args)
                assert needed == self._needed(_composed_defect, *args), args
                truncated += needed is not None
        assert truncated > 0

    def test_multi_term_vector_can_name_another_coefficient(self):
        # t_11^(3) t21(3)1 and t_11^(3) t21(4)1 share monomials that cancel
        # in the whole-vector sum; the fused defect applies the outer
        # t_11^(3) to each image first, so it runs out at another lookup.
        # A search over two-term vectors of levels <= 2 and degrees <= 5
        # found none on which only the fused defect runs out.
        args = (1, 1, 3, 1, 1, 3, ModuleVector({(3,): 1, (4,): -1}))
        assert self._needed(rtt_relation_defect, *args) == 7
        assert self._needed(_composed_defect, *args) == 8


def _no_recurrence(*args, **kwargs):
    raise RuntimeError("no recurrence today")


#: name in yverma.selftest -> (a wrong stand-in, the property that must
#: catch it, that property's detail at seed 0)
BREAKAGES = {
    "act_h_via_quantum_det": (
        lambda r, v, hw, cache=None: ModuleVector(),
        "h_two_route_agreement",
        "h(0) on (1, 1)",
    ),
    "detect_recurrence": (
        _no_recurrence,
        "recurrence_roundtrip",
        "raised RuntimeError('no recurrence today')",
    ),
    "symmetrizers": (lambda cartan: (1, 1), "root_counts", "G2 symmetrizers"),
}


class TestFailurePath:
    @pytest.mark.parametrize("name", BREAKAGES)
    def test_a_broken_route_fails_its_property_alone(self, monkeypatch, name):
        healthy = run_selftest(seed=0).to_obj()["properties"]
        stand_in, failing, detail = BREAKAGES[name]
        monkeypatch.setattr(selftest, name, stand_in)
        report = run_selftest(seed=0)
        assert not report.passed
        for before, after in zip(healthy, report.to_obj()["properties"], strict=True):
            if before["name"] == failing:
                assert after == {"name": failing, "pass": False, "detail": detail}
            else:
                assert after == before

    @pytest.mark.parametrize("name", BREAKAGES)
    def test_cli_exits_4_on_a_failing_property(self, monkeypatch, capsys, name):
        monkeypatch.setattr(selftest, name, BREAKAGES[name][0])
        assert cli.main(["selftest", "--seed", "0"]) == 4
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"] is False
        assert [p["name"] for p in obj["properties"] if not p["pass"]] == [BREAKAGES[name][1]]
