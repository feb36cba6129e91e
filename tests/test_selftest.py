"""The built-in randomized property audit."""

import json

import pytest

import yverma.cli as cli
import yverma.selftest as selftest
from yverma.selftest import run_selftest, rtt_relation_defect
from yverma.rational import parse_rational_fn
from yverma.verma import ModuleVector, canonical_polynomial_weights

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


def _no_recurrence(*args, **kwargs):
    raise RuntimeError("no recurrence today")


#: name in yverma.selftest -> (a wrong stand-in, the property that must
#: catch it, that property's detail at seed 0)
BREAKAGES = {
    "act_h_via_quantum_det": (
        lambda r, v, hw, cache=None: ModuleVector.zero(),
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
