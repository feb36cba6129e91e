"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, Job, generate  # noqa: E402


def dump_jobs(jobs: list[Job]) -> bytes:
    return json.dumps([asdict(j) for j in jobs], sort_keys=True).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload):
    assert dump_jobs(generate(workload, 7)) == dump_jobs(generate(workload, 7))
    assert dump_jobs(generate(workload, 7)) != dump_jobs(generate(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_lists_hold_enough_jobs_for_p90(workload):
    jobs = generate(workload, 0)
    assert len(jobs) >= 100
    assert sorted(j.shape.split("-")[0] for j in generate(workload, 1)) == sorted(
        j.shape.split("-")[0] for j in jobs
    )


def _run_cli(argv):
    import contextlib
    import io

    import yverma.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _cheapest(workload, command):
    return next(j for j in generate(workload, 3) if j.command == command)


@pytest.mark.parametrize(
    "job, corrupt",
    [
        (Job("gram", {"mu": "(u+3)/(u+1)", "max_level": 4}, "p1", expect={"p": 1}),
         lambda r: r.replace('"rank":0', '"rank":1', 1)),
        (Job("roots", {"cartan": "B3"}, "roots", expect={"count": 9}),
         lambda r: r.replace('"count":9', '"count":8')),
        (Job("expand", {"mu": "(u+2)/(u+1)", "order": 4}, "expand"),
         lambda r: r.replace('"-1","1","-1"', '"-1","2","-1"')),
        (Job("singular", {"mu": "(u+2)/(u+1)", "level": 1, "degree": 2}, "s",
             expect={"rational": True, "p": 1}),
         lambda r: r.replace('{"coef":"1","mono":[0]},{"coef":"1","mono":[1]}',
                             '{"coef":"2","mono":[0]},{"coef":"1","mono":[1]}')),
        (Job("act", {"mu": "(u+2)/(u+1)", "gen": "h", "r": 2, "mono": "1"}, "act-h"),
         lambda r: r.replace('"coef":"4"', '"coef":"5"')),
        (Job("selftest", {"seed": 0}, "selftest"),
         lambda r: r.replace('"pass":true', '"pass":false', 1)),
    ],
)
def test_oracle_accepts_report_and_rejects_corruption(job, corrupt):
    report = _run_cli(job.argv())
    assert oracles.check(job, report) is None
    bad = corrupt(report)
    assert bad != report
    assert oracles.check(job, bad) is not None


@pytest.mark.parametrize("workload, command", [("rationality", "detect"), ("rationality", "verdict"),
                                               ("desk-mix", "character"), ("desk-mix", "verdict")])
def test_oracle_rejects_corrupted_generated_report(workload, command):
    job = _cheapest(workload, command)
    report = _run_cli(job.argv())
    assert oracles.check(job, report) is None
    obj = json.loads(report)
    if "dims" in obj:
        obj["dims"][1] += 1
    elif "finite_dimensional" in obj:
        obj["finite_dimensional"] = not obj["finite_dimensional"]
    elif "witness" in obj and command == "detect":
        obj["rational"] = "(u+7)/(u+1)" if obj["witness"] else None
        obj["witness"] = obj["witness"] or {"N": 1, "c": ["1"]}
    else:
        obj["weight_finiteness"] = "undetermined"
    assert oracles.check(job, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def test_oracle_rejects_non_canonical_json():
    job = Job("roots", {"cartan": "A2"}, "roots", expect={"count": 3})
    report = _run_cli(job.argv())
    assert oracles.check(job, report.rstrip("\n") + " \n") is not None


def test_self_time_subtracts_union_of_children():
    # A [0,10] has children B [1,4] and C [3,6] (overlapping: union 5);
    # B has child D [2,3]; E is a second root on another job.
    spans = [
        Span(0, "cli", "main", 0.0, 10.0, None, 1),
        Span(1, "verma", "act_generator", 1.0, 4.0, 0, 1),
        Span(2, "linalg", "rank", 3.0, 6.0, 0, 1),
        Span(3, "linalg", "rref", 2.0, 3.0, 1, 1),
        Span(4, "cli", "main", 20.0, 21.5, None, 2),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5}
    layers = tracing.layer_metrics(spans)
    assert layers["cli"] == {"calls": 2, "self_s": 6.5}
    assert layers["linalg"] == {"calls": 2, "self_s": 4.0}
    assert layers["verma"] == {"calls": 1, "self_s": 2.0}
    assert set(layers) == set(tracing.LAYERS)


def test_tracer_sees_names_bound_by_from_import_and_restores_them():
    import yverma.character as character
    import yverma.gauss as gauss
    import yverma.verma as verma

    original = verma.act_generator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gauss.act_generator is not original
        assert character.act_generator is gauss.act_generator
        tracer.begin_job(0)
        report = _run_cli(["gram", "--mu", "(u+3)(u+5)/((u+1)(u+2))", "--max-level", "3"])
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert gauss.act_generator is original and character.act_generator is original
    spans, counts = tracer.take()
    layers = tracing.layer_metrics(spans)
    assert layers["cli"]["calls"] == 1
    # one irreducible_weight_dims span and n^2 pairings at levels 0..3 (n = 1..4)
    assert layers["character"]["calls"] == 1 + (1 + 4 + 9 + 16)
    assert layers["verma"]["calls"] > 0 and layers["linalg"]["calls"] > 0
    assert all(s.job == 0 for s in spans)
    metrics = tracing.counter_metrics(counts)
    assert metrics["character.gram_entries"] == 1 + 4 + 9 + 16
    assert metrics["character.pairings"] == 30
    ranks = [lv["rank"] for lv in json.loads(report)["levels"]]
    assert metrics["character.rank_ratio"] == sum(ranks) / (1 + 2 + 3 + 4)
    assert metrics["verma.cache_entries"] > 0


def test_run_pass_scales_each_group_by_the_calibrations_around_it(monkeypatch):
    # Calibrations read 1.0 before the pass, then 3.0 and 5.0 after each
    # group; jobs of 0.03 s close a group every second job (0.05 s).
    readings = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(run, "slowness", lambda: next(readings))
    ticks = iter([0.0, 0.03, 1.0, 1.03, 2.0, 2.03, 3.0, 3.03])
    monkeypatch.setattr(run, "perf_counter", lambda: next(ticks))

    class FakeCli:
        @staticmethod
        def main(argv):
            print(argv[0])
            return 0

    p = run.run_pass(FakeCli, [["a"], ["b"], ["c"], ["d"]], order=[3, 2, 1, 0])
    assert p.outputs == ["a\n", "b\n", "c\n", "d\n"] and p.codes == [0, 0, 0, 0]
    assert p.latencies == pytest.approx([0.03] * 4)
    # jobs 3 and 2 ran first, between readings 1 and 3; jobs 1 and 0 between 3 and 5
    assert p.scaled == pytest.approx([0.03 / 4, 0.03 / 4, 0.03 / 2, 0.03 / 2])
    assert p.mean_slowness == pytest.approx(3.0)
