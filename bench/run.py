"""The yverma benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload gram-ladder --seed 1 --seconds 25 --trace 0

Run from the repository root.  The load is a closed loop with one client:
this process, no threads, ``yverma.cli.main`` called in process on each
generated argv (or ``job FILE`` for a JobSpec file), the next job sent
only when the previous one returned.  A pass runs the whole job list;
passes repeat until ``--seconds`` is used up.

Times are scaled to a fixed machine speed.  Other tenants of a shared
host can halve this process's speed for seconds to minutes at a time, so
a short calibration round runs between groups of jobs, and each job's
time is divided by how many times slower than ``REF_ROUND_S`` the rounds
around it ran.  On an idle machine the factor is about 1.  The info line
keeps the unscaled pass times and the factors.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: median time from a fresh interpreter to the first report
  (``import yverma.cli`` plus one trivial job), over launches spread
  between the passes;
* ``wall_s``: median over passes of the time to run every job once;
* ``latency_p50_s`` / ``latency_p90_s``: quantiles over jobs of each
  job's median latency across passes; the sample count is the number
  of jobs;
* ``success_ratio``: job runs that exited 0, repeated their first report
  byte for byte and passed their oracle, over job runs attempted;
* ``peak_rss_mb``: peak resident memory of this process after the passes.

With ``--trace 1`` half the time runs untraced and half traced, and the
line carries ``<layer>.calls`` and ``<layer>.self_s`` (median over traced
passes) for every layer, the layer counters, and ``tracing_overhead_s``
(traced minus untraced ``wall_s``).  The spans of the last traced pass go
to ``bench/_out/``.

A JSON line before the result records the environment, the code size,
the sample counts and ``outputs_sha256``, the hash of every report in job
order, which must not change between runs of one commit and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from workloads import EXCLUDED, WORKLOADS, Job, generate  # noqa: E402

SETUP_LAUNCHES = 11
# Seconds one calibration round takes on an idle machine: the 2-vCPU
# Xeon (family 6, model 207) KVM guest with Python 3.11.7 on which the
# benchmark was defined.  Timings are reported at this speed.
REF_ROUND_S = 0.0019
CALIBRATION_ROUNDS = 3
CALIBRATE_EVERY_S = 0.05
SETUP_ARGV = ["expand", "--mu", "(u+2)/(u+1)", "--order", "4"]
SETUP_REPORT = (
    b'{"coeffs":["1","1","-1","1","-1"],"exact":false,"mu":"(u+2)/(u+1)",'
    b'"order":4,"schema":"verma/1"}\n'
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def launch_setup() -> float:
    """Scaled wall time of one fresh `python -c` that imports the CLI and runs a trivial job."""
    code = f"import sys; from yverma.cli import main; sys.exit(main({SETUP_ARGV!r}))"
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    before = slowness()
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    elapsed = perf_counter() - start
    after = slowness()
    if proc.returncode != 0 or proc.stdout != SETUP_REPORT:
        raise RuntimeError(f"setup job failed: exit {proc.returncode}, {proc.stderr[-300:]!r}")
    return elapsed / ((before + after) / 2)


def _calibration_round() -> int:
    """Fixed interpreter work of the program's kind: Fraction arithmetic and dict updates."""
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 29 + 1) * (i % 7)
        acc[i % 13] = acc.get(i % 13, 0) + total.numerator % 97
    return len(acc)


def slowness() -> float:
    """How many times slower than REF_ROUND_S the machine runs right now."""
    start = perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        _calibration_round()
    return (perf_counter() - start) / (CALIBRATION_ROUNDS * REF_ROUND_S)


class Pass(NamedTuple):
    """One run of every job.  Lists are indexed by job, not by run order."""

    latencies: list[float]  # as measured, s
    scaled: list[float]  # divided by the machine's slowness around the job, s
    outputs: list[str]
    codes: list
    mean_slowness: float


def run_pass(cli, argvs: list[list[str]], order: list[int], tracer=None) -> Pass:
    """Run every job once in the given order, calibrating between groups of jobs.

    A calibration runs before the first job and after each group of jobs
    that took CALIBRATE_EVERY_S; each job is scaled by the mean slowness
    of the calibrations on either side of its group.
    """
    n = len(argvs)
    latencies, scaled, outputs, codes = [0.0] * n, [0.0] * n, [""] * n, [None] * n
    before, group, group_time, factors = slowness(), [], 0.0, []
    for pos, i in enumerate(order):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_job(i)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argvs[i])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 -- a crashing job is a failed job
            code = f"raised {exc!r}"
        latencies[i] = perf_counter() - start
        if tracer is not None:
            tracer.end_job()
        outputs[i], codes[i] = out.getvalue(), code
        group.append(i)
        group_time += latencies[i]
        if group_time >= CALIBRATE_EVERY_S or pos == n - 1:
            after = slowness()
            factor = (before + after) / 2
            for j in group:
                scaled[j] = latencies[j] / factor
            factors.extend([factor] * len(group))
            before, group, group_time = after, [], 0.0
    return Pass(latencies, scaled, outputs, codes, statistics.fmean(factors))


def run_passes(cli, argvs, seconds: float, seed: int, tracer=None, between=None) -> list[Pass]:
    """Passes until the next one would overrun ``seconds``; always at least one.

    Each pass runs the jobs in a fresh seeded order, so a slow spell of the
    machine falls on different jobs in different passes.  ``between`` runs
    after each pass, inside the time budget.
    """
    passes, start = [], perf_counter()
    while True:
        order = list(range(len(argvs)))
        random.Random(f"order:{seed}:{len(passes)}").shuffle(order)
        passes.append(run_pass(cli, argvs, order, tracer))
        if between is not None:
            between()
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def job_latencies(passes: list[Pass]) -> list[float]:
    """Each job's median scaled latency over the passes."""
    return [statistics.median(lat) for lat in zip(*(p.scaled for p in passes))]


def pass_wall(passes: list[Pass]) -> float:
    """Median over passes of the scaled time to run every job once."""
    return statistics.median(sum(p.scaled) for p in passes)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, by ``statistics.quantiles`` (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def prepare_argvs(jobs: list[Job], workdir: Path) -> list[list[str]]:
    """Argv per job; JobSpec jobs get their file written here, before any timing."""
    argvs = []
    for i, job in enumerate(jobs):
        if job.via_file:
            path = workdir / f"job-{i:03d}.json"
            path.write_text(json.dumps(job.jobspec(), sort_keys=True), encoding="utf-8")
            argvs.append(["job", str(path)])
        else:
            argvs.append(job.argv())
    return argvs


def judge(jobs: list[Job], passes: list[Pass], check) -> tuple[int, list[str]]:
    """Failed job runs over all passes, plus the first few reasons.

    A run fails on a nonzero exit, a crash, a report that differs from the
    job's first report, or a first report that fails its oracle.
    """
    first = passes[0].outputs
    reasons, failed = [], 0
    for i, job in enumerate(jobs):
        bad = check(job, first[i])
        for p in passes:
            why = None
            if p.codes[i] != 0:
                why = f"exit {p.codes[i]}"
            elif p.outputs[i] != first[i]:
                why = "report differs from the first pass"
            elif bad is not None:
                why = bad
            if why is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"job {i} ({job.shape}): {why}")
    return failed, reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "yverma" / "cli.py").is_file():
        sys.stderr.write(f"bench: no yverma sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import yverma.cli as cli
    import oracles

    jobs = generate(args.workload, args.seed)
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples: list[float] = []
    traced: list[Pass] = []
    try:
        argvs = prepare_argvs(jobs, workdir)
        if args.trace:
            passes = run_passes(cli, argvs, args.seconds / 2, args.seed)
            tracer = tracing.Tracer()
            per_pass, last = [], []

            def aggregate() -> None:  # keeps only the last pass's spans in memory
                spans, counts = tracer.take()
                per_pass.append(tracing.layer_metrics(spans))
                last[:] = [spans, counts]

            tracer.install()
            try:
                traced = run_passes(cli, argvs, args.seconds / 2, args.seed, tracer, between=aggregate)
            finally:
                tracer.uninstall()
        else:
            launch_setup()  # warm-up: fills the OS file cache, not a sample
            start = perf_counter()

            def spread_launches(share: float) -> None:  # launches keep pace with the run
                while len(setup_samples) < SETUP_LAUNCHES * share:
                    setup_samples.append(launch_setup())

            passes = run_passes(cli, argvs, args.seconds, args.seed, between=lambda: spread_launches(
                min(1.0, (perf_counter() - start) / args.seconds)))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spread_launches(1.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed, reasons = judge(jobs, passes + traced, oracles.check)
    attempted = len(jobs) * (len(passes) + len(traced))
    latencies = job_latencies(passes)

    if args.trace:
        metrics = {}
        for layer in tracing.LAYERS:
            metrics[f"{layer}.calls"] = {"value": per_pass[-1][layer]["calls"], "unit": "count"}
            self_s = statistics.median(
                m[layer]["self_s"] / p.mean_slowness for m, p in zip(per_pass, traced))
            metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        spans, counts = last
        for name, value in tracing.counter_metrics(counts).items():
            metrics[name] = {"value": value, "unit": tracing.COUNTERS[name]}
        metrics["tracing_overhead_s"] = {"value": pass_wall(traced) - pass_wall(passes), "unit": "s"}
        outdir = BENCH / "_out"
        outdir.mkdir(exist_ok=True)
        tracing.write_spans(spans, outdir / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": pass_wall(passes),
            "latency_p50_s": quantile(latencies, 50),
            "latency_p90_s": quantile(latencies, 90),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "passes": len(passes),
        "traced_passes": len(traced),
        "latency_samples": len(latencies),
        "pass_walls_s": [sum(p.latencies) for p in passes + traced],
        "pass_slowness": [p.mean_slowness for p in passes + traced],
        "setup_samples_s": setup_samples,
        "failed_ratio": failed / attempted,
        "failures": reasons,
        "outputs_sha256": hashlib.sha256("".join(passes[0].outputs).encode()).hexdigest(),
        "excluded_shapes": EXCLUDED,
        "env": {
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "src_lines": src_lines(),
        },
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
