"""Every benchmark report stays byte-identical.

``bench/run.py`` prints ``outputs_sha256``, the sha256 of every report of
a workload joined in job order, and a change that moves it fails the
benchmark.  This guard reproduces that digest in process on the seed-1
job list of each workload (``bench/workloads.generate``, read only; each
job runs as its ``argv()``, which reports what its JobSpec file does) and
compares it with the digest the benchmark printed when the guard was
written.  A change that means to alter a report updates the digest here
in the same change.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import yverma.cli as cli

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

_DIGESTS = {
    "gram-ladder": "621c2083335a0e1092a6b82582ee9852e16ae2f2300709912464934d62b05a42",
    "singular-search": "4f62cd3840203f27cb8cf8d120917f7d528e066e2e9bf85e0ea24bf3c39411b9",
    "rationality": "b6da28fc7ab6a51fe7ce38230cc5a800fbedc8cc6ef15118ed8807707f87b40e",
    "desk-mix": "5131e18f5cbe8ae5106d14cffe76eb03eb48dbad668f36fd082f258dea027c2f",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_workload_has_a_digest(workloads):
    assert set(_DIGESTS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(_DIGESTS))
def test_seed_one_reports_match_the_benchmark_digest(workloads, workload):
    reports, failed = [], []
    for i, job in enumerate(workloads.generate(workload, 1)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv())
        reports.append(out.getvalue())
        if code != 0:
            failed.append((i, job.shape, code))
    assert failed == []
    assert hashlib.sha256("".join(reports).encode()).hexdigest() == _DIGESTS[workload]
