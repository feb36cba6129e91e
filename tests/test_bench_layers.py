"""The package keeps what the benchmark tracer hooks into.

``bench/tracing.py`` looks each name of its ``LAYERS`` table up with
``getattr`` when ``--trace 1`` installs it, rebinds those names in every
``yverma`` namespace, and wraps ``ActionCache.__init__`` to count cache
entries.  A deleted or renamed public function, or an action path that
no longer builds an ``ActionCache``, would break traced benchmark runs.
``bench/oracles.py`` imports library functions by name to check each
report by a second route; a deleted one would fail every benchmark job.
``Tracer.install`` reads every layer module from ``sys.modules``, so a
fresh ``import yverma.cli`` must load them all; it must also stay free of
``dataclasses`` and ``inspect``, whose import dominated a launch.  Before
any job, ``bench/run.py`` launches a fresh interpreter on ``SETUP_ARGV``
and fails the whole run unless it prints ``SETUP_REPORT`` byte for byte.
The benchmark's own tests are not part of this suite; these are.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import yverma.character as character
import yverma.cli as cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"

_JOBS = (
    ["gram", "--mu", "(u+3)(u+5)/((u+1)(u+2))", "--max-level", "3"],
    # a half-integral weight runs the Gram route on a cache with hbar = 2
    ["gram", "--mu", "(u+7/2)(u+5)/((u+1/2)(u+2))", "--max-level", "3"],
    ["singular", "--mu", "(u+2)/(u+1)", "--level", "1", "--degree", "2"],
    # tribonacci from nu^(2): a witness whose start is found by a dot product
    ["detect", "--coeffs", "7,1,1,1,3,5,9,17,31,57", "--max-order", "4"],
    # the 1/k! tail of exp(1/u) has no recurrence within the budget
    ["verdict", "--mu", "series:1,1/2,1/6,1/24,1/120,1/720,1/5040,1/40320",
     "--budget", "3"],
    # h on a truncated weight runs every product of the Gauss layer
    ["act", "--gen", "h", "--r", "2", "--mono", "1,2",
     "--mu", "series:1,1/2,1/3,1/4,1/5,1/6,1/7,1/8"],
    ["act", "--gen", "f", "--r", "2", "--mono", "1", "--mu", "(u+7/2)(u+3)/((u+1/2)(u+2))"],
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_constant(name: str):
    """The literal value bound to ``name`` at the top level of ``bench/run.py``."""
    tree = ast.parse((_BENCH / "run.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_every_traced_name_resolves():
    layers = _tracing().LAYERS
    assert layers
    missing = [
        f"yverma.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"yverma.{layer}"), name, None))
    ]
    assert missing == []


def test_every_name_the_oracles_import_resolves():
    tree = ast.parse((_BENCH / "oracles.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yverma"
        for alias in node.names
    ]
    assert len(imported) >= 5
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_traced_jobs_report_unchanged_and_count_cache_entries():
    tracing = _tracing()
    plain = [_run_cli(argv) for argv in _JOBS]
    original = character.rational_roots
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for job, argv in enumerate(_JOBS):
            tracer.begin_job(job)
            traced.append(_run_cli(argv))
            tracer.end_job()
    finally:
        tracer.uninstall()
    assert character.rational_roots is original
    assert traced == plain
    spans, counts = tracer.take()
    assert tracing.counter_metrics(counts)["verma.cache_entries"] > 0
    assert tracing.layer_metrics(spans)["verma"]["calls"] > 0
    assert tracing.counter_metrics(counts)["recurrence.found_ratio"] == 0.5


def test_fresh_cli_import_loads_every_layer_and_no_dataclasses():
    code = "import sys, yverma.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect"} & loaded == set()
    assert [layer for layer in _tracing().LAYERS if f"yverma.{layer}" not in loaded] == []


def test_fresh_setup_launch_prints_the_setup_report():
    argv = _run_constant("SETUP_ARGV")
    proc = subprocess.run([sys.executable, "-m", "yverma", *argv], capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, _run_constant("SETUP_REPORT"))
