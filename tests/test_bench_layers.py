"""Every function the benchmark tracer wraps exists in the package.

``bench/tracing.py`` looks each name of its ``LAYERS`` table up with
``getattr`` when ``--trace 1`` installs it, so a deleted or renamed
public function would break traced benchmark runs.  The benchmark's own
tests are not part of this suite; this one is.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"yverma.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"yverma.{layer}"), name, None))
    ]
    assert missing == []
