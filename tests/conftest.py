"""Let the CLI subprocesses in this suite import ``yverma`` from ``src/``.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; the
subprocesses see only the environment, so ``src/`` goes on PYTHONPATH too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])
