"""The README's examples run as written.

The ``python`` block is executed as is (its asserts are the check), and
each ``$ verma ...`` line is run as ``python -m yverma ...`` and must print
exactly the lines that follow it, up to the next blank line or fence.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for every ``$ verma`` line of the README."""
    out = []
    lines = README.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ verma "):
            shown = []
            for follow in lines[i + 1 :]:
                if not follow or follow.startswith("```"):
                    break
                shown.append(follow + "\n")
            out.append((line[len("$ verma ") :], "".join(shown)))
    return out


EXAMPLES = _examples()


def test_readme_has_the_blocks_checked_here():
    assert len(re.findall(r"^```python$", README, re.M)) == 1
    assert len(EXAMPLES) == 4


def test_python_block_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("command, stdout", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(command, stdout):
    proc = subprocess.run(
        [sys.executable, "-m", "yverma", *shlex.split(command)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout
