"""Every import in a library module is used; ``__init__`` re-exports are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "yverma"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import Optional as Opt, Sequence\n"
        "x: Opt[int] = os.path.sep\n"
    )
    assert unused_imports(source) == ["Fraction (line 3)", "Sequence (line 4)"]
