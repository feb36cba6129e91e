"""Every import in a library module is used; ``__init__`` re-exports are exempt.

Every module-level private name (``_X = ...``, ``def _f``, ``class _C``) is
read somewhere in the library, by its own module or by one that imports it.

Every public function and method has a reader in the library outside
``__init__``, unless the benchmark reads it (a ``LAYERS`` name of
``bench/tracing.py``, or a name ``bench/oracles.py`` reads) or it overrides
a method of a base class.  A function that only its own tests call is
dead weight.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "yverma"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
_BENCH = SRC.parent.parent / "bench"


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module of ``sources`` reads.

    ``sources`` maps module names to their text.  A name of module ``m`` is
    read where ``m`` loads it, where another module imports it from ``m``,
    or where some module reads the attribute ``m._name``.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names if name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source_module = node.module.rpartition(".")[2]
                read.update((source_module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    return [
        f"{module}: {name} (line {line})"
        for module, name, line in defined
        if (module, name) not in read and not name.startswith("__")
    ]


def test_library_has_no_unread_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_guard_sees_unread_and_read_private_names():
    sources = {
        "a": (
            "from fractions import Fraction\n"
            "_ONE = Fraction(1)\n"
            "_TWO: int = 2\n"
            "def _helper():\n"
            "    return _TWO\n"
            "def _unused():\n"
            "    pass\n"
            "class _Spec:\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        # b reads its own _ONE, which says nothing about a's
        "b": "from .a import _helper\nfrom . import a\n_ONE = 1\nx = _helper() + a._Spec + _ONE\n",
    }
    assert unread_private_names(sources) == ["a: _ONE (line 2)", "a: _unused (line 6)"]


def names_read(source: str) -> set[str]:
    """Names the module loads, reads as attributes, or imports from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(sources: dict[str, str], readers: set[str]) -> list[tuple[str, str, int]]:
    """(module, qualified name, line) of each public function or method nothing reads.

    ``sources`` maps module names to their text.  Module-level functions and
    the methods of module-level classes count; a name is read where a module
    of ``sources`` reads it (see ``names_read``) or where ``readers`` holds it.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    read = set(readers).union(*map(names_read, sources.values()))
    unread = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, functions):
                members = [("", node)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (node.name + ".", item) for item in node.body if isinstance(item, functions)
                ]
            else:
                members = []
            unread += [
                (module, prefix + item.name, item.lineno)
                for prefix, item in members
                if not item.name.startswith("_") and item.name not in read
            ]
    return unread


def _overrides(module: str, qualname: str) -> bool:
    """Whether ``qualname`` is a method that a base class of its class also defines."""
    cls_name, _, name = qualname.rpartition(".")
    if not cls_name:
        return False
    cls = getattr(importlib.import_module(f"yverma.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _bench_readers() -> set[str]:
    """The ``LAYERS`` names of ``bench/tracing.py`` and the names ``bench/oracles.py`` reads."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = {name for names in tracing.LAYERS.values() for name in names}
    return layers | names_read((_BENCH / "oracles.py").read_text(encoding="utf-8"))


def test_every_public_name_has_a_library_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    unread = [
        f"{module}: {qualname} (line {line})"
        for module, qualname, line in unread_public_names(sources, _bench_readers())
        if not _overrides(module, qualname)
    ]
    assert unread == []


def test_guard_sees_unread_and_read_public_names():
    sources = {
        "a": (
            "def helper():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def only_tested():\n"
            "    pass\n"
            "class Vec:\n"
            "    def __add__(self, other):\n"
            "        return self.norm() + other.scaled\n"
            "    def norm(self):\n"
            "        pass\n"
            "    def zero(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "    @property\n"
            "    def scaled(self):\n"
            "        pass\n"
        ),
        "b": "from .a import helper\nx = helper\n",
    }
    assert unread_public_names(sources, {"traced"}) == [
        ("a", "only_tested", 5), ("a", "Vec.zero", 12),
    ]
    assert _overrides("cli", "_Parser.error")
    assert not _overrides("verma", "ModuleVector.basis")
    assert not _overrides("rootsys", "positive_roots")
