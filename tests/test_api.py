"""Public API: every exported name resolves, and the README table and ``kljn.__all__`` agree."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import kljn

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "kljn"
MODULES = {
    "kljn.noise",
    "kljn.line",
    "kljn.density",
    "kljn.eve",
    "kljn.engine",
    "kljn.protocol",
    "kljn.cli",
}


def library_table() -> dict[str, list[str]]:
    """Module of each row of the README "Library" table -> backticked identifiers in its row.

    Backticked formulas such as ``sqrt(4kTRB)`` are not identifiers and are left out.
    """
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`kljn."):
            names = re.findall(r"`([^`]+)`", cells[1])
            table[cells[0].strip("`")] = [name for name in names if name.isidentifier()]
    return table


def test_every_exported_name_resolves():
    assert [name for name in kljn.__all__ if not hasattr(kljn, name)] == []


def test_the_package_version_is_the_project_version():
    # manifest.json records kljn.__version__; the wheel takes pyproject's
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == kljn.__version__


def test_readme_library_table_names_exist():
    table = library_table()
    assert set(table) == MODULES
    missing = []
    for module_name, names in table.items():
        assert names, f"{module_name} row lists no names"
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []


def test_every_exported_name_is_in_the_readme_library_table():
    listed = {name for names in library_table().values() for name in names}
    assert sorted(set(kljn.__all__) - listed - {"__version__"}) == []


def _names_a_kind(node: ast.AST) -> bool:
    """Whether ``node`` contains ``DistributionKind.<member>``."""
    return any(
        isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "DistributionKind"
        for n in ast.walk(node)
    )


def kind_branches(source: str) -> list[int]:
    """Lines that branch on a named kind: a comparison, a dict key or a match case naming one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            named = any(_names_a_kind(n) for n in [node.left, *node.comparators])
        elif isinstance(node, ast.Dict):
            named = any(key is not None and _names_a_kind(key) for key in node.keys)
        elif isinstance(node, ast.match_case):
            named = _names_a_kind(node.pattern)
            node = node.pattern
        else:
            continue
        if named:
            lines.append(node.lineno)
    return lines


def test_kind_branch_detector_sees_each_form():
    source = """
a = kind is DistributionKind.CAUCHY
b = kind == DistributionKind.UNIFORM
c = kind != DistributionKind.GAUSSIAN
d = {DistributionKind.GAUSSIAN: 1}
match kind:
    case DistributionKind.UNIFORM:
        pass
e = LAWS[DistributionKind.GAUSSIAN]
f = isinstance(kind, DistributionKind)
"""
    assert kind_branches(source) == [2, 3, 4, 5, 7]


def test_only_the_law_table_branches_on_a_kind():
    """A source family's facts live in ``noise.LAWS``; no other module names a kind to branch on."""
    found = {
        path.name: kind_branches(path.read_text())
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "noise.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def add_argument_calls(source: str) -> dict[str, list[int]]:
    """Lines of each ``add_argument`` call, keyed by the top-level definition that holds it.

    A call outside every function or class is keyed ``<module>``.
    """
    calls = {}
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", None))
                if called == "add_argument":
                    calls.setdefault(owner, []).append(node.lineno)
    return calls


def test_flag_detector_sees_each_form():
    source = """
parser.add_argument("--a")
def build(p):
    p.add_argument("--b")
    def inner():
        sub.add_argument("--c")
class Commands:
    def extend(self):
        self.parser.add_argument("--d")
add_argument("--e")
p.add_argument_group("g")
"""
    assert add_argument_calls(source) == {"<module>": [2, 10], "build": [4, 6], "Commands": [9]}


def test_only_the_parser_builder_declares_flags():
    """Every flag comes from the CLI's settings table, so ``cli._build_parser`` alone adds any."""
    found = {
        (path.name, owner)
        for path in sorted(SOURCES.glob("*.py"))
        for owner in add_argument_calls(path.read_text())
    }
    assert found == {("cli.py", "_build_parser")}


def private_imports(source: str) -> list[int]:
    """Lines that import a private name from a module of the package.

    A name is private when it starts with ``_`` and is not a dunder such as ``__version__``.
    """
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "kljn")
        and any(a.name.startswith("_") and not a.name.endswith("__") for a in node.names)
    )


def test_private_import_detector_sees_each_form():
    source = """
from .eve import _mean_square
from .eve import (
    BlockAttack,
    _check_significance,
)
def f():
    from .line import _private
from kljn.noise import _hidden
from . import _module
from .eve import BlockAttack
from . import __version__
from numpy import _private_numpy
"""
    assert private_imports(source) == [2, 3, 8, 9, 10]


def test_no_module_imports_another_modules_private_name():
    """A helper that two modules use has one public home that both import."""
    found = {path.name: private_imports(path.read_text()) for path in sorted(SOURCES.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


PROCESS_MODULES = {"os", "pickle", "threading", "signal"}


def process_imports(source: str) -> list[int]:
    """Lines that import a process-management module (``PROCESS_MODULES``), at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in PROCESS_MODULES for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_process_import_detector_sees_each_form():
    source = """
import os
import math, pickle
from threading import Thread
def kill():
    import signal
import os.path
from .os import thing
import numpy
from collections import abc
"""
    assert process_imports(source) == [2, 3, 4, 6, 7]


def test_only_the_engine_manages_processes():
    """Forks, pipes, threads and signals are the run engine's; every other module only computes."""
    found = {
        path.name: process_imports(path.read_text())
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "engine.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert process_imports((SOURCES / "engine.py").read_text())
