"""Public API: every exported name resolves, and the README table and ``kljn.__all__`` agree."""

import importlib
import re
from pathlib import Path

import kljn

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"kljn.noise", "kljn.line", "kljn.density", "kljn.eve", "kljn.protocol", "kljn.cli"}


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
