"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    """Top-level names of the absolute imports in ``path``, function-level ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    """Distribution names in ``[project] dependencies`` of ``pyproject.toml``,
    as import names (lower case, ``-`` read as ``_``)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed)
    }


def test_every_third_party_import_is_a_declared_dependency():
    imported = set().union(*map(imported_modules, (ROOT / "src" / "scalesense").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"scalesense"}
    assert third_party, "found no third-party import; the walk is broken"
    assert third_party <= declared_dependencies()
