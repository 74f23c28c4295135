"""Every third-party package the tests import is declared in pyproject.toml.

CI installs the test legs from ``pyproject.toml`` (``pip install -e
".[test]"``), so an import the project does not declare fails there at
collection while passing on any machine that happens to have the
package.  The check reads imports with ``ast`` (nested ones too) and the
declarations with a small reader of the two array forms the file uses,
so it runs the same on Python 3.10, which has no ``tomllib``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set

REPO = Path(__file__).resolve().parents[1]
#: top-level packages that live in this repository
FIRST_PARTY = {"repro", "tests", "tools", "benchmarks", "examples"}

_TABLE_OR_ARRAY = re.compile(
    r"^\[(?P<table>[^\]]+)\]\s*$|^(?P<key>[\w-]+)\s*=\s*\[(?P<items>[^\]]*)\]",
    re.M,
)


def _normalise(name: str) -> str:
    return name.lower().replace("-", "_")


def declared_distributions(pyproject: str) -> Set[str]:
    """Distribution names in ``[project] dependencies`` and every
    ``[project.optional-dependencies]`` extra, lower-cased with ``_``."""
    table = None
    names: Set[str] = set()
    for match in _TABLE_OR_ARRAY.finditer(pyproject):
        if match["table"] is not None:
            table = match["table"].strip()
        elif (table, match["key"]) == ("project", "dependencies") or (
            table == "project.optional-dependencies"
        ):
            names.update(
                _normalise(req)
                for req in re.findall(r'"\s*([A-Za-z0-9_.-]+)', match["items"])
            )
    return names


def third_party_imports(files: Iterable[Path]) -> Dict[str, List[str]]:
    """Top-level package → the files importing it, for every absolute
    import that is neither stdlib, first-party nor one of the scanned
    modules (a script may put its own tree on ``sys.path``)."""
    files = list(files)
    local = {path.stem for path in files}
    found: Dict[str, List[str]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                if (
                    top in sys.stdlib_module_names
                    or top in FIRST_PARTY
                    or top in local
                ):
                    continue
                found.setdefault(top, []).append(str(path))
    return found


def undeclared(files: Iterable[Path], pyproject: str) -> Dict[str, List[str]]:
    declared = declared_distributions(pyproject)
    return {
        top: where
        for top, where in third_party_imports(files).items()
        if _normalise(top) not in declared
    }


def test_every_test_import_is_declared():
    files = sorted((REPO / "tests").rglob("*.py"))
    assert files
    missing = undeclared(files, (REPO / "pyproject.toml").read_text())
    assert missing == {}, f"imported under tests/ but not in pyproject.toml: {missing}"


def test_reader_sees_base_and_extra_dependencies():
    declared = declared_distributions((REPO / "pyproject.toml").read_text())
    assert {"numpy", "scipy", "pytest", "hypothesis", "networkx"} <= declared


def test_planted_undeclared_import_is_reported(tmp_path):
    pyproject = (REPO / "pyproject.toml").read_text()
    without_networkx = pyproject.replace('"networkx"', '"unrelated-package"')
    assert "networkx" not in declared_distributions(without_networkx)
    helper = tmp_path / "helper.py"
    helper.write_text("")
    planted = tmp_path / "test_planted.py"
    planted.write_text(
        "import os\nimport helper\nimport numpy as np\n\n"
        "def f():\n    import networkx as nx\n    return nx\n"
    )
    files = [helper, planted]
    assert undeclared(files, without_networkx) == {"networkx": [str(planted)]}
    assert undeclared(files, pyproject) == {}
