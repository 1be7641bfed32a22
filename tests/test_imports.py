"""Every import in the package modules and the tests is used.

No linter is part of the toolchain, so this stands in for the
unused-import check: a name bound by an import must be read somewhere
else in the same module.  ``__init__`` re-exports names on purpose and
is skipped; ``from __future__`` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "logaffine").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_guard_flags_an_unused_import() -> None:
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        "line 1: os",
        "line 2: gcd",
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_unused_imports() -> None:
    found = {
        str(path.relative_to(ROOT)): unused
        for path in MODULES
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
