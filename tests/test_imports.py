"""Every import in the package modules and the tests is used, and the
package imports a module only when one of its names is first read.

No linter is part of the toolchain, so this stands in for the
unused-import check: a name bound by an import must be read somewhere
else in the same module.  ``from __future__`` imports are directives,
not names.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logaffine

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "logaffine").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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


def loaded_after(code: str) -> list[str]:
    """The ``logaffine`` modules a fresh interpreter holds after
    running ``code`` from the repository root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('logaffine'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_module() -> None:
    # listing the package's names reads none of them
    code = "import logaffine\nassert set(logaffine.__all__) <= set(dir(logaffine))"
    assert loaded_after(code) == ["logaffine"]


def test_welding_a_file_loads_no_polytope_bundle_or_render_layer() -> None:
    loaded = loaded_after(
        "from logaffine.fileio import parse_welding_file\n"
        "from logaffine.welding import build_welded_space\n"
        "build_welded_space(parse_welding_file('fixtures/torus.weld').spec)"
    )
    unused = {"logaffine.polytopes", "logaffine.classification", "logaffine.render"}
    assert "logaffine.welding" in loaded and not unused & set(loaded)


def test_the_package_lists_its_names_and_has_no_others() -> None:
    assert set(logaffine.__all__) <= set(dir(logaffine))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        logaffine.no_such_name
