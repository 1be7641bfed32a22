"""Every function and class in the package has a caller.

A top-level function or class without a leading underscore in a
package module must either be exported by ``logaffine.__all__`` or be
read by other code of the package (any top-level statement but its own
definition); otherwise nothing in the pipeline calls it and only its
own tests keep it alive.  A private one (leading underscore) must be
read by other code of the package, or it is a leftover of a rewrite.
So must every method or property of a top-level class but the
dunders, whether or not the class is exported.  Every field of a
private top-level class, an annotated name or a ``__slots__`` entry of
its body, must be read as an attribute by package code, or the class
keeps state that nothing uses.
Every exported error class is constructed by package code, or is the
base of another class: one that nothing raises leaves ``__all__``.
Every dataclass is frozen: the match memo and the cached properties
key on object identity, which is sound only for values that never
change.
``__init__`` holds only the table of exported names and the hooks that
read it, so it is not scanned and does not count as a reader: it binds
no public name itself, its table lists each name once, under the module
whose value the package returns for it, and ``__all__`` lists exactly
the table's names.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Callable

import logaffine

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logaffine"


def bound_public_names(source: str) -> list[str]:
    """The public names a module's top-level imports from the package
    and assignments bind, in binding order (``__future__`` binds none)."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def names_read(tree: ast.AST) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_definitions(sources: dict[str, str], flagged: Callable[[str], bool]) -> list[str]:
    """``module.name`` for each top-level def whose name ``flagged``
    accepts and that no other code reads."""
    statements = [
        (module, node)
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    reads = [names_read(node) for _, node in statements]
    found = []
    for k, (module, node) in enumerate(statements):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and flagged(node.name)
            and not any(node.name in read for j, read in enumerate(reads) if j != k)
        ):
            found.append(f"{module}.{node.name}")
    return found


def uncalled_public(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module.name`` for each public top-level def no other code reads."""
    return unread_definitions(
        sources, lambda name: not name.startswith("_") and name not in exported
    )


def unread_private(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level def no other code reads."""
    return unread_definitions(sources, lambda name: name.startswith("_"))


def unread_members(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` for each non-dunder method or property of a
    top-level class that no other code reads (its class's other members
    count)."""
    units: list[tuple[str | None, ast.AST]] = []  # (owning class, statement)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                units += [(f"{module}.{node.name}", member) for member in node.body]
            else:
                units.append((None, node))
    reads = [names_read(node) for _, node in units]
    found = []
    for k, (owner, node) in enumerate(units):
        if (
            owner is not None
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(node.name in read for j, read in enumerate(reads) if j != k)
        ):
            found.append(f"{owner}.{node.name}")
    return found


def class_fields(node: ast.ClassDef) -> list[str]:
    """The annotated names and ``__slots__`` entries of a class body."""
    fields: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(stmt.target.id)
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            fields += [
                e.value
                for e in ast.walk(stmt.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
    return fields


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` for each field of a private top-level class
    that no package code reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{node.name}.{field}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
        for field in class_fields(node)
        if field not in loaded
    ]


def constructed_or_derived(sources: dict[str, str]) -> set[str]:
    """The names the package's code calls, as it does to construct an
    error it raises, or derives a class from."""
    found: set[str] = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                found.add(node.func.id)
            elif isinstance(node, ast.ClassDef):
                found.update(b.id for b in node.bases if isinstance(b, ast.Name))
    return found


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def unfrozen_dataclasses(sources: dict[str, str]) -> list[str]:
    """``module.Class`` for each dataclass, nested or not, that is not
    declared ``frozen=True``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in filter(is_dataclass_decorator, node.decorator_list):
                keywords = decorator.keywords if isinstance(decorator, ast.Call) else []
                frozen = any(
                    k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in keywords
                )
                if not frozen:
                    found.append(f"{module}.{node.name}")
    return found


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_guard_flags_an_uncalled_public_helper() -> None:
    sources = {
        "a": "def used(): pass\ndef exported(): pass\ndef orphan(): pass\n"
        "def _private(): pass\nclass Orphan: pass\n",
        "b": "from .a import used\n",
    }
    assert uncalled_public(sources, {"exported"}) == ["a.orphan", "a.Orphan"]
    # a caller in the same module counts, a recursive call does not
    assert uncalled_public({"a": "def f(): pass\nf()\n"}, set()) == []
    assert uncalled_public({"a": "def f(n): return f(n - 1)\n"}, set()) == ["a.f"]


def test_guard_flags_an_unread_private_helper() -> None:
    sources = {
        "a": "def _used(): pass\ndef _orphan(): pass\nclass _Gone: pass\n"
        "def public(): return _used()\n",
        "b": "from .a import public\n",
    }
    assert unread_private(sources) == ["a._orphan", "a._Gone"]
    # a reader in another module counts, a recursive call does not
    assert unread_private({"a": "def _f(): pass\n", "b": "from .a import _f\n"}) == []
    assert unread_private({"a": "def _f(n): return _f(n - 1)\n"}) == ["a._f"]


def test_guard_flags_an_unread_method() -> None:
    sources = {
        "a": "class A:\n"
        "    def used(self): pass\n"
        "    def orphan(self): pass\n"
        "    @property\n"
        "    def shown(self): return self.used()\n"
        "    def __repr__(self): return 'A'\n"
        "def f(): pass\n",
        "b": "from .a import A\nA().shown\n",
    }
    # a reader in the same class counts; a dunder or a function is not a member
    assert unread_members(sources) == ["a.A.orphan"]
    # a recursive call does not count
    assert unread_members({"a": "class A:\n    def f(self): return self.f()\n"}) == ["a.A.f"]


def test_guard_flags_an_unread_field() -> None:
    sources = {
        "a": "class _R:\n"
        "    lower: int\n"
        "    kept: list\n"
        "class _S:\n"
        "    __slots__ = ('coefs', 'spare')\n"
        "    def __init__(self):\n"
        "        self.coefs = self.spare = ()\n"
        "class Public:\n"
        "    unread: int\n",
        "b": "def f(r, s): return r.lower, s.coefs\n",
    }
    # a write is no read, and a public class's fields are not scanned
    assert unread_fields(sources) == ["a._R.kept", "a._S.spare"]


def test_guard_flags_an_unfrozen_dataclass() -> None:
    sources = {
        "a": "from dataclasses import dataclass\n"
        "@dataclass\nclass A: pass\n"
        "@dataclass(frozen=True)\nclass B: pass\n"
        "@dataclass(order=True)\nclass C: pass\n"
        "class D: pass\n",
        "b": "import dataclasses\n"
        "def f():\n"
        "    @dataclasses.dataclass(frozen=False)\n"
        "    class E: pass\n"
        "@dataclasses.dataclass(frozen=True)\nclass F: pass\n",
    }
    # a plain class is no dataclass; a nested one is scanned
    assert unfrozen_dataclasses(sources) == ["a.A", "a.C", "b.E"]


def test_guard_finds_constructed_and_derived_names() -> None:
    sources = {
        "a": "class Base(Exception): pass\nclass Raised(Base): pass\nclass Idle(Base): pass\n",
        "b": "def f(): raise Raised('x')\ndef g(): return Made\n",
    }
    # a name only read, not called, is neither
    assert constructed_or_derived(sources) == {"Exception", "Base", "Raised"}


def test_guard_compares_bound_names_with_all() -> None:
    source = (
        "from __future__ import annotations\n"
        "from .a import f, g as h\n"
        "from .b import _private\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "__all__ = ['f', 'h']\n"
    )
    assert bound_public_names(source) == ["f", "h", "LIMIT"]


def test_all_lists_exactly_the_public_names_init_binds() -> None:
    assert bound_public_names((PACKAGE / "__init__.py").read_text()) == []
    listed = [name for names in logaffine._EXPORTS.values() for name in names]
    assert len(set(listed)) == len(listed)
    for module, names in logaffine._EXPORTS.items():
        owner = importlib.import_module(f"logaffine.{module}")
        for name in names:
            assert getattr(logaffine, name) is getattr(owner, name)
    assert sorted(logaffine.__all__) == sorted(listed)


def test_no_uncalled_public_helpers() -> None:
    assert uncalled_public(package_sources(), set(logaffine.__all__)) == []


def test_no_unread_private_helpers() -> None:
    assert unread_private(package_sources()) == []


def test_no_unread_methods() -> None:
    assert unread_members(package_sources()) == []


def test_no_unread_fields() -> None:
    assert unread_fields(package_sources()) == []


def test_every_dataclass_is_frozen() -> None:
    assert unfrozen_dataclasses(package_sources()) == []


def test_every_exported_error_is_raised_or_a_base() -> None:
    """An exported error class that no package code constructs, or
    derives another class from, is raised by nothing: it leaves
    ``__all__``, with a note under "Removed" in the README."""
    used = constructed_or_derived(package_sources())
    assert [name for name in logaffine._EXPORTS["errors"] if name not in used] == []
