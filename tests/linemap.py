"""Print the lines of ``src/logaffine`` that a pytest run never executes.

Usage, from the repository root::

    python tests/linemap.py [pytest arguments]

The arguments default to ``tests -q -p no:cacheprovider``.  The tracer
is the stdlib ``sys.settrace``, set before pytest imports the package,
so module-level lines count as run; it follows only frames whose code
lies in the package, and the run takes about three times as long as an
untraced one.  A line is executable when the compiled module's code
objects map some instruction to it, less the docstrings.  Lines run
only by subprocesses that the tests start do not count.

The report is one ``module:line: source`` per unreached line, then
their count; the exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logaffine"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code
    maps to, less its docstrings."""
    source = path.read_text()
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    # each code file name as it appears in frames, to its lines run (None:
    # outside the package)
    lines_of: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = ran.get(str(Path(name).resolve()))
        lines = lines_of[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    unreached = 0
    for name, path in files.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
            unreached += 1
    print(f"{unreached} unreached lines in {PACKAGE.name}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
