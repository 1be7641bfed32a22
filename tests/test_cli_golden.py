"""Byte-identical CLI output on every fixture invocation.

``perfbench/cli_expected.json`` maps each invocation (its arguments
joined by spaces, with paths relative to the repository root) to the
exit code and the SHA-256 of stdout and stderr recorded for it.  This
module only reads that file; ``perfbench/record_cli.py`` writes it.

The package declares ``requires-python = ">=3.10"``, so the same
recordings are also replayed under each of ``python3.10``,
``python3.12`` and ``python3.13`` found on the PATH, in a stdlib-only
subprocess; an interpreter that is missing or does not start is
skipped.  A pyenv shim starts only a version that ``PYENV_VERSION`` or
``pyenv global`` selects, so a shim that does not start is retried with
``PYENV_VERSION`` set to each matching version installed under
``$(pyenv root)/versions``, newest first.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from logaffine.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((ROOT / "perfbench" / "cli_expected.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("invocation", sorted(EXPECTED))
def test_cli_output_matches_recording(invocation: str, capsys, monkeypatch) -> None:
    monkeypatch.chdir(ROOT)
    code = main(invocation.split(" "))
    captured = capsys.readouterr()
    expected = EXPECTED[invocation]
    assert (code, _sha256(captured.out), _sha256(captured.err)) == (
        expected["exit"],
        expected["sha256"],
        expected["stderr_sha256"],
    )


REPLAY = """
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout

root = sys.argv[1]
sys.path.insert(0, root + "/src")
from logaffine.cli import main

expected = json.load(open(root + "/perfbench/cli_expected.json"))
mismatches = []
for invocation, want in sorted(expected.items()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(invocation.split(" "))
    got = [code] + [hashlib.sha256(t.getvalue().encode()).hexdigest() for t in (out, err)]
    if got != [want["exit"], want["sha256"], want["stderr_sha256"]]:
        mismatches.append(invocation)
print(json.dumps([len(expected), mismatches]))
"""


def _pyenv_versions(version: str) -> list[str]:
    """The pyenv versions installed for ``version`` (``3.12.1`` for
    ``3.12``), newest first; none without pyenv."""
    if shutil.which("pyenv") is None:
        return []
    root = subprocess.run(["pyenv", "root"], capture_output=True, text=True).stdout.strip()
    installed = Path(root, "versions")
    if not root or not installed.is_dir():
        return []
    patches = [
        int(p.name[len(version) + 1 :])
        for p in installed.iterdir()
        if p.name.startswith(f"{version}.") and p.name[len(version) + 1 :].isdigit()
    ]
    return [f"{version}.{patch}" for patch in sorted(patches, reverse=True)]


def _starts(python: str, version: str, env: dict | None) -> bool:
    probe = subprocess.run(
        [python, "-I", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True,
        text=True,
        env=env,
    )
    return probe.returncode == 0 and probe.stdout.strip() == version


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_cli_output_matches_recording_on_other_pythons(version: str) -> None:
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"no python{version} on the PATH")
    # -I: no user site or PYTHON* variables; -B: no bytecode written into src
    for env in [None, *(dict(os.environ, PYENV_VERSION=v) for v in _pyenv_versions(version))]:
        if _starts(python, version, env):
            break
    else:
        pytest.skip(f"python{version} does not start here")
    run = subprocess.run(
        [python, "-I", "-B", "-c", REPLAY, str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [len(EXPECTED), []]
