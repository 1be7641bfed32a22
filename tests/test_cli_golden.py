"""Byte-identical CLI output on every fixture invocation.

``perfbench/cli_expected.json`` maps each invocation (its arguments
joined by spaces, with paths relative to the repository root) to the
exit code and the SHA-256 of stdout and stderr recorded for it.  This
module only reads that file; ``perfbench/record_cli.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
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
