"""Record the CLI outputs that the cli-fixtures workload expects.

    python3 perfbench/record_cli.py

Runs every invocation of the workload once, in-process, and writes
each one's exit code, stdout length, stdout SHA-256 and stderr SHA-256
to ``cli_expected.json``.  The file in the repository was recorded
from the program as it stood when the benchmark was added, so any
later change of output bytes, error text or exit code counts as a
failed job; re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    os.chdir(ROOT)
    expected = {}
    for args in workloads.cli_invocations(ROOT / "fixtures"):
        expected[" ".join(args)] = workloads.cli_digest(*workloads.run_cli(args))
    workloads.EXPECTED_CLI.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    codes = {}
    for digest in expected.values():
        codes[digest["exit"]] = codes.get(digest["exit"], 0) + 1
    print(f"recorded {len(expected)} invocations; exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
