"""Write cli_expected.json: the cli-samples outputs of the current code.

    python3 perfbench/record_cli_expected.py

Run it only when a change to the CLI's answers is intended and checked; the
benchmark compares every later run against this record.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

run.pin_environment()

import cli_samples  # noqa: E402  (needs the pinned environment)


def main() -> None:
    record = {}
    for name, tail in cli_samples.commands(run.ROOT):
        proc = subprocess.run(
            [sys.executable, "-m", "semicross.cli", "--json", "--seed", "0", *tail],
            capture_output=True, text=True, cwd=run.ROOT, check=False,
        )
        record[name] = cli_samples.summarize(proc.returncode, proc.stdout)
    lines = [f" {json.dumps(k)}: {json.dumps(record[k], sort_keys=True)}" for k in sorted(record)]
    cli_samples.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
