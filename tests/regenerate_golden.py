"""Rewrite the CLI snapshots in tests/golden/ from the current code.

Each snapshot is the exit code and the ``--json`` document of one command on
one sample instance: ``validate``, ``report``, and ``build --null --quotient
--seminorm`` with every representation the instance names.  Run from the
repository root after a change that is meant to alter CLI output:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().with_name("golden")


def commands() -> list[tuple[str, list[str]]]:
    """(snapshot name, CLI arguments) for every sample and command."""
    out = []
    for path in sorted(INSTANCES.glob("*.json")):
        reps = [r["name"] for r in json.loads(path.read_text()).get("representations", [])]
        out.append((f"{path.stem}.validate", ["--json", "validate", str(path)]))
        out.append((f"{path.stem}.report", ["--json", "report", str(path)]))
        out.append(
            (
                f"{path.stem}.build",
                ["--json", "build", str(path), "--null", "--quotient", "--seminorm", *reps],
            )
        )
    return out


def snapshot(argv: list[str]) -> dict:
    from semicross.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "output": json.loads(out.getvalue())}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in commands():
        text = json.dumps(snapshot(argv), indent=1, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {name}.json")
