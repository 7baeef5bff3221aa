"""cli-samples: the command line on the sample instances, one subprocess per
call, so interpreter start and ``import semicross`` are paid on every op.

Outputs are compared field by field with ``cli_expected.json``: exit code,
every ``dim_*`` build field, each report's pass and total counts, and the
scalar an ``eval`` prints.  ``record_cli_expected.py`` writes that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from ops import Op, expect

INSTANCES = ("flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2")
EVALS = (("semi", "qnorm(a)"), ("flip", "norm1(conv(a, b))"))
# quotient_ell1_norm models |z| by a 64-facet polygon
LP_REL_ERROR = 1.0 - math.cos(math.pi / 64)
EXACT_REL_ERROR = 1e-9
EXPECTED = Path(__file__).with_name("cli_expected.json")


def commands(root: Path) -> list[tuple[str, list[str]]]:
    """(op name, CLI arguments after the global options), in a fixed order."""
    out = []
    for name in INSTANCES:
        path = str(root / "instances" / f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            reps = [r["name"] for r in json.load(fh).get("representations", [])]
        out.append((f"validate {name}", ["validate", path]))
        out.append((f"report {name}", ["report", path]))
        out.append(
            (f"build {name}", ["build", path, "--null", "--quotient", "--seminorm", *reps])
        )
    for name, expr in EVALS:
        path = str(root / "instances" / f"{name}.json")
        out.append((f"eval {name} {expr}", ["eval", path, expr]))
    return out


def summarize(exit_code: int, stdout: str) -> dict:
    """The fields of a ``--json`` result that the oracle compares."""
    doc = json.loads(stdout)
    build = doc.get("build", {})
    reports = list(doc.get("reports", []))
    if "group_case" in build:
        reports.append(build["group_case"])
    out = {
        "exit": exit_code,
        "dims": {k: v for k, v in sorted(build.items()) if k.startswith("dim_")},
        "reports": [
            [r["title"], {g: [c["passed"], c["total"]] for g, c in r["groups"].items()}]
            for r in reports
        ],
    }
    if "scalar" in doc.get("value", {}):
        out["scalar"] = doc["value"]["scalar"]
    return out


def matches(got: dict, want: dict, op_name: str) -> None:
    """Raise OracleMismatch unless ``got`` agrees with the recorded answer."""
    expect(got["exit"] == want["exit"], f"exit {got['exit']}, expected {want['exit']}")
    expect(got["dims"] == want["dims"], f"dims {got['dims']}, expected {want['dims']}")
    expect(got["reports"] == want["reports"], "report counts differ from the record")
    expect(("scalar" in got) == ("scalar" in want), "scalar presence differs")
    if "scalar" in want:
        rel = LP_REL_ERROR if "qnorm" in op_name else EXACT_REL_ERROR
        a, b = float(got["scalar"]), float(want["scalar"])
        expect(abs(a - b) <= rel * max(abs(b), 1.0), f"scalar {a}, expected {b}")


def build(root: Path, seed: int, traced: bool = False) -> list[Op]:
    """The CLI calls in an order shuffled by ``seed``, each with ``--seed``.

    The traced variant makes the same calls in the same order in-process,
    through ``cli.main``, so that spans can split each one.  Each of its ops
    also times ``python -c "import semicross"`` in a subprocess: the start-up
    share of the subprocess op it stands for.
    """
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    cmds = commands(root)
    random.Random(seed).shuffle(cmds)
    ops = []
    for name, tail in cmds:
        argv = ["--json", "--seed", str(seed), *tail]
        run = _in_process(root, argv, tail[1]) if traced else _subprocess(root, argv)

        def check(out, want=expected[name], name=name):
            matches(out, want, name)

        ops.append(Op(name, run, check))
    return ops


def _subprocess(root: Path, argv: list[str]):
    def run(tracer):
        proc = subprocess.run(
            [sys.executable, "-m", "semicross.cli", *argv],
            capture_output=True,
            text=True,
            cwd=root,
            check=False,
        )
        return summarize(proc.returncode, proc.stdout)

    return run


def _in_process(root: Path, argv: list[str], path: str):
    from semicross import cli, io_json

    def run(tracer):
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import semicross"], cwd=root, check=True)
        with tracer.span("io_json.load_instance"):
            io_json.load_instance(path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span("cli.main"):
            code = cli.main(argv)
        return summarize(code, buf.getvalue())

    return run
