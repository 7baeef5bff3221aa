"""Benchmark of semicross: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports semicross from ``src/``.  The
benchmarked workloads are ``cli-samples`` and ``in-process``; the latter runs
the op lists of ``section-induced``, ``section-matrix`` and
``construct-large``, which can also be run alone.  Each workload is a fixed
op list that one client runs round robin in a closed loop: an op starts when
the previous one has finished.  A run makes at least one whole pass over the
list and goes on until the next op would end after ``--seconds``.  Every op
is timed from outside the program and its output is checked against an
oracle; an op fails if it raises or its output is wrong.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median of several fresh processes, from process start to the point the
first op would start), ``wall_s`` (the time of one pass, as the sum over
ops of each op's median time), ``op_p50_s`` (median op time, each op weighted alike),
``peak_rss_mb`` and, in the text, ``fail_ratio``.  With ``--trace 1`` it
runs whole passes in which every op runs untraced and traced back to back;
the traced runs record a span around each call the benchmark makes into a
semicross layer, and the run reports each span's self time and call count
per pass, plus the tracing overhead.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

BLAS and OpenMP are pinned to one thread for this process and its children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from importlib import import_module, metadata
from pathlib import Path

from spans import NO_TRACE, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.5
SETUP_MAX_REPEATS = 30
PROBE_READY = "setup-ready"

# Each workload is the concatenated op lists of its builders.  BENCHMARKED
# are the workloads that BENCHMARK.json lists and ``--workload all`` runs;
# ``in-process`` holds the op lists of the other three, which stay runnable on
# their own so that a change can be traced to one of them.
WORKLOADS = {
    "cli-samples": (("cli_samples", "build"),),
    "in-process": (
        ("sections", "build_induced"),
        ("sections", "build_matrix"),
        ("construct", "build"),
    ),
    "section-induced": (("sections", "build_induced"),),
    "section-matrix": (("sections", "build_matrix"),),
    "construct-large": (("construct", "build"),),
}
BENCHMARKED = ("cli-samples", "in-process")

SPANS = (
    "semigroups.generate_semigroup",
    "semigroups.from_table",
    "semigroups.wagner_preston_embed",
    "actions.PartialSetAction.validate",
    "actions.induce_action",
    "actions.validate_action",
    "actions.check_derived_identities",
    "algebras.paut_validate",
    "ell1.null_ideal",
    "ell1.quotient_algebra",
    "ell1.quotient_ell1_norm",
    "ell1.convolve",
    "ell1.involution",
    "reps.regular_rep",
    "reps.integrate",
    "reps.seminorm_kernel",
    "io_json.load_instance",
    "cli.main",
    "cli.import",
)
ELEMENTS = "semigroups.generate_semigroup.elements"
EXACT_RATIO = "algebras.paut_validate.exact_ratio"
OVERHEAD = "trace.overhead_ratio"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({ELEMENTS: "count", EXACT_RATIO: "1", OVERHEAD: "1"})
    return units


def pin_environment() -> None:
    """Pin BLAS threads and put ``src/`` on the path, here and for children.
    Must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    for path in (src, str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def build_workload(name: str, seed: int, traced: bool):
    ops = []
    for module, func in WORKLOADS[name]:
        make = getattr(import_module(module), func)
        if traced and module == "cli_samples":
            ops += make(ROOT, seed, traced=True)
        else:
            ops += make(ROOT, seed)
    return ops


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time fresh processes from start until they have built the workload.

    A cheap set-up is repeated more often, so that its median rests on as
    many seconds of samples as a costly one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != PROBE_READY:
                raise RuntimeError(f"set-up probe for {name} failed")
        times.append(elapsed)
    return times


class Runner:
    """One client running a workload's ops round robin in a closed loop:
    each op starts when the previous one has finished.

    With several tracers every op runs once under each, back to back and
    in a rotating order, so that a drift in machine speed falls on all of
    them alike.  ``times[i][k]`` lists the times of op ``k`` under
    ``tracers[i]``; ``passes`` counts the complete passes over the ops.  An
    op fails if it raises or its output is wrong.
    """

    def __init__(self, ops, tracers):
        self.ops = ops
        self.tracers = tracers
        self.times: list[list[list[float]]] = [[[] for _ in ops] for _ in tracers]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def run_op(self, op, tracer) -> float:
        self.attempted += 1
        start = time.perf_counter()
        elapsed = None
        try:
            out = op.run(tracer)
            elapsed = time.perf_counter() - start
            op.check(out)
        except Exception:  # counted as a failure; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{op.name}:\n{traceback.format_exc()}"
        return elapsed

    def run_step(self, k: int) -> float:
        """Op ``k`` once under each tracer; returns the time they took."""
        n = len(self.tracers)
        spent = 0.0
        for j in range(n):
            which = (k + j + self.passes) % n
            elapsed = self.run_op(self.ops[k], self.tracers[which])
            self.times[which][k].append(elapsed)
            spent += elapsed
        return spent

    def measure(self, seconds: float, whole_passes: bool) -> None:
        """Ops round robin, at least one whole pass, until the next op would
        end after ``seconds``; with ``whole_passes``, until the next pass
        would.  A later op is predicted to take as long as its last run."""
        start = time.perf_counter()
        last = [0.0] * len(self.ops)
        k = 0
        while True:
            last[k] = self.run_step(k)
            k = (k + 1) % len(self.ops)
            if k == 0:
                self.passes += 1
            if self.passes == 0 or (whole_passes and k != 0):
                continue
            elapsed = time.perf_counter() - start
            upcoming = sum(last) if whole_passes else last[k]
            if elapsed + upcoming > seconds:
                return


def op_median(per_op: list[list[float]]) -> float:
    """Median op time with every op weighted alike, as in one pass: each of
    an op's n times weighs 1/n.  The last, partial pass of a run reaches the
    ops at the head of the list once more than the rest; unweighted, which
    ops those are (the seed orders cli-samples) would move the median."""
    points = sorted((t, Fraction(1, len(times))) for times in per_op for t in times)
    half = Fraction(len(per_op), 2)
    seen = Fraction(0)
    for i, (t, weight) in enumerate(points):
        seen += weight
        if seen > half:
            return t
        if seen == half:
            return (t + points[i + 1][0]) / 2
    raise ValueError("no op times")


def peak_rss_mb(name: str) -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "cli-samples":  # one CLI child at a time
        self_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return self_kb / 1024.0


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """HEAD read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Runner, dict]:
    setups = setup_seconds(name, seed)
    runner = Runner(build_workload(name, seed, traced=False), [NO_TRACE])
    runner.measure(seconds, whole_passes=False)
    per_op = runner.times[0]
    ops = [t for times in per_op for t in times]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(times) for times in per_op), "s"),
        "op_p50_s": (op_median(per_op), "s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    print(f"workload {name}  seed {seed}  passes {len(ops) / len(per_op):.2f}  "
          f"ops/pass {len(per_op)}  closed loop, one client")
    for key, (value, unit) in metrics.items():
        note = {"setup_s": f"median of {len(setups)} fresh processes",
                "wall_s": "sum over ops of each op's median time",
                "op_p50_s": f"n={len(ops)}"}.get(key, "")
        print(f"  {key:12s} {value:12.6f} {unit:3s} {note}")
    ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':12s} {ratio:12.6f} 1   {runner.failed}/{runner.attempted}")
    return runner, metrics


def traced(name: str, seed: int, seconds: float) -> tuple[Runner, dict]:
    tracer = Tracer()
    runner = Runner(build_workload(name, seed, traced=True), [NO_TRACE, tracer])
    runner.measure(seconds, whole_passes=True)
    passes = runner.passes
    plain = sum(map(sum, runner.times[0])) / passes
    traced_wall = sum(map(sum, runner.times[1])) / passes
    selfs = self_times(tracer.spans)
    units = per_layer_units()
    values = {}
    for span in SPANS:
        total, calls = selfs.get(span, (0.0, 0))
        values[f"{span}.s"] = total / passes
        values[f"{span}.calls"] = calls / passes
    values[ELEMENTS] = tracer.counters.get(ELEMENTS, 0) / passes
    paut_calls = selfs.get("algebras.paut_validate", (0.0, 0))[1]
    exact = tracer.counters.get("algebras.paut_validate.exact", 0)
    values[EXACT_RATIO] = exact / paut_calls if paut_calls else 0.0
    values[OVERHEAD] = (traced_wall - plain) / plain
    print_layer_table(name, values, traced_wall, plain, passes)
    return runner, {k: (values[k], units[k]) for k in units}


def print_layer_table(name, values, traced_wall, plain, passes) -> None:
    print(f"workload {name}  traced passes {passes}  self time per pass")
    layer_total: dict[str, float] = {}
    for span in SPANS:
        s, calls = values[f"{span}.s"], values[f"{span}.calls"]
        if calls:
            print(f"  {span:38s} {s:10.4f} s  {calls:7.1f} calls  "
                  f"{s / calls:9.5f} s/call  {s / traced_wall:6.1%}")
        layer = "startup" if span == "cli.import" else span.split(".")[0]
        layer_total[layer] = layer_total.get(layer, 0.0) + s
    spanned = sum(layer_total.values())
    for layer, s in layer_total.items():
        if s:
            print(f"  layer {layer:12s} {s:10.4f} s  {s / traced_wall:6.1%} of op time")
    print(f"  outside spans       {traced_wall - spanned:10.4f} s")
    print(f"  {OVERHEAD}  {values[OVERHEAD]:+.4%}  (ops traced {traced_wall:.4f} s, "
          f"untraced {plain:.4f} s per pass, run back to back)")


def run_all(args) -> int:
    """Each benchmarked workload in its own process, then one table."""
    results = {}
    for name in BENCHMARKED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("not run (too slow for the current code):")
    for row in json.loads((HERE / "not_run.json").read_text()):
        print(f"  {row['rung']:6s} {row['step']:34s} {row['measured']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semicross" / "__init__.py").is_file():
        print(f"semicross sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        build_workload(args.workload, args.seed, traced=False)
        print(PROBE_READY, flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    run = traced if args.trace else end_to_end
    runner, metrics = run(args.workload, args.seed, args.seconds)
    if runner.first_error:
        print(f"first failure in {runner.first_error}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
