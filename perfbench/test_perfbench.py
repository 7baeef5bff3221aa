"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import run

run.pin_environment()

import cli_samples  # noqa: E402
import construct  # noqa: E402
import oracles  # noqa: E402
import sections  # noqa: E402
from ops import Op, OracleMismatch  # noqa: E402
from spans import NO_TRACE, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer"):
        clock.now += 1.0
        with tr.span("inner"):
            clock.now += 2.0
            with tr.span("leaf"):
                clock.now += 4.0
        with tr.span("inner"):
            clock.now += 8.0
        clock.now += 16.0
    with tr.span("leaf"):
        clock.now += 32.0
    got = self_times(tr.spans)
    assert got == {"outer": (17.0, 1), "inner": (10.0, 2), "leaf": (36.0, 2)}
    assert sum(s for s, _ in got.values()) == clock.now


def test_self_time_closes_span_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)
    with pytest.raises(ValueError):
        with tr.span("outer"):
            clock.now += 1.0
            raise ValueError
    with tr.span("next"):
        clock.now += 2.0
    assert self_times(tr.spans) == {"outer": (1.0, 1), "next": (2.0, 1)}
    assert tr.spans[1][3] is None


def test_closed_forms():
    assert oracles.sim_size(4) == 209
    assert oracles.chain_size(8) == 204
    assert oracles.chain_size(6) == 91
    assert (oracles.cycle_point_size(6), oracles.cycle_point_dim(6)) == (43, 72)
    assert (oracles.cycle_point_size(7), oracles.cycle_point_dim(7)) == (57, 98)


def test_closed_forms_match_brute_force_closure():
    for n in (2, 3):
        gens = [frozenset(g.pairs) for g in construct.sim_generators(n)]
        assert len(oracles.closure(gens)) == oracles.sim_size(n)
    for n in (3, 5):
        gens = [frozenset(g.pairs) for g in construct.chain_generators(n)]
        assert len(oracles.closure(gens)) == oracles.chain_size(n)
    for n in (3, 4, 5):
        elements = oracles.closure(
            [frozenset(g.pairs) for g in construct.cycle_point_generators(n)]
        )
        assert len(elements) == oracles.cycle_point_size(n)
        assert oracles.section_dim(elements) == oracles.cycle_point_dim(n)


@pytest.mark.parametrize(
    "name, size, dim, germs",
    [
        ("sim2", 7, 8, 4),
        ("chain3", 14, 17, 9),
        ("cyc3_e", 13, 18, 9),
        ("swap_e4", 14, 18, 8),
        ("cyc4_e", 21, 32, 16),
    ],
)
def test_germ_oracle_on_the_induced_ladder(name, size, dim, germs):
    elements = oracles.closure(sections.INDUCED_RUNGS[name])
    assert len(elements) == size
    assert oracles.section_dim(elements) == dim
    assert oracles.germ_count(elements) == germs


@pytest.mark.parametrize("name, dim, quotient", [("sim2", 32, 16), ("swap_e3", 40, 20)])
def test_germ_oracle_on_the_matrix_actions(name, dim, quotient):
    inp = sections.Inputs(sections.MATRIX_ACTIONS[name], np.random.default_rng(0), 2)
    assert inp.germs == {"sim2": 4, "swap_e3": 5}[name]
    assert inp.dim == dim
    assert inp.k * inp.k * inp.germs == quotient


def test_quotient_oracle_rejects_wrong_dimensions():
    inp = sections.Inputs(sections.INDUCED_RUNGS["sim2"], np.random.default_rng(0), 1)
    right = {"dim_ell1": 8, "dim_null": 4, "dim_quotient": 4}
    sections._check_quotient(right, inp)
    with pytest.raises(OracleMismatch):
        sections._check_quotient({**right, "dim_null": 5, "dim_quotient": 3}, inp)


def test_quotient_norm_bounds_bracket_simple_cosets():
    elements = oracles.closure(sections.INDUCED_RUNGS["sim2"])
    classes = oracles.germ_classes(elements)
    f = sections.random_section(np.random.default_rng(3), elements, 1)
    lower, upper = oracles.quotient_norm_bounds(f, classes)
    assert 0 < lower <= upper <= oracles.norm1(f)
    # an element of N: the same value at two members of one germ, opposite signs
    members: dict = {}
    for key, c in classes.items():
        members.setdefault(c, []).append(key)
    (s, y), (t, _) = next(m for m in members.values() if len(m) > 1)[:2]
    null = {s: {y: np.array([[1.0]])}, t: {y: np.array([[-1.0]])}}
    assert oracles.quotient_norm_bounds(null, classes) == (0.0, 0.0)


def test_convolution_oracle_is_associative_with_a_coboundary():
    gens = sections.MATRIX_ACTIONS["swap_e3"]
    elements = oracles.closure(gens)
    W = sections.coboundary(sorted({x for g in gens for p in g for x in p}))
    rng = np.random.default_rng(1)
    f, g, h = (sections.random_section(rng, elements, 2) for _ in range(3))
    left = oracles.convolve(oracles.convolve(f, g, W), h, W)
    right = oracles.convolve(f, oracles.convolve(g, h, W), W)
    assert oracles.sections_close(left, right, 1e-9)
    star = oracles.involution
    assert oracles.sections_close(
        star(oracles.convolve(f, g, W), W),
        oracles.convolve(star(g, W), star(f, W), W),
        1e-9,
    )


def test_cli_oracle_accepts_the_record_and_rejects_changes():
    record = json.loads(cli_samples.EXPECTED.read_text())
    assert set(record) == {name for name, _ in cli_samples.commands(run.ROOT)}
    assert all(r["exit"] == 0 for r in record.values())
    name = "eval semi qnorm(a)"
    want = record[name]
    cli_samples.matches(want, want, name)
    close = {**want, "scalar": want["scalar"] * (1 - 0.5 * cli_samples.LP_REL_ERROR)}
    cli_samples.matches(close, want, name)
    far = {**want, "scalar": want["scalar"] * (1 - 2 * cli_samples.LP_REL_ERROR)}
    with pytest.raises(OracleMismatch):
        cli_samples.matches(far, want, name)
    build = record["build sim2"]
    with pytest.raises(OracleMismatch):
        cli_samples.matches({**build, "dims": {**build["dims"], "dim_null": 3}}, build, "build sim2")
    with pytest.raises(OracleMismatch):
        cli_samples.matches({**build, "exit": 1}, build, "build sim2")


def test_cli_seed_shuffles_the_order_only():
    a = [op.name for op in cli_samples.build(run.ROOT, 1)]
    b = [op.name for op in cli_samples.build(run.ROOT, 2)]
    assert a != b and sorted(a) == sorted(b)
    assert a == [op.name for op in cli_samples.build(run.ROOT, 1)]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("build", [sections.build_induced, sections.build_matrix])
def test_traced_and_untraced_ops_give_identical_outputs(build):
    op = build(run.ROOT, 5)[0]
    plain = op.run(NO_TRACE)
    tracer = Tracer()
    traced = op.run(tracer)
    assert _same(plain, traced)
    op.check(traced)
    assert tracer.spans


def test_runner_makes_one_whole_pass_at_least_and_counts_failures():
    def wrong(out):
        raise OracleMismatch("wrong")

    ops = [Op("right", lambda tracer: 1, lambda out: None), Op("wrong", lambda tracer: 2, wrong)]
    for whole_passes in (True, False):
        runner = run.Runner(ops, [NO_TRACE, Tracer()])
        runner.measure(0.0, whole_passes)
        assert runner.passes == 1
        assert [[len(t) for t in per_op] for per_op in runner.times] == [[1, 1], [1, 1]]
        assert (runner.attempted, runner.failed) == (4, 2)


def test_op_median_weights_every_op_alike():
    assert run.op_median([[1.0, 2.0], [3.0, 4.0]]) == 2.5
    assert run.op_median([[5.0, 1.0, 9.0], [2.0, 7.0, 3.0]]) == 4.0
    assert run.op_median([[1.0, 1.0, 1.0, 1.0], [2.0], [3.0]]) == 2.0
    assert run.op_median([[1.0, 1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]) == 2.5


def test_traced_cli_op_matches_the_subprocess_op():
    plain = cli_samples.build(run.ROOT, 4)
    traced = cli_samples.build(run.ROOT, 4, traced=True)
    name = "build semi"
    i = [op.name for op in plain].index(name)
    tracer = Tracer()
    assert plain[i].run(NO_TRACE) == traced[i].run(tracer)
    assert {s[0] for s in tracer.spans} == {"cli.import", "io_json.load_instance", "cli.main"}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "wall_s", "op_p50_s", "peak_rss_mb"]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_lp_tolerance_is_the_polygon_error():
    assert cli_samples.LP_REL_ERROR == pytest.approx(1 - math.cos(math.pi / 64))
    assert sections.LP_FACTOR == pytest.approx(math.cos(math.pi / 64))
