"""construct-large: the largest semigroups and induced actions the code
builds in seconds, so semigroups and actions do all the work and ell1 none.

One op per structure.  Sizes are checked against closed forms, and
``from_table`` against the star map that ``generate_semigroup`` stored.
Nothing here depends on the seed.
"""

from __future__ import annotations

import numpy as np

import oracles
from ops import Op, expect

import semicross as sc


def _pb(n: int, mapping: dict):
    return sc.PartialBijection(tuple(range(1, n + 1)), tuple(sorted(mapping.items())))


def sim_generators(n: int) -> list:
    """A transposition, an n-cycle and the identity off one point."""
    return [
        _pb(n, {1: 2, 2: 1, **{i: i for i in range(3, n + 1)}}),
        _pb(n, {i: i % n + 1 for i in range(1, n + 1)}),
        _pb(n, {i: i for i in range(2, n + 1)}),
    ]


def chain_generators(n: int) -> list:
    return [_pb(n, {i: i + 1 for i in range(1, n)})]


def cycle_point_generators(n: int) -> list:
    return [_pb(n, {i: i % n + 1 for i in range(1, n + 1)}), _pb(n, {1: 1})]


def _generate(tracer, generators):
    with tracer.span("semigroups.generate_semigroup"):
        sg = sc.generate_semigroup(generators)
    tracer.count("semigroups.generate_semigroup.elements", len(sg))
    return sg


def table_op(name: str, generators, size: int) -> Op:
    """Generate, rebuild from the Cayley table, validate theta on itself."""

    def run(tracer):
        sg = _generate(tracer, generators)
        with tracer.span("semigroups.from_table"):
            rebuilt = sc.InvSemigroup.from_table(sg.table)
        theta = sc.PartialSetAction.tautological(sg)
        with tracer.span("actions.PartialSetAction.validate"):
            theta.validate()
        return sg, rebuilt

    def check(out):
        sg, rebuilt = out
        expect(len(sg) == size, f"|{name}| = {len(sg)}, expected {size}")
        expect(np.array_equal(rebuilt.star, sg.star), f"{name}: star map differs")
        expect(rebuilt.idempotents == sg.idempotents, f"{name}: idempotents differ")

    return Op(f"table {name}", run, check)


def embed_op(n: int) -> Op:
    def run(tracer):
        sg = _generate(tracer, chain_generators(n))
        with tracer.span("semigroups.wagner_preston_embed"):
            return sc.wagner_preston_embed(sg)

    def check(out):
        size = oracles.chain_size(n)
        expect(len(out) == size, f"chain{n}: {len(out)} maps, expected {size}")
        expect(len({m.pairs for m in out}) == size, f"chain{n}: embedding not injective")

    return Op(f"wagner_preston_embed chain{n}", run, check)


def induce_op(n: int) -> Op:
    def run(tracer):
        sg = _generate(tracer, cycle_point_generators(n))
        theta = sc.PartialSetAction.tautological(sg)
        with tracer.span("actions.induce_action"):
            action = sc.induce_action(theta)
        return len(sg), action.total_dim

    def check(out):
        want = (oracles.cycle_point_size(n), oracles.cycle_point_dim(n))
        expect(out == want, f"cyc{n}_e: (|S|, dim l1) = {out}, expected {want}")

    return Op(f"induce_action cyc{n}_e", run, check)


def build(root, seed: int) -> list[Op]:
    return [
        table_op("sim4", sim_generators(4), oracles.sim_size(4)),
        table_op("chain8", chain_generators(8), oracles.chain_size(8)),
        embed_op(6),
        induce_op(6),
        induce_op(7),
    ]
