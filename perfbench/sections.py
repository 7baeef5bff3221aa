"""section-induced and section-matrix: the certified section-algebra
pipeline, in-process, on actions the benchmark builds from generators.

section-induced runs one rung of a ladder of induced actions on C(X) per op.
ell1 and reps do nearly all the work there.  section-matrix runs explicit
actions on a sum of M_2 blocks with p=inf, where each moved block is also
conjugated by a coboundary W[t(x)] W[x]^T of per-point permutation matrices.
The coefficients are then non-commutative, PA1 is checked numerically, and
maps that conjugate certify as "sampled".  Each output is checked against the
germ groupoid of the action and against convolutions, involutions and
quotient norms computed in ``oracles``.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from ops import Op, expect

import semicross as sc

TOL = 1e-8
# quotient_ell1_norm models |z| by a 64-facet polygon, so it may undershoot
LP_FACTOR = math.cos(math.pi / 64)
N_QNORM = 2
N_CONVOLVE = 6
N_INVOLUTION = 2


def _p(*pairs):
    return frozenset(pairs)


def _id(*points):
    return frozenset((x, x) for x in points)


INDUCED_RUNGS = {
    "sim2": [_p((1, 2), (2, 1)), _id(1)],
    "chain3": [_p((1, 2), (2, 3))],
    "cyc3_e": [_p((1, 2), (2, 3), (3, 1)), _id(1)],
    "swap_e4": [_p((1, 2), (3, 4)), _id(1, 4)],
    "cyc4_e": [_p((1, 2), (2, 3), (3, 4), (4, 1)), _id(1)],
}
MATRIX_ACTIONS = {
    "flip": [_p((1, 2))],
    "sim2": [_p((1, 2), (2, 1)), _id(1)],
    "swap_e3": [_p((1, 2), (2, 1)), _id(1, 3)],
}
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def pbijections(generators) -> list:
    """The generators as semicross partial bijections on their joint carrier."""
    carrier = tuple(sorted({x for g in generators for pair in g for x in pair}))
    return [sc.PartialBijection(carrier, tuple(sorted(g))) for g in generators]


def coboundary(carrier) -> dict:
    """W[x]: the swap on every other point, the identity elsewhere."""
    return {x: SWAP if i % 2 else np.eye(2) for i, x in enumerate(carrier)}


def random_section(rng, elements, k: int) -> dict:
    """Dense section: a complex k-by-k block at every point of every image."""
    return {
        t: {
            y: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for _, y in sorted(t)
        }
        for t in sorted(elements, key=sorted)
        if t
    }


class Frame:
    """Translates sections between oracle form and semicross elements."""

    def __init__(self, action, sg):
        self.action = action
        self.keys = [frozenset(p.pairs) for p in sg.pbijs]
        self.index = {key: t for t, key in enumerate(self.keys)}
        A = action.algebra
        points = sg.pbijs[0].carrier
        self.block = {x: A.blocks[i] for i, x in enumerate(points)}
        self.dim = A.dim

    def element(self, section: dict):
        coeffs = {}
        for key, blocks in section.items():
            t = self.index[key]
            v = np.zeros(self.dim, dtype=complex)
            for y, a in blocks.items():
                v[self.block[y]] = a
            coeffs[t] = self.action.ideal(t).coords(v, TOL)
        return sc.Ell1Element(self.action, coeffs)

    def section(self, elem) -> dict:
        out = {}
        for t in elem.support:
            v = elem.value(t)
            out[self.keys[t]] = {y: v[self.block[y]] for _, y in self.keys[t]}
        return out


class Inputs:
    """Everything one op needs, fixed by the generators and the seed."""

    def __init__(self, generators, rng, k: int):
        self.generators = pbijections(generators)
        self.elements = oracles.closure(generators)
        self.classes = oracles.germ_classes(self.elements)
        self.germs = len(set(self.classes.values()))
        self.dim = k * k * oracles.section_dim(self.elements)
        self.k = k
        self.W = coboundary(self.generators[0].carrier) if k > 1 else None
        self.qnorm = [random_section(rng, self.elements, k) for _ in range(N_QNORM)]
        self.pairs = [
            (random_section(rng, self.elements, k), random_section(rng, self.elements, k))
            for _ in range(N_CONVOLVE)
        ]
        self.stars = [random_section(rng, self.elements, k) for _ in range(N_INVOLUTION)]


def _generate(tracer, generators):
    with tracer.span("semigroups.generate_semigroup"):
        sg = sc.generate_semigroup(generators)
    tracer.count("semigroups.generate_semigroup.elements", len(sg))
    return sg


def _sections_out(tracer, frame, inp: Inputs, null_basis, with_star: bool) -> dict:
    qnorms = []
    for f in inp.qnorm:
        elem = frame.element(f)
        with tracer.span("ell1.quotient_ell1_norm"):
            qnorms.append(sc.quotient_ell1_norm(elem, null_basis))
    products = []
    for f, g in inp.pairs:
        a, b = frame.element(f), frame.element(g)
        with tracer.span("ell1.convolve"):
            h = sc.convolve(a, b)
        products.append(frame.section(h))
    stars = []
    if with_star:
        for f in inp.stars:
            elem = frame.element(f)
            with tracer.span("ell1.involution"):
                h = sc.involution(elem)
            stars.append(frame.section(h))
    return {"qnorms": qnorms, "products": products, "stars": stars}


def _check_sections(out: dict, inp: Inputs) -> None:
    for f, got in zip(inp.qnorm, out["qnorms"]):
        lower, upper = oracles.quotient_norm_bounds(f, inp.classes)
        expect(
            LP_FACTOR * lower - TOL <= got <= upper * (1 + 1e-7) + TOL,
            f"quotient norm {got} outside [{LP_FACTOR * lower}, {upper}]",
        )
    for (f, g), got in zip(inp.pairs, out["products"]):
        want = oracles.convolve(f, g, inp.W)
        expect(oracles.sections_close(got, want, TOL), "convolution differs")
    for f, got in zip(inp.stars, out["stars"]):
        want = oracles.involution(f, inp.W)
        expect(oracles.sections_close(got, want, TOL), "involution differs")


def _check_quotient(out: dict, inp: Inputs) -> None:
    quotient = inp.k * inp.k * inp.germs
    expect(out["dim_ell1"] == inp.dim, f"dim l1 {out['dim_ell1']}, expected {inp.dim}")
    expect(out["dim_null"] == inp.dim - quotient, f"dim null {out['dim_null']}")
    expect(out["dim_quotient"] == quotient, f"dim quotient {out['dim_quotient']}")


def induced_op(name: str, inp: Inputs, seed: int) -> Op:
    def run(tracer):
        sg = _generate(tracer, inp.generators)
        theta = sc.PartialSetAction.tautological(sg)
        with tracer.span("actions.induce_action"):
            action = sc.induce_action(theta)
        with tracer.span("ell1.null_ideal"):
            null = sc.null_ideal(action)
        with tracer.span("ell1.quotient_algebra"):
            quot = sc.quotient_algebra(action, null.basis)
        with tracer.span("reps.regular_rep"):
            rep = sc.regular_rep(theta, 2, action=action)
        with tracer.span("reps.integrate"):
            sc.integrate(rep, seed=seed, check=True)
        with tracer.span("reps.seminorm_kernel"):
            kernel = sc.seminorm_kernel([rep])
        out = _sections_out(tracer, Frame(action, sg), inp, null.basis, with_star=False)
        out.update(
            size=len(sg),
            dim_ell1=action.total_dim,
            dim_null=null.dim,
            dim_quotient=quot.dim,
            dim_kernel=kernel.shape[0],
        )
        return out

    def check(out):
        expect(out["size"] == len(inp.elements), f"|S| = {out['size']}")
        _check_quotient(out, inp)
        rank = oracles.graph_pairs(inp.elements)
        expect(out["dim_kernel"] == inp.dim - rank, f"dim kernel {out['dim_kernel']}")
        _check_sections(out, inp)

    return Op(f"induced {name}", run, check)


def block_action(sg, W):
    """Explicit action on the sum of M_2 over the carrier, p = inf."""
    carrier = sg.pbijs[0].carrier
    A = sc.matrix_algebra([2] * len(carrier), np.inf)
    block = {x: A.blocks[i] for i, x in enumerate(carrier)}

    def ideal(points):
        if not points:
            return sc.Ideal.zero(A)
        idx = [int(i) for y in sorted(points) for i in block[y].flat]
        unit = np.zeros(A.dim, dtype=complex)
        for y in points:
            unit[np.diag(block[y])] = 1.0
        return sc.Ideal(A, np.eye(A.dim, dtype=complex)[idx], unit)

    pauts = []
    for m in sg.pbijs:
        src, tgt = ideal(m.domain), ideal(m.image)
        rows = []
        for x in sorted(m.domain):
            y = m(x)
            U = W[y] @ W[x].T
            for i in range(2):
                for j in range(2):
                    e = np.zeros((2, 2))
                    e[i, j] = 1.0
                    row = np.zeros(A.dim, dtype=complex)
                    row[block[y]] = U @ e @ U.T
                    rows.append(row)
        pauts.append(sc.PartialAut(src, tgt, np.array(rows).reshape(-1, A.dim)))
    return sc.Action(sg, A, tuple(pauts))


def matrix_op(name: str, inp: Inputs, seed: int) -> Op:
    def run(tracer):
        sg = _generate(tracer, inp.generators)
        action = block_action(sg, inp.W)
        levels = []
        for t in range(len(sg)):
            with tracer.span("algebras.paut_validate"):
                cert = sc.paut_validate(action.paut(t), seed=seed)
            levels.append(cert.isometry_level)
            tracer.count("algebras.paut_validate.exact", cert.isometry_level == "exact")
        with tracer.span("actions.validate_action"):
            axioms = sc.validate_action(action)
        with tracer.span("actions.check_derived_identities"):
            derived = sc.check_derived_identities(action)
        with tracer.span("ell1.null_ideal"):
            null = sc.null_ideal(action)
        with tracer.span("ell1.quotient_algebra"):
            quot = sc.quotient_algebra(action, null.basis)
        out = _sections_out(tracer, Frame(action, sg), inp, null.basis, with_star=True)
        out.update(
            keys=[frozenset(p.pairs) for p in sg.pbijs],
            levels=levels,
            pa1=axioms.counts("PA1"),
            passed=axioms.passed and derived.passed,
            dim_ell1=action.total_dim,
            dim_null=null.dim,
            dim_quotient=quot.dim,
        )
        return out

    def check(out):
        n = len(inp.elements)
        expect(set(out["keys"]) == inp.elements, "semigroup differs from the closure")
        want = [
            "exact" if all(np.array_equal(inp.W[y], inp.W[x]) for x, y in t)
            else "sampled"
            for t in out["keys"]
        ]
        expect(out["levels"] == want, f"isometry levels {out['levels']}, expected {want}")
        expect(out["pa1"] == (n * n, n * n), f"PA1 counts {out['pa1']}")
        expect(out["passed"], "an axiom or derived identity failed")
        _check_quotient(out, inp)
        _check_sections(out, inp)

    return Op(f"matrix {name}", run, check)


def build_induced(root, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [
        induced_op(name, Inputs(gens, rng, 1), seed)
        for name, gens in INDUCED_RUNGS.items()
    ]


def build_matrix(root, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [
        matrix_op(name, Inputs(gens, rng, 2), seed)
        for name, gens in MATRIX_ACTIONS.items()
    ]
