"""Reference paths kept as test oracles for the fast kernels in ``semicross``.

``reference_convolve`` is the per-summand convolution that ``ell1.convolve``
replaced with one contraction of the structure tensor: an exact double sum
over the support pairs, with every summand checked to land in the ideal of
the product element.

``reference_generate_semigroup`` is the breadth-first closure that composes
``PartialBijection`` pairs one at a time, for the closure and again for the
Cayley table, with the pairwise natural order; ``generate_semigroup``
replaced it with a closure over int rows that registers elements in the same
order.  ``reference_wagner_preston`` builds the regular embedding map by map.
"""

from __future__ import annotations

import numpy as np

from semicross._linalg import DEFAULT_TOL
from semicross.ell1 import Ell1Element, monomials
from semicross.errors import ActionMismatch, CarrierMismatch, SizeCapExceeded
from semicross.semigroups import DEFAULT_CAP, InvSemigroup, PartialBijection


def reference_convolve(
    f: Ell1Element, g: Ell1Element, tol: float = DEFAULT_TOL
) -> Ell1Element:
    if f.action is not g.action:
        raise ActionMismatch("elements of different section algebras")
    act = f.action
    sg = act.semigroup
    out: dict[int, np.ndarray] = {}
    for s in f.support:
        fs = f.value(s)
        pulled = act.apply(sg.inv(s), fs, tol)
        for t in g.support:
            r = sg.mul(s, t)
            gt = g.value(t)
            summand = act.apply(s, act.algebra.mul(pulled, gt), tol)
            ideal = act.ideal(r)
            scale = max(
                1.0, float(np.linalg.norm(fs)) * float(np.linalg.norm(gt))
            )
            if ideal.dim == 0:
                # the product element carries the zero ideal, so the summand
                # must vanish up to roundoff of the inputs
                assert float(np.linalg.norm(summand)) <= tol * scale, (
                    "convolution summand escapes the ideal of the product element"
                )
                continue
            assert ideal.contains(summand, tol), (
                "convolution summand escapes the ideal of the product element"
            )
            out[r] = out.get(r, 0) + ideal.coords(summand, tol)
    return Ell1Element(act, out)


def reference_monomial_products(action, basis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rows m * x and x * m over the spanning monomials, one convolution each."""
    mono = monomials(action)
    rows = [np.zeros((0, action.total_dim), dtype=complex)]
    for row in basis:
        x = Ell1Element.from_dense(action, row)
        for m in mono:
            rows.append(reference_convolve(m, x, tol).to_dense()[None, :])
            rows.append(reference_convolve(x, m, tol).to_dense()[None, :])
    return np.vstack(rows)


def reference_natural_order(sg: InvSemigroup) -> frozenset:
    """Pairs (s, t) with t (s* s) = s, one product at a time."""
    pairs = set()
    for s in range(len(sg)):
        ss = sg.mul(sg.inv(s), s)
        for t in range(len(sg)):
            if sg.mul(t, ss) == s:
                pairs.add((s, t))
    return frozenset(pairs)


def reference_generate_semigroup(generators, cap: int = DEFAULT_CAP) -> InvSemigroup:
    """Per-pair closure: inverses of the frontier, then x o y and y o x for
    each frontier x and each y known when the round's products start."""
    gens = list(generators)
    carrier = gens[0].carrier
    if any(g.carrier != carrier for g in gens):
        raise CarrierMismatch("generators live on different carriers")
    elems: list[PartialBijection] = []
    index: dict[tuple, int] = {}

    def register(p: PartialBijection) -> bool:
        if p.pairs in index:
            return False
        if len(elems) >= cap:
            raise SizeCapExceeded(cap)
        index[p.pairs] = len(elems)
        elems.append(p)
        return True

    for g in gens:
        register(g)
    frontier = list(elems)
    while frontier:
        new = [y for x in frontier if register(y := x.invert())]
        known = list(elems)
        for x in frontier:
            for y in known:
                new.extend(p for p in (x.compose(y), y.compose(x)) if register(p))
        frontier = new
    n = len(elems)
    table = np.array(
        [[index[x.compose(y).pairs] for y in elems] for x in elems], dtype=int
    ).reshape(n, n)
    star = np.array([index[x.invert().pairs] for x in elems], dtype=int)
    idem = tuple(i for i in range(n) if table[i, i] == i)
    labels = tuple(x.label for x in elems)
    sg = InvSemigroup(labels, table, star, idem, frozenset(), index.get(()), tuple(elems))
    sg.order = reference_natural_order(sg)
    return sg


def reference_wagner_preston(sg: InvSemigroup) -> list[PartialBijection]:
    """t -> (x -> t x) on {x : t* t x = x}, over the element labels."""
    maps = []
    for t in range(len(sg)):
        tt = sg.mul(sg.inv(t), t)
        pairs = tuple(
            (sg.labels[x], sg.labels[sg.mul(t, x)])
            for x in range(len(sg))
            if sg.mul(tt, x) == x
        )
        maps.append(PartialBijection(tuple(sg.labels), pairs))
    return maps
