"""Expected answers computed without semicross.

Partial bijections are frozensets of (source, target) pairs.  Sections are
dicts from such a map t to {point y: k-by-k block} with y in the image of t,
so an action on C(X) has k = 1 and one on a sum of M_2 blocks has k = 2.  The
explicit matrix actions the benchmark builds move block x to block t(x) and
conjugate it by W[t(x)] W[x]^T, where W holds one permutation matrix per
point; ``W=None`` means every W[x] is the identity.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np


def sim_size(n: int) -> int:
    """|sim_n|, the symmetric inverse monoid on n points."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def chain_size(n: int) -> int:
    """|chain_n|, generated by the shift i -> i+1 on 1..n."""
    return n * (n + 1) * (2 * n + 1) // 6


def cycle_point_size(n: int) -> int:
    """|cyc_n_e|, generated by an n-cycle and the identity on one point:
    the n rotations, the n^2 rank-one maps and the empty map."""
    return n * n + n + 1


def cycle_point_dim(n: int) -> int:
    """dim l1 of the induced action of cyc_n_e: sum of domain sizes."""
    return 2 * n * n


def compose(f: frozenset, g: frozenset) -> frozenset:
    """f after g."""
    fd = dict(f)
    return frozenset((x, fd[y]) for x, y in g if y in fd)


def inverse(f: frozenset) -> frozenset:
    return frozenset((y, x) for x, y in f)


def closure(generators) -> set:
    """All products of the generators and their inverses, by brute force."""
    elements = set(generators)
    frontier = set(elements)
    while frontier:
        new = set()
        for x in frontier:
            new.add(inverse(x))
            for y in elements:
                new.add(compose(x, y))
                new.add(compose(y, x))
        frontier = new - elements
        elements |= frontier
    return elements


def section_dim(elements) -> int:
    """dim l1(alpha) of the induced action: one coordinate per (t, point)."""
    return sum(len(t) for t in elements)


def germ_classes(elements) -> dict:
    """Germ of each (t, y) with y in the image of t.

    Two germs (s, x) and (t, x), x in the domain, are equal when some
    idempotent e has x in its domain and s e = t e (Exel 2008).  The result
    is keyed by the target point y = t(x), which is how section coordinates
    are indexed, and maps to a class representative.
    """
    elements = list(elements)
    parent = {(t, x): (t, x) for t in elements for x, _ in t}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    idempotents = [e for e in elements if all(x == y for x, y in e)]
    for e in idempotents:
        for x, _ in e:
            seen = {}
            for s in elements:
                if x not in dict(s):
                    continue
                key = compose(s, e)
                if key in seen:
                    parent[find((s, x))] = find(seen[key])
                else:
                    seen[key] = (s, x)
    return {(t, dict(t)[x]): find((t, x)) for t, x in parent}


def germ_count(elements) -> int:
    return len(set(germ_classes(elements).values()))


def graph_pairs(elements) -> int:
    """#{(t(x), x)}: the rank of the integrated regular representation."""
    return len({(y, x) for t in elements for x, y in t})


def _conj(W, t, y):
    """U = W[y] W[x]^T for x = t^-1(y); the identity when W is None."""
    if W is None:
        return None
    x = dict(inverse(t))[y]
    return W[y] @ W[x].T


def convolve(f: dict, g: dict, W=None) -> dict:
    """(f*g)_r[y] = sum over s t = r of f_s[y] U g_t[x] U^T, x = s^-1(y)."""
    out: dict = {}
    for s, fs in f.items():
        s_inv = dict(inverse(s))
        for t, gt in g.items():
            r = compose(s, t)
            for y, a in fs.items():
                x = s_inv[y]
                if x not in gt:
                    continue
                U = _conj(W, s, y)
                b = gt[x] if U is None else U @ gt[x] @ U.T
                slot = out.setdefault(r, {})
                slot[y] = slot.get(y, 0) + a @ b
    return out


def involution(f: dict, W=None) -> dict:
    """f*(t)[y] = U f(t*)[x]^H U^T with y = t(x)."""
    out = {}
    for u, fu in f.items():
        t = inverse(u)
        block = {}
        for x, a in fu.items():
            y = dict(t)[x]
            U = _conj(W, t, y)
            h = a.conj().T
            block[y] = h if U is None else U @ h @ U.T
        out[t] = block
    return out


def _block_norm(a) -> float:
    """Max row sum of moduli: |z| for 1x1, the p=inf operator norm for M_k."""
    return float(np.abs(a).sum(axis=1).max())


def norm1(f: dict) -> float:
    """Section norm: the sum over t of the sup over blocks of f(t)."""
    return sum(max((_block_norm(a) for a in ft.values()), default=0.0) for ft in f.values())


def quotient_norm_bounds(f: dict, classes: dict) -> tuple[float, float]:
    """Bounds on the exact quotient norm inf over n in N of ||f + n||_1.

    N is spanned by a d_s - a d_t over equal germs at a common point, so
    moving every block of a germ onto one member stays in the coset: its
    norm is an upper bound.  A functional that takes the same value on the
    members of a germ vanishes on N; giving germ c the weight 1/m_c, where
    m_c is the largest image among the t with a coordinate in c, keeps its
    dual norm at most 1, so the sum of ||germ total|| / m_c is a lower bound.
    """
    totals: dict = {}
    home: dict = {}
    size: dict = {}
    for t, ft in f.items():
        for y, a in ft.items():
            c = classes[(t, y)]
            totals[c] = totals.get(c, 0) + a
            home.setdefault(c, (t, y))
            size[c] = max(size.get(c, 0), len(t))
    collapsed: dict = {}
    for c, a in totals.items():
        t, y = home[c]
        collapsed.setdefault(t, {})[y] = a
    upper = min(norm1(f), norm1(collapsed))
    lower = sum(_block_norm(a) / size[c] for c, a in totals.items())
    return lower, upper


def sections_close(got: dict, want: dict, tol: float) -> bool:
    """Equal as sections, treating missing entries as zero."""
    for t in set(got) | set(want):
        g, w = got.get(t, {}), want.get(t, {})
        for y in set(g) | set(w):
            if np.max(np.abs(np.asarray(g.get(y, 0) - w.get(y, 0)))) > tol:
                return False
    return True
