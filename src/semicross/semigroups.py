"""Finite inverse semigroups: partial bijections, generated closures,
abstract Cayley tables, the natural partial order, and the regular embedding
into partial bijections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CarrierMismatch,
    IdempotentsDoNotCommute,
    NoGeneralizedInverse,
    NonUniqueInverse,
    NotAssociative,
    SizeCapExceeded,
)

DEFAULT_CAP = 10_000


@dataclass(frozen=True)
class PartialBijection:
    """Injective partial map on a finite carrier set.

    ``pairs`` is the graph of the map, sorted by source point; the domain is
    the set of first components.  Composition uses the largest domain on
    which it makes sense.
    """

    carrier: tuple
    pairs: tuple

    def __post_init__(self):
        carrier = tuple(sorted(set(self.carrier)))
        pairs = tuple(sorted(self.pairs))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "pairs", pairs)
        dom = [x for x, _ in pairs]
        img = [y for _, y in pairs]
        if len(set(dom)) != len(dom):
            raise ValueError("mapping is not single-valued")
        if len(set(img)) != len(img):
            raise ValueError("mapping is not injective")
        if not set(dom) <= set(carrier) or not set(img) <= set(carrier):
            raise ValueError("domain or image escapes the carrier")

    @classmethod
    def from_dict(cls, carrier, mapping: dict) -> "PartialBijection":
        return cls(tuple(carrier), tuple(mapping.items()))

    @classmethod
    def identity(cls, carrier, subset=None) -> "PartialBijection":
        subset = carrier if subset is None else subset
        return cls(tuple(carrier), tuple((x, x) for x in subset))

    @classmethod
    def empty(cls, carrier) -> "PartialBijection":
        return cls(tuple(carrier), ())

    @property
    def domain(self) -> frozenset:
        return frozenset(x for x, _ in self.pairs)

    @property
    def image(self) -> frozenset:
        return frozenset(y for _, y in self.pairs)

    def __call__(self, x):
        for a, b in self.pairs:
            if a == x:
                return b
        raise KeyError(x)

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other, on other^{-1}(dom(self) & im(other))."""
        if self.carrier != other.carrier:
            raise CarrierMismatch(
                f"carriers differ: {self.carrier} vs {other.carrier}"
            )
        mid = self.domain & other.image
        pairs = tuple((x, self(y)) for x, y in other.pairs if y in mid)
        return PartialBijection(self.carrier, pairs)

    def invert(self) -> "PartialBijection":
        return PartialBijection(self.carrier, tuple((y, x) for x, y in self.pairs))

    def restricts(self, other: "PartialBijection") -> bool:
        return set(self.pairs) <= set(other.pairs)

    def __mul__(self, other: "PartialBijection") -> "PartialBijection":
        return self.compose(other)

    @property
    def label(self) -> str:
        """Canonical printable name: "0", "id{..}" or "(x>y,..)"."""
        if not self.pairs:
            return "0"
        if all(x == y for x, y in self.pairs):
            return "id{" + ",".join(str(x) for x, _ in self.pairs) + "}"
        return "(" + ",".join(f"{x}>{y}" for x, y in self.pairs) + ")"

    def __repr__(self):
        return f"PartialBijection<{self.label} on {self.carrier}>"


@dataclass(eq=False)
class InvSemigroup:
    """Finite inverse semigroup on indices 0..n-1.

    ``table[i, j]`` is the product index, ``star[i]`` the unique generalized
    inverse.  ``order`` holds the natural partial order pairs (s, t) meaning
    s <= t, and ``zero`` the absorbing element if one exists.  For semigroups
    generated from partial bijections, ``pbijs[i]`` stores the concrete map.
    """

    labels: tuple
    table: np.ndarray
    star: np.ndarray
    idempotents: tuple
    order: frozenset
    zero: int | None
    pbijs: tuple | None = None
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.star[i])

    def index(self, label) -> int:
        return self._index[label]

    @property
    def is_group(self) -> bool:
        return len(self.idempotents) == 1

    def leq(self, s: int, t: int) -> bool:
        return (s, t) in self.order

    @classmethod
    def from_table(cls, table, labels=None, star=None, zero=None) -> "InvSemigroup":
        """Build and fully validate an abstract inverse semigroup.

        ``star`` is optional: the unique generalized-inverse map is
        reconstructed from the table (and cross-checked when supplied).
        ``zero`` designates an absorbing element; the designation is what
        triggers the zero-ideal convention for actions, so it is never
        inferred from the table.
        """
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        found = validate_inverse(table)
        if star is not None and not np.array_equal(np.asarray(star, dtype=int), found):
            raise NonUniqueInverse("<supplied star>", [tuple(star), tuple(found)])
        labels = tuple(labels) if labels is not None else tuple(f"s{i}" for i in range(n))
        idem = tuple(i for i in range(n) if table[i, i] == i)
        if zero is not None and not (
            np.all(table[zero, :] == zero) and np.all(table[:, zero] == zero)
        ):
            raise ValueError(f"designated zero {zero} is not absorbing")
        sg = cls(labels, table, found, idem, frozenset(), zero, None)
        sg.order = natural_order(sg)
        return sg


def _assoc_witness(table: np.ndarray) -> tuple | None:
    """First (i, j, k) with (ij)k != i(jk), or None; vectorized per row."""
    n = table.shape[0]
    for i in range(n):
        lhs = table[table[i, :], :]        # [j, k] -> (i j) k
        rhs = table[i, table]              # [j, k] -> i (j k)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            j, k = bad[0]
            return (i, int(j), int(k))
    return None


def validate_inverse(table) -> np.ndarray:
    """Return the unique star map of an inverse-semigroup table.

    Checks associativity, existence and uniqueness of generalized inverses
    (t = t u t and u = u t u), and, redundantly, that idempotents commute.
    """
    table = np.asarray(table, dtype=int)
    n = table.shape[0]
    if table.shape != (n, n) or (n and (table.min() < 0 or table.max() >= n)):
        raise NotAssociative("<malformed table>")
    bad = _assoc_witness(table)
    if bad is not None:
        raise NotAssociative(bad)
    star = np.empty(n, dtype=int)
    for t in range(n):
        cands = [
            u
            for u in range(n)
            if table[table[t, u], t] == t and table[table[u, t], u] == u
        ]
        if not cands:
            raise NoGeneralizedInverse(t)
        if len(cands) > 1:
            raise NonUniqueInverse(t, cands)
        star[t] = cands[0]
    idem = [i for i in range(n) if table[i, i] == i]
    for e, f in itertools.combinations(idem, 2):
        if table[e, f] != table[f, e]:
            raise IdempotentsDoNotCommute((e, f))
    return star


def natural_order(sg: InvSemigroup) -> frozenset:
    """Pairs (s, t) with s <= t, i.e. s = t (s* s); asserted to be a partial order."""
    n = len(sg)
    pairs = set()
    for s in range(n):
        ss = sg.mul(sg.inv(s), s)
        for t in range(n):
            if sg.mul(t, ss) == s:
                pairs.add((s, t))
    for s in range(n):
        assert (s, s) in pairs, "natural order is not reflexive"
    below = {t: [s for s, t2 in pairs if t2 == t] for t in range(n)}
    for s, t in pairs:
        if (t, s) in pairs:
            assert s == t, "natural order is not antisymmetric"
        for r in below[s]:
            assert (r, t) in pairs, "natural order is not transitive"
    return frozenset(pairs)


def generate_semigroup(generators, cap: int = DEFAULT_CAP) -> InvSemigroup:
    """Breadth-first closure of partial bijections under composition and inverse.

    Elements are deduplicated by their graph and ordered by discovery, so the
    enumeration is deterministic.  The empty map, when reached, becomes the
    semigroup zero.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    carrier = gens[0].carrier
    for g in gens:
        if g.carrier != carrier:
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
        new: list[PartialBijection] = []

        def visit(p):
            if register(p):
                new.append(p)

        for x in frontier:
            visit(x.invert())
        known = list(elems)
        for x in frontier:
            for y in known:
                visit(x.compose(y))
                visit(y.compose(x))
        frontier = new

    n = len(elems)
    table = np.empty((n, n), dtype=int)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = index[x.compose(y).pairs]
    star = np.array([index[x.invert().pairs] for x in elems], dtype=int)
    idem = tuple(i for i in range(n) if table[i, i] == i)
    labels = tuple(x.label for x in elems)
    # by convention only the empty map is registered as the semigroup zero
    zero = index.get((), None)
    sg = InvSemigroup(labels, table, star, idem, frozenset(), zero, tuple(elems))
    sg.order = natural_order(sg)
    return sg


def wagner_preston_embed(sg: InvSemigroup) -> list[PartialBijection]:
    """Regular embedding t -> (x -> t x) on the carrier of element labels.

    The image of t has domain {x : t* t x = x}; the resulting map is an
    injective star-compatible homomorphism (asserted).
    """
    carrier = tuple(sg.labels)
    maps = []
    for t in range(len(sg)):
        tt = sg.mul(sg.inv(t), t)
        pairs = tuple(
            (sg.labels[x], sg.labels[sg.mul(t, x)])
            for x in range(len(sg))
            if sg.mul(tt, x) == x
        )
        maps.append(PartialBijection(carrier, pairs))
    assert len({m.pairs for m in maps}) == len(maps), "embedding is not injective"
    for s in range(len(sg)):
        for t in range(len(sg)):
            assert maps[s].compose(maps[t]).pairs == maps[sg.mul(s, t)].pairs, (
                "embedding is not a homomorphism"
            )
        assert maps[sg.inv(s)].pairs == maps[s].invert().pairs, (
            "embedding does not commute with star"
        )
    return maps
