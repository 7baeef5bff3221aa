"""Finite inverse semigroups: partial bijections, generated closures,
abstract Cayley tables, the natural partial order, and the regular embedding
into partial bijections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CarrierMismatch,
    IdempotentsDoNotCommute,
    NoGeneralizedInverse,
    NonUniqueInverse,
    NotAHomomorphism,
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
        bad = lhs != rhs
        if bad.any():
            j, k = np.argwhere(bad)[0]
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
    every = np.arange(n)
    for t in range(n):
        cands = np.flatnonzero(
            (table[table[t], t] == t) & (table[table[:, t], every] == every)
        )
        if not cands.size:
            raise NoGeneralizedInverse(t)
        if cands.size > 1:
            raise NonUniqueInverse(t, cands.tolist())
        star[t] = cands[0]
    idem = np.flatnonzero(table[every, every] == every)
    sub = table[np.ix_(idem, idem)]
    clash = np.argwhere(np.triu(sub != sub.T, 1))
    if clash.size:
        i, j = clash[0]
        raise IdempotentsDoNotCommute((int(idem[i]), int(idem[j])))
    return star


def natural_order(sg: InvSemigroup) -> frozenset:
    """Pairs (s, t) with s <= t, i.e. s = t (s* s); asserted to be a partial order."""
    n = len(sg)
    every = np.arange(n)
    leq = sg.table[:, sg.table[sg.star, every]].T == every[:, None]  # [s, t]
    assert leq[every, every].all(), "natural order is not reflexive"
    assert not (leq & leq.T)[~np.eye(n, dtype=bool)].any(), (
        "natural order is not antisymmetric"
    )
    for s in range(n):
        below, above = np.flatnonzero(leq[:, s]), np.flatnonzero(leq[s])
        assert leq[np.ix_(below, above)].all(), "natural order is not transitive"
    s, t = np.nonzero(leq)
    return frozenset(zip(s.tolist(), t.tolist()))


# ----- partial bijections as int rows over the sorted carrier: row[i] is the
# position of the image of carrier[i], or -1 where the map is undefined


def _pbij_rows(carrier: tuple, pbijs) -> np.ndarray:
    """One row per partial bijection on ``carrier`` (already sorted)."""
    pos = {x: i for i, x in enumerate(carrier)}
    rows = np.full((len(pbijs), len(carrier)), -1, dtype=np.intp)
    for r, p in enumerate(pbijs):
        for x, y in p.pairs:
            rows[r, pos[x]] = pos[y]
    return rows


def _to_pbij(carrier: tuple, row: np.ndarray) -> PartialBijection:
    return PartialBijection(
        carrier, tuple((carrier[i], carrier[j]) for i, j in enumerate(row.tolist()) if j >= 0)
    )


def _undefined_column(rows: np.ndarray) -> np.ndarray:
    """``rows`` with a trailing -1, so that ``ext[:, y]`` composes with y even where y is -1."""
    return np.hstack([rows, np.full((rows.shape[0], 1), -1, dtype=rows.dtype)])


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    out = np.full_like(rows, -1)
    r, x = np.nonzero(rows >= 0)
    out[r, rows[r, x]] = x
    return out


def _keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row: its bytes."""
    rows = np.ascontiguousarray(rows)
    key = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    if not key.itemsize:  # no points: every row is the empty map
        return np.zeros(len(rows), dtype=key)
    return rows.view(key).ravel()


class _RowIndex:
    """Distinct rows in discovery order, looked up in batches by key."""

    def __init__(self, rows: np.ndarray, cap: int):
        self.cap = cap
        self.rows = rows[:0]
        self.keys = _keys(self.rows)
        self.register(rows)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Position of the row with each key, or -1 where there is none."""
        if not self.keys.size:
            return np.full(keys.shape, -1)
        pos = np.searchsorted(self.sorted, keys).clip(max=self.keys.size - 1)
        return np.where(self.sorted[pos] == keys, self.order[pos], -1)

    def register(self, rows: np.ndarray) -> None:
        """Append the rows not seen yet, once each, in order of first occurrence."""
        keys = _keys(rows)
        fresh = self.find(keys) < 0
        first = np.sort(np.unique(keys[fresh], return_index=True)[1])
        if self.keys.size + first.size > self.cap:
            raise SizeCapExceeded(self.cap)
        self.rows = np.vstack([self.rows, rows[fresh][first]])
        self.keys = np.concatenate([self.keys, keys[fresh][first]])
        self.order = np.argsort(self.keys)
        self.sorted = self.keys[self.order]


def generate_semigroup(generators, cap: int = DEFAULT_CAP) -> InvSemigroup:
    """Breadth-first closure of partial bijections under composition and inverse.

    Elements are deduplicated by their graph and ordered by discovery, so the
    enumeration is deterministic: each round registers the inverses of the
    frontier, then, for each frontier element x and each y known at that
    point, x o y and y o x.  The empty map, when reached, becomes the
    semigroup zero.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    carrier = gens[0].carrier
    for g in gens:
        if g.carrier != carrier:
            raise CarrierMismatch("generators live on different carriers")

    index = _RowIndex(_pbij_rows(carrier, gens), cap)
    start = 0
    while start < len(index.rows):
        frontier = index.rows[start:]
        start = len(index.rows)
        index.register(_inverse_rows(frontier))
        known = index.rows
        known_ext = _undefined_column(known)
        for x in frontier:
            # x o y and y o x interleaved, for y in known order
            pair = np.stack([np.append(x, -1)[known], known_ext[:, x]], axis=1)
            index.register(pair.reshape(2 * len(known), len(carrier)))

    elems = index.rows
    n = len(elems)
    ext = _undefined_column(elems)
    table = np.empty((n, n), dtype=int)
    for i in range(n):
        table[i] = index.find(_keys(ext[i][elems]))
    star = index.find(_keys(_inverse_rows(elems)))
    idem = tuple(np.flatnonzero(table.diagonal() == np.arange(n)).tolist())
    pbijs = tuple(_to_pbij(carrier, row) for row in elems)
    labels = tuple(x.label for x in pbijs)
    # by convention only the empty map is registered as the semigroup zero
    empty = np.flatnonzero((elems < 0).all(axis=1))
    zero = int(empty[0]) if empty.size else None
    sg = InvSemigroup(labels, table, star, idem, frozenset(), zero, pbijs)
    sg.order = natural_order(sg)
    return sg


def check_homomorphism(sg: InvSemigroup, maps) -> None:
    """Raise NotAHomomorphism at the first (s, t), in row-major order, with
    maps[s] o maps[t] != maps[st]; all maps live on one carrier."""
    _check_rows(sg, _pbij_rows(maps[0].carrier, maps))


def _check_rows(sg: InvSemigroup, rows: np.ndarray) -> None:
    for s, r in enumerate(_undefined_column(rows)):
        bad = (r[rows] != rows[sg.table[s]]).any(axis=1)
        if bad.any():
            raise NotAHomomorphism(sg.labels[s], sg.labels[int(np.argmax(bad))])


def wagner_preston_embed(sg: InvSemigroup) -> list[PartialBijection]:
    """Regular embedding t -> (x -> t x) on the carrier of element labels.

    The image of t has domain {x : t* t x = x}; the resulting map is an
    injective star-compatible homomorphism (checked).
    """
    carrier = tuple(sorted(set(sg.labels)))
    n = len(sg)
    every = np.arange(n)
    rank = {lab: i for i, lab in enumerate(carrier)}
    pos = np.array([rank[lab] for lab in sg.labels], dtype=np.intp)
    domain = sg.table[sg.table[sg.star, every][:, None], every] == every  # [t, x]
    rows = np.full((n, n), -1, dtype=np.intp)
    rows[:, pos] = np.where(domain, pos[sg.table], -1)
    assert np.unique(_keys(rows)).size == n, "embedding is not injective"
    _check_rows(sg, rows)
    assert np.array_equal(rows[sg.star], _inverse_rows(rows)), (
        "embedding does not commute with star"
    )
    return [_to_pbij(carrier, row) for row in rows]
