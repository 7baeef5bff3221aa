"""Finite inverse semigroups: partial bijections, generated closures,
abstract Cayley tables, the natural partial order, and the regular embedding
into partial bijections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import blocks, classes_by_first
from .errors import (
    CarrierMismatch,
    NoGeneralizedInverse,
    NonUniqueInverse,
    NotAHomomorphism,
    NotAssociative,
    SchemaError,
    SizeCapExceeded,
    ZeroNotAbsorbing,
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
    def _canonical(cls, carrier: tuple, pairs: tuple) -> "PartialBijection":
        """A map from parts already in the form ``__post_init__`` gives and
        checks (a sorted carrier, injective pairs on it sorted by source),
        built without re-sorting or re-checking them."""
        out = object.__new__(cls)
        object.__setattr__(out, "carrier", carrier)
        object.__setattr__(out, "pairs", pairs)
        return out

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

    @cached_property
    def cover(self) -> tuple:
        """Indices whose products give every element: the letters of a
        generated semigroup, else ``_generating_cover`` of the table."""
        return tuple(_generating_cover(self.table))

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
        if labels is not None and (len(labels) != n or len(set(labels)) != n):
            raise SchemaError(f"labels: expected {n} distinct names, got {list(labels)}")
        found = validate_inverse(table)
        if star is not None and not np.array_equal(np.asarray(star, dtype=int), found):
            raise NonUniqueInverse("<supplied star>", [tuple(star), tuple(found)])
        labels = tuple(labels) if labels is not None else tuple(f"s{i}" for i in range(n))
        idem = tuple(i for i in range(n) if table[i, i] == i)
        if zero is not None and not (
            isinstance(zero, (int, np.integer))
            and 0 <= zero < n
            and (table[zero, :] == zero).all()
            and (table[:, zero] == zero).all()
        ):
            raise ZeroNotAbsorbing(zero)
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


def _generating_cover(table: np.ndarray) -> list[int]:
    """Greedy generating set in index order: i joins unless it is already a
    product of earlier members, closing under table products only."""
    inside = np.zeros(len(table), dtype=bool)
    closed = np.empty(0, dtype=int)
    cover = []
    for i in range(len(table)):
        if inside[i]:
            continue
        cover.append(i)
        inside[i] = True
        batch = np.array([i])
        while batch.size:
            closed = np.concatenate([closed, batch])
            prods = np.concatenate(
                [table[np.ix_(batch, closed)].ravel(), table[np.ix_(closed, batch)].ravel()]
            )
            fresh = np.zeros(len(table), dtype=bool)
            fresh[prods] = True
            batch = np.flatnonzero(fresh & ~inside)  # sorted, each once
            inside[batch] = True
    return cover


def _light_test(table: np.ndarray) -> bool:
    """Light's associativity test over a generating cover.

    Checks (x y) g = x (y g) for all x, y and each g of the cover.  That is
    enough: if g and h pass, so does gh, since for all x, y
    (x y)(g h) = ((x y) g) h = (x (y g)) h = x ((y g) h) = x (y (g h)),
    using h, then g, then h twice.  So the elements that pass are closed
    under products, and holding the cover they hold all of S.  A cover is
    all of S at worst (a chain semilattice), and then this is the full
    O(|S|^3) scan; the memory stays O(|S|^2).
    """
    for g in _generating_cover(table):
        col = table[:, g]
        if not np.array_equal(col[table], table[:, col]):
            return False
    return True


def validate_inverse(table) -> np.ndarray:
    """Return the unique star map of an inverse-semigroup table.

    Checks associativity (by ``_light_test``; on failure the full scan names
    the first triple in row-major order), and existence and uniqueness of
    generalized inverses (t = t u t and u = u t u), which make idempotents
    commute (Howie 1995, ch. 5).
    """
    table = np.asarray(table, dtype=int)
    n = table.shape[0]
    if table.shape != (n, n) or (n and (table.min() < 0 or table.max() >= n)):
        raise NotAssociative("<malformed table>")
    if not _light_test(table):
        raise NotAssociative(_assoc_witness(table))
    every = np.arange(n)
    inverse = (  # [t, u]: t u t = t and u t u = u
        (table[table, every[:, None]] == every[:, None]) & (table[table.T, every] == every)
    )
    count = inverse.sum(axis=1)
    if (count != 1).any():
        t = int(np.flatnonzero(count != 1)[0])
        if not count[t]:
            raise NoGeneralizedInverse(t)
        raise NonUniqueInverse(t, np.flatnonzero(inverse[t]).tolist())
    return inverse.argmax(axis=1)


def natural_order(sg: InvSemigroup) -> frozenset:
    """Pairs (s, t) with s <= t, i.e. s = t (s* s): on a semigroup from
    ``from_table`` or ``generate_semigroup`` a partial order (Lawson 1998,
    ch. 1), which the test suite proves rather than this function."""
    every = np.arange(len(sg))
    s, t = np.nonzero(sg.table[:, sg.table[sg.star, every]].T == every[:, None])
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
    """The map of an injective int row on a sorted carrier: its pairs come
    out sorted by source, so it is built unchecked."""
    return PartialBijection._canonical(
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


def _froidure_pin(letters: np.ndarray, cap: int) -> tuple:
    """Distinct rows of the semigroup generated by the letter rows.

    Froidure and Pin's enumeration ("Algorithms for computing finite
    semigroups", 1997): each row found is multiplied on the right by each
    letter only, and each product is looked up by its bytes.  Returns the
    rows in order of discovery, the right Cayley graph ``right[x, a]`` (the
    index of x o letter a), the index of each letter, and for each row the
    (parent, letter) pair it was first found as, with parent -1 for letters.
    """
    width = letters.shape[1]
    index: dict[bytes, int] = {}
    blocks, parent, via = [], [], []

    def register(rows, parents, lets) -> np.ndarray:
        """Index of each row; rows not seen yet are appended in order."""
        step = rows.itemsize * width
        keys = rows.tobytes()
        idx = np.empty(len(rows), dtype=np.intp)
        fresh = []
        for r in range(len(rows)):
            key = keys[r * step:(r + 1) * step]
            i = index.get(key)
            if i is None:
                if len(index) >= cap:
                    raise SizeCapExceeded(cap)
                i = index[key] = len(index)
                fresh.append(r)
                parent.append(parents[r])
                via.append(lets[r])
            idx[r] = i
        blocks.append(rows[fresh])
        return idx

    n_letters = len(letters)
    letter_idx = register(letters, [-1] * n_letters, range(n_letters))
    right = []
    while len(blocks[-1]):
        frontier = blocks[-1]
        first = len(index) - len(frontier)
        # x o a for each frontier x, then each letter a
        prods = _undefined_column(frontier)[:, letters].reshape(len(frontier) * n_letters, width)
        parents = np.repeat(np.arange(first, len(index)), n_letters).tolist()
        right.append(register(prods, parents, list(range(n_letters)) * len(frontier)))
    right = np.concatenate(right).reshape(len(index), n_letters)
    return np.vstack(blocks), right, letter_idx, parent, via


def _discovery_order(table: np.ndarray, star: np.ndarray, firsts) -> np.ndarray:
    """Indices in the order the breadth-first closure registers them.

    Each round registers the inverses of the frontier, then, for each
    frontier element x and each y known at that point, x o y and y o x;
    only first occurrences count.  Replayed on indices over the finished
    table, one round at a time.
    """
    seen = np.zeros(len(table), dtype=bool)
    order = []

    def register(cands: np.ndarray) -> np.ndarray:
        cands = cands[~seen[cands]]
        new = cands[classes_by_first(cands)[1]]
        seen[new] = True
        order.append(new)
        return new

    frontier = register(np.asarray(firsts))
    while frontier.size:
        inverses = register(star[frontier])
        known = np.concatenate(order)
        pairs = np.stack(
            [table[np.ix_(frontier, known)], table[np.ix_(known, frontier)].T], axis=2
        )
        frontier = np.concatenate([inverses, register(pairs.ravel())])
    return np.concatenate(order)


def generate_semigroup(generators, cap: int = DEFAULT_CAP) -> InvSemigroup:
    """Closure of partial bijections under composition and inverse.

    The closure is the semigroup generated by the letters G and G*, found by
    ``_froidure_pin`` with |S| * 2|G| row products.  The Cayley table then
    follows from the right Cayley graph R one column at a time: y = p o a
    gives table[:, y] = R[table[:, p], a].  The star follows likewise, from
    (p o a)* = a* o p*.

    Elements are ordered as the breadth-first closure discovers them, so the
    enumeration is deterministic (see ``_discovery_order``).  The empty map,
    when reached, becomes the semigroup zero.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    carrier = gens[0].carrier
    for g in gens:
        if g.carrier != carrier:
            raise CarrierMismatch("generators live on different carriers")

    rows = _pbij_rows(carrier, gens)
    letters = np.vstack([rows, _inverse_rows(rows)])
    elems, right, letter_idx, parent, via = _froidure_pin(letters, cap)
    n = len(elems)
    inverse_letter = np.roll(letter_idx.reshape(2, -1), 1, axis=0).ravel()
    cols = np.empty((n, n), dtype=int)  # cols[y] = table[:, y]
    for y, (p, a) in enumerate(zip(parent, via)):
        cols[y] = right[:, a] if p < 0 else right[cols[p], a]
    star = np.empty(n, dtype=int)
    for y, (p, a) in enumerate(zip(parent, via)):
        star[y] = inverse_letter[a] if p < 0 else cols[star[p], inverse_letter[a]]
    order = _discovery_order(cols.T, star, letter_idx[: len(gens)])
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    table = np.ascontiguousarray(rank[cols[np.ix_(order, order)].T])
    star = rank[star[order]]
    elems = elems[order]
    idem = tuple(np.flatnonzero(table.diagonal() == np.arange(n)).tolist())
    pbijs = tuple(_to_pbij(carrier, row) for row in elems)
    labels = tuple(x.label for x in pbijs)
    # by convention only the empty map is registered as the semigroup zero
    empty = np.flatnonzero((elems < 0).all(axis=1))
    zero = int(empty[0]) if empty.size else None
    sg = InvSemigroup(labels, table, star, idem, frozenset(), zero, pbijs)
    # every element is a product of letters, as _froidure_pin found it
    sg.order, sg.cover = natural_order(sg), tuple(sorted(set(rank[letter_idx].tolist())))
    return sg


def check_homomorphism(sg: InvSemigroup, maps) -> None:
    """Raise NotAHomomorphism at the first (s, t), in row-major order, with
    maps[s] o maps[t] != maps[st]; all maps live on one carrier."""
    _check_rows(sg, _pbij_rows(maps[0].carrier, maps))


def _check_rows(sg: InvSemigroup, rows: np.ndarray) -> None:
    """maps[s] o maps[g] = maps[sg] for every s and each g of the cover.

    On int rows that is exact and enough, by the induction of
    ``_light_test``: if t and u pass, then for every s
    maps[s] o maps[tu] = (maps[s] o maps[t]) o maps[u] = maps[st] o maps[u]
    = maps[s(tu)].  Only after a failure does the row-major scan run, to
    name the first (s, t)."""
    ext, cover = _undefined_column(rows), np.array(sg.cover, dtype=np.intp)
    for part in blocks(len(cover), rows.size):
        g = cover[part]
        if (ext[:, rows[g]] != rows[sg.table[:, g]]).any():
            break
    else:
        return
    for s, r in enumerate(ext):
        bad = (r[rows] != rows[sg.table[s]]).any(axis=1)
        if bad.any():
            raise NotAHomomorphism(sg.labels[s], sg.labels[int(np.argmax(bad))])


def wagner_preston_embed(sg: InvSemigroup) -> list[PartialBijection]:
    """Regular embedding t -> (x -> t x) on the carrier of element labels.

    The image of t has domain {x : t* t x = x}.  On a semigroup from
    ``from_table`` or ``generate_semigroup`` with distinct labels this is an
    injective star-compatible homomorphism (Wagner-Preston; Howie 1995,
    ch. 5), which the test suite proves rather than this function.
    """
    carrier = tuple(sorted(set(sg.labels)))
    every = np.arange(len(sg))
    rank = {lab: i for i, lab in enumerate(carrier)}
    pos = np.array([rank[lab] for lab in sg.labels], dtype=np.intp)
    domain = sg.table[sg.table[sg.star, every][:, None], every] == every  # [t, x]
    rows = np.full(sg.table.shape, -1, dtype=np.intp)
    rows[:, pos] = np.where(domain, pos[sg.table], -1)
    return [_to_pbij(carrier, row) for row in rows]
