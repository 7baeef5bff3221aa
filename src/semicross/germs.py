"""The section coordinates of a certified action, combinatorially.

For an action that ``induce_action`` built from partial bijections theta,
the structure tensor of the section algebra comes from theta's int rows
(``_theta_tensor``).  For it, and for an action that ``validate_action``
passed whose ideal bases are distinct identity rows, the order-difference
ideal N is the span of the differences within the classes of a partition
of the section coordinates (``_Germs``, built once per action by
``_germs``) from the natural order; for an induced action its classes are
theta's germs.  ``ell1`` reads N, its quotient and the exact quotient norm
off that partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import DEFAULT_TOL, classes_by_first
from .actions import Action
from .semigroups import _inverse_rows, _pbij_rows


def _theta_tensor(action: Action) -> tuple:
    """``structure_tensor`` from theta: m_(s,y) * m_(t,x) = m_(st,y) with
    coefficient 1 when x = theta_s^-1(y) lies in the image of theta_t, in
    the order of (s, t, y), which is that of (s, t, a, b, k).  Here at[t, y]
    is the coordinate of (t, y), else -1 (also in one padding column), and
    back[t, y] is theta_t^-1(y), else the padding point n."""
    points, table = action.algebra.points, action.semigroup.table
    back = _inverse_rows(_pbij_rows(points, action._theta.maps))
    el, y = np.nonzero(back >= 0)  # the coordinates (t, y), in dense order
    at = np.full((len(back), len(points) + 1), -1, dtype=np.intp)
    at[el, y] = np.arange(len(el))
    back = np.where(back >= 0, back, len(points))
    nz = np.array(action.nonzero_elements, dtype=np.intp)
    # s has one entry per t and x in the domain of theta_s and the image of theta_t
    held = np.append((at[nz, :-1] >= 0).sum(0), 0)
    ends = np.cumsum(held[back[nz]].sum(1))
    I, J, K = np.empty((3, ends[-1] if len(nz) else 0), dtype=np.intp)
    step = max(1, 2**18 // max(1, len(nz) * back.shape[1]))
    for lo in range(0, len(nz), step):
        s = nz[lo : lo + step]
        b = at[nz][:, back[s]].swapaxes(0, 1)  # (s, t, y): the coordinate of (t, x)
        a, t, y = np.nonzero(b >= 0)
        part = slice(ends[lo - 1] if lo else 0, ends[lo + len(s) - 1])
        I[part], J[part], K[part] = at[s[a], y], b[a, t, y], at[table[s[a], nz[t]], y]
    return I, J, K, np.ones(len(I), dtype=complex)


@dataclass(eq=False)
class _Germs:
    """The partition of the section coordinates whose within-class
    differences span N (see ``null_ideal``).  The members of a class are
    one algebra coordinate i at several elements t, and the classes of the
    entries of one block of the algebra make up one block class, whose
    members (t, block) hold the whole block.  For C(X) the two coincide, and
    for an induced action they are Exel's germs ("Inverse semigroups and
    combinatorial C*-algebras", 2008).  Classes and block classes are
    numbered in the order of their first coordinates.
    """

    label: np.ndarray  # the class of each coordinate
    first: np.ndarray  # the first coordinate of each class
    owner: np.ndarray  # the position in offsets of each coordinate's element
    group: np.ndarray  # the block class of each class
    coord: np.ndarray  # the algebra coordinate of each class

    @property
    def count(self) -> int:
        return len(self.first)

    @cached_property
    def ranks(self) -> list:
        """The partition grouped once, by rank in class: item r holds the
        (r+1)-th coordinates j of the classes that have one, in class order,
        and for r >= 1 their rows in ``basis``: j less the firsts up to j."""
        order, size = np.argsort(self.label, kind="stable"), np.bincount(self.label)
        rank = np.arange(len(order)) - np.repeat(np.cumsum(size) - size, size)
        groups = np.split(order[np.argsort(rank, kind="stable")], np.cumsum(np.bincount(rank))[:-1])
        return [(j, j - np.searchsorted(self.first, j, side="right")) for j in groups]

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal class contrasts, in the order of their coordinates:
        for a coordinate j of rank r >= 1 in its class, the sum of the r
        coordinates of the class before it less r e_j, over sqrt(r (r + 1)).
        Built one rank at a time, and read-only."""
        n = len(self.label)
        below = np.empty((len(self.ranks), self.count), dtype=np.intp)  # [rank, class]
        out = np.zeros((n - self.count, n), dtype=complex)
        for r, (j, row) in enumerate(self.ranks):
            below[r, self.label[j]] = j
            if r:  # the r coordinates of the class before j, then j
                weights = np.append(np.ones(r), -r) / np.sqrt(r * (r + 1.0))
                out[row, below[: r + 1, self.label[j]]] = weights[:, None]
        out.flags.writeable = False
        return out

    def contrasts(self, cols: np.ndarray) -> np.ndarray:
        """``basis @ cols`` up to rounding, for rows ``cols`` (D, k), with no
        basis built: running sums of each class's rows, one rank at a time."""
        run = cols[self.first].astype(complex, copy=False)  # rank 0: the first of each class
        out = np.empty((len(self.label) - self.count, cols.shape[1]), dtype=complex)
        for r, (j, row) in enumerate(self.ranks[1:], 1):
            out[row] = (run[self.label[j]] - r * cols[j]) / np.sqrt(r * (r + 1.0))
            run[self.label[j]] += cols[j]
        return out

    @cached_property
    def projection(self) -> np.ndarray:
        """(class, coordinate): the class sums."""
        out = np.zeros((self.count, len(self.label)), dtype=complex)
        out[self.label, np.arange(len(self.label))] = 1.0
        return out

    @cached_property
    def hold(self) -> np.ndarray:
        """(block class, element): 1 where the element holds a member."""
        out = np.zeros((self.group.max(initial=-1) + 1, self.owner[-1] + 1))
        out[self.group[self.label], self.owner] = 1.0
        return out


def _germs(action: Action, tol: float = DEFAULT_TOL):
    """The ``_Germs`` of an action, once (``_block_germs``), for an action
    that ``induce_action`` built, which theta certifies, or that
    ``validate_action`` passed at ``tol``.  None for any other action, or
    when the ideal bases are not distinct identity rows."""
    if getattr(action, "_theta", None) is None and tol not in getattr(action, "_valid", ()):
        return None
    if not hasattr(action, "_germ"):
        action._germ = _block_germs(action)
    return action._germ


def _block_germs(action: Action):
    """The classes of a valid action (validated, or induced and so certified
    by theta) whose ideal bases are distinct identity rows, else None.  The
    seed a delta_s - a delta_t at a = e_i is e_(s,i) - e_(t,i), and I_s is
    a sum of whole blocks, so the classes of the pairs (t, block) linked by
    s <= t, both holding the block, give those of the coordinates (t, i).
    The class of (t, b) has a least member (r, b) with r <= t: r = t e for
    the least idempotent e whose ideal holds alpha_t*(b), as
    alpha_t(I_t* & I_e) = I_te.  So r is the element below t holding b with
    the fewest elements below it."""
    sg, A = action.semigroup, action.algebra
    dims = [action.ideal(t).dim for t in action.offsets]
    rows = np.vstack([action.ideal(t).basis for t in action.offsets] + [np.zeros((0, A.dim))])
    j, alg = np.nonzero(rows)
    owner = np.repeat(np.arange(len(dims)), dims)
    keys = np.sort(owner[j] * A.dim + alg)  # one unit vector per row, none twice in an ideal
    if not np.array_equal(j, np.arange(len(rows))) or (rows[j, alg] != 1).any() \
            or (keys[1:] == keys[:-1]).any():
        return None
    block = np.empty(A.dim, dtype=np.intp)
    for b, idx in enumerate(A.blocks):
        block[idx] = b
    n, nb, el = len(sg), len(A.blocks), np.array(action.nonzero_elements)[owner]
    holds = np.zeros((n, nb), dtype=bool)
    holds[el, block[alg]] = True
    s, t = np.array(list(sg.order), dtype=np.intp).reshape(-1, 2).T
    pair, b = np.nonzero(holds[s])
    below = np.bincount(t, minlength=n)  # the elements below each element
    least = np.full(n * nb, np.iinfo(np.intp).max)  # per (t, b): fewest below, then least index
    np.minimum.at(least, t[pair] * nb + b, below[s[pair]] * n + s[pair])
    group_key = least[el * nb + block[alg]] % n * nb + block[alg]
    label, first = classes_by_first(group_key * A.dim + alg)
    return _Germs(label, first, owner, classes_by_first(group_key)[0][first], alg[first])
