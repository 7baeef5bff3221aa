"""The section algebra of an action: finitely supported maps t -> I_t with
the convolution product

    (f * g)(r) = sum over st = r of alpha_s(alpha_{s*}(f(s)) g(t)),

the norm ||f||_1 = sum of ideal norms, the involution (when the coefficient
algebra has one), the ideal generated by the order differences
a delta_s - a delta_t for s <= t, and quotients by such ideals.

Every product contracts one sparse structure tensor per (action, tol); that
each summand lands in the ideal of its product element is checked once, when
the tensor is built; that a ``NullIdeal`` is an ideal, once, when it is.
For an action that ``induce_action`` built from a partial set action theta,
the tensor, the order-difference ideal, the quotient and the quotient norm
come from theta and its germ partition (``_Germs``), exactly and with no
numerical linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, blocks, classes_by_first, first_far, null_rows
from ._linalg import off_rows, orth_rows
from .actions import Action, _stack
from .errors import (
    ActionMismatch,
    ConvolutionEscapesIdeal,
    NotAnIdeal,
    OrderDifferenceNotProduct,
    QuotientNormLPFailed,
    QuotientNormNotLP,
)
from .semigroups import _inverse_rows, _pbij_rows

N_FACETS = 64  # polygonal model of |z| <= m; relative error <= 1 - cos(pi/64)


@dataclass(eq=False)
class Ell1Element:
    """Finitely supported section t -> a_t in I_t.

    Coefficients are stored in each ideal's basis coordinates; elements of
    zero ideals are excluded from the support.
    """

    action: Action
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for t, v in self.coeffs.items():
            v = as_complex(v)
            dim = self.action.ideal(t).dim
            if v.shape != (dim,):
                raise ValueError(f"coefficient at {t} has wrong length")
            if dim and np.count_nonzero(v):  # cheaper than v.any() on short rows
                clean[t] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, action: Action) -> "Ell1Element":
        return cls(action, {})

    @classmethod
    def monomial(cls, action: Action, t: int, a_parent, tol: float = DEFAULT_TOL) -> "Ell1Element":
        """a delta_t for a given in parent-algebra coordinates."""
        return cls(action, {t: action.ideal(t).coords(a_parent, tol)})

    def value(self, t: int) -> np.ndarray:
        """Coefficient at t in parent-algebra coordinates."""
        ideal = self.action.ideal(t)
        if t not in self.coeffs:
            return np.zeros(self.action.algebra.dim, dtype=complex)
        return ideal.to_parent(self.coeffs[t])

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.action.total_dim, dtype=complex)
        offs = self.action.offsets
        for t, v in self.coeffs.items():
            out[offs[t] : offs[t] + v.shape[0]] = v
        return out

    @classmethod
    def from_dense(cls, action: Action, dense) -> "Ell1Element":
        dense = as_complex(dense)
        offs = action.offsets
        return cls(action, {t: dense[o : o + action.ideal(t).dim] for t, o in offs.items()})

    def __add__(self, other: "Ell1Element") -> "Ell1Element":
        if self.action is not other.action:
            raise ActionMismatch("elements of different section algebras")
        out = {t: v.copy() for t, v in self.coeffs.items()}
        for t, v in other.coeffs.items():
            out[t] = out.get(t, 0) + v
        return Ell1Element(self.action, out)

    def __neg__(self) -> "Ell1Element":
        return Ell1Element(self.action, {t: -v for t, v in self.coeffs.items()})

    def __sub__(self, other: "Ell1Element") -> "Ell1Element":
        return self + (-other)

    def scale(self, c) -> "Ell1Element":
        return Ell1Element(self.action, {t: c * v for t, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Ell1Element):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def norm1(self) -> float:
        return ell1_norm(self)

    def star(self) -> "Ell1Element":
        return involution(self)

    def allclose(self, other: "Ell1Element", tol: float = DEFAULT_TOL) -> bool:
        return bool(
            np.allclose(self.to_dense(), other.to_dense(), atol=tol, rtol=0.0)
        )

    def __repr__(self):
        sg = self.action.semigroup
        parts = [
            f"{np.round(self.value(t), 6)} d_{sg.labels[t]}" for t in self.support
        ]
        return " + ".join(parts) if parts else "0"


def structure_tensor(action: Action, tol: float = DEFAULT_TOL) -> tuple:
    """The products of the spanning monomials, once per (action, tol), as
    read-only arrays (I, J, K, C): m_i * m_j = sum of C[e] m_K[e] over the
    entries e with I[e] = i and J[e] = j, in the order of (s, t, i, j, k).

    One build per nonzero s covers every t: the basis a of I_s is pulled
    back through alpha_{s*} once, multiplied with the zero-padded stack of
    every ideal basis b, mapped by alpha_s, and given coordinates in I_st by
    the padded pseudo-inverses gathered by st (padding adds no entries).
    Actions reach here unvalidated, so each alpha_s(alpha_{s*}(a) b) is
    checked to lie in the source of alpha_s and in I_st, by the rule of
    ``Ideal.coords``; if one does not, ``ConvolutionEscapesIdeal`` names the
    first failing t of the first failing s, or (s, the first nonzero t) when
    I_s is off the source of alpha_{s*}.  An induced action takes its
    tensor from theta instead (``_Germs.tensor``), with the same entries."""
    if not hasattr(action, "_tensor"):
        action._tensor = {}
    if tol not in action._tensor:
        germs = _germs(action)
        tensor = _numeric_tensor(action, tol) if germs is None else germs.tensor()
        for arr in tensor:
            arr.flags.writeable = False
        action._tensor[tol] = tensor
    return action._tensor[tol]


def _numeric_tensor(action: Action, tol: float) -> tuple:
    sg, A, d = action.semigroup, action.algebra, action.algebra.dim
    ideals = [action.ideal(r) for r in range(len(sg))]
    basis = _stack([ideal.basis for ideal in ideals])  # (r, row, d)
    pinv = _stack([ideal.pinv.T for ideal in ideals]).swapaxes(1, 2)  # (r, d, column)
    start = np.array([action.offsets.get(r, 0) for r in range(len(sg))])
    nonzero = np.array(action.nonzero_elements, dtype=np.intp)
    others = basis[nonzero].reshape(-1, d)  # (t, b) rows
    entries = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0, dtype=complex),)]
    for s in nonzero:
        source, st = action.paut(s).source, sg.table[s, nonzero]
        try:
            pulled = action.apply(sg.inv(s), ideals[s].basis, tol)
        except np.linalg.LinAlgError:
            raise ConvolutionEscapesIdeal(sg.labels[s], sg.labels[nonzero[0]]) from None
        if not source.dim:  # alpha_s is the zero map
            continue
        prod = others @ np.tensordot(pulled, A.structure, (1, 0))  # (a, (t, b), d)
        c = prod @ source.pinv
        escapes = off_rows(prod - c @ source.basis, prod, tol)
        image = (c @ action.paut(s).matrix).reshape(len(pulled), len(nonzero), -1, d)
        image = image.swapaxes(0, 1).reshape(len(nonzero), -1, d)  # (t, (a, b), d)
        coords = image @ pinv[st]
        bad = off_rows(image - coords @ basis[st], image, tol).any(1)
        bad |= escapes.reshape(len(pulled), len(nonzero), -1).any((0, 2))
        if bad.any():
            t = nonzero[np.argmax(bad)]
            raise ConvolutionEscapesIdeal(sg.labels[s], sg.labels[t])
        coords = coords.reshape(len(nonzero), len(pulled), basis.shape[1], -1)
        t, a, b, k = np.nonzero(coords)
        entries.append(
            (start[s] + a, start[nonzero[t]] + b, start[st[t]] + k, coords[t, a, b, k])
        )
    return tuple(map(np.concatenate, zip(*entries)))


@dataclass(eq=False)
class _Germs:
    """The germ partition of an action that ``induce_action`` built from
    theta (Exel, "Inverse semigroups and combinatorial C*-algebras", 2008).

    The coordinate (t, y) of the section space, y in the image of theta_t,
    is the germ [t, x] at x = theta_t^-1(y), and [s, x] = [t, x] iff
    s e = t e for an idempotent e whose domain holds x, iff s e_x = t e_x
    for the least such e_x.  So (t e_x, x) keys the class of (t, y).
    Classes are numbered in the order of their first coordinates.
    """

    action: Action
    at: np.ndarray  # (element, point + 1): the coordinate of (t, y), else -1
    back: np.ndarray  # (element, point): theta_t^-1(y), else the padding point
    label: np.ndarray  # the class of each coordinate
    first: np.ndarray  # the first coordinate of each class
    owner: np.ndarray  # the position in offsets of each coordinate's element

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

    def tensor(self) -> tuple:
        """``structure_tensor`` from theta: m_(s,y) * m_(t,x) = m_(st,y) with
        coefficient 1 when x = theta_s^-1(y) lies in the image of theta_t,
        in the order of (s, t, y), which is that of (s, t, a, b, k)."""
        at, back, table = self.at, self.back, self.action.semigroup.table
        nz = np.array(self.action.nonzero_elements, dtype=np.intp)
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


def _germs(action: Action):
    """The ``_Germs`` of an action that ``induce_action`` built, once; None
    for any other action."""
    theta = getattr(action, "_theta", None)
    if theta is None:
        return None
    if not hasattr(action, "_germ"):
        sg, n = action.semigroup, len(action.algebra.points)
        back = _inverse_rows(_pbij_rows(action.algebra.points, theta.maps))
        el, y = np.nonzero(back >= 0)  # the coordinates (t, y), in dense order
        at = np.full((len(sg), n + 1), -1, dtype=np.intp)
        at[el, y] = np.arange(len(el))
        idem = np.array(sg.idempotents, dtype=np.intp)
        least = np.empty(n, dtype=np.intp)  # e_x: the product of the e with x in their domain
        for x in range(n):
            least[x] = reduce(lambda e, f: sg.table[e, f], idem[back[idem, x] >= 0])
        x = back[el, y]
        label, first = classes_by_first(sg.table[el, least[x]] * n + x)
        owner = np.searchsorted(np.array(action.nonzero_elements), el)
        action._germ = _Germs(action, at, np.where(back >= 0, back, n), label, first, owner)
    return action._germ


def convolve(f: Ell1Element, g: Ell1Element, tol: float = DEFAULT_TOL) -> Ell1Element:
    """One contraction with the structure tensor at ``tol``; the ideal
    membership of every summand was checked when the tensor was built."""
    if f.action is not g.action:
        raise ActionMismatch("elements of different section algebras")
    I, J, K, C = structure_tensor(f.action, tol)
    out = np.zeros(f.action.total_dim, dtype=complex)
    np.add.at(out, K, f.to_dense()[I] * g.to_dense()[J] * C)
    return Ell1Element.from_dense(f.action, out)


def ell1_norm(f: Ell1Element) -> float:
    # the zero section keeps the int 0 of an empty sum, which the CLI prints as "0"
    return float(ell1_norms(f.action, f.to_dense())) if f.coeffs else 0


def ell1_norms(action: Action, dense):
    """The section norm of a dense section, or of each row of a stack
    (..., total_dim): one algebra norm call, the ideal norms then added in
    element order."""
    dense = as_complex(dense)
    values = [
        dense[..., o : o + action.ideal(t).dim] @ action.ideal(t).basis
        for t, o in action.offsets.items()
    ]
    if not values:
        return np.zeros(dense.shape[:-1])
    return sum(np.moveaxis(action.algebra.norm(np.stack(values, axis=-2)), -1, 0))


def involution(f: Ell1Element, tol: float = DEFAULT_TOL) -> Ell1Element:
    """f^*(t) = alpha_t(f(t^*)^*); needs an involution on the coefficients."""
    act = f.action
    A = act.algebra
    sg = act.semigroup
    out = {}
    for t in f.support:
        u = sg.inv(t)
        val = act.apply(u, A.star(f.value(t)), tol)
        out[u] = act.ideal(u).coords(val, tol)
    return Ell1Element(act, out)


def monomials(action: Action) -> list:
    """One a delta_t per ideal basis vector, in dense coordinate order; they
    span the whole section space."""
    return [Ell1Element.from_dense(action, e) for e in np.eye(action.total_dim)]


def _ideal_witness(action: Action, basis: np.ndarray, comp: np.ndarray, tol: float):
    """None when the row space of the orthonormal ``basis`` is a two-sided
    ideal, else a spanning monomial m_i it fails for: (element label, index
    in its ideal, side).  ``comp`` holds orthonormal rows z with z @ x = 0
    on that space; it is an ideal iff comp @ (m_i * x) = 0 = comp @ (x * m_i)
    for every row x and every m_i, one (q, rows) product per m_i and side.
    Those products are stacked over a block of the m_i with equal entry
    counts at a time, as many as fit a fixed entry budget."""
    I, J, K, C = structure_tensor(action, tol)
    D, q, r = action.total_dim, len(comp), len(basis)
    comp_t, basis_t = np.ascontiguousarray(comp.T), np.ascontiguousarray(basis.T)
    for side, outer, inner in (("left", I, J), ("right", J, I)):
        order, count = np.argsort(outer, kind="stable"), np.bincount(outer, minlength=D)
        start, first = np.cumsum(count) - count, D  # first: the least failing m_i
        for c in set(count.tolist()) - {0}:
            mono = np.flatnonzero(count == c)
            for part in blocks(len(mono), c * (q + r) + q * r):
                e = order[start[mono[part], None] + np.arange(c)]  # the entries of each m_i
                # column x: comp @ (m_i * x) on the left, comp @ (x * m_i) on the right
                off = (comp_t[K[e]] * C[e][..., None]).swapaxes(1, 2) @ basis_t[inner[e]]
                if (bad := (np.linalg.norm(off, axis=1) > tol).any(1)).any():
                    first = min(first, int(mono[part][np.argmax(bad)]))
                    break
        if first < D:
            t = [t for t, o in action.offsets.items() if o <= first][-1]
            return action.semigroup.labels[t], first - action.offsets[t], side
    return None


class NullIdeal:
    """A two-sided ideal N of the section algebra, checked once when built.

    From ``rows``, ``basis`` is their orthonormal span and ``comp`` that of
    its complement, and the span is checked at ``tol`` to be closed under
    the monomials (else ``NotAnIdeal``).  From ``germs``, an induced
    action's own N (exact, see ``null_ideal``), ``basis`` is the class
    contrasts, built on first use.  ``basis`` is read-only either way.
    """

    def __init__(self, action: Action, rows=None, tol: float = DEFAULT_TOL, germs=None):
        self.action, self.tol, self.germs = action, tol, germs
        if germs is None:
            self.basis = orth_rows(rows, tol)
            self.comp = null_rows(self.basis, tol)
            if witness := _ideal_witness(action, self.basis, self.comp, tol):
                raise NotAnIdeal(witness)
            self.basis.flags.writeable = False

    @cached_property
    def basis(self) -> np.ndarray:
        return self.germs.basis

    def basis_times(self, m: np.ndarray) -> np.ndarray:
        """``basis @ m`` for m (D, k); a germ ideal takes ``_Germs.contrasts``,
        O(D k) work with no basis built."""
        return self.basis @ m if self.germs is None else self.germs.contrasts(m)

    @property
    def dim(self) -> int:
        if self.germs is None:
            return self.basis.shape[0]
        return len(self.germs.label) - self.germs.count

    @cached_property
    def program(self):
        """The ``_SectionProgram`` or ``_GermProgram`` of the quotient norm,
        kept with its last optimal basis; None when N is zero."""
        if self.dim == 0:
            return None
        if self.germs is None:
            return _dual_program(self.action, self.basis)
        n_el, g = len(self.action.offsets), self.germs
        hold = np.zeros((n_el, g.count))
        hold[g.owner, g.label] = 1.0
        return _GermProgram(g, hold, np.eye(n_el), np.ones(n_el),
                            _PERTURB * (1 + np.random.default_rng(0).random(n_el)))


def _resolve(action: Action, null, tol: float) -> NullIdeal:
    """``null`` if it is a ``NullIdeal`` of ``action``.  Rows are the
    ``null_ideal`` of ``action`` whose ``basis`` they are (by identity: it
    is read-only), or else a new ``NullIdeal``, checked at ``tol``."""
    if isinstance(null, NullIdeal):
        if null.action is not action:
            raise ActionMismatch("a null ideal of a different section algebra")
        return null
    for known in list(getattr(action, "_null", {}).values()):
        if vars(known).get("basis") is null:
            return known
    return NullIdeal(action, null, tol)


def _order_differences(action: Action, tol: float) -> np.ndarray:
    """The seeds d = a delta_s - a delta_t as dense rows, a over the basis
    of I_s, each checked to equal u * d * v (see ``null_ideal``); the first
    failing (s, t) in the natural order raises."""
    sg, offs, D = action.semigroup, action.offsets, action.total_dim
    I, J, K, C = structure_tensor(action, tol)
    entries = {}  # (e, side) -> the tensor entries that u = 1_e delta_e takes part in

    def by_unit(x, e, outer, inner):  # u * x for (I, J), x * u for (J, I)
        if (e, outer is I) not in entries:
            ideal, u = action.ideal(e), np.zeros(D, dtype=complex)
            u[offs.get(e, 0) : offs.get(e, 0) + ideal.dim] = ideal.coords(ideal.unit, tol)
            on = np.flatnonzero(u[outer])
            entries[e, outer is I] = inner[on], K[on], C[on] * u[outer[on]]
        at, k, c = entries[e, outer is I]
        out = np.zeros((D, len(x)), dtype=complex)
        np.add.at(out, k, (x[:, at] * c).T)
        return out.T

    seeds = [np.zeros((0, D), dtype=complex)]
    for s, t in sorted(sg.order):
        a = action.ideal(s).basis
        if s == t or not len(a):
            continue
        d = np.zeros((len(a), D), dtype=complex)
        try:
            d[:, offs[s] : offs[s] + len(a)] = action.ideal(s).coords(a, tol)
            d[:, offs[t] : offs[t] + action.ideal(t).dim] = -action.ideal(t).coords(a, tol)
            fixed = by_unit(by_unit(d, sg.mul(t, sg.inv(t)), I, J), sg.mul(sg.inv(t), t), J, I)
        except np.linalg.LinAlgError:  # a unit outside its ideal, or I_s outside I_t
            raise OrderDifferenceNotProduct(sg.labels[s], sg.labels[t]) from None
        if first_far(fixed, d, tol):
            raise OrderDifferenceNotProduct(sg.labels[s], sg.labels[t])
        seeds.append(d)
    return np.vstack(seeds)


def null_ideal(action: Action, tol: float = DEFAULT_TOL) -> NullIdeal:
    """The span of the order differences, once per (action, tol).

    For an action the span of the seeds d = a delta_s - a delta_t (s <= t,
    a in I_s) is already an ideal.  On the left, (b delta_r) * d =
    c delta_rs - c delta_rt with c = alpha_r(alpha_{r*}(b) a), and rs <= rt.
    On the right, d * (b delta_r) = c delta_sr - c delta_tr with one
    c = alpha_s(alpha_{s*}(a) b), as alpha_s and alpha_{s*} restrict alpha_t
    and alpha_{t*} (PA1), and sr <= tr.  Actions reach here unvalidated, so
    every seed is checked to equal u * d * v, u = 1_{tt*} delta_{tt*} and
    v = 1_{t*t} delta_{t*t} (else ``OrderDifferenceNotProduct``), and the
    span to be closed under the monomials (else ``NotAnIdeal``, as when PA1
    fails).

    For an action induced by theta, the seeds at a = delta_y are the
    differences e_(s,y) - e_(t,y), s <= t, of coordinates with equal germs,
    and every two coordinates with equal germs [s, x] = [t, x] are linked
    through e_(r,y), r = s e_x = t e_x <= s, t.  So N is the span of the
    differences within the classes of ``_Germs``: it is kept as that
    partition, of dimension D less the number of classes, and its basis is
    the class contrasts.  No seed, SVD or closure check is needed: theta
    was certified exactly when the action was built.
    """
    if not hasattr(action, "_null"):
        action._null = {}
    if tol not in action._null:
        germs = _germs(action)
        rows = _order_differences(action, tol) if germs is None else None
        action._null[tol] = NullIdeal(action, rows, tol, germs)
    return action._null[tol]


@dataclass
class QuotientAlgebra:
    """Section algebra modulo a two-sided ideal, in a pivoted complement basis.

    ``coords`` lists the dense coordinates chosen as the complement basis (in
    coordinate order), ``structure`` the induced structure constants, and
    ``projection`` the matrix sending a dense vector to its class.
    """

    action: Action
    null: NullIdeal
    coords: tuple
    structure: np.ndarray
    projection: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coords)

    def project(self, f: Ell1Element) -> np.ndarray:
        return self.projection @ f.to_dense()


def quotient_algebra(action: Action, null, tol: float = DEFAULT_TOL) -> QuotientAlgebra:
    """The quotient by N, a ``NullIdeal`` or rows as ``_resolve`` takes them.

    The complement coordinates are the greedy choice in coordinate order:
    e_j joins unless it lies in N + span(the e chosen so far).  For an
    induced action's own null ideal that is the first coordinate of each
    germ class, and the projection is the class sums."""
    null = _resolve(action, null, tol)
    if null.germs is not None:
        chosen, proj = null.germs.first, null.germs.projection
    else:
        chosen = _pivots(null.comp, tol)
        proj = np.linalg.solve(null.comp[:, chosen], null.comp)  # x - proj(x) . e_chosen lies in N
    q = len(chosen)
    I, J, K, C = structure_tensor(action, tol)
    pos = np.full(action.total_dim, -1)
    pos[chosen] = np.arange(q)
    keep = (pos[I] >= 0) & (pos[J] >= 0)  # products of the chosen monomials
    structure = np.zeros((q, q, q), dtype=complex)
    np.add.at(structure, (pos[I[keep]], pos[J[keep]]), C[keep, None] * proj[:, K[keep]].T)
    return QuotientAlgebra(action, null, tuple(map(int, chosen)), structure, proj)


def _pivots(comp: np.ndarray, tol: float) -> list:
    """The greedy pivots of ``quotient_algebra`` in the complement rows comp:
    e_j is off N + span(chosen) iff comp e_j is off span(comp chosen), and
    the two distances are equal.  Each chosen column extends orthonormal
    rows by its residual, orthogonalized once more."""
    q = len(comp)
    cur, chosen = np.zeros((q, q), dtype=complex), []
    for j, col in enumerate(comp.T):
        if len(chosen) == q:
            break
        rows = cur[: len(chosen)]
        resid = col - (col @ rows.conj().T) @ rows
        if off_rows(resid, col, tol):
            resid -= (resid @ rows.conj().T) @ rows
            cur[len(chosen)] = resid / np.linalg.norm(resid)
            chosen.append(j)
    return chosen


def quotient_ell1_norm(f: Ell1Element, null, tol: float = DEFAULT_TOL) -> float:
    """inf over the coset f + N of the section norm, via a linear program;
    N is a ``NullIdeal`` or rows as ``_resolve`` takes them.

    Complex moduli are modeled by a 64-facet polygon, so the result can
    undershoot the exact infimum by at most a factor cos(pi/64), a relative
    error below 0.2 percent.  Supported for algebras whose block norms are
    max-of-absolute-sums (all 1x1 blocks, and larger blocks with p in
    {1, inf}); operator-2-norm blocks of size > 1 have no LP model and raise
    ``QuotientNormNotLP``.  The dual of the program is solved by the simplex
    method of ``_dual_simplex``, and its answer is certified before it is
    returned: the polygon-model norm hi of a point of the coset that the
    optimal multipliers give (or of f itself, when that is no higher up to
    rounding) is within tol * max(1, hi) of the dual value lo of a basis
    with lambda >= -tol, else ``QuotientNormLPFailed``.

    For an induced action's own ``null_ideal`` the program has
    one coordinate per germ class C instead of one per section coordinate
    (``_GermProgram``): minimize the sum of m_t subject to
    rho(c_C) <= sum of m_t over the t holding C, with rho the polygon model
    of the modulus and c_C the class total of f.  Both programs have the
    same optimum.  The coset f + N is the set of sections w with class
    totals c_C, and a feasible (w, m) of the section program has
    rho(c_C) <= sum over j in C of rho(w_j) <= sum of m_t over the t holding
    C, since rho is subadditive and each t holds at most one coordinate of
    C.  Conversely, for a feasible m the split w_j = c_C m_t / M_C, with
    M_C the sum of m_t over C and t the element of j, has class totals c_C,
    and rho(w_j) = m_t rho(c_C) / M_C <= m_t, as rho is positively
    homogeneous (if M_C = 0, then rho(c_C) <= 0 and c_C = 0).
    """
    lp = _resolve(f.action, null, tol).program
    if lp is None:
        return ell1_norm(f)
    return _dual_simplex(lp, f.to_dense(), tol)


# facet i of the 64-gon |w| <= bound reads cos(theta_i) Re w + sin(theta_i) Im w <= bound
_THETA = 2 * np.pi * np.arange(N_FACETS) / N_FACETS
_COS_SIN = np.stack([np.cos(_THETA), np.sin(_THETA)])
_COS, _SIN = _COS_SIN
_REFACTOR, _MAX_PIVOTS = 100, 20_000  # pivots between fresh inverses; pivots before failing
_PERTURB, _PIVOT_TOL, _OPT_TOL, _FEAS_TOL = 1e-9, 1e-9, 1e-12, 1e-12


def _nearest_facet(w: np.ndarray) -> tuple:
    """The facet nearest arg w, which attains the maximum over the facets i
    of cos(theta_i) Re w + sin(theta_i) Im w, and that maximum: the polygon
    model of |w|."""
    i = np.rint(np.arctan2(w.imag, w.real) * (N_FACETS / (2 * np.pi))).astype(np.intp) % N_FACETS
    return i, _COS[i] * w.real + _SIN[i] * w.imag


class _DualProgram:
    """The part of a dual quotient-norm program that f does not enter.

    The primal minimizes the sum of m_t over z in C^k, subject to
    cos(theta_i) Re w_j + sin(theta_i) Im w_j <= the sum of the bounds that
    ``hold`` coordinate j, for every facet i at every coordinate j of the
    program, w_j = f_j + g_j . z.  The dual has one row per primal variable,
    z rows first (equalities with right-hand side 0), with ``rhs`` its
    right-hand side.  Its columns are the facets, never stored (``columns``
    builds those a basis needs; facet i of coordinate j has id
    N_FACETS j + i), and then the ``explicit`` ones, the last 2k of them an
    artificial per z row.  A program also holds ``delta``, the perturbation
    of the basic solution, and ``basis``, the column ids of its last optimal
    basis.  Its ``values`` are the coordinate values of dense sections, and
    its ``coset_norms`` certify an answer.
    """

    @property
    def k(self) -> int:
        return self.g.shape[2] // 2

    @property
    def n_rows(self) -> int:
        return len(self.delta)

    @property
    def n_facets(self) -> int:
        return self.hold.shape[1] * N_FACETS

    def columns(self, ids) -> np.ndarray:
        """(row, id) the columns of the ids.  The z rows of a facet are
        cos(theta_i) g[0] + sin(theta_i) g[1] at its coordinate."""
        ids = np.asarray(ids)
        on = ids < self.n_facets
        j, i = np.divmod(ids[on], N_FACETS)
        out = np.zeros((self.n_rows, len(ids)))
        out[:, ~on] = self.explicit[:, ids[~on] - self.n_facets]
        out[: 2 * self.k, on] = (_COS[i, None] * self.g[0, j] + _SIN[i, None] * self.g[1, j]).T
        out[:, on] += self.hold[:, j]
        return out

    def costs(self, ids, fv: np.ndarray) -> np.ndarray:
        """The dual objective at the columns: the facet's value at f_j, or 0."""
        ids = np.asarray(ids)
        on = ids < self.n_facets
        j, i = np.divmod(ids[on], N_FACETS)
        out = np.zeros(len(ids))
        out[on] = _COS[i] * fv[j].real + _SIN[i] * fv[j].imag
        return out

    def column(self, q: int, fv: np.ndarray) -> tuple:
        """The column of id q and its cost, as ``columns`` and ``costs`` give them."""
        if q >= self.n_facets:
            return self.explicit[:, q - self.n_facets], 0.0
        j, i = divmod(q, N_FACETS)
        col = self.hold[:, j].copy()
        col[: 2 * self.k] = _COS[i] * self.g[0, j] + _SIN[i] * self.g[1, j]
        return col, _COS[i] * fv[j].real + _SIN[i] * fv[j].imag


@dataclass(eq=False)
class _SectionProgram(_DualProgram):
    """The program over the section coordinates and the null rows.

    At every coordinate j of an ideal, the bound is m_t for a coordinate of
    a 1x1 block of element t, else its own u_j, and each line of a larger
    block (columns for p = 1, rows for p = inf) bounds the sum of its u by
    m_t.  The dual rows are Re z, Im z, then m_t (<= 1) and u_j (<= 0); the
    explicit columns are the lines, a slack per m and u row, then the
    artificials.
    """

    action: Action
    null: np.ndarray  # (k, D) orthonormal rows
    el: np.ndarray  # the element (position in offsets) of each coordinate
    coord: np.ndarray  # and its algebra coordinate
    bound: np.ndarray  # the row of each coordinate's bound
    explicit: np.ndarray  # (row, column) the explicit columns
    norm_lines: np.ndarray  # (line, algebra coordinate): the lines of every block
    rhs: np.ndarray
    delta: np.ndarray
    basis: np.ndarray | None = None

    @cached_property
    def hold(self) -> np.ndarray:
        return np.eye(self.n_rows)[:, self.bound]

    @cached_property
    def g(self) -> np.ndarray:
        """(2, coordinate, 2k): the z rows of facets 0 and N_FACETS/4.  As
        one (2 coordinate, 2k) matrix it maps (Re z, Im z) to (Re, Im) of
        the null rows' value N_j . z at each coordinate."""
        nv = self.values(self.null)
        return np.stack([np.hstack([nv.real, -nv.imag]), np.hstack([nv.imag, nv.real])])

    def values(self, rows: np.ndarray) -> np.ndarray:
        """(coordinate, row) values of dense sections (row, D)."""
        act = self.action
        return np.stack([rows[:, o : o + act.ideal(t).dim] @ act.ideal(t).basis
                         for t, o in act.offsets.items()])[self.el, :, self.coord]

    def model_norm(self, w: np.ndarray) -> float:
        """The polygon-model section norm at coordinate values w: per element
        the largest line sum of the modeled moduli, summed over elements."""
        rho = np.zeros((len(self.action.offsets), self.norm_lines.shape[1]))
        rho[self.el, self.coord] = _nearest_facet(w)[1]
        return float((rho @ self.norm_lines.T).max(1).sum())

    def coset_norms(self, dense: np.ndarray, fv: np.ndarray, pi: np.ndarray) -> tuple:
        """The polygon-model norms of f and of f + z N, z = -(pi_Re + i pi_Im)."""
        z = pi[: 2 * self.k]
        return self.model_norm(fv), self.model_norm(fv - (self.g[0] @ z + 1j * (self.g[1] @ z)))


@dataclass(eq=False)
class _GermProgram(_DualProgram):
    """The program over the germ classes of an induced action (see
    ``quotient_ell1_norm``): no z and no u, so the dual rows are the m_t
    (<= 1), ``hold`` marks the elements holding each class, and the
    explicit columns are the slacks."""

    germs: _Germs
    hold: np.ndarray  # (element, class)
    explicit: np.ndarray
    rhs: np.ndarray
    delta: np.ndarray
    basis: np.ndarray | None = None

    @cached_property
    def g(self) -> np.ndarray:
        return np.zeros((2, self.hold.shape[1], 0))

    def values(self, rows: np.ndarray) -> np.ndarray:
        """(class, row) class totals of dense sections (row, D)."""
        return self.germs.projection @ rows.T

    def model_norm(self, w: np.ndarray) -> float:
        """The polygon-model section norm at section coordinate values w."""
        starts = list(self.germs.action.offsets.values())
        return float(np.maximum.reduceat(_nearest_facet(w)[1], starts).sum())

    def coset_norms(self, dense: np.ndarray, fv: np.ndarray, pi: np.ndarray) -> tuple:
        """The polygon-model norms of f and of its split at m = pi: each
        class total c_C spread over the coordinates of C in proportion to
        their m_t (all on the first coordinate when the m_t add up to 0)."""
        label, owner = self.germs.label, self.germs.owner
        held = (pi @ self.hold)[label]
        first = np.zeros(len(label))
        first[self.germs.first] = 1.0
        share = np.divide(pi[owner], held, out=first, where=held > 0)
        return self.model_norm(dense), self.model_norm(fv[label] * share)


def _dual_program(action: Action, null: np.ndarray) -> _SectionProgram:
    """The ``_SectionProgram`` of nonzero orthonormal null rows."""
    A = action.algebra
    if A.p == 2 and any(idx.size > 1 for idx in A.blocks):
        raise QuotientNormNotLP("quotient norm over operator-2-norm blocks is not LP-representable")
    k2, n_el = 2 * null.shape[0], len(action.offsets)
    norm_lines = np.zeros((sum(len(idx) for idx in A.blocks), A.dim))
    for r, line in enumerate(line for idx in A.blocks for line in (idx.T if A.p == 1 else idx)):
        norm_lines[r, line] = 1.0
    big = norm_lines[norm_lines.sum(1) > 1]  # the lines of the blocks larger than 1x1
    el, coord = np.nonzero([action.ideal(t).basis.any(0) for t in action.offsets])
    is_u = big[:, coord].any(0)
    n_rows = k2 + n_el + np.count_nonzero(is_u)
    bound = np.where(is_u, k2 + n_el + np.cumsum(is_u) - 1, k2 + el)
    live = np.zeros((n_el, A.dim))
    live[el[is_u], coord[is_u]] = 1.0
    e, line = np.nonzero(live @ big.T)  # the (element, line) pairs that hold a u
    lines = np.zeros((n_rows, len(e)))
    lines[k2 + e, np.arange(len(e))] = 1.0
    lines[k2 + n_el :] -= (el[is_u, None] == e) & (big[line][:, coord[is_u]].T > 0)
    units, rhs = np.eye(n_rows), np.zeros(n_rows)
    rhs[k2 : k2 + n_el] = 1.0
    return _SectionProgram(
        action, null, el, coord, bound, np.hstack([lines, units[:, k2:], units[:, :k2]]),
        norm_lines, rhs, _PERTURB * (1 + np.random.default_rng(0).random(n_rows)),
    )


def _inverse(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise QuotientNormLPFailed(4, "the basis is singular") from None


def _pivot(binv: np.ndarray, a: np.ndarray, r: int) -> None:
    """Update the basis inverse in place for the column a (= binv @ column)
    entering at row r."""
    row = binv[r] / a[r]
    binv -= a[:, None] * row
    binv[r] = row


def _crash(lp: _DualProgram) -> np.ndarray:
    """A first feasible basis: the slacks and artificials (lambda = 0), with
    each artificial swapped out at level 0 for facet 0 or N_FACETS/4 of a
    coordinate, the largest pivot first."""
    k2, n_rows = 2 * lp.k, lp.n_rows
    # the unit column of each row: after the lines, the slacks of rows k2..
    # and then the artificials of rows ..k2
    units = lp.n_facets + lp.explicit.shape[1] - n_rows + np.arange(n_rows)
    basis = np.roll(units, k2)
    cand = (np.arange(lp.hold.shape[1])[:, None] * N_FACETS + [0, N_FACETS // 4]).ravel()
    cols, binv = lp.columns(cand), np.eye(n_rows)
    for r in range(k2):
        row = binv[r] @ cols
        j = np.argmax(np.abs(row))
        if abs(row[j]) <= _PIVOT_TOL:
            raise QuotientNormLPFailed(4, "the null rows are dependent")
        _pivot(binv, binv @ cols[:, j], r)
        basis[r] = cand[j]
    return basis


def _dual_simplex(lp: _DualProgram, dense: np.ndarray, tol: float) -> float:
    """The optimum of the quotient-norm program at the dense section f.

    A revised simplex on the dual of ``_DualProgram``, from the last optimal
    basis or else from ``_crash``.  The simplex multipliers pi are the
    primal variables, z = -(pi_Re + i pi_Im), so the best of the 64 facet
    columns of coordinate j has reduced cost rho(w_j) less pi at the bounds
    that hold j, at the facet nearest arg w_j (``_nearest_facet``).  Pricing is Dantzig's rule
    on a right-hand side perturbed so that every basic value starts
    positive, and Bland's rule once more pivots in a row than there are rows
    gain nothing.  The basis inverse is updated at each pivot and recomputed
    every ``_REFACTOR`` pivots.
    """
    fv = lp.values(dense[None])[:, 0]
    k2, n_rows, n_f, n_c, rhs = 2 * lp.k, lp.n_rows, lp.n_facets, len(fv), lp.rhs
    h, fw = lp.g.reshape(2 * n_c, k2), np.concatenate([fv.real, fv.imag])  # Re w, Im w = fw - h @ pi
    # pi at the bounds of each coordinate, then the reduced costs of the
    # lines and the slacks; an artificial never re-enters
    price = np.hstack([lp.hold, lp.explicit[:, : lp.explicit.shape[1] - k2]])
    basis = _crash(lp) if lp.basis is None else lp.basis.copy()
    mat = lp.columns(basis)
    binv = _inverse(mat)
    rhs_p = rhs + mat @ lp.delta
    x, cb = binv @ rhs_p, lp.costs(basis, fv)
    eps = _OPT_TOL * max(1.0, np.abs(fv).max(initial=0.0))
    stalled, bland = 0, False
    for n in range(_MAX_PIVOTS):
        if n and not n % _REFACTOR:
            binv = _inverse(lp.columns(basis))
            x = binv @ rhs_p
        pi = cb @ binv
        wv = fw - h @ pi[:k2]
        d = -(pi @ price)
        bland = bland or stalled > n_rows
        if bland:  # the first improving column, and below the first tied row
            facets = wv.reshape(2, n_c).T @ _COS_SIN  # (coordinate, facet)
            d = np.concatenate([(facets + d[:n_c, None]).ravel(), d[n_c:]])
            q = np.argmax(d > eps)
            dq = d[q]
        else:  # Dantzig's rule, each coordinate's best facet in closed form
            facet, rho = _nearest_facet(wv[:n_c] + 1j * wv[n_c:])
            d[:n_c] += rho
            q = np.argmax(d)
            dq = d[q]
            q = q * N_FACETS + facet[q] if q < n_c else n_f + q - n_c
        if dq <= eps:
            break
        col, cost = lp.column(q, fv)
        a = binv @ col
        # Harris's ratio test: of the rows that block within _FEAS_TOL, the
        # largest pivot (Bland: the least basic id)
        on, xp = a > _PIVOT_TOL, np.maximum(x, 0.0)
        if not on.any():
            raise QuotientNormLPFailed(3, "the dual program is unbounded")
        reach = np.divide(xp + _FEAS_TOL, a, out=np.full(n_rows, np.inf), where=on).min()
        tied = np.flatnonzero(on & (xp <= reach * a))
        r = tied[np.argmin(basis[tied])] if bland else tied[np.argmax(a[tied])]
        step = xp[r] / a[r]
        stalled = stalled + 1 if step * dq <= eps * _PERTURB else 0
        x -= step * a
        x[r] = step
        _pivot(binv, a, r)
        basis[r], cb[r] = q, cost
    else:
        raise QuotientNormLPFailed(1, f"no optimum within {_MAX_PIVOTS} pivots")
    binv = _inverse(lp.columns(basis))
    lam, pi = binv @ rhs, cb @ binv
    lo = float(cb @ lam)
    at_zero, at_opt = lp.coset_norms(dense, fv, pi)
    # f wins a tie within the rounding of the norm: it is read without the
    # rounding of the null rows or of the split
    hi = at_zero if at_zero <= at_opt * (1 + 4 * np.finfo(float).eps) else at_opt
    if lam.min() < -tol or hi - lo > tol * max(1.0, hi):
        raise QuotientNormLPFailed(
            4, f"no certified optimum: [lo, hi] = [{lo}, {hi}], min lambda {lam.min()}"
        )
    lp.basis = basis
    return hi
