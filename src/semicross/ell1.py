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
the tensor comes from theta.  For it, and for an action that
``validate_action`` passed whose ideal bases are distinct identity rows, the
order-difference ideal is a partition of the section coordinates
(``germs``), found with no numerical linear algebra, and the quotient norm
is exact: one covering program with one row per class.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, blocks, first_far, null_rows
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
from .germs import _Germs, _germs, _theta_tensor

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
    tensor from theta instead (``_theta_tensor``), with the same entries."""
    if not hasattr(action, "_tensor"):
        action._tensor = {}
    if tol not in action._tensor:
        induced = getattr(action, "_theta", None) is not None
        tensor = _theta_tensor(action) if induced else _numeric_tensor(action, tol)
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
    the monomials (else ``NotAnIdeal``).  From ``germs``, an action's own
    N as a partition (exact, see ``null_ideal``), ``basis`` is the class
    contrasts, built on first use.  ``basis`` is read-only either way.
    The action is held by a weak reference: ``null_ideal`` memoizes the
    object on the action, and a strong one would make a cycle that only
    the garbage collector frees, so the action's tensor and ideals would
    outlive it.
    """

    def __init__(self, action: Action, rows=None, tol: float = DEFAULT_TOL, germs=None):
        self._action, self.tol, self.germs = weakref.ref(action), tol, germs
        if germs is None:
            self.basis = orth_rows(rows, tol)
            self.comp = null_rows(self.basis, tol)
            if witness := _ideal_witness(action, self.basis, self.comp, tol):
                raise NotAnIdeal(witness)
            self.basis.flags.writeable = False

    @property
    def action(self) -> Action | None:
        return self._action()

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
        """The ``_SectionProgram`` of the quotient norm of rows, kept with
        its last optimal basis."""
        return _dual_program(self.action, self.basis)


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

    N depends only on the ideals and the natural order.  When every ideal
    basis is distinct identity rows, the seeds at a = e_i are differences
    e_(s,i) - e_(t,i) of coordinates, so N is the span of the differences
    within the classes of the relation they generate (``_Germs``).  It is
    kept as that partition, of dimension D less the number of classes, and
    its basis is the class contrasts.  For an action induced by theta the
    classes are the germs: every two coordinates with equal germs
    [s, x] = [t, x] are linked through e_(r,y), r = s e_x = t e_x <= s, t.
    No seed, SVD or closure check is needed when the action is certified:
    induced actions by theta, when they are built, and any other action
    once ``validate_action`` has passed at ``tol``.
    """
    if not hasattr(action, "_null"):
        action._null = {}
    if tol not in action._null:
        germs = _germs(action, tol)
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

    When N is an action's own ``null_ideal`` kept as a partition (an induced
    action, or one that ``validate_action`` passed with ideal bases of
    distinct identity rows), the answer is exact for every block norm rho,
    p = 1, 2 and inf alike.  Each class of ``_Germs`` keeps one entry of one
    block, so a block class C (members (t, b)) has a class total c_C, a
    matrix on block b, and the coset f + N is the set of sections w whose
    blocks w_(t,b) add up to c_C over every C.  The norm is the optimum of
    the covering program (``_cover``): minimize the sum of m_t >= 0 subject
    to rho(c_C) <= the sum of m_t over the t holding C, for every C.  A
    section w of the coset with m_t = ||w_t|| is feasible, as
    rho(c_C) <= the sum over C of rho(w_(t,b)) <= the sum of m_t over the t
    holding C: rho is subadditive, rho(w_(t,b)) <= ||w_t||, and each t holds
    at most one member of C.
    Conversely, for a feasible m the split w_(t,b) = c_C m_t / M_C, with M_C
    the sum of m_t over the t holding C, lies in the coset and has
    ||w_t|| = the largest over its blocks of m_t rho(c_C) / M_C <= m_t, as
    rho is positively homogeneous (if M_C = 0, then rho(c_C) <= 0 and
    c_C = 0).  The answer is certified before it is returned: hi, the exact
    section norm of that split (or of f itself, when that is no higher up to
    rounding), is within tol * max(1, hi) of lo = the sum of y_C rho(c_C)
    for the program's dual point y, scaled down until the sum of y_C over
    the C that each t holds is at most 1; lo is then no more than the norm
    of any section of the coset.  Else ``QuotientNormLPFailed``.

    Any other N takes the section program over the null rows, where complex
    moduli are modeled by a 64-facet polygon, so the result can undershoot
    the exact infimum by at most a factor cos(pi/64), a relative error below
    0.2 percent.  It supports algebras whose block norms are
    max-of-absolute-sums (all 1x1 blocks, and larger blocks with p in
    {1, inf}); operator-2-norm blocks of size > 1 have no LP model there and
    raise ``QuotientNormNotLP``.  The dual of that program is solved by the
    simplex method of ``_dual_simplex``, and its answer is certified: the
    polygon-model norm hi of a point of the coset that the optimal
    multipliers give (or of f itself, when that is no higher up to
    rounding) is within tol * max(1, hi) of the dual value lo of a basis
    with lambda >= -tol, else ``QuotientNormLPFailed``.
    """
    null = _resolve(f.action, null, tol)
    if null.dim == 0:
        return ell1_norm(f)
    if null.germs is not None:
        return _class_norm(f.action, null.germs, f.to_dense(), tol)
    return _dual_simplex(null.program, f.to_dense(), tol)


def _class_norm(act: Action, germs: _Germs, dense: np.ndarray, tol: float) -> float:
    """The certified optimum of the covering program at the dense section f
    (see ``quotient_ell1_norm``)."""
    label = germs.label
    total = germs.projection @ dense  # the class totals
    cells = np.zeros((len(germs.hold), act.algebra.dim), dtype=complex)
    cells[germs.group, germs.coord] = total  # each c_C on its block
    rho = np.atleast_1d(act.algebra.norm(cells))
    m, y = _cover(germs.hold, rho)
    held = (germs.hold @ m)[germs.group[label]]  # M_C at each coordinate
    first = np.zeros(len(label))
    first[germs.first] = 1.0
    split = total[label] * np.divide(m[germs.owner], held, out=first, where=held > 0)
    at_zero, at_opt = ell1_norms(act, np.stack([dense, split]))
    # f wins a tie within the rounding of the norm: it is read without the
    # rounding of the split
    hi = float(at_zero if at_zero <= at_opt * (1 + 4 * np.finfo(float).eps) else at_opt)
    y = np.maximum(y, 0.0)
    lo = float(rho @ y) / max(1.0, (y @ germs.hold).max())
    if hi - lo > tol * max(1.0, hi):
        raise QuotientNormLPFailed(4, f"no certified optimum: [lo, hi] = [{lo}, {hi}]")
    return hi


def _cover(hold: np.ndarray, rho: np.ndarray) -> tuple:
    """An optimal m of: minimize the sum of m >= 0 subject to hold @ m >= rho,
    and the dual point y, by a dual simplex on the tableau.

    With a surplus s_C per row, hold @ m - s = rho, the all-surplus basis
    is dual feasible, because every cost is 1, and primal feasible only at
    rho = 0.  Each pivot takes out the row of the most negative basic value
    and brings in the column of the least ratio of reduced cost to the
    modulus of its negative entry there (of ties within _FEAS_TOL, the
    largest entry), which keeps every reduced cost nonnegative.  Once more
    pivots in a row than there are rows leave the dual objective where it
    was, both choices fall to the least index (Bland's rule), which cannot
    cycle.  y is the reduced costs of the surpluses."""
    n_rows, n_el = hold.shape
    # the rows over the basis -I with the basic values last, then the reduced costs
    tab = np.zeros((n_rows + 1, n_el + n_rows + 1))
    tab[:-1, :n_el], tab[:-1, n_el:-1], tab[:-1, -1], tab[-1, :n_el] = -hold, np.eye(n_rows), -rho, 1
    x, d, basis = tab[:-1, -1], tab[-1, :-1], n_el + np.arange(n_rows)  # views of tab
    eps = _OPT_TOL * max(1.0, rho.max(initial=0.0))
    stalled = 0
    for _ in range(_MAX_PIVOTS):
        low = np.flatnonzero(x < -eps)
        if not len(low):
            break
        bland = stalled > n_rows
        r = low[np.argmin(basis[low])] if bland else np.argmin(x)
        on = np.flatnonzero(tab[r, :-1] < -_PIVOT_TOL)
        if not len(on):
            raise QuotientNormLPFailed(3, "the dual program is unbounded")
        ratio = d[on] / -tab[r, on]
        tied = on[ratio <= ratio.min() + _FEAS_TOL]
        q = tied[0] if bland else tied[np.argmin(tab[r, tied])]
        stalled = stalled + 1 if d[q] <= _FEAS_TOL else 0
        tab[r] /= tab[r, q]
        col = tab[:, q].copy()
        col[r] = 0.0
        tab -= np.outer(col, tab[r])
        basis[r] = q
    else:
        raise QuotientNormLPFailed(1, f"no optimum within {_MAX_PIVOTS} pivots")
    m = np.zeros(n_el)
    on = basis < n_el
    m[basis[on]] = np.maximum(x[on], 0.0)
    return m, d[n_el:].copy()


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


@dataclass(eq=False)
class _SectionProgram:
    """The dual of the quotient-norm program over the section coordinates
    and the null rows, less the part that f enters.

    The primal minimizes the sum of m_t over z in C^k, subject to
    cos(theta_i) Re w_j + sin(theta_i) Im w_j <= the sum of the bounds that
    ``hold`` coordinate j, for every facet i at every coordinate j,
    w_j = f_j + g_j . z.  At every coordinate j of an ideal, the bound is
    m_t for a coordinate of a 1x1 block of element t, else its own u_j, and
    each line of a larger block (columns for p = 1, rows for p = inf)
    bounds the sum of its u by m_t.  The dual has one row per primal
    variable: Re z, Im z (equalities with right-hand side 0), then m_t
    (<= 1) and u_j (<= 0), with ``rhs`` its right-hand side.  Its columns
    are the facets, never stored (``columns`` builds those a basis needs;
    facet i of coordinate j has id N_FACETS j + i), and then the
    ``explicit`` ones: the lines, a slack per m and u row, and an artificial
    per z row.  ``delta`` is the perturbation of the basic solution, and
    ``basis`` the column ids of the last optimal basis.  ``values`` are the
    coordinate values of dense sections, and ``coset_norms`` certify an
    answer.  The program is cached on the action's ``NullIdeal``, so it
    holds the action weakly, as that does.
    """

    ref: weakref.ref  # the action
    null: np.ndarray  # (k, D) orthonormal rows
    el: np.ndarray  # the element (position in offsets) of each coordinate
    coord: np.ndarray  # and its algebra coordinate
    bound: np.ndarray  # the row of each coordinate's bound
    explicit: np.ndarray  # (row, column) the explicit columns
    norm_lines: np.ndarray  # (line, algebra coordinate): the lines of every block
    rhs: np.ndarray
    delta: np.ndarray
    basis: np.ndarray | None = None

    @property
    def action(self) -> Action:
        return self.ref()

    @property
    def k(self) -> int:
        return len(self.null)

    @property
    def n_rows(self) -> int:
        return len(self.delta)

    @property
    def n_facets(self) -> int:
        return len(self.bound) * N_FACETS

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

    def coset_norms(self, fv: np.ndarray, pi: np.ndarray) -> tuple:
        """The polygon-model norms of f and of f + z N, z = -(pi_Re + i pi_Im)."""
        z = pi[: 2 * self.k]
        return self.model_norm(fv), self.model_norm(fv - (self.g[0] @ z + 1j * (self.g[1] @ z)))


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
        weakref.ref(action), null, el, coord, bound,
        np.hstack([lines, units[:, k2:], units[:, :k2]]), norm_lines, rhs,
        _PERTURB * (1 + np.random.default_rng(0).random(n_rows)),
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


def _crash(lp: _SectionProgram) -> np.ndarray:
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


def _dual_simplex(lp: _SectionProgram, dense: np.ndarray, tol: float) -> float:
    """The optimum of the quotient-norm program at the dense section f.

    A revised simplex on the ``_SectionProgram``, from the last optimal
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
    at_zero, at_opt = lp.coset_norms(fv, pi)
    # f wins a tie within the rounding of the norm: it is read without the
    # rounding of the null rows
    hi = at_zero if at_zero <= at_opt * (1 + 4 * np.finfo(float).eps) else at_opt
    if lam.min() < -tol or hi - lo > tol * max(1.0, hi):
        raise QuotientNormLPFailed(
            4, f"no certified optimum: [lo, hi] = [{lo}, {hi}], min lambda {lam.min()}"
        )
    lp.basis = basis
    return hi
