"""The section algebra of an action: finitely supported maps t -> I_t with
the convolution product

    (f * g)(r) = sum over st = r of alpha_s(alpha_{s*}(f(s)) g(t)),

the norm ||f||_1 = sum of ideal norms, the involution (when the coefficient
algebra has one), the ideal generated by the order differences
a delta_s - a delta_t for s <= t, and quotients by such ideals.

Every product contracts one sparse structure tensor per (action, tol); that
each summand lands in the ideal of its product element is checked once, when
the tensor is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, first_far, in_rowspace, null_rows, off_rows
from ._linalg import orth_rows
from .actions import Action, _stack
from .errors import (
    ActionMismatch,
    ConvolutionEscapesIdeal,
    NotAnIdeal,
    OrderDifferenceNotProduct,
    QuotientNormLPFailed,
    QuotientNormNotLP,
)

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
            if dim and v.any():
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
    I_s is off the source of alpha_{s*}."""
    if not hasattr(action, "_tensor"):
        action._tensor = {}
    if tol in action._tensor:
        return action._tensor[tol]
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
    tensor = tuple(map(np.concatenate, zip(*entries)))
    for arr in tensor:
        arr.flags.writeable = False
    action._tensor[tol] = tensor
    return tensor


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
    for every row x and every m_i, one (q, rows) product per m_i and side."""
    I, J, K, C = structure_tensor(action, tol)
    basis_t = np.ascontiguousarray(basis.T)
    for side, outer, inner in (("left", I, J), ("right", J, I)):
        ends = np.cumsum(np.bincount(outer, minlength=action.total_dim))[:-1]
        for i, e in enumerate(np.split(np.argsort(outer, kind="stable"), ends)):  # by m_i
            # column x: comp @ (m_i * x) on the left, comp @ (x * m_i) on the right
            off = (comp[:, K[e]] * C[e]) @ basis_t[inner[e]]
            if np.any(np.linalg.norm(off, axis=0) > tol):
                t = [t for t, o in action.offsets.items() if o <= i][-1]
                return action.semigroup.labels[t], i - action.offsets[t], side
    return None


@dataclass
class NullIdeal:
    """The ideal generated by the differences a delta_s - a delta_t, s <= t.

    ``basis`` holds orthonormal rows in the dense coordinates of the section
    space.
    """

    action: Action
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


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
    """
    if not hasattr(action, "_null"):
        action._null = {}
    if tol not in action._null:
        basis = orth_rows(_order_differences(action, tol), tol)
        if witness := _ideal_witness(action, basis, null_rows(basis, tol), tol):
            raise NotAnIdeal(witness)
        action._null[tol] = NullIdeal(action, basis)
    return action._null[tol]


@dataclass
class QuotientAlgebra:
    """Section algebra modulo a two-sided ideal, in a pivoted complement basis.

    ``coords`` lists the dense coordinates chosen as the complement basis (in
    coordinate order), ``structure`` the induced structure constants, and
    ``projection`` the matrix sending a dense vector to its class.
    """

    action: Action
    null_basis: np.ndarray
    coords: tuple
    structure: np.ndarray
    projection: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coords)

    def project(self, f: Ell1Element) -> np.ndarray:
        return self.projection @ f.to_dense()


def quotient_algebra(
    action: Action, null_basis: np.ndarray, tol: float = DEFAULT_TOL
) -> QuotientAlgebra:
    """Verify the subspace is a convolution ideal, then quotient by it."""
    null_basis = orth_rows(null_basis, tol)
    comp = null_rows(null_basis, tol)
    if witness := _ideal_witness(action, null_basis, comp, tol):
        raise NotAnIdeal(witness)
    # e_j is off N + span(chosen) iff comp e_j is off span(comp chosen), and
    # the two distances are equal, so the greedy pivots run in the q columns
    chosen, cur = [], np.zeros((0, len(comp)), dtype=complex)
    for j, col in enumerate(comp.T):
        if not in_rowspace(cur, col, tol):
            chosen.append(j)
            cur = orth_rows(np.vstack([cur, col]), tol)
    q = len(chosen)
    proj = np.linalg.solve(comp[:, chosen], comp)  # x - proj(x) . e_chosen lies in N
    I, J, K, C = structure_tensor(action, tol)
    pos = np.full(action.total_dim, -1)
    pos[chosen] = np.arange(q)
    keep = (pos[I] >= 0) & (pos[J] >= 0)  # products of the chosen monomials
    structure = np.zeros((q, q, q), dtype=complex)
    np.add.at(structure, (pos[I[keep]], pos[J[keep]]), C[keep, None] * proj[:, K[keep]].T)
    return QuotientAlgebra(action, null_basis, tuple(chosen), structure, proj)


def quotient_ell1_norm(
    f: Ell1Element, null_basis: np.ndarray, tol: float = DEFAULT_TOL
) -> float:
    """inf over the coset f + N of the section norm, via a linear program.

    Complex moduli are modeled by a 64-facet polygon, so the result can
    undershoot the exact infimum by at most a factor cos(pi/64), a relative
    error below 0.2 percent.  Supported for algebras whose block norms are
    max-of-absolute-sums (all 1x1 blocks, and larger blocks with p in
    {1, inf}); operator-2-norm blocks of size > 1 have no LP model and raise
    ``QuotientNormNotLP``.  HiGHS solves it in the lifted form of ``_lifted_lp``.
    """
    null_basis, A = orth_rows(null_basis, tol), f.action.algebra
    if null_basis.shape[0] == 0:
        return ell1_norm(f)
    if A.p == 2 and any(idx.size > 1 for idx in A.blocks):
        raise QuotientNormNotLP("quotient norm over operator-2-norm blocks is not LP-representable")
    from scipy.optimize import linprog  # imported here: it is most of the package's import time

    # presolve off: faster on these small programs, and on the segment of
    # optima of semi's qnorm(a) HiGHS then stops at a vertex that reads 1.0
    res = linprog(*_lifted_lp(f, null_basis), method="highs", options={"presolve": False})
    if res.status != 0:
        raise QuotientNormLPFailed(res.status, res.message)
    return float(res.fun)


_RE, _IM, _A, _B, _X, _Y, _BOUND = range(7)  # a live coordinate's columns, then its bound
_R2 = np.sqrt(0.5)


def _triples(rows) -> tuple:
    """The (row, column, value) arrays of rows given as {column: value}."""
    triples = [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]
    return tuple(map(np.array, zip(*triples)))


# the rows of one live coordinate in the folded polygon model (see _lifted_lp)
_FOLD_UB = _triples([
    {_RE: 1, _A: -1}, {_RE: -1, _A: -1},  # a >= +-Re w
    {_IM: 1, _B: -1}, {_IM: -1, _B: -1},  # b >= +-Im w
    {_A: -_R2, _B: _R2, _Y: -1}, {_A: _R2, _B: -_R2, _Y: -1},  # y >= +-(b - a)/sqrt(2)
    *({_X: np.cos(phi), _Y: np.sin(phi), _BOUND: -1}  # the facets, phi in [0, pi/4]
      for phi in 2 * np.pi * np.arange(N_FACETS // 8 + 1) / N_FACETS),
])
_FOLD_EQ = _triples([{_X: 1, _A: -_R2, _B: -_R2}])  # x = (a + b)/sqrt(2)


def _lifted_lp(f: Ell1Element, null_basis: np.ndarray) -> tuple:
    """Objective, A_ub, b_ub, A_eq, b_eq (sparse) and bounds of the
    quotient-norm LP over the orthonormal rows ``null_basis`` (k of them).

    Variables: Re w, Im w, a, b, x, y (per live coordinate), Re z, Im z
    (k each), m (per nonzero element), u (per live coordinate of a block
    larger than 1x1).  A coordinate is live when f or a null row is nonzero
    there; a dead one would only say 0 <= bound, which bound >= 0 says.  Two
    equality rows give w = f(t) + z . N(t).  The bound of a coordinate is m
    for a 1x1 block, else its u; each line of a larger block (columns for
    p = 1, rows for p = inf) that holds a live u bounds the sum of its u by m.

    The 64-gon |w| <= bound, cos(theta) Re w + sin(theta) Im w <= bound at
    theta = 2 pi i/64, is folded by its symmetries into 15 inequality rows
    and one more equality row per coordinate: a >= +-Re w and b >= +-Im w
    with a, b >= 0, x = (a + b)/sqrt(2), y >= +-(b - a)/sqrt(2), and
    cos(phi) x + sin(phi) y <= bound at phi = j pi/32, j = 0..8.  The
    polygon's facet angles are unchanged by sign flips of Re w and Im w and
    by swapping them (4 and 8 divide 64), so its support function at w is
    its value at (p, q) = (|Re w|, |Im w|), the maximum over the 17 facets
    with theta in [0, pi/2].  Writing theta = pi/4 +- phi, such a facet
    reads cos(phi) (p + q)/sqrt(2) +- sin(phi) (q - p)/sqrt(2), and the
    larger sign is the folded row at x = (p + q)/sqrt(2),
    y = |q - p|/sqrt(2).  At the smallest y each folded row is
    cos(pi/4 + phi) a + sin(pi/4 + phi) b or sin(pi/4 + phi) a +
    cos(pi/4 + phi) b, whose slopes are nonnegative for phi <= pi/4, so
    raising a above |Re w| or b above |Im w| never helps: the program
    projects onto the same polygon.
    """
    from scipy.sparse import coo_array  # imported here, like linprog: not by import semicross

    act, A, k = f.action, f.action.algebra, null_basis.shape[0]
    rows = np.vstack([f.to_dense(), null_basis])  # f, then the null rows
    values = np.stack([rows[:, o : o + act.ideal(t).dim] @ act.ideal(t).basis
                       for t, o in act.offsets.items()])  # (element, 1 + k, coordinate)
    el, coord = np.nonzero(values.any(1))  # the live coordinates
    line_at, n_lines = np.full(A.dim, -1), 0  # the line of a coordinate of a block > 1x1
    for idx in A.blocks:
        if idx.size > 1:
            line_at[idx.T if A.p == 1 else idx] = n_lines + np.arange(len(idx))[:, None]
            n_lines += len(idx)
    is_u = line_at[coord] >= 0
    n_w, n_m, n_u = el.size, len(values), np.count_nonzero(is_u)
    z0 = _BOUND * n_w  # the columns of the live coordinates come first
    m0, u0 = z0 + 2 * k, z0 + 2 * k + n_m

    def sparse(n_rows, *parts):  # each part (values, rows, columns), broadcast together
        v, r, c = map(np.concatenate, zip(*(map(np.ravel, np.broadcast_arrays(*p)) for p in parts)))
        return coo_array((v, (r, c)), shape=(n_rows, u0 + n_u))

    bound = np.where(is_u, u0 + np.cumsum(is_u) - 1, m0 + el)
    cols = np.column_stack([_BOUND * np.arange(n_w)[:, None] + np.arange(_BOUND), bound])

    def fold(template, first):  # one copy of a template per live coordinate
        r, c, v = template
        n = r.max() + 1
        return v, first + n * np.arange(n_w)[:, None] + r, cols[:, c]

    # w - N(t) . z = f(t), the Re and the Im row of each live coordinate, then x rows
    b, nz = values[el, 0, coord], values[el, 1:, coord]
    zc = np.concatenate([-nz.real, nz.imag, -nz.imag, -nz.real], axis=1).reshape(2 * n_w, 2 * k)
    r, c = np.nonzero(zc)
    eq = np.arange(2 * n_w)
    a_eq = sparse(3 * n_w, (zc[r, c], r, z0 + c), (1.0, eq, cols[:, :2].ravel()),
                  fold(_FOLD_EQ, 2 * n_w))
    # folded polygon rows, then line rows per (element, line) that holds a live u
    n_f = n_w * (_FOLD_UB[0].max() + 1)
    keys, row = np.unique(el[is_u] * n_lines + line_at[coord[is_u]], return_inverse=True)
    n_ub = n_f + keys.size
    a_ub = sparse(n_ub, fold(_FOLD_UB, 0), (1.0, n_f + row, bound[is_u]),
                  (-1.0, np.arange(n_f, n_ub), m0 + keys // max(n_lines, 1)))
    objective = np.repeat([0.0, 1.0, 0.0], [m0, n_m, n_u])
    free, pos = (None, None), (0, None)
    bounds = [free, free, pos, pos, free, pos] * n_w + [free] * 2 * k + [pos] * (n_m + n_u)
    b_eq = np.concatenate([np.stack([b.real, b.imag], 1).ravel(), np.zeros(n_w)])
    return objective, a_ub, np.zeros(n_ub), a_eq, b_eq, bounds
