"""Covariant representations on finite-dimensional normed spaces.

A pair (pi, v) is *spatial* when v is a semigroup homomorphism intertwining
pi along the action and each v_t has exactly the essential range of I_t; it
is *algebraic* under the weaker commutation + essential-multiplicativity +
unit laws; it is *normalized* when v_t = pi(1_t) v_t.  Every algebraic pair
normalizes uniquely without changing essential products, and integration
f -> sum pi(f(t)) v_t turns sections into operators, killing the order
differences.  The checks below verify the defining laws only, as one
contraction of stacked pi-images and essential products with v; what the
laws force is a theorem, covered by the test suite and not re-proved here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    as_complex,
    blocks,
    first_far,
    null_rows,
    off_rows,
    operator_norm,
    orth_rows,
    same_spans,
    span_basis,
    split_rows,
)
from .actions import Action, PartialSetAction, induce_action
from .ell1 import Ell1Element, _ideal_witness, ell1_norms, null_ideal, structure_tensor
from .errors import (
    AdjointFormulaViolation,
    CR1Violation,
    CR2Violation,
    CR3Violation,
    DegenerateRepresentation,
    EmptyFamily,
    GradingNotSaturated,
    GroupConvolutionMismatch,
    NoStarOnAlgebra,
    NotAGroup,
    NotAnIdeal,
    NotContractive,
    NotHilbertSpace,
    NotInvertibleIsometry,
    NotMultiplicative,
    NotNormalized,
    NotSemigroupHom,
    NullNotKilled,
    SCR1Violation,
    SCR2RangeMismatch,
    StarNotPreserved,
)
from .reporting import CheckReport
from .semigroups import _pbij_rows


@dataclass(frozen=True)
class ReprSpace:
    """C^dim with the p-norm; operators are measured in the p-operator norm."""

    dim: int
    p: object


@dataclass(eq=False)
class CovariantRep:
    """Matrices pi[i] for the algebra basis and v[t] for semigroup elements."""

    action: Action
    space: ReprSpace
    pi: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        n, d, S = self.space.dim, self.action.algebra.dim, len(self.action.semigroup)
        self.pi = as_complex(self.pi).reshape(d, n, n)
        self.v = as_complex(self.v).reshape(S, n, n)

    def pi_of(self, a) -> np.ndarray:
        """pi(a), or the stack of pi over a stack (..., dim A)."""
        return np.einsum("...i,ijk->...jk", as_complex(a), self.pi)

    def opnorm(self, m):
        """Operator norm of a matrix, or an array of them for a stack."""
        return operator_norm(m, self.space.p)

    def is_nondegenerate(self, tol: float = DEFAULT_TOL) -> bool:
        cols = np.hstack([m for m in self.pi])
        return orth_rows(cols.T, tol).shape[0] == self.space.dim

    def with_v(self, new_v) -> "CovariantRep":
        return CovariantRep(self.action, self.space, self.pi.copy(), new_v)

    def __repr__(self):
        return f"CovariantRep<dim E={self.space.dim}, p={self.space.p}>"


# --------------------------------------------------------------- basic layer


def _diagonal_bound(rep: CovariantRep, tol: float) -> float | None:
    """For a diagonal pi over a function algebra, the largest row sum of
    moduli r, which bounds ||pi(a)|| <= r ||a|| exactly: pi(a) is diagonal
    with entries sum_i a_i pi_i[j, j], and ||a|| = max |a_i|.  Else None."""
    n = rep.space.dim
    if rep.action.algebra.kind != "function" or not np.allclose(
        rep.pi * (1 - np.eye(n)), 0.0, atol=tol, rtol=0.0
    ):
        return None
    return np.abs(np.diagonal(rep.pi, axis1=1, axis2=2)).sum(0).max(initial=0.0)


def certify_contractive(rep: CovariantRep, tol: float = DEFAULT_TOL, seed: int = 0,
                        samples: int = 2000) -> str:
    """Certify ||pi(a)|| <= ||a||; returns the certification level.

    Diagonal representations of function algebras admit an exact criterion
    (``_diagonal_bound``); anything else is sampled on the unit sphere, with
    the real sign patterns thrown in for function algebras of dimension
    <= 16 since they are the extreme points of the real unit ball.
    """
    A, d, n = rep.action.algebra, rep.action.algebra.dim, rep.space.dim
    if (bound := _diagonal_bound(rep, tol)) is not None:
        if bound > 1.0 + tol:
            raise NotContractive("pi", "a diagonal row sum exceeds 1")
        return "exact"
    signs = np.zeros((0, d))
    if A.kind == "function" and d <= 16:  # bit i of the pattern's index sets sign i
        signs = 2.0 * (np.arange(2**d)[:, None] >> np.arange(d) & 1) - 1.0
    draws = np.random.default_rng(seed).standard_normal((samples, 2, d))
    a = draws[:, 0] + 1j * draws[:, 1]
    na = A.norm(a)
    trials = np.vstack([signs, a[na > tol] / na[na > tol, None]])
    for part in blocks(len(trials), n * n):  # bounds the stack pi(trials)
        chunk = trials[part]
        if np.any(rep.opnorm(rep.pi_of(chunk)) > A.norm(chunk) + tol):
            raise NotContractive("pi", "it expands a sampled element")
    return "sampled"


def _check_multiplicative(rep: CovariantRep, tol: float) -> None:
    """pi(e_i) pi(e_j) = pi(e_i e_j) on every basis pair, else
    ``NotMultiplicative`` names the first pair (i, j)."""
    d, n = rep.action.algebra.dim, rep.space.dim
    got = np.einsum("iab,jbc->ijac", rep.pi, rep.pi).reshape(d, d, n * n)
    want = np.einsum("ijk,kac->ijac", rep.action.algebra.structure, rep.pi)
    if bad := first_far(got, want.reshape(d, d, n * n), tol):
        raise NotMultiplicative(bad)


def validate_rep(rep: CovariantRep, tol: float = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """Homomorphism property of pi, contractivity, and contractive v."""
    report = CheckReport("representation basics")
    _check_multiplicative(rep, tol)
    report.add("pi", "algebra homomorphism", True)
    level = certify_contractive(rep, tol, seed)
    report.add("pi", "contractive", True, f"certification: {level}")
    grown = rep.opnorm(rep.v) > 1.0 + tol
    if grown.any():
        label = rep.action.semigroup.labels[np.argmax(grown)]
        raise NotContractive(f"v at {label}", "norm exceeds 1")
    report.add("v", "contractive", True)
    report.note(f"nondegenerate (span pi(A)E = E): {rep.is_nondegenerate(tol)}")
    return report


# ------------------------------------------------------------------ stacks


def _section_rows(act: Action) -> tuple:
    """The owner element (D,) and the ideal-basis row (D, dim A) of every
    dense section coordinate, in the order of ``Action.offsets``."""
    owner = np.repeat(list(act.offsets), [act.ideal(t).dim for t in act.offsets]).astype(int)
    rows = np.vstack([np.zeros((0, act.algebra.dim))] + [act.ideal(t).basis for t in act.offsets])
    return owner, rows


def _by_element(stack: np.ndarray, owner: np.ndarray, size: int) -> np.ndarray:
    """(size, k, ...): each element's rows first, zero-padded; owner is sorted."""
    local = np.arange(len(owner)) - np.searchsorted(owner, owner)
    out = np.zeros((size, local.max(initial=0) + 1) + stack.shape[1:], dtype=complex)
    out[owner, local] = stack
    return out


# ----------------------------------------------------------- axiom checkers


def check_spatial(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Intertwining + exact essential ranges + semigroup homomorphism.  That
    every v_t is then a partial isometry follows from t t* t = t."""
    act, sg, n = rep.action, rep.action.semigroup, rep.space.dim
    report = CheckReport("spatial covariant representation")
    _check_intertwining(rep, tol, SCR1Violation)
    report.add("SCR1", "intertwining on all ideal bases", True)
    owner, rows = _section_rows(act)
    # entry t: the matrices pi(a) side by side, a over the basis of I_t
    images = _by_element(rep.pi_of(rows), owner, len(sg)).transpose(0, 2, 1, 3)
    bad = ~same_spans(span_basis(rep.v, tol), span_basis(images.reshape(len(sg), n, -1), tol), tol)
    if bad.any():
        raise SCR2RangeMismatch(sg.labels[np.argmax(bad)])
    report.add("SCR2", "essential range of every v_t", True)
    for part in blocks(len(sg), 2 * len(sg) * n * n):  # v_s v_t against v_st, a block of s
        if bad := first_far(rep.v[part, None] @ rep.v, rep.v[sg.table[part]], tol):
            raise NotSemigroupHom(sg.labels[part.start + bad[0]], sg.labels[bad[1]])
    report.add("hom", "v is a semigroup homomorphism", True)
    return report


def _check_intertwining(rep: CovariantRep, tol: float, errcls) -> None:
    """v_t pi(a) = pi(alpha_t(a)) v_t for a over the basis of I_{t*}, whose
    images alpha_t(a) are the rows of the map's matrix."""
    act = rep.action
    dims = np.array([p.source.dim for p in act.pauts])
    owner = np.repeat(np.arange(len(dims)), dims)
    src = [np.zeros((0, act.algebra.dim))] + [p.source.basis for p in act.pauts]
    img = [np.zeros((0, act.algebra.dim))] + [p.matrix for p in act.pauts]
    v = rep.v[owner]
    if bad := first_far(v @ rep.pi_of(np.vstack(src)), rep.pi_of(np.vstack(img)) @ v, tol):
        t = owner[bad[0]]
        raise errcls(act.semigroup.labels[t], int(bad[0] - (np.cumsum(dims) - dims)[t]))


def check_algebraic(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Commutation, essential multiplicativity and unit laws.  Alternate
    covariance and the co-unit and left-unit laws follow from them (with
    I_t = I_tt* and alpha_e = id), so they are not checked again."""
    act, sg, n = rep.action, rep.action.semigroup, rep.space.dim
    report = CheckReport("algebraic covariant representation")
    _check_intertwining(rep, tol, CR1Violation)
    report.add("CR1", "commutation on all ideal bases", True,
               "membership of products in the algebra is automatic here")
    owner, rows = _section_rows(act)
    dims = np.array([act.ideal(t).dim for t in range(len(sg))])
    start, images = np.cumsum(dims) - dims, rep.pi_of(rows)
    prods = images @ rep.v[owner]
    # pi(a) v_s v_t against pi(a) v_st, a over the basis of I_st, for a block
    # of s at a time: the rows of the block of st, t by t, then s by s
    S = len(sg)
    for part in blocks(S, (S + 4 * dims[sg.table].sum(1).max()) * n * n):
        k = dims[sg.table[part]].ravel()
        pair = np.repeat(np.arange(k.size), k)  # (s, t) as s * |S| + t, local s
        at = start[sg.table[part]].ravel()[pair] + np.arange(len(pair)) - (np.cumsum(k) - k)[pair]
        vv = (rep.v[part, None] @ rep.v).reshape(-1, n, n)
        if bad := first_far(images[at] @ vv[pair], prods[at], tol):
            s, t = divmod(int(pair[bad[0]]), S)
            raise CR2Violation(sg.labels[part.start + s], sg.labels[t])
    report.add("CR2", "all (s, t) pairs", True, f"{len(sg) ** 2} pairs")
    at = np.isin(owner, sg.idempotents)
    if bad := first_far(prods[at], images[at], tol):
        raise CR3Violation(sg.labels[owner[at][bad[0]]])
    report.add("CR3", "unit law at every idempotent", True)
    report.note(f"nondegenerate (span pi(A)E = E): {rep.is_nondegenerate(tol)}")
    return report


# -------------------------------------------------------------- normalization


def _units(rep: CovariantRep) -> np.ndarray:
    """pi(1_t) for every element t."""
    return rep.pi_of(np.array([rep.action.ideal(t).unit for t in range(len(rep.v))]))


def is_normalized(rep: CovariantRep, tol: float = DEFAULT_TOL) -> bool:
    units, star = _units(rep), rep.action.semigroup.star
    return not (first_far(units @ rep.v, rep.v, tol) or first_far(rep.v @ units[star], rep.v, tol))


def grading_space(rep: CovariantRep, t: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Flattened span of {pi(a) v_t : a in I_t}."""
    basis, n = rep.action.ideal(t).basis, rep.space.dim
    return orth_rows((rep.pi_of(basis) @ rep.v[t]).reshape(len(basis), n * n), tol)


def normalize(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CovariantRep:
    """Replace v_t by pi(1_t) v_t, for a pair that passes ``check_algebraic``.

    The result is the unique normalized pair with the same essential
    products pi(a) v_t, a in I_t: a semigroup homomorphism with v_e = pi(1_e)
    and the same range.  Those are theorems, covered by the test suite, and
    not re-proved here.
    """
    check_algebraic(rep, tol)
    return rep.with_v(_units(rep) @ rep.v)


# ----------------------------------------------------------------- integrate


@dataclass(eq=False)
class IntegratedRep:
    """Linear map from dense section coordinates to operators on E."""

    rep: CovariantRep
    matrix: np.ndarray  # (n*n, total_dim)

    def apply(self, f: Ell1Element) -> np.ndarray:
        n = self.rep.space.dim
        return (self.matrix @ f.to_dense()).reshape(n, n)

    def kernel(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        return null_rows(self.matrix, tol)


def integrate(
    rep: CovariantRep,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    samples: int = 200,
    check: bool = True,
) -> IntegratedRep:
    """f -> sum over t of pi(f(t)) v_t.

    The pair need not have been checked, so with ``check`` the map is
    verified to be multiplicative (exactly, on the monomial spanning set;
    else ``NotMultiplicative`` names the first pair), contractive, and to
    kill the order-difference ideal (else ``NullNotKilled`` names the first
    null basis row that survives).  Contractivity is exact when pi passes
    the diagonal criterion of ``certify_contractive`` with bound r and the
    v_t have norms at most w, with r w <= 1: then
    ||psi(f)|| <= sum_t ||pi(f(t))|| ||v_t|| <= r w ||f||_1.  For every p,
    ||v_t|| is at most the larger of its 1- and inf-operator norms
    (Riesz-Thorin), and w is that bound.  Other pairs are sampled.  The
    check reads no certificate.  For an induced action, psi of N's class
    contrasts comes from sums within germ classes, with no basis of N built.
    """
    act, n = rep.action, rep.space.dim
    owner, rows = _section_rows(act)
    images = rep.pi_of(rows) @ rep.v[owner]
    matrix = images.reshape(len(images), n * n).T
    out = IntegratedRep(rep, matrix)
    if check:
        _check_products(images, structure_tensor(act, tol), tol)
        bound = _diagonal_bound(rep, tol)
        moduli = np.abs(rep.v)
        w = max(moduli.sum(-1).max(initial=0.0), moduli.sum(-2).max(initial=0.0))
        if bound is None or bound * w > 1.0 + tol:
            draws = np.random.default_rng(seed).standard_normal((samples, 2, act.total_dim))
            f = draws[:, 0] + 1j * draws[:, 1]
            norms = rep.opnorm((f @ matrix.T).reshape(-1, n, n))
            grown = np.flatnonzero(~(norms <= ell1_norms(act, f) + tol))
            if grown.size:
                raise NotContractive("integrated map", f"it expands sampled section {grown[0]}")
        _check_null_killed(out, tol)
    return out


def _check_null_killed(psi: IntegratedRep, tol: float) -> None:
    """psi of every null basis row has norm at most tol, else
    ``NullNotKilled`` names the first row that survives."""
    n = psi.rep.space.dim
    images = null_ideal(psi.rep.action, tol).basis_times(psi.matrix.T).reshape(-1, n, n)
    alive = ~(psi.rep.opnorm(images) <= tol)
    if alive.any():
        raise NullNotKilled(int(np.argmax(alive)))


def _check_products(images: np.ndarray, tensor: tuple, tol: float) -> None:
    """images[i] @ images[j] against the image of m_i * m_j from the
    structure tensor, for a block of i at a time; ``NotMultiplicative``
    names the first failing (i, j)."""
    I, J, K, C = tensor
    D, n = images.shape[:2]
    flat = images.reshape(D, n * n)
    order = np.argsort(I, kind="stable")  # keeps the summation order of each (i, j)
    ends = np.concatenate([[0], np.cumsum(np.bincount(I, minlength=D))])
    right = images.transpose(1, 0, 2).reshape(n, D * n)  # [b, (j, c)]
    for part in blocks(D, 3 * D * n * n):
        e, k = order[ends[part.start] : ends[part.stop]], part.stop - part.start
        got = np.zeros((k, D, n * n), dtype=complex)
        np.add.at(got, (I[e] - part.start, J[e]), C[e, None] * flat[K[e]])
        # one product for the block: [(i, a), (j, c)], then ordered as (i, j, a, c)
        want = (images[part].reshape(k * n, n) @ right).reshape(k, n, D, n)
        want = want.transpose(0, 2, 1, 3).reshape(got.shape)
        if bad := first_far(got, want, tol):
            raise NotMultiplicative((part.start + bad[0], bad[1]))


def regular_rep(theta: PartialSetAction, p, action: Action | None = None,
                tol: float = DEFAULT_TOL) -> CovariantRep:
    """Canonical spatial pair on functions over the carrier, scattered from
    theta's int rows: pi(delta_x) = e_x e_x^T and v_t = sum of
    e_{theta_t x} e_x^T over the domain of theta_t.

    On theta's own induced action (``action._theta is theta``) the pair is
    certified exactly from theta, as ``induce_action`` certified theta:
    v_s v_t = v_st, because theta is a homomorphism;
    v_t pi(delta_x) = e_{theta_t x} e_x^T = pi(alpha_t delta_x) v_t;
    ran v_t = span{e_y : y in the image of theta_t} = pi(I_t)E; and
    pi(A)E = E.  So it is spatial, hence algebraic, normalized and
    nondegenerate, and pi(delta_x) are orthogonal projections, so pi is
    multiplicative.  Then pi and v are read-only and the pair keeps the
    certificate (``_certified``).  Any other action gets ``check_spatial``.
    """
    act = action if action is not None else induce_action(theta)
    n = len(act.algebra.points)
    rows = _pbij_rows(act.algebra.points, theta.maps)
    pi = np.zeros((n, n, n), dtype=complex)
    pi[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    v = np.zeros((len(theta.maps), n, n), dtype=complex)
    t, x = np.nonzero(rows >= 0)
    v[t, rows[t, x], x] = 1.0
    rep = CovariantRep(act, ReprSpace(n, p), pi, v)
    if getattr(act, "_theta", None) is not theta:
        check_spatial(rep, tol)
        return rep
    rep.pi.flags.writeable = rep.v.flags.writeable = False
    rep._exact = (act, rep.pi, rep.v)
    return rep


def _certified(rep: CovariantRep) -> bool:
    """Whether ``regular_rep`` certified the pair and it still holds that action, pi and v."""
    cert = getattr(rep, "_exact", None)
    return cert is not None and all(a is b for a, b in zip(cert, (rep.action, rep.pi, rep.v)))


# ------------------------------------------------------- families, seminorms


def _require_family(family, tol: float, require_nondegenerate: bool) -> None:
    """Every pair is algebraic, and nondegenerate if asked; a pair that
    ``regular_rep`` certified exactly is both, and is not checked again."""
    if not family:
        raise EmptyFamily()
    for i, rep in enumerate(family):
        if _certified(rep):
            continue
        check_algebraic(rep, tol)
        if require_nondegenerate and not rep.is_nondegenerate(tol):
            raise DegenerateRepresentation(i)


def seminorm_family(
    f: Ell1Element,
    family,
    tol: float = DEFAULT_TOL,
    require_nondegenerate: bool = True,
) -> float:
    """sup over the family of the operator norm of the integrated image;
    each pi must be multiplicative (else ``NotMultiplicative``), or the sup
    is not a seminorm."""
    _require_family(family, tol, require_nondegenerate)
    for rep in family:
        if not _certified(rep):
            _check_multiplicative(rep, tol)
    return max(
        rep.opnorm(integrate(rep, tol, check=False).apply(f)) for rep in family
    )


def seminorm_kernel(
    family,
    tol: float = DEFAULT_TOL,
    require_nondegenerate: bool = True,
) -> np.ndarray:
    """Common kernel of the integrated maps, checked to be a convolution
    ideal (else ``NotAnIdeal``: the family check does not ask pi to be
    multiplicative).  For a valid action it contains the order-difference
    ideal, since an algebraic pair kills every order difference; the proof
    uses the action laws, which are not checked here."""
    _require_family(family, tol, require_nondegenerate)
    act = family[0].action
    stacked = np.vstack([integrate(rep, tol, check=False).matrix for rep in family])
    comp, kernel = split_rows(stacked, tol)
    if witness := _ideal_witness(act, kernel, comp, tol):
        raise NotAnIdeal(witness)
    return kernel


# ------------------------------------------------------------- C* and groups


def adjoint_check(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Hilbert-case adjoint formula and the saturation of the grading, for a
    normalized pair on a 2-norm space over an algebra with an involution."""
    act, n = rep.action, rep.space.dim
    sg, A = act.semigroup, act.algebra
    if rep.space.p != 2:
        raise NotHilbertSpace(f"adjoints need the 2-norm, not p = {rep.space.p}")
    if A.star_mat is None:
        raise NoStarOnAlgebra("adjoints need an involution")
    if not is_normalized(rep, tol):
        raise NotNormalized("the adjoint formula is stated for normalized pairs")
    report = CheckReport("adjoint formula")
    adjoints = rep.pi.conj().swapaxes(-1, -2)
    if bad := first_far(rep.pi_of(A.star(np.eye(A.dim, dtype=complex))), adjoints, tol):
        raise StarNotPreserved(bad[0])
    report.add("star", "pi preserves the involution", True)
    owner, rows = _section_rows(act)
    prods = rep.pi_of(rows) @ rep.v[owner]
    # (pi(a) v_t)* against pi(alpha_{t*}(a*)) v_{t*}, a over the basis of I_t
    stars = [np.zeros((0, A.dim))] + [
        act.apply(sg.inv(t), A.star(act.ideal(t).basis), tol) for t in act.offsets
    ]
    lhs = prods.conj().swapaxes(-1, -2)
    bad = first_far(lhs, rep.pi_of(np.vstack(stars)) @ rep.v[sg.star[owner]], tol)
    first = owner[bad[0]] if bad else len(sg)
    # A_t* = A_{t*}, with the flattened products of each element as columns;
    # element by element, the formula is checked before the grading
    lhs_span, span = (
        _by_element(x.reshape(-1, n * n), owner, len(sg)).swapaxes(1, 2) for x in (lhs, prods)
    )
    unsaturated = ~same_spans(span_basis(lhs_span, tol), span_basis(span, tol)[sg.star], tol)
    if unsaturated[:first].any():
        raise GradingNotSaturated(sg.labels[np.argmax(unsaturated)])
    if bad:
        raise AdjointFormulaViolation(sg.labels[first])
    report.add("adjoints", "adjoint formula at every element", True)
    report.add("saturated grading", "A_t* = A_{t*} at every element", True)
    return report


def group_case_check(
    action: Action, rep: CovariantRep | None = None, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Group specialization: the two convolution formulas agree, and for a
    nondegenerate normalized pair every v_g is an invertible isometry."""
    sg = action.semigroup
    if not sg.is_group:
        raise NotAGroup(len(sg.idempotents))
    report = CheckReport("group case")
    A, D = action.algebra, action.total_dim
    I, J, K, C = structure_tensor(action, tol)
    # parent-coordinate value of each monomial, and of each m_i * m_j
    owner, P = _section_rows(action)
    got = np.zeros((D, D, A.dim), dtype=complex)
    np.add.at(got, (I, J), C[:, None] * P[K])
    for s, off in action.offsets.items():
        # in (x * y)(r) = sum_h x(h) alpha_h(y(h^-1 r)) with x = a delta_s only
        # h = s survives, so x * b delta_t = a alpha_s(b) delta_st
        a = P[off : off + action.ideal(s).dim]
        outside = off_rows(P @ action.paut(s).source._resid, P, tol)  # alpha_s needs I_s* = A
        if outside.any():
            raise GroupConvolutionMismatch(sg.labels[s], sg.labels[owner[np.argmax(outside)]])
        want = np.einsum("ai,bj,ijk->abk", a, action.apply(s, P, tol), A.structure)
        if bad := first_far(got[off : off + len(a)], want, tol):
            raise GroupConvolutionMismatch(sg.labels[s], sg.labels[owner[bad[1]]])
    report.add("convolution", "group formula agrees on all basis pairs", True)
    if rep is not None:
        if not rep.is_nondegenerate(tol):
            raise DegenerateRepresentation("given to the group check")
        if not is_normalized(rep, tol):
            raise NotNormalized("the group check is stated for normalized pairs")
        singular = np.linalg.svd(rep.v, compute_uv=False)[:, -1] <= tol
        inverses = np.linalg.inv(np.where(singular[:, None, None], np.eye(rep.space.dim), rep.v))
        bad = singular | ~(rep.opnorm(rep.v) <= 1.0 + tol) | ~(rep.opnorm(inverses) <= 1.0 + tol)
        if bad.any():
            raise NotInvertibleIsometry(sg.labels[np.argmax(bad)])
        report.add("isometries", "all v_g invertible with contractive inverse", True)
    return report
