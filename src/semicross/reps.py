"""Covariant representations on finite-dimensional normed spaces.

A pair (pi, v) is *spatial* when v is a semigroup homomorphism intertwining
pi along the action and each v_t has exactly the essential range of I_t; it
is *algebraic* under the weaker commutation + essential-multiplicativity +
unit laws; it is *normalized* when v_t = pi(1_t) v_t.  Every algebraic pair
normalizes uniquely without changing essential products, and integration
f -> sum pi(f(t)) v_t turns sections into operators, killing the order
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    as_complex,
    first_far,
    null_rows,
    operator_norm,
    orth_rows,
    rows_equal,
    rows_leq,
)
from .actions import Action, PartialSetAction
from .ell1 import Ell1Element, _ideal_witness, ell1_norms, null_ideal, structure_tensor
from .errors import (
    CR1Violation,
    CR2Violation,
    CR3Violation,
    DegenerateRepresentation,
    EmptyFamily,
    NotAGroup,
    NotContractive,
    NotMultiplicative,
    NotSemigroupHom,
    SCR1Violation,
    SCR2RangeMismatch,
)
from .reporting import CheckReport


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


def certify_contractive(rep: CovariantRep, tol: float = DEFAULT_TOL, seed: int = 0,
                        samples: int = 2000) -> str:
    """Certify ||pi(a)|| <= ||a||; returns the certification level.

    Diagonal representations of function algebras admit an exact criterion
    (row sums of moduli); anything else is sampled on the unit sphere, with
    the real sign patterns thrown in for function algebras of dimension
    <= 16 since they are the extreme points of the real unit ball.
    """
    A, d, n = rep.action.algebra, rep.action.algebra.dim, rep.space.dim
    diagonal = np.allclose(rep.pi * (1 - np.eye(n)), 0.0, atol=tol, rtol=0.0)
    if A.kind == "function" and diagonal:
        rowsums = np.abs(np.diagonal(rep.pi, axis1=1, axis2=2)).sum(0)
        if np.any(rowsums > 1.0 + tol):
            raise NotContractive("pi", "a diagonal row sum exceeds 1")
        return "exact"
    signs = np.zeros((0, d))
    if A.kind == "function" and d <= 16:  # bit i of the pattern's index sets sign i
        signs = 2.0 * (np.arange(2**d)[:, None] >> np.arange(d) & 1) - 1.0
    draws = np.random.default_rng(seed).standard_normal((samples, 2, d))
    a = draws[:, 0] + 1j * draws[:, 1]
    na = A.norm(a)
    trials = np.vstack([signs, a[na > tol] / na[na > tol, None]])
    step = max(1, 2**20 // max(1, n * n))  # bounds the stack pi(trials) to 2^20 entries
    for lo in range(0, len(trials), step):
        chunk = trials[lo : lo + step]
        if np.any(rep.opnorm(rep.pi_of(chunk)) > A.norm(chunk) + tol):
            raise NotContractive("pi", "it expands a sampled element")
    return "sampled"


def validate_rep(rep: CovariantRep, tol: float = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """Homomorphism property of pi, contractivity, and contractive v."""
    report = CheckReport("representation basics")
    d, n = rep.action.algebra.dim, rep.space.dim
    # [i, j]: pi(e_i) pi(e_j) against pi(e_i e_j), flattened
    got = np.einsum("iab,jbc->ijac", rep.pi, rep.pi).reshape(d, d, n * n)
    want = np.einsum("ijk,kac->ijac", rep.action.algebra.structure, rep.pi)
    if bad := first_far(got, want.reshape(d, d, n * n), tol):
        raise NotMultiplicative(bad)
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


# ----------------------------------------------------------- axiom checkers


def _essential_space(rep: CovariantRep, t: int, tol: float) -> np.ndarray:
    """Row-space description of span(pi(I_t) E)."""
    basis = rep.action.ideal(t).basis
    if basis.shape[0] == 0:
        return np.zeros((0, rep.space.dim), dtype=complex)
    cols = np.hstack([rep.pi_of(a) for a in basis])
    return orth_rows(cols.T, tol)


def check_spatial(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Intertwining + exact essential ranges + semigroup homomorphism."""
    sg = rep.action.semigroup
    report = CheckReport("spatial covariant representation")
    _check_intertwining(rep, tol, SCR1Violation)
    report.add("SCR1", "intertwining on all ideal bases", True)
    for t in range(len(sg)):
        vrange = orth_rows(rep.v[t].T, tol)
        if not rows_equal(vrange, _essential_space(rep, t, tol), tol):
            raise SCR2RangeMismatch(sg.labels[t])
        report.add("SCR2", sg.labels[t], True)
    for s in range(len(sg)):
        for t in range(len(sg)):
            if not np.allclose(
                rep.v[s] @ rep.v[t], rep.v[sg.mul(s, t)], atol=tol, rtol=0.0
            ):
                raise NotSemigroupHom(sg.labels[s], sg.labels[t])
    report.add("hom", "v is a semigroup homomorphism", True)
    for t in range(len(sg)):
        ts = sg.inv(t)
        assert np.allclose(
            rep.v[t] @ rep.v[ts] @ rep.v[t], rep.v[t], atol=tol, rtol=0.0
        ), f"partial isometry identity fails at {t}"
    report.add("partial isometries", "v_t v_t* v_t = v_t", True)
    return report


def _check_intertwining(rep: CovariantRep, tol: float, errcls) -> None:
    """v_t pi(a) = pi(alpha_t(a)) v_t for a over the basis of I_{t*}."""
    sg = rep.action.semigroup
    for t in range(len(sg)):
        src = rep.action.paut(t).source
        for i, a in enumerate(src.basis):
            lhs = rep.v[t] @ rep.pi_of(a)
            rhs = rep.pi_of(rep.action.apply(t, a, tol)) @ rep.v[t]
            if not np.allclose(lhs, rhs, atol=tol, rtol=0.0):
                raise errcls(sg.labels[t], i)


def check_algebraic(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Commutation, essential multiplicativity and unit laws, plus their
    standard consequences (asserted, since they are theorems)."""
    sg = rep.action.semigroup
    act = rep.action
    report = CheckReport("algebraic covariant representation")
    _check_intertwining(rep, tol, CR1Violation)
    report.add("CR1", "commutation on all ideal bases", True,
               "membership of products in the algebra is automatic here")
    for s in range(len(sg)):
        for t in range(len(sg)):
            st = sg.mul(s, t)
            for a in act.ideal(st).basis:
                pa = rep.pi_of(a)
                if not np.allclose(
                    pa @ rep.v[s] @ rep.v[t], pa @ rep.v[st], atol=tol, rtol=0.0
                ):
                    raise CR2Violation(sg.labels[s], sg.labels[t])
            report.add("CR2", f"({sg.labels[s]}, {sg.labels[t]})", True)
    for e in sg.idempotents:
        for a in act.ideal(e).basis:
            pa = rep.pi_of(a)
            if not np.allclose(pa @ rep.v[e], pa, atol=tol, rtol=0.0):
                raise CR3Violation(sg.labels[e])
        report.add("CR3", sg.labels[e], True)
    # consequences: alternate covariance, left unit law, co-isometry law
    for t in range(len(sg)):
        ts = sg.inv(t)
        for a in act.paut(t).source.basis:
            lhs = rep.v[t] @ rep.pi_of(a) @ rep.v[ts]
            rhs = rep.pi_of(act.apply(t, a, tol))
            assert np.allclose(lhs, rhs, atol=tol, rtol=0.0), (
                f"alternate covariance fails at {t}"
            )
        for a in act.ideal(t).basis:
            # a in I_t = I_{tt*}, so CR2 + CR3 force pi(a) v_t v_{t*} = pi(a)
            pa = rep.pi_of(a)
            assert np.allclose(pa @ rep.v[t] @ rep.v[ts], pa, atol=tol, rtol=0.0), (
                f"co-unit law fails at {t}"
            )
    for e in sg.idempotents:
        for a in act.ideal(e).basis:
            pa = rep.pi_of(a)
            assert np.allclose(rep.v[e] @ pa, pa, atol=tol, rtol=0.0), (
                f"left unit law fails at {e}"
            )
    report.add("consequences", "alternate covariance and unit laws", True)
    report.note(f"nondegenerate (span pi(A)E = E): {rep.is_nondegenerate(tol)}")
    return report


# -------------------------------------------------------------- normalization


def is_normalized(rep: CovariantRep, tol: float = DEFAULT_TOL) -> bool:
    sg = rep.action.semigroup
    for t in range(len(sg)):
        unit = rep.action.ideal(t).unit
        if not np.allclose(rep.pi_of(unit) @ rep.v[t], rep.v[t], atol=tol, rtol=0.0):
            return False
        unit_star = rep.action.ideal(sg.inv(t)).unit
        if not np.allclose(rep.v[t] @ rep.pi_of(unit_star), rep.v[t], atol=tol, rtol=0.0):
            return False
    return True


def grading_space(rep: CovariantRep, t: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Flattened span of {pi(a) v_t : a in I_t}."""
    basis = rep.action.ideal(t).basis
    if basis.shape[0] == 0:
        return np.zeros((0, rep.space.dim ** 2), dtype=complex)
    rows = np.array([(rep.pi_of(a) @ rep.v[t]).ravel() for a in basis])
    return orth_rows(rows, tol)


def range_space(rep: CovariantRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Flattened span of all the grading subspaces."""
    sg = rep.action.semigroup
    rows = np.vstack([grading_space(rep, t, tol) for t in range(len(sg))])
    return orth_rows(rows, tol)


def normalize(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CovariantRep:
    """Replace v_t by pi(1_t) v_t and verify everything that is forced.

    The result is the unique normalized pair with the same essential
    products pi(a) v_t, a in I_t; failures of the assertions below would
    indicate an implementation bug, not bad input.
    """
    check_algebraic(rep, tol)
    sg = rep.action.semigroup
    act = rep.action
    new_v = np.array(
        [rep.pi_of(act.ideal(t).unit) @ rep.v[t] for t in range(len(sg))]
    )
    out = rep.with_v(new_v)
    for s in range(len(sg)):
        for t in range(len(sg)):
            assert np.allclose(
                out.v[s] @ out.v[t], out.v[sg.mul(s, t)], atol=tol, rtol=0.0
            ), "normalized v is not a semigroup homomorphism"
    for e in sg.idempotents:
        assert np.allclose(
            out.v[e], rep.pi_of(act.ideal(e).unit), atol=tol, rtol=0.0
        ), "normalized v_e differs from pi(1_e)"
    for t in range(len(sg)):
        for a in act.ideal(t).basis:
            pa = rep.pi_of(a)
            assert np.allclose(pa @ rep.v[t], pa @ out.v[t], atol=tol, rtol=0.0), (
                "normalization changed an essential product"
            )
        unit_star = act.ideal(sg.inv(t)).unit
        assert np.allclose(
            out.v[t] @ rep.pi_of(unit_star), out.v[t], atol=tol, rtol=0.0
        ), "right unit law fails after normalization"
    assert rows_equal(range_space(rep, tol), range_space(out, tol), tol), (
        "normalization changed the range"
    )
    again = np.array(
        [out.pi_of(act.ideal(t).unit) @ out.v[t] for t in range(len(sg))]
    )
    assert np.allclose(again, out.v, atol=tol, rtol=0.0), (
        "normalization is not idempotent"
    )
    return out


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

    On construction the map is verified to be multiplicative (exactly, on
    the monomial spanning set), contractive on sampled sections, and to kill
    the order-difference ideal.
    """
    act = rep.action
    n = rep.space.dim
    cols = []
    for t in act.nonzero_elements:
        for a in act.ideal(t).basis:
            cols.append((rep.pi_of(a) @ rep.v[t]).ravel())
    matrix = np.array(cols).T.reshape(n * n, act.total_dim)
    out = IntegratedRep(rep, matrix)
    if check:
        I, J, K, C = structure_tensor(act, tol)
        images = matrix.T.reshape(-1, n, n)
        got = np.zeros((len(images), len(images), n * n), dtype=complex)
        np.add.at(got, (I, J), C[:, None] * matrix[:, K].T)  # images of m_i * m_j
        want = np.einsum("iab,jbc->ijac", images, images).reshape(got.shape)
        assert np.allclose(got, want, atol=tol, rtol=0.0), (
            "integration is not multiplicative on monomials"
        )
        draws = np.random.default_rng(seed).standard_normal((samples, 2, act.total_dim))
        f = draws[:, 0] + 1j * draws[:, 1]
        assert np.all(
            rep.opnorm((f @ matrix.T).reshape(-1, n, n)) <= ell1_norms(act, f) + tol
        ), "integration is not contractive on a sampled section"
        kills = rep.opnorm((null_ideal(act, tol).basis @ matrix.T).reshape(-1, n, n))
        assert np.all(kills <= tol), "integration does not kill the order differences"
    return out


def regular_rep(theta: PartialSetAction, p, action: Action | None = None,
                tol: float = DEFAULT_TOL) -> CovariantRep:
    """Canonical spatial pair on functions over the carrier: pi multiplies,
    v_t relocates coordinates along theta_{t*} on the image of theta_t."""
    from .actions import induce_action

    act = action if action is not None else induce_action(theta)
    points = act.algebra.points
    n = len(points)
    pi = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        pi[i, i, i] = 1.0
    v = np.zeros((len(theta.maps), n, n), dtype=complex)
    for t, m in enumerate(theta.maps):
        inv = m.invert()
        for x in inv.domain:  # x ranges over the image set of theta_t
            v[t, points.index(x), points.index(inv(x))] = 1.0
    rep = CovariantRep(act, ReprSpace(n, p), pi, v)
    check_spatial(rep, tol)
    return rep


# ------------------------------------------------------- families, seminorms


def _require_family(family, tol: float, require_nondegenerate: bool) -> None:
    if not family:
        raise EmptyFamily()
    for i, rep in enumerate(family):
        check_algebraic(rep, tol)
        if require_nondegenerate and not rep.is_nondegenerate(tol):
            raise DegenerateRepresentation(i)


def seminorm_family(
    f: Ell1Element,
    family,
    tol: float = DEFAULT_TOL,
    require_nondegenerate: bool = True,
) -> float:
    """sup over the family of the operator norm of the integrated image."""
    _require_family(family, tol, require_nondegenerate)
    return max(
        rep.opnorm(integrate(rep, tol, check=False).apply(f)) for rep in family
    )


def seminorm_kernel(
    family,
    tol: float = DEFAULT_TOL,
    require_nondegenerate: bool = True,
) -> np.ndarray:
    """Common kernel of the integrated maps; a convolution ideal above the
    order-difference ideal (both facts asserted)."""
    _require_family(family, tol, require_nondegenerate)
    act = family[0].action
    stacked = np.vstack([integrate(rep, tol, check=False).matrix for rep in family])
    kernel = null_rows(stacked, tol)
    assert _ideal_witness(act, kernel, orth_rows(stacked, tol), tol) is None, (
        "kernel is not convolution invariant"
    )
    assert rows_leq(null_ideal(act, tol).basis, kernel, tol), (
        "kernel does not contain the order differences"
    )
    return kernel


# ------------------------------------------------------------- C* and groups


def adjoint_check(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Hilbert-case adjoint formula and the saturation of the grading."""
    act = rep.action
    sg = act.semigroup
    assert rep.space.p == 2, "adjoints need the 2-norm"
    assert act.algebra.star_mat is not None, "adjoints need an involution"
    assert is_normalized(rep, tol), "adjoint formula is stated for normalized pairs"
    report = CheckReport("adjoint formula")
    eye = np.eye(act.algebra.dim, dtype=complex)
    for i in range(act.algebra.dim):
        assert np.allclose(
            rep.pi_of(act.algebra.star(eye[i])),
            rep.pi[i].conj().T,
            atol=tol,
            rtol=0.0,
        ), "pi does not preserve the involution"
    report.add("star", "pi preserves the involution", True)
    for t in range(len(sg)):
        ts = sg.inv(t)
        for a in act.ideal(t).basis:
            lhs = (rep.pi_of(a) @ rep.v[t]).conj().T
            astar = act.apply(ts, act.algebra.star(a), tol)
            rhs = rep.pi_of(astar) @ rep.v[ts]
            assert np.allclose(lhs, rhs, atol=tol, rtol=0.0), (
                f"adjoint formula fails at {sg.labels[t]}"
            )
        report.add("adjoints", sg.labels[t], True)
        lhs_space = grading_space(rep, t, tol).conj()
        n = rep.space.dim
        lhs_space = (
            lhs_space.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n)
        )
        ok = rows_equal(lhs_space, grading_space(rep, ts, tol), tol)
        assert ok, f"grading is not saturated at {sg.labels[t]}"
        report.add("saturated grading", f"A_{sg.labels[t]}* = A_{sg.labels[ts]}", True)
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
    P = np.vstack([np.zeros((0, A.dim))] + [action.ideal(t).basis for t in action.offsets])
    got = np.zeros((D, D, A.dim), dtype=complex)
    np.add.at(got, (I, J), C[:, None] * P[K])
    owner = np.repeat(list(action.offsets), [action.ideal(t).dim for t in action.offsets])
    assert np.all(sg.table[owner[I], owner[J]] == owner[K]), "a product lands off st"
    for s, off in action.offsets.items():
        # in (x * y)(r) = sum_h x(h) alpha_h(y(h^-1 r)) with x = a delta_s only
        # h = s survives, so x * b delta_t = a alpha_s(b) delta_st
        a = P[off : off + action.ideal(s).dim]
        want = np.einsum("ai,bj,ijk->abk", a, action.apply(s, P, tol), A.structure)
        assert np.allclose(got[off : off + len(a)], want, atol=tol, rtol=0.0), (
            "group and semigroup convolutions disagree"
        )
    report.add("convolution", "group formula agrees on all basis pairs", True)
    if rep is not None:
        assert rep.is_nondegenerate(tol), "group check needs a nondegenerate pair"
        assert is_normalized(rep, tol), "group check needs a normalized pair"
        for g in range(len(sg)):
            m = rep.v[g]
            assert rep.opnorm(m) <= 1.0 + tol
            minv = np.linalg.inv(m)
            assert rep.opnorm(minv) <= 1.0 + tol, (
                f"v at {sg.labels[g]} is not an invertible isometry"
            )
        report.add("isometries", "all v_g invertible with contractive inverse", True)
    return report
