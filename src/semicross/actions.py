"""Inverse semigroup actions on finite-dimensional algebras.

An action assigns to every semigroup element t a partial automorphism
alpha_t : I_{t*} -> I_t such that composition of partial maps realizes the
semigroup law, every ideal is unital, and the idempotent ideals span the
algebra.  Actions on function algebras arise from partial bijections of the
point set via alpha_t(a) = a o theta_{t*}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_TOL, _kept, first_far, orth_rows, same_spans, span_basis
from .algebras import FinAlgebra, Ideal, PartialAut, function_algebra, ideal_validate
from .errors import (
    CarrierMismatch,
    NonzeroIdealAtZero,
    NotGeneratedByMaps,
    PA1Violation,
    PA2SpanDeficit,
)
from .reporting import CheckLine, CheckReport
from .semigroups import InvSemigroup, check_homomorphism


@dataclass(eq=False)
class Action:
    """Family {alpha_t} of partial automorphisms indexed by semigroup elements."""

    semigroup: InvSemigroup
    algebra: FinAlgebra
    pauts: tuple

    def __post_init__(self):
        """Make equal ideals one object, so that each subspace is checked,
        orthonormalized and pseudo-inverted once (the memos of ``Ideal``).
        Equal means the same parent and the same basis and unit arrays, byte
        for byte.  A map given a shared end is a new ``PartialAut``: the
        caller's maps and ideals are left as they are."""
        given = {id(i): i for p in self.pauts for i in (p.source, p.target)}
        shared = {}
        one = {
            key: shared.setdefault(
                (id(i.parent), i.basis.shape, i.basis.tobytes(), i.unit.tobytes()), i
            )
            for key, i in given.items()
        }
        pauts = []
        for p in self.pauts:
            src, tgt = one[id(p.source)], one[id(p.target)]
            if src is not p.source or tgt is not p.target:
                p = PartialAut(src, tgt, p.matrix)
            pauts.append(p)
        self.pauts = tuple(pauts)

    def ideal(self, t: int) -> Ideal:
        """I_t, the target ideal of alpha_t."""
        return self.pauts[t].target

    def paut(self, t: int) -> PartialAut:
        return self.pauts[t]

    def apply(self, t: int, x, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.pauts[t].apply(x, tol)

    # ----- coordinates of the section space (used by the convolution layer);
    # cached, the paut family never changes after construction

    @property
    def nonzero_elements(self) -> tuple:
        if not hasattr(self, "_nonzero"):
            self._nonzero = tuple(
                t for t in range(len(self.semigroup)) if self.ideal(t).dim > 0
            )
        return self._nonzero

    @property
    def offsets(self) -> dict:
        if not hasattr(self, "_offsets"):
            off, at = {}, 0
            for t in self.nonzero_elements:
                off[t] = at
                at += self.ideal(t).dim
            self._offsets = off
        return self._offsets

    @property
    def total_dim(self) -> int:
        if not hasattr(self, "_total_dim"):
            self._total_dim = sum(self.ideal(t).dim for t in self.nonzero_elements)
        return self._total_dim

    def __repr__(self):
        return (
            f"Action<|S|={len(self.semigroup)}, dim A={self.algebra.dim}, "
            f"dim l1={self.total_dim}>"
        )


@dataclass(eq=False)
class PartialSetAction:
    """Assignment t -> partial bijection theta_t of a finite carrier set,
    multiplicative as partial maps."""

    semigroup: InvSemigroup
    carrier: tuple
    maps: tuple

    @classmethod
    def tautological(cls, sg: InvSemigroup) -> "PartialSetAction":
        """A generated semigroup acting on its own carrier by its elements."""
        if sg.pbijs is None:
            raise NotGeneratedByMaps("semigroup was not generated from partial maps")
        return cls(sg, sg.pbijs[0].carrier, sg.pbijs)

    def validate(self) -> None:
        """Every theta_t lives on the carrier and theta_s theta_t = theta_st."""
        carrier = tuple(sorted(set(self.carrier)))
        for t, m in enumerate(self.maps):
            if m.carrier != carrier:
                raise CarrierMismatch(f"theta at {t} lives on {m.carrier}, not {carrier}")
        check_homomorphism(self.semigroup, self.maps)


def induce_action(theta: PartialSetAction) -> Action:
    """Action on C(X) from a partial set action: I_t is supported on the
    image of theta_t, and alpha_t precomposes with theta_{t*}.

    The action is certified exactly from theta, not numerically: theta is a
    homomorphism with theta_{t*} = theta_t^{-1}, so alpha_s alpha_t = alpha_st
    on the largest domain and alpha_t starts at I_{t*} (PA1); the ideal of the
    zero is {0}; and the idempotent images cover the carrier (PA2).  The
    action keeps theta, from which ``ell1`` builds its sections' products,
    null ideal and quotient exactly.
    """
    theta.validate()
    sg = theta.semigroup
    maps = theta.maps
    if sg.zero is not None and maps[sg.zero].pairs:
        raise NonzeroIdealAtZero(len(maps[sg.zero].pairs))
    covered = frozenset().union(*(maps[e].image for e in sg.idempotents))
    gap = len(set(theta.carrier)) - len(covered)
    if gap:
        raise PA2SpanDeficit(gap)
    for t, m in enumerate(maps):
        if maps[sg.inv(t)].pairs != m.invert().pairs:
            raise PA1Violation(sg.labels[t], sg.labels[sg.inv(t)], "theta_t* is not theta_t^-1")
    algebra = function_algebra(maps[0].carrier)
    eye = np.eye(algebra.dim, dtype=complex)
    pos = {x: i for i, x in enumerate(algebra.points)}
    # one ideal per support: the source of alpha_t is the target of alpha_t*
    supports = {s for m in maps for s in (m.domain, m.image)}
    ideals = {s: Ideal.from_support(algebra, s) for s in supports}
    pauts = []
    for m in maps:
        src, tgt = ideals[m.domain], ideals[m.image]
        # delta_x o theta_{t*} = delta_{theta_t(x)}, rows in the order of the domain
        pauts.append(PartialAut(src, tgt, eye[[pos[y] for _, y in m.pairs]]))
    action = Action(sg, algebra, tuple(pauts))
    action._theta = theta
    return action


def _stack(blocks: list) -> np.ndarray:
    """Row blocks (k_t, d) as one (len, K, d) stack, K = max k_t, padded
    with zero rows."""
    out = np.zeros((len(blocks), max(len(b) for b in blocks), blocks[0].shape[1]), complex)
    for t, b in enumerate(blocks):
        out[t, : len(b)] = b
    return out


def _paut_stacks(action: Action) -> tuple:
    """The sources S_t and maps M_t of every alpha_t as padded stacks, and
    the matrices with alpha_t(x) = x @ apply[t] for x in the source of alpha_t
    (the zero rows that pad S_t and M_t add nothing to a span and map to zero)."""
    src = _stack([p.source.basis for p in action.pauts])
    maps = _stack([p.matrix for p in action.pauts])
    return src, maps, np.linalg.pinv(src) @ maps


def validate_action(
    action: Action, tol: float = DEFAULT_TOL, record: bool = True
) -> CheckReport:
    """Check the zero convention, unital ideals with full idempotent span,
    and the composition law, in that order; reports every pair (s, t) of
    the composition law as checked.
    With ``record``, the action records that it passed at ``tol``: ``ell1``
    then reads its null ideal and quotient norm off the natural order
    (``germs._germs``), and a numeric null ideal memoized at ``tol`` is
    dropped.  Ideals checked at ``tol`` (by ``paut_validate``) are not
    checked again; subspace tests read each ideal's memoized ``orth``.

    The composition law alpha_s alpha_t = alpha_st, on the largest domain,
    is checked for every t and each s of the generating cover only.  That is
    enough: let P hold the s that pass for every t.  If s and r are in P,
    then for every t
    alpha_sr alpha_t = (alpha_s alpha_r) alpha_t = alpha_s (alpha_r alpha_t)
    = alpha_s alpha_rt = alpha_srt,
    using s at r, the associativity of composing partial maps (the only
    fact needed), r at t, then s at rt.  So P is closed under products,
    and holding the cover it is all of S.  Numerically a pair reached
    through a word of length L carries the cover checks' error compounded
    over L steps; on exactly represented maps the induction is exact.  Only
    after a failure does the row-major scan over every s run, to name the
    first (s, t)."""
    sg = action.semigroup
    report = CheckReport("action axioms")
    if sg.zero is not None:
        if action.ideal(sg.zero).dim != 0:
            raise NonzeroIdealAtZero(action.ideal(sg.zero).dim)
        report.add("zero", "I_0 = {0}", True)
    for t in range(len(sg)):
        ideal_validate(action.ideal(t), tol)
        report.add("units", f"I_{sg.labels[t]} unital", True)
    idem_rows = np.vstack(
        [action.ideal(e).basis for e in sg.idempotents]
        + [np.zeros((0, action.algebra.dim))]
    )
    span = orth_rows(idem_rows, tol).shape[0]
    if span < action.algebra.dim:
        raise PA2SpanDeficit(action.algebra.dim - span)
    report.add("PA2", "idempotent ideals span the algebra", True)
    # PA1 per s over every t at once: c runs over the coefficients with
    # alpha_t(c S_t) = c M_t inside the source of alpha_s, so c S_t is the
    # domain of alpha_s alpha_t
    src, maps, apply = _paut_stacks(action)
    src_span = span_basis(src.swapaxes(1, 2), tol)  # once, gathered by st below
    labels = sg.labels

    def first_failure(s: int):
        q = action.paut(s).source.orth(tol)
        _, sv, vh = np.linalg.svd((maps - maps @ q.conj().T @ q).swapaxes(1, 2))
        free = np.arange(src.shape[1]) >= _kept(sv, tol).sum(-1)[:, None]
        coeff = vh.conj() * free[..., None]  # rows c with c (M_t - M_t Q* Q) = 0
        st = sg.table[s]
        domain = coeff @ src
        same = same_spans(span_basis(domain.swapaxes(1, 2), tol), src_span[st], tol)
        bad = ~same
        if far := first_far(coeff @ maps @ apply[s], domain @ apply[st], tol):
            bad[far[0]] = True
        if bad.any():
            t = int(np.argmax(bad))
            return t, "maps differ on the source" if same[t] else "source subspaces differ"
        return None

    if any(first_failure(s) for s in sg.cover):
        for s in range(len(sg)):
            if failure := first_failure(s):
                raise PA1Violation(labels[s], labels[failure[0]], failure[1])
    report.lines += [CheckLine("PA1", f"({a}, {b})", True) for a in labels for b in labels]
    # sources must be the star-partner ideals
    for t in range(len(sg)):
        if not action.paut(t).source.same(action.ideal(sg.inv(t)), tol):
            raise PA1Violation(sg.labels[t], sg.labels[sg.inv(t)], "source is not I_{t*}")
    report.add("sources", "every alpha_t starts at I_{t*}", True)
    if record:
        vars(action).setdefault("_valid", set()).add(tol)
        # a caller that holds the numeric N still holds a correct N
        memo = vars(action).get("_null", {})
        if tol in memo and memo[tol].germs is None:
            del memo[tol]
    return report


def check_derived_identities(action: Action, tol: float = DEFAULT_TOL) -> CheckReport:
    """Consequences of the axioms, asserted exhaustively: failures here mean
    an implementation bug, not bad input."""
    sg = action.semigroup
    report = CheckReport("derived identities")
    # units of validated ideals are central idempotents, so I_s* & I_t is
    # spanned by u_s* b over the basis b of I_t; x -> u x is x @ left
    basis = _stack([action.ideal(t).basis for t in range(len(sg))])
    apply = _paut_stacks(action)[2]
    ideal_span = span_basis(basis.swapaxes(1, 2), tol)  # once, gathered by st below
    labels = sg.labels
    for s in range(len(sg)):
        unit = action.ideal(sg.inv(s)).unit
        left = np.tensordot(unit, action.algebra.structure, 1)
        image = basis @ left @ apply[s]
        ok = same_spans(span_basis(image.swapaxes(1, 2), tol), ideal_span[sg.table[s]], tol)
        assert ok.all(), f"alpha_s(I_s* & I_t) != I_st at ({s}, {np.argmin(ok)})"
        report.lines += [
            CheckLine("alpha_s(I_s* & I_t) = I_st", f"({labels[s]}, {b})", bool(good))
            for b, good in zip(labels, ok)
        ]
    for t in range(len(sg)):
        tt = sg.mul(t, sg.inv(t))
        ok = action.ideal(t).same(action.ideal(tt), tol)
        ok = ok and np.allclose(
            action.ideal(t).unit, action.ideal(tt).unit, atol=tol, rtol=0.0
        )
        assert ok, f"I_t != I_tt* at {t}"
        report.add("I_t = I_tt*", sg.labels[t], ok)
    for e in sg.idempotents:
        rows = action.ideal(e).basis
        ok = np.allclose(action.apply(e, rows, tol), rows, atol=tol, rtol=0.0)
        assert ok, f"alpha_e is not the identity at {e}"
        report.add("alpha_e = id", sg.labels[e], ok)
    for t in range(len(sg)):
        rows = action.paut(t).source.basis
        back = action.apply(sg.inv(t), action.apply(t, rows, tol), tol)
        ok = np.allclose(back, rows, atol=tol, rtol=0.0)
        assert ok, f"alpha_t* is not the inverse of alpha_t at {t}"
        report.add("alpha_t* = alpha_t^-1", sg.labels[t], ok)
    for s, t in sorted(sg.order):
        ok = action.ideal(s).leq(action.ideal(t), tol)
        assert ok, f"I_s not inside I_t for {s} <= {t}"
        report.add("s <= t implies I_s <= I_t", f"({sg.labels[s]}, {sg.labels[t]})", ok)
    return report
