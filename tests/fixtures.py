"""Canonical desk-scale instances shared by the tests.

* ``flip``: the 5-element closure of the single shift 1 -> 2 on two points,
  acting on C({1,2}); the order differences generate nothing.
* ``semi``: the two-element meet semilattice {1, e} acting with I_e the
  functions supported on the first point; one order difference survives.
* ``sim2``: the full symmetric inverse monoid on two points (7 elements)
  acting tautologically.
* ``z2``: the two-point swap, a plain group action.
* ``sim3``: the full symmetric inverse monoid on three points (34 elements,
  dim l1 = 63) acting tautologically.
* ``plain``: an induced action rebuilt as a plain ``Action``, the numeric
  path's twin of the germ path.
* ``escaping_flip``: ``flip`` with alpha at (1>2) replaced by the identity
  of C delta_1, so it leaves I_(1>2) = C delta_2; never validated.
  ``flip_with_identity`` makes the other maps of that kind.
* ``twisted_sim2``: sim2 moving the blocks of M_2 + M_2 (p = inf), with
  alpha at (1>2) followed by Ad(W) and alpha at (2>1) preceded by Ad(W*),
  W the swap on the block of point 2.  Each alpha_t is still a partial
  automorphism with alpha_{t*} its inverse, but alpha at (1>2) is no longer
  the restriction of alpha at (1>2,2>1), so PA1 fails; never validated.
* ``with_v_at``, ``padded`` and ``cr_perturbations``: a pair with one
  v_t replaced, with dead coordinates appended, and with random junk added
  off the essential blocks of v.
* ``generator_lists``: a hypothesis strategy for one to three random
  partial bijections on a carrier {1..n}, n <= 4.
* ``TRIVIAL_M2``: the instance file of two idempotents 1 >= e acting
  trivially on M_2 with the operator 2-norm, and a = the identity at 1; the
  order differences survive, and the quotient norm has no LP model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from semicross.actions import Action, PartialSetAction, induce_action
from semicross.algebras import Ideal, PartialAut, matrix_algebra
from semicross.errors import CheckError
from semicross.reps import CovariantRep, ReprSpace, check_algebraic, regular_rep
from semicross.semigroups import InvSemigroup, PartialBijection, generate_semigroup

POINTS = ("1", "2")


@dataclass(eq=False)
class Instance:
    name: str
    semigroup: InvSemigroup
    theta: PartialSetAction
    action: Action

    def regular(self, p=2) -> CovariantRep:
        return regular_rep(self.theta, p, action=self.action)


def _instance(name: str, generators) -> Instance:
    sg = generate_semigroup(list(generators))
    theta = PartialSetAction.tautological(sg)
    return Instance(name, sg, theta, induce_action(theta))


def flip() -> Instance:
    shift = PartialBijection.from_dict(POINTS, {"1": "2"})
    return _instance("flip", [shift])


def semi() -> Instance:
    full = PartialBijection.identity(POINTS)
    part = PartialBijection.identity(POINTS, ("1",))
    return _instance("semi", [full, part])


def sim2() -> Instance:
    swap = PartialBijection.from_dict(POINTS, {"1": "2", "2": "1"})
    part = PartialBijection.identity(POINTS, ("1",))
    return _instance("sim2", [swap, part])


def z2() -> Instance:
    swap = PartialBijection.from_dict(POINTS, {"1": "2", "2": "1"})
    return _instance("z2", [swap])


def sim3() -> Instance:
    points = ("1", "2", "3")
    cycle = PartialBijection.from_dict(points, {"1": "2", "2": "3", "3": "1"})
    swap = PartialBijection.from_dict(points, {"1": "2", "2": "1", "3": "3"})
    part = PartialBijection.identity(points, ("1", "2"))
    return _instance("sim3", [cycle, swap, part])


def plain(action: Action) -> Action:
    """The same semigroup, algebra and maps as a plain ``Action``, with no
    link to a theta: ``ell1`` takes its numeric path for it."""
    return Action(action.semigroup, action.algebra, action.pauts)


def flip_with_identity(label: str, point: str | None) -> Action:
    """``flip`` with alpha at ``label`` replaced by the identity of
    C delta_point, or by the zero map when ``point`` is None; its target
    ideal stays.  Never validated."""
    act = flip().action
    t = act.semigroup.index(label)
    source = Ideal.from_support(act.algebra, [point] if point else [])
    pauts = list(act.pauts)
    pauts[t] = PartialAut(source, act.paut(t).target, np.array(source.basis))
    return Action(act.semigroup, act.algebra, tuple(pauts))


def escaping_flip() -> Action:
    return flip_with_identity("(1>2)", "1")


def twisted_sim2() -> Action:
    sg = sim2().semigroup
    A = matrix_algebra([2, 2], np.inf)
    block = dict(zip(POINTS, A.blocks))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    twisted = {sg.index("(1>2)"), sg.index("(2>1)")}

    def ideal(points):
        idx = [i for y in sorted(points) for i in block[y].flat]
        diag = [i for y in points for i in np.diag(block[y])]
        return Ideal(A, np.eye(A.dim)[idx], np.eye(A.dim)[diag].sum(0))

    pauts = []
    for t, m in enumerate(sg.pbijs):
        w = swap if t in twisted else np.eye(2)
        rows = []
        for x in sorted(m.domain):
            for e in np.eye(4).reshape(4, 2, 2):  # the matrix units of block x
                row = np.zeros(A.dim)
                row[block[m(x)]] = w @ e @ w.T
                rows.append(row)
        matrix = np.array(rows).reshape(-1, A.dim)
        pauts.append(PartialAut(ideal(m.domain), ideal(m.image), matrix))
    return Action(sg, A, tuple(pauts))


def with_v_at(rep, label, matrix):
    v = rep.v.copy()
    v[rep.action.semigroup.index(label)] = matrix
    return rep.with_v(v)


def padded(rep, extra=1):
    """The same pair on a space with ``extra`` dead coordinates appended.

    Nondegenerate pairs (the group case) leave no room for covariant junk,
    so perturbation tests act on this degenerate extension instead.
    """
    n = rep.space.dim
    m = n + extra
    pi = np.zeros((rep.pi.shape[0], m, m), dtype=complex)
    pi[:, :n, :n] = rep.pi
    v = np.zeros((rep.v.shape[0], m, m), dtype=complex)
    v[:, :n, :n] = rep.v
    return CovariantRep(rep.action, ReprSpace(m, rep.space.p), pi, v)


def cr_perturbations(rep, count, seed, scale=0.5):
    """Random junk added off the essential blocks of v, filtered to retain
    the algebraic axioms; normalization must erase all of it."""
    sg = rep.action.semigroup
    act = rep.action
    n = rep.space.dim
    eye = np.eye(n, dtype=complex)
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        t = int(rng.integers(len(sg)))
        left = eye - rep.pi_of(act.ideal(t).unit)
        right = eye - rep.pi_of(act.ideal(sg.inv(t)).unit)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        junk = left @ raw @ right
        norm = rep.opnorm(junk)
        if norm < 1e-12:
            continue
        v = rep.v.copy()
        v[t] = v[t] + (scale / norm) * junk
        cand = rep.with_v(v)
        try:
            check_algebraic(cand)
        except CheckError:
            continue
        out.append(cand)
    assert len(out) == count, "could not build enough covariant perturbations"
    return out


@st.composite
def partial_bijections_on(draw, n: int) -> PartialBijection:
    image = draw(st.permutations(range(1, n + 1)))
    domain = draw(st.sets(st.sampled_from(range(1, n + 1))))
    return PartialBijection(tuple(range(1, n + 1)), tuple((x, image[x - 1]) for x in domain))


generator_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(partial_bijections_on(n), min_size=1, max_size=3)
)


ALL = {"flip": flip, "semi": semi, "sim2": sim2, "z2": z2}


_EYE4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
TRIVIAL_M2 = {
    "semigroup": {"elements": ["1", "e"], "table": [[0, 1], [1, 1]]},
    "algebra": {"kind": "matrix", "blocks": [2], "p": 2},
    "action": {"ideals": {"1": _EYE4, "e": _EYE4}, "maps": {"1": _EYE4, "e": _EYE4}},
    "elements": {"a": [["1", [[1, 0], [0, 0], [0, 0], [1, 0]]]]},
}
