"""Canonical desk-scale instances shared by the tests.

* ``flip``: the 5-element closure of the single shift 1 -> 2 on two points,
  acting on C({1,2}); the order differences generate nothing.
* ``semi``: the two-element meet semilattice {1, e} acting with I_e the
  functions supported on the first point; one order difference survives.
* ``sim2``: the full symmetric inverse monoid on two points (7 elements)
  acting tautologically.
* ``z2``: the two-point swap, a plain group action.
"""

from __future__ import annotations

from dataclasses import dataclass

from semicross.actions import Action, PartialSetAction, induce_action
from semicross.reps import CovariantRep, regular_rep
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


ALL = {"flip": flip, "semi": semi, "sim2": sim2, "z2": z2}
