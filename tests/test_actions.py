"""Action axioms, the derived identities, induced actions and mutations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import fixtures

from semicross.actions import (
    Action,
    PartialSetAction,
    check_derived_identities,
    induce_action,
    validate_action,
)
from semicross.algebras import Ideal, PartialAut
from semicross.errors import (
    CarrierMismatch,
    NonzeroIdealAtZero,
    NotAHomomorphism,
    PA1Violation,
    PA2SpanDeficit,
)
from semicross.semigroups import InvSemigroup, PartialBijection, generate_semigroup

ROOT = Path(__file__).resolve().parent.parent

# flip's theta with the identity in place of the shift (1>2): not a homomorphism
BROKEN_FLIP = """
from semicross import PartialBijection, PartialSetAction, generate_semigroup, induce_action
from semicross.errors import CheckError
sg = generate_semigroup([PartialBijection.from_dict(("1", "2"), {"1": "2"})])
maps = list(sg.pbijs)
maps[sg.index("(1>2)")] = PartialBijection.identity(("1", "2"))
try:
    induce_action(PartialSetAction(sg, ("1", "2"), tuple(maps)))
except CheckError as err:
    print(err.code, *err.pair)
"""


def replace_paut(action, t, paut):
    pauts = list(action.pauts)
    pauts[t] = paut
    return Action(action.semigroup, action.algebra, tuple(pauts))


class TestValidate:
    def test_flip_passes_with_full_report(self, flip):
        report = validate_action(flip.action)
        assert report.passed
        assert report.counts("PA1") == (25, 25)

    def test_semi_passes(self, semi):
        assert validate_action(semi.action).passed

    def test_scaled_map_breaks_composition(self, flip):
        sg = flip.semigroup
        t = sg.index("(1>2)")
        old = flip.action.paut(t)
        mutated = replace_paut(
            flip.action, t, PartialAut(old.source, old.target, -old.matrix)
        )
        with pytest.raises(PA1Violation):
            validate_action(mutated)

    def test_deleted_ideal_breaks_span(self, flip):
        sg = flip.semigroup
        e1 = sg.index("id{1}")
        zero = Ideal.zero(flip.action.algebra)
        mutated = replace_paut(
            flip.action, e1, PartialAut(zero, zero, np.zeros((0, 2)))
        )
        with pytest.raises(PA2SpanDeficit) as err:
            validate_action(mutated)
        assert err.value.gap == 1

    def test_nonzero_ideal_at_zero(self, flip):
        sg = flip.semigroup
        ideal = Ideal.from_support(flip.action.algebra, ["1"])
        mutated = replace_paut(flip.action, sg.zero, PartialAut.identity(ideal))
        with pytest.raises(NonzeroIdealAtZero):
            validate_action(mutated)


class TestDerivedIdentities:
    def test_all_fixtures(self, all_instances):
        for inst in all_instances:
            assert check_derived_identities(inst.action).passed

    def test_flip_shift_ideal_equals_its_range_ideal(self, flip):
        sg = flip.semigroup
        t = sg.index("(1>2)")
        tt = sg.mul(t, sg.inv(t))
        assert np.allclose(
            flip.action.ideal(t).basis, flip.action.ideal(tt).basis
        )

    def test_flip_image_of_intersection(self, flip):
        # alpha_t(I_t* & I_{e1}) = I_{t e1} = I_t
        sg = flip.semigroup
        t, e1 = sg.index("(1>2)"), sg.index("id{1}")
        from semicross._linalg import intersect_rows, rows_equal

        inter = intersect_rows(
            flip.action.ideal(sg.inv(t)).basis, flip.action.ideal(e1).basis
        )
        image = np.array([flip.action.apply(t, row) for row in inter])
        assert rows_equal(image, flip.action.ideal(sg.mul(t, e1)).basis)

    def test_semi_idempotent_acts_as_identity(self, semi):
        sg = semi.semigroup
        e = sg.index("id{1}")
        for row in semi.action.ideal(e).basis:
            assert np.allclose(semi.action.apply(e, row), row)


class TestInduce:
    def test_flip_shift_sends_delta1_to_delta2(self, flip):
        sg = flip.semigroup
        t = sg.index("(1>2)")
        assert np.allclose(
            flip.action.apply(t, np.array([1, 0], complex)),
            np.array([0, 1], complex),
        )

    def test_sim2_ideal_layout(self, sim2):
        sg = sim2.semigroup
        act = sim2.action
        assert act.ideal(sg.index("(1>2,2>1)")).dim == 2
        assert act.ideal(sg.index("id{1,2}")).dim == 2
        assert act.ideal(sg.index("(1>2)")).support == ("2",)
        assert len(act.nonzero_elements) == 6
        assert act.total_dim == 8

    def test_trivial_action_is_full(self):
        sg = generate_semigroup([PartialBijection.identity(("1", "2"))])
        act = induce_action(PartialSetAction.tautological(sg))
        assert act.ideal(0).dim == 2
        assert np.allclose(act.paut(0).matrix, np.eye(2))

    def test_group_case_ideals_are_global(self, z2):
        # a single idempotent forces every ideal to be the whole algebra
        assert z2.semigroup.is_group
        for t in range(len(z2.semigroup)):
            assert z2.action.ideal(t).dim == z2.action.algebra.dim
            cert_rows = z2.action.paut(t).matrix
            assert cert_rows.shape == (2, 2)

    def test_roundtrip_on_random_partial_actions(self):
        # random generators on carriers up to size 5, restricted to the points
        # the maps actually touch (linear density needs the carrier covered)
        rng = np.random.default_rng(7)
        for trial in range(8):
            size = int(rng.integers(2, 6))
            carrier = tuple(str(i) for i in range(size))
            raw = []
            for _ in range(2):
                src = [x for x in carrier if rng.random() < 0.5][:3]
                dst = list(rng.permutation(carrier)[: len(src)])
                raw.append(tuple(zip(src, dst)))
            touched = tuple(sorted({x for g in raw for pair in g for x in pair}))
            if not touched:
                continue
            gens = [PartialBijection(touched, g) for g in raw if g]
            if not gens:
                continue
            sg = generate_semigroup(gens, cap=400)
            if len(sg) > 60:
                continue
            action = induce_action(PartialSetAction.tautological(sg))
            assert validate_action(action).passed

    def test_homomorphism_property_is_checked(self, flip):
        maps = list(flip.theta.maps)
        sg = flip.semigroup
        t = sg.index("(1>2)")
        maps[t] = PartialBijection.identity(("1", "2"))
        broken = PartialSetAction(sg, ("1", "2"), tuple(maps))
        with pytest.raises(NotAHomomorphism) as err:
            broken.validate()
        assert err.value.pair == ("(1>2)", "(1>2)")
        with pytest.raises(NotAHomomorphism):
            induce_action(broken)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_non_homomorphism_is_named_in_a_subprocess(self, flags):
        # python -O strips assert statements; the check must not rely on them
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, *flags, "-c", BROKEN_FLIP],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["NotAHomomorphism", "(1>2)", "(1>2)"]

    def test_map_off_the_carrier(self, flip):
        maps = list(flip.theta.maps)
        maps[0] = PartialBijection.identity(("1", "2", "3"))
        with pytest.raises(CarrierMismatch):
            PartialSetAction(flip.semigroup, ("1", "2"), tuple(maps)).validate()

    def test_uncovered_point_is_a_span_deficit(self):
        carrier = ("1", "2", "3")
        sg = generate_semigroup([PartialBijection.identity(carrier, ("1",))])
        with pytest.raises(PA2SpanDeficit) as err:
            induce_action(PartialSetAction.tautological(sg))
        assert err.value.gap == 2

    def test_zero_acting_nontrivially(self, flip):
        # the identity everywhere is a homomorphism, but the zero then has I_0 = C(X)
        ident = PartialBijection.identity(("1", "2"))
        theta = PartialSetAction(flip.semigroup, ("1", "2"), (ident,) * len(flip.semigroup))
        with pytest.raises(NonzeroIdealAtZero) as err:
            induce_action(theta)
        assert err.value.dim == 2

    def test_star_that_is_not_the_inverse(self, flip):
        sg = flip.semigroup
        t = sg.index("(1>2)")
        bogus = InvSemigroup(
            sg.labels, sg.table, np.arange(len(sg)), sg.idempotents, sg.order, sg.zero, sg.pbijs
        )
        with pytest.raises(PA1Violation) as err:
            induce_action(PartialSetAction.tautological(bogus))
        assert err.value.pair == (sg.labels[t], sg.labels[t])

    @settings(max_examples=25, deadline=None)
    @given(fixtures.generator_lists)
    def test_numeric_oracle_passes_on_random_induced_actions(self, gens):
        # the exact certificate of induce_action against the numeric PA1 check
        sg = generate_semigroup(gens, cap=200)
        theta = PartialSetAction.tautological(sg)
        try:
            action = induce_action(theta)
        except PA2SpanDeficit as err:
            covered = set().union(*(sg.pbijs[e].image for e in sg.idempotents))
            assert err.gap == len(gens[0].carrier) - len(covered) > 0
            return
        assert validate_action(action).passed
