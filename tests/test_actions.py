"""Action axioms, the derived identities, induced actions and mutations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
import reference
from test_batched import INSTANCES, MATRIX_ACTIONS, SAMPLES, matrix_action, same

from semicross.actions import (
    Action,
    PartialSetAction,
    check_derived_identities,
    induce_action,
    validate_action,
)
from semicross.algebras import Ideal, PartialAut
from semicross.io_json import load_instance
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

# flip with alpha at id{1} scaled by 2 and id{1} listed first, off the cover
OFF_THE_COVER = """
import reference
from test_actions import scaled_idempotent_first
from test_batched import outcome
from semicross.actions import validate_action
act = scaled_idempotent_first()
got = outcome(validate_action, act)
print(0 in act.semigroup.cover, got == outcome(reference.reference_validate_action, act))
print(got[1])
"""

# fixtures.generator_lists live on at most 4 points, so a closure has at most
# |sim_4| = sum over k of C(4, k)^2 k! = 209 elements; these three reach it
SIM4_SIZE = 209
SIM4_GENERATORS = [
    PartialBijection.from_dict((1, 2, 3, 4), m)
    for m in ({1: 1, 2: 2, 3: 4, 4: 3}, {1: 1, 2: 2, 3: 3}, {1: 2, 2: 3, 3: 1, 4: 4})
]


def replace_paut(action, t, paut):
    pauts = list(action.pauts)
    pauts[t] = paut
    return Action(action.semigroup, action.algebra, tuple(pauts))


def with_matrix(action, label, matrix):
    t = action.semigroup.index(label)
    old = action.paut(t)
    return replace_paut(action, t, PartialAut(old.source, old.target, matrix))


def listed_first(action: Action, first: int) -> Action:
    """``action`` with the element ``first`` moved to index 0 of its
    semigroup, the others kept in order; the cover stays the letters, so
    index 0 is off it unless it is a letter."""
    sg = action.semigroup
    order = [first] + [t for t in range(len(sg)) if t != first]
    rank = np.argsort(order)
    moved = InvSemigroup.from_table(
        rank[sg.table[np.ix_(order, order)]], [sg.labels[t] for t in order],
        zero=None if sg.zero is None else int(rank[sg.zero]),
    )
    moved.cover = tuple(sorted(int(rank[g]) for g in sg.cover))
    return Action(moved, action.algebra, tuple(action.pauts[t] for t in order))


def scaled_idempotent_first() -> Action:
    """flip with alpha at id{1} scaled by 2 and id{1} listed first: the first
    failing pair in row-major order, (id{1}, id{1}), lies off the cover."""
    flip = fixtures.flip().action
    e = flip.semigroup.index("id{1}")
    return listed_first(with_matrix(flip, "id{1}", 2 * flip.paut(e).matrix), e)


def scaled_map() -> Action:
    flip = fixtures.flip().action
    return with_matrix(flip, "(1>2)", 2 * flip.paut(flip.semigroup.index("(1>2)")).matrix)


def swapped_maps() -> Action:
    """sim2 with the maps of the swap and of the identity exchanged."""
    sim2 = fixtures.sim2().action
    swap, ident = (sim2.paut(sim2.semigroup.index(x)).matrix for x in ("(1>2,2>1)", "id{1,2}"))
    return with_matrix(with_matrix(sim2, "(1>2,2>1)", ident), "id{1,2}", swap)


def map_off_its_source() -> Action:
    """flip with alpha at (1>2) the identity of its target C delta_2, which
    is not I_(2>1) = C delta_1."""
    flip = fixtures.flip().action
    t = flip.semigroup.index("(1>2)")
    target = flip.paut(t).target
    return replace_paut(flip, t, PartialAut(target, target, target.basis))


@pytest.fixture(scope="module")
def differential_actions():
    out = {name: load_instance(INSTANCES / f"{name}.json").action for name in SAMPLES}
    out["sim3"] = fixtures.sim3().action
    out["twisted_sim2"] = fixtures.twisted_sim2()
    out.update({f"matrix {name}": matrix_action(g) for name, g in MATRIX_ACTIONS.items()})
    out["matrix sim2, p = 1"] = matrix_action(MATRIX_ACTIONS["sim2"], p=1)
    return out


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


class TestStackedAgainstReference:
    """PA1 and alpha_s(I_s* & I_t) = I_st, checked per s over every t at once,
    against the pair-by-pair loops: the same report, or the same class, pair
    and reason at the first failure."""

    def test_validate_action(self, differential_actions):
        for act in differential_actions.values():
            same(validate_action, reference.reference_validate_action, act)

    def test_derived_identities(self, differential_actions):
        for act in differential_actions.values():
            same(check_derived_identities, reference.reference_check_derived_identities, act)

    @pytest.mark.parametrize(
        "build, s, t, reason",
        [
            (scaled_map, "(1>2)", "(2>1)", "maps differ on the source"),
            (swapped_maps, "(1>2,2>1)", "(1>2,2>1)", "maps differ on the source"),
            (map_off_its_source, "(1>2)", "(1>2)", "source subspaces differ"),
            (scaled_idempotent_first, "id{1}", "id{1}", "maps differ on the source"),
        ],
    )
    def test_crafted_failures(self, build, s, t, reason):
        act = build()
        got = same(validate_action, reference.reference_validate_action, act)
        assert got[:2] == ("PA1Violation", f"composition law fails at ({s}, {t}): {reason}")

    @pytest.mark.parametrize("build", [scaled_map, swapped_maps])
    def test_derived_identities_on_crafted_failures(self, build):
        same(check_derived_identities, reference.reference_check_derived_identities, build())

    def test_map_off_its_source_fails_the_image_law(self):
        # the reference applies alpha_s to vectors off its source and raises
        # LinAlgError; the stacked law names the first pair it sees fail
        with pytest.raises(AssertionError, match=r"at \(0, 1\)"):
            check_derived_identities(map_off_its_source())

    def test_map_off_its_target(self):
        # alpha at (1>2) maps C delta_1 onto itself, not onto I_(1>2) = C delta_2,
        # so alpha_(1>2) alpha_(1>2) is defined on C delta_1 while I_0 = 0.  The
        # reference takes that domain from the target ideal (I_(2>1) & I_(1>2)
        # = 0) and only fails at ((1>2), (2>1)).
        with pytest.raises(PA1Violation, match="source subspaces differ") as err:
            validate_action(fixtures.escaping_flip())
        assert err.value.pair == ("(1>2)", "(1>2)")

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_first_failure_off_the_cover_in_a_subprocess(self, flags):
        # the cover rounds fail at a letter; the row-major scan that follows
        # names the pair before it, as the pair-by-pair reference does
        path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, *flags, "-c", OFF_THE_COVER],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "False True",
            "composition law fails at (id{1}, id{1}): maps differ on the source",
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        fixtures.generator_lists,
        st.sampled_from(["none", "scale", "mix", "permute"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(SIM4_GENERATORS, "none", False, 0)
    def test_random_actions_with_one_perturbed_map(self, gens, kind, on_cover, seed):
        sg = generate_semigroup(gens, cap=SIM4_SIZE)
        if len(sg) > 40:  # the reference takes about a millisecond per pair
            return
        try:
            action = induce_action(PartialSetAction.tautological(sg))
        except PA2SpanDeficit:
            return
        rng = np.random.default_rng(seed)
        # the perturbed map on the cover or off it, where there is such a map
        pick = [t for t in action.nonzero_elements if (t in sg.cover) == on_cover]
        t = int(rng.choice(pick or action.nonzero_elements))
        m = action.paut(t).matrix
        k = len(m)
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        matrix = {
            "none": m,
            "scale": complex(*rng.uniform(0.5, 1.5, 2)) * m,
            "mix": (np.eye(k) + 0.5 * z) @ m,  # still inside the target
            "permute": m[::-1],
        }[kind]
        same(validate_action, reference.reference_validate_action,
             with_matrix(action, sg.labels[t], matrix))


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
        from reference import intersect_rows
        from semicross._linalg import rows_equal

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

    @pytest.mark.parametrize("name", ["flip", "semi", "sim2", "z2", "sim3"])
    def test_one_ideal_per_support(self, name, monkeypatch):
        # the source of alpha_t is the target of alpha_t*, and both are the one
        # ideal of their support, built once and as the reference builds it
        theta = getattr(fixtures, name)().theta
        built = []
        real = Ideal.from_support.__func__
        monkeypatch.setattr(Ideal, "from_support", classmethod(
            lambda cls, parent, points: (built.append(points), real(cls, parent, points))[1]))
        act = induce_action(theta)
        supports = {s for m in theta.maps for s in (m.domain, m.image)}
        assert sorted(map(sorted, built)) == sorted(map(sorted, supports))
        sg = act.semigroup
        for t, m in enumerate(theta.maps):
            assert act.paut(t).source is act.ideal(sg.inv(t))
            want = reference.reference_from_support(act.algebra, m.image)
            for a, b in ((act.ideal(t).basis, want.basis), (act.ideal(t).unit, want.unit)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

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
    @example(SIM4_GENERATORS)
    def test_numeric_oracle_passes_on_random_induced_actions(self, gens):
        # the exact certificate of induce_action against the numeric PA1 check
        sg = generate_semigroup(gens, cap=SIM4_SIZE)
        theta = PartialSetAction.tautological(sg)
        try:
            action = induce_action(theta)
        except PA2SpanDeficit as err:
            covered = set().union(*(sg.pbijs[e].image for e in sg.idempotents))
            assert err.gap == len(gens[0].carrier) - len(covered) > 0
            return
        assert validate_action(action).passed
