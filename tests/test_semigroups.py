"""Partial bijections, generated closures, Cayley-table validation, the
natural order, and the regular embedding, with the facts a checked table
forces (commuting idempotents, a partial order, Wagner-Preston) proved on
every table of size at most 3 and on random closures."""

import contextlib
import itertools
import os
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fixtures

from reference import (
    embedding_consequences,
    inverse_consequences,
    reference_assoc_witness,
    reference_check_rows,
    reference_generate_semigroup,
    reference_natural_order,
    reference_wagner_preston,
)

from semicross.errors import (
    CarrierMismatch,
    NoGeneralizedInverse,
    NonUniqueInverse,
    NotAHomomorphism,
    NotAssociative,
    SizeCapExceeded,
    ZeroNotAbsorbing,
)
from semicross import _linalg, semigroups
from semicross.io_json import load_instance
from semicross.semigroups import (
    InvSemigroup,
    PartialBijection,
    check_homomorphism,
    generate_semigroup,
    natural_order,
    validate_inverse,
    wagner_preston_embed,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ("flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2")

X = ("1", "2")
T = PartialBijection.from_dict(X, {"1": "2"})
TAU = PartialBijection.from_dict(X, {"1": "2", "2": "1"})
E1 = PartialBijection.identity(X, ("1",))
IDX = PartialBijection.identity(X)


def _on(n: int, mapping: dict) -> PartialBijection:
    return PartialBijection(tuple(range(1, n + 1)), tuple(mapping.items()))


def sim_generators(n: int) -> list:
    """A transposition, an n-cycle and the identity off one point."""
    return [
        _on(n, {1: 2, 2: 1, **{i: i for i in range(3, n + 1)}}),
        _on(n, {i: i % n + 1 for i in range(1, n + 1)}),
        _on(n, {i: i for i in range(2, n + 1)}),
    ]


def chain_generators(n: int) -> list:
    return [_on(n, {i: i + 1 for i in range(1, n)})]


def cycle_point_generators(n: int) -> list:
    return [_on(n, {i: i % n + 1 for i in range(1, n + 1)}), _on(n, {1: 1})]


CLOSURES = {
    "tau_e1": [TAU, E1],
    "sim3": sim_generators(3),
    "sim4": sim_generators(4),
    "chain6": chain_generators(6),
    "chain8": chain_generators(8),
    "cyc7_e": cycle_point_generators(7),
    "empty_carrier": [PartialBijection.empty(())],
}


def assert_same_semigroup(got: InvSemigroup, want: InvSemigroup) -> None:
    assert got.labels == want.labels
    assert np.array_equal(got.table, want.table)
    assert np.array_equal(got.star, want.star)
    assert got.idempotents == want.idempotents
    assert got.zero == want.zero
    assert got.order == want.order
    assert [p.pairs for p in got.pbijs] == [p.pairs for p in want.pbijs]
    assert all(p.carrier == q.carrier for p, q in zip(got.pbijs, want.pbijs))


def brute_closure(gens):
    """Independent oracle: plain set closure on graphs, no BFS machinery."""
    carrier = gens[0].carrier
    graphs = {g.pairs for g in gens}
    while True:
        new = set()
        for a in graphs:
            new.add(tuple(sorted((y, x) for x, y in a)))
            amap = dict(a)
            for b in graphs:
                bmap = dict(b)
                new.add(
                    tuple(
                        sorted(
                            (x, amap[y])
                            for x, y in b
                            if y in amap
                        )
                    )
                )
        if new <= graphs:
            return graphs
        graphs |= new


class TestPartialBijection:
    def test_compose_shift_with_itself_is_empty(self):
        assert T.compose(T).pairs == ()

    def test_compose_shift_with_inverse_is_identity_on_image(self):
        assert T.compose(T.invert()).pairs == (("2", "2"),)

    def test_identity_is_neutral(self):
        for f in (T, TAU, E1):
            assert IDX.compose(f).pairs == f.pairs
            assert f.compose(IDX).pairs == f.pairs

    def test_invert_shift(self):
        assert T.invert().pairs == (("2", "1"),)

    def test_invert_empty_and_identity(self):
        assert PartialBijection.empty(X).invert().pairs == ()
        assert E1.invert().pairs == E1.pairs

    def test_carrier_mismatch(self):
        other = PartialBijection.identity(("1", "2", "3"))
        with pytest.raises(CarrierMismatch):
            T.compose(other)

    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            PartialBijection(X, (("1", "2"), ("2", "2")))

    def test_domain_composition_rule(self):
        # domain of f o g is g^{-1}(dom f & im g), cross-checked pointwise
        f = PartialBijection.from_dict(("1", "2", "3"), {"1": "3", "2": "1"})
        g = PartialBijection.from_dict(("1", "2", "3"), {"3": "2", "2": "1"})
        comp = f.compose(g)
        expected = {
            x: f(g(x))
            for x in ("1", "2", "3")
            if x in g.domain and g(x) in f.domain
        }
        assert dict(comp.pairs) == expected


class TestGenerateSemigroup:
    def test_flip_closure_has_five_elements(self):
        sg = generate_semigroup([T])
        assert len(sg) == 5
        assert len(brute_closure([T])) == 5

    def test_two_point_monoid_has_seven_elements(self):
        sg = generate_semigroup([TAU, E1])
        assert len(sg) == 7
        assert len(brute_closure([TAU, E1])) == 7
        # counting oracle: sum over k of C(2,k)^2 k!
        from math import comb, factorial

        assert sum(comb(2, k) ** 2 * factorial(k) for k in range(3)) == 7

    def test_identity_alone(self):
        assert len(generate_semigroup([IDX])) == 1

    def test_zero_is_registered_when_reached(self):
        sg = generate_semigroup([T])
        assert sg.zero is not None
        assert sg.labels[sg.zero] == "0"
        for t in range(len(sg)):
            assert sg.mul(sg.zero, t) == sg.zero == sg.mul(t, sg.zero)

    def test_no_zero_without_empty_map(self):
        assert generate_semigroup([TAU]).zero is None

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            generate_semigroup([TAU, E1], cap=3)

    def test_table_matches_recomposition(self):
        sg = generate_semigroup([TAU, E1])
        for i, j in itertools.product(range(len(sg)), repeat=2):
            recomposed = sg.pbijs[i].compose(sg.pbijs[j])
            assert sg.pbijs[sg.mul(i, j)].pairs == recomposed.pairs

    def test_deterministic_enumeration(self):
        a = generate_semigroup([TAU, E1])
        b = generate_semigroup([TAU, E1])
        assert a.labels == b.labels
        assert np.array_equal(a.table, b.table)


class TestClosureAgainstReference:
    """The int-row closure against the per-pair closure in tests/reference.py."""

    @pytest.mark.parametrize("name", list(CLOSURES))
    def test_identical_to_reference(self, name):
        gens = CLOSURES[name]
        assert_same_semigroup(generate_semigroup(gens), reference_generate_semigroup(gens))

    @pytest.mark.parametrize("name", list(CLOSURES))
    def test_unchecked_maps_equal_the_checked_ones(self, name):
        # the closure and the regular embedding build their maps unchecked;
        # each equals, and hashes like, the map built and sorted the checked way
        sg = generate_semigroup(CLOSURES[name])
        for p in (*sg.pbijs, *wagner_preston_embed(sg)):
            checked = PartialBijection(p.carrier[::-1], p.pairs[::-1])
            assert (p.carrier, p.pairs) == (checked.carrier, checked.pairs)
            assert p == checked and hash(p) == hash(checked)

    @settings(max_examples=30, deadline=None)
    @given(fixtures.generator_lists)
    def test_random_generators_match_reference(self, gens):
        assert_same_semigroup(
            generate_semigroup(gens, cap=500), reference_generate_semigroup(gens, cap=500)
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_symmetric_inverse_monoid_count(self, n):
        # |sim_n| = sum over k of C(n,k)^2 k!: choose domain, image, bijection
        want = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
        assert want == {3: 34, 4: 209}[n]
        assert len(generate_semigroup(sim_generators(n))) == want

    def test_wide_carrier_matches_reference(self):
        # 34 points: the regular embedding of sim3
        image = wagner_preston_embed(generate_semigroup(sim_generators(3)))
        assert len(image[0].carrier) == 34
        assert_same_semigroup(generate_semigroup(image), reference_generate_semigroup(image))

    def test_cap_is_the_same(self):
        gens = sim_generators(4)
        for closure in (generate_semigroup, reference_generate_semigroup):
            with pytest.raises(SizeCapExceeded) as err:
                closure(gens, cap=208)
            assert err.value.cap == 208
            assert len(closure(gens, cap=209)) == 209

    @pytest.mark.parametrize("name", ["tau_e1", "sim3", "empty_carrier"])
    def test_cap_zero_is_the_same(self, name):
        for closure in (generate_semigroup, reference_generate_semigroup):
            with pytest.raises(SizeCapExceeded) as err:
                closure(CLOSURES[name], cap=0)
            assert err.value.cap == 0

    def test_empty_carrier_fits_a_cap_of_one(self):
        gens = CLOSURES["empty_carrier"]
        assert_same_semigroup(
            generate_semigroup(gens, cap=1), reference_generate_semigroup(gens, cap=1)
        )

    def test_sim5_in_bounded_time_and_memory(self):
        # |sim_5| = 1546; the table alone has 2.4 M entries
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from semicross import InvSemigroup, PartialBijection as P, generate_semigroup\n"
            "x = (1, 2, 3, 4, 5)\n"
            "gens = [P.from_dict(x, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}),\n"
            "        P.from_dict(x, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}), P.identity(x, (2, 3, 4, 5))]\n"
            "sg = generate_semigroup(gens)\n"
            "rebuilt = InvSemigroup.from_table(sg.table)\n"
            "same = np.array_equal(rebuilt.star, sg.star) and rebuilt.idempotents == sg.idempotents\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(sg), int(same), rss)\n"
        )
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        wall = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        size, same, rss_kib = map(int, result.stdout.split())
        assert size == sum(comb(5, k) ** 2 * factorial(k) for k in range(6)) == 1546
        assert same
        assert rss_kib < 1024**2, f"peak RSS {rss_kib / 1024:.0f} MiB"
        assert wall < 10.0, f"{wall:.1f} s"

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            generate_semigroup([T, _on(3, {1: 2})])

    def test_natural_order_matches_reference(self):
        sg = generate_semigroup(sim_generators(4))
        assert natural_order(sg) == reference_natural_order(sg)
        rebuilt = InvSemigroup.from_table(sg.table)
        assert rebuilt.order == reference_natural_order(rebuilt)


class TestValidateInverse:
    def test_flip_table_star(self):
        sg = generate_semigroup([T])
        star = validate_inverse(sg.table)
        it, its = sg.index("(1>2)"), sg.index("(2>1)")
        assert star[it] == its and star[its] == it
        for label in ("0", "id{1}", "id{2}"):
            assert star[sg.index(label)] == sg.index(label)

    def test_z2_star_is_identity(self):
        star = validate_inverse([[0, 1], [1, 0]])
        assert list(star) == [0, 1]

    def test_left_zero_semigroup_not_inverse(self):
        with pytest.raises(NonUniqueInverse) as err:
            validate_inverse([[0, 0], [1, 1]])  # xy = x
        assert err.value.element == 0
        assert err.value.candidates == [0, 1]
        assert all(type(u) is int for u in err.value.candidates)

    def test_constant_semigroup_has_no_inverse_for_some_element(self):
        with pytest.raises(NoGeneralizedInverse) as err:
            validate_inverse([[1, 1], [1, 1]])  # xy = b, a has no inverse
        assert err.value.element == 0

    def test_not_associative(self):
        with pytest.raises(NotAssociative):
            validate_inverse([[0, 1], [0, 0]])

    def test_from_table_cross_checks_supplied_star(self):
        with pytest.raises(NonUniqueInverse):
            InvSemigroup.from_table([[0, 1], [1, 0]], star=[1, 0])

    @pytest.mark.parametrize("zero", [0, 2, -1])
    def test_designated_zero_must_be_absorbing(self, zero):
        # 1 >= e: e is absorbing, the identity 1 is not, and 2, -1 are no elements
        with pytest.raises(ZeroNotAbsorbing) as err:
            InvSemigroup.from_table([[0, 1], [1, 1]], zero=zero)
        assert err.value.element == zero
        assert InvSemigroup.from_table([[0, 1], [1, 1]], zero=1).zero == 1

    def test_star_reconstruction_matches_generated(self):
        sg = generate_semigroup([TAU, E1])
        assert np.array_equal(validate_inverse(sg.table), sg.star)


def chain_semilattice(n: int) -> np.ndarray:
    """i j = min(i, j): each element is a product of earlier ones only with
    itself, so the generating cover is all of S."""
    every = np.arange(n)
    return np.minimum(every[:, None], every)


def cyclic_group(n: int) -> np.ndarray:
    every = np.arange(n)
    return (every[:, None] + every) % n


def known_tables() -> dict:
    tables = {name: load_instance(ROOT / "instances" / f"{name}.json").semigroup.table
              for name in SAMPLES}
    for name in ("sim3", "sim4", "chain8"):
        tables[name] = generate_semigroup(CLOSURES[name]).table
    tables["chain_semilattice12"] = chain_semilattice(12)
    tables["cyclic9"] = cyclic_group(9)
    return tables


KNOWN_TABLES = known_tables()

# small inverse semigroups whose tables get one entry changed
small_generator_lists = st.integers(1, 3).flatmap(
    lambda n: st.lists(fixtures.partial_bijections_on(n), min_size=1, max_size=3)
)


class TestLightAssociativity:
    """Light's test over a generating cover against the full triple scan."""

    @pytest.mark.parametrize("name", list(KNOWN_TABLES))
    def test_certifies_without_the_full_scan(self, name, monkeypatch):
        table = KNOWN_TABLES[name]
        if len(table) <= 40:
            assert reference_assoc_witness(table) is None

        def full_scan(_):
            raise AssertionError("the full associativity scan ran")

        monkeypatch.setattr(semigroups, "_assoc_witness", full_scan)
        validate_inverse(table)

    def test_generating_covers(self):
        assert semigroups._generating_cover(chain_semilattice(12)) == list(range(12))
        assert semigroups._generating_cover(cyclic_group(9)) == [0, 1]
        assert semigroups._generating_cover(KNOWN_TABLES["sim4"]) == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(small_generator_lists, st.data())
    def test_first_triple_matches_the_reference(self, gens, data):
        table = generate_semigroup(gens).table.copy()
        n = len(table)
        assume(n > 1)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        other = data.draw(st.integers(0, n - 2))  # any entry but the old one
        table[i, j] = other + (other >= table[i, j])
        want = reference_assoc_witness(table)
        if want is None:
            with contextlib.suppress(NoGeneralizedInverse, NonUniqueInverse):
                validate_inverse(table)
        else:
            with pytest.raises(NotAssociative) as err:
                validate_inverse(table)
            assert err.value.triple == want


class TestNaturalOrder:
    def test_flip_order_is_reflexive_plus_zero(self):
        sg = generate_semigroup([T])
        expected = {(i, i) for i in range(5)} | {(sg.zero, i) for i in range(5)}
        assert sg.order == expected

    def test_shift_below_swap_in_the_monoid(self):
        sg = generate_semigroup([TAU, E1])
        assert sg.leq(sg.index("(1>2)"), sg.index("(1>2,2>1)"))
        assert not sg.leq(sg.index("(1>2,2>1)"), sg.index("(1>2)"))

    def test_group_order_is_equality(self):
        sg = generate_semigroup([TAU])
        assert sg.order == {(i, i) for i in range(len(sg))}

    def test_order_recomputation_matches(self):
        sg = generate_semigroup([TAU, E1])
        assert natural_order(sg) == sg.order

    def test_order_compatible_with_multiplication(self):
        sg = generate_semigroup([TAU, E1])
        for (s, t), (s2, t2) in itertools.product(sg.order, repeat=2):
            assert sg.leq(sg.mul(s, s2), sg.mul(t, t2))

    def test_order_compatibility_on_a_mid_size_monoid(self):
        # exhaustive on the 34-element symmetric inverse monoid on 3 points
        X3 = ("1", "2", "3")
        sg = generate_semigroup(
            [
                PartialBijection.from_dict(X3, {"1": "2", "2": "3", "3": "1"}),
                PartialBijection.from_dict(X3, {"1": "2", "2": "1", "3": "3"}),
                PartialBijection.identity(X3, ("1", "2")),
            ]
        )
        assert len(sg) == 34
        for (s, t), (s2, t2) in itertools.product(sg.order, repeat=2):
            assert sg.leq(sg.mul(s, s2), sg.mul(t, t2))

    def test_order_restriction_characterization(self):
        # s <= t iff the stored map of s is a restriction of the map of t
        sg = generate_semigroup([TAU, E1])
        for s in range(len(sg)):
            for t in range(len(sg)):
                assert sg.leq(s, t) == sg.pbijs[s].restricts(sg.pbijs[t])


class TestStarLaws:
    @pytest.mark.parametrize("gens", [[T], [TAU, E1], [TAU], [IDX, E1]])
    def test_star_involution_and_antihomomorphism(self, gens):
        sg = generate_semigroup(gens)
        for s in range(len(sg)):
            assert sg.inv(sg.inv(s)) == s
            for t in range(len(sg)):
                assert sg.inv(sg.mul(s, t)) == sg.mul(sg.inv(t), sg.inv(s))

    @pytest.mark.parametrize("gens", [[T], [TAU, E1]])
    def test_idempotents_commute(self, gens):
        sg = generate_semigroup(gens)
        for e, f in itertools.product(sg.idempotents, repeat=2):
            assert sg.mul(e, f) == sg.mul(f, e)


class TestWagnerPreston:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_labels_must_be_n_distinct_names(self, flags):
        # duplicate labels once gave wagner_preston_embed two copies of a -> a
        code = (
            "from semicross.errors import CheckError\n"
            "from semicross.semigroups import InvSemigroup, wagner_preston_embed\n"
            "for labels in (['a', 'a'], ['a'], ['a', 'b', 'c']):\n"
            "    try:\n"
            "        wagner_preston_embed(InvSemigroup.from_table([[0, 1], [1, 0]], labels=labels))\n"
            "    except CheckError as err:\n"
            "        print(err.code)\n"
            "print(len(InvSemigroup.from_table([[0, 1], [1, 0]], labels=['a', 'b'])))\n"
        )
        path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["SchemaError"] * 3 + ["2"]

    def test_flip_roundtrip(self):
        sg = generate_semigroup([T])
        image = wagner_preston_embed(sg)
        sg2 = generate_semigroup(image)
        assert len(sg2) == len(sg)
        # same table up to the relabeling sending element i to its image map
        relabel = {i: sg2.index(image[i].label) for i in range(len(sg))}
        for i, j in itertools.product(range(len(sg)), repeat=2):
            assert relabel[sg.mul(i, j)] == sg2.mul(relabel[i], relabel[j])

    def test_z2_gives_total_bijections(self):
        sg = generate_semigroup([TAU])
        for m in wagner_preston_embed(sg):
            assert m.domain == frozenset(sg.labels)

    def test_two_element_semilattice(self):
        sg = generate_semigroup([IDX, E1])
        maps = wagner_preston_embed(sg)
        one, e = sg.index("id{1,2}"), sg.index("id{1}")
        assert maps[one].pairs == tuple((x, x) for x in sorted(sg.labels))
        assert maps[e].domain == frozenset({sg.labels[e]})
        assert maps[e](sg.labels[e]) == sg.labels[e]

    @pytest.mark.parametrize("name", ["tau_e1", "sim3", "chain6"])
    def test_matches_reference(self, name):
        sg = generate_semigroup(CLOSURES[name])
        got = wagner_preston_embed(sg)
        want = reference_wagner_preston(sg)
        assert [(m.carrier, m.pairs) for m in got] == [(m.carrier, m.pairs) for m in want]


class TestForcedFacts:
    """What ``validate_inverse``, ``natural_order`` and ``wagner_preston_embed``
    no longer re-check at run time: commuting idempotents, a partial order,
    and the Wagner-Preston embedding."""

    def test_on_every_table_of_size_at_most_3(self):
        # 1 + 2**4 + 3**9 = 19,700 tables, of which 29 are inverse semigroups
        accepted = 0
        for n in (1, 2, 3):
            for entries in itertools.product(range(n), repeat=n * n):
                table = np.array(entries).reshape(n, n)
                try:
                    validate_inverse(table)
                except (NotAssociative, NoGeneralizedInverse, NonUniqueInverse):
                    continue
                accepted += 1
                sg = InvSemigroup.from_table(table)
                inverse_consequences(sg)
                embedding_consequences(sg, wagner_preston_embed(sg))
        assert accepted == 29

    @settings(max_examples=40, deadline=None)
    @given(fixtures.generator_lists)
    def test_on_random_closures(self, gens):
        sg = generate_semigroup(gens)
        for semigroup in (sg, InvSemigroup.from_table(sg.table, labels=sg.labels)):
            inverse_consequences(semigroup)
            embedding_consequences(semigroup, wagner_preston_embed(semigroup))


class TestHomomorphismCheck:
    def test_generated_maps_are_a_homomorphism(self):
        sg = generate_semigroup(sim_generators(3))
        check_homomorphism(sg, sg.pbijs)

    def test_first_failing_pair_is_named(self):
        sg = generate_semigroup([T])
        maps = list(sg.pbijs)
        maps[sg.index("(1>2)")] = PartialBijection.identity(X)  # in place of the shift
        with pytest.raises(NotAHomomorphism) as err:
            check_homomorphism(sg, maps)
        # the first pair in row-major order where the maps fail to compose
        want = next(
            (s, u)
            for s in range(len(sg))
            for u in range(len(sg))
            if (maps[s] * maps[u]).pairs != maps[sg.mul(s, u)].pairs
        )
        assert err.value.pair == (sg.labels[want[0]], sg.labels[want[1]])

    def test_covers_generate_the_semigroup(self):
        sg = generate_semigroup(sim_generators(4))
        # the letters: the transposition, the 4-cycle and its inverse, and the
        # idempotent, each its own letter
        assert len(sg.cover) == 4
        rebuilt = InvSemigroup.from_table(sg.table)
        assert list(rebuilt.cover) == semigroups._generating_cover(sg.table) == [0, 1, 2]
        for cover in (sg.cover, rebuilt.cover):
            reached = set(cover)
            while True:
                more = {int(sg.table[a, b]) for a in reached for b in cover} - reached
                if not more:
                    break
                reached |= more
            assert reached == set(range(len(sg)))

    @settings(max_examples=80, deadline=None)
    @given(small_generator_lists, st.data())
    def test_cover_check_names_what_the_full_scan_names(self, gens, data):
        sg = generate_semigroup(gens)
        rows = semigroups._pbij_rows(gens[0].carrier, sg.pbijs)
        if data.draw(st.booleans(), label="mutate"):  # one entry of one row changed
            s = data.draw(st.integers(0, len(sg) - 1), label="s")
            x = data.draw(st.integers(0, rows.shape[1] - 1), label="x")
            other = data.draw(st.integers(-1, rows.shape[1] - 2), label="other")
            rows[s, x] = other + (other >= rows[s, x])
        want = _raised(reference_check_rows, sg, rows)
        one_at_a_time = mock.patch.object(
            semigroups, "blocks", lambda count, width: _linalg.blocks(count, width, 1)
        )
        for semigroup in (sg, InvSemigroup.from_table(sg.table, labels=sg.labels)):
            assert _raised(semigroups._check_rows, semigroup, rows) == want
            with one_at_a_time:
                assert _raised(semigroups._check_rows, semigroup, rows) == want


def _raised(check, *args):
    """None when the check passes, else the pair its NotAHomomorphism names."""
    try:
        check(*args)
    except NotAHomomorphism as err:
        return err.pair
    return None
