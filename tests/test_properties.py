"""Law-level properties driven by hypothesis: partial bijection algebra,
closure invariants, the section-algebra axioms under random coefficients,
the null ideal and the quotient norm of random induced actions, their germ
path and the class path of validated matrix actions against their numeric
path, and the covariant-pair checks against
their reference loops, with the facts those checks force."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fixtures
import reference
from reference import reference_order_differences, reference_saturate
from semicross._linalg import orth_rows, rows_equal
from semicross.actions import PartialSetAction, induce_action, validate_action
from semicross.ell1 import (
    Ell1Element,
    convolve,
    ell1_norm,
    involution,
    null_ideal,
    quotient_ell1_norm,
)
from semicross.errors import CheckError
from semicross.io_json import load_instance
from semicross.reps import (
    adjoint_check,
    check_algebraic,
    check_spatial,
    grading_space,
    group_case_check,
    integrate,
    is_normalized,
    normalize,
    regular_rep,
    seminorm_kernel,
)
from semicross.semigroups import PartialBijection, generate_semigroup
from test_batched import matrix_action
from test_ell1 import assert_reference_blocks, assert_reference_germs, assert_same_paths

CARRIER = ("1", "2", "3")
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SAMPLES = ["flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2"]


@st.composite
def partial_bijections(draw, carrier=CARRIER):
    size = draw(st.integers(0, len(carrier)))
    domain = draw(
        st.lists(st.sampled_from(carrier), min_size=size, max_size=size, unique=True)
    )
    image = draw(
        st.lists(st.sampled_from(carrier), min_size=size, max_size=size, unique=True)
    )
    return PartialBijection(carrier, tuple(zip(domain, image)))


finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@st.composite
def sections(draw, action):
    dense = np.array(
        [
            complex(draw(finite), draw(finite))
            for _ in range(action.total_dim)
        ]
    )
    return Ell1Element.from_dense(action, dense)


@pytest.fixture(scope="module")
def flip_action():
    return fixtures.flip().action


class TestPartialBijectionLaws:
    @given(partial_bijections(), partial_bijections(), partial_bijections())
    def test_composition_associative(self, f, g, h):
        assert f.compose(g).compose(h).pairs == f.compose(g.compose(h)).pairs

    @given(partial_bijections())
    def test_generalized_inverse_laws(self, f):
        finv = f.invert()
        assert f.compose(finv).compose(f).pairs == f.pairs
        assert finv.compose(f).compose(finv).pairs == finv.pairs

    @given(partial_bijections(), partial_bijections())
    def test_inverse_antihomomorphism(self, f, g):
        assert f.compose(g).invert().pairs == g.invert().compose(f.invert()).pairs

    @given(partial_bijections())
    def test_double_inverse(self, f):
        assert f.invert().invert().pairs == f.pairs


class TestClosureLaws:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2))
    def test_generated_closures_are_inverse_semigroups(self, gens):
        sg = generate_semigroup(gens, cap=500)
        for t in range(len(sg)):
            # the stored star is the unique generalized inverse
            candidates = [
                u
                for u in range(len(sg))
                if sg.mul(sg.mul(t, u), t) == t and sg.mul(sg.mul(u, t), u) == u
            ]
            assert candidates == [sg.inv(t)]
        for e in sg.idempotents:
            for f in sg.idempotents:
                assert sg.mul(e, f) == sg.mul(f, e)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2))
    def test_natural_order_matches_restriction(self, gens):
        sg = generate_semigroup(gens, cap=500)
        for s in range(len(sg)):
            for t in range(len(sg)):
                assert sg.leq(s, t) == sg.pbijs[s].restricts(sg.pbijs[t])


class TestSectionAlgebraLaws:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_associative(self, flip_action, data):
        f = data.draw(sections(flip_action))
        g = data.draw(sections(flip_action))
        h = data.draw(sections(flip_action))
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        assert lhs.allclose(rhs, tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_submultiplicative(self, flip_action, data):
        f = data.draw(sections(flip_action))
        g = data.draw(sections(flip_action))
        assert ell1_norm(convolve(f, g)) <= ell1_norm(f) * ell1_norm(g) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_star_laws(self, flip_action, data):
        f = data.draw(sections(flip_action))
        g = data.draw(sections(flip_action))
        assert involution(involution(f)).allclose(f, tol=1e-9)
        assert involution(convolve(f, g)).allclose(
            convolve(involution(g), involution(f)), tol=1e-9
        )
        assert ell1_norm(involution(f)) == pytest.approx(ell1_norm(f), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bilinear(self, flip_action, data):
        f = data.draw(sections(flip_action))
        g = data.draw(sections(flip_action))
        h = data.draw(sections(flip_action))
        lhs = convolve(f + g, h)
        rhs = convolve(f, h) + convolve(g, h)
        assert lhs.allclose(rhs, tol=1e-9)


class TestNullIdealLaws:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2))
    def test_seed_span_is_the_saturated_ideal(self, gens):
        # the identity puts every point in an idempotent's domain, so PA2 holds
        sg = generate_semigroup([PartialBijection.identity(CARRIER), *gens])
        act = induce_action(PartialSetAction.tautological(sg))
        want = reference_saturate(act, reference_order_differences(act))
        assert null_ideal(act).dim == len(want)
        assert rows_equal(null_ideal(act).basis, want)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2), st.data())
    def test_quotient_norm_is_the_reference_optimum(self, gens, data):
        # the dual simplex against the per-facet program, on a random section
        sg = generate_semigroup([PartialBijection.identity(CARRIER), *gens])
        act = induce_action(PartialSetAction.tautological(sg))
        f = data.draw(sections(act))
        N = orth_rows(null_ideal(act).basis)
        got = quotient_ell1_norm(f, N)
        if N.shape[0] == 0:
            assert got == ell1_norm(f)
        else:
            want = reference.reference_quotient_norm(f, N)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


    @settings(max_examples=25, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2), st.integers(0, 2**32 - 1))
    def test_germ_path_is_the_numeric_path(self, gens, seed):
        # the germ classes against the union-find oracle, then the germ path
        # against the numeric path of the same maps rebuilt as a plain
        # Action: the exact norm of a random section against HiGHS, and the
        # numeric path's 64-gon norm bracketed by it
        sg = generate_semigroup([PartialBijection.identity(CARRIER), *gens])
        act = induce_action(PartialSetAction.tautological(sg))
        assert_reference_germs(act)
        assert_same_paths(act, np.random.default_rng(seed), 1)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2),
           st.sampled_from([1, 2, np.inf]), st.integers(0, 2**32 - 1))
    # the reference's interior-point method ends this section's program
    # without a solution; its dual simplex finds the optimum
    @example([PartialBijection.from_dict(CARRIER, {"1": "2", "2": "3"}),
              PartialBijection.from_dict(CARRIER, {"1": "2"})], 1, 743909)
    def test_class_path_of_validated_matrix_actions(self, gens, p, seed):
        # the same maps on M_2 blocks with the p-operator norm, validated: the
        # classes against the order union-find, then the class path against
        # the unvalidated copy.  Semigroups past 16 elements are skipped:
        # the copy's section program grows with D^2 facet columns
        maps = [PartialBijection.identity(CARRIER), *gens]
        if len(generate_semigroup(maps)) > 16:
            return
        act = matrix_action([dict(m.pairs) for m in maps], p)
        validate_action(act)
        assert_reference_blocks(act)
        assert_same_paths(act, np.random.default_rng(seed), 1)


# ------------------------------------------------ covariant pairs, forced facts


def _loops_agree_and_forced_facts_hold(rep) -> None:
    """The stacked checks against the loops of tests/reference.py (pass or
    fail, class and message; the integrated and normalized matrices at
    1e-12), then every fact that ``reps`` stopped re-proving at run time."""
    act = rep.action

    def outcome(check):
        try:
            check(rep)
        except CheckError as err:
            return type(err).__name__, str(err)
        return None

    for new, old in (
        (check_spatial, reference.reference_check_spatial),
        (check_algebraic, reference.reference_check_algebraic),
        (adjoint_check, reference.reference_adjoint_check),
    ):
        assert outcome(new) == outcome(old), new.__name__
    assert is_normalized(rep) == reference.reference_is_normalized(rep)
    assert np.allclose(integrate(rep, check=False).matrix,
                       reference.reference_integrate_matrix(rep), atol=1e-12, rtol=0.0)
    for t in range(len(act.semigroup)):
        assert rows_equal(grading_space(rep, t), reference.reference_grading_space(rep, t))
    if act.semigroup.is_group:
        got = outcome(lambda r: group_case_check(act, r))
        assert got == outcome(reference.reference_group_isometries)
    reference.tensor_consequences(act)
    if outcome(check_spatial) is None:
        reference.spatial_consequences(rep)
    if outcome(check_algebraic) is None:
        out = normalize(rep)
        assert np.allclose(out.v, reference.reference_normalize(rep).v, atol=1e-12, rtol=0.0)
        reference.algebraic_consequences(rep)
        reference.normalization_consequences(rep, out)
        reference.kernel_consequences([rep], seminorm_kernel([rep], require_nondegenerate=False))


def _pairs(source: str) -> list:
    """The pairs of one input: a sample file's representations, sim3's
    regular pair, or covariant perturbations of a fixture's regular pair."""
    kind, name = source.split(" ")
    if kind == "sample":
        return list(load_instance(INSTANCES / f"{name}.json").representations.values())
    if kind == "regular":
        return [fixtures.sim3().regular(2)]
    return fixtures.cr_perturbations(fixtures.ALL[name]().regular(2), 3, seed=53)


@pytest.mark.parametrize(
    "source",
    [f"sample {name}" for name in SAMPLES]
    + ["regular sim3"]
    + [f"perturbed {name}" for name in ("flip", "semi", "sim2")],
)
def test_covariant_checks_and_their_consequences(source):
    for rep in _pairs(source):
        _loops_agree_and_forced_facts_hold(rep)


class TestCovariantPairLaws:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(partial_bijections(), min_size=1, max_size=2), st.data())
    def test_random_induced_actions(self, gens, data):
        # the regular pair, a junk perturbation of its padded copy, and a
        # pair with one v_t replaced at random, which most checks reject
        sg = generate_semigroup([PartialBijection.identity(CARRIER), *gens])
        theta = PartialSetAction.tautological(sg)
        reg = regular_rep(theta, 2, action=induce_action(theta))
        seed = data.draw(st.integers(0, 2**16))
        (junky,) = fixtures.cr_perturbations(fixtures.padded(reg), 1, seed)
        t = data.draw(st.integers(0, len(sg) - 1))
        rng = np.random.default_rng(seed)
        v = reg.v.copy()
        v[t] = rng.integers(-1, 2, v[t].shape)
        for rep in (reg, junky, reg.with_v(v)):
            _loops_agree_and_forced_facts_hold(rep)
