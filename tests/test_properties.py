"""Law-level properties driven by hypothesis: partial bijection algebra,
closure invariants, the section-algebra axioms under random coefficients,
and the null ideal of random induced actions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures
from reference import reference_order_differences, reference_saturate
from semicross._linalg import rows_equal
from semicross.actions import PartialSetAction, induce_action
from semicross.ell1 import Ell1Element, convolve, ell1_norm, involution, null_ideal
from semicross.semigroups import PartialBijection, generate_semigroup

CARRIER = ("1", "2", "3")


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
