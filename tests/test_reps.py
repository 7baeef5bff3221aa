"""Covariant representation checks, normalization, integration, seminorms,
adjoints and the group specialization."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import fixtures
import reference
from fixtures import cr_perturbations, padded, with_v_at
from reference import reference_germ_basis
import semicross.ell1
import semicross.reps
from semicross import _linalg
from semicross._linalg import DEFAULT_TOL, rows_equal, rows_leq
from semicross.ell1 import (
    Ell1Element,
    _germs,
    convolve,
    ell1_norm,
    null_ideal,
    quotient_ell1_norm,
    structure_tensor,
)
from semicross.errors import (
    CheckError,
    CR1Violation,
    CR2Violation,
    CR3Violation,
    DegenerateRepresentation,
    EmptyFamily,
    NotAGroup,
    NotContractive,
    NotMultiplicative,
    NotSemigroupHom,
    PA2SpanDeficit,
    SCR2RangeMismatch,
)
from semicross.io_json import load_instance, parse_instance
from semicross.reps import (
    CovariantRep,
    ReprSpace,
    adjoint_check,
    certify_contractive,
    check_algebraic,
    check_spatial,
    grading_space,
    group_case_check,
    integrate,
    is_normalized,
    normalize,
    regular_rep,
    seminorm_family,
    seminorm_kernel,
    validate_rep,
)
from semicross.actions import Action, PartialSetAction, induce_action
from semicross.algebras import PartialAut
from semicross.semigroups import InvSemigroup, PartialBijection, generate_semigroup
from test_ell1 import PEAK_RSS, run_python, sim4

D1 = np.array([1, 0], dtype=complex)
D2 = np.array([0, 1], dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def mono(inst, label, vec):
    return Ell1Element.monomial(inst.action, inst.semigroup.index(label), vec)


class TestRegularRep:
    def test_flip_matrices(self, flip_reg):
        sg = flip_reg.action.semigroup
        assert np.allclose(flip_reg.pi[0], E11) and np.allclose(flip_reg.pi[1], E22)
        assert np.allclose(flip_reg.v[sg.index("(1>2)")], E21)
        assert np.allclose(flip_reg.v[sg.index("(2>1)")], E12)
        assert np.allclose(flip_reg.v[sg.index("id{1}")], E11)
        assert np.allclose(flip_reg.v[sg.index("id{2}")], E22)
        assert np.allclose(flip_reg.v[sg.index("0")], 0)

    def test_sim2_swap_is_a_permutation(self, sim2_reg):
        sg = sim2_reg.action.semigroup
        assert np.allclose(sim2_reg.v[sg.index("(1>2,2>1)")], E12 + E21)
        assert np.allclose(sim2_reg.v[sg.index("(1>2)")], E21)

    def test_trivial_action(self):
        from semicross.actions import PartialSetAction
        from semicross.reps import regular_rep
        from semicross.semigroups import PartialBijection, generate_semigroup

        sg = generate_semigroup([PartialBijection.identity(("1", "2"))])
        rep = regular_rep(PartialSetAction.tautological(sg), 2)
        assert np.allclose(rep.v[0], np.eye(2))

    def test_basics_pass(self, all_instances):
        for inst in all_instances:
            report = validate_rep(inst.regular(2))
            assert report.passed

    def test_scaled_pi_is_not_multiplicative(self, flip_reg):
        broken = CovariantRep(
            flip_reg.action, flip_reg.space, 2 * flip_reg.pi, flip_reg.v
        )
        with pytest.raises(NotMultiplicative):
            validate_rep(broken)
        with pytest.raises(NotContractive):
            certify_contractive(broken)

    def test_scaled_v_is_not_contractive(self, flip_reg):
        broken = with_v_at(flip_reg, "(1>2)", 2 * E21)
        with pytest.raises(NotContractive) as err:
            validate_rep(broken)
        assert err.value.what == "v at (1>2)"


SAMPLES = ["flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2"]
INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def counting(monkeypatch, name) -> list:
    """The pairs that ``semicross.reps.<name>`` is called on from now on."""
    calls, real = [], getattr(semicross.reps, name)
    monkeypatch.setattr(semicross.reps, name,
                        lambda rep, *a: (calls.append(rep), real(rep, *a))[1])
    return calls


def assert_numeric_checks_pass(rep):
    check_spatial(rep)
    check_algebraic(rep)
    assert rep.is_nondegenerate()


class TestCertifiedRegularPair:
    def test_scatter_is_the_reference_loop(self, all_instances, sim3):
        for inst in [*all_instances, sim3]:
            rep = inst.regular(2)
            pi, v = reference.reference_regular_rep(inst.theta, inst.action)
            assert rep.pi.tobytes() == pi.tobytes() and rep.v.tobytes() == v.tobytes()
            assert semicross.reps._certified(rep)
            assert not (rep.pi.flags.writeable or rep.v.flags.writeable)
            assert_numeric_checks_pass(rep)

    @pytest.mark.parametrize("name", SAMPLES)
    def test_sample_pairs_pass_the_numeric_checks(self, name):
        # the regular blocks are certified; the pairs written out are not
        inst = load_instance(INSTANCES / f"{name}.json")
        for block, rep in zip(json.loads((INSTANCES / f"{name}.json").read_text())
                              ["representations"], inst.representations.values()):
            assert semicross.reps._certified(rep) == bool(block.get("regular"))
            if block.get("regular"):
                assert_numeric_checks_pass(rep)

    @settings(max_examples=30, deadline=None)
    @given(fixtures.generator_lists)
    def test_certified_pairs_pass_the_numeric_checks(self, gens):
        theta = PartialSetAction.tautological(generate_semigroup(gens))
        try:
            action = induce_action(theta)
        except PA2SpanDeficit:  # the idempotent images miss a point
            return
        rep = regular_rep(theta, 2, action=action)
        pi, v = reference.reference_regular_rep(theta, action)
        assert rep.pi.tobytes() == pi.tobytes() and rep.v.tobytes() == v.tobytes()
        assert semicross.reps._certified(rep)
        assert_numeric_checks_pass(rep)

    def test_family_checks_read_the_certificate(self, sim2, monkeypatch):
        algebraic = counting(monkeypatch, "check_algebraic")
        multiplicative = counting(monkeypatch, "_check_multiplicative")
        reg = sim2.regular(2)
        kernel = seminorm_kernel([reg])
        f = Ell1Element.from_dense(sim2.action, np.arange(sim2.action.total_dim))
        value = seminorm_family(f, [reg])
        assert algebraic == [] and multiplicative == []
        copy = reg.with_v(reg.v)
        assert not semicross.reps._certified(copy)
        assert seminorm_kernel([copy]).tobytes() == kernel.tobytes()
        assert algebraic == [copy]
        assert seminorm_family(f, [copy]) == value
        assert algebraic == [copy, copy] and multiplicative == [copy]

    def test_the_certificate_is_of_the_arrays_it_was_made_for(self, sim2):
        reg = sim2.regular(2)
        rebuilt = CovariantRep(reg.action, reg.space, reg.pi, reg.v)
        assert not semicross.reps._certified(rebuilt)
        reg2 = sim2.regular(2)
        reg2.v = reg2.v.copy()
        assert not semicross.reps._certified(reg2)
        with pytest.raises(ValueError):  # read-only
            reg.v[0, 0, 0] = 2.0

    def test_other_actions_are_checked_numerically(self, sim2, monkeypatch):
        spatial = counting(monkeypatch, "check_spatial")
        sim2.regular(2)
        assert spatial == []
        # the same maps with no theta, and theta's twin, are not theta's action
        twin = PartialSetAction(sim2.theta.semigroup, sim2.theta.carrier, sim2.theta.maps)
        for theta, act in ((sim2.theta, fixtures.plain(sim2.action)),
                           (twin, sim2.action), (sim2.theta, induce_action(twin))):
            rep = regular_rep(theta, 2, action=act)
            assert spatial[-1] is rep and not semicross.reps._certified(rep)
            assert rep.v.flags.writeable
        assert len(spatial) == 3

    def test_sim4_kills_check_builds_no_basis(self):
        act = sim4()
        integrate(regular_rep(act._theta, 2, action=act), check=True)
        assert "basis" not in vars(null_ideal(act))

    def test_kills_check_names_the_row_the_dense_product_names(self):
        # on fresh induced actions, whose germ bases are never built here
        rng = np.random.default_rng(23)
        witnesses = set()
        for make in [*fixtures.ALL.values(), fixtures.sim3]:
            inst = make()
            reg, basis = inst.regular(2), reference_germ_basis(_germs(inst.action).label)
            for k in range(8):  # the pair as it is, then one entry of pi or of v moved
                pi, v = reg.pi.copy(), reg.v.copy()
                if k:
                    moved = pi if k % 2 else v
                    moved[tuple(rng.integers(moved.shape))] += 0.5
                rep = CovariantRep(reg.action, reg.space, pi, v)
                psi = integrate(rep, check=False)
                images = reference.reference_null_images(rep, basis)
                got = null_ideal(rep.action).basis_times(psi.matrix.T)
                assert np.allclose(got.reshape(images.shape), images, atol=1e-12, rtol=0.0)
                want = outcome(reference.reference_null_not_killed, rep, basis)
                assert outcome(semicross.reps._check_null_killed, psi, DEFAULT_TOL) == want
                witnesses.add(want)
            assert "basis" not in vars(null_ideal(inst.action))
        assert None in witnesses and len(witnesses) >= 4


class TestSpatial:
    def test_regular_reps_are_spatial(self, all_instances):
        for inst in all_instances:
            assert check_spatial(inst.regular(2)).passed

    def test_identity_at_idempotent_breaks_the_range(self, flip_reg):
        broken = with_v_at(flip_reg, "id{1}", np.eye(2, dtype=complex))
        with pytest.raises(SCR2RangeMismatch) as err:
            check_spatial(broken)
        assert err.value.element == "id{1}"

    def test_range_mismatch_is_reachable(self, semi_reg):
        # v_e enlarged to the identity: still a homomorphism, wrong range
        broken = with_v_at(semi_reg, "id{1}", np.eye(2, dtype=complex))
        with pytest.raises(SCR2RangeMismatch):
            check_spatial(broken)

    def test_not_a_homomorphism(self, flip_reg):
        # a phase keeps the intertwining and the ranges but breaks products
        broken = with_v_at(flip_reg, "(1>2)", 1j * E21)
        with pytest.raises(NotSemigroupHom):
            check_spatial(broken)

    def test_zero_element_range_is_trivial(self, flip_reg):
        sg = flip_reg.action.semigroup
        assert np.allclose(flip_reg.v[sg.zero], 0)


class TestAlgebraic:
    def test_spatial_implies_algebraic(self, all_instances):
        for inst in all_instances:
            rep = inst.regular(2)
            check_spatial(rep)
            assert check_algebraic(rep).passed

    def test_cr1_violation(self, flip_reg):
        broken = with_v_at(flip_reg, "(1>2)", E21 + 0.5 * E22)
        with pytest.raises(CR1Violation):
            check_algebraic(broken)

    def test_cr2_violation(self, flip_reg):
        broken = with_v_at(flip_reg, "(1>2)", 0.5 * E21)
        with pytest.raises(CR2Violation):
            check_algebraic(broken)

    def test_cr3_violation(self, semi_reg):
        broken = with_v_at(semi_reg, "id{1}", np.zeros((2, 2), dtype=complex))
        with pytest.raises(CR3Violation):
            check_algebraic(broken)

    def test_off_block_junk_is_algebraic_but_not_spatial(self, flip_reg):
        # junk living outside the covariance range survives the algebraic
        # axioms and is exactly what normalization removes
        junky = with_v_at(flip_reg, "(1>2)", E21 + 0.5 * E12)
        assert check_algebraic(junky).passed
        with pytest.raises(CheckError):
            check_spatial(junky)

    def test_nondegeneracy_reported(self, flip_reg):
        report = check_algebraic(flip_reg)
        assert any("nondegenerate" in note and "True" in note for note in report.notes)


class TestNormalize:
    def test_regular_reps_are_fixed_points(self, all_instances):
        for inst in all_instances:
            rep = inst.regular(2)
            assert is_normalized(rep)
            assert np.allclose(normalize(rep).v, rep.v, atol=1e-9)

    def test_junk_is_projected_away(self, flip_reg):
        junky = with_v_at(flip_reg, "(1>2)", E21 + E12)
        fixed = normalize(junky)
        assert np.allclose(fixed.v, flip_reg.v, atol=1e-9)

    def test_free_junk_at_the_zero_element(self, flip_reg):
        junky = with_v_at(flip_reg, "0", E11 + 2 * E12)  # anything goes at 0
        assert check_algebraic(junky).passed
        assert np.allclose(normalize(junky).v, flip_reg.v, atol=1e-9)

    def test_group_unit_is_forced_on_the_essential_subspace(self, z2):
        # degenerate 3-dimensional model: third coordinate is dead weight
        act = z2.action
        pi = np.zeros((2, 3, 3), dtype=complex)
        pi[0][0, 0] = 1.0
        pi[1][1, 1] = 1.0
        sg = act.semigroup
        v = np.zeros((2, 3, 3), dtype=complex)
        one, g = sg.index("id{1,2}"), sg.index("(1>2,2>1)")
        v[one] = np.diag([1, 1, 0.5])
        v[g][0, 1] = v[g][1, 0] = 1.0
        v[g][2, 2] = 0.25
        rep = CovariantRep(act, ReprSpace(3, 2), pi, v)
        assert check_algebraic(rep).passed
        fixed = normalize(rep)
        assert np.allclose(fixed.v[one], np.diag([1, 1, 0]))
        assert np.allclose(fixed.v[g], v[g] - 0.25 * np.diag([0, 0, 1]))

    def test_uniqueness_against_perturbations(self, flip_reg, semi_reg, sim2_reg):
        for reg in (flip_reg, semi_reg, sim2_reg):
            for cand in cr_perturbations(reg, 25, seed=23):
                sg = cand.action.semigroup
                for t in range(len(sg)):
                    for a in cand.action.ideal(t).basis:
                        assert np.allclose(
                            cand.pi_of(a) @ cand.v[t],
                            reg.pi_of(a) @ reg.v[t],
                            atol=1e-9,
                        )
                assert np.allclose(normalize(cand).v, reg.v, atol=1e-9)

    def test_reflexive_equivalence(self, flip_reg, semi_reg):
        # spatial == algebraic + normalization fixed point, both directions
        for reg in (flip_reg, semi_reg):
            for cand in cr_perturbations(reg, 10, seed=29):
                fixed = np.allclose(normalize(cand).v, cand.v, atol=1e-9)
                try:
                    check_spatial(cand)
                    spatial = True
                except CheckError:
                    spatial = False
                assert spatial == fixed
                assert check_spatial(normalize(cand)).passed


class TestIntegrate:
    def test_flip_monomial_image(self, flip, flip_reg):
        ir = integrate(flip_reg)
        assert np.allclose(ir.apply(mono(flip, "(1>2)", D2)), E21)

    def test_zero_maps_to_zero(self, flip, flip_reg):
        ir = integrate(flip_reg)
        assert np.allclose(ir.apply(Ell1Element.zero(flip.action)), 0)

    def test_semi_null_generator_dies(self, semi, semi_reg):
        ir = integrate(semi_reg)
        diff = mono(semi, "id{1}", D1) - mono(semi, "id{1,2}", D1)
        assert np.allclose(ir.apply(diff), 0)

    def test_multiplicative_and_contractive_on_random_sections(self, all_instances):
        rng = np.random.default_rng(31)
        for inst in all_instances:
            rep = inst.regular(2)
            ir = integrate(rep)
            D = inst.action.total_dim
            for _ in range(100):
                f = Ell1Element.from_dense(
                    inst.action, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                g = Ell1Element.from_dense(
                    inst.action, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                assert np.allclose(
                    ir.apply(convolve(f, g)), ir.apply(f) @ ir.apply(g), atol=1e-9
                )
                assert rep.opnorm(ir.apply(f)) <= ell1_norm(f) + 1e-9

    def test_null_ideal_is_asked_for_at_the_given_tolerance(
        self, sim2_reg, monkeypatch
    ):
        seen = []
        real = semicross.reps.null_ideal

        def spy(action, tol=DEFAULT_TOL):
            seen.append(tol)
            return real(action, tol)

        monkeypatch.setattr(semicross.reps, "null_ideal", spy)
        integrate(sim2_reg, tol=1e-8, check=True)
        seminorm_kernel([sim2_reg], tol=1e-8)  # the kernel does not build N at all
        assert seen == [1e-8]

    def test_one_seed_span_per_action_and_tolerance(self, monkeypatch):
        seen = []
        real = semicross.ell1._order_differences

        def spy(action, tol):
            seen.append(tol)
            return real(action, tol)

        monkeypatch.setattr(semicross.ell1, "_order_differences", spy)
        inst = fixtures.sim2()  # a fresh action, nothing memoized yet
        act = fixtures.plain(inst.action)  # the numeric path, which spans seeds
        rep = regular_rep(inst.theta, 2, action=act)
        null_ideal(act)
        integrate(rep, check=True)
        seminorm_kernel([rep])
        assert seen == [DEFAULT_TOL]
        null_ideal(inst.action)  # the germ path spans none
        assert seen == [DEFAULT_TOL]

    def test_exact_contractivity_samples_nothing(self, all_instances, monkeypatch):
        # pi diagonal with row sums 1 and every v_t a partial permutation: the
        # triangle inequality certifies psi, and no section is sampled
        def no_samples(*args):
            raise AssertionError("the sampled contractivity check ran")

        monkeypatch.setattr(semicross.reps, "ell1_norms", no_samples)
        for inst in all_instances:
            for p in (1, 2, np.inf):
                integrate(inst.regular(p), check=True)
        with pytest.raises(AssertionError, match="sampled"):
            integrate(_expanding_v_pair(), check=True)

    @pytest.mark.parametrize("budget", [1, 64, None], ids=["one", "a few", "default"])
    def test_blocked_products_name_what_the_one_shot_build_names(
        self, budget, all_instances, sim3, monkeypatch
    ):
        # budget: the entries of one block, so 1 takes one i at a time
        if budget is not None:
            monkeypatch.setattr(semicross.reps, "blocks",
                                lambda c, w: _linalg.blocks(c, w, budget))
        rng = np.random.default_rng(17)
        witnesses = set()
        for inst in [*all_instances, sim3]:
            reg = inst.regular(2)
            for k in range(6):  # the pair as it is, then one entry of pi or of v moved
                pi, v = reg.pi.copy(), reg.v.copy()
                if k:
                    moved = pi if k % 2 else v
                    moved[tuple(rng.integers(moved.shape))] += 0.5
                rep = CovariantRep(reg.action, reg.space, pi, v)
                want = outcome(reference.reference_integrate_products, rep)
                ir = integrate(rep, check=False)
                images = ir.matrix.T.reshape(-1, rep.space.dim, rep.space.dim)
                got = outcome(semicross.reps._check_products, images,
                              structure_tensor(rep.action), DEFAULT_TOL)
                assert got == want
                witnesses.add(want)
        assert None in witnesses and len(witnesses) >= 8

    def test_sim4_integrate_and_kernel_in_bounded_time_and_memory(self):
        # the regular pair of sim_4 on C({1..4}): D = 544 sections, n = 4.
        # Built as two (D, D, n^2) arrays at once, the multiplicativity check
        # took 0.27-0.29 s and 290 MiB peak on a 2-core host; in blocks of i it
        # took 0.09-0.11 s and 70-72 MiB, and seminorm_kernel 0.4-0.5 s
        code = PEAK_RSS + (
            "from semicross import PartialBijection as P, PartialSetAction, generate_semigroup\n"
            "from semicross import integrate, regular_rep, seminorm_kernel\n"
            "x = (1, 2, 3, 4)\n"
            "gens = [P.from_dict(x, {1: 2, 2: 1, 3: 3, 4: 4}),\n"
            "        P.from_dict(x, {1: 2, 2: 3, 3: 4, 4: 1}), P.identity(x, (2, 3, 4))]\n"
            "rep = regular_rep(PartialSetAction.tautological(generate_semigroup(gens)), 2)\n"
            "psi = integrate(rep, check=True)\n"
            "kernel = seminorm_kernel([rep])\n"
            "print(*psi.matrix.shape, *kernel.shape, peak_kib())\n"
        )
        start = time.perf_counter()
        result = run_python([], code)
        wall = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        rows, D, null, cols, rss_kib = map(int, result.stdout.split())
        assert D == cols == sum(comb(4, k) ** 2 * factorial(k) * k for k in range(5))
        assert (rows, null) == (16, D - 16)
        assert rss_kib < 128 * 1024, f"peak RSS {rss_kib / 1024:.0f} MiB"
        assert wall < 6.0, f"{wall:.1f} s"

    def test_null_inside_kernel(self, all_instances):
        for inst in all_instances:
            rep = inst.regular(2)
            ir = integrate(rep, check=False)
            for row in null_ideal(inst.action).basis:
                img = ir.apply(Ell1Element.from_dense(inst.action, row))
                assert rep.opnorm(img) <= 1e-9


class TestSeminorm:
    def test_flip_monomial_has_norm_one(self, flip, flip_reg):
        assert seminorm_family(mono(flip, "(1>2)", D2), [flip_reg]) == pytest.approx(1.0)

    def test_zero_has_seminorm_zero(self, flip, flip_reg):
        assert seminorm_family(Ell1Element.zero(flip.action), [flip_reg]) == 0.0

    def test_null_elements_are_seminorm_null(self, semi, semi_reg):
        diff = mono(semi, "id{1}", D1) - mono(semi, "id{1,2}", D1)
        assert seminorm_family(diff, [semi_reg]) == pytest.approx(0.0, abs=1e-12)
        assert ell1_norm(diff) == pytest.approx(2.0)

    def test_empty_family_rejected(self, flip):
        with pytest.raises(EmptyFamily):
            seminorm_family(Ell1Element.zero(flip.action), [])
        with pytest.raises(EmptyFamily):
            seminorm_kernel([])

    def test_degenerate_family_rejected(self, flip):
        n = 2
        zero_rep = CovariantRep(
            flip.action,
            ReprSpace(n, 2),
            np.zeros((2, n, n), dtype=complex),
            np.zeros((5, n, n), dtype=complex),
        )
        with pytest.raises(DegenerateRepresentation):
            seminorm_kernel([zero_rep])

    def test_kernel_takes_one_svd(self, all_instances, sim3, monkeypatch):
        # the kernel is null_rows' bit for bit, and its complement orth_rows' span
        for inst in [*all_instances, sim3]:
            family = [inst.regular(2), inst.regular(1)]
            stacked = np.vstack([integrate(rep, check=False).matrix for rep in family])
            shapes, svd = [], np.linalg.svd
            monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: (
                shapes.append(m.shape), svd(m, *a, **k))[1])
            kernel = seminorm_kernel(family)
            monkeypatch.undo()
            assert shapes == [stacked.shape]
            assert kernel.tobytes() == _linalg.null_rows(stacked).tobytes()
            comp = _linalg.split_rows(stacked)[0]
            assert rows_equal(comp, _linalg.orth_rows(stacked)) and len(comp) + len(kernel) == (
                stacked.shape[1])

    def test_flip_kernel_trivial(self, flip, flip_reg):
        kernel = seminorm_kernel([flip_reg])
        assert kernel.shape[0] == 0
        assert flip.action.total_dim - kernel.shape[0] == 4

    def test_sim2_kernel_equals_null(self, sim2, sim2_reg):
        kernel = seminorm_kernel([sim2_reg])
        assert kernel.shape[0] == 4
        assert rows_equal(kernel, null_ideal(sim2.action).basis)

    def test_kernel_contains_null_for_every_family(self, all_instances):
        for inst in all_instances:
            family = [inst.regular(2), inst.regular(1)]
            kernel = seminorm_kernel(family)
            assert rows_leq(null_ideal(inst.action).basis, kernel)

    def test_integration_factors_through_the_family_quotient(self, sim2, sim2_reg):
        # the quotient by the family kernel carries structure constants that
        # the integrated images realize as honest matrix products, and the
        # factored map is injective on the quotient
        from semicross.ell1 import quotient_algebra

        kernel = seminorm_kernel([sim2_reg])
        quot = quotient_algebra(sim2.action, kernel)
        ir = integrate(sim2_reg, check=False)
        D = sim2.action.total_dim
        eye = np.eye(D, dtype=complex)
        imgs = [
            ir.apply(Ell1Element.from_dense(sim2.action, eye[j]))
            for j in quot.coords
        ]
        for a in range(quot.dim):
            for b in range(quot.dim):
                want = sum(
                    quot.structure[a, b, c] * imgs[c] for c in range(quot.dim)
                )
                assert np.allclose(imgs[a] @ imgs[b], want, atol=1e-9)
        stacked = np.array([m.ravel() for m in imgs])
        assert np.linalg.matrix_rank(stacked) == quot.dim


class TestCStarSeminorm:
    """Finite-family sanity checks behind the equivalence of Hilbert-space
    and abstract covariant-representation completions."""

    def test_seminorm_is_blind_to_normalization(self, flip, flip_reg):
        junky = with_v_at(flip_reg, "(1>2)", E21 + 0.7 * E12)
        fixed = normalize(junky)
        rng = np.random.default_rng(41)
        for _ in range(30):
            f = Ell1Element.from_dense(
                flip.action, rng.standard_normal(4) + 1j * rng.standard_normal(4)
            )
            assert seminorm_family(
                f, [junky], require_nondegenerate=False
            ) == pytest.approx(
                seminorm_family(f, [fixed], require_nondegenerate=False), abs=1e-9
            )

    def test_cstar_identity_at_p2(self, all_instances):
        from semicross.ell1 import involution

        rng = np.random.default_rng(43)
        for inst in all_instances:
            family = [inst.regular(2)]
            D = inst.action.total_dim
            for _ in range(25):
                f = Ell1Element.from_dense(
                    inst.action, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                lhs = seminorm_family(convolve(involution(f), f), family)
                rhs = seminorm_family(f, family) ** 2
                assert lhs == pytest.approx(rhs, abs=1e-8)


class TestGrading:
    def test_products_land_in_the_product_space(self, sim2_reg):
        sg = sim2_reg.action.semigroup
        for s in range(len(sg)):
            for t in range(len(sg)):
                a_s = grading_space(sim2_reg, s)
                a_t = grading_space(sim2_reg, t)
                target = grading_space(sim2_reg, sg.mul(s, t))
                products = [
                    (x.reshape(2, 2) @ y.reshape(2, 2)).ravel()
                    for x in a_s
                    for y in a_t
                ]
                if products:
                    assert rows_leq(np.array(products), target)

    def test_order_monotone(self, sim2_reg):
        sg = sim2_reg.action.semigroup
        for s, t in sg.order:
            assert rows_leq(grading_space(sim2_reg, s), grading_space(sim2_reg, t))

    def test_monomial_product_formula(self, sim2_reg):
        # pi(a)v_s . pi(b)v_t = pi(alpha_s(alpha_{s*}(a) b)) v_{st}, the
        # identity that makes integration multiplicative
        act = sim2_reg.action
        sg = act.semigroup
        A = act.algebra
        for s in act.nonzero_elements:
            for a in act.ideal(s).basis:
                left = sim2_reg.pi_of(a) @ sim2_reg.v[s]
                pulled = act.apply(sg.inv(s), a)
                for t in act.nonzero_elements:
                    for b in act.ideal(t).basis:
                        lhs = left @ (sim2_reg.pi_of(b) @ sim2_reg.v[t])
                        coef = act.apply(s, A.mul(pulled, b))
                        rhs = sim2_reg.pi_of(coef) @ sim2_reg.v[sg.mul(s, t)]
                        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_order_collapses_essential_products(self, all_instances):
        # s <= t forces pi(a)v_s = pi(a)v_t for a in I_s; this is exactly why
        # integration kills the order differences
        for inst in all_instances:
            reg = inst.regular(2)
            sg = inst.semigroup
            for s, t in sg.order:
                for a in inst.action.ideal(s).basis:
                    assert np.allclose(
                        reg.pi_of(a) @ reg.v[s], reg.pi_of(a) @ reg.v[t], atol=1e-9
                    )


class TestAdjoints:
    def test_adjoint_formula_on_fixtures(self, all_instances):
        for inst in all_instances:
            assert adjoint_check(inst.regular(2)).passed

    def test_flip_shift_adjoint(self, flip, flip_reg):
        sg = flip.semigroup
        t, ts = sg.index("(1>2)"), sg.index("(2>1)")
        lhs = (flip_reg.pi_of(D2) @ flip_reg.v[t]).conj().T
        rhs = flip_reg.pi_of(D1) @ flip_reg.v[ts]
        assert np.allclose(lhs, E12) and np.allclose(rhs, E12)

    def test_projection_case(self, flip, flip_reg):
        sg = flip.semigroup
        e = sg.index("id{2}")
        m = flip_reg.pi_of(D2) @ flip_reg.v[e]
        assert np.allclose(m.conj().T, m)

    def test_star_preserving_integration(self, sim2, sim2_reg):
        from semicross.ell1 import involution

        ir = integrate(sim2_reg, check=False)
        rng = np.random.default_rng(37)
        for _ in range(50):
            f = Ell1Element.from_dense(
                sim2.action, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            assert np.allclose(
                ir.apply(involution(f)), ir.apply(f).conj().T, atol=1e-9
            )


class TestMatrixCoefficients:
    """The swap-conjugation action of the two-element group on the 2x2
    matrix block, loaded through the instance file."""

    def test_rep_is_spatial_and_normalized(self, m2_swap):
        rep = m2_swap.representations["sw"]
        assert check_spatial(rep).passed
        assert is_normalized(rep)

    def test_convolution_laws_with_noncommutative_coefficients(self, m2_swap):
        rng = np.random.default_rng(47)
        act = m2_swap.action
        for _ in range(100):
            f, g, h = (
                Ell1Element.from_dense(
                    act, rng.standard_normal(8) + 1j * rng.standard_normal(8)
                )
                for _ in range(3)
            )
            assert convolve(convolve(f, g), h).allclose(convolve(f, convolve(g, h)))
            assert ell1_norm(convolve(f, g)) <= ell1_norm(f) * ell1_norm(g) + 1e-9

    def test_adjoints_and_group_checks(self, m2_swap):
        rep = m2_swap.representations["sw"]
        assert adjoint_check(rep).passed
        assert group_case_check(m2_swap.action, rep).passed

    def test_kernel_strictly_contains_null(self, m2_swap):
        rep = m2_swap.representations["sw"]
        null = null_ideal(m2_swap.action)
        kernel = seminorm_kernel([rep])
        assert null.dim == 0
        assert kernel.shape[0] == 4
        assert rows_leq(null.basis, kernel)
        assert not rows_equal(kernel, null.basis)


class TestGroupCase:
    def test_z2_formulas_agree(self, z2, z2_reg):
        report = group_case_check(z2.action, z2_reg)
        assert report.passed

    def test_z2_regular_isometries(self, z2, z2_reg):
        sg = z2.semigroup
        for g in range(len(sg)):
            m = z2_reg.v[g]
            assert z2_reg.opnorm(m) <= 1 + 1e-9
            assert z2_reg.opnorm(np.linalg.inv(m)) <= 1 + 1e-9

    def test_trivial_group_convolution_is_the_algebra_product(self):
        from semicross.actions import PartialSetAction, induce_action
        from semicross.semigroups import PartialBijection, generate_semigroup

        sg = generate_semigroup([PartialBijection.identity(("1", "2"))])
        act = induce_action(PartialSetAction.tautological(sg))
        f = Ell1Element.monomial(act, 0, D1 + 2 * D2)
        g = Ell1Element.monomial(act, 0, D2)
        prod = convolve(f, g)
        assert np.allclose(prod.value(0), act.algebra.mul(D1 + 2 * D2, D2))

    def test_not_a_group(self, flip):
        with pytest.raises(NotAGroup):
            group_case_check(flip.action)


# ------------------------------------------- stacked checks against the loops


def _star_broken():
    """flip's regular pair conjugated by a non-unitary S: still a normalized
    homomorphic pair, but pi(e_i) is no longer self-adjoint."""
    reg, S = fixtures.flip().regular(2), np.array([[1.0, 1.0], [0.0, 1.0]])
    Sinv = np.linalg.inv(S)
    return CovariantRep(reg.action, reg.space, S @ reg.pi @ Sinv, S @ reg.v @ Sinv)


def _saturation_broken():
    """flip with alpha at (2>1) the zero map and v at (1>2) zero: the adjoint
    formula holds at (1>2), yet A_(1>2)* = 0 misses A_(2>1) = C E12."""
    reg = fixtures.flip().regular(2)
    act, t = reg.action, reg.action.semigroup.index("(2>1)")
    pauts = list(act.pauts)
    pauts[t] = PartialAut(pauts[t].source, pauts[t].target, np.zeros((1, 2)))
    rep = with_v_at(reg, "(1>2)", np.zeros((2, 2)))
    return CovariantRep(Action(act.semigroup, act.algebra, tuple(pauts)),
                        rep.space, rep.pi, rep.v)


def _flip_reg():
    return fixtures.flip().regular(2)


def _semi_reg():
    return fixtures.semi().regular(2)


CRAFTED = {
    "identity at id{1} of flip": lambda: with_v_at(_flip_reg(), "id{1}", np.eye(2)),
    "identity at id{1} of semi": lambda: with_v_at(_semi_reg(), "id{1}", np.eye(2)),
    "phase at (1>2)": lambda: with_v_at(_flip_reg(), "(1>2)", 1j * E21),
    "CR1": lambda: with_v_at(_flip_reg(), "(1>2)", E21 + 0.5 * E22),
    "CR2": lambda: with_v_at(_flip_reg(), "(1>2)", 0.5 * E21),
    "CR3": lambda: with_v_at(_semi_reg(), "id{1}", np.zeros((2, 2))),
    "off-block junk": lambda: with_v_at(_flip_reg(), "(1>2)", E21 + 0.5 * E12),
    "junk at the zero": lambda: with_v_at(_flip_reg(), "0", E11 + 2 * E12),
    "zero pair": lambda: CovariantRep(
        _flip_reg().action, ReprSpace(2, 2), np.zeros((2, 2, 2)), np.zeros((5, 2, 2))
    ),
    "p = 1": lambda: fixtures.flip().regular(1),
    "star not preserved": _star_broken,
    "grading not saturated": _saturation_broken,
}


def outcome(check, *args):
    """None when a check passes, else the class name and message it raises."""
    try:
        check(*args)
    except CheckError as err:
        return type(err).__name__, str(err)
    return None


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_stacked_checks_raise_what_the_loops_raise(name):
    rep = CRAFTED[name]()
    for new, old in (
        (check_spatial, reference.reference_check_spatial),
        (check_algebraic, reference.reference_check_algebraic),
        (normalize, reference.reference_normalize),
        (adjoint_check, reference.reference_adjoint_check),
    ):
        assert outcome(new, rep) == outcome(old, rep), new.__name__
    assert is_normalized(rep) == reference.reference_is_normalized(rep)
    assert np.allclose(integrate(rep, check=False).matrix,
                       reference.reference_integrate_matrix(rep), atol=1e-12, rtol=0.0)
    if outcome(check_algebraic, rep) is None:
        got, want = normalize(rep).v, reference.reference_normalize(rep).v
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("budget", [1, 300, None], ids=["one", "a few", "default"])
def test_blocked_laws_name_the_pair_the_loops_name(budget, monkeypatch):
    # the regular pair of a semigroup with idempotents first, with a phase on
    # v at one element t at a time: v_s v_t = v_st first fails at many s
    if budget is not None:
        monkeypatch.setattr(semicross.reps, "blocks", lambda c, w: _linalg.blocks(c, w, budget))
    x = ("1", "2", "3")
    gens = [PartialBijection.identity(x, ("2",)), PartialBijection.identity(x, ("3",)),
            PartialBijection.from_dict(x, {"1": "2", "2": "3"})]
    reg = regular_rep(PartialSetAction.tautological(generate_semigroup(gens)), 2)
    first_s = set()
    for t in range(len(reg.v)):
        rep = with_v_at(reg, reg.action.semigroup.labels[t], 1j * reg.v[t])
        for new, old in (
            (check_spatial, reference.reference_check_spatial),
            (check_algebraic, reference.reference_check_algebraic),
        ):
            assert outcome(new, rep) == outcome(old, rep), new.__name__
        try:
            check_algebraic(rep)
        except CR2Violation as err:
            first_s.add(err.pair[0])
    assert len(first_s) >= 3


# ----------------------------------------- input checks raise named errors


def _one_point_pair():
    """C({x, y}) under the trivial action, pi = 1 at x and at y, v = 1: it
    passes check_algebraic, but pi is not multiplicative."""
    sg = generate_semigroup([PartialBijection.identity(("x", "y"))])
    act = induce_action(PartialSetAction.tautological(sg))
    return CovariantRep(act, ReprSpace(1, 2), np.ones((2, 1, 1)), np.ones((1, 1, 1)))


def _one_point_seminorm():
    rep = _one_point_pair()
    return seminorm_family(Ell1Element.zero(rep.action), [rep])


def _expanding_pair():
    """The trivial action on C({x}) sent to a non-orthogonal idempotent."""
    sg = generate_semigroup([PartialBijection.identity(("x",))])
    act = induce_action(PartialSetAction.tautological(sg))
    return CovariantRep(act, ReprSpace(2, 2), np.array([[[1.0, 2.0], [0.0, 0.0]]]), np.eye(2))


def _expanding_v_pair():
    """The trivial action on C({x}), pi = 1 and v_e a non-orthogonal
    idempotent: multiplicative, pi passes the diagonal criterion, but
    ||v_e|| > 1, so the sampled check must find that psi expands."""
    sg = generate_semigroup([PartialBijection.identity(("x",))])
    act = induce_action(PartialSetAction.tautological(sg))
    v = np.array([[[1.0, 2.0], [0.0, 0.0]]])
    return CovariantRep(act, ReprSpace(2, 2), np.eye(2)[None], v)


def _surviving_pair():
    """semi onto C: f -> f(id{1,2})(1).  Multiplicative and contractive on
    sections, but v at id{1} is 0, so delta_1 d_id{1} - delta_1 d_id{1,2}
    survives."""
    act = fixtures.semi().action
    v = np.zeros((2, 1, 1))
    v[act.semigroup.index("id{1,2}")] = 1.0
    return CovariantRep(act, ReprSpace(1, 2), np.array([[[1.0]], [[0.0]]]), v)


def _z2_group_check(**changes):
    """group_case_check of z2's regular pair with pi or v replaced."""
    reg = fixtures.z2().regular(2)
    parts = {"pi": reg.pi, "v": reg.v, **changes}
    rep = CovariantRep(reg.action, reg.space, parts["pi"], parts["v"])
    return group_case_check(rep.action, rep)


def _doubled_z2():
    """z2 with alpha_g twice the swap: not multiplicative, so the group
    formula a alpha_g(b) misses alpha_g(alpha_g(a) b) by a factor 2."""
    act = fixtures.z2().action
    g = act.semigroup.index("(1>2,2>1)")
    pauts = list(act.pauts)
    pauts[g] = PartialAut(pauts[g].source, pauts[g].target, 2 * pauts[g].matrix)
    return Action(act.semigroup, act.algebra, tuple(pauts))


def _no_star():
    reg = _flip_reg()
    A = dataclasses.replace(reg.action.algebra, star_mat=None)
    act = Action(reg.action.semigroup, A, reg.action.pauts)
    return CovariantRep(act, reg.space, reg.pi, reg.v)


def _trivial_m2_qnorm():
    inst = parse_instance(json.dumps(fixtures.TRIVIAL_M2))
    return quotient_ell1_norm(inst.elements["a"], null_ideal(inst.action).basis)


SWAP = E12 + E21
# name -> (the call, the class it raises, the payload attribute and value)
INPUT_CHECKS = {
    "adjoints on p = 1": (lambda: adjoint_check(fixtures.flip().regular(1)),
                          "NotHilbertSpace", None, None),
    "adjoints without a star": (lambda: adjoint_check(_no_star()), "NoStarOnAlgebra", None, None),
    "adjoints of a pair that is not normalized": (
        lambda: adjoint_check(CRAFTED["off-block junk"]()), "NotNormalized", None, None),
    "star not preserved": (lambda: adjoint_check(_star_broken()),
                           "StarNotPreserved", "basis_index", 0),
    "adjoint formula": (lambda: adjoint_check(CRAFTED["phase at (1>2)"]()),
                        "AdjointFormulaViolation", "element", "(1>2)"),
    "grading not saturated": (lambda: adjoint_check(_saturation_broken()),
                              "GradingNotSaturated", "element", "(1>2)"),
    "group check of a degenerate pair": (
        lambda: group_case_check(fixtures.z2().action, padded(fixtures.z2().regular(2))),
        "DegenerateRepresentation", None, None),
    "group check of a pair that is not normalized": (
        lambda: _z2_group_check(pi=0.5 * fixtures.z2().regular(2).pi),
        "NotNormalized", None, None),
    "v_g expands": (lambda: _z2_group_check(v=np.array([2 * SWAP, np.eye(2)])),
                    "NotInvertibleIsometry", "element", "(1>2,2>1)"),
    "v_g singular": (lambda: _z2_group_check(v=np.array([SWAP, E11 + E12])),
                     "NotInvertibleIsometry", "element", "id{1,2}"),
    "group convolutions disagree": (lambda: group_case_check(_doubled_z2()),
                                    "GroupConvolutionMismatch", "pair",
                                    ("(1>2,2>1)", "(1>2,2>1)")),
    "integrate, not multiplicative": (lambda: integrate(_one_point_pair()),
                                      "NotMultiplicative", "witness", (0, 1)),
    "integrate, expanding": (lambda: integrate(_expanding_pair()),
                             "NotContractive", "what", "integrated map"),
    "integrate, v expands beside a diagonal pi": (lambda: integrate(_expanding_v_pair()),
                                                   "NotContractive", "what", "integrated map"),
    "integrate, order difference survives": (lambda: integrate(_surviving_pair()),
                                             "NullNotKilled", "row", 0),
    "seminorm, not multiplicative": (_one_point_seminorm, "NotMultiplicative", "witness", (0, 1)),
    "seminorm kernel, not an ideal": (lambda: seminorm_kernel([_one_point_pair()]),
                                      "NotAnIdeal", "witness", ("id{x,y}", 0, "left")),
    # copies of a certified regular pair with one v_t replaced carry no certificate
    "seminorm kernel, CR1 on a copy": (lambda: seminorm_kernel([CRAFTED["CR1"]()]),
                                       "CR1Violation", "element", "(1>2)"),
    "seminorm kernel, CR2 on a copy": (lambda: seminorm_kernel([CRAFTED["CR2"]()]),
                                       "CR2Violation", "pair", ("(1>2)", "(2>1)")),
    "seminorm kernel, CR3 on a copy": (lambda: seminorm_kernel([CRAFTED["CR3"]()]),
                                       "CR3Violation", "element", "id{1}"),
    "quotient norm over operator-2-norm blocks": (_trivial_m2_qnorm, "QuotientNormNotLP",
                                                  None, None),
    "tautological action of a table": (
        lambda: PartialSetAction.tautological(
            InvSemigroup.from_table([[0]], labels=["1"])), "NotGeneratedByMaps", None, None),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_raise_named_errors(name):
    call, code, attr, value = INPUT_CHECKS[name]
    with pytest.raises(CheckError) as err:
        call()
    assert err.value.code == code
    if attr is not None:
        assert getattr(err.value, attr) == value


INPUT_CHECKS_UNDER_FLAGS = """
import test_reps
from semicross.errors import CheckError

for name, (call, code, _, _) in test_reps.INPUT_CHECKS.items():
    try:
        call()
        print(name, "passed")
    except CheckError as err:
        print(name, err.code)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_input_checks_survive_python_flags(flags):
    # python -O strips assert statements; input checks must not rely on them
    here = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, *flags, "-c", INPUT_CHECKS_UNDER_FLAGS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    want = [f"{name} {code}" for name, (_, code, _, _) in INPUT_CHECKS.items()]
    assert run.stdout.splitlines() == want


def test_integrate_expands_the_sample_the_loop_finds():
    for rep in (_expanding_pair(), _expanding_v_pair()):
        want = outcome(reference.reference_integrate_contractive, integrate(rep, check=False))
        assert want is not None and outcome(integrate, rep) == want
