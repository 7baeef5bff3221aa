"""Convolution, the structure tensor, the section norm, the involution, the
order-difference ideal and quotients, and the class path of induced and
validated actions (exact quotient norms) against the numeric path of the
same maps."""

import gc
import json
import os
import subprocess
import sys
import time
import weakref
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures
from reference import (
    reference_convolve,
    reference_block_classes,
    reference_germ_basis,
    reference_germ_classes,
    reference_ideal_witness,
    reference_germ_quotient_norm,
    reference_monomial_products,
    reference_order_differences,
    reference_quotient_norm,
    reference_quotient_pivots,
    reference_saturate,
    reference_sim_quotient_norm,
    reference_structure_tensor,
)
from semicross import _linalg
from semicross._linalg import in_rowspace, null_rows, orth_rows, rows_equal, rows_leq
from semicross.actions import Action, PartialSetAction, induce_action, validate_action
from semicross.algebras import Ideal, PartialAut, function_algebra
from semicross import ell1
from semicross.ell1 import (
    Ell1Element,
    _germs,
    _ideal_witness,
    convolve,
    ell1_norm,
    involution,
    monomials,
    null_ideal,
    quotient_algebra,
    quotient_ell1_norm,
    structure_tensor,
)
from semicross.errors import (
    ActionMismatch,
    ConvolutionEscapesIdeal,
    NotAnIdeal,
    OrderDifferenceNotProduct,
    PA1Violation,
    PA2SpanDeficit,
    QuotientNormNotLP,
)
from semicross.io_json import load_instance, parse_instance
from semicross.reps import seminorm_kernel
from semicross.semigroups import InvSemigroup, PartialBijection, generate_semigroup
from test_batched import MATRIX_ACTIONS, matrix_action

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ("flip", "semi", "semi_table", "sim2", "z2", "m2", "m2_swap")

D1 = np.array([1, 0], dtype=complex)
D2 = np.array([0, 1], dtype=complex)
# the induced ladder of the in-process benchmark; its matrix actions are MATRIX_ACTIONS
INDUCED_RUNGS = {
    "sim2": [{1: 2, 2: 1}, {1: 1}],
    "chain3": [{1: 2, 2: 3}],
    "cyc3_e": [{1: 2, 2: 3, 3: 1}, {1: 1}],
    "swap_e4": [{1: 2, 3: 4}, {1: 1, 4: 4}],
    "cyc4_e": [{1: 2, 2: 3, 3: 4, 4: 1}, {1: 1}],
}
# flip with one map replaced (fixtures.flip_with_identity), and where it fails
CRAFTED = {
    "product off I_st": (("(1>2)", "1"), ("(1>2)", "(2>1)")),
    "product off the source of alpha_s": (("(1>2)", "2"), ("(1>2)", "(2>1)")),
    "I_s off the source of alpha_s*": (("(2>1)", "1"), ("(1>2)", "(1>2)")),
    "failing s last": (("id{1}", "2"), ("id{1}", "(1>2)")),
    "zero map": (("(1>2)", None), None),
}


def run_python(flags, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``flags``, importing from
    src/ and tests/."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


PYTHON_FLAGS = pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
LP_FACTOR = np.cos(np.pi / 64)  # the 64-gon's worst ratio to the modulus
# the peak resident set of the running interpreter in KiB: on Linux,
# ru_maxrss also counts the parent's high-water mark from before exec
PEAK_RSS = (
    "import resource\n"
    "def peak_kib():\n"
    "    try:\n"
    "        with open('/proc/self/status') as fh:\n"
    "            return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
    "    except (OSError, StopIteration):\n"
    "        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
)
# the quotient norm of semi at a capped pivot count and at a huge optimality
# tolerance, then at the defaults, with the null basis {basis}
FAILED_LP = (
    "import numpy, fixtures\n"
    "from semicross import ell1\n"
    "from semicross.errors import CheckError\n"
    "act = fixtures.semi().action\n"
    "f = ell1.Ell1Element.from_dense(act, numpy.ones(act.total_dim))\n"
    "for name, value in (('_MAX_PIVOTS', 1), ('_OPT_TOL', 1e3)):\n"
    "    saved = getattr(ell1, name)\n"
    "    setattr(ell1, name, value)\n"
    "    try:\n"
    "        ell1.quotient_ell1_norm(f, {basis})\n"
    "    except CheckError as err:\n"
    "        print(err.code, err.status)\n"
    "    setattr(ell1, name, saved)\n"
    "print(ell1.quotient_ell1_norm(f, {basis}) > 0)\n"
)


def chain_action() -> tuple:
    """The chain id{1} <= id{1,2} <= id{1,2,3} acting on C({1,2,3})."""
    points = ("1", "2", "3")
    chain = generate_semigroup(
        [PartialBijection.identity(points, p) for p in (points, ("1", "2"), ("1",))]
    )
    return chain, induce_action(PartialSetAction.tautological(chain))


def induced(generators) -> Action:
    carrier = tuple(sorted({x for g in generators for pair in g.items() for x in pair}))
    sg = generate_semigroup([PartialBijection.from_dict(carrier, g) for g in generators])
    return induce_action(PartialSetAction.tautological(sg))


TENSOR_CASES = {
    **{name: lambda name=name: load_instance(ROOT / "instances" / f"{name}.json").action
       for name in SAMPLES},
    "sim3": lambda: fixtures.sim3().action,
    **{f"induced {name}": lambda g=g: induced(g) for name, g in INDUCED_RUNGS.items()},
    **{f"matrix {name}": lambda g=g: matrix_action(g) for name, g in MATRIX_ACTIONS.items()},
}


def trivially(table, points=("p", "q")) -> Action:
    """The semigroup of a Cayley table acting on C(points) with every
    theta_t the identity: theta is not injective, and two elements with the
    same map have equal germs only when the semigroup says so."""
    sg = InvSemigroup.from_table(table)
    one = PartialBijection.identity(points)
    return induce_action(PartialSetAction(sg, points, (one,) * len(sg)))


# induced actions, on which the germ path is compared with the numeric path
GERM_CASES = {
    **{name: lambda name=name: load_instance(ROOT / "instances" / f"{name}.json").action
       for name in ("flip", "semi", "sim2", "z2")},
    "sim3": lambda: fixtures.sim3().action,
    **{f"induced {name}": lambda g=g: induced(g) for name, g in INDUCED_RUNGS.items()},
    "z2 acting trivially": lambda: trivially([[0, 1], [1, 0]]),
    "1 >= e acting trivially": lambda: trivially([[0, 1], [1, 1]]),
}


def sim4() -> Action:
    """sim_4 on C({1, 2, 3, 4}), from a transposition, a 4-cycle and id{2,3,4}."""
    return induced([{1: 2, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 3, 3: 4, 4: 1}, {2: 2, 3: 3, 4: 4}])


def spy(monkeypatch, *names) -> list:
    """The calls of the named ``ell1`` functions from now on, in order."""
    calls = []
    for name in names:
        real = getattr(ell1, name)
        monkeypatch.setattr(ell1, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    return calls


def assert_same_paths(act: Action, rng, n_norms: int) -> Action:
    """The class path of an induced or validated action against the numeric
    path of the same maps (``fixtures.plain``, which it returns): the same
    tensor, N by row space, the same quotient coordinates, structure and
    projection within 1e-12.  The exact quotient norms of random sections
    are HiGHS's optimum of the covering program within 1e-9 relative, and
    the numeric path's 64-gon norm lies between cos(pi/64) times the exact
    norm and the exact norm, up to 1e-9 relative, and within 1e-9 of the
    reference section program (operator-2-norm blocks have none)."""
    plain = fixtures.plain(act)
    assert _germs(act) is not None and _germs(plain) is None
    assert_same_tensor(structure_tensor(act), structure_tensor(plain))
    null, want = null_ideal(act), null_ideal(plain)
    assert null.dim == want.dim and rows_equal(null.basis, want.basis)
    assert np.allclose(null.basis @ null.basis.conj().T, np.eye(null.dim), atol=1e-12)
    quot, quot_want = quotient_algebra(act, null), quotient_algebra(plain, want.basis)
    assert quot.coords == quot_want.coords
    assert np.allclose(quot.structure, quot_want.structure, atol=1e-12, rtol=0.0)
    assert np.allclose(quot.projection, quot_want.projection, atol=1e-12, rtol=0.0)
    polygon = not (act.algebra.p == 2 and any(idx.size > 1 for idx in act.algebra.blocks))
    for z in rng.standard_normal((n_norms, 2, act.total_dim)):
        f, g = (Ell1Element.from_dense(a, z[0] + 1j * z[1]) for a in (act, plain))
        got = quotient_ell1_norm(f, null)
        assert got == pytest.approx(reference_germ_quotient_norm(f), rel=1e-9, abs=1e-12)
        if polygon:
            low, tol = quotient_ell1_norm(g, want.basis), 1e-9 * max(1.0, got)
            assert LP_FACTOR * got - tol <= low <= got + tol
            if want.dim:
                assert low == pytest.approx(reference_quotient_norm(g, want.basis), rel=1e-9)
    return plain


def assert_reference_germs(act: Action) -> None:
    """The germ classes of an induced action of distinct maps are the
    partition of ``reference_germ_classes``."""
    label = _germs(act).label
    maps = [frozenset(m.pairs) for m in act._theta.maps]
    oracle = reference_germ_classes(maps)
    points = act.algebra.points
    reps = [oracle[t, y] for t in act.offsets
            for y in sorted(dict(maps[t]).values(), key=points.index)]
    assert len(reps) == len(label) == act.total_dim
    # the same partition: equal labels exactly where the representatives are equal
    assert (label[:, None] == label).tolist() == [[a == b for b in reps] for a in reps]


def assert_reference_blocks(act: Action) -> None:
    """The classes of a validated action with identity-row ideal bases are
    the partition of ``reference_block_classes``, entry by entry."""
    label, roots = _germs(act).label, reference_block_classes(act)
    block = {int(i): b for b, idx in enumerate(act.algebra.blocks) for i in idx.flat}
    reps = []
    for t in act.offsets:
        for row in act.ideal(t).basis:
            i = int(np.flatnonzero(row)[0])
            reps.append((roots[t, block[i]], i))
    assert len(reps) == len(label) == act.total_dim
    assert (label[:, None] == label).tolist() == [[a == b for b in reps] for a in reps]


def assert_same_pivots(act: Action) -> None:
    """``quotient_algebra`` chooses the coordinates of the reference loop."""
    basis = null_ideal(act).basis
    comp = null_rows(orth_rows(basis))
    assert quotient_algebra(act, basis).coords == tuple(reference_quotient_pivots(comp))


def rebased(action: Action, rng) -> Action:
    """The same action in random complex bases of its ideals: the basis of
    I_t is G_t times the old one, and alpha_t sends the new basis of I_t* to
    G_t* times its old images."""
    sg, G = action.semigroup, []
    for t in range(len(sg)):
        k = action.ideal(t).dim
        G.append(np.eye(k) + 0.5 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))))
    pauts = []
    for t, p in enumerate(action.pauts):
        u = sg.inv(t)
        source = Ideal(action.algebra, G[u] @ p.source.basis, p.source.unit)
        target = Ideal(action.algebra, G[t] @ p.target.basis, p.target.unit)
        pauts.append(PartialAut(source, target, G[u] @ p.matrix))
    return Action(sg, action.algebra, tuple(pauts))


def tensor_or_pair(build, action):
    """The tensor a build gives, or the pair its ConvolutionEscapesIdeal names."""
    try:
        return build(action)
    except ConvolutionEscapesIdeal as err:
        return err.pair


def assert_same_tensor(got, want) -> None:
    """The same I, J and K, in order, and C within 1e-12."""
    assert len(got) == len(want) == 4
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    assert np.allclose(got[3], want[3], atol=1e-12, rtol=0.0)


def mono(inst, label, vec):
    return Ell1Element.monomial(inst.action, inst.semigroup.index(label), vec)


def naive_convolution(inst, f, g):
    """Independent oracle: literal double sum over all semigroup pairs."""
    act = inst.action
    sg = inst.semigroup
    out = {r: np.zeros(2, dtype=complex) for r in range(len(sg))}
    for s in range(len(sg)):
        for t in range(len(sg)):
            fs, gt = f.value(s), g.value(t)
            if not np.any(fs) or not np.any(gt):
                continue
            pulled = act.apply(sg.inv(s), fs)
            out[sg.mul(s, t)] += act.apply(s, act.algebra.mul(pulled, gt))
    return out


def products_only_dim(action, tol=1e-9):
    """Reference path: dimension of the saturated span of the two-sided
    products m1 * (a delta_s - a delta_t) * m2 over all spanning monomials,
    leaving the bare differences out of the seed."""
    sg = action.semigroup
    mono = monomials(action)
    rows = [np.zeros((0, action.total_dim), dtype=complex)]
    for s, t in sorted(sg.order):
        if s == t or action.ideal(s).dim == 0:
            continue
        for a in action.ideal(s).basis:
            d = Ell1Element.monomial(action, s, a, tol) - Ell1Element.monomial(
                action, t, a, tol
            )
            for m1 in mono:
                left = convolve(m1, d, tol)
                for m2 in mono:
                    rows.append(convolve(left, m2, tol).to_dense()[None, :])
    basis = orth_rows(np.vstack(rows), tol)
    while True:
        products = [basis]
        for row in basis:
            x = Ell1Element.from_dense(action, row)
            for m in mono:
                products.append(convolve(m, x, tol).to_dense()[None, :])
                products.append(convolve(x, m, tol).to_dense()[None, :])
        grown = orth_rows(np.vstack(products), tol)
        if grown.shape[0] == basis.shape[0]:
            return grown.shape[0]
        basis = grown


class TestConvolve:
    def test_flip_shift_times_its_inverse(self, flip):
        f = mono(flip, "(1>2)", D2)
        g = mono(flip, "(2>1)", D1)
        result = convolve(f, g)
        assert result.support == (flip.semigroup.index("id{2}"),)
        assert np.allclose(result.value(flip.semigroup.index("id{2}")), D2)

    def test_flip_shift_squared_vanishes(self, flip):
        f = mono(flip, "(1>2)", D2)
        assert convolve(f, f).support == ()

    def test_zero_absorbs(self, flip):
        f = mono(flip, "(1>2)", D2)
        zero = Ell1Element.zero(flip.action)
        assert convolve(f, zero).support == ()
        assert convolve(zero, f).support == ()

    def test_action_mismatch(self, flip, semi):
        with pytest.raises(ActionMismatch):
            convolve(mono(flip, "(1>2)", D2), mono(semi, "id{1}", D1))

    def test_against_naive_oracle(self, sim2):
        rng = np.random.default_rng(3)
        for _ in range(40):
            f = Ell1Element.from_dense(
                sim2.action, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            g = Ell1Element.from_dense(
                sim2.action, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            expected = naive_convolution(sim2, f, g)
            got = convolve(f, g)
            for r in range(len(sim2.semigroup)):
                assert np.allclose(got.value(r), expected[r], atol=1e-9)

    def test_monomial_density(self, sim2):
        stack = np.array([m.to_dense() for m in monomials(sim2.action)])
        assert np.linalg.matrix_rank(stack) == sim2.action.total_dim


class TestStructureTensor:
    @pytest.mark.parametrize("name", SAMPLES)
    def test_convolve_matches_the_reference_on_random_pairs(self, name):
        act = load_instance(ROOT / "instances" / f"{name}.json").action
        rng = np.random.default_rng(19)
        D = act.total_dim
        for _ in range(30):
            f, g = (
                Ell1Element.from_dense(
                    act, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                for _ in range(2)
            )
            assert np.allclose(
                convolve(f, g).to_dense(),
                reference_convolve(f, g).to_dense(),
                atol=1e-9,
                rtol=0.0,
            )

    def test_ideal_check_matches_the_reference(self, sim2, semi, m2_swap):
        twisted = fixtures.twisted_sim2()
        cases = [
            (sim2.action, null_ideal(sim2.action).basis, None),
            (m2_swap.action, null_ideal(m2_swap.action).basis, None),
            # the null ideal of m2_swap is zero; its one-representation kernel is not
            (m2_swap.action, seminorm_kernel(list(m2_swap.representations.values())), None),
            (semi.action, mono(semi, "id{1,2}", D1).to_dense(), ("id{1}", 0, "left")),
            (twisted, reference_order_differences(twisted), ("(1>2,2>1)", 0, "right")),
        ]
        for act, rows, witness in cases:
            basis = orth_rows(rows)
            closed = rows_leq(reference_monomial_products(act, basis), basis, 1e-9)
            assert closed == (witness is None)
            assert _ideal_witness(act, basis, null_rows(basis), 1e-9) == witness
        assert [len(orth_rows(rows)) for _, rows, _ in cases] == [4, 0, 4, 1, 16]

    @pytest.mark.parametrize("budget", [1, 2000, None], ids=["one", "a few", "default"])
    def test_blocked_ideal_check_names_what_the_loop_names(
        self, budget, sim2, sim3, semi, m2_swap, monkeypatch
    ):
        # budget: the entries of one block, so 1 takes one monomial at a time
        if budget is not None:
            monkeypatch.setattr(ell1, "blocks", lambda c, w: _linalg.blocks(c, w, budget))
        rng = np.random.default_rng(11)
        actions = [sim2.action, sim3.action, semi.action, m2_swap.action,
                   fixtures.twisted_sim2(), matrix_action(MATRIX_ACTIONS["swap_e3"])]
        witnesses = set()
        for act in actions:
            D = act.total_dim
            spans = [np.eye(D), np.zeros((0, D)), reference_order_differences(act)]
            # spans of random coordinate sets fail at many different monomials
            spans += [np.eye(D)[rng.random(D) < rng.random()] for _ in range(6)]
            spans += [rng.standard_normal((k, D)) for k in (1, D - 1)]
            for rows in spans:
                basis = orth_rows(rows)
                comp = null_rows(basis)
                want = reference_ideal_witness(act, basis, comp, 1e-9)
                assert _ideal_witness(act, basis, comp, 1e-9) == want
                witnesses.add(want)
        assert None in witnesses and len(witnesses) >= 8

    def test_sim3_tensor_is_the_induced_partial_action(self, sim3):
        # m_(s,x) * m_(t,y) = m_(st,x) exactly when y = theta_{s*}(x), from the
        # partial bijections alone: alpha_{s*}(delta_x) = delta_{theta_{s*}(x)}
        act = sim3.action
        maps = sim3.theta.maps
        points = act.algebra.points

        def coord(t, x):
            image = sorted(maps[t].image, key=points.index)
            return act.offsets[t] + image.index(x)

        want = set()
        for s in act.nonzero_elements:
            back = maps[sim3.semigroup.inv(s)]
            for t in act.nonzero_elements:
                for x in maps[s].image:
                    if back(x) in maps[t].image:
                        st = sim3.semigroup.mul(s, t)
                        want.add((coord(s, x), coord(t, back(x)), coord(st, x)))
        I, J, K, C = structure_tensor(act)
        got = set(zip(I.tolist(), J.tolist(), K.tolist()))
        assert len(sim3.semigroup) == 34 and act.total_dim == 63
        assert len(C) == len(got) == len(want) == 1323
        assert got == want
        assert np.all(C == 1.0)
        assert len(set(zip(I.tolist(), J.tolist()))) == 1323

    @pytest.mark.parametrize("name", TENSOR_CASES)
    def test_stacked_build_is_the_reference(self, name):
        act = TENSOR_CASES[name]()
        assert_same_tensor(structure_tensor(act), reference_structure_tensor(act))

    @pytest.mark.parametrize("name", CRAFTED)
    def test_crafted_failures_name_the_reference_pair(self, name):
        args, pair = CRAFTED[name]
        want = tensor_or_pair(reference_structure_tensor, fixtures.flip_with_identity(*args))
        got = tensor_or_pair(structure_tensor, fixtures.flip_with_identity(*args))
        if pair is None:
            assert_same_tensor(got, want)
        else:
            assert got == want == pair

    @PYTHON_FLAGS
    def test_crafted_failures_are_named_under_python_flags(self, flags):
        code = (
            "import fixtures\n"
            "from reference import reference_structure_tensor\n"
            "from semicross.ell1 import structure_tensor\n"
            "from semicross.errors import CheckError\n"
            f"for args in {[args for args, pair in CRAFTED.values() if pair]!r}:\n"
            "    for build in (structure_tensor, reference_structure_tensor):\n"
            "        try:\n"
            "            build(fixtures.flip_with_identity(*args))\n"
            "        except CheckError as err:\n"
            "            print(err.code, *err.pair)\n"
        )
        result = run_python(flags, code)
        assert result.returncode == 0, result.stderr
        want = [f"ConvolutionEscapesIdeal {s} {t}" for _, pair in CRAFTED.values() if pair
                for s, t in [pair] * 2]
        assert result.stdout.splitlines() == want

    @settings(max_examples=30, deadline=None)
    @given(
        fixtures.generator_lists,
        st.sampled_from(["induced", "rebased", "scale", "mix", "permute"]),
        st.integers(0, 2**32 - 1),
    )
    def test_random_actions_match_the_reference(self, gens, kind, seed):
        # induced actions, then in random bases, then with one map perturbed
        sg = generate_semigroup(gens)
        if len(sg) > 40:  # the reference takes about a millisecond per pair
            return
        try:
            act = induce_action(PartialSetAction.tautological(sg))
        except PA2SpanDeficit:
            return
        rng = np.random.default_rng(seed)
        if kind != "induced":
            act = rebased(act, rng)
        t = int(rng.choice(act.nonzero_elements))
        m = act.paut(t).matrix
        z = rng.standard_normal((len(m), len(m))) + 1j * rng.standard_normal((len(m), len(m)))
        matrix = {
            "scale": complex(*rng.uniform(0.5, 1.5, 2)) * m,
            "mix": (np.eye(len(m)) + 0.5 * z) @ m,  # still inside the target
            "permute": m[::-1],
        }.get(kind, m)
        pauts = list(act.pauts)
        pauts[t] = PartialAut(act.paut(t).source, act.paut(t).target, matrix)
        act = Action(sg, act.algebra, tuple(pauts))
        want = tensor_or_pair(reference_structure_tensor, act)
        got = tensor_or_pair(structure_tensor, act)
        if len(want) == 2:  # a pair of labels
            assert got == want
        else:
            assert_same_tensor(got, want)

    def test_memoized_per_tolerance_and_read_only(self, sim2):
        tensor = structure_tensor(sim2.action, 1e-9)
        assert structure_tensor(sim2.action, 1e-9) is tensor
        assert structure_tensor(sim2.action, 1e-8) is not tensor
        for arr in tensor:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_escaping_summand_is_a_named_error(self):
        broken = fixtures.escaping_flip()
        f = Ell1Element.from_dense(broken, np.ones(broken.total_dim))
        with pytest.raises(ConvolutionEscapesIdeal) as err:
            convolve(f, f)
        assert err.value.pair == ("(1>2)", "(2>1)")
        with pytest.raises(ConvolutionEscapesIdeal):
            null_ideal(fixtures.escaping_flip())

    @PYTHON_FLAGS
    def test_escaping_summand_is_named_under_python_flags(self, flags):
        # python -O strips assert statements; the tensor build must not rely on them
        code = (
            "import fixtures\n"
            "from semicross.ell1 import structure_tensor\n"
            "from semicross.errors import CheckError\n"
            "try:\n"
            "    structure_tensor(fixtures.escaping_flip())\n"
            "except CheckError as err:\n"
            "    print(err.code, *err.pair)\n"
        )
        result = run_python(flags, code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["ConvolutionEscapesIdeal", "(1>2)", "(2>1)"]


class TestNorm:
    def test_two_monomials(self, flip):
        f = mono(flip, "(1>2)", D2) + mono(flip, "id{1}", D1)
        assert ell1_norm(f) == pytest.approx(2.0)

    def test_zero(self, flip):
        assert ell1_norm(Ell1Element.zero(flip.action)) == 0.0

    def test_homogeneity(self, flip):
        assert ell1_norm(mono(flip, "(1>2)", 3 * D2)) == pytest.approx(3.0)


class TestInvolution:
    def test_flip_star_of_shift_monomial(self, flip):
        f = mono(flip, "(1>2)", D2)
        fs = involution(f)
        assert fs.support == (flip.semigroup.index("(2>1)"),)
        assert np.allclose(fs.value(flip.semigroup.index("(2>1)")), D1)

    def test_involutive(self, flip, sim2):
        rng = np.random.default_rng(5)
        for inst in (flip, sim2):
            f = Ell1Element.from_dense(
                inst.action,
                rng.standard_normal(inst.action.total_dim)
                + 1j * rng.standard_normal(inst.action.total_dim),
            )
            assert involution(involution(f)).allclose(f)

    def test_antilinear(self, flip):
        f = mono(flip, "(1>2)", 1j * D2)
        fs = involution(f)
        assert np.allclose(fs.value(flip.semigroup.index("(2>1)")), -1j * D1)

    def test_antihomomorphism(self, sim2):
        rng = np.random.default_rng(6)
        act = sim2.action
        for _ in range(30):
            f = Ell1Element.from_dense(
                act, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            g = Ell1Element.from_dense(
                act, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            assert involution(convolve(f, g)).allclose(
                convolve(involution(g), involution(f))
            )

    def test_isometric(self, sim2):
        rng = np.random.default_rng(7)
        for _ in range(30):
            f = Ell1Element.from_dense(
                sim2.action, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            assert ell1_norm(involution(f)) == pytest.approx(ell1_norm(f), abs=1e-9)


class TestNullIdeal:
    def test_flip_null_is_zero(self, flip):
        null = null_ideal(flip.action)
        assert null.dim == 0 == products_only_dim(flip.action)

    def test_semi_null_is_the_single_difference(self, semi):
        null = null_ideal(semi.action)
        assert null.dim == 1 == products_only_dim(semi.action)
        diff = mono(semi, "id{1}", D1) - mono(semi, "id{1,2}", D1)
        assert in_rowspace(null.basis, diff.to_dense())

    def test_sim2_null_dimension(self, sim2):
        null = null_ideal(sim2.action)
        assert null.dim == 4 == products_only_dim(sim2.action)

    def test_matrix_instances_match_the_products_only_span(self, m2, m2_swap):
        for inst in (m2, m2_swap):
            assert null_ideal(inst.action).dim == products_only_dim(inst.action)

    def test_memoized_per_tolerance(self, sim2):
        assert null_ideal(sim2.action, 1e-9) is null_ideal(sim2.action, 1e-9)
        assert null_ideal(sim2.action, 1e-8) is null_ideal(sim2.action, 1e-8)
        assert null_ideal(sim2.action, 1e-8) is not null_ideal(sim2.action, 1e-9)

    @pytest.mark.parametrize(
        "unit", [[2, 2, 0], [0, 0, 1]], ids=["doubled", "outside-the-ideal"]
    )
    def test_broken_unit_is_a_named_error(self, unit):
        # the chain, left unvalidated after I_{1,2} is given a wrong unit
        chain, act = chain_action()
        t = chain.index("id{1,2}")
        good = act.paut(t)
        bad = Ideal(act.algebra, good.target.basis, np.array(unit, dtype=complex))
        pauts = list(act.pauts)
        pauts[t] = PartialAut(good.source, bad, good.matrix)
        broken = Action(chain, act.algebra, tuple(pauts))
        with pytest.raises(OrderDifferenceNotProduct) as err:
            null_ideal(broken)
        assert err.value.pair == ("id{1}", "id{1,2}")

    def test_smaller_ideal_outside_the_larger_is_a_named_error(self):
        # the chain with I_{1} = C delta_3, which is not inside I_{1,2}
        chain, act = chain_action()
        e3 = np.array([[0, 0, 1]], dtype=complex)
        ideal = Ideal(act.algebra, e3, e3[0])
        pauts = list(act.pauts)
        pauts[chain.index("id{1}")] = PartialAut(ideal, ideal, e3)
        broken = Action(chain, act.algebra, tuple(pauts))
        structure_tensor(broken)  # every summand stays in its ideal
        with pytest.raises(OrderDifferenceNotProduct) as err:
            null_ideal(broken)
        assert err.value.pair == ("id{1}", "id{1,2}")

    @pytest.mark.parametrize("name", SAMPLES)
    def test_seed_span_is_the_saturated_reference(self, name):
        act = load_instance(ROOT / "instances" / f"{name}.json").action
        want = reference_saturate(act, reference_order_differences(act))
        assert null_ideal(act).dim == len(want)
        assert rows_equal(null_ideal(act).basis, want)

    def test_sim3_seed_span_is_the_saturated_reference(self, sim3):
        want = reference_saturate(sim3.action, reference_order_differences(sim3.action))
        assert null_ideal(sim3.action).dim == len(want) == 54
        assert rows_equal(null_ideal(sim3.action).basis, want)

    def test_twisted_non_action_is_not_an_ideal(self):
        # before the closure check this saturated silently to the whole space
        act = fixtures.twisted_sim2()
        seeds = reference_order_differences(act)
        assert len(orth_rows(seeds)) == 16
        assert len(reference_saturate(act, seeds)) == act.total_dim == 32
        structure_tensor(act)  # every summand stays in its ideal
        with pytest.raises(PA1Violation):
            validate_action(act)
        with pytest.raises(NotAnIdeal) as err:
            null_ideal(act)
        assert err.value.witness == ("(1>2,2>1)", 0, "right")

    @PYTHON_FLAGS
    def test_twisted_non_action_is_named_under_python_flags(self, flags):
        code = (
            "import fixtures\n"
            "from semicross.ell1 import null_ideal\n"
            "from semicross.errors import CheckError\n"
            "try:\n"
            "    null_ideal(fixtures.twisted_sim2())\n"
            "except CheckError as err:\n"
            "    print(err.code, *err.witness)\n"
        )
        result = run_python(flags, code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["NotAnIdeal", "(1>2,2>1)", "0", "right"]

    def test_sim4_null_and_quotient_in_bounded_time_and_memory(self):
        # sim_4 acting on C({1..4}): D = sum over k of C(4,k)^2 k! k coordinates,
        # and the quotient has one coordinate per germ, n^2 = 16 of them.  The
        # germ path took 0.13-0.14 s and 44 MiB peak in three runs on a
        # 2-core host (the numeric path about 1.5 s and 120 MiB)
        code = PEAK_RSS + (
            "from semicross import PartialBijection as P, PartialSetAction, generate_semigroup\n"
            "from semicross import induce_action, null_ideal, quotient_algebra\n"
            "x = (1, 2, 3, 4)\n"
            "gens = [P.from_dict(x, {1: 2, 2: 1, 3: 3, 4: 4}),\n"
            "        P.from_dict(x, {1: 2, 2: 3, 3: 4, 4: 1}), P.identity(x, (2, 3, 4))]\n"
            "sg = generate_semigroup(gens)\n"
            "act = induce_action(PartialSetAction.tautological(sg))\n"
            "null = null_ideal(act)\n"
            "quot = quotient_algebra(act, null.basis)\n"
            "print(len(sg), act.total_dim, null.dim, quot.dim, peak_kib())\n"
        )
        start = time.perf_counter()
        result = run_python([], code)
        wall = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        size, dim, null, quot, rss_kib = map(int, result.stdout.split())
        D = sum(comb(4, k) ** 2 * factorial(k) * k for k in range(5))
        assert (size, dim, null, quot) == (209, D, D - 16, 16)
        assert rss_kib < 96 * 1024, f"peak RSS {rss_kib / 1024:.0f} MiB"
        assert wall < 3.0, f"{wall:.1f} s"

    def test_sim5_tensor_and_null_in_bounded_time_and_memory(self):
        # sim_5: |S| = 1546, D = 5225, 25 germs.  A dense basis of N would be
        # 5200 x 5225 complex numbers, about 435 MB; the germ path keeps N as
        # its partition and builds no basis.  The tensor has 5,460,125
        # entries (about 218 MB); the run took 0.65-0.69 s and 282 MiB peak
        # in three runs on a 2-core host
        code = PEAK_RSS + (
            "from semicross import PartialBijection as P, PartialSetAction, generate_semigroup\n"
            "from semicross import induce_action, null_ideal\n"
            "from semicross.ell1 import structure_tensor\n"
            "x = (1, 2, 3, 4, 5)\n"
            "gens = [P.from_dict(x, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}),\n"
            "        P.from_dict(x, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}), P.identity(x, x[1:])]\n"
            "sg = generate_semigroup(gens)\n"
            "act = induce_action(PartialSetAction.tautological(sg))\n"
            "I, J, K, C = structure_tensor(act)\n"
            "null = null_ideal(act)\n"
            "print(len(sg), act.total_dim, len(C), null.dim, 'basis' in vars(null), peak_kib())\n"
        )
        start = time.perf_counter()
        result = run_python([], code)
        wall = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        size, dim, entries, null, built, rss_kib = result.stdout.split()
        D = sum(comb(5, k) ** 2 * factorial(k) * k for k in range(6))
        assert (int(size), int(dim), int(null), built) == (1546, D, D - 25, "False")
        assert int(entries) == 5_460_125
        assert int(rss_kib) < 384 * 1024, f"peak RSS {int(rss_kib) / 1024:.0f} MiB"
        assert wall < 10.0, f"{wall:.1f} s"

    @PYTHON_FLAGS
    def test_sim5_quotient_and_norm_in_bounded_time_and_memory(self, flags):
        # sim_5 through the quotient: the germ path passes N as its object, so
        # neither quotient_algebra nor quotient_ell1_norm builds the dense
        # basis (5200 x 5225, about 415 MiB).  The norm is exact: the
        # covering program has one row per germ class, 25 of them, and its
        # optimum is the closed form of reference_sim_quotient_norm.  Three
        # runs of each flag on a 2-core host took 0.63-0.75 s at 325 MiB peak,
        # the norm itself 9-14 ms (the 64-gon germ program took 1.4-2.4 s)
        code = PEAK_RSS + (
            "import numpy as np\n"
            "from reference import reference_sim_quotient_norm\n"
            "from semicross import PartialBijection as P, PartialSetAction, generate_semigroup\n"
            "from semicross import Ell1Element, induce_action, null_ideal, quotient_algebra\n"
            "from semicross import quotient_ell1_norm\n"
            "x = (1, 2, 3, 4, 5)\n"
            "gens = [P.from_dict(x, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}),\n"
            "        P.from_dict(x, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}), P.identity(x, x[1:])]\n"
            "act = induce_action(PartialSetAction.tautological(generate_semigroup(gens)))\n"
            "null = null_ideal(act)\n"
            "quot = quotient_algebra(act, null)\n"
            "z = np.random.default_rng(7).standard_normal((2, act.total_dim))\n"
            "f = Ell1Element.from_dense(act, z[0] + 1j * z[1])\n"
            "got = quotient_ell1_norm(f, null)\n"
            "print(quot.dim, got / reference_sim_quotient_norm(f), 'basis' in vars(null), peak_kib())\n"
        )
        start = time.perf_counter()
        result = run_python(flags, code)
        wall = time.perf_counter() - start
        assert result.returncode == 0, result.stderr
        dim, ratio, built, rss_kib = result.stdout.split()
        assert (int(dim), built) == (25, "False")
        assert float(ratio) == pytest.approx(1.0, rel=1e-9, abs=0.0)
        assert int(rss_kib) < 640 * 1024, f"peak RSS {int(rss_kib) / 1024:.0f} MiB"
        assert wall < 5.0, f"{wall:.1f} s"

    def test_null_is_convolution_invariant(self, semi, sim2):
        for inst in (semi, sim2):
            null = null_ideal(inst.action)
            for row in null.basis:
                x = Ell1Element.from_dense(inst.action, row)
                for m in monomials(inst.action):
                    assert in_rowspace(null.basis, convolve(m, x).to_dense())
                    assert in_rowspace(null.basis, convolve(x, m).to_dense())

    def test_sim2_null_matches_regular_kernel(self, sim2, sim2_reg):
        from semicross.reps import integrate

        null = null_ideal(sim2.action)
        kernel = integrate(sim2_reg, check=False).kernel()
        assert rows_equal(null.basis, kernel)


class TestGermPath:
    @pytest.mark.parametrize("name", GERM_CASES)
    def test_germ_path_is_the_numeric_path(self, name):
        assert_same_paths(GERM_CASES[name](), np.random.default_rng(29), 2)

    def test_sim4_germ_path_is_the_numeric_path(self, monkeypatch):
        # the section program at sim4 has 528 complex z and 34,816 facet rows
        # in the reference, so the quotient norms are checked against the
        # covering program over the germ union-find's classes instead.  The plain
        # rebuild's N is checked once, by null_ideal; quotient_algebra given
        # its basis checks nothing again
        act = sim4()
        assert len(act.semigroup) == 209
        rng = np.random.default_rng(31)
        calls = spy(monkeypatch, "_ideal_witness")
        assert_same_paths(act, rng, 0)
        assert calls == ["_ideal_witness"]
        maps = [frozenset(m.pairs) for m in act._theta.maps]
        for z in rng.standard_normal((2, 2, act.total_dim)):
            f = Ell1Element.from_dense(act, z[0] + 1j * z[1])
            got = quotient_ell1_norm(f, null_ideal(act).basis)
            assert got == pytest.approx(reference_germ_quotient_norm(f, maps), rel=1e-9)

    @pytest.mark.parametrize("name", GERM_CASES)
    def test_classes_are_the_reference_germs(self, name):
        act = GERM_CASES[name]()
        label = _germs(act).label
        if name.endswith("trivially"):  # theta is not injective: classes by hand
            want = {"z2 acting trivially": [0, 1, 2, 3], "1 >= e acting trivially": [0, 1, 0, 1]}
            assert label.tolist() == want[name]
            return
        assert_reference_germs(act)

    def test_null_ideal_is_the_partition_until_its_basis_is_asked_for(self):
        act = fixtures.sim2().action  # a fresh action
        null = null_ideal(act)
        assert null.dim == 4 and "basis" not in vars(null)
        assert quotient_algebra(act, null).dim == 4
        quotient_ell1_norm(Ell1Element.from_dense(act, np.arange(8.0)), null)
        assert "basis" not in vars(null)
        assert quotient_algebra(act, null.basis).null is null
        assert null_ideal(act, 1e-8) is not null
        assert null_ideal(act, 1e-8).basis is null.basis  # one partition per action
        with pytest.raises(ValueError):  # read-only: the quotient layer trusts its rows
            null.basis[0, 0] = 1.0

    def test_numeric_and_checked_bases_are_read_only(self):
        act = fixtures.plain(fixtures.sim2().action)
        copy = null_ideal(act).basis.copy()
        for null in (null_ideal(act), quotient_algebra(act, copy).null):
            assert null.germs is None and null.dim == 4
            with pytest.raises(ValueError):
                null.basis[0, 0] = 1.0
        assert copy.flags.writeable  # the caller's rows are left alone

    @pytest.mark.parametrize("name", [*(n for n in SAMPLES if n in GERM_CASES), "sim3", "sim4"])
    def test_germ_basis_is_the_reference_build(self, name):
        # the class-at-a-time build against the (D, D) masked build
        act = sim4() if name == "sim4" else GERM_CASES[name]()
        germs = _germs(act)
        got, want = germs.basis, reference_germ_basis(germs.label)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [*(n for n in SAMPLES if n in GERM_CASES), "sim3", "sim4"])
    def test_germ_contrasts_are_the_basis_product(self, name):
        # running sums within classes against the masked basis times rows that
        # are equal within each class but at one coordinate, so few rows survive
        act = sim4() if name == "sim4" else GERM_CASES[name]()
        null, germs, rng = null_ideal(act), _germs(act), np.random.default_rng(41)
        basis = reference_germ_basis(germs.label)
        for j in range(0, len(germs.label), max(1, len(germs.label) // 7)):
            per_class = rng.standard_normal((2, germs.count, 3))
            cols = (per_class[0] + 1j * per_class[1])[germs.label]
            cols[j] += 0.5
            got, want = null.basis_times(cols), basis @ cols
            assert np.allclose(got, want, atol=1e-12, rtol=0.0)
            alive = np.linalg.norm(want, axis=1) > 1e-9
            assert (np.linalg.norm(got, axis=1) > 1e-9).tolist() == alive.tolist()
        assert "basis" not in vars(null)

    @pytest.mark.parametrize("name", ["semi", "sim3"])
    def test_germ_partition_is_grouped_once(self, name, monkeypatch):
        # basis and contrasts read the rank groups of _Germs.ranks; once those
        # are built, neither sorts the partition again
        act = fixtures.sim3().action if name == "sim3" else GERM_CASES[name]()
        germs = _germs(act)
        cols = np.random.default_rng(43).standard_normal((len(germs.label), 2)) + 0j
        germs.ranks

        def argsort(*args, **kwargs):
            raise AssertionError("the partition was sorted again")

        monkeypatch.setattr(np, "argsort", argsort)
        got, basis = germs.contrasts(cols), germs.basis
        monkeypatch.undo()
        assert basis.tobytes() == reference_germ_basis(germs.label).tobytes()
        assert np.allclose(got, basis @ cols, atol=1e-12, rtol=0.0)

    def test_rebuilt_actions_take_the_numeric_path(self, sim2, monkeypatch):
        # a paut family rebuilt as a plain Action, as in the crafted failures
        for args, _ in CRAFTED.values():
            assert _germs(fixtures.flip_with_identity(*args)) is None
        act = fixtures.plain(sim2.action)
        assert _germs(act) is None
        # null_ideal checks its rows once; given that object or its basis, the
        # quotient layer checks nothing again and builds the section program
        # once.  Any other array is checked and gives the same values
        calls = spy(monkeypatch, "_dual_program", "_ideal_witness")
        null = null_ideal(act)
        assert calls == ["_ideal_witness"]
        f = Ell1Element.from_dense(act, np.arange(8.0))
        norms = [quotient_ell1_norm(f, given) for given in (null, null.basis, null)]
        quots = [quotient_algebra(act, given) for given in (null, null.basis)]
        assert norms == pytest.approx([norms[0]] * 3, rel=1e-12)
        assert all(quot.null is null for quot in quots)
        assert quots[0].coords == quots[1].coords
        assert calls == ["_ideal_witness", "_dual_program"]
        copy = null.basis.copy()
        assert quotient_ell1_norm(f, copy) == pytest.approx(norms[0], rel=1e-12)
        quot = quotient_algebra(act, copy)
        assert quot.null is not null and quot.coords == quots[0].coords
        assert np.allclose(quot.projection, quots[0].projection, atol=1e-12, rtol=0.0)
        assert calls[2:] == ["_ideal_witness", "_dual_program", "_ideal_witness"]

    @pytest.mark.parametrize("name", ["sim3", "sim4"])
    def test_exact_norm_is_the_closed_form_of_sim_n(self, name):
        # the largest row or column sum of the germ totals |c_(y,x)|, and
        # HiGHS on the covering program over the germ union-find's classes
        act = sim4() if name == "sim4" else fixtures.sim3().action
        maps = [frozenset(m.pairs) for m in act._theta.maps]
        for z in np.random.default_rng(47).standard_normal((3, 2, act.total_dim)):
            f = Ell1Element.from_dense(act, z[0] + 1j * z[1])
            got = quotient_ell1_norm(f, null_ideal(act))
            assert got == pytest.approx(reference_sim_quotient_norm(f), rel=1e-12, abs=0.0)
            assert got == pytest.approx(reference_germ_quotient_norm(f, maps), rel=1e-9)

    @pytest.mark.parametrize("name", ["semi_table", "m2", "m2_swap", "top at index 1",
                                      *(f"matrix {n}" for n in MATRIX_ACTIONS)])
    def test_validated_explicit_actions_against_the_numeric_path(self, name):
        # the explicit samples, the benchmark's matrix actions, and e <= 1 on
        # C({p, q}) with 1 at index 1, whose point q only 1 holds
        if name == "top at index 1":
            sg = InvSemigroup.from_table([[0, 0], [0, 1]], labels=["e", "1"])
            A = function_algebra(("p", "q"))
            ideals = [Ideal.from_support(A, points) for points in (["p"], ["p", "q"])]
            act = Action(sg, A, tuple(map(PartialAut.identity, ideals)))
        else:
            act = TENSOR_CASES[name]()
        validate_action(act)
        assert_reference_blocks(act)
        assert_same_paths(act, np.random.default_rng(59), 2)

    @pytest.mark.parametrize("name", ["sim2", "swap_e3"])
    def test_a_validated_block_action_takes_the_class_path(self, name, monkeypatch):
        # N, its quotient and two norms with no seed, closure check or section
        # program; the unvalidated copy builds all three, and the action
        # validated at one tol keeps the numeric path at another
        act = matrix_action(MATRIX_ACTIONS[name])
        plain = fixtures.plain(act)
        validate_action(act)
        assert _germs(act) is not None and _germs(act, 1e-8) is None
        calls = spy(monkeypatch, "_order_differences", "_ideal_witness", "_SectionProgram")
        z = np.random.default_rng(53).standard_normal((2, 2, act.total_dim))
        for a, want in ((act, []), (plain, ["_order_differences", "_ideal_witness",
                                            "_SectionProgram"])):
            null = null_ideal(a)
            quotient_algebra(a, null.basis)
            for x in z:
                quotient_ell1_norm(Ell1Element.from_dense(a, x[0] + 1j * x[1]), null.basis)
            assert calls == want
            calls.clear()

    def test_validated_operator_2_norm_blocks_get_the_exact_norm(self):
        # 1 >= e acting trivially on M_2 with the operator 2-norm: one block
        # class, held by both elements, so qnorm(a) = ||1||_2 = 1; the
        # unvalidated instance has no LP model
        unvalidated, validated = (parse_instance(json.dumps(fixtures.TRIVIAL_M2)) for _ in "ab")
        validate_action(unvalidated.action, record=False)  # as the CLI validates
        with pytest.raises(QuotientNormNotLP):
            quotient_ell1_norm(unvalidated.elements["a"], null_ideal(unvalidated.action))
        validate_action(validated.action)
        null = null_ideal(validated.action)
        assert null.germs is not None and null.dim == 4
        assert quotient_ell1_norm(validated.elements["a"], null) == 1.0

    def test_validation_drops_a_numeric_null_ideal_memoized_before(self):
        # null_ideal before validate_action memoized the numeric N; recording
        # the validation drops it at that tol, so the next null_ideal is the
        # class partition, as for a fresh parse validated first.  The numeric
        # N a caller kept is still a correct N, and one at another tol stays
        inst = parse_instance(json.dumps(fixtures.TRIVIAL_M2))
        early, other = null_ideal(inst.action), null_ideal(inst.action, 1e-8)
        assert early.germs is None and other.germs is None
        validate_action(inst.action)
        null = null_ideal(inst.action)
        assert null is not early and null.germs is not None
        assert null_ideal(inst.action, 1e-8) is other
        assert quotient_ell1_norm(inst.elements["a"], null) == 1.0
        assert rows_equal(early.basis, null.basis)
        with pytest.raises(QuotientNormNotLP):
            quotient_ell1_norm(inst.elements["a"], early)

    @pytest.mark.parametrize("name", ["sim2", "matrix swap_e3", "unvalidated matrix swap_e3"])
    def test_an_action_is_freed_without_the_garbage_collector(self, name):
        # the action memoizes its null ideal, which holds the action weakly,
        # as does the section program that the null ideal of an unvalidated
        # action caches: no cycle keeps the action's tensor and ideals alive
        # after its last reference goes, until a collection
        act = TENSOR_CASES[name.removeprefix("unvalidated ")]()
        if name.startswith("matrix"):
            validate_action(act)
        null = null_ideal(act)
        quotient_algebra(act, null)
        quotient_ell1_norm(Ell1Element.from_dense(act, np.ones(act.total_dim)), null)
        alive = weakref.ref(act)
        gc.disable()
        try:
            del act, null
            assert alive() is None
        finally:
            gc.enable()

    def test_a_null_ideal_of_another_action_is_refused(self, sim2):
        f = Ell1Element.zero(sim2.action)
        with pytest.raises(ActionMismatch):
            quotient_ell1_norm(f, null_ideal(fixtures.plain(sim2.action)))


class TestQuotient:
    def test_dimensions(self, flip, semi, sim2):
        for inst, dim in ((flip, 4), (semi, 2), (sim2, 4)):
            null = null_ideal(inst.action)
            assert quotient_algebra(inst.action, null.basis).dim == dim

    def test_whole_space_gives_zero_algebra(self, semi):
        full = np.eye(semi.action.total_dim, dtype=complex)
        quot = quotient_algebra(semi.action, full)
        assert quot.dim == 0

    def test_non_ideal_rejected(self, semi):
        # d1 delta_1 convolved by d1 delta_e lands at e, outside the span
        probe = mono(semi, "id{1,2}", D1).to_dense()[None, :]
        with pytest.raises(NotAnIdeal):
            quotient_algebra(semi.action, probe)
        with pytest.raises(NotAnIdeal):  # the quotient norm checks an array the same way
            quotient_ell1_norm(mono(semi, "id{1,2}", D2), probe)

    def test_quotient_structure_is_associative(self, sim2):
        null = null_ideal(sim2.action)
        quot = quotient_algebra(sim2.action, null.basis)
        s = quot.structure
        lhs = np.einsum("ijm,mkl->ijkl", s, s)
        rhs = np.einsum("jkm,iml->ijkl", s, s)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("name", [*SAMPLES, *(f"matrix {n}" for n in MATRIX_ACTIONS)])
    def test_pivots_are_the_reference_loop(self, name):
        # the numeric path, also for the induced samples
        assert_same_pivots(fixtures.plain(TENSOR_CASES[name]()))

    @settings(max_examples=30, deadline=None)
    @given(fixtures.generator_lists, st.integers(0, 2**32 - 1))
    def test_pivots_on_random_explicit_actions(self, gens, seed):
        # induced actions rebuilt in random complex bases of their ideals
        sg = generate_semigroup(gens)
        if len(sg) > 40:
            return
        try:
            act = induce_action(PartialSetAction.tautological(sg))
        except PA2SpanDeficit:
            return
        assert_same_pivots(rebased(act, np.random.default_rng(seed)))

    def test_projection_kills_exactly_the_ideal(self, semi):
        null = null_ideal(semi.action)
        quot = quotient_algebra(semi.action, null.basis)
        for row in null.basis:
            assert np.allclose(
                quot.project(Ell1Element.from_dense(semi.action, row)), 0
            )
        one = mono(semi, "id{1,2}", D1 + D2)
        assert np.any(np.abs(quot.project(one)) > 0.5)


class TestQuotientNorm:
    def test_semi_coset_of_the_unit_monomial(self, semi):
        null = null_ideal(semi.action)
        f = mono(semi, "id{1,2}", D1)
        got = quotient_ell1_norm(f, null.basis)
        # independent oracle: scan min over lambda of |1-l| + |l| on a grid
        grid = np.linspace(-1, 2, 3001)
        oracle = min(abs(1 - l) + abs(l) for l in grid)
        assert got == pytest.approx(oracle, rel=2e-3)
        assert got == pytest.approx(1.0, rel=2e-3)

    def test_complex_direction_within_facet_error(self, semi):
        null = null_ideal(semi.action)
        f = mono(semi, "id{1,2}", 1j * D1)
        got = quotient_ell1_norm(f, null.basis)
        assert got == pytest.approx(1.0, rel=2e-3)

    @pytest.mark.parametrize("label, vec", [("id{1}", D1), ("id{1,2}", D1 + D2)])
    def test_semi_cosets_are_exact(self, semi, label, vec):
        # c d_id{1} has a segment of optimal z, z = 0 among them; on the side
        # of id{1,2}, z = 0 is the only optimum.  Either way the norm is |c|
        # to the last bit, whichever optimal vertex the simplex reaches, on
        # the germ path and on the numeric path of the same maps.
        t = semi.semigroup.index(label)
        for act in (semi.action, fixtures.plain(semi.action)):
            null = null_ideal(act)
            for c in (1, 2, 0.5, 3, -1, 1j, -2j, 0.25j):
                f = Ell1Element.monomial(act, t, c * vec)
                assert quotient_ell1_norm(f, null.basis) == abs(c)

    def test_zero_coset(self, semi):
        null = null_ideal(semi.action)
        assert quotient_ell1_norm(Ell1Element.zero(semi.action), null.basis) == 0.0

    def test_trivial_ideal_reduces_to_the_norm(self, flip):
        null = null_ideal(flip.action)
        f = mono(flip, "(1>2)", D2) + mono(flip, "id{1}", 2 * D1)
        assert quotient_ell1_norm(f, null.basis) == pytest.approx(ell1_norm(f))

    @PYTHON_FLAGS
    def test_failed_lp_is_a_named_error(self, flags):
        # the pivot cap (status 1), then a simplex stopped at its first basis,
        # whose dual value 0 does not certify the norm (status 4); semi's own
        # null basis takes the covering program
        result = run_python(flags, FAILED_LP.format(basis="ell1.null_ideal(act).basis"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "QuotientNormLPFailed", "1", "QuotientNormLPFailed", "4", "True"]

    @PYTHON_FLAGS
    def test_failed_section_lp_is_a_named_error(self, flags):
        # the same on the section program, which a copy of the basis takes
        result = run_python(flags, FAILED_LP.format(basis="ell1.null_ideal(act).basis.copy()"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "QuotientNormLPFailed", "1", "QuotientNormLPFailed", "4", "True"]

    def test_never_exceeds_the_norm(self, sim2):
        null = null_ideal(sim2.action)
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = Ell1Element.from_dense(
                sim2.action, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            q = quotient_ell1_norm(f, null.basis)
            assert q <= ell1_norm(f) + 1e-7


class TestAlgebraLaws:
    def test_associativity_on_random_triples(self, all_instances):
        rng = np.random.default_rng(13)
        for inst in all_instances:
            D = inst.action.total_dim
            for _ in range(100):
                f, g, h = (
                    Ell1Element.from_dense(
                        inst.action,
                        rng.standard_normal(D) + 1j * rng.standard_normal(D),
                    )
                    for _ in range(3)
                )
                assert convolve(convolve(f, g), h).allclose(
                    convolve(f, convolve(g, h))
                )

    def test_submultiplicativity_on_random_pairs(self, all_instances):
        rng = np.random.default_rng(17)
        for inst in all_instances:
            D = inst.action.total_dim
            for _ in range(100):
                f = Ell1Element.from_dense(
                    inst.action, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                g = Ell1Element.from_dense(
                    inst.action, rng.standard_normal(D) + 1j * rng.standard_normal(D)
                )
                assert (
                    ell1_norm(convolve(f, g)) <= ell1_norm(f) * ell1_norm(g) + 1e-9
                )

    def test_all_instance_ideals_are_unital(self, all_instances):
        # associativity of the convolution leans on unital coefficients;
        # record the hypothesis explicitly for every fixture ideal
        from semicross.algebras import ideal_validate

        for inst in all_instances:
            for t in range(len(inst.semigroup)):
                ideal_validate(inst.action.ideal(t))
