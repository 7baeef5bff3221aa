"""Batched certificates and the dual quotient-norm simplex against the loops
they replaced (``tests/reference.py``): the same certificate level on every
sample instance and on the section-matrix actions, the same first-failure
payload on crafted failures, the same LP optimum, closed-form facet pricing
that reaches the maximum of the reference's 64 facet rows, a count of
``FinAlgebra.norm`` calls that does not grow with the number of samples,
the one block-relabeling isometry witness against the two it replaced, and
the unit law that a validated partial automorphism obeys."""

import dataclasses
import itertools
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fixtures
import reference
from semicross.actions import Action, PartialSetAction, induce_action
from semicross.algebras import (
    FinAlgebra,
    Ideal,
    PartialAut,
    _is_block_relabeling,
    function_algebra,
    ideal_validate,
    matrix_algebra,
    paut_validate,
    validate_algebra,
)
from semicross.ell1 import (
    N_FACETS,
    Ell1Element,
    _dual_program,
    _nearest_facet,
    ell1_norm,
    ell1_norms,
    null_ideal,
    quotient_ell1_norm,
)
from semicross.errors import (
    NotAnIdeal,
    NotBijective,
    NotAnInvolution,
    NotAssociative,
    NotContractive,
    NotIsometric,
    NotMultiplicative,
    NotSubmultiplicative,
    NoUnit,
)
from semicross.io_json import load_instance
from semicross._linalg import orth_rows
from semicross.reps import CovariantRep, certify_contractive, integrate
from semicross.semigroups import PartialBijection, generate_semigroup

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SAMPLES = ["flip", "m2", "m2_swap", "semi", "semi_table", "sim2", "z2"]
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
MATRIX_ACTIONS = {
    "flip": [{1: 2}],
    "sim2": [{1: 2, 2: 1}, {1: 1}],
    "swap_e3": [{1: 2, 2: 1}, {1: 1, 3: 3}],
}
M2 = matrix_algebra([2], 2)


def matrix_action(generators, p=np.inf) -> Action:
    """The semigroup of the generators acting on a sum of M_2 blocks, one per
    point; a moved block is conjugated by W[theta(x)] W[x]^T, with W[x] the
    swap on every other point and the identity elsewhere."""
    carrier = tuple(sorted({x for g in generators for pair in g.items() for x in pair}))
    sg = generate_semigroup([PartialBijection.from_dict(carrier, g) for g in generators])
    A = matrix_algebra([2] * len(carrier), p)
    block = dict(zip(carrier, A.blocks))
    W = {x: SWAP if i % 2 else np.eye(2) for i, x in enumerate(carrier)}
    eye = np.eye(A.dim, dtype=complex)

    def ideal(points):
        if not points:
            return Ideal.zero(A)
        idx = [int(i) for y in sorted(points) for i in block[y].flat]
        unit = eye[[int(i) for y in points for i in np.diag(block[y])]].sum(0)
        return Ideal(A, eye[idx], unit)

    pauts = []
    for m in sg.pbijs:
        rows = []
        for x in sorted(m.domain):
            U = W[m(x)] @ W[x].T
            for e in np.eye(4).reshape(4, 2, 2):
                row = np.zeros(A.dim, dtype=complex)
                row[block[m(x)]] = U @ e @ U.T
                rows.append(row)
        matrix = np.array(rows).reshape(-1, A.dim)
        pauts.append(PartialAut(ideal(m.domain), ideal(m.image), matrix))
    return Action(sg, A, tuple(pauts))


@pytest.fixture(scope="module")
def samples():
    return {name: load_instance(INSTANCES / f"{name}.json") for name in SAMPLES}


@pytest.fixture(scope="module")
def actions(samples):
    out = {name: inst.action for name, inst in samples.items()}
    out.update({f"matrix {name}": matrix_action(g) for name, g in MATRIX_ACTIONS.items()})
    return out


def outcome(check, *args, **kwargs):
    """What a check returns, or the class and payload of what it raises."""
    try:
        return ("ok", check(*args, **kwargs))
    except Exception as err:  # compared by class and payload below
        payload = getattr(err, "witness", getattr(err, "sample", None))
        if isinstance(payload, np.ndarray):
            payload = payload.tolist()
        return (type(err).__name__, str(err), payload)


def same(new, old, *args, **kwargs):
    got, want = outcome(new, *args, **kwargs), outcome(old, *args, **kwargs)
    assert got == want
    return got


def conjugated_rep(rep: CovariantRep, seed: int) -> CovariantRep:
    """pi conjugated by a random unitary: contractive again, not diagonal."""
    z = np.random.default_rng(seed).standard_normal((2, rep.space.dim, rep.space.dim))
    u, _ = np.linalg.qr(z[0] + 1j * z[1])
    pi = np.einsum("ab,ibc,cd->iad", u, rep.pi, u.conj().T)
    return CovariantRep(rep.action, rep.space, pi, rep.v)


class TestSameCertificates:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_paut_levels(self, actions, seed):
        levels = set()
        for act in actions.values():
            for phi in act.pauts:
                got = same(paut_validate, reference.reference_paut_validate, phi,
                           seed=seed, samples=400)
                levels.add(got[1].isometry_level)
        assert levels == {"exact", "sampled"}

    def test_units_map_to_units(self, actions):
        # forced for every partial automorphism that paut_validate accepts
        for act in actions.values():
            for phi in act.pauts:
                paut_validate(phi)
                reference.paut_consequences(phi)

    def test_ideals(self, actions):
        for act in actions.values():
            for phi in act.pauts:
                got = same(ideal_validate, reference.reference_ideal_validate, phi.source)
                assert got[0] == "ok"

    def test_algebras(self, actions):
        for act in actions.values():
            got = same(validate_algebra, reference.reference_validate_algebra, act.algebra,
                       seed=3, samples=300)
            assert got[0] == "ok"

    def test_contractive(self, samples):
        levels = set()
        for inst in samples.values():
            for rep in inst.representations.values():
                for r in (rep, conjugated_rep(rep, 1)):
                    got = same(certify_contractive, reference.reference_certify_contractive,
                               r, seed=2, samples=300)
                    levels.add(got[1])
        assert levels == {"exact", "sampled"}

    def test_integrate(self, samples):
        for inst in samples.values():
            for rep in inst.representations.values():
                ir = integrate(rep, seed=4, samples=150, check=True)
                reference.reference_integrate_contractive(ir, seed=4, samples=150)


def old_witness(phi, tol=1e-9) -> bool:
    """The exact isometry witness of the algebra's kind, as two witnesses
    served function and matrix algebras."""
    if phi.parent.kind == "function":
        return reference._is_delta_permutation(phi, tol)
    return reference._is_block_permutation(phi, tol)


def block_ideal(A: FinAlgebra, *blocks: int) -> Ideal:
    """The sum of the named whole blocks of A, with its unit."""
    eye = np.eye(A.dim, dtype=complex)
    idx = [int(i) for b in blocks for i in A.blocks[b].flat]
    return Ideal(A, eye[idx], eye[[int(i) for b in blocks for i in np.diag(A.blocks[b])]].sum(0))


def entrywise(A: FinAlgebra, source: tuple, send) -> PartialAut:
    """The map of the whole blocks ``source`` that sends entry (i, j) of
    block b to ``send(b, i, j)``, a (coefficient, block, row, column)."""
    rows = []
    for b in source:
        n = len(A.blocks[b])
        for i, j in itertools.product(range(n), repeat=2):
            coeff, tb, ti, tj = send(b, i, j)
            row = np.zeros(A.dim, dtype=complex)
            row[A.blocks[tb][ti, tj]] = coeff
            rows.append(row)
    targets = sorted({send(b, 0, 0)[1] for b in source})
    return PartialAut(block_ideal(A, *source), block_ideal(A, *targets), np.array(rows))


BLOCKS = matrix_algebra([2, 2, 2, 3], 2)
POINTS = function_algebra(("x", "y", "z"))
# (map, the new witness, the old pair): every map but the first is no relabeling
CRAFTED = {
    "blocks swapped": (entrywise(BLOCKS, (0, 1), lambda b, i, j: (1, 1 - b, i, j)), True, True),
    "points permuted": (entrywise(POINTS, (0, 1), lambda b, i, j: (1, 2 - b, 0, 0)), True, True),
    "transposed block": (entrywise(BLOCKS, (0,), lambda b, i, j: (1, 1, j, i)), False, False),
    "block split over two": (
        entrywise(BLOCKS, (0,), lambda b, i, j: (1, 1 + i, i, j)), False, False
    ),
    "coefficient -1": (
        entrywise(BLOCKS, (0,), lambda b, i, j: (-1 if (i, j) == (0, 1) else 1, 1, i, j)),
        False, False,
    ),
    "coefficient 1j": (entrywise(BLOCKS, (0,), lambda b, i, j: (1j, 1, i, j)), False, False),
    "point to -1": (entrywise(POINTS, (0,), lambda b, i, j: (-1, 1, 0, 0)), False, False),
    "point to 1j": (entrywise(POINTS, (0,), lambda b, i, j: (1j, 1, 0, 0)), False, False),
    # the old pair took a 2x2 block into the corner of a 3x3 one; paut_validate
    # rejects such a map as NotBijective before it certifies isometry
    "target of another size": (
        entrywise(BLOCKS, (0,), lambda b, i, j: (1, 3, i, j)), False, True
    ),
    "source not whole blocks": (
        PartialAut(Ideal(BLOCKS, np.eye(BLOCKS.dim)[[0]], np.eye(BLOCKS.dim)[0]),
                   Ideal(BLOCKS, np.eye(BLOCKS.dim)[[4]], np.eye(BLOCKS.dim)[4]),
                   np.eye(BLOCKS.dim)[[4]]),
        False, False,
    ),
}


class TestBlockRelabeling:
    """``_is_block_relabeling`` against the two witnesses it replaced."""

    def test_agrees_with_the_old_pair_on_every_action(self, actions):
        sim4 = [{1: 2, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 3, 3: 4, 4: 1}, {2: 2, 3: 3, 4: 4}]
        sg = generate_semigroup([PartialBijection.from_dict((1, 2, 3, 4), g) for g in sim4])
        acts = {**actions, "sim3": fixtures.sim3().action,
                "sim4": induce_action(PartialSetAction.tautological(sg))}
        seen = set()
        for name, act in acts.items():
            for t, phi in enumerate(act.pauts):
                got = _is_block_relabeling(phi, 1e-9)
                assert got == old_witness(phi), (name, t)
                seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("case", list(CRAFTED))
    def test_crafted_maps(self, case):
        phi, new, old = CRAFTED[case]
        assert _is_block_relabeling(phi, 1e-9) is new
        assert old_witness(phi) is old
        if new != old:
            with pytest.raises(NotBijective):
                paut_validate(phi)

    def test_source_off_the_points(self):
        # span{d_x + d_y} is no sum of points; the old witness raised on it
        eye = np.eye(3, dtype=complex)
        line = Ideal(POINTS, eye[[0]] + eye[[1]], eye[0] + eye[1])
        phi = PartialAut(line, line, line.basis)
        assert _is_block_relabeling(phi, 1e-9) is False
        with pytest.raises(np.linalg.LinAlgError):
            reference._is_delta_permutation(phi, 1e-9)


class TestStackedNorms:
    def test_rows_of_a_stack_are_the_single_norms(self, actions):
        rng = np.random.default_rng(8)
        for act in actions.values():
            A = act.algebra
            z = rng.standard_normal((2, 6, 5, A.dim))
            x = z[0] + 1j * z[1]
            stacked = A.norm(x)
            assert stacked.shape == (6, 5)
            assert all(stacked[i, j] == A.norm(x[i, j]) for i in range(6) for j in range(5))

    def test_ell1_norm_adds_the_ideal_norms_in_element_order(self, actions):
        rng = np.random.default_rng(9)
        for act in actions.values():
            z = rng.standard_normal((8, 2, act.total_dim))
            dense = (z[:, 0] + 1j * z[:, 1]) * (rng.random((8, act.total_dim)) < 0.5)
            for row, batched in zip(dense, ell1_norms(act, dense)):
                f = Ell1Element.from_dense(act, row)
                want = sum(act.algebra.norm(f.value(t)) for t in f.support)
                assert ell1_norm(f) == want == batched


class TestSameFirstFailure:
    @pytest.mark.parametrize("seed", range(4))
    def test_not_isometric_point(self, seed):
        # conjugation by diag(1, 1.1): multiplicative, isometric on some points only
        S = np.diag([1.0, 1.1])
        full = Ideal(M2, np.eye(4), np.array([1, 0, 0, 1], dtype=complex))
        rows = [(S @ e @ np.linalg.inv(S)).ravel() for e in np.eye(4).reshape(4, 2, 2)]
        phi = PartialAut(full, full, np.array(rows, dtype=complex))
        got = same(paut_validate, reference.reference_paut_validate, phi, tol=0.03, seed=seed)
        assert got[0] == NotIsometric.__name__

    def test_not_multiplicative_pair(self):
        # the transpose of M_2 is a 2-norm isometry and an anti-automorphism
        full = Ideal(M2, np.eye(4), np.array([1, 0, 0, 1], dtype=complex))
        rows = [e.T.ravel() for e in np.eye(4).reshape(4, 2, 2)]
        phi = PartialAut(full, full, np.array(rows, dtype=complex))
        got = same(paut_validate, reference.reference_paut_validate, phi, samples=50)
        assert got[0] == NotMultiplicative.__name__ and got[2] == (0, 1)

    @pytest.mark.parametrize(
        "rows, witness",
        [
            ([0], [0, "b0:0,1", "right"]),
            ([0, 1], [0, "b0:1,0", "left"]),
            ([0, 2], [0, "b0:0,1", "right"]),
        ],
        ids=["corner", "first row", "first column"],
    )
    def test_not_an_ideal(self, rows, witness):
        ideal = Ideal(M2, np.eye(4)[rows], np.eye(4)[0])
        got = same(ideal_validate, reference.reference_ideal_validate, ideal)
        assert got[0] == NotAnIdeal.__name__ and got[2] == tuple(witness)

    @pytest.mark.parametrize("corner, witness", [(0, ["right", 1]), (3, ["left", 0])])
    def test_no_unit(self, corner, witness):
        ideal = Ideal(M2, np.eye(4), np.eye(4)[corner])
        got = same(ideal_validate, reference.reference_ideal_validate, ideal)
        assert got[0] == NoUnit.__name__ and got[2] == tuple(witness)

    @pytest.mark.parametrize("name", ["m2", "flip"])
    def test_not_contractive(self, samples, name):
        rep = samples[name].representations[next(iter(samples[name].representations))]
        rep = conjugated_rep(rep, 5)
        broken = CovariantRep(rep.action, rep.space, 1.01 * rep.pi, rep.v)
        got = same(certify_contractive, reference.reference_certify_contractive, broken,
                   samples=100)
        assert got[0] == NotContractive.__name__

    def test_algebra_laws(self):
        C3 = function_algebra("abc")
        s = C3.structure.copy()
        s[0, 1, 2] = 0.5
        star = C3.star_mat.astype(complex).copy()
        star[0, 0] = 1j
        cases = {
            NotAssociative: dataclasses.replace(C3, structure=s),
            NotSubmultiplicative: dataclasses.replace(M2, structure=1.5 * M2.structure),
            NotAnInvolution: dataclasses.replace(C3, star_mat=star),
        }
        for cls, algebra in cases.items():
            got = same(validate_algebra, reference.reference_validate_algebra, algebra,
                       seed=2, samples=50)
            assert got[0] == cls.__name__


class TestEdgeCases:
    def test_empty_block(self):
        algebra = matrix_algebra([0, 2], 2)
        same(validate_algebra, reference.reference_validate_algebra, algebra, samples=50)
        full = Ideal(algebra, np.eye(4), algebra.one())
        assert same(paut_validate, reference.reference_paut_validate,
                    PartialAut.identity(full), samples=50)[0] == "ok"
        x = np.random.default_rng(0).standard_normal((3, 5, 4))
        assert algebra.norm(x).shape == (3, 5)
        assert algebra.norm(x[1, 2]) == algebra.norm(x)[1, 2]

    def test_zero_dimensional_source(self):
        zero = Ideal.zero(M2)
        got = same(paut_validate, reference.reference_paut_validate, PartialAut(zero, zero, []))
        assert got[1].isometry_level == "exact"

    def test_no_samples(self, actions, samples):
        act = actions["m2_swap"]
        for phi in act.pauts:
            same(paut_validate, reference.reference_paut_validate, phi, samples=0)
        same(validate_algebra, reference.reference_validate_algebra, act.algebra, samples=0)
        rep = conjugated_rep(samples["flip"].representations["reg"], 3)
        same(certify_contractive, reference.reference_certify_contractive, rep, samples=0)
        integrate(samples["sim2"].representations["reg"], samples=0)


class TestQuotientLP:
    def cases(self, samples):
        rng = np.random.default_rng(11)
        acts = [samples[n].action for n in ("semi", "semi_table", "sim2")]
        acts += [matrix_action(g) for g in MATRIX_ACTIONS.values()]
        acts.append(matrix_action(MATRIX_ACTIONS["sim2"], p=1))
        for act in acts:
            N = orth_rows(null_ideal(act).basis)
            if N.shape[0] == 0:
                continue
            z = rng.standard_normal((2, act.total_dim))
            yield Ell1Element.from_dense(act, z[0] + 1j * z[1]), N

    def test_same_optimum_as_the_reference_program(self, samples):
        n_cases = 0
        for f, N in self.cases(samples):
            want = reference.reference_quotient_norm(f, N)
            assert quotient_ell1_norm(f, N) == pytest.approx(want, rel=1e-9, abs=1e-12)
            n_cases += 1
        assert n_cases == 6  # sim2 and swap_e3 on M_2 blocks carry order differences

    @pytest.mark.parametrize("name", SAMPLES)
    def test_named_elements_of_the_samples(self, samples, name):
        inst = samples[name]
        N = null_ideal(inst.action).basis
        for f in inst.elements.values():
            got = quotient_ell1_norm(f, N)
            if N.shape[0] == 0:  # no LP: the norm itself
                assert got == ell1_norm(f)
            else:
                want = reference.reference_quotient_norm(f, orth_rows(N))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_semi_qnorm(self, samples):
        # inf over lambda of |1 - lambda| + |lambda| is 1, attained on [0, 1];
        # z = 0 is among the optimal points, so the certified value is exact
        inst = samples["semi"]
        assert quotient_ell1_norm(inst.elements["a"], null_ideal(inst.action).basis) == 1.0

    def test_closed_form_pricing_matches_the_reference_facets(self, samples):
        """At a random z, the facet nearest arg w of each coordinate (the
        closed-form pricing) reaches the maximum of the reference's 64 facet
        rows there, and the reduced costs of the 64 facet columns that
        ``columns`` builds reach the same maximum less the bound's
        multiplier.  A reference coordinate without columns (off the support
        of its ideal) reads 0 at every z."""
        rng = np.random.default_rng(5)
        n_cases = n_dead = 0
        for f, N in self.cases(samples):
            act, k = f.action, N.shape[0]
            lp = _dual_program(act, N)  # z in the coordinates of the orthonormal rows N
            _, ref_ub, ref_b, _ = reference.reference_quotient_lp(f, lp.null)
            facet = ~(ref_ub[:, 2 * k :] > 0).any(1)
            v = rng.standard_normal(2 * k)  # (Re z, Im z)
            groups = (ref_ub[facet, : 2 * k] @ v - ref_b[facet]).reshape(-1, N_FACETS)
            # per element, the coordinates of each block in the order of its entries
            order = [(e, int(c)) for e in range(len(act.offsets))
                     for idx in act.algebra.blocks for c in idx.flat]
            want = dict(zip(order, groups.max(1)))
            fv = lp.values(f.to_dense()[None])[:, 0]
            nz = lp.g.reshape(-1, 2 * k) @ v  # (Re, Im) of N_j . z
            rho = _nearest_facet(fv + nz[: len(fv)] + 1j * nz[len(fv) :])[1]
            got = dict(zip(zip(lp.el.tolist(), lp.coord.tolist()), rho))
            for key, value in got.items():
                assert value == pytest.approx(want[key], rel=1e-12, abs=1e-12)
            dead = set(want) - set(got)
            assert all(not groups[order.index(key)].any() for key in dead)
            n_dead += len(dead)
            # the simplex multipliers of this z are -v on the z rows
            pi = np.concatenate([-v, rng.standard_normal(lp.n_rows - 2 * k)])
            ids = np.arange(lp.n_facets)
            reduced = (lp.costs(ids, fv) - pi @ lp.columns(ids)).reshape(-1, N_FACETS)
            assert np.allclose(reduced.max(1), rho - pi[lp.bound], rtol=1e-12, atol=1e-12)
            n_cases += 1
        assert n_cases == 6 and n_dead > 0


class TestNoPerSampleLoops:
    """The sampled certificates call FinAlgebra.norm a fixed number of
    times, however many points they draw."""

    def norm_calls(self, monkeypatch, check, sample_counts):
        counts = []
        for n in sample_counts:
            calls = []
            inner = FinAlgebra.norm
            monkeypatch.setattr(
                FinAlgebra, "norm", lambda self, x: calls.append(1) or inner(self, x)
            )
            check(n)
            monkeypatch.undo()
            counts.append(len(calls))
        assert len(set(counts)) == 1, counts
        return counts[0]

    def test_paut_validate(self, monkeypatch, samples):
        act = samples["m2_swap"].action
        (phi,) = [p for p in act.pauts if paut_validate(p).isometry_level == "sampled"]
        calls = self.norm_calls(monkeypatch, lambda n: paut_validate(phi, samples=n), [10, 2000])
        assert calls <= 2

    def test_certify_contractive(self, monkeypatch, samples):
        rep = samples["m2"].representations["id"]
        calls = self.norm_calls(
            monkeypatch, lambda n: certify_contractive(rep, samples=n), [10, 2000]
        )
        assert calls <= 2

    def test_validate_algebra(self, monkeypatch):
        calls = self.norm_calls(
            monkeypatch, lambda n: validate_algebra(M2, samples=n), [10, 1000]
        )
        assert calls <= 3

    def test_integrate(self, monkeypatch, samples):
        rep = samples["sim2"].representations["reg"]
        calls = self.norm_calls(monkeypatch, lambda n: integrate(rep, samples=n), [10, 200])
        assert calls <= 1


ALGEBRA_LAWS_UNDER_O = textwrap.dedent(
    """
    import dataclasses
    from semicross.algebras import function_algebra, matrix_algebra, validate_algebra
    from semicross.errors import CheckError

    C3, M2 = function_algebra("abc"), matrix_algebra([2], 2)
    s = C3.structure.copy()
    s[0, 1, 2] = 0.5
    star = C3.star_mat.astype(complex)
    star[0, 0] = 1j
    for algebra in (
        dataclasses.replace(C3, structure=s),
        dataclasses.replace(M2, structure=1.5 * M2.structure),
        dataclasses.replace(C3, star_mat=star),
    ):
        try:
            validate_algebra(algebra, samples=20)
            print("passed")
        except CheckError as err:
            print(err.code)
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_algebra_laws_are_named_errors_under_python_flags(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, *flags, "-c", ALGEBRA_LAWS_UNDER_O],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["NotAssociative", "NotSubmultiplicative", "NotAnInvolution"]
