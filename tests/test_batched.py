"""Batched certificates and the dual quotient-norm simplex against the loops
they replaced (``tests/reference.py``): the same certificate level on every
sample instance and on the section-matrix actions, the same first-failure
payload on crafted failures, the same LP optimum, closed-form facet pricing
that reaches the maximum of the reference's 64 facet rows, a count of
``FinAlgebra.norm`` calls that does not grow with the number of samples,
the one block-relabeling isometry witness against the two it replaced, the
unit law that a validated partial automorphism obeys, the sparse product
against the dense einsum, the isometry sample in coordinates against the
normalized loop, and the ideal checks and orthonormal rows made once per
ideal and tol."""

import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import fixtures
import reference
from semicross import algebras
from semicross.actions import (
    Action,
    PartialSetAction,
    check_derived_identities,
    induce_action,
    validate_action,
)
from semicross.algebras import (
    FinAlgebra,
    Ideal,
    PartialAut,
    _certify_isometry,
    _draws,
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
    "coefficient 1 + 2e-6": (
        entrywise(BLOCKS, (0,), lambda b, i, j: (1 + 2e-6 if (i, j) == (1, 0) else 1, 1, i, j)),
        False, False,
    ),
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


C3 = function_algebra("abc")
PERTURBED_C3 = dataclasses.replace(C3, structure=C3.structure.copy())
PERTURBED_C3.structure[0, 1, 2] = 0.5  # as in TestSameFirstFailure.test_algebra_laws
MUL_ALGEBRAS = {
    "C(X)": function_algebra("wxyz"),
    **{f"M0 + M2 + M3, p = {p}": matrix_algebra([0, 2, 3], p) for p in (1, 2, np.inf)},
    "perturbed C3": PERTURBED_C3,
    "1.5 M2": dataclasses.replace(M2, structure=1.5 * M2.structure),
}


class TestSparseMul:
    """``FinAlgebra.mul`` over the nonzero entries of ``structure`` against
    the dense einsum it replaced."""

    @pytest.mark.parametrize("name", list(MUL_ALGEBRAS))
    def test_equals_the_dense_einsum(self, name):
        A = MUL_ALGEBRAS[name]
        z = np.random.default_rng(12).standard_normal((4, 5, A.dim))
        x, y = (z[0] + 1j * z[1])[:, None], z[2] + 1j * z[3]  # (r, 1, d) by (r, d)
        got = A.mul(x, y)
        assert got.shape == (5, 5, A.dim)
        assert np.abs(got - reference.reference_mul(A, x, y)).max() <= 1e-12
        one = A.mul(y[0], y[1])
        assert np.abs(one - reference.reference_mul(A, y[0], y[1])).max() <= 1e-12

    def test_reads_the_perturbed_entry(self):
        a, b, c = np.eye(3, dtype=complex)
        assert np.array_equal(PERTURBED_C3.mul(a, b), 0.5 * c)
        assert np.array_equal(C3.mul(a, b), np.zeros(3))


def skipped_draws(seed: int, tol: float) -> tuple:
    """A one-point map that doubles norms, its source row scaled so that the
    draws before the first one of larger modulus than draw 0 have
    |c B| < tol and that one, k > 0, has not; and k."""
    c = np.abs(_draws(seed, 2000, 1)[:, 0])
    k = int(np.argmax(c > c[0]))
    beta = 2 * tol / (c[0] + c[k])
    eye = np.eye(POINTS.dim, dtype=complex)
    source, target = Ideal(POINTS, beta * eye[[0]], eye[0]), Ideal(POINTS, eye[[1]], eye[1])
    return PartialAut(source, target, 2 * beta * eye[[1]]), k


# large enough that 1 + 10 tol is no coefficient 1 to the relabeling
# witness, which compares by np.isclose at rtol 1e-5
TOL = 1e-4
NOT_ISOMETRIC = {
    # isometric where block 0 carries the norm, stretched where block 1 does
    "block 1 scaled by 1 + 10 tol": entrywise(
        BLOCKS, (0, 1), lambda b, i, j: (1 + 10 * TOL if b else 1, b, i, j)),
    # moves only the draws whose norm point z carries
    "point z halved": entrywise(
        POINTS, (0, 1, 2), lambda b, i, j: (0.5 if b == 2 else 1, b, 0, 0)),
}


class TestIsometryInCoordinates:
    """The sample |c M| against (1 +- tol) |c B| names the same level and
    the same first moved point as the loop that normalizes x = c B and
    maps it through ``apply``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", list(NOT_ISOMETRIC))
    def test_same_first_moved_point(self, case, seed):
        got = same(_certify_isometry, reference.reference_certify_isometry,
                   NOT_ISOMETRIC[case], TOL, seed, 2000)
        assert got[0] == NotIsometric.__name__

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_near_zero_are_skipped_by_both(self, seed):
        tol = 1e-3
        phi, k = skipped_draws(seed, tol)
        got = same(_certify_isometry, reference.reference_certify_isometry, phi, tol, seed, 2000)
        c = _draws(seed, 2000, 1)[k, 0]
        assert k > 0 and got[0] == NotIsometric.__name__
        assert got[2] == np.round(c / abs(c) * np.eye(POINTS.dim)[0], 6).tolist()

    def test_isometric_maps_are_sampled_alike(self, actions):
        rows = [(np.array([[0.6, -0.8], [0.8, 0.6]]) @ e @ np.array([[0.6, 0.8], [-0.8, 0.6]]))
                .ravel() for e in np.eye(4).reshape(4, 2, 2)]
        full = Ideal(M2, np.eye(4), M2.one())
        for seed in range(4):
            got = same(_certify_isometry, reference.reference_certify_isometry,
                       PartialAut(full, full, np.array(rows)), TOL, seed, 2000)
            assert got[1].isometry_level == "sampled"


class TestOncePerIdeal:
    """After ``paut_validate`` of every alpha_t, ``validate_action`` checks
    no ideal again, and every subspace query reads one set of orthonormal
    rows per ideal and tol."""

    def test_each_ideal_is_checked_once_per_tol(self, monkeypatch):
        act = matrix_action(MATRIX_ACTIONS["sim2"])
        checked, svds = [], []
        inner, orth = algebras._check_ideal, algebras.orth_rows
        monkeypatch.setattr(algebras, "_check_ideal", lambda ideal, tol: (
            checked.append((id(ideal), tol)) or inner(ideal, tol)))
        monkeypatch.setattr(algebras, "orth_rows", lambda m, tol: svds.append(1) or orth(m, tol))
        for phi in act.pauts:
            paut_validate(phi)
        validate_action(act)
        check_derived_identities(act)
        ideals = {id(i): i for phi in act.pauts for i in (phi.source, phi.target)}
        assert sorted(checked) == sorted((key, 1e-9) for key in ideals)
        # one SVD per ideal: the checks, PA1, the sources and the derived laws share it
        assert len(svds) == len(ideals) == sum(len(vars(i)["_orths"]) for i in ideals.values())
        # another tol checks again, once
        checked.clear()
        validate_action(act, tol=1e-8)
        validate_action(act, tol=1e-8)
        assert sorted(checked) == sorted({(id(act.ideal(t)), 1e-8) for t in range(len(act.pauts))})
        # so does a fresh ideal over equal arrays
        checked.clear()
        old = act.ideal(1)
        fresh = Ideal(old.parent, old.basis.copy(), old.unit.copy())
        ideal_validate(fresh)
        ideal_validate(old)
        assert checked == [(id(fresh), 1e-9)]
        for ideal in ideals.values():
            for tol in vars(ideal)["_orths"]:
                assert np.array_equal(ideal.orth(tol), orth_rows(ideal.basis, tol))

    @pytest.mark.parametrize("name, distinct", [("flip", 3), ("sim2", 4), ("swap_e3", 5)])
    def test_equal_ideals_are_one_object(self, monkeypatch, name, distinct):
        # the maps as a caller builds them, with two fresh ideals each
        act = matrix_action(MATRIX_ACTIONS[name])
        given = tuple(
            PartialAut(*(Ideal(i.parent, i.basis.copy(), i.unit.copy())
                         for i in (phi.source, phi.target)), phi.matrix.copy())
            for phi in act.pauts
        )
        before = [(phi.source, phi.target, phi.matrix,
                   [a.copy() for i in (phi.source, phi.target) for a in (i.basis, i.unit)])
                  for phi in given]
        checked = []
        inner = algebras._check_ideal
        monkeypatch.setattr(algebras, "_check_ideal", lambda ideal, tol: (
            checked.append(id(ideal)) or inner(ideal, tol)))
        shared = Action(act.semigroup, act.algebra, given)
        for phi in shared.pauts:
            paut_validate(phi)
        assert validate_action(shared).passed and check_derived_identities(shared).passed
        assert len(checked) == len(set(checked)) == distinct
        ends = {id(i) for phi in shared.pauts for i in (phi.source, phi.target)}
        assert ends == set(checked)
        # the caller's maps keep their own ideals, arrays unchanged
        for phi, (source, target, matrix, arrays) in zip(given, before):
            assert (phi.source, phi.target, phi.matrix) == (source, target, matrix)
            now = [a for i in (phi.source, phi.target) for a in (i.basis, i.unit)]
            assert all(np.array_equal(a, b) for a, b in zip(now, arrays))
        for phi, mine in zip(shared.pauts, given):
            assert np.array_equal(phi.matrix, mine.matrix)
            assert np.array_equal(phi.source.basis, mine.source.basis)
            assert np.array_equal(phi.target.unit, mine.target.unit)

    def test_ideals_equal_to_within_tol_stay_apart(self):
        act = matrix_action(MATRIX_ACTIONS["flip"])
        phi = act.paut(0)
        near = Ideal(phi.source.parent, phi.source.basis + 1e-15, phi.source.unit)
        other = Action(act.semigroup, act.algebra,
                       (PartialAut(near, phi.target, phi.matrix),) + act.pauts[1:])
        assert other.paut(0).source is near
        assert near.leq(phi.source) and near is not phi.source

    def test_draws_are_shared_read_only(self):
        c = _draws(5, 2000, 4)
        assert not c.flags.writeable and c.shape == (2000, 4)
        with pytest.raises(ValueError):
            c[0, 0] = 0.0
        assert _draws(5, 2000, 4) is c
        assert _draws.cache_info().maxsize == 8


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


DEPENDENT_SOURCE_UNDER_O = textwrap.dedent(
    """
    import numpy as np
    from semicross.algebras import Ideal, PartialAut, function_algebra, paut_validate
    from semicross.errors import CheckError

    # B = [e_x, e_x] -> M = [e_x, e_y] on C({x, y}) defines no map; a
    # consistent M on the same rows is rank deficient
    C = function_algebra("xy")
    e = np.eye(2, dtype=complex)
    source, target = Ideal(C, e[[0, 0]], e[0]), Ideal(C, e, e[0] + e[1])
    for rows in ([0, 1], [1, 1]):
        try:
            paut_validate(PartialAut(source, target, e[rows]))
            print("passed")
        except CheckError as err:
            print(err.code + ":", err)
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_dependent_source_basis_is_not_bijective_under_python_flags(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, *flags, "-c", DEPENDENT_SOURCE_UNDER_O],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "NotBijective: source basis is rank deficient",
        "NotBijective: map matrix is rank deficient",
    ]


NEAR_ONE_UNDER_O = textwrap.dedent(
    """
    import numpy as np
    import reference
    from test_batched import outcome
    from semicross.algebras import Ideal, PartialAut, matrix_algebra, paut_validate

    # conjugation by diag(1, 1 + 2e-6) on M_2 with the 2-norm: multiplicative,
    # every coefficient within 2e-6 of 1, and not isometric
    A = matrix_algebra([2], 2)
    D = np.diag([1.0, 1.0 + 2e-6])
    rows = [(D @ e @ np.linalg.inv(D)).ravel() for e in np.eye(4).reshape(4, 2, 2)]
    whole = Ideal(A, np.eye(4), A.one())
    phi = PartialAut(whole, whole, np.array(rows))
    got = outcome(paut_validate, phi)
    print(got[0], got == outcome(reference.reference_paut_validate, phi))
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_coefficients_near_one_are_no_exact_isometry_under_python_flags(flags):
    # np.isclose's relative tolerance of 1e-5 once certified this map "exact"
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, *flags, "-c", NEAR_ONE_UNDER_O],
        capture_output=True,
        text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["NotIsometric", "True"]


SIM4_CERTIFICATES = textwrap.dedent(
    """
    import time
    start = time.perf_counter()
    from test_batched import matrix_action
    from semicross import check_derived_identities, paut_validate, validate_action

    sim4 = [{1: 2, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 3, 3: 4, 4: 1}, {2: 2, 3: 3, 4: 4}]
    act = matrix_action(sim4)
    times = [time.perf_counter()]
    levels = [paut_validate(phi).isometry_level for phi in act.pauts]
    times.append(time.perf_counter())
    passed = validate_action(act).passed
    times.append(time.perf_counter())
    passed = passed and check_derived_identities(act).passed
    times.append(time.perf_counter())
    try:  # on Linux, ru_maxrss also counts the parent's peak from before exec
        with open("/proc/self/status") as fh:
            peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps = " ".join(f"{b - a:.2f}" for a, b in zip(times, times[1:]))
    print(len(act.pauts), levels.count("sampled"), passed, peak // 1024, steps)
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_sim4_on_m2_blocks_is_certified_in_bounded_time_and_memory(flags):
    # |S| = 209 on four M_2 blocks: every paut_validate (160 sampled maps),
    # then validate_action and check_derived_identities.  Three runs of each
    # flag on a 2-core host with one BLAS thread took 0.23-0.27 +
    # 0.07-0.10 + 1.4-1.9 s at 77 MiB peak (pytest imported with
    # test_batched).  With PA1 checked for every s and one ideal object per
    # map end, two runs took 0.58-0.69 + 2.8-3.0 + 1.5-2.0 s at 83 MiB; the
    # certificates took 1.66 s when each re-solved its sample
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, *flags, "-c", SIM4_CERTIFICATES],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])},
        timeout=300,
    )
    wall = time.perf_counter() - start
    assert run.returncode == 0, run.stderr
    size, sampled, passed, peak_mib, *steps = run.stdout.split()
    assert (int(size), int(sampled), passed) == (209, 160, "True")
    assert int(peak_mib) < 200, f"peak RSS {peak_mib} MiB"
    assert wall < 25.0, f"{wall:.1f} s (paut_validate, validate_action, derived: {steps})"
    # PA1 in |G| = 3 rounds, not |S| = 209
    assert float(steps[1]) < 0.5, f"validate_action took {steps[1]} s"
