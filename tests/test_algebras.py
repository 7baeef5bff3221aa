"""Structure-constant algebras, their norms, ideals and partial automorphisms."""

import dataclasses

import numpy as np
import pytest

import fixtures
from reference import compose_paut, intersect_rows, pauts_equal, reference_from_support
from semicross._linalg import off_rows, operator_norm

from semicross.algebras import (
    Ideal,
    PartialAut,
    function_algebra,
    ideal_validate,
    matrix_algebra,
    paut_validate,
    validate_algebra,
)
from semicross.errors import (
    DimensionMismatch,
    NoUnit,
    NotAnIdeal,
    NotBijective,
    NotIsometric,
    NotMultiplicative,
)

C2 = function_algebra(("1", "2"))
M2 = matrix_algebra([2], 2)


def e(algebra, i):
    v = np.zeros(algebra.dim, dtype=complex)
    v[i] = 1.0
    return v


def m2_unit(i, j):
    v = np.zeros(4, dtype=complex)
    v[2 * i + j] = 1.0
    return v


class TestMul:
    def test_orthogonal_idempotents(self):
        assert np.allclose(C2.mul(e(C2, 0), e(C2, 1)), 0)

    def test_pointwise_product(self):
        x = 2 * e(C2, 0) + e(C2, 1)
        assert np.allclose(C2.mul(x, e(C2, 0)), 2 * e(C2, 0))

    def test_matrix_units(self):
        # E12 E21 = E11
        assert np.allclose(M2.mul(m2_unit(0, 1), m2_unit(1, 0)), m2_unit(0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            C2.mul(np.zeros(3), e(C2, 0))

    def test_validate_factories(self):
        validate_algebra(C2, samples=200)
        validate_algebra(M2, samples=200)
        validate_algebra(matrix_algebra([2, 1], 1), samples=200)
        validate_algebra(matrix_algebra([3], np.inf), samples=200)


class TestNorm:
    def test_sup_norm(self):
        assert C2.norm(3 * e(C2, 0) - 4 * e(C2, 1)) == pytest.approx(4.0)

    def test_matrix_partial_isometry(self):
        assert M2.norm(m2_unit(1, 0)) == pytest.approx(1.0)

    def test_max_column_sum(self):
        a1 = matrix_algebra([2], 1)
        x = m2_unit(0, 0) + m2_unit(1, 0)  # [[1,0],[1,0]]
        assert a1.norm(x) == pytest.approx(2.0)

    def test_max_row_sum(self):
        ainf = matrix_algebra([2], np.inf)
        x = m2_unit(0, 0) + m2_unit(0, 1)
        assert ainf.norm(x) == pytest.approx(2.0)

    def test_spectral_norm(self):
        x = m2_unit(0, 0) + m2_unit(0, 1) + m2_unit(1, 0) + m2_unit(1, 1)
        assert M2.norm(x) == pytest.approx(2.0, abs=1e-10)

    def test_direct_sum_takes_max(self):
        a = matrix_algebra([2, 1], 2)
        x = np.zeros(5, dtype=complex)
        x[0] = 1.0  # block 0 entry (0,0)
        x[4] = 3.0  # the 1x1 block
        assert a.norm(x) == pytest.approx(3.0)


    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize(
        "algebra",
        [
            function_algebra(range(8)),
            matrix_algebra([2, 1, 3, 2], 2),
            matrix_algebra([1, 1], 2),
            matrix_algebra([0, 2], 2),
        ],
        ids=["C(8 points)", "M2+M1+M3+M2", "M1+M1", "M0+M2"],
    )
    def test_batched_norm_matches_per_block_loop(self, algebra, p):
        # one numpy call per block shape against one operator_norm call per block
        algebra = dataclasses.replace(algebra, p=p)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            want = max(operator_norm(x[idx], p) for idx in algebra.blocks)
            assert abs(algebra.norm(x) - want) <= 1e-12


class TestIdeal:
    def test_delta_span_is_ideal(self):
        ideal = Ideal(C2, [e(C2, 0)], e(C2, 0))
        ideal_validate(ideal)

    def test_diagonal_span_is_not_ideal(self):
        bad = Ideal(C2, [e(C2, 0) + e(C2, 1)], e(C2, 0) + e(C2, 1))
        with pytest.raises(NotAnIdeal):
            ideal_validate(bad)

    def test_matrix_corner_is_not_ideal(self):
        bad = Ideal(M2, [m2_unit(0, 0)], m2_unit(0, 0))
        with pytest.raises(NotAnIdeal):
            ideal_validate(bad)

    def test_wrong_unit(self):
        bad = Ideal(C2, [e(C2, 0)], e(C2, 1))
        with pytest.raises(NoUnit):
            ideal_validate(bad)

    def test_full_matrix_ideal(self):
        ideal = Ideal(M2, np.eye(4), m2_unit(0, 0) + m2_unit(1, 1))
        ideal_validate(ideal)

    def test_support_extraction(self):
        ideal = Ideal.from_support(C2, ["2"])
        ideal_validate(ideal)
        assert ideal.support == ("2",)

    @pytest.mark.parametrize("name", ["flip", "semi", "sim2", "z2", "sim3"])
    def test_from_support_is_the_reference_build(self, name):
        # the position map against one points.index lookup per point, on the
        # domain and image of every theta_t, and on a list out of order
        theta = getattr(fixtures, name)().theta
        A = function_algebra(theta.maps[0].carrier)
        supports = [s for m in theta.maps for s in (m.domain, m.image)]
        for points in [*supports, list(A.points[::-1])]:
            got, want = Ideal.from_support(A, points), reference_from_support(A, points)
            for a, b in ((got.basis, want.basis), (got.unit, want.unit)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_from_support_of_an_unknown_point(self):
        with pytest.raises(ValueError):
            Ideal.from_support(C2, ["1", "3"])

    def test_function_ideals_are_support_spans(self):
        # every validated ideal of C(X) is spanned by the deltas it touches
        big = function_algebra(("a", "b", "c"))
        ideal = Ideal(
            big,
            [np.array([1, 0, 1], complex), np.array([0, 0, 1], complex)],
            np.array([1, 0, 1], complex),
        )
        ideal_validate(ideal)
        rebuilt = Ideal.from_support(big, ideal.support)
        from semicross._linalg import rows_equal

        assert rows_equal(ideal.basis, rebuilt.basis)

    def test_product_equals_intersection(self):
        from semicross._linalg import rows_equal

        big = function_algebra(("a", "b", "c"))
        i1 = Ideal.from_support(big, ["a", "b"])
        i2 = Ideal.from_support(big, ["b", "c"])
        products = [big.mul(x, y) for x in i1.basis for y in i2.basis]
        inter = intersect_rows(i1.basis, i2.basis)
        assert rows_equal(np.array(products), inter)

    @pytest.mark.parametrize("ideal", [
        Ideal.from_support(function_algebra(("a", "b", "c")), ["a", "c"]),
        Ideal(M2, [m2_unit(0, 0) + m2_unit(1, 0), m2_unit(0, 1) + m2_unit(1, 1)], np.zeros(4)),
        Ideal(M2, np.eye(4), m2_unit(0, 0) + m2_unit(1, 1)),
        Ideal.zero(M2),
    ], ids=["support", "rows", "full", "zero"])
    def test_coords_are_the_pinv_product_and_reject_off_the_span(self, ideal):
        # against c = x @ pinv and the residual x - c @ basis, row by row
        rng, d = np.random.default_rng(5), ideal.parent.dim
        inside = rng.standard_normal((20, ideal.dim)) @ ideal.basis
        off = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        for x in [*inside, *off, inside, off, inside[:0]]:
            c = x @ ideal.pinv
            rejected = off_rows(x - c @ ideal.basis, x).any()
            try:
                got = ideal.coords(x)
            except np.linalg.LinAlgError:
                assert rejected
            else:
                assert not rejected and got.tobytes() == c.tobytes()

    def test_one_row_off_rows_is_the_max_rule(self):
        rng = np.random.default_rng(9)
        for scale in (1e-10, 1e-9, 1e-8, 1.0):
            for _ in range(200):
                resid, v = rng.standard_normal((2, 3)) * [[scale], [rng.choice([0.1, 1, 10])]]
                want = np.vdot(resid, resid).real > 1e-9**2 * max(1.0, np.vdot(v, v).real)
                assert off_rows(resid, v, 1e-9) == want


class TestPartialAut:
    def flip_paut(self):
        src = Ideal.from_support(C2, ["1"])
        tgt = Ideal.from_support(C2, ["2"])
        return PartialAut(src, tgt, [e(C2, 1)])

    def test_flip_map_is_exactly_isometric(self):
        cert = paut_validate(self.flip_paut())
        assert cert.isometry_level == "exact"

    def test_scaled_map_is_not_isometric(self):
        src = Ideal.from_support(C2, ["1"])
        tgt = Ideal.from_support(C2, ["2"])
        bad = PartialAut(src, tgt, [2 * e(C2, 1)])
        with pytest.raises(NotIsometric):
            paut_validate(bad)

    def test_sign_flip_is_isometric_but_not_multiplicative(self):
        ideal = Ideal.from_support(C2, ["1"])
        bad = PartialAut(ideal, ideal, [-e(C2, 0)])
        with pytest.raises(NotMultiplicative):
            paut_validate(bad)

    def test_identity_is_valid(self):
        ideal = Ideal.from_support(C2, ["1", "2"])
        paut_validate(PartialAut.identity(ideal))

    def test_rank_deficient_is_not_bijective(self):
        full = Ideal.from_support(C2, ["1", "2"])
        bad = PartialAut(full, full, [e(C2, 0), e(C2, 0)])
        with pytest.raises(NotBijective):
            paut_validate(bad)

    def test_dependent_source_basis_is_not_bijective(self):
        # the rows [e_1, e_1] cannot go to [e_1, e_2]: no map, so no isometry
        # to sample (tests/test_batched.py checks it under python -O)
        source = Ideal(C2, [e(C2, 0), e(C2, 0)], e(C2, 0))
        target = Ideal.from_support(C2, ["1", "2"])
        with pytest.raises(NotBijective, match="source basis is rank deficient"):
            paut_validate(PartialAut(source, target, [e(C2, 0), e(C2, 1)]))

    def test_block_swap_is_exact(self):
        a = matrix_algebra([1, 1], 2)
        src = Ideal(a, [e(a, 0)], e(a, 0))
        tgt = Ideal(a, [e(a, 1)], e(a, 1))
        cert = paut_validate(PartialAut(src, tgt, [e(a, 1)]))
        assert cert.isometry_level == "exact"

    def test_unitary_conjugation_is_sampled(self):
        # rotate the 2x2 block by a unitary: isometric but not a relabeling
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        full = Ideal(M2, np.eye(4), m2_unit(0, 0) + m2_unit(1, 1))
        rows = []
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2))
                eij[i, j] = 1.0
                rows.append((u @ eij @ u.T).ravel())
        cert = paut_validate(PartialAut(full, full, np.array(rows, dtype=complex)))
        assert cert.isometry_level == "sampled"

    def test_compose_disjoint_supports_gives_zero(self):
        phi = self.flip_paut()
        comp = compose_paut(phi, phi)
        assert comp.source.dim == 0 and comp.target.dim == 0

    def test_compose_with_inverse_gives_identity_on_image(self):
        phi = self.flip_paut()
        comp = compose_paut(phi, phi.inverse())
        assert pauts_equal(comp, PartialAut.identity(Ideal.from_support(C2, ["2"])))

    def test_compose_with_identity(self):
        phi = self.flip_paut()
        comp = compose_paut(phi, PartialAut.identity(phi.source))
        assert pauts_equal(comp, phi)


class TestSampledLaws:
    @pytest.mark.parametrize("algebra", [C2, M2, matrix_algebra([2, 1], np.inf)])
    def test_submultiplicative_on_random_pairs(self, algebra):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            y = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            assert (
                algebra.norm(algebra.mul(x, y))
                <= algebra.norm(x) * algebra.norm(y) + 1e-9
            )

    @pytest.mark.parametrize("algebra", [C2, M2])
    def test_star_laws_on_random_pairs(self, algebra):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            y = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            assert np.allclose(algebra.star(algebra.star(x)), x, atol=1e-9)
            assert np.allclose(
                algebra.star(algebra.mul(x, y)),
                algebra.mul(algebra.star(y), algebra.star(x)),
                atol=1e-9,
            )
