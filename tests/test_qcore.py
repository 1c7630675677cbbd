import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qxwit import (
    SUBSETS,
    ProductVector,
    WitnessFamily,
    check_hermitian,
    choi_explicit,
    herm_min_eig,
    hermiticity_defect,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_conjugate,
    partial_transpose,
    product_vector_from_json,
    product_vector_to_json,
    subset_mask,
    tensor3,
)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    g = random_matrix(rng, n)
    return (g + g.conj().T) / 2


class TestSubsets:
    def test_all_masks_distinct(self):
        masks = {subset_mask(s) for s in SUBSETS}
        assert masks == set(range(8))

    def test_mask_convention_party1_high_bit(self):
        assert subset_mask((1,)) == 4
        assert subset_mask((2,)) == 2
        assert subset_mask((3,)) == 1
        assert subset_mask((1, 2, 3)) == 7

    def test_bad_party_rejected(self):
        with pytest.raises(ValueError):
            subset_mask((0,))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.array_equal(kron(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_mixed_product_property(self):
        # oracle: direct 4x4 multiplication of the assembled products
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            kron(np.eye(4), np.eye(4))


class TestProductVector:
    def test_full_index_formula(self):
        rng = np.random.default_rng(1)
        x, y, z = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
        v = ProductVector(x, y, z)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert v.full[4 * i + 2 * j + k] == pytest.approx(x[i] * y[j] * z[k])

    def test_projector_rank_one(self):
        v = ProductVector([1, 2j], [3, -1], [0.5, 1])
        p = v.projector()
        assert np.linalg.matrix_rank(p) == 1
        assert hermiticity_defect(p) == 0.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ProductVector([1, 2, 3], [1, 0], [1, 0])


class TestPartialTranspose:
    def test_empty_subset_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 8)
        assert np.array_equal(partial_transpose(m, ()), m)

    def test_full_subset_is_global_transpose(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 8)
        assert np.array_equal(partial_transpose(m, (1, 2, 3)), m.T)

    def test_factorwise_on_product_input(self):
        rng = np.random.default_rng(4)
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        m = np.kron(np.kron(a, b), c)
        expect = np.kron(np.kron(a, b.T), c)
        assert np.max(np.abs(partial_transpose(m, (2,)) - expect)) < 1e-14

    def test_involution_every_subset(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 8)
        for s in SUBSETS:
            assert np.array_equal(partial_transpose(partial_transpose(m, s), s), m)

    def test_hermitian_preserved_and_complement_mirror(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 8)
        for s in SUBSETS:
            ts = partial_transpose(h, s)
            assert hermiticity_defect(ts) < 1e-14
            comp = tuple(p for p in (1, 2, 3) if p not in s)
            assert np.max(np.abs(partial_transpose(h, comp) - ts.T)) < 1e-14
            assert herm_min_eig(ts) == pytest.approx(
                herm_min_eig(partial_transpose(h, comp)), abs=1e-11
            )

    def test_dim_8_required(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), (1,))


class TestPartialConjugate:
    def test_empty_subset(self):
        v = ProductVector([1, 1j], [1, 1], [2, 3])
        w = partial_conjugate(v, ())
        assert np.array_equal(w.full, v.full)

    def test_real_vector_fixed(self):
        v = ProductVector([1, 2], [3, 4], [5, 6])
        for s in SUBSETS:
            assert np.array_equal(partial_conjugate(v, s).full, v.full)

    def test_single_party(self):
        v = ProductVector([1, 1j], [1, 1], [1, 1])
        w = partial_conjugate(v, (1,))
        assert np.array_equal(w.x, np.array([1, -1j]))
        assert np.array_equal(w.y, v.y)
        assert np.array_equal(w.z, v.z)

    def test_full_subset_conjugates_everything(self):
        rng = np.random.default_rng(7)
        v = ProductVector(*(rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)))
        assert np.max(np.abs(partial_conjugate(v, (1, 2, 3)).full - v.full.conj())) < 1e-14


class TestHermMinEig:
    def test_identity(self):
        assert herm_min_eig(np.eye(8)) == pytest.approx(1.0, abs=1e-14)

    def test_diag(self):
        assert herm_min_eig(np.diag([1.0, -2.0])) == pytest.approx(-2.0, abs=1e-14)

    def test_non_hermitian_reports_defect(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            herm_min_eig(m)

    def test_against_closed_form_2x2(self):
        # oracle: roots of the characteristic polynomial of [[a, b], [conj(b), d]]
        rng = np.random.default_rng(8)
        for _ in range(500):
            a, d = rng.standard_normal(2)
            b = complex(*rng.standard_normal(2))
            m = np.array([[a, b], [np.conj(b), d]])
            expect = (a + d) / 2 - math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
            assert herm_min_eig(m) == pytest.approx(expect, abs=1e-10)

    def test_choi_matrix_min_eig(self):
        # oracle: the anti-diagonal 2x2 blocks have spectrum {-1, +1}; the
        # middle block [[t, 1], [1, s]] is positive since s t - 1 = 7 > 0
        for s, t in ((2 * math.sqrt(2),) * 2, (4.0, 2.0), (2.0, 4.0), (8.0, 1.0)):
            c = choi_explicit(WitnessFamily(s, t))
            assert herm_min_eig(c) == pytest.approx(-1.0, abs=1e-12)

    def test_check_hermitian_tolerance(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-13
        check_hermitian(m)  # below the tolerance, passes


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 8)
        again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.max(np.abs(again - m)) == 0.0

    def test_rejects_mismatched_arrays(self):
        obj = {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_rejects_non_square(self):
        obj = {"dim": 2, "re": [[1, 0, 0], [0, 1, 0]], "im": [[0, 0, 0], [0, 0, 0]]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_product_vector_round_trip(self):
        v = ProductVector([1, 1j], [2, -1], [0, 1])
        again = product_vector_from_json(json.loads(json.dumps(product_vector_to_json(v))))
        assert np.array_equal(again.full, v.full)


def test_tensor3_matches_nested_kron():
    rng = np.random.default_rng(10)
    x, y, z = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
    assert np.array_equal(tensor3(x, y, z), np.kron(np.kron(x, y), z))


# Bounded so that no product of three components overflows to inf or nan.
_complex_pairs = st.lists(
    st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=2,
).map(lambda v: np.array(v, dtype=complex))


@given(_complex_pairs, _complex_pairs, _complex_pairs)
def test_tensor3_is_bitwise_nested_kron(x, y, z):
    assert np.array_equal(tensor3(x, y, z), np.kron(np.kron(x, y), z))


class TestPartialTransposeProperties:
    """Both ppt_check and the PPT boundary in find_ppt_entangled diagonalize
    only the subsets with masks 0..3 and mirror the complements."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUBSETS))
    def test_involution(self, seed, subset):
        m = random_matrix(np.random.default_rng(seed), 8)
        assert np.array_equal(partial_transpose(partial_transpose(m, subset), subset), m)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUBSETS))
    def test_complement_is_global_transpose(self, seed, subset):
        m = random_matrix(np.random.default_rng(seed), 8)
        complement = SUBSETS[7 - subset_mask(subset)]
        assert set(subset).isdisjoint(complement) and len(subset) + len(complement) == 3
        assert np.array_equal(partial_transpose(m, complement), partial_transpose(m, subset).T)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(SUBSETS))
    def test_complements_share_a_spectrum(self, seed, subset):
        h = random_hermitian(np.random.default_rng(seed), 8)
        complement = SUBSETS[7 - subset_mask(subset)]
        a = np.linalg.eigvalsh(partial_transpose(h, subset))
        b = np.linalg.eigvalsh(partial_transpose(h, complement))
        assert np.allclose(a, b, rtol=0.0, atol=1e-12 * np.max(np.abs(h)))
