import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qxwit import (
    OMEGA,
    ProductVector,
    WitnessFamily,
    XMatrix,
    choi_explicit,
    dual_state,
    is_block_positive_xwitness,
    is_ghz_diagonal,
    min_product_value,
    rank4_separability_check,
    reconstruct_product_vector,
    x_norm,
    xpart,
    xpart_decompose,
)
from qxwit.xstate import BLOCK_POSITIVITY_SLACK

SQRT2 = math.sqrt(2.0)


def x_norm_grid_oracle(z, points=1 << 17):
    """Dense enumeration of the phase objective, independent of the search."""
    z = np.asarray(z, dtype=complex)
    th = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    e = np.exp(1j * th)
    return float(np.max(np.abs(z[0] * e + np.conj(z[3])) + np.abs(z[1] * e + np.conj(z[2]))))


def random_no_zero_vector(rng):
    while True:
        f = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        if all(np.min(np.abs(fk)) > 1e-3 for fk in f):
            return ProductVector(*f)


class TestXMatrix:
    def test_to_matrix_layout(self):
        x = XMatrix([1, 2, 3, 4], [5, 6, 7, 8], [1j, 2, 3, 4 - 1j])
        m = x.to_matrix()
        assert np.array_equal(np.diagonal(m).real, [1, 2, 3, 4, 8, 7, 6, 5])
        assert m[0, 7] == 1j and m[7, 0] == -1j
        assert m[3, 4] == 4 - 1j and m[4, 3] == 4 + 1j

    def test_hermitian_by_construction(self):
        x = XMatrix([1, 0, 2, 0], [0, 1, 0, 3], [1 + 1j, 0, -2j, 5])
        m = x.to_matrix()
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_json_round_trip(self):
        x = XMatrix([1, 2, 3, 4], [4, 3, 2, 1], [1j, -1, 0, 2])
        again = XMatrix.from_json(x.to_json())
        assert np.array_equal(again.a, x.a)
        assert np.array_equal(again.b, x.b)
        assert np.array_equal(again.c, x.c)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_non_finite_rejected(self, name, value):
        fields = {"a": np.ones(4), "b": np.ones(4), "c": np.ones(4)}
        fields[name] = [value, 1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match=f"field {name} has non-finite"):
            XMatrix(**fields)


class TestXPart:
    def test_identity(self):
        x = xpart(np.eye(8))
        assert np.array_equal(x.a, np.ones(4))
        assert np.array_equal(x.b, np.ones(4))
        assert np.array_equal(x.c, np.zeros(4))

    def test_choi_matrix(self):
        w = WitnessFamily(4.0, 2.0)
        x = xpart(choi_explicit(w))
        assert np.array_equal(x.a, [0, 0, 0, 2.0])
        assert np.array_equal(x.b, [0, 0, 0, 4.0])
        assert np.array_equal(x.c, [1, 1, -1, 1])

    def test_round_trip_projection(self):
        rng = np.random.default_rng(0)
        x = XMatrix(rng.uniform(0.1, 2, 4), rng.uniform(0.1, 2, 4),
                    rng.standard_normal(4) + 1j * rng.standard_normal(4))
        again = xpart(x.to_matrix())
        assert np.max(np.abs(again.a - x.a)) == 0.0
        assert np.max(np.abs(again.b - x.b)) == 0.0
        assert np.max(np.abs(again.c - x.c)) == 0.0

    def test_preserves_diagonals_of_input(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        m = xpart(h).to_matrix()
        assert np.max(np.abs(np.diagonal(m) - np.diagonal(h))) < 1e-15
        anti = [(0, 7), (1, 6), (2, 5), (3, 4)]
        for i, j in anti:
            assert m[i, j] == h[i, j]

    def test_complex_diagonal_rejected(self):
        m = np.eye(8, dtype=complex)
        m[2, 2] = 1 + 1e-6j
        with pytest.raises(ValueError, match="real"):
            xpart(m)


class TestXNorm:
    def test_single_term(self):
        assert x_norm([1, 0, 0, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_witness_anti_diagonal(self):
        # maximand |e^{it} + 1| + |e^{it} - 1|, peak 2 sqrt(2) at t = pi/2
        assert x_norm([1, 1, -1, 1]) == pytest.approx(2 * SQRT2, abs=1e-10)
        assert x_norm([1, 1, -1, 1]) == pytest.approx(x_norm_grid_oracle([1, 1, -1, 1]), abs=1e-8)

    def test_equality_case_of_one_norm_bound(self):
        z = np.array([-1, -1, 1, -1]) / SQRT2
        assert x_norm(z) == pytest.approx(2.0, abs=1e-10)
        assert x_norm(z) == pytest.approx(x_norm_grid_oracle(z), abs=1e-8)
        # ||z||_X = ||z||_1 / sqrt(2) at (1, 1, -1, 1) on every scale, and a
        # single entry stays clear of the bound
        for lam in (1e-12, 1e-10, 1.0, 1e10, 1e12):
            lower = 4.0 * lam / SQRT2
            assert abs(x_norm(lam * np.array([1, 1, -1, 1])) - lower) <= 1e-8 * lower
            assert x_norm([lam, 0, 0, 0]) - lam / SQRT2 > 1e-8 * lam / SQRT2

    def test_against_grid_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert x_norm(z) == pytest.approx(x_norm_grid_oracle(z), abs=1e-8)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lam = rng.standard_normal()
            assert x_norm(lam * z) == pytest.approx(abs(lam) * x_norm(z), abs=1e-9)

    def test_one_norm_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            nx = x_norm(z)
            n1 = float(np.sum(np.abs(z)))
            assert n1 / SQRT2 - 1e-9 <= nx <= n1 + 1e-9
        # unimodular entries away from the phase gap (arg z1 + arg z4) -
        # (arg z2 + arg z3) = pi, which equality needs: the lower bound is
        # strict, and the grid oracle's maximum exceeds it too
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(100):
            phases = rng.uniform(0, 2 * np.pi, 4)
            gap = (phases[0] + phases[3]) - (phases[1] + phases[2])
            if abs((gap - np.pi) % (2 * np.pi)) < 0.3:
                continue
            z = np.exp(1j * phases)
            assert 4 / SQRT2 + 1e-6 < x_norm(z) <= 4 + 1e-9
            assert x_norm_grid_oracle(z) > 4 / SQRT2 + 1e-6
            count += 1
        assert count > 50


class TestBlockPositivity:
    def test_witness_equality_case(self):
        w = WitnessFamily(4.0, 2.0)
        assert is_block_positive_xwitness(w.t, w.s, [1, 1, -1, 1])
        assert math.sqrt(w.s * w.t) == pytest.approx(x_norm([1, 1, -1, 1]), abs=1e-9)

    def test_zero_witness(self):
        assert is_block_positive_xwitness(0.0, 0.0, np.zeros(4))

    def test_small_diagonal_fails(self):
        assert not is_block_positive_xwitness(1.0, 1.0, [1, 1, -1, 1])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            is_block_positive_xwitness(-1.0, 1.0, np.zeros(4))

    @pytest.mark.parametrize(
        "x4, y4", [(math.nan, 1.0), (math.inf, 0.0), (math.inf, 1.0), (1.0, math.nan), (0.0, -math.inf)]
    )
    def test_non_finite_weight_rejected(self, x4, y4):
        # NaN passed the sign test and inf * 0 is NaN, so these returned a verdict
        with pytest.raises(ValueError, match="finite"):
            is_block_positive_xwitness(x4, y4, [1, 1, -1, 1])

    def test_agrees_with_seesaw_sign(self):
        # oracle: numerical minimum of <v|W|v> over product vectors
        rng = np.random.default_rng(6)
        zeros = np.zeros(4)
        checked = 0
        for _ in range(200):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
            x4 = y4 = g * x_norm(z)
            if abs(g - 1.0) < 1e-3:
                continue
            bp = is_block_positive_xwitness(x4, y4, z)
            assert bp == (g >= 1.0)
            m = XMatrix(np.array([0, 0, 0, x4]), np.array([0, 0, 0, y4]), z).to_matrix()
            res = min_product_value(m, restarts=24, seed=checked)
            assert bp == (res.min_value >= -1e-9)
            checked += 1
        assert checked > 150

    def test_small_scale_witness_fails(self):
        # zero weights cannot dominate a nonzero anti-diagonal at any scale
        z = 3e-10 * np.array([1, 1, -1, 1])
        assert not is_block_positive_xwitness(0.0, 0.0, z)
        assert not is_block_positive_xwitness(0.0, 0.0, 1e10 * z)

    def test_overflowing_norm_rejected(self):
        # x_norm was inf, and -inf >= -1e-9 inf held: a block-positive verdict
        z = [0, 1.7e308j, 1.7e308j, 0]
        assert x_norm(z) == math.inf
        with pytest.raises(ValueError, match="finite X norm"):
            is_block_positive_xwitness(1.0, 1.0, z)
        assert not is_block_positive_xwitness(1.0, 1.0, [0, 1e300j, 1e300j, 0])

    def test_weights_whose_product_leaves_the_doubles(self):
        # x4 y4 overflowed to inf, a positive verdict, and underflowed to 0
        assert not is_block_positive_xwitness(1e200, 1e200, [1e300, 0, 0, 0])
        assert is_block_positive_xwitness(1e-200, 1e-200, [1e-250, 0, 0, 0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1e307, 1e307), min_size=8, max_size=8),
        st.floats(0.0, 1.7976931348623157e308),
        st.floats(0.0, 1.7976931348623157e308),
    )
    def test_verdict_is_the_inequality(self, parts, x4, y4):
        # parts of at most 1e307 keep the X norm finite: it is at most 4 max|z|
        z = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = x_norm(z)
        exact = decimal.Context(prec=50)
        gap = exact.subtract(exact.sqrt(exact.multiply(Decimal(x4), Decimal(y4))), Decimal(norm))
        assume(abs(gap) > Decimal(BLOCK_POSITIVITY_SLACK) * Decimal(norm))
        assert is_block_positive_xwitness(x4, y4, z) == (gap >= 0)


class TestPositivityTightness:
    """C is the X witness X((0,0,0,t), (0,0,0,s), (1,1,-1,1)) at equality:
    sqrt(s t) = ||(1,1,-1,1)||_X = 2 sqrt(2).  Lowering its 011 diagonal from
    t to t(1 - eps) gives every curved kernel vector v the form value
    -eps t |v_011|^2 < 0, so both the X criterion and the see-saw must reject
    it; raising the diagonal adds a positive semidefinite term, so both must
    accept it.  s runs over [1/2, 16] and eps over [1e-6, 1e-1], log-uniform."""

    @staticmethod
    def _moved(log_s: float, eps: float) -> tuple:
        s = math.exp(log_s)
        w = WitnessFamily(s, 8.0 / s)
        c = choi_explicit(w)
        c[3, 3] = w.t * (1.0 + eps)
        return w, c

    @settings(max_examples=40, deadline=None)
    @given(st.floats(math.log(0.5), math.log(16.0)), st.floats(-6.0, -1.0), st.integers(0, 2**31 - 1))
    def test_lowered_diagonal_rejected(self, log_s, log10_eps, seed):
        w, c = self._moved(log_s, -(10.0**log10_eps))
        assert not is_block_positive_xwitness(c[3, 3].real, w.s, [1, 1, -1, 1])
        assert min_product_value(c, restarts=200, seed=seed).min_value < -1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.floats(math.log(0.5), math.log(16.0)), st.floats(-6.0, -1.0), st.integers(0, 2**31 - 1))
    def test_raised_diagonal_accepted(self, log_s, log10_eps, seed):
        w, c = self._moved(log_s, 10.0**log10_eps)
        assert is_block_positive_xwitness(c[3, 3].real, w.s, [1, 1, -1, 1])
        assert min_product_value(c, restarts=200, seed=seed).min_value >= -1e-9


# Entries and weights are 0 or at least 1e-6 in size, so that lambda times
# them stays far inside the range of doubles for every lambda drawn below.
ENTRY = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
WEIGHT = st.floats(0.0, 10.0).filter(lambda v: v == 0.0 or v >= 1e-6)
LOG_SCALE = st.floats(-12.0, 12.0)


class TestScaleInvariance:
    """Block positivity and the X norm are positively homogeneous; lambda is
    log-uniform on [1e-12, 1e12]."""

    @given(st.lists(ENTRY, min_size=8, max_size=8), WEIGHT, WEIGHT, LOG_SCALE)
    def test_block_positivity_verdict(self, parts, x4, y4, log_lam):
        z = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = x_norm(z)
        assume(abs(math.sqrt(x4 * y4) - norm) > 1e-6 * norm)
        lam = 10.0**log_lam
        assert is_block_positive_xwitness(lam * x4, lam * y4, lam * z) == (
            is_block_positive_xwitness(x4, y4, z)
        )

    @given(st.lists(ENTRY, min_size=8, max_size=8), LOG_SCALE)
    def test_x_norm(self, parts, log_lam):
        z = np.array(parts[:4]) + 1j * np.array(parts[4:])
        lam = 10.0**log_lam
        assert x_norm(lam * z) == pytest.approx(lam * x_norm(z), rel=1e-12)
        n1 = lam * float(np.sum(np.abs(z)))
        assert n1 / SQRT2 * (1.0 - 1e-9) <= x_norm(lam * z) <= n1 * (1.0 + 1e-9)


class TestRank4Separability:
    def test_dual_state_passes(self):
        w = WitnessFamily()
        verdict = rank4_separability_check(dual_state(w, 1, 1.0, 1.0))
        assert verdict.separable and not verdict.violated

    def test_phase_condition_violated(self):
        x = XMatrix([1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, -1])
        verdict = rank4_separability_check(x)
        assert not verdict.separable
        assert "c1*c4 != c2*c3" in verdict.violated

    def test_xpart_of_product_projector(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = random_no_zero_vector(rng)
            verdict = rank4_separability_check(xpart(v.projector()))
            assert verdict.separable

    def test_diagonal_rejected(self):
        x = XMatrix([1, 1, 1, 1], [1, 1, 1, 1], np.zeros(4))
        with pytest.raises(ValueError, match="non-diagonal"):
            rank4_separability_check(x)

    def test_nonpositive_diagonal_rejected(self):
        x = XMatrix([1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 1, 1])
        with pytest.raises(ValueError, match="positive"):
            rank4_separability_check(x)

    def test_magnitude_condition_violated(self):
        x = XMatrix([1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0.5])
        verdict = rank4_separability_check(x)
        assert not verdict.separable
        assert any("|c4|" in v for v in verdict.violated)


class TestDecompose:
    def test_symmetric_case(self):
        v = ProductVector([1, 1], [1, 1], [1, 1])
        parts = xpart_decompose(v)
        assert len(parts) == 4
        signs = {tuple(int(p.factors()[i][1].real) for i in range(3)) for p in parts}
        assert signs == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
        avg = sum(p.projector() for p in parts) / 4
        assert np.max(np.abs(avg - xpart(v.projector()).to_matrix())) < 1e-12

    def test_random_unimodular(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = [np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) for _ in range(3)]
            v = ProductVector(*f)
            avg = sum(p.projector() for p in xpart_decompose(v)) / 4
            assert np.max(np.abs(avg - xpart(v.projector()).to_matrix())) < 1e-12

    def test_mixed_phase_example(self):
        v = ProductVector([1, 1j], [1, 1], [1, -1j])
        avg = sum(p.projector() for p in xpart_decompose(v)) / 4
        assert np.max(np.abs(avg - xpart(v.projector()).to_matrix())) < 1e-12

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            xpart_decompose(ProductVector([1, 0], [1, 1], [1, 1]))


class TestReconstruct:
    def test_symmetric_dual_state(self):
        # s = t makes u = 1; the canonical representative carries omega^3
        w = WitnessFamily()
        rec = reconstruct_product_vector(dual_state(w, 1, 1.0, 1.0))
        v = rec.vector
        assert rec.scale == pytest.approx(1.0, abs=1e-12)
        for f in v.factors():
            assert f[0].real == pytest.approx(1.0, abs=1e-12)
        assert v.x[1] == pytest.approx(OMEGA**3, abs=1e-12)
        assert v.y[1] == pytest.approx(OMEGA, abs=1e-12)
        assert v.z[1] == pytest.approx(OMEGA**7, abs=1e-12)

    def test_all_ones(self):
        rec = reconstruct_product_vector(XMatrix([1, 1, 1, 1], [1, 1, 1, 1], np.ones(4)))
        assert rec.scale == pytest.approx(1.0)
        for f in rec.vector.factors():
            assert np.max(np.abs(f - np.ones(2))) < 1e-12

    def test_round_trip_random(self):
        # oracle: the forward X-part of the reconstructed projector
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = random_no_zero_vector(rng)
            x = xpart(v.projector())
            rec = reconstruct_product_vector(x)
            back = xpart(rec.vector.projector()).to_matrix()
            assert np.max(np.abs(rec.scale * x.to_matrix() - back)) < 1e-10

    def test_canonical_phase_branch(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = random_no_zero_vector(rng)
            rec = reconstruct_product_vector(xpart(v.projector()))
            a1 = np.angle(rec.vector.x[1])
            a2 = np.angle(rec.vector.y[1])
            assert 0.0 <= a1 % (2 * np.pi) < np.pi
            assert 0.0 <= a2 % (2 * np.pi) < np.pi

    def test_inconsistent_phases_rejected(self):
        x = XMatrix([1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, -1])
        with pytest.raises(ValueError, match="c1\\*c4"):
            reconstruct_product_vector(x)


class TestGhzDiagonal:
    def test_real_c_and_equal_diagonals(self):
        assert is_ghz_diagonal(XMatrix([1, 1, 1, 1], [1, 1, 1, 1], [1, 0, 0, 0]))

    def test_imaginary_c(self):
        assert not is_ghz_diagonal(XMatrix([1, 1, 1, 1], [1, 1, 1, 1], [1j, 0, 0, 0]))

    def test_choi_asymmetric_is_not(self):
        x = xpart(choi_explicit(WitnessFamily(4.0, 2.0)))
        assert not is_ghz_diagonal(x)

    def test_choi_symmetric_is(self):
        x = xpart(choi_explicit(WitnessFamily()))
        assert is_ghz_diagonal(x)


class TestScaleAwareTolerances:
    """The GHZ-diagonal test does not depend on the input's scale; lambda is
    log-uniform on [1e-12, 1e12]."""

    @given(st.lists(ENTRY, min_size=16, max_size=16), st.booleans(), LOG_SCALE)
    def test_ghz_diagonal(self, parts, ghz_shaped, log_lam):
        a, b = np.array(parts[:4]), np.array(parts[4:8])
        c = np.array(parts[8:12]) + 1j * np.array(parts[12:])
        if ghz_shaped:
            b, c = a, c.real
        biggest = max(np.max(np.abs(a)), np.max(np.abs(b)), np.max(np.abs(c)))
        for defect in (np.max(np.abs(a - b)), np.max(np.abs(c.imag))):
            assume(not 0.5e-12 * biggest <= defect <= 2e-12 * biggest)
        lam = 10.0**log_lam
        assert is_ghz_diagonal(XMatrix(lam * a, lam * b, lam * c)) == (
            is_ghz_diagonal(XMatrix(a, b, c))
        )

    def test_zero_matrix_is_ghz_diagonal(self):
        assert is_ghz_diagonal(XMatrix(np.zeros(4), np.zeros(4), np.zeros(4)))


LOG_MODULUS = st.floats(-1.0, 1.0)
ANGLE = st.floats(0.0, 2.0 * math.pi)


class TestReconstructRoundTrip:
    @given(st.lists(LOG_MODULUS, min_size=6, max_size=6), st.lists(ANGLE, min_size=6, max_size=6))
    def test_xpart_of_product_vector(self, log_mods, angles):
        entries = [10.0**r * np.exp(1j * phi) for r, phi in zip(log_mods, angles)]
        v = ProductVector(*np.reshape(entries, (3, 2)))
        x = xpart(v.projector())
        rec = reconstruct_product_vector(x)
        back = xpart(rec.vector.projector()).to_matrix()
        target = rec.scale * x.to_matrix()
        assert np.max(np.abs(back - target)) <= 1e-10 * np.max(np.abs(target))


class TestReconstructIdempotent:
    """Reconstructing from the X part of a reconstruction gives back the same
    factors, with arg q1 and arg q2 on the documented branch [0, pi)."""

    @staticmethod
    def twice(v):
        first = reconstruct_product_vector(xpart(v.projector())).vector
        second = reconstruct_product_vector(xpart(first.projector())).vector
        return first, second

    @given(st.lists(LOG_MODULUS, min_size=6, max_size=6), st.lists(ANGLE, min_size=6, max_size=6))
    def test_reconstruction_is_a_fixed_point(self, log_mods, angles):
        entries = [10.0**r * np.exp(1j * phi) for r, phi in zip(log_mods, angles)]
        first, second = self.twice(ProductVector(*np.reshape(entries, (3, 2))))
        for f, g in zip(first.factors(), second.factors()):
            assert np.max(np.abs(f - g)) <= 1e-10 * np.max(np.abs(f))
        for q in (second.x[1], second.y[1]):
            assert 0.0 <= np.angle(q) < math.pi

    def test_zero_half_angle_stays_zero(self):
        # the second reconstruction's half-angle of y rounds to -6e-17
        v = ProductVector(
            np.array([1.0, np.exp(0.5j)]), np.array([1.0, 1.0]), np.array([np.exp(1j), 10.0])
        )
        first, second = self.twice(v)
        assert second.y[1] == first.y[1] == 1.0
        assert np.allclose(second.z, first.z, rtol=0.0, atol=1e-12)
