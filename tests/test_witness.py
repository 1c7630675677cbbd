import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qxwit import (
    ETA_TAGS,
    FAMILY_TAGS,
    OMEGA,
    PV1_TAGS,
    ZETA_TAGS,
    KernelGrid,
    ProductVector,
    WitnessFamily,
    XMatrix,
    choi_explicit,
    choi_generic,
    dual_state,
    exposedness_certificate,
    herm_min_eig,
    is_ghz_diagonal,
    kernel_vector,
    kernel_vectors,
    min_product_value,
    motivating_linear_map,
    motivating_sum,
    pairing,
    pairing_x,
    phi_apply,
    pv4_vectors,
    rank4_separability_check,
    verify_positive,
    xpart,
)
from qxwit.witness import _seesaw

SQRT2 = math.sqrt(2.0)
ST_CASES = ((2 * SQRT2, 2 * SQRT2), (4.0, 2.0), (2.0, 4.0), (8.0, 1.0))


def _batched_min_eigvec(m: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Unit minimal eigenvectors (..., 2) of a batch (..., 2, 2) of 2x2
    Hermitian matrices, from numpy's eigh; rows whose eigenvalue gap is at
    most 1e-14 of the matrix's largest entry keep the current vector, since
    any unit vector is then optimal."""
    lam, vecs = np.linalg.eigh(m)
    keep = lam[..., 1] - lam[..., 0] <= 1e-14 * np.max(np.abs(m), axis=(-2, -1))
    return np.where(keep[..., None], current, vecs[..., 0])


def rank_one_p(alpha):
    """The rank-one matrix [[1, conj(a)], [a, |a|^2]] driving the motivating sum."""
    return np.array([[1.0, np.conj(alpha)], [alpha, abs(alpha) ** 2]])


class TestWitnessFamily:
    def test_defaults_are_symmetric(self):
        w = WitnessFamily()
        assert w.s == pytest.approx(2 * SQRT2)
        assert w.u == pytest.approx(1.0)
        assert w.omega == pytest.approx(np.exp(1j * np.pi / 4))

    def test_constraint_enforced(self):
        with pytest.raises(ValueError, match="s\\*t"):
            WitnessFamily(1.0, 1.0)
        with pytest.raises(ValueError):
            WitnessFamily(-2.0, -4.0)

    def test_u_ratio(self):
        assert WitnessFamily(4.0, 2.0).u == pytest.approx(math.sqrt(2.0))


class TestPhiApply:
    def test_zero_on_ground_projectors(self):
        w = WitnessFamily()
        p0 = np.diag([1.0, 0.0])
        assert np.max(np.abs(phi_apply(w, p0, p0))) == 0.0

    def test_all_ones_input(self):
        w = WitnessFamily(4.0, 2.0)
        ones = np.ones((2, 2))
        out = phi_apply(w, ones, ones)
        assert np.max(np.abs(out - np.array([[4.0, 2.0], [2.0, 2.0]]))) == 0.0
        assert herm_min_eig(out) >= -1e-12  # PSD since s t = 8 >= 4

    def test_identity_input(self):
        w = WitnessFamily(8.0, 1.0)
        out = phi_apply(w, np.eye(2), np.eye(2))
        assert np.max(np.abs(out - np.diag([8.0, 1.0]))) == 0.0

    def test_bilinear_in_each_argument(self):
        rng = np.random.default_rng(0)
        w = WitnessFamily()
        for _ in range(20):
            x1, x2, y = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
            lam = complex(*rng.standard_normal(2))
            lhs = phi_apply(w, x1 + lam * x2, y)
            rhs = phi_apply(w, x1, y) + lam * phi_apply(w, x2, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            lhs = phi_apply(w, y, x1 + lam * x2)
            rhs = phi_apply(w, y, x1) + lam * phi_apply(w, y, x2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_positive_on_positive_pairs(self):
        rng = np.random.default_rng(1)
        w = WitnessFamily()
        worst = 0.0
        for _ in range(10_000):
            g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            out = phi_apply(w, g1 @ g1.conj().T, g2 @ g2.conj().T)
            worst = min(worst, herm_min_eig(out))
        assert worst >= -1e-10


class TestChoi:
    def test_generic_matches_explicit(self):
        for s, t in ST_CASES:
            w = WitnessFamily(s, t)
            generic = choi_generic(lambda x, y: phi_apply(w, x, y))
            assert np.max(np.abs(generic - choi_explicit(w))) <= 1e-12

    def test_explicit_entries(self):
        w = WitnessFamily(4.0, 2.0)
        c = choi_explicit(w)
        assert c[3, 3] == w.t and c[4, 4] == w.s
        assert c[3, 4] == 1 and c[4, 3] == 1
        assert c[0, 7] == 1 and c[1, 6] == 1 and c[2, 5] == -1
        assert np.count_nonzero(c) == 10

    def test_rank_one_functional(self):
        c = choi_generic(lambda x, y: x[0, 0] * y[0, 0] * np.eye(2))
        expect = np.zeros((8, 8))
        expect[0, 0] = expect[1, 1] = 1.0
        assert np.max(np.abs(c - expect)) == 0.0

    def test_zero_map(self):
        assert np.count_nonzero(choi_generic(lambda x, y: np.zeros((2, 2)))) == 0

    def test_not_completely_positive(self):
        for s, t in ST_CASES:
            assert herm_min_eig(choi_explicit(WitnessFamily(s, t))) == pytest.approx(-1.0, abs=1e-12)


class TestPairing:
    def test_basis_projector(self):
        w = WitnessFamily()
        rho = np.zeros((8, 8))
        rho[0, 0] = 1.0
        assert pairing(rho, choi_explicit(w)) == 0.0

    def test_maximally_mixed(self):
        for s, t in ST_CASES:
            w = WitnessFamily(s, t)
            assert pairing(np.eye(8) / 8, choi_explicit(w)) == pytest.approx((s + t) / 8, abs=1e-12)

    def test_dual_state_pairs_to_zero(self):
        w = WitnessFamily()
        rho = dual_state(w, 1, 1.0, 1.0).to_matrix()
        assert pairing(rho, choi_explicit(w)) == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            pairing(np.triu(np.ones((8, 8))), np.eye(8))

    def test_transpose_convention(self):
        # Tr(C rho^t) evaluated directly, as the ground truth
        rng = np.random.default_rng(2)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = (g + g.conj().T) / 2
        w = WitnessFamily()
        c = choi_explicit(w)
        assert pairing(rho, c) == pytest.approx(np.trace(c @ rho.T).real, abs=1e-12)


class TestDualityBound:
    def test_pairing_nonnegative_on_product_states(self):
        # positivity of the map is equivalent to nonnegativity on separables
        rng = np.random.default_rng(12)
        w = WitnessFamily()
        c = choi_explicit(w)
        worst = np.inf
        for _ in range(10_000):
            factors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
            v = ProductVector(*factors).unit()
            f = v.full.conj()
            worst = min(worst, float(np.real(f.conj() @ c @ f)))
        assert worst >= -1e-9


class TestPairingX:
    def test_symmetric_dual_state(self):
        w = WitnessFamily()
        assert pairing_x(dual_state(w, 1, 1.0, 1.0), w) == pytest.approx(0.0, abs=1e-12)

    def test_single_diagonal(self):
        w = WitnessFamily(4.0, 2.0)
        x = xpart(np.diag([0.0, 0, 0, 1.0, 0, 0, 0, 0]).astype(complex))
        assert pairing_x(x, w) == pytest.approx(w.t)

    def test_single_anti_diagonal(self):
        from qxwit import XMatrix

        w = WitnessFamily()
        x = XMatrix(np.zeros(4), np.zeros(4), [1, 0, 0, 0])
        assert pairing_x(x, w) == pytest.approx(2.0)

    def test_matches_trace_pairing(self):
        from qxwit import XMatrix

        rng = np.random.default_rng(3)
        w = WitnessFamily(2.0, 4.0)
        c = choi_explicit(w)
        for _ in range(1000):
            x = XMatrix(
                rng.standard_normal(4),
                rng.standard_normal(4),
                rng.standard_normal(4) + 1j * rng.standard_normal(4),
            )
            assert pairing_x(x, w) == pytest.approx(pairing(x.to_matrix(), c), abs=1e-10)


class TestKernelFamilies:
    def test_family_count(self):
        assert len(FAMILY_TAGS) == 14
        assert len(PV1_TAGS) == 6 and len(ETA_TAGS) == 4 and len(ZETA_TAGS) == 4

    def test_00z_member(self):
        w = WitnessFamily()
        v = kernel_vector(w, "00z", np.array([1.0, 1.0]))
        assert np.array_equal(v.x, [1, 0])
        assert np.array_equal(v.y, [1, 0])
        assert np.array_equal(v.z, [1, 1])
        assert pairing(v.projector(), choi_explicit(w)) == pytest.approx(0.0, abs=1e-12)

    def test_eta1_symmetric_point(self):
        w = WitnessFamily()
        v = kernel_vector(w, "eta1", (1.0, 1.0))
        assert v.x[1] == pytest.approx(OMEGA**3)
        assert v.y[1] == pytest.approx(OMEGA)
        assert v.z[1] == pytest.approx(OMEGA**7)
        assert pairing(v.projector(), choi_explicit(w)) == pytest.approx(0.0, abs=1e-12)

    def test_zeta4_symmetric_point(self):
        w = WitnessFamily()
        v = kernel_vector(w, "zeta4", (1.0, 1.0))
        assert v.x[1] == pytest.approx(OMEGA)
        assert v.y[1] == pytest.approx(OMEGA**3)
        assert v.z[1] == pytest.approx(OMEGA)
        assert pairing(v.projector(), choi_explicit(w)) == pytest.approx(0.0, abs=1e-12)

    def test_every_family_pairs_to_zero_on_grid(self):
        grid = KernelGrid.default()
        for s, t in ST_CASES:
            w = WitnessFamily(s, t)
            c = choi_explicit(w)
            vectors = kernel_vectors(w, grid)
            assert len(vectors) >= 60
            for v in vectors:
                assert abs(pairing(v.projector(), c)) <= 1e-9

    def test_invalid_parameters(self):
        w = WitnessFamily()
        with pytest.raises(ValueError, match="positive"):
            kernel_vector(w, "eta2", (0.0, 1.0))
        with pytest.raises(ValueError, match="unknown"):
            kernel_vector(w, "eta5", (1.0, 1.0))
        with pytest.raises(ValueError):
            kernel_vector(w, "x01", np.array([1.0, 2.0, 3.0]))

    def test_pv4_vectors_are_kernel_members(self):
        w = WitnessFamily()
        c = choi_explicit(w)
        vs = pv4_vectors()
        assert len(vs) == 6
        occupied = sorted(int(np.argmax(np.abs(v.full))) for v in vs)
        assert occupied == [0, 1, 2, 5, 6, 7]
        for v in vs:
            assert pairing(v.projector(), c) == 0.0


class TestDualStates:
    def test_rho1_entries(self):
        w = WitnessFamily()
        r1 = dual_state(w, 1, 1.0, 1.0)
        u = w.u
        assert np.allclose(r1.a, [1, 1, u, u])
        assert np.allclose(r1.b, [1, 1, 1 / u, 1 / u])
        assert np.allclose(r1.c, OMEGA ** np.array([-3, 3, -1, -3]))

    def test_rho2_phases(self):
        w = WitnessFamily()
        r2 = dual_state(w, 2, 1.0, 1.0)
        assert np.allclose(r2.c, OMEGA ** np.array([3, -3, 1, 3]))

    def test_rho2_off_symmetric_point(self):
        w = WitnessFamily(4.0, 2.0)
        r2 = dual_state(w, 2, 2.0, 0.5)
        verdict = rank4_separability_check(r2)
        assert verdict.separable
        assert np.allclose(r2.a * r2.b, np.ones(4))
        assert pairing_x(r2, w) == pytest.approx(0.0, abs=1e-12)

    def test_grid_separable_and_annihilated(self):
        grid = KernelGrid.default()
        for s, t in ((2 * SQRT2, 2 * SQRT2), (4.0, 2.0)):
            w = WitnessFamily(s, t)
            c = choi_explicit(w)
            for kind, a1, a2 in grid.dual_params():
                x = dual_state(w, kind, a1, a2)
                assert rank4_separability_check(x).separable
                assert abs(pairing_x(x, w)) <= 1e-9
                assert pairing_x(x, w) == pytest.approx(pairing(x.to_matrix(), c), abs=1e-10)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            dual_state(WitnessFamily(), 3, 1.0, 1.0)


class TestKernelGrid:
    def test_presets(self):
        assert KernelGrid.named("small").phase_count == 3
        assert KernelGrid.named("default").ab_values == (0.5, 1.0, 2.0)
        assert KernelGrid.named("fine").phase_count == 7
        with pytest.raises(ValueError):
            KernelGrid.named("huge")

    def test_default_counts(self):
        grid = KernelGrid.default()
        ids = grid.kernel_ids()
        assert len(ids) == 6 * (2 + 5) + 8 * 9
        assert len(grid.dual_params()) == 18


class TestSeesaw:
    def test_positivity_minimum(self):
        w = WitnessFamily()
        res = verify_positive(w, restarts=200, seed=0)
        assert res.min_value >= -1e-9
        assert res.min_value <= 1e-10

    def test_argmin_pairing_consistent(self):
        w = WitnessFamily(4.0, 2.0)
        res = verify_positive(w, restarts=100, seed=5)
        val = pairing(res.argmin.projector(), choi_explicit(w))
        assert val == pytest.approx(res.min_value, abs=1e-10)

    def test_deterministic_given_seed(self):
        w = WitnessFamily()
        r1 = verify_positive(w, restarts=50, seed=42)
        r2 = verify_positive(w, restarts=50, seed=42)
        assert r1.min_value == r2.min_value
        assert np.array_equal(r1.argmin.full, r2.argmin.full)

    def test_scaling_homogeneity(self):
        # on a shifted matrix with a genuinely negative minimum
        w = WitnessFamily()
        m = choi_explicit(w) - 0.5 * np.eye(8)
        r1 = min_product_value(m, restarts=64, seed=3)
        r2 = min_product_value(2.0 * m, restarts=64, seed=3)
        assert r2.min_value == pytest.approx(2.0 * r1.min_value, abs=1e-10)
        overlap = abs(np.vdot(r1.argmin.unit().full, r2.argmin.unit().full))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            min_product_value(np.eye(8), restarts=0)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="8x8"):
            min_product_value(np.eye(4), 4, 1)

    @pytest.mark.parametrize("s,t", ST_CASES)
    def test_choi_converges_before_cap(self, s, t):
        res = verify_positive(WitnessFamily(s, t), restarts=200, seed=0)
        assert res.converged
        assert res.cycles <= 11


def _reference_seesaw(c8, restarts, seed, max_cycles=300, stall_tol=1e-12):
    """Serial see-saw of one matrix with a five-operand einsum contraction: the
    reference the batched engine must reproduce.  Returns the per-restart
    values and the cycles run."""
    c6 = c8.reshape((2,) * 6)
    rng = np.random.default_rng(seed)

    def random_factors():
        v = rng.standard_normal((restarts, 2)) + 1j * rng.standard_normal((restarts, 2))
        return v / np.linalg.norm(v, axis=1)[:, None]

    fa, fb, fz = random_factors(), random_factors(), random_factors()
    values = np.full(restarts, np.inf)
    for cycles in range(1, max_cycles + 1):
        m = np.einsum("abcdef,nb,nc,ne,nf->nad", c6, fb.conj(), fz.conj(), fb, fz)
        fa = _batched_min_eigvec(m, fa)
        m = np.einsum("abcdef,na,nc,nd,nf->nbe", c6, fa.conj(), fz.conj(), fa, fz)
        fb = _batched_min_eigvec(m, fb)
        m = np.einsum("abcdef,na,nb,nd,ne->ncf", c6, fa.conj(), fb.conj(), fa, fb)
        fz = _batched_min_eigvec(m, fz)
        new = np.einsum("ni,nij,nj->n", fz.conj(), m, fz).real
        stalled = cycles > 1 and float(np.max(np.abs(new - values))) < stall_tol
        values = new
        if stalled:
            break
    return values, cycles


class TestBatchedSeesaw:
    """See-saws of a converging matrix (the Choi matrix C) and of matrices
    whose runs stop at the cycle cap (C +- 0.05 D along constraint-nullspace
    directions D), each one batch of restarts."""

    RESTARTS = 32
    SEEDS = (11, 12, 13, 14, 15)

    @pytest.fixture(scope="class")
    def batch(self):
        w = WitnessFamily()
        cert = exposedness_certificate(w, grid=KernelGrid.small())
        matrices = [choi_explicit(w)] + [r.perturbation for r in cert.prune_records[:4]]
        results = [min_product_value(m, self.RESTARTS, seed) for m, seed in zip(matrices, self.SEEDS)]
        return matrices, results

    def test_mixes_converged_and_capped_tasks(self, batch):
        _, results = batch
        assert [r.converged for r in results] == [True, False, False, False, False]
        assert all(r.cycles == r.max_cycles == 300 for r in results[1:])

    def test_matches_einsum_reference(self, batch):
        matrices, results = batch
        for m, seed, res in zip(matrices, self.SEEDS, results):
            values, cycles = _reference_seesaw(m, self.RESTARTS, seed)
            assert res.min_value == pytest.approx(values.min(), abs=1e-12)
            assert res.cycles == cycles
            assert pairing(res.argmin.projector(), m) == pytest.approx(res.min_value, abs=1e-12)

    def test_start_factors_equal_serial_draws(self, batch):
        # the reference draws each party's starting factors in turn; after one
        # cycle every restart's value is the reference's
        matrices, _ = batch
        for m, seed in zip(matrices, self.SEEDS):
            values, _, _ = _seesaw(m, self.RESTARTS, seed, 1)
            assert values == pytest.approx(_reference_seesaw(m, self.RESTARTS, seed, 1)[0], abs=1e-12)


class TestMotivatingSum:
    def test_alpha_zero(self):
        ms = motivating_sum(0.0)
        expect = np.zeros((4, 4))
        expect[2, 2] = 1.0
        assert np.array_equal(ms.a, expect)
        assert np.array_equal(ms.b, expect)
        assert ms.total[2, 2] == 2.0
        assert np.count_nonzero(ms.total) == 1

    def test_alpha_one(self):
        ms = motivating_sum(1.0)
        assert ms.a[1, 1] == 4.0
        assert ms.b[1, 1] == 0.0
        assert ms.total[1, 1] == 4.0
        assert ms.total[1, 2] == 2.0
        assert ms.total[0, 3] == 0.0

    def test_displayed_total(self):
        al = 0.3 - 1.2j
        ms = motivating_sum(al)
        d = np.conj(al) - al
        s = np.conj(al) + al
        assert ms.total[0, 3] == pytest.approx(d)
        assert ms.total[3, 0] == pytest.approx(-d)
        assert ms.total[1, 1] == pytest.approx(4 * abs(al) ** 2)
        assert ms.total[1, 2] == pytest.approx(s)
        assert ms.total[2, 2] == pytest.approx(2.0)

    def test_summands_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            al = complex(*rng.standard_normal(2))
            ms = motivating_sum(al)
            assert herm_min_eig(ms.a) >= -1e-12
            assert herm_min_eig(ms.b) >= -1e-12

    def test_total_is_linear_in_the_state(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            al = complex(*rng.standard_normal(2))
            assert np.max(np.abs(motivating_sum(al).total - motivating_linear_map(rank_one_p(al)))) <= 1e-12

    def test_three_point_collinearity_of_the_extension(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a1, a2 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lam = rng.uniform(-1.0, 2.0)
            blend = (1 - lam) * rank_one_p(a1) + lam * rank_one_p(a2)
            lhs = motivating_linear_map(blend)
            rhs = (1 - lam) * motivating_sum(a1).total + lam * motivating_sum(a2).total
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_alpha_parametrization_is_exactly_quadratic(self):
        # the second difference along alpha is 8|alpha|^2 at entry (1, 1),
        # so the total is linear in the state but not affine in alpha itself
        rng = np.random.default_rng(7)
        for _ in range(50):
            al = complex(*rng.standard_normal(2))
            diff = (
                motivating_sum(al).total
                + motivating_sum(-al).total
                - 2 * motivating_sum(0.0).total
            )
            expect = np.zeros((4, 4), dtype=complex)
            expect[1, 1] = 8 * abs(al) ** 2
            assert np.max(np.abs(diff - expect)) <= 1e-12

    def test_summands_alone_are_not_linear(self):
        # expanding P_alpha over the anchor states reproduces the total but
        # fails for the first summand alone
        anchors = [0.0, 1.0, -1.0, 1j]
        mats = [rank_one_p(a) for a in anchors]
        basis = np.array(
            [[m[0, 0].real, m[0, 1].real, m[0, 1].imag, m[1, 1].real] for m in mats]
        ).T
        al = 0.4 + 0.9j
        p = rank_one_p(al)
        coords = np.linalg.solve(
            basis, np.array([p[0, 0].real, p[0, 1].real, p[0, 1].imag, p[1, 1].real])
        )
        recon_total = sum(c * motivating_sum(a).total for c, a in zip(coords, anchors))
        recon_a = sum(c * motivating_sum(a).a for c, a in zip(coords, anchors))
        assert np.max(np.abs(recon_total - motivating_sum(al).total)) <= 1e-12
        assert np.max(np.abs(recon_a - motivating_sum(al).a)) > 1e-2


class TestXpartOfChoi:
    def test_witness_xpart(self):
        for s, t in ST_CASES:
            w = WitnessFamily(s, t)
            x = xpart(choi_explicit(w))
            assert np.array_equal(x.a, [0, 0, 0, t])
            assert np.array_equal(x.b, [0, 0, 0, s])
            assert np.array_equal(x.c, [1, 1, -1, 1])
            assert is_ghz_diagonal(x) == (s == t)


class TestRatioRange:
    @pytest.mark.parametrize("s", [1e-170, 1e160])
    def test_ratio_out_of_range_rejected(self, s):
        # s * t = 8 holds, but sqrt(s / t) under- or overflows
        with pytest.raises(ValueError, match="ratio"):
            WitnessFamily(s, 8.0 / s)


class TestPairingXProperty:
    @given(
        st.floats(math.log(1e-3), math.log(1e3)),
        st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16),
    )
    def test_matches_trace_pairing(self, log_s, parts):
        s = math.exp(log_s)
        w = WitnessFamily(s, 8.0 / s)
        x = XMatrix(parts[:4], parts[4:8], np.array(parts[8:12]) + 1j * np.array(parts[12:]))
        scale = max(w.s, w.t) * max(1.0, float(np.max(np.abs(parts))))
        assert pairing_x(x, w) == pytest.approx(
            pairing(x.to_matrix(), choi_explicit(w)), abs=1e-12 * scale
        )
