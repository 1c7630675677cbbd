import math

import numpy as np
import pytest

from qxwit import (
    PV1_TAGS,
    KernelGrid,
    ProductVector,
    WitnessFamily,
    choi_explicit,
    dual_face_span,
    dual_state,
    exposedness_certificate,
    find_ppt_entangled,
    kernel_classify,
    kernel_vector,
    kernel_vectors,
    pairing,
    ppt_check,
    seesaw_minima,
    separable_anchor,
    spanning_check,
)
from qxwit.certify import herm_to_vec, vec_to_herm

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def w():
    return WitnessFamily()


@pytest.fixture(scope="module")
def default_cert(w):
    return exposedness_certificate(w, seed=0)


class TestEmbedding:
    def test_round_trip_and_isometry(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h1 = (g + g.conj().T) / 2
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h2 = (g + g.conj().T) / 2
        assert np.max(np.abs(vec_to_herm(herm_to_vec(h1)) - h1)) < 1e-14
        hs = np.trace(h1 @ h2).real
        assert herm_to_vec(h1) @ herm_to_vec(h2) == pytest.approx(hs, abs=1e-10)


class TestPPTCheck:
    def test_maximally_mixed(self):
        rep = ppt_check(np.eye(8) / 8)
        assert rep.is_ppt
        assert np.allclose(rep.min_eigs, 1 / 8)

    def test_pure_product_state(self):
        v = ProductVector([1, 0], [0, 1], [1, 0])
        rep = ppt_check(v.projector())
        assert rep.is_ppt

    def test_ghz_projector_not_ppt(self):
        # closed form: every proper partial transpose has eigenvalue -1/2
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / SQRT2
        rep = ppt_check(np.outer(ghz, ghz.conj()))
        assert not rep.is_ppt
        assert rep.min_eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.min_eigs[7] == pytest.approx(0.0, abs=1e-12)
        for mask in range(1, 7):
            assert rep.min_eigs[mask] == pytest.approx(-0.5, abs=1e-12)

    def test_complement_mirror(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        rep = ppt_check(h)
        for mask in range(8):
            assert rep.min_eigs[mask] == rep.min_eigs[7 - mask]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            ppt_check(np.triu(np.ones((8, 8))))


class TestSpanning:
    def test_default_grid_full_rank(self, w):
        report = spanning_check(w)
        assert report.all_full_rank
        for rec in report.records:
            assert rec.rank == 8
            margin = rec.smallest_kept_singular_value / rec.largest_singular_value
            assert margin >= 1e-6

    def test_pv1_only_rank_deficient(self, w):
        report = spanning_check(w, tags=PV1_TAGS)
        ranks = [rec.rank for rec in report.records]
        assert any(r < 8 for r in ranks)
        assert all(r == 6 for r in ranks)

    def test_rank_invariant_under_order_and_scale(self, w):
        # rank is invariant under permuting the stacked vectors and scaling
        grid = KernelGrid.small()
        vectors = kernel_vectors(w, grid)
        rng = np.random.default_rng(2)
        rows = np.array([v.full for v in vectors])
        base_rank = np.linalg.matrix_rank(rows, tol=1e-8)
        perm = rng.permutation(len(vectors))
        scales = rng.uniform(0.1, 10.0, len(vectors))
        scrambled = rows[perm] * scales[:, None]
        assert np.linalg.matrix_rank(scrambled, tol=1e-8) == base_rank

    def test_conjugation_free_case_matches_global(self, w):
        report = spanning_check(w)
        r_empty = report.records[0]
        r_full = report.records[7]
        assert r_empty.rank == r_full.rank

    def test_too_small_grid_rejected(self, w):
        tiny = KernelGrid(phase_count=1, ab_values=(), name="tiny")
        with pytest.raises(ValueError, match="kernel vectors"):
            spanning_check(w, tiny, tags=("00z",))


class TestDualFaceSpan:
    def test_contains_basis_projector(self, w):
        span = dual_face_span(w)
        p000 = np.zeros((8, 8), dtype=complex)
        p000[0, 0] = 1.0
        coeffs = [np.trace(b.conj().T @ p000).real for b in span.basis]
        recon = sum(c * b for c, b in zip(coeffs, span.basis))
        assert np.max(np.abs(recon - p000)) < 1e-9

    def test_dim_stable_under_refinement(self, w):
        dims = {
            grid.name: dual_face_span(w, grid).dim
            for grid in (KernelGrid.small(), KernelGrid.default(), KernelGrid.fine())
        }
        assert dims["small"] == dims["default"] == dims["fine"]

    def test_basis_annihilated_by_witness(self, w):
        span = dual_face_span(w)
        c = choi_explicit(w)
        for b in span.basis:
            assert abs(pairing(b, c)) <= 1e-9

    def test_basis_orthonormal(self, w):
        span = dual_face_span(w)
        vecs = np.array([herm_to_vec(b) for b in span.basis])
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(span.dim))) < 1e-10


class TestDualFaceSpanConditioning:
    """The dual-face dimension is a rank decision with a gap check: where the
    exposedness nullspace is refused as ill-conditioned, so is the span."""

    @pytest.mark.parametrize("s", [1e-7, 1e-6, 3e6, 1e7])
    def test_small_gap_raises(self, s):
        w = WitnessFamily(s, 8.0 / s)
        with pytest.raises(ValueError, match="ill-conditioned"):
            dual_face_span(w)
        with pytest.raises(ValueError, match="ill-conditioned"):
            exposedness_certificate(w, prune_restarts=1)

    @pytest.mark.parametrize("s", [1e-3, 2 * math.sqrt(2.0), 1e6])
    def test_dimension_along_the_curve(self, s):
        assert dual_face_span(WitnessFamily(s, 8.0 / s)).dim == 32


class TestDualStateRedundancy:
    def test_dual_states_are_projector_averages(self, w):
        # each dual state is an exact average of the four matching curved
        # kernel projectors, scaled by 1/a1
        for a1, a2 in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
            for kind, tags in ((1, ("eta1", "eta2", "eta3", "eta4")),
                               (2, ("zeta1", "zeta2", "zeta3", "zeta4"))):
                avg = sum(kernel_vector(w, tag, (a1, a2)).projector() for tag in tags) / 4
                target = a1 * dual_state(w, kind, a1, a2).to_matrix()
                assert np.max(np.abs(avg - target)) < 1e-12


class TestExposedness:
    def test_certified_on_default_grid(self, default_cert):
        assert default_cert.surviving_ray_dim == 1
        assert default_cert.direction_match_error < 1e-8
        assert default_cert.unpruned_directions == 0
        assert default_cert.certified

    def test_nullspace_contains_the_ray(self, default_cert):
        assert default_cert.nullspace_dim >= 1

    def test_pv4_diagonals_vanish_on_nullspace(self, default_cert):
        assert default_cert.pv4_diagonal_error <= 1e-10

    def test_survivor_structure(self, default_cert):
        assert default_cert.survivor_offx_error <= 1e-10
        assert default_cert.equality_case["z_pattern_error"] <= 1e-10
        assert default_cert.equality_case["balance_error"] <= 1e-10

    def test_every_direction_pruned_both_signs(self, default_cert):
        by_direction = {}
        for rec in default_cert.prune_records:
            by_direction.setdefault(rec.direction, []).append(rec)
        for recs in by_direction.values():
            assert len(recs) == 2
            assert {r.epsilon > 0 for r in recs} == {True, False}
            for r in recs:
                assert r.violated
                assert r.min_value < -1e-9

    def test_prune_values_reproducible(self, default_cert):
        for rec in default_cert.prune_records:
            again = pairing(rec.argmin.projector(), rec.perturbation)
            assert again == pytest.approx(rec.min_value, abs=1e-10)

    def test_flat_constraints_leave_more_survivors(self, w):
        cert = exposedness_certificate(
            w, include_eta_zeta=False, include_dual_states=False, seed=0
        )
        assert cert.surviving_ray_dim > 1
        assert not cert.certified

    def test_deterministic(self, w, default_cert):
        again = exposedness_certificate(w, seed=0)
        assert again.nullspace_dim == default_cert.nullspace_dim
        assert again.direction_match_error == default_cert.direction_match_error
        assert [r.min_value for r in again.prune_records] == [
            r.min_value for r in default_cert.prune_records
        ]


class TestPruneEarlyStop:
    """Count-based guard: prune see-saws stop at their first violating value
    instead of running every task to the 300-cycle cap."""

    def test_certificate_tasks_stop_within_five_cycles(self, default_cert):
        for rec in default_cert.prune_records:
            assert rec.stopped_below
            assert rec.cycles <= 5
            assert rec.to_json_dict()["cycles"] == rec.cycles

    def test_control_cycles_stay_far_below_the_cap(self, w):
        cert = exposedness_certificate(
            w, include_eta_zeta=False, include_dual_states=False, seed=0
        )
        assert sum(r.cycles for r in cert.prune_records) <= 10 * len(cert.prune_records)

    def test_certificate_runs_no_see_saw_cycle(self, default_cert):
        assert sum(r.cycles for r in default_cert.prune_records) == 0


class TestDetection:
    def test_anchor_is_interior_dual_face_point(self, w):
        anchor = separable_anchor(w)
        assert np.trace(anchor).real == pytest.approx(1.0, abs=1e-12)
        assert abs(pairing(anchor, choi_explicit(w))) <= 1e-9
        rep = ppt_check(anchor)
        assert rep.is_ppt
        assert np.min(rep.min_eigs) > 1e-4  # strictly inside the PPT cone

    def test_detects_ppt_entanglement(self, w):
        cert = find_ppt_entangled(w, seed=0)
        assert cert.certified
        assert np.all(cert.min_pt_eigs >= -1e-10)
        assert cert.pairing_value <= -1e-3
        assert np.trace(cert.rho).real == pytest.approx(1.0, abs=1e-10)

    def test_verdict_open_under_perturbations(self, w):
        cert = find_ppt_entangled(w, seed=0)
        c = choi_explicit(w)
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            noise = (g + g.conj().T) / 2
            noise *= 1e-5 / np.linalg.norm(noise)
            rho = cert.rho + noise
            assert pairing(rho, c) < 0.0
            assert ppt_check(rho).is_ppt

    def test_random_direction_mode(self, w):
        cert = find_ppt_entangled(w, seed=11, direction="random")
        assert cert.certified
        assert cert.pairing_value < 0.0

    def test_asymmetric_witness(self):
        w = WitnessFamily(4.0, 2.0)
        cert = find_ppt_entangled(w, seed=0)
        assert cert.certified

    def test_bad_direction_rejected(self, w):
        with pytest.raises(ValueError):
            find_ppt_entangled(w, direction="sideways")


class TestKernelClassify:
    def test_round_trip_all_families(self, w):
        grid = KernelGrid.default()
        for tag, params in grid.kernel_ids():
            v = kernel_vector(w, tag, params)
            result = kernel_classify(w, v)
            assert result.family is not None
            # the phase-distance metric floors at sqrt(machine eps)
            assert result.residual <= 1e-7
            endpoint = tag in PV1_TAGS and np.min(np.abs(np.asarray(params))) == 0.0
            if not endpoint:
                # identity on tags away from the basis endpoints, where flat
                # families overlap pairwise
                assert result.family == tag
            member = kernel_vector(
                w,
                result.family,
                np.array(result.params) if result.family in PV1_TAGS else result.params,
            )
            overlap = abs(np.vdot(member.unit().full, v.unit().full))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_eta2_parameter_recovery(self, w):
        v = kernel_vector(w, "eta2", (2.0, 0.5))
        result = kernel_classify(w, v)
        assert result.family == "eta2"
        assert result.params[0] == pytest.approx(2.0, abs=1e-9)
        assert result.params[1] == pytest.approx(0.5, abs=1e-9)

    def test_flat_family_detected(self, w):
        v = ProductVector([1, 0], [1, 0], [0.3, 2.0 - 1.0j])
        result = kernel_classify(w, v)
        assert result.family == "00z"

    def test_scale_and_phase_invariance(self, w):
        v = kernel_vector(w, "zeta3", (0.7, 1.9))
        scaled = ProductVector(
            3.0 * np.exp(0.4j) * v.x, 0.2 * np.exp(-1.1j) * v.y, np.exp(2.9j) * v.z
        )
        result = kernel_classify(w, scaled)
        assert result.family == "zeta3"
        assert result.params[0] == pytest.approx(0.7, abs=1e-9)

    def test_non_kernel_vector_unclassified(self, w):
        result = kernel_classify(w, ProductVector([1, 1], [1, 1], [1, 1]))
        assert result.family is None
        assert result.residual > 1e-3

    def test_seesaw_minima_all_classify(self, w):
        # statistical completeness of the family enumeration
        values, vectors = seesaw_minima(choi_explicit(w), restarts=10_000, seed=3)
        assert float(np.max(values)) < 1e-9
        unclassified = sum(
            1 for val, v in zip(values, vectors) if val < 1e-9 and kernel_classify(w, v).family is None
        )
        assert unclassified == 0


class TestEmbeddingStacks:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
        hs = (g + g.conj().transpose(0, 2, 1)) / 2
        vecs = herm_to_vec(hs)
        assert vecs.shape == (5, 64)
        assert np.array_equal(vecs, [herm_to_vec(h) for h in hs])
        assert np.array_equal(vec_to_herm(vecs), [vec_to_herm(v) for v in vecs])


class TestPPTCheckOnce:
    def test_one_hermiticity_check_per_call(self, monkeypatch, w):
        from qxwit import certify, qcore

        rho = separable_anchor(w)
        expected = ppt_check(rho)
        calls = []
        check = qcore.check_hermitian

        def counting(m, *args, **kwargs):
            calls.append(1)
            return check(m, *args, **kwargs)

        monkeypatch.setattr(qcore, "check_hermitian", counting)
        monkeypatch.setattr(certify, "check_hermitian", counting)
        report = ppt_check(rho)
        assert len(calls) == 1
        assert np.array_equal(report.min_eigs, expected.min_eigs)

    def test_min_eigs_match_each_partial_transpose(self):
        from qxwit import SUBSETS, herm_min_eig, partial_transpose

        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (g + g.conj().T) / 2
            report = ppt_check(h)
            for mask, subset in enumerate(SUBSETS):
                direct = herm_min_eig(partial_transpose(h, subset))
                if mask < 4:
                    assert report.min_eigs[mask] == direct
                else:
                    assert report.min_eigs[mask] == pytest.approx(direct, abs=1e-12)


class TestClassifyAtRangeEnds:
    @pytest.mark.parametrize("s", [1e-150, 1e150])
    def test_no_candidate_fit_raises(self, s):
        # sqrt(s / t) is a finite positive double here, so every curved-family
        # estimate is a pair of positive reals that kernel_vector accepts
        w = WitnessFamily(s, 8.0 / s)
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            assert kernel_classify(w, ProductVector(*f)).family is None
        flat = kernel_vector(w, "x01", np.array([1.0, 1j]))
        assert kernel_classify(w, flat).family == "x01"
