import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    ETA_TAGS,
    PV1_TAGS,
    ZETA_TAGS,
    KernelGrid,
    ProductVector,
    WitnessFamily,
    choi_explicit,
    dual_state,
    exposedness_certificate,
    find_ppt_entangled,
    kernel_classify,
    kernel_vector,
    kernel_vectors,
    pairing,
    ppt_check,
    product_vector_to_json,
    seesaw_minima,
    spanning_check,
)
from qxwit import certify, witness
from qxwit.certify import herm_to_vec, vec_to_herm
from qxwit.cli import main

SQRT2 = math.sqrt(2.0)

GRIDS = (KernelGrid.small(), KernelGrid.default(), KernelGrid.fine())


@pytest.fixture(scope="module")
def w():
    return WitnessFamily()


@pytest.fixture(scope="module")
def default_cert(w):
    return exposedness_certificate(w)


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

    @pytest.mark.parametrize("dim", [4, 16])
    def test_wrong_size_rejected(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        with pytest.raises(ValueError, match="8x8"):
            ppt_check((g + g.conj().T) / 2)


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


#: Every (a1, a2) pair that the small, default and fine grids sample.
ALL_GRID_PAIRS = sorted({(a1, a2) for g in GRIDS for _, a1, a2 in g.dual_params()})


class TestDualStateRedundancy:
    """Why the exposedness certificate has no dual-state constraint rows:
    each dual state is already in the span of the kernel projectors."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-6.0, 6.5))
    def test_dual_states_are_projector_averages(self, log_s):
        # each dual state is an exact average of the four matching curved
        # kernel projectors, scaled by 1/a1
        w = WitnessFamily(10.0**log_s, 8.0 / 10.0**log_s)
        for a1, a2 in ALL_GRID_PAIRS:
            for kind, tags in ((1, ETA_TAGS), (2, ZETA_TAGS)):
                avg = sum(kernel_vector(w, tag, (a1, a2)).projector() for tag in tags) / 4
                target = a1 * dual_state(w, kind, a1, a2).to_matrix()
                assert np.max(np.abs(avg - target)) <= 1e-13 * np.max(np.abs(target))


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

    @pytest.mark.parametrize(
        "name, full, flat", [("small", 68, 36), ("default", 120, 48), ("fine", 260, 60)]
    )
    def test_one_constraint_per_product_vector(self, monkeypatch, w, name, full, flat):
        # one row per fixed certificate member, 32 in place of the grid's
        # ``full`` kernel and basis vectors; the control has one per flat
        # kernel vector of the grid and per basis kernel vector; the dual
        # states are not read
        def fail(*args, **kwargs):
            raise AssertionError("exposedness read the dual states")

        monkeypatch.setattr(witness, "_dual_entries", fail)
        grid = KernelGrid.named(name)
        flat_ids = [tag for tag, _ in grid.kernel_ids() if tag in PV1_TAGS]
        cert = exposedness_certificate(w, grid)
        control = exposedness_certificate(w, grid, include_eta_zeta=False)
        assert len(kernel_vectors(w, grid)) + 6 == full
        assert cert.constraint_count == len(certify.CERTIFICATE_KERNEL_IDS) == 32
        assert control.constraint_count == len(flat_ids) + 6 == flat

    def test_flat_constraints_leave_more_survivors(self, w):
        cert = exposedness_certificate(w, include_eta_zeta=False)
        assert cert.surviving_ray_dim > 1
        assert not cert.certified

    def test_deterministic(self, w, default_cert):
        again = exposedness_certificate(w)
        assert again.nullspace_dim == default_cert.nullspace_dim
        assert again.direction_match_error == default_cert.direction_match_error
        assert [r.min_value for r in again.prune_records] == [
            r.min_value for r in default_cert.prune_records
        ]


def _fraction_x(a, b, c) -> list:
    """8x8 nested list of an X matrix with real rational fields, laid out as
    ``XMatrix``: b listed from 111 down to 100."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(4):
        m[i][i], m[7 - i][7 - i] = a[i], b[i]
        m[i][7 - i] = m[7 - i][i] = c[i]
    return m


def _fraction_pt(m, mask) -> list:
    """Partial transpose of an 8x8 nested list: transposing a party swaps its
    row and column bit."""
    out = [[None] * 8 for _ in range(8)]
    for r in range(8):
        for col in range(8):
            swap = (r ^ col) & mask
            out[r][col] = m[r ^ swap][col ^ swap]
    return out


#: Parameters on both sides of the detection threshold (1 - delta)^2 = 1/2,
#: delta = 1 - 1/sqrt 2 ~ 0.2929, and of the PPT threshold (1 - delta)^2 = 1;
#: past delta = 1 the anti-diagonal changes sign, and at 19/10 the state is
#: PPT with (1 - delta)^2 > 1/2 but pairs positively.
DELTAS = [Fraction(2, 11), Fraction(0), Fraction(1, 10), Fraction(29, 100),
          Fraction(3, 10), Fraction(1, 2), Fraction(-1, 10), Fraction(19, 10),
          Fraction(21, 10)]


class TestDetection:
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

    def test_asymmetric_witness(self):
        w = WitnessFamily(4.0, 2.0)
        cert = find_ppt_entangled(w, seed=0)
        assert cert.certified

    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_exact_at_s_equals_t(self, w, delta):
        rho = _fraction_x([Fraction(1, 8)] * 4, [Fraction(1, 8)] * 4,
                          [-(1 - delta) / 8 * k for k in (1, 1, -1, 1)])
        # Every partial transpose is an X matrix with diagonal 1/8 and
        # anti-diagonal of modulus |1 - delta| / 8, so its eigenvalues are
        # (1 +- (1 - delta)) / 8.
        spectrum = set()
        for mask in range(8):
            pt = _fraction_pt(rho, mask)
            for i in range(8):
                assert all(pt[i][j] == 0 for j in range(8) if j not in (i, 7 - i))
            for i in range(4):
                assert pt[i][i] == pt[7 - i][7 - i] == Fraction(1, 8)
                assert pt[i][7 - i] == pt[7 - i][i]
                assert abs(pt[i][7 - i]) == abs(1 - delta) / 8
                spectrum |= {pt[i][i] + pt[i][7 - i], pt[i][i] - pt[i][7 - i]}
        assert spectrum == {(1 + (1 - delta)) / 8, (1 - (1 - delta)) / 8}
        ppt = min(spectrum) >= 0
        assert ppt == ((1 - delta) ** 2 <= 1)
        # The pairing with C(2 sqrt 2, 2 sqrt 2) is 2 sqrt 2 q + r, q the
        # weight on 011 and 100 and r the anti-diagonal's part, both rational.
        q = rho[3][3] + rho[4][4]
        r = 2 * sum(k * rho[i][7 - i] for i, k in enumerate((1, 1, -1, 1)))
        detected = r < 0 and 8 * q * q < r * r
        assert detected == (1 - delta > 0 and (1 - delta) ** 2 > Fraction(1, 2))

        if delta == Fraction(*certify.DETECT_DELTA):
            assert certify.DETECT_EXACT is (ppt and detected) is True
            cert = find_ppt_entangled(w)
            assert cert.certified
            assert cert.to_json_dict()["delta"] == str(delta)
            assert np.max(np.abs(cert.rho - np.array(rho, dtype=float))) <= 1e-16

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-100.0, 100.0))
    def test_frame_image(self, log_s):
        # D rho_s D, times the trace of D^-1 rho_delta D^-1, is rho_delta
        s = 10.0**log_s
        t = 8.0 / s
        alpha2 = t / (2.0 * SQRT2)
        d = np.kron(np.diag([math.sqrt(alpha2), 1.0 / math.sqrt(alpha2)]), np.eye(4))
        rho = find_ppt_entangled(WitnessFamily(s, t)).rho
        want = find_ppt_entangled(WitnessFamily()).rho
        got = d @ rho @ d * (1.0 / alpha2 + alpha2) / 2.0
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_ball_radius(self, w):
        cert = find_ppt_entangled(w)
        c = choi_explicit(w)
        hs = np.linalg.norm(c)
        assert cert.ball_radius == pytest.approx(2.2673e-2, abs=1e-6)
        assert cert.ball_radius == pytest.approx(
            min(np.min(cert.min_pt_eigs), -cert.pairing_value / hs), rel=1e-12
        )
        # the pairing bound is attained along C: just inside stays detected
        for scale, detected in ((0.99, True), (1.01, False)):
            assert (pairing(cert.rho + scale * cert.ball_radius * c / hs, c) < 0.0) is detected
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (g + g.conj().T) / 2
            rho = cert.rho + 0.99 * cert.ball_radius * h / np.linalg.norm(h)
            assert pairing(rho, c) < 0.0
            assert np.min(ppt_check(rho).min_eigs) > 0.0

    @pytest.mark.parametrize("s", [1e-100, 1e12])
    def test_rounding_noise_at_the_curve_ends(self, s):
        # The exact smallest partial-transpose eigenvalue is about 1e-201 at
        # s = 1e-100 and 1e-24 at s = 1e12, so the computed one is rounding
        # noise of either sign.  It is judged against PT_ROUNDING.
        cert = find_ppt_entangled(WitnessFamily(s, 8.0 / s))
        assert abs(np.min(cert.min_pt_eigs)) < certify.PT_ROUNDING
        assert cert.certified

    @pytest.mark.parametrize("s", [1e-161, 1e-155, 3e154])
    def test_underflowing_frame_image_is_rejected(self, s):
        # at 1e-161 the entry a, about s**2 / 32, is 5e-324, and the emitted
        # matrix paired positively
        with pytest.raises(ValueError, match="smallest normal double"):
            find_ppt_entangled(WitnessFamily(s, 8.0 / s))

    @pytest.mark.parametrize("s", [1e-153, 1e153])
    def test_certified_next_to_the_rejected_range(self, s):
        cert = find_ppt_entangled(WitnessFamily(s, 8.0 / s))
        assert np.min(np.abs(np.diag(cert.rho))) >= np.finfo(float).tiny
        assert cert.certified


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

    def test_zero_factor_unclassified(self, w):
        result = kernel_classify(w, ProductVector([1, 1j], [0, 0], [1, 2]))
        assert result.family is None and result.residual == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_factor_rejected(self, w, capsys, tmp_path, bad):
        # a NaN or infinite entry, or a finite one whose norm overflows: no
        # RuntimeWarning first, and the CLI exits 2 with one error line
        v = ProductVector([bad, 1], [1, 1j], [1, 2])
        with pytest.raises(ValueError, match="finite"):
            kernel_classify(w, v)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(product_vector_to_json(v)))
        code = main(["classify", "--vector", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err

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

        rho = dual_state(w, 1, 0.5, 2.0).to_matrix()
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

    def test_overflowing_curved_estimate(self):
        # the moduli give (a1, a2) with a1 / a2 = 8e344, which has no finite
        # curved candidate; the third factor is off any member's by about 0.7
        w = WitnessFamily(1e-150, 8e150)
        v = ProductVector([1.0, 1e-11], [1e-11, 1.0], [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kernel_classify(w, v)
        assert result.family is None and result.params is None
        assert result.residual > 0.5
