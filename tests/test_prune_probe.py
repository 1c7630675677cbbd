"""The exposedness prune probe, the non-finite input check and the see-saw
argmin window."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import (
    KernelGrid,
    WitnessFamily,
    check_hermitian,
    choi_explicit,
    exposedness_certificate,
    kernel_vector,
    matrix_to_json,
    min_product_value,
    pairing,
    ppt_check,
)
from qxwit import ProductVector, certify, witness
from qxwit.certify import (
    PRUNE_STEP,
    PRUNE_VIOLATION,
    RANK_THRESHOLD,
    PruneRecord,
    herm_to_vec,
    vec_to_herm,
    _rank,
)
from qxwit.cli import main
from qxwit.qcore import tensor3
from qxwit.witness import (
    PV1_TAGS,
    _PV4_FACTORS,
    _effective,
    _kernel_table,
    _min_eigpair,
)

SQRT2 = math.sqrt(2.0)


def curve(s: float) -> WitnessFamily:
    return WitnessFamily(s, 8.0 / s)


GRIDS = {"small": KernelGrid.small(), "default": KernelGrid.default(), "fine": KernelGrid.fine()}


class TestProbeSettlesCertificates:
    """The closed-form probe is the only falsification route, so for log10 s
    in [-5, 5.5] and on every grid it must take every perturbation below the
    threshold by itself."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(GRIDS)), st.floats(-5.0, 5.5))
    def test_every_record_from_the_probe(self, grid, log_s):
        w = curve(10.0**log_s)
        cert = exposedness_certificate(w, grid=GRIDS[grid])
        scale = float(np.max(np.abs(choi_explicit(w))))
        assert cert.certified
        for rec in cert.prune_records:
            assert rec.violated and rec.min_value < PRUNE_VIOLATION
            norms = [np.linalg.norm(f) for f in rec.argmin.factors()]
            assert norms == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
            again = pairing(rec.argmin.projector(), rec.perturbation)
            assert again == pytest.approx(rec.min_value, abs=1e-12 * scale)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(GRIDS)), st.floats(-5.0, 5.5))
    def test_control_settled_too(self, grid, log_s):
        cert = exposedness_certificate(
            curve(10.0**log_s), grid=GRIDS[grid], include_eta_zeta=False
        )
        assert cert.unpruned_directions == 0 and not cert.certified
        assert all(rec.violated for rec in cert.prune_records)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(GRIDS)),
        st.floats(-5.0, 5.5).map(lambda e: 10.0**e),
        st.booleans(),
    )
    # the part of C outside the computed nullspace gives perp a 32nd singular
    # value here, 1.4e-10: rounding, not a direction
    @example("default", 2e6, False)
    def test_one_direction_per_nullspace_dimension_but_the_ray(self, grid, s, flat):
        cert = exposedness_certificate(curve(s), grid=GRIDS[grid], include_eta_zeta=not flat)
        assert len(cert.prune_records) == 2 * (cert.nullspace_dim - 1)
        assert sorted({rec.direction for rec in cert.prune_records}) == list(
            range(cert.nullspace_dim - 1)
        )

    def test_no_see_saw_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("exposedness ran a see-saw")

        monkeypatch.setattr(witness, "_seesaw", fail)
        for flat in (False, True):
            exposedness_certificate(WitnessFamily(), include_eta_zeta=not flat)

    @pytest.mark.parametrize("s", [2 * SQRT2, 0.5])
    def test_open_perturbations_withhold_the_certificate(self, monkeypatch, s):
        # At a step far below PRUNE_STEP the probe leaves perturbations open;
        # they must count as unpruned, never as settled.
        monkeypatch.setattr(certify, "PRUNE_STEP", 1e-4)
        cert = exposedness_certificate(curve(s), grid=KernelGrid.small())
        open_directions = {
            rec.direction for rec in cert.prune_records if rec.min_value >= PRUNE_VIOLATION
        }
        assert open_directions
        assert all(rec.violated == (rec.min_value < PRUNE_VIOLATION) for rec in cert.prune_records)
        assert cert.unpruned_directions == len(open_directions)
        assert not cert.certified


# --- the probe and its records against the eager implementation they replace --

#: The probe as it was before it reused its buffers, kept as an oracle: with
#: the row order of ``_party_rows`` at the time (each matrix's rows for m00,
#: m11 and m01, in turn), and an entry array allocated per party.
_REFERENCE_PARTY_AXES = ((0, 3, 1, 2, 4, 5), (1, 4, 0, 2, 3, 5), (2, 5, 0, 1, 3, 4))


def _reference_party_rows(c8: np.ndarray) -> list:
    c6 = c8.reshape((-1,) + (2,) * 6)
    return [
        c6.transpose(0, *(1 + a for a in axes)).reshape(-1, 4, 16)[:, [0, 3, 1]].reshape(-1, 16)
        for axes in _REFERENCE_PARTY_AXES
    ]


def _reference_probe(x: np.ndarray, perts: np.ndarray) -> tuple:
    tasks, n = len(perts), len(x)
    pick = np.arange(tasks)
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    columns = unit.transpose(1, 2, 0)  # (party, component, x)
    work = np.empty((16, n), dtype=complex)
    best_x, best_value = np.empty((3, tasks), dtype=int), np.empty((3, tasks))
    best_entries = np.empty((3, 3, tasks), dtype=complex)
    # entries scaled to at most 1, so that the squares below cannot overflow
    scaled = perts / np.max(np.abs(perts), initial=1.0)
    for p, rows in enumerate(_reference_party_rows(scaled)):
        partners = np.delete(columns, p, axis=0)
        entries = _effective(rows, *partners, work).reshape(tasks, 3, n)
        m00, m11, m01 = entries.real[:, 0], entries.real[:, 1], entries[:, 2]
        half = 0.5 * (m00 - m11)
        lowest = 0.5 * (m00 + m11) - np.sqrt(half * half + np.abs(m01) ** 2)
        best_x[p] = np.argmin(lowest, axis=1)
        best_value[p] = lowest[pick, best_x[p]]
        best_entries[p] = entries[pick, :, best_x[p]].T
    party = np.argmin(best_value, axis=0)
    probe = unit[best_x[party, pick]]
    current = probe[pick, party].T
    probe[pick, party] = _min_eigpair(best_entries[party, :, pick].T, current)[1].T
    psi = tensor3(probe[:, 0], probe[:, 1], probe[:, 2])
    return probe, np.einsum("ti,tij,tj->t", psi.conj(), perts, psi).real


def _reference_records(grid, include_eta_zeta=True) -> tuple:
    """The prune records as the certificate built them eagerly, from the
    zero-value rows of ``herm_to_vec`` of the projector stack, in the frame
    s = t whatever the certificate's s: the fixed certificate members, one
    ``kernel_vector`` each, or the grid's flat members and the basis kernel
    vectors."""
    w0 = WitnessFamily()
    choi = choi_explicit(w0)
    if include_eta_zeta:
        ids = certify.CERTIFICATE_KERNEL_IDS
        x = np.array([kernel_vector(w0, tag, p).factors() for tag, p in ids]).conj()
    else:
        x = np.concatenate([_kernel_table(w0, grid, PV1_TAGS), _PV4_FACTORS]).conj()
    full = tensor3(*x.swapaxes(0, 1))
    rows = herm_to_vec(full[:, :, None] * full[:, None, :].conj())
    _, sv, vt = np.linalg.svd(rows, full_matrices=len(rows) < 64)
    null_basis = vt[_rank(sv, RANK_THRESHOLD) :]
    cvec = herm_to_vec(choi)
    cunit = cvec / np.linalg.norm(cvec)
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    directions = vec_to_herm(np.linalg.svd(perp, full_matrices=False)[2][: len(null_basis) - 1])
    task_direction = np.repeat(np.arange(len(directions)), 2)
    task_eps = np.tile([PRUNE_STEP, -PRUNE_STEP], len(directions))
    perts = choi + task_eps[:, None, None] * directions[task_direction]
    probe, probe_values = _reference_probe(x, perts)
    return tuple(
        PruneRecord(
            direction=k,
            epsilon=eps,
            min_value=value,
            argmin=ProductVector(*f),
            violated=value < PRUNE_VIOLATION,
            perturbation=pert,
        )
        for k, eps, pert, value, f in zip(
            task_direction.tolist(), task_eps.tolist(), perts, probe_values.tolist(), probe.conj()
        )
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProbeAgainstReference:
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0, 1e-4, 1e5])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_factors_and_values_bitwise(self, monkeypatch, grid, s, flat):
        calls = []
        probe = certify._prune_probe

        def spy(x, perts):
            calls.append((x, perts, probe(x, perts)))
            return calls[-1][2]

        monkeypatch.setattr(certify, "_prune_probe", spy)
        exposedness_certificate(curve(s), grid=GRIDS[grid], include_eta_zeta=not flat)
        [(x, perts, (factors, values))] = calls
        ref_factors, ref_values = _reference_probe(x, perts)
        assert _same_bits(factors, ref_factors)
        assert _same_bits(values, ref_values)


_JSON_KEYS = {
    "certified",
    "constraint_count",
    "direction_match_error",
    "equality_case",
    "grid",
    "nullspace_dim",
    "pv4_diagonal_error",
    "s",
    "surviving_ray_dim",
    "survivor_offx_error",
    "t",
    "tol",
    "unpruned_directions",
}


class TestRecordsOnDemand:
    @pytest.mark.parametrize("flat, code", [(False, 0), (True, 1)])
    def test_cli_builds_no_record(self, capsys, monkeypatch, flat, code):
        def fail(*args, **kwargs):
            raise AssertionError("a prune record was built")

        monkeypatch.setattr(certify, "PruneRecord", fail)
        argv = ["certify", "exposedness"] + (["--drop-curved-constraints"] if flat else [])
        assert main(argv) == code
        assert set(json.loads(capsys.readouterr().out)) == _JSON_KEYS

    def test_second_access_same_object(self):
        cert = exposedness_certificate(WitnessFamily(), grid=KernelGrid.small())
        assert cert.prune_records is cert.prune_records

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0])
    @pytest.mark.parametrize("grid", ["small", "default"])
    def test_equal_to_eager_records(self, grid, s, flat):
        w = curve(s)
        cert = exposedness_certificate(w, grid=GRIDS[grid], include_eta_zeta=not flat)
        records, reference = cert.prune_records, _reference_records(GRIDS[grid], not flat)
        assert len(records) == len(reference)
        for rec, ref in zip(records, reference):
            assert rec.direction == ref.direction and rec.violated == ref.violated
            assert rec.epsilon == ref.epsilon
            assert type(rec.direction) is int and type(rec.epsilon) is float
            assert _same_bits(np.float64(rec.min_value), np.float64(ref.min_value))
            for f, g in zip(rec.argmin.factors(), ref.argmin.factors()):
                assert _same_bits(f, g)
            assert _same_bits(rec.perturbation, ref.perturbation)

    def test_json_keys_unchanged(self):
        cert = exposedness_certificate(WitnessFamily(), grid=KernelGrid.small())
        assert set(cert.to_json_dict()) == _JSON_KEYS
        cert.prune_records
        assert set(cert.to_json_dict()) == _JSON_KEYS


def _with(value, i=0, j=0):
    m = np.eye(8, dtype=complex) / 8.0
    m[i, j] = value
    return m


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_check_hermitian(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(_with(value))

    def test_symmetric_infinities(self):
        m = _with(math.inf, 0, 1)
        m[1, 0] = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(m)
        with pytest.raises(ValueError, match="non-finite"):
            min_product_value(m, 2)

    def test_seesaw(self):
        with pytest.raises(ValueError, match="non-finite"):
            min_product_value(_with(math.nan), 2)

    def test_ppt_check_and_pairing(self):
        with pytest.raises(ValueError, match="non-finite"):
            ppt_check(_with(math.nan))
        with pytest.raises(ValueError, match="non-finite"):
            pairing(_with(math.nan), choi_explicit(WitnessFamily()))

    def test_cli_pairing_exits_two(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(matrix_to_json(_with(math.nan))))  # writes a NaN literal
        code = main(["pairing", "--rho", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestArgminWindow:
    """Restarts that all end on the zero set differ only by rounding, so a
    rounding-level change to the matrix keeps the reported restart."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0])
    def test_rounding_change_keeps_argmin(self, s, seed):
        c = choi_explicit(curve(s))
        before = min_product_value(c, 200, seed)
        after = min_product_value(c * (1.0 + 2.0**-50), 200, seed)
        assert abs(np.vdot(before.argmin.unit().full, after.argmin.unit().full)) == pytest.approx(
            1.0, abs=1e-10
        )
