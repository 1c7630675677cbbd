"""The exposedness prune probe, the non-finite input check and the see-saw
argmin window."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

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
    EXACT_PRIME,
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
from qxwit.witness import PV1_TAGS, _PV4_FACTORS, _kernel_table, _pauli_tensor

SQRT2 = math.sqrt(2.0)


def curve(s: float) -> WitnessFamily:
    return WitnessFamily(s, 8.0 / s)


GRIDS = {"small": KernelGrid.small(), "default": KernelGrid.default(), "fine": KernelGrid.fine()}

#: Input s along the curve t = 8 / s.  Every exposedness stage runs at s = t
#: whatever the input, so each check made there must hold at each of these.
ON_THE_CURVE = [0.5, 2 * SQRT2, 16.0]


class TestProbeSettlesCertificates:
    """The closed-form probe is the only falsification route, so it must take
    every perturbation below the threshold by itself, and on every grid's
    control inputs too.  Every exposedness stage runs at s = t whatever the
    input s, so these run there; ``TestFrameIdentity`` checks the verdicts
    along the curve."""

    @pytest.mark.parametrize("s", ON_THE_CURVE)
    def test_every_record_from_the_probe(self, s):
        cert = exposedness_certificate(curve(s))
        # the records hold the perturbations of the frame's Choi matrix
        scale = float(np.max(np.abs(choi_explicit(WitnessFamily()))))
        assert cert.certified
        for rec in cert.prune_records:
            assert rec.violated and rec.min_value < PRUNE_VIOLATION
            norms = [np.linalg.norm(f) for f in rec.argmin.factors()]
            assert norms == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
            again = pairing(rec.argmin.projector(), rec.perturbation)
            assert again == pytest.approx(rec.min_value, abs=1e-12 * scale)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_control_settled_too(self, grid):
        # The first-order route refuses the control, so it runs no probe; on
        # the control's inputs the probe still settles every perturbation.
        cert = exposedness_certificate(WitnessFamily(), include_eta_zeta=False)
        assert cert.unpruned_directions is None and not cert.certified
        assert cert.prune_records == ()
        x, _, _, perts = _reference_inputs(GRIDS[grid], include_eta_zeta=False)
        _, values = certify._prune_probe(certify._probe_starts(x), _pauli_tensor(perts))
        assert len(values) == 2 * (cert.nullspace_dim - 1)
        assert np.all(values < PRUNE_VIOLATION)

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("s", ON_THE_CURVE)
    def test_one_direction_per_nullspace_dimension_but_the_ray(self, s, flat):
        cert = exposedness_certificate(curve(s), include_eta_zeta=not flat)
        if flat:
            assert cert.prune_records == ()
            cert = dataclasses.replace(cert, **_control_falsification())
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
        cert = exposedness_certificate(curve(s))
        open_directions = {
            rec.direction for rec in cert.prune_records if rec.min_value >= PRUNE_VIOLATION
        }
        assert open_directions
        assert all(rec.violated == (rec.min_value < PRUNE_VIOLATION) for rec in cert.prune_records)
        assert cert.unpruned_directions == len(open_directions)
        assert not cert.certified


# --- the probe and its records against an eigh oracle ------------------------


def _effective_matrices(perts: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Every party's effective 2x2 matrices (party, task, x, 2, 2) of a stack
    of matrices (task, 8, 8) at unit product vectors f (x, party, 2): the
    form <i, f|M|j, f> with the party's basis vectors i, j in its slot."""
    m6 = perts.reshape((-1,) + (2,) * 6)
    a, b, c = f[:, 0], f[:, 1], f[:, 2]
    return np.stack(
        [
            np.einsum("mabcdef,nb,nc,ne,nf->mnad", m6, b.conj(), c.conj(), b, c, optimize=True),
            np.einsum("mabcdef,na,nc,nd,nf->mnbe", m6, a.conj(), c.conj(), a, c, optimize=True),
            np.einsum("mabcdef,na,nb,nd,ne->mncf", m6, a.conj(), b.conj(), a, b, optimize=True),
        ]
    )


def _reference_probe(x: np.ndarray, perts: np.ndarray) -> tuple:
    """The probe from numpy's eigh on the explicit effective matrices, sharing
    no code with the engine.  Every (party, task, x) moves that party's
    factor of x to its effective matrix's lowest eigenvector, or keeps it
    where the eigenvalue gap is at most 1e-14 of the matrix's largest entry.

    Returns, per task, the unit factors (party, 2) of the first move of
    lowest eigenvalue in (party, x) order, the form of the task's matrix
    there, and the full product vectors (k, 8) of every move whose
    eigenvalue is within 1e-14 max|perts| of the lowest."""
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    m = _effective_matrices(perts, unit)
    lam, vecs = np.linalg.eigh(m)
    keep = lam[..., 1] - lam[..., 0] <= 1e-14 * np.max(np.abs(m), axis=(-2, -1))
    own = np.broadcast_to(unit.transpose(1, 0, 2)[:, None], keep.shape + (2,))
    moved = np.where(keep[..., None], own, vecs[..., 0])  # (party, task, x, 2)
    tol = 1e-14 * np.max(np.abs(perts))
    factors, values, near = [], [], []
    for task, pert in enumerate(perts):
        lowest = lam[:, task, :, 0]
        candidates = []
        for party, k in np.argwhere(lowest <= lowest.min() + tol):
            f = unit[k].copy()
            f[party] = moved[party, task, k]
            candidates.append(f)
        psi = tensor3(*candidates[0])
        factors.append(candidates[0])
        values.append(np.vdot(psi, pert @ psi).real)
        near.append(np.array([tensor3(*f) for f in candidates]))
    return np.array(factors), np.array(values), near


def _assert_probe_matches(factors, values, perts, ref_factors, ref_values, near):
    """Values within 1e-14 max|perts| of the oracle's, and each product
    vector, as a projector, one of the oracle's lowest moves."""
    assert factors.shape == ref_factors.shape and values.shape == ref_values.shape
    assert np.max(np.abs(values - ref_values)) <= 1e-14 * np.max(np.abs(perts))
    for f, candidates in zip(factors, near):
        overlaps = np.abs(candidates.conj() @ tensor3(*f))
        assert np.max(overlaps) == pytest.approx(1.0, abs=1e-13)


def _qr_completion(rows: np.ndarray, cunit: np.ndarray) -> np.ndarray:
    """The prune directions as the certificate takes them: Q's columns m + 1
    on of the complete QR of [rows; C]^T, for m independent rows, are an
    orthonormal basis of N less C."""
    return np.linalg.qr(np.vstack([rows, cunit]).T, mode="complete")[0][:, len(rows) + 1 :].T


def _svd_completion(null_basis: np.ndarray, cunit: np.ndarray) -> np.ndarray:
    """The same subspace from the SVD of N with C projected out: the last
    singular value of perp is only the part of C outside the computed N."""
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    return np.linalg.svd(perp, full_matrices=False)[2][: len(null_basis) - 1]


def _reference_rows(grid, include_eta_zeta=True) -> tuple:
    """The conjugated product vectors x, the fixed certificate members, one
    ``kernel_vector`` each; for the control, with ``grid`` None the fixed
    control members, or else the grid's flat members and the basis kernel
    vectors; all in the frame s = t whatever the certificate's s.  And their
    zero-value rows, ``herm_to_vec`` of the projector stack."""
    w0 = WitnessFamily()
    if include_eta_zeta or grid is None:
        ids = certify.CERTIFICATE_KERNEL_IDS if include_eta_zeta else certify.CONTROL_KERNEL_IDS
        x = np.array([kernel_vector(w0, tag, p).factors() for tag, p in ids]).conj()
    else:
        x = np.concatenate([_kernel_table(w0, grid, PV1_TAGS), _PV4_FACTORS]).conj()
    full = tensor3(*x.swapaxes(0, 1))
    return x, herm_to_vec(full[:, :, None] * full[:, None, :].conj())


def _reference_nullspace(grid, include_eta_zeta=True) -> tuple:
    """x of ``_reference_rows``, and the basis of the nullspace of their
    zero-value rows from the rows' SVD, a route that shares nothing with
    the certificate's QR."""
    x, rows = _reference_rows(grid, include_eta_zeta)
    _, sv, vt = np.linalg.svd(rows, full_matrices=len(rows) < 64)
    return x, vt[_rank(sv) :]


def _reference_inputs(grid, include_eta_zeta=True, qr=False) -> tuple:
    """The probe's inputs as the certificate built them eagerly: the
    conjugated product vectors x, and per signed perturbation its direction,
    step and matrix.  The directions come from the SVD of perp on the SVD
    nullspace, or with ``qr`` from the QR of the fixed members' rows, as the
    certificate takes them, and then the perturbations are built in
    ``herm_to_vec`` coordinates as the certificate builds them."""
    x, null_basis = _reference_nullspace(grid, include_eta_zeta)
    choi = choi_explicit(WitnessFamily())
    cvec = herm_to_vec(choi)
    cunit = cvec / np.linalg.norm(cvec)
    task_direction = np.repeat(np.arange(len(null_basis) - 1), 2)
    task_eps = np.tile([PRUNE_STEP, -PRUNE_STEP], len(null_basis) - 1)
    if qr:
        directions = _qr_completion(_reference_rows(grid, include_eta_zeta)[1], cunit)
        perts = vec_to_herm(cvec + task_eps[:, None] * directions[task_direction])
    else:
        directions = vec_to_herm(_svd_completion(null_basis, cunit))
        perts = choi + task_eps[:, None, None] * directions[task_direction]
    return x, task_direction, task_eps, perts


def _reference_records(grid, include_eta_zeta=True) -> tuple:
    """The prune records of ``_reference_inputs``, on the QR directions, as
    the certificate built them eagerly.  The probe is the eigh oracle, whose
    lowest moves per record come first."""
    x, task_direction, task_eps, perts = _reference_inputs(grid, include_eta_zeta, qr=True)
    probe, probe_values, near = _reference_probe(x, perts)
    return near, tuple(
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


def _control_falsification() -> dict:
    """The falsification stage run on the flat-only control's nullspace,
    which the control itself skips once its first-order rank refuses it."""
    starts, rows, (zero_rank, _) = certify._constraint_vectors(include_eta_zeta=False)
    null_basis, _ = certify._zero_value_nullspace(rows, zero_rank)
    return certify._falsification(starts, null_basis)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProbeAgainstReference:
    # Only the control's reference reads a grid: the certificate's probe runs
    # on the fixed members whatever the grid, so it runs once per s.
    @pytest.mark.parametrize(
        "grid, flat",
        [pytest.param(None, False, id="certificate")]
        + [pytest.param(grid, True, id=f"control-{grid}") for grid in sorted(GRIDS)],
    )
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0, 1e-4, 1e5])
    def test_factors_and_values(self, monkeypatch, s, grid, flat):
        calls = []
        probe = certify._prune_probe

        def spy(starts, tensors):
            calls.append((starts, probe(starts, tensors)))
            return calls[-1][1]

        monkeypatch.setattr(certify, "_prune_probe", spy)
        cert = exposedness_certificate(curve(s), include_eta_zeta=not flat)
        # the matrices whose tensors the probe was given
        perts = np.array([rec.perturbation for rec in cert.prune_records])
        if flat:
            # the control runs no probe; check it on the control's inputs
            assert calls == []
            x, _, _, perts = _reference_inputs(GRIDS[grid], include_eta_zeta=False)
            spy(certify._probe_starts(x), _pauli_tensor(perts))
        # the oracle starts from the unit factors the probe started from
        [((unit, _), (factors, values))] = calls
        _assert_probe_matches(factors, values, perts, *_reference_probe(unit, perts))

    def test_multiple_of_the_identity_keeps_the_factor(self):
        # every effective matrix is 2 I, so every move is optimal and the
        # first x's factor stays, up to phase
        x = np.random.default_rng(7).standard_normal((5, 3, 2, 2)) @ [1.0, 1j]
        perts = 2.0 * np.eye(8, dtype=complex)[None]
        factors, values = certify._prune_probe(certify._probe_starts(x), _pauli_tensor(perts))
        _assert_probe_matches(factors, values, perts, *_reference_probe(x, perts))
        unit = x[0] / np.linalg.norm(x[0], axis=-1, keepdims=True)
        assert abs(np.vdot(tensor3(*unit), tensor3(*factors[0]))) == pytest.approx(1.0, abs=1e-15)
        assert values[0] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("flat", [False, True])
    def test_tensors_are_those_of_the_perturbations(self, monkeypatch, flat):
        calls = []
        probe = certify._prune_probe
        monkeypatch.setattr(certify, "_prune_probe", lambda *args: calls.append(args) or probe(*args))
        exposedness_certificate(WitnessFamily(), include_eta_zeta=not flat)
        if flat:
            # the control stops before the falsification; run that stage alone
            assert calls == []
            _control_falsification()
        [(_, tensors)] = calls
        # the perturbations as the certificate's records hold them, bit for bit
        perts = _reference_inputs(None, not flat, qr=True)[3]
        assert np.max(np.abs(tensors - _pauli_tensor(perts))) <= 1e-15 * np.max(np.abs(perts))


class TestQRNullspace:
    """The basis of N, the survivor and the prune directions from the QR of
    the certificate's and the control's rows, against the nullspace of the
    rows' SVD: on the fixed members' own rows and, for the control, on every
    grid's flat members and basis kernel vectors, whose rows span the same
    space."""

    @pytest.mark.parametrize(
        "flat, grid",
        [pytest.param(False, None, id="certificate"), pytest.param(True, None, id="control")]
        + [pytest.param(True, grid, id=f"control-{grid}") for grid in sorted(GRIDS)],
    )
    def test_against_the_svd_nullspace(self, flat, grid):
        _, rows, (zero_rank, _) = certify._constraint_vectors(not flat)
        null_basis, _ = certify._zero_value_nullspace(rows, zero_rank)
        _, svd_basis = _reference_nullspace(GRIDS.get(grid), not flat)
        cvec = herm_to_vec(choi_explicit(WitnessFamily()))
        cunit = cvec / np.linalg.norm(cvec)
        assert null_basis.shape == svd_basis.shape == (64 - zero_rank, 64)
        # an orthonormal basis that the rows annihilate
        assert np.max(np.abs(null_basis @ null_basis.T - np.eye(len(null_basis)))) <= 1e-14
        assert np.max(np.abs(rows @ null_basis.T)) <= 1e-14 * np.max(np.abs(rows))
        # the survivor, up to sign, is C, and the directions are orthogonal to it
        survivor = math.copysign(1.0, null_basis[0] @ cunit) * null_basis[0]
        assert np.linalg.norm(survivor - cunit) < RANK_THRESHOLD
        assert np.max(np.abs(null_basis[1:] @ cunit)) <= 1e-14
        # the subspace of the SVD route
        assert np.max(np.abs(null_basis.T @ null_basis - svd_basis.T @ svd_basis)) <= 1e-12

    @pytest.mark.parametrize("flat", [False, True])
    def test_dependent_rows_raise(self, flat):
        _, rows, (zero_rank, _) = certify._constraint_vectors(not flat)
        # a duplicated member: the numerical rank is the exact one, the count is not
        doubled = np.concatenate([rows, rows[:1]])
        with pytest.raises(ValueError, match=f"{zero_rank + 1} zero-value rows for their exact rank"):
            certify._zero_value_nullspace(doubled, zero_rank)
        # a claimed rank that the rows do not have
        for rank in (zero_rank - 1, zero_rank + 1):
            with pytest.raises(ValueError, match=f"numerical rank {zero_rank}, not their exact rank {rank}"):
                certify._zero_value_nullspace(rows, rank)

    def test_no_component_in_the_nullspace_raises(self, monkeypatch):
        _, rows, (zero_rank, _) = certify._constraint_vectors(True)
        # a zero column reflects to exact zeros, so R[m, m] == 0
        monkeypatch.setattr(certify, "_CHOI_UNIT", np.zeros(64))
        with pytest.raises(ValueError, match="not in the constraint nullspace"):
            certify._zero_value_nullspace(rows, zero_rank)

    @pytest.mark.parametrize("s", ON_THE_CURVE)
    def test_certificate_margin(self, s):
        # every perturbation far below PRUNE_VIOLATION, so a change of basis
        # that thins the margin shows here first
        cert = exposedness_certificate(curve(s))
        assert len(cert._values) == 62
        assert np.max(cert._values) <= -1e-5


class TestOneSVD:
    """The certificate and the control each take one QR, the zero-value
    nullspace, and one SVD, that of R's m x m triangle for the rank
    cross-check; their first-order ranks are exact constants."""

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("s", ON_THE_CURVE)
    def test_svd_calls(self, s, flat):
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            exposedness_certificate(curve(s), include_eta_zeta=not flat)
        m = 18 if flat else 32
        assert [call.args[0].shape for call in qr.call_args_list] == [(64, m + 1)]
        assert [call.args[0].shape for call in svd.call_args_list] == [(m, m)]


class TestProbeStarts:
    """The probe's start data, built at import with the fixed members."""

    @pytest.mark.parametrize("flat", [False, True])
    def test_constant_is_a_read_only_rebuild(self, flat):
        x, _ = _reference_rows(None, not flat)
        starts, _, _ = certify._constraint_vectors(not flat)
        fresh = certify._probe_starts(x)
        assert len(starts) == len(fresh) == 2
        for const, rebuilt in zip(starts, fresh):
            assert _same_bits(const, rebuilt)
            assert not const.flags.writeable

    def test_unit_factors_and_their_bloch_vectors(self):
        x = np.random.default_rng(3).standard_normal((7, 3, 2, 2)) @ [1.0, 1j]
        unit, bloch = certify._probe_starts(x)
        assert unit.shape == x.shape and bloch.shape == (3, 4, 7)
        assert np.max(np.abs(np.linalg.norm(unit, axis=-1) - 1.0)) <= 1e-15
        # |f><f| = (I + n.sigma) / 2, so n_k = <f|sigma_k|f>, n_0 = 1
        expected = np.einsum("xpa,kab,xpb->pkx", unit.conj(), witness._PAULI, unit).real
        assert np.max(np.abs(bloch - expected)) <= 1e-15
        # the same rays as x
        overlaps = np.abs(np.einsum("xpa,xpa->xp", unit.conj(), x)) / np.linalg.norm(x, axis=-1)
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-15


_JSON_KEYS = {
    "certified",
    "constraint_count",
    "direction_match_error",
    "exact_rank",
    "nullspace_dim",
    "prime",
    "pv4_diagonal_error",
    "s",
    "surviving_ray_dim",
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
        cert = exposedness_certificate(WitnessFamily())
        assert cert.prune_records is cert.prune_records

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("s", [1e-6, 1e-3, *ON_THE_CURVE, 1e3])
    def test_equal_to_eager_records(self, s, flat):
        w = curve(s)
        cert = exposedness_certificate(w, include_eta_zeta=not flat)
        if flat:
            # the records the control would hold had it run the falsification
            assert cert.unpruned_directions is None and cert.prune_records == ()
            cert = dataclasses.replace(cert, **_control_falsification())
        records = cert.prune_records
        # both runs compute from their fixed members at s = t, so the records
        # are the same bits wherever on the curve the input lies
        near, reference = _reference_records(None, not flat)
        assert len(records) == len(reference)
        for rec, ref in zip(records, reference):
            assert rec.direction == ref.direction and rec.violated == ref.violated
            assert rec.epsilon == ref.epsilon
            assert type(rec.direction) is int and type(rec.epsilon) is float
            assert _same_bits(rec.perturbation, ref.perturbation)
        _assert_probe_matches(
            np.array([rec.argmin.factors() for rec in records]).conj(),
            np.array([rec.min_value for rec in records]),
            np.array([rec.perturbation for rec in records]),
            np.array([ref.argmin.factors() for ref in reference]).conj(),
            np.array([ref.min_value for ref in reference]),
            near,
        )

    def test_json_keys_unchanged(self):
        cert = exposedness_certificate(WitnessFamily())
        assert set(cert.to_json_dict()) == _JSON_KEYS
        cert.prune_records
        assert set(cert.to_json_dict()) == _JSON_KEYS

    @pytest.mark.parametrize("flat", [False, True])
    def test_json_cites_the_exact_ranks(self, flat):
        payload = exposedness_certificate(WitnessFamily(), include_eta_zeta=not flat).to_json_dict()
        ranks = certify.CONTROL_EXACT_RANKS if flat else certify.CERTIFICATE_EXACT_RANKS
        assert payload["exact_rank"] == list(ranks) and payload["prime"] == EXACT_PRIME
        assert payload["nullspace_dim"] == 64 - ranks[0]
        assert payload["surviving_ray_dim"] == 64 - ranks[1]


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


class TestArgminAtTheCurveEnds:
    """At the ends of the curve the Choi matrix's entries span many orders of
    magnitude, and a restart's form can sit far above the minimum while
    within rounding of the largest entry.  The window is relative to each
    restart's own terms, so the reported vector attains the minimum."""

    @pytest.mark.parametrize("s", [1e-12, 1e-8, 1e8, 1e12, 1e-100])
    def test_form_at_argmin_is_the_minimum(self, s):
        c = choi_explicit(curve(s))
        res = min_product_value(c, 200, 1)
        v = res.argmin.unit().full
        terms = np.abs(v) @ np.abs(c) @ np.abs(v)
        assert abs(pairing(res.argmin.projector(), c) - res.min_value) <= 64 * np.spacing(terms)
