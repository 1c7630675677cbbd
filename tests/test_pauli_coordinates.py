"""The prune perturbations of the exposedness certificate kept in
``herm_to_vec`` coordinates, whose Pauli tensors one real 64 x 64 map gives,
and the one QR and one SVD a run takes."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import WitnessFamily, exposedness_certificate
from qxwit import certify, witness
from qxwit.certify import herm_to_vec, vec_to_herm
from qxwit.cli import main
from qxwit.qcore import tensor3
from qxwit.witness import _pauli_tensor


def run_coords(include_eta_zeta: bool) -> np.ndarray:
    """The perturbations' ``herm_to_vec`` coordinates of a run's
    falsification, which the control runs only when asked to."""
    starts, rows, (zero_rank, _) = certify._constraint_vectors(include_eta_zeta)
    null_basis, _ = certify._zero_value_nullspace(rows, zero_rank)
    return certify._falsification(starts, null_basis)["_coords"]


def mapped(coords: np.ndarray) -> np.ndarray:
    return (coords @ certify._HERM_PAULI).reshape(-1, 4, 4, 4)


class TestPauliCoordinates:
    def test_map_is_a_rebuild_and_read_only(self):
        # the Pauli products over 8, whose coordinates are the map's columns
        products = np.einsum("iad,jbe,kcf->ijkabcdef", *[witness._PAULI] * 3).reshape(64, 8, 8) / 8.0
        fresh = np.ascontiguousarray(herm_to_vec(products).T)
        const = certify._HERM_PAULI
        assert const.dtype == fresh.dtype and const.shape == fresh.shape
        assert const.tobytes() == fresh.tobytes()
        assert not const.flags.writeable
        # and it is _pauli_tensor of vec_to_herm, up to the rounding of 1/sqrt 2
        composed = _pauli_tensor(vec_to_herm(np.eye(64))).reshape(64, 64)
        assert np.max(np.abs(certify._HERM_PAULI - composed)) <= 1e-16

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0))
    def test_map_on_random_coordinates(self, seed, log_scale):
        v = np.random.default_rng(seed).standard_normal((3, 64)) * 10.0**log_scale
        m = vec_to_herm(v)
        assert np.max(np.abs(mapped(v) - _pauli_tensor(m))) <= 1e-15 * np.max(np.abs(m))

    @pytest.mark.parametrize("include_eta_zeta", [True, False])
    def test_map_on_the_perturbations(self, include_eta_zeta):
        coords = run_coords(include_eta_zeta)
        perts = vec_to_herm(coords)
        assert len(perts) == (62 if include_eta_zeta else 90)
        assert np.max(np.abs(mapped(coords) - _pauli_tensor(perts))) <= 1e-15 * np.max(np.abs(perts))

    @pytest.mark.parametrize("include_eta_zeta", [True, False])
    def test_probe_values_are_the_form_at_its_factors(self, include_eta_zeta):
        starts, _, _ = certify._constraint_vectors(include_eta_zeta)
        coords = run_coords(include_eta_zeta)
        perts = vec_to_herm(coords)
        factors, values = certify._prune_probe(starts, mapped(coords))
        psi = tensor3(factors[:, 0], factors[:, 1], factors[:, 2])
        forms = np.einsum("ti,tij,tj->t", psi.conj(), perts, psi).real
        assert np.max(np.abs(values - forms)) <= 1e-14 * np.max(np.abs(perts))


class TestGuard:
    @pytest.mark.parametrize(
        "include_eta_zeta, shapes",
        [(True, ([(64, 33)], [(32, 32)])), (False, ([(64, 19)], [(18, 18)]))],
    )
    def test_svd_inputs(self, include_eta_zeta, shapes):
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            exposedness_certificate(WitnessFamily(1.3, 8.0 / 1.3), include_eta_zeta=include_eta_zeta)
        qr_shapes = [call.args[0].shape for call in qr.call_args_list]
        svd_shapes = [call.args[0].shape for call in svd.call_args_list]
        assert (qr_shapes, svd_shapes) == shapes

    @pytest.mark.parametrize("flat, code", [(False, 0), (True, 1)])
    def test_cli_builds_no_matrix(self, capsys, monkeypatch, flat, code):
        def fail(*args, **kwargs):
            raise AssertionError("an 8x8 perturbation or its tensor was built")

        monkeypatch.setattr(certify, "vec_to_herm", fail)
        monkeypatch.setattr(witness, "_pauli_tensor", fail)
        argv = ["certify", "exposedness"] + (["--drop-curved-constraints"] if flat else [])
        assert main(argv) == code
        assert json.loads(capsys.readouterr().out)["certified"] is (not flat)
