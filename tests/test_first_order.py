"""The surviving ray of the exposedness certificate comes from first-order
conditions: where a block-positive W vanishes at a product vector, so do its
partial gradients (Lewenstein, Kraus, Cirac and Horodecki, PRA 62, 052310,
2000).  Checked at s = t, where every exposedness stage runs, and against an
oracle that builds the conditions over all 64 Hermitian coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    FAMILY_TAGS,
    PV1_TAGS,
    KernelGrid,
    ProductVector,
    WitnessFamily,
    choi_explicit,
    dual_state,
    exposedness_certificate,
    kernel_vector,
)
from qxwit import certify
from qxwit.certify import CERTIFICATE_KERNEL_IDS, CONTROL_KERNEL_IDS, herm_to_vec, vec_to_herm
from qxwit.witness import _PV4_FACTORS


def family(log_s: float) -> WitnessFamily:
    s = 10.0**log_s
    return WitnessFamily(s, 8.0 / s)


def control(w):
    """The flat-only run, which leaves more than the witness ray."""
    return exposedness_certificate(w, include_eta_zeta=False)


class TestAtTheFrame:
    """Every exposedness stage runs at s = t whatever the input s, so this
    runs there; ``TestFrameIdentity`` checks the verdicts along the curve."""

    def test_certified_and_control_is_not(self):
        w = WitnessFamily()
        cert = exposedness_certificate(w)
        assert cert.surviving_ray_dim == 1
        assert cert.certified
        flat = control(w)
        assert flat.surviving_ray_dim > 1
        assert not flat.certified


#: The Hermitian matrices whose herm_to_vec coordinates are the unit vectors.
HERM_BASIS = vec_to_herm(np.eye(64))


def orthogonal(f: np.ndarray) -> np.ndarray:
    """A 2-vector of the same norm as f and orthogonal to it."""
    return np.array([-np.conj(f[1]), np.conj(f[0])])


def first_order_oracle(w, grid, tags, include_dual_states: bool) -> np.ndarray:
    """Basis (rows) of the Hermitian W, in herm_to_vec coordinates, that pair
    to zero with every sampled dual-face state and whose partial gradients
    vanish at every product vector x the kernel projectors vanish at.

    One row per condition and per real or imaginary part, each evaluated on
    the 64 coordinate matrices.  pairing(|v><v|, W) = <conj v|W|conj v>, so x
    is conj(v); the gradient condition of one party is <a|W|x> = 0, with a
    that party's factor of x replaced by an orthogonal vector."""
    vectors = [kernel_vector(w, tag, p) for tag, p in grid.kernel_ids() if tag in tags]
    vectors += [ProductVector(*f) for f in _PV4_FACTORS]
    states = [v.projector() for v in vectors]
    if include_dual_states:
        states += [dual_state(w, *p).to_matrix() for p in grid.dual_params()]
    # pairing(rho, W) = sum_ij W_ij rho_ij, linear in W
    rows = list(np.einsum("mij,kij->mk", np.array(states), HERM_BASIS).real)
    for v in vectors:
        factors = list(v.conj().factors())
        x = np.kron(np.kron(factors[0], factors[1]), factors[2])
        for party in range(3):
            tangent = list(factors)
            tangent[party] = orthogonal(factors[party])
            a = np.kron(np.kron(tangent[0], tangent[1]), tangent[2])
            values = np.einsum("i,kij,j->k", a.conj(), HERM_BASIS, x)
            rows += [values.real, values.imag]
    _, sv, vt = np.linalg.svd(np.array(rows))
    return vt[int(np.sum(sv > 1e-8 * sv[0])) :]


class TestFirstOrderOracle:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([KernelGrid.small(), KernelGrid.default()]), st.floats(-0.3, 1.2))
    def test_witness_ray(self, grid, log_s):
        w = family(log_s)
        null = first_order_oracle(w, grid, FAMILY_TAGS, True)
        assert len(null) == exposedness_certificate(w).surviving_ray_dim == 1
        c = herm_to_vec(choi_explicit(w))
        assert abs(null[0] @ c) / np.linalg.norm(c) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([KernelGrid.small(), KernelGrid.default()]), st.floats(-0.3, 1.2))
    def test_flat_control(self, grid, log_s):
        w = family(log_s)
        null = first_order_oracle(w, grid, PV1_TAGS, False)
        assert len(null) == control(w).surviving_ray_dim == 10


class TestConstraintConstants:
    """The constraint data the certificate and the control read, built at
    import: the probe's starts at their fixed members and the members'
    zero-value rows, and the Choi matrix's coordinates."""

    def test_constants_are_a_rebuild_and_read_only(self):
        def arrays(data):
            (unit, bloch), rows = data
            return [unit, bloch, rows]

        w0 = WitnessFamily()
        cvec = herm_to_vec(choi_explicit(w0))
        rebuilt = [cvec, cvec / np.linalg.norm(cvec)]
        for ids in (CERTIFICATE_KERNEL_IDS, CONTROL_KERNEL_IDS):
            x = np.array([kernel_vector(w0, tag, p).factors() for tag, p in ids])
            rebuilt += arrays(certify._constraint_data(x.conj()))
        constants = (
            certify._CHOI_VEC, certify._CHOI_UNIT, *arrays(certify._CERTIFICATE_DATA),
            *arrays(certify._CONTROL_DATA),
        )
        assert len(constants) == len(rebuilt) == 8
        for const, fresh in zip(constants, rebuilt):
            assert const.dtype == fresh.dtype and const.shape == fresh.shape
            assert const.tobytes() == fresh.tobytes()
            assert not const.flags.writeable
