"""Hermiticity and pairing tolerances are relative to the data's scale: a
state computed in floating point is accepted at every scale, and a relative
asymmetry of 1e-9 is rejected at every scale."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    WitnessFamily,
    check_hermitian,
    choi_explicit,
    min_product_value,
    pairing,
    ppt_check,
    xpart,
)

LOG_SCALE = st.floats(-12.0, 12.0)
SEEDS = st.integers(0, 2**32 - 1)
C = choi_explicit(WitnessFamily())


def float_state(seed: int, lam: float) -> np.ndarray:
    """lam * q diag(d) q^H, with q a random unitary and d in [0, 1), computed
    in floating point, so it is Hermitian only up to rounding."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(g)
    return lam * q @ np.diag(rng.random(8)) @ q.conj().T


def asymmetric(seed: int, lam: float, defect: float) -> np.ndarray:
    """lam * (H + defect * max|H| E01), with H exactly Hermitian and E01 the
    single matrix unit at (0, 1)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2
    h[0, 1] += defect * np.max(np.abs(h))
    return lam * h


class TestFloatingPointStatesPass:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_check_and_ppt(self, seed, log_lam):
        rho = float_state(seed, 10.0**log_lam)
        check_hermitian(rho)
        assert ppt_check(rho).min_eigs.shape == (8,)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_pairing_is_homogeneous(self, seed, log_lam):
        lam = 10.0**log_lam
        value = pairing(float_state(seed, lam), C)
        assert value == pytest.approx(lam * pairing(float_state(seed, 1.0), C), rel=1e-12, abs=1e-12 * lam)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_pairing_with_scaled_witness(self, seed, log_lam):
        lam = 10.0**log_lam
        rho = float_state(seed, 1.0)
        assert pairing(rho, lam * C) == pytest.approx(lam * pairing(rho, C), rel=1e-12, abs=1e-12 * lam)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_xpart(self, seed, log_lam):
        lam = 10.0**log_lam
        x = xpart(float_state(seed, lam))
        assert np.max(np.abs(x.a)) <= lam * (1.0 + 1e-12)


class TestRelativeDefectRejected:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_check_ppt_and_pairing_raise(self, seed, log_lam):
        m = asymmetric(seed, 10.0**log_lam, 1e-9)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            ppt_check(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            pairing(m, C)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, LOG_SCALE)
    def test_xpart_rejects_imaginary_diagonal(self, seed, log_lam):
        lam = 10.0**log_lam
        m = float_state(seed, lam)
        m[2, 2] += 1e-9j * np.max(np.abs(m))
        with pytest.raises(ValueError, match="real"):
            xpart(m)

    def test_zero_matrix_passes(self):
        check_hermitian(np.zeros((8, 8)))
        assert pairing(np.zeros((8, 8)), C) == 0.0


class TestSeesawBatchCheck:
    """The see-saw checks its matrix under the same relative rule, at every
    scale: each matrix against its own largest entry."""

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(0, 3))
    def test_mixed_scales_pass_and_one_defect_raises(self, seed, bad):
        batch = [float_state(seed + k, 10.0 ** (-12 if k % 2 else 12)) for k in range(4)]
        for k, m in enumerate(batch):
            min_product_value(m, 2, k, max_cycles=2)
        batch[bad] = asymmetric(seed, 10.0 ** (-12 if bad % 2 else 12), 1e-9)
        with pytest.raises(ValueError, match="not Hermitian"):
            min_product_value(batch[bad], 2, bad, max_cycles=2)
