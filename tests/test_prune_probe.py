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
    matrix_to_json,
    min_product_value,
    pairing,
    ppt_check,
)
from qxwit import certify, witness
from qxwit.certify import PRUNE_VIOLATION
from qxwit.cli import main

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
