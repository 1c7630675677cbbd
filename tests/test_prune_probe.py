"""The exposedness prune probe, the prune argument checks, the non-finite
input check and the see-saw argmin window."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    KernelGrid,
    WitnessFamily,
    check_hermitian,
    choi_explicit,
    exposedness_certificate,
    matrix_to_json,
    min_product_value,
    min_product_values,
    pairing,
    ppt_check,
)
from qxwit.certify import PRUNE_VIOLATION
from qxwit.cli import main
from qxwit.qcore import _check_hermitian_stack

SQRT2 = math.sqrt(2.0)


def curve(s: float) -> WitnessFamily:
    return WitnessFamily(s, 8.0 / s)


class TestProbeSettlesCertificates:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-4.0, 5.0))
    def test_every_record_from_the_probe(self, log_s):
        w = curve(10.0**log_s)
        cert = exposedness_certificate(w, grid=KernelGrid.small())
        scale = float(np.max(np.abs(choi_explicit(w))))
        assert cert.certified
        for rec in cert.prune_records:
            assert rec.cycles == 0 and rec.stopped_below and rec.violated
            norms = [np.linalg.norm(f) for f in rec.argmin.factors()]
            assert norms == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
            again = pairing(rec.argmin.projector(), rec.perturbation)
            assert again == pytest.approx(rec.min_value, abs=1e-12 * scale)

    def test_control_settled_too(self):
        cert = exposedness_certificate(
            WitnessFamily(),
            grid=KernelGrid.small(),
            include_eta_zeta=False,
            include_dual_states=False,
        )
        assert cert.unpruned_directions == 0 and not cert.certified
        assert all(rec.cycles == 0 and rec.violated for rec in cert.prune_records)


class TestProbeFallback:
    """At a step too small for the probe to reach the threshold everywhere,
    the open tasks run the seeded see-saw as before."""

    SEED = 5

    @pytest.fixture(scope="class", params=[2 * SQRT2, 0.5])
    def cert(self, request):
        return exposedness_certificate(
            curve(request.param), grid=KernelGrid.small(), prune_step=1e-4, seed=self.SEED
        )

    def test_records_mix_probe_and_search(self, cert):
        cycles = [rec.cycles for rec in cert.prune_records]
        assert 0 in cycles
        assert any(c >= 1 for c in cycles)

    def test_searched_records_equal_single_runs(self, cert):
        seeds = np.random.default_rng(self.SEED).integers(2**63, size=len(cert.prune_records))
        for rec, seed in zip(cert.prune_records, seeds.tolist()):
            if rec.cycles == 0:
                assert rec.stopped_below and rec.min_value < PRUNE_VIOLATION
                continue
            (one,) = min_product_values([rec.perturbation], 32, [seed], stop_below=PRUNE_VIOLATION)
            assert rec.min_value == pytest.approx(one.min_value, abs=1e-12)
            assert rec.cycles == one.cycles
            assert rec.stopped_below == one.stopped_below
            assert abs(np.vdot(rec.argmin.full, one.argmin.full)) == pytest.approx(1.0, abs=1e-10)

    def test_unpruned_counts_unviolated_directions(self, cert):
        open_directions = {
            rec.direction for rec in cert.prune_records if rec.min_value >= PRUNE_VIOLATION
        }
        assert open_directions
        assert cert.unpruned_directions == len(open_directions)


class TestPruneArguments:
    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_non_finite_step(self, step):
        with pytest.raises(ValueError, match="prune_step"):
            exposedness_certificate(WitnessFamily(), grid=KernelGrid.small(), prune_step=step)

    def test_no_restarts(self):
        with pytest.raises(ValueError, match="prune_restarts"):
            exposedness_certificate(WitnessFamily(), grid=KernelGrid.small(), prune_restarts=0)

    @pytest.mark.parametrize(
        "flags", [("--prune-step", "nan"), ("--prune-step", "inf"), ("--prune-restarts", "0")]
    )
    def test_cli_exits_two(self, capsys, flags):
        code = main(["certify", "exposedness", "--grid", "small", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
            _check_hermitian_stack(np.array([np.eye(8), m]))

    def test_stack(self):
        with pytest.raises(ValueError, match="non-finite"):
            _check_hermitian_stack(np.array([np.eye(8), _with(math.nan)]))

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
