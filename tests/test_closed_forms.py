"""The X norm from its stationary phases and kernel classification with the
sine distance, each checked against an independent search."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    KernelGrid,
    WitnessFamily,
    kernel_classify,
    kernel_vector,
    product_vector_to_json,
    x_norm,
)
from qxwit.cli import main
from qxwit.witness import kernel_vectors
from test_xstate import x_norm_grid_oracle

ORACLE_POINTS = 1 << 17
ENTRY = st.floats(-3.0, 3.0)
#: Index of an entry set to zero; 4..12 leave z alone, so about 30% of the
#: draws have a zero entry.
ZERO_AT = st.integers(0, 12)


def complex_vector(parts, zero_at) -> np.ndarray:
    z = np.array(parts[:4]) + 1j * np.array(parts[4:])
    if zero_at < 4:
        z[zero_at] = 0.0
    return z


def assert_matches_oracle(z):
    """The grid is a lower bound on the maximum, and the objective is
    Lipschitz in the phase with constant |z1| + |z2|."""
    z = np.asarray(z, dtype=complex)
    got, grid = x_norm(z), x_norm_grid_oracle(z, ORACLE_POINTS)
    rounding = 1e-12 * float(np.max(np.abs(z)))
    miss = (abs(z[0]) + abs(z[1])) * math.pi / ORACLE_POINTS
    assert grid - rounding <= got <= grid + miss + rounding


class TestXNormClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(ENTRY, min_size=8, max_size=8), ZERO_AT)
    def test_matches_grid_oracle(self, parts, zero_at):
        assert_matches_oracle(complex_vector(parts, zero_at))

    @pytest.mark.parametrize(
        "z",
        [
            [0, 0, 0, 0],
            [0, 1, 1j, 0],  # first term constant zero
            [2, 0, 0, 0],  # both terms constant
            [1, 1, 1, 1],  # z1 z4 = z2 z3 and equal weights: polynomial is zero
            [1j, 1, 1, 1j],  # z1 z4 = -z2 z3
            [1, 1, -1, 1],  # the witness: maximum 2 sqrt(2) at e = +-i
            [1, 0.5, 2, 1],  # |z1| = |z4|: a kink in the first term
            [1, 1e-160, 1e-160, 1],  # coefficients that would underflow
            [1e-300, 1, 1j, 1e-300],
            [1, 1e-19, 1e-19j, 1],
        ],
    )
    def test_degenerate_inputs(self, z):
        assert_matches_oracle(z)

    @given(
        st.lists(ENTRY, min_size=8, max_size=8),
        ZERO_AT,
        st.floats(-150.0, 150.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_absolute_homogeneity(self, parts, zero_at, log_lam, phase):
        z = complex_vector(parts, zero_at)
        lam = 10.0**log_lam * complex(math.cos(phase), math.sin(phase))
        assert x_norm(lam * z) == pytest.approx(abs(lam) * x_norm(z), rel=1e-12)

    def test_witness_equality_case(self):
        assert x_norm([1, 1, -1, 1]) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad, capsys, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            x_norm([bad, 1, 1, 1])
        path = tmp_path / "x.json"
        x = {"a": [0, 0, 0, 1], "b": [0, 0, 0, 1], "c_re": [bad, 1, -1, 1], "c_im": [0] * 4}
        path.write_text(json.dumps(x))
        code = main(["xstate", "--file", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err


class TestClassifySineDistance:
    @pytest.mark.parametrize("s", [0.5, 2.0 * math.sqrt(2.0), 16.0])
    def test_every_default_member_classifies_at_1e_12(self, s):
        w = WitnessFamily(s, 8.0 / s)
        for v in kernel_vectors(w, KernelGrid.default()):
            result = kernel_classify(w, v, tol=1e-12)
            assert result.family is not None
            assert result.residual <= 1e-12

    def test_cli_classify_tight_tol_exits_zero(self, capsys, tmp_path):
        # the chord distance sqrt(2 - 2|<f, h>|) puts this exact member at 2.1e-8
        v = kernel_vector(WitnessFamily(), "eta1", (1.0, 1.0))
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(product_vector_to_json(v)))
        code = main(["classify", "--vector", str(path), "--tol", "1e-9"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["family"] == "eta1"
        assert payload["residual"] <= 1e-12
