"""``pairing`` and its X-matrix closed form ``pairing_x`` on finite entries
whose products overflow: a ValueError, and through the CLI exit 2 with one
``error:`` line, never a warning or an infinite pairing."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import WitnessFamily, XMatrix, choi_explicit, matrix_to_json, pairing, pairing_x
from qxwit.cli import main

_EDGE = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e300, 1e-300, 5e-324, 0.0, 1.0, math.inf, math.nan])
_ENTRIES = st.one_of(_EDGE, st.floats())


def state_with(value: float, i: int, j: int, diagonal: float) -> np.ndarray:
    """diag(diagonal) with ``value`` at (i, j) and (j, i): real and
    symmetric, so Hermitian whatever the entries."""
    m = np.zeros((8, 8), dtype=complex)
    np.fill_diagonal(m, diagonal)
    m[i, j] = m[j, i] = value
    return m


@pytest.fixture(scope="module")
def rho_file(tmp_path_factory):
    return tmp_path_factory.mktemp("pairing") / "rho.json"


def test_overflowing_pairing_rejected():
    rho = state_with(1e308, 0, 7, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            pairing(rho, choi_explicit(WitnessFamily()))


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, st.integers(0, 7), st.integers(0, 7), _ENTRIES, st.floats(-150.0, 150.0))
@example(1e308, 0, 7, 0.0, 0.0)
@example(1e308, 3, 4, 0.125, 0.0)
@example(1.7976931348623157e308, 0, 0, 1.7976931348623157e308, 0.0)
@example(1e300, 1, 6, 1.0, 10.0)
def test_cli_pairing(rho_file, value, i, j, diagonal, log_s):
    s = 10.0**log_s
    rho_file.write_text(json.dumps(matrix_to_json(state_with(value, i, j, diagonal))))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pairing", "--rho", str(rho_file), "--s", repr(s), "--t", repr(8.0 / s)])
    assert [str(w.message) for w in caught] == []
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code == 0
        assert math.isfinite(json.loads(out.getvalue())["pairing"])


@pytest.mark.parametrize(
    "a, b, c",
    [
        # t a4 and s b4 overflow in the products
        ([0, 0, 0, 1e308], [0, 0, 0, 1e308], [1e308, 0, 0, 0]),
        # c1 + c2 overflows in the sum
        ([0, 0, 0, 0], [0, 0, 0, 0], [1.7e308, 1.7e308, 0, 0]),
    ],
    ids=["products", "sum"],
)
def test_overflowing_closed_form_rejected(a, b, c):
    # before, pairing_x warned and returned inf where pairing raised
    w = WitnessFamily(4.0, 2.0)
    x = XMatrix(a, b, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^pairing is not finite"):
            pairing(x.to_matrix(), choi_explicit(w))
        with pytest.raises(ValueError, match="^pairing is not finite"):
            pairing_x(x, w)
