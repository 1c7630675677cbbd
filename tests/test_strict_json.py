"""Strict JSON on stdout: every command prints only finite numbers, or exits
2 with one error line and nothing on stdout, and raises no warning, for
finite inputs anywhere in the double range and s anywhere on the curve."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import (
    FAMILY_TAGS,
    PV1_TAGS,
    WitnessFamily,
    XMatrix,
    dual_state,
    is_ghz_diagonal,
    phi_apply,
    rank4_separability_check,
)
from qxwit import cli, xstate
from qxwit.cli import main

SQRT2 = math.sqrt(2.0)

#: Finite magnitudes from the smallest subnormal to near the largest double,
#: the ends and the scales where squares and products leave the range drawn
#: often, with either sign, and zero.
_MAGNITUDES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-154, 1e-16, 1.0, 3.0, 1e154, 1e300, 1e308, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)
FINITE = st.one_of(st.just(0.0), st.builds(lambda m, neg: -m if neg else m, _MAGNITUDES, st.booleans()))

#: s along the curve t = 8 / s, as log10 s.
LOG_S = st.floats(-150.0, 150.0)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_run(*argv) -> tuple:
    """Exit code and stdout of one ``main`` call, after checking that it
    raised no warning, that exit 2 left one error line and no stdout, and
    that any other stdout is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    text = out.getvalue()
    if code == 2:
        assert text == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        json.loads(text, parse_constant=_reject_constant)
    return code, text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    directory = tmp_path_factory.mktemp("strict")

    def put(name, payload):
        path = directory / name
        path.write_text(json.dumps(payload, allow_nan=False))
        return str(path)

    return put


def _curve(log_s) -> list:
    s = 10.0**log_s
    return ["--s", repr(s), "--t", repr(8.0 / s)]


def _matrix(dim, values) -> dict:
    """A dim x dim matrix JSON of 2 dim**2 values, real parts then imaginary."""
    n = dim * dim
    return {
        "dim": dim,
        "re": [values[i * dim : (i + 1) * dim] for i in range(dim)],
        "im": [values[n + i * dim : n + (i + 1) * dim] for i in range(dim)],
    }


def _hermitian(values) -> dict:
    """An 8x8 Hermitian matrix JSON from 64 values: the diagonal, then the
    real and imaginary parts of the upper triangle."""
    re = [[0.0] * 8 for _ in range(8)]
    im = [[0.0] * 8 for _ in range(8)]
    for i in range(8):
        re[i][i] = values[i]
    k = 8
    for i in range(8):
        for j in range(i + 1, 8):
            re[i][j] = re[j][i] = values[k]
            im[i][j], im[j][i] = values[k + 28], -values[k + 28]
            k += 1
    return {"dim": 8, "re": re, "im": im}


class TestScreenCommands:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(FINITE, min_size=16, max_size=16), LOG_S)
    @example([0.0, 1e300, 1e300, 0.0] + [0.0] * 4 + [0.0, 1e300, 1e300, 0.0] + [0.0] * 4, 0.45)
    def test_apply(self, scratch, values, log_s):
        x = scratch("x.json", _matrix(2, values[:8]))
        y = scratch("y.json", _matrix(2, values[8:]))
        strict_run("apply", "--x", x, "--y", y, *_curve(log_s))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=64, max_size=64), LOG_S)
    def test_pairing(self, scratch, values, log_s):
        rho = scratch("rho.json", _hermitian(values))
        strict_run("pairing", "--rho", rho, *_curve(log_s))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(FINITE, min_size=12, max_size=12), LOG_S)
    @example([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0], 0.45)
    def test_classify(self, scratch, values, log_s):
        keys = ("x_re", "x_im", "y_re", "y_im", "z_re", "z_im")
        v = scratch("v.json", {key: values[2 * i : 2 * i + 2] for i, key in enumerate(keys)})
        strict_run("classify", "--vector", v, *_curve(log_s))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_MAGNITUDES, min_size=8, max_size=8), st.lists(FINITE, min_size=8, max_size=8),
           st.booleans(), LOG_S)
    @example([1.0] * 8, [1e308, 1.0, 1.0, 1.0, 1e308, 0.0, 0.0, 0.0], False, 0.45)
    @example([1.0] * 8, [0.0, 0.0, 0.0, 0.0, 0.0, 1.7e308, 1.7e308, 0.0], True, 0.45)
    def test_xstate(self, scratch, ab, c, witness_shaped, log_s):
        # positive diagonals, so that the separability criterion runs; a
        # witness-shaped matrix keeps only a4 and b4, for block positivity
        a, b = ab[:4], ab[4:]
        if witness_shaped:
            a[:3] = b[:3] = [0.0] * 3
        fields = {"a": a, "b": b, "c_re": c[:4], "c_im": c[4:]}
        strict_run("xstate", "--file", scratch("x.json", fields), *_curve(log_s))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FAMILY_TAGS), st.lists(FINITE, min_size=4, max_size=4), LOG_S)
    def test_kernel(self, family, values, log_s):
        values = values if family in PV1_TAGS else values[:2]
        params = ",".join(repr(v) for v in values)
        strict_run("kernel", "--family", family, f"--params={params}", *_curve(log_s))


class TestCertifyPayloads:
    @pytest.mark.parametrize("s", [1e-150, 1e-12, 2 * SQRT2, 1e12, 1e150])
    @pytest.mark.parametrize(
        "kind", [["spanning"], ["positivity"], ["exposedness"], ["exposedness", "--drop-curved-constraints"],
                 ["detect"]],
        ids=lambda k: " ".join(k),
    )
    def test_strict_payload(self, kind, s):
        code, _ = strict_run("certify", *kind, "--s", repr(s), "--t", repr(8.0 / s))
        assert code == (1 if "--drop-curved-constraints" in kind else 0)


class TestOverflowRegressions:
    """The cases that printed non-finite JSON or raised a RuntimeWarning."""

    def test_apply_products_overflow(self, scratch):
        m = [[0.0, 1e300], [1e300, 0.0]]
        with pytest.raises(ValueError, match="not finite"):
            phi_apply(WitnessFamily(), m, m)
        x = scratch("x.json", {"dim": 2, "re": m, "im": [[0.0, 0.0], [0.0, 0.0]]})
        assert strict_run("apply", "--x", x, "--y", x) == (2, "")

    def test_classify_subnormal_factor(self, scratch):
        # (5e-324 i, 0): its squared norm underflows, so the factor reads as zero
        v = {"x_re": [1.0, 0.0], "x_im": [0.0, 0.0], "y_re": [0.0, 0.0], "y_im": [5e-324, 0.0],
             "z_re": [1.0, 1.0], "z_im": [0.0, 0.0]}
        assert strict_run("classify", "--vector", scratch("v.json", v)) == (2, "")

    def test_rank4_huge_anti_diagonal(self):
        # |c1|^2 overflows: every pair condition of c1 fails, and so does c1 c4 = c2 c3
        verdict = rank4_separability_check(XMatrix([1.0] * 4, [1.0] * 4, [1e308 * (1 + 1j), 1, 1, 1]))
        assert not verdict.separable
        assert verdict.violated == tuple(f"a{i}*b{i} != |c1|^2" for i in range(1, 5)) + ("c1*c4 != c2*c3",)
        assert all(type(v) is str for v in verdict.violated)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**-540, 2.0**540, 2.0**600])
    @pytest.mark.parametrize("kind", [1, 2])
    def test_rank4_scale_invariant_out_of_range(self, kind, scale):
        # the exact path past the double range gives the verdicts of the
        # floating-point one in range, for a separable dual state and for one
        # with an entry moved
        x = dual_state(WitnessFamily(1.3, 8.0 / 1.3), kind, 0.7, 1.9)
        moved = XMatrix(x.a * [1.0, 1.5, 1.0, 1.0], x.b, x.c)
        for m in (x, moved):
            want = rank4_separability_check(m)
            assert rank4_separability_check(XMatrix(scale * m.a, scale * m.b, scale * m.c)) == want
            assert xstate._rank4_exact(m.a, m.b, m.c) == want
        assert rank4_separability_check(x).separable and not rank4_separability_check(moved).separable

    def test_ghz_diagonal_huge_imaginary_part(self):
        # |c1| overflowed to inf, and so did the tolerance: GHZ diagonal, exit 0
        x = XMatrix([1.0] * 4, [1.0] * 4, [1.7e308 + 1.7e308j, 0, 0, 0])
        assert not is_ghz_diagonal(x)
        assert is_ghz_diagonal(XMatrix([1e308] * 4, [1e308] * 4, [1.7e308, -1.7e308, 0, 0]))
        assert not is_ghz_diagonal(XMatrix([1.7e308] * 4, [-1.7e308] * 4, [0, 0, 0, 0]))

    def test_emit_refuses_a_non_finite_value(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_choi", lambda args, w: ({"value": math.nan}, 0, "nan"))
        assert strict_run("choi") == (2, "")
        assert strict_run("choi", "--pretty") == (2, "")
