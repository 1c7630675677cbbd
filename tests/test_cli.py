import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import re
import shlex
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import (
    ETA_TAGS,
    FAMILY_TAGS,
    PV1_TAGS,
    ZETA_TAGS,
    ProductVector,
    WitnessFamily,
    XMatrix,
    choi_explicit,
    dual_state,
    is_block_positive_xwitness,
    kernel_vector,
    matrix_to_json,
    product_vector_from_json,
    product_vector_to_json,
    verify_positive,
    x_norm,
    xpart,
)
from qxwit import certify, cli, xstate
from qxwit.cli import main

SQRT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


class TestChoi:
    def test_default(self, capsys):
        code, payload = run_json(capsys, "choi")
        assert code == 0
        m = payload["matrix"]
        assert m["re"][3][3] == pytest.approx(2 * SQRT2)
        assert m["re"][2][5] == -1.0
        assert payload["x"]["c_re"] == [1.0, 1.0, -1.0, 1.0]

    def test_asymmetric_accepted(self, capsys):
        code, payload = run_json(capsys, "choi", "--s", "4", "--t", "2")
        assert code == 0
        assert payload["matrix"]["re"][3][3] == 2.0

    def test_decimal_parameters_within_tolerance(self, capsys):
        code, payload = run_json(
            capsys, "choi", "--s", "2.8284271247", "--t", "2.8284271247"
        )
        assert code == 0
        assert payload["matrix"]["re"][3][3] == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_invalid_product_rejected(self, capsys):
        code, out, err = run(capsys, "choi", "--s", "1", "--t", "1")
        assert code == 2
        assert out == ""
        assert "s*t" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "choi", "--s", "4", "--t", "2")
        _, out2, _ = run(capsys, "choi", "--s", "4", "--t", "2")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "choi.json"
        code, out, _ = run(capsys, "choi", "--output", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["matrix"]["dim"] == 8

    def test_pretty_summary_on_stderr(self, capsys):
        code, out, err = run(capsys, "choi", "--pretty")
        assert code == 0
        json.loads(out)
        assert "Choi" in err


class TestApplyAndPairing:
    def test_apply_ones(self, capsys, tmp_path):
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps(matrix_to_json(np.ones((2, 2)))))
        code, payload = run_json(
            capsys, "apply", "--x", str(ones), "--y", str(ones), "--s", "4", "--t", "2"
        )
        assert code == 0
        assert payload["result"]["re"] == [[4.0, 2.0], [2.0, 2.0]]

    def test_pairing_ground_state(self, capsys, tmp_path):
        rho = np.zeros((8, 8))
        rho[0, 0] = 1.0
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(matrix_to_json(rho)))
        code, payload = run_json(capsys, "pairing", "--rho", str(path))
        assert code == 0
        assert payload["pairing"] == 0.0

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "pairing", "--rho", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "pairing", "--rho", "/nonexistent.json")
        assert code == 2


class TestKernelAndClassify:
    def test_kernel_eta1(self, capsys):
        code, payload = run_json(capsys, "kernel", "--family", "eta1", "--params", "1,1")
        assert code == 0
        assert payload["within_tol"]
        assert abs(payload["pairing"]) <= 1e-9

    def test_kernel_flat_family(self, capsys):
        code, payload = run_json(
            capsys, "kernel", "--family", "00z", "--params", "1,0,0,1"
        )
        assert code == 0
        v = payload["vector"]
        assert v["x_re"] == [1.0, 0.0] and v["z_im"] == [0.0, 1.0]

    def test_kernel_bad_params(self, capsys):
        code, out, err = run(capsys, "kernel", "--family", "eta1", "--params=-1,1")
        assert code == 2

    def test_classify_round_trip(self, capsys, tmp_path):
        w = WitnessFamily()
        v = kernel_vector(w, "zeta2", (2.0, 0.5))
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(product_vector_to_json(v)))
        code, payload = run_json(capsys, "classify", "--vector", str(path))
        assert code == 0
        assert payload["family"] == "zeta2"
        assert payload["params"][0] == pytest.approx(2.0, abs=1e-9)

    def test_classify_none_is_exit_one(self, capsys, tmp_path):
        from qxwit import ProductVector

        path = tmp_path / "vec.json"
        path.write_text(
            json.dumps(product_vector_to_json(ProductVector([1, 1], [1, 1], [1, 1])))
        )
        code, payload = run_json(capsys, "classify", "--vector", str(path))
        assert code == 1
        assert payload["family"] is None


#: Floats the robustness property draws besides any other: non-finite,
#: negative, zero, at the ends of the double range, and ordinary.
_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-300, 1e300, -1e300, 1.0, 2.0, 0.5)
_CLI_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


def _robust_run(*argv) -> tuple:
    """Exit code, stdout and stderr of one ``main`` call, and the messages of
    the warnings it raised, every one recorded rather than raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_robust(code, out, err, caught) -> dict | None:
    """No warning escapes, the exit code is 0, 1 or 2, and exit 2 means no
    stdout and exactly one error line; returns the JSON payload otherwise."""
    assert caught == []
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return None
    return json.loads(out)


@pytest.fixture(scope="module")
def exact_member_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("robust") / "eta1.json"
    member = kernel_vector(WitnessFamily(), "eta1", (1.0, 2.0))
    path.write_text(json.dumps(product_vector_to_json(member)))
    return str(path)


class TestCliRobustness:
    """``kernel --params`` and ``classify --tol`` through ``main`` on
    non-finite, negative, zero, huge, tiny and ordinary values."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FAMILY_TAGS), st.lists(_CLI_FLOATS, min_size=4, max_size=4), st.booleans())
    @example("eta1", [math.inf, 1.0, 0.0, 0.0], False)
    @example("eta1", [1e300, 1e-300, 0.0, 0.0], False)
    @example("x01", [1e200, 1e200, 0.0, 0.0], False)
    @example("x01", [0.0, 0.0, 0.0, 0.0], False)
    @example("1y1", [1e-200, 0.0, 0.0, 0.0], False)
    def test_kernel_params(self, family, values, complex_pair):
        values = values if family in PV1_TAGS and complex_pair else values[:2]
        params = ",".join(repr(v) for v in values)
        code, out, err, caught = _robust_run("kernel", "--family", family, f"--params={params}")
        payload = _assert_robust(code, out, err, caught)
        if payload is None:
            assert f"family {family}" in err
            return
        # a reported member is a product vector whose projector and pairing
        # are finite and not zero
        assert math.isfinite(payload["pairing"])
        v = payload["vector"]
        norm2 = math.prod(
            sum(a * a for a in v[f"{name}_re"] + v[f"{name}_im"]) for name in "xyz"
        )
        assert 0.0 < norm2 < math.inf

    @settings(max_examples=60, deadline=None)
    @given(_CLI_FLOATS)
    @example(math.nan)
    @example(-1.0)
    @example(0.0)
    def test_classify_tol(self, exact_member_file, tol):
        code, out, err, caught = _robust_run("classify", "--vector", exact_member_file, f"--tol={tol!r}")
        payload = _assert_robust(code, out, err, caught)
        # the member is exact: any radius that is one matches it
        assert code == (0 if 0.0 <= tol < math.inf else 2)
        if payload is not None:
            assert payload["family"] == "eta1" and payload["residual"] == 0.0


class TestKernelBound:
    """``within_tol`` bounds the pairing by ``KERNEL_PAIRING_TOL`` times its
    own terms |v|^T |C| |v|, not by an absolute 1e-9."""

    def test_far_out_member(self, capsys):
        # pairing 1.8e-7 at |v|^2 ~ 1.2e21: an absolute 1e-9 bound rejected it
        argv = ["kernel", "--family", "eta1", "--params", "1e8,3", "--s", "1e6", "--t", "8e-6"]
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload["within_tol"] is True
        assert abs(payload["pairing"]) > 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ETA_TAGS + ZETA_TAGS),
        st.floats(-8.0, 8.0),
        st.floats(-8.0, 8.0),
        st.floats(-12.0, 12.0),
        st.integers(0, 2),
    )
    def test_members_within_and_rotated_members_not(self, tag, log_a1, log_a2, log_s, party):
        s = 10.0**log_s
        w = WitnessFamily(s, 8.0 / s)
        args = argparse.Namespace(family=tag, params=f"{10.0**log_a1!r},{10.0**log_a2!r}")
        payload, code, _ = cli.cmd_kernel(args, w)
        assert code == 0 and payload["within_tol"] is True

        member = cli.kernel_vector

        def rotated(w, tag, params):
            # one factor rotated by pi about the z axis of its Bloch sphere
            factors = list(member(w, tag, params).factors())
            factors[party] = factors[party] * [1.0, -1.0]
            return ProductVector(*factors)

        with mock.patch.object(cli, "kernel_vector", rotated):
            payload, code, _ = cli.cmd_kernel(args, w)
        assert code == 1 and payload["within_tol"] is False


class TestXState:
    def test_dual_state_file(self, capsys, tmp_path):
        w = WitnessFamily()
        path = tmp_path / "rho1.json"
        path.write_text(json.dumps(dual_state(w, 1, 1.0, 1.0).to_json()))
        code, payload = run_json(capsys, "xstate", "--file", str(path))
        assert code == 0
        assert payload["separable"] is True
        assert payload["violations"] == []

    def test_identity_xmatrix(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(xpart(np.eye(8)).to_json()))
        code, payload = run_json(capsys, "xstate", "--file", str(path))
        assert code == 0
        assert payload["ghz_diagonal"] is True
        assert payload["separable"] is None  # diagonal: criterion not applicable

    def test_witness_xmatrix(self, capsys, tmp_path):
        w = WitnessFamily()
        path = tmp_path / "wit.json"
        path.write_text(json.dumps(xpart(choi_explicit(w)).to_json()))
        code, payload = run_json(capsys, "xstate", "--file", str(path))
        assert code == 0
        assert payload["block_positive"] is True
        assert payload["block_positive_equality"] is True
        assert payload["x_norm"] == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_underweighted_witness_still_ghz_diagonal(self, capsys, tmp_path):
        x = XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0], [1, 1, -1, 1])
        path = tmp_path / "w.json"
        path.write_text(json.dumps(x.to_json()))
        code, payload = run_json(capsys, "xstate", "--file", str(path))
        assert code == 0  # still GHZ diagonal, so one verdict is positive
        assert payload["block_positive"] is False
        assert payload["ghz_diagonal"] is True

    def test_subnormal_part_of_an_entry(self, capsys, tmp_path):
        # p - q is about 2e-313, which once overflowed np.roots' division by
        # the leading coefficient: two RuntimeWarnings and exit 2
        x = XMatrix([0, 0, 0, 4.0], [0, 0, 0, 4.0], [1, 1 + 2.2250738585e-313j, 1j, 1j])
        code, out, err = run(capsys, "xstate", "--file", _put(tmp_path, "w.json", x.to_json()))
        assert code in (0, 1) and err == ""
        assert json.loads(out)["x_norm"] == 4.0

    def test_all_verdicts_negative(self, capsys, tmp_path):
        x = XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0], [1j, 1, -1, 1])
        path = tmp_path / "w.json"
        path.write_text(json.dumps(x.to_json()))
        code, payload = run_json(capsys, "xstate", "--file", str(path))
        assert code == 1
        assert payload["block_positive"] is False
        assert payload["ghz_diagonal"] is False
        assert payload["separable"] is None


class TestCertify:
    def test_spanning(self, capsys):
        code, payload = run_json(capsys, "certify", "spanning")
        assert code == 0
        assert payload["certified"]
        assert [r["rank"] for r in payload["subsets"]] == [8] * 8

    def test_spanning_deterministic(self, capsys):
        _, out1, _ = run(capsys, "certify", "spanning", "--seed", "3")
        _, out2, _ = run(capsys, "certify", "spanning", "--seed", "3")
        assert out1 == out2

    def test_positivity(self, capsys):
        code, payload = run_json(
            capsys, "certify", "positivity", "--restarts", "100", "--seed", "1"
        )
        assert code == 0
        assert payload["certified"]
        assert payload["min_value"] >= -1e-9

    def test_detect(self, capsys):
        code, payload = run_json(capsys, "certify", "detect", "--seed", "7")
        assert code == 0
        assert payload["certified"]
        assert payload["pairing_value"] < 0
        assert all(e >= -1e-10 for e in payload["min_pt_eigs"])

    def test_exposedness(self, capsys):
        code, payload = run_json(capsys, "certify", "exposedness")
        assert code == 0
        assert payload["certified"]
        assert payload["surviving_ray_dim"] == 1

    def test_exposedness_flat_only_fails(self, capsys):
        code, payload = run_json(capsys, "certify", "exposedness", "--drop-curved-constraints")
        assert code == 1
        assert payload["surviving_ray_dim"] > 1

    @pytest.mark.parametrize("extra", [(), ("--drop-curved-constraints",)])
    def test_exposedness_does_not_depend_on_seed(self, capsys, extra):
        argv = ("certify", "exposedness", *extra)
        code0, out0, _ = run(capsys, *argv, "--seed", "0")
        code7, out7, _ = run(capsys, *argv, "--seed", "7")
        assert out0 and out0 == out7
        assert code0 == code7


def _x_files():
    w = WitnessFamily()
    return {
        "dual": dual_state(w, 1, 1.0, 1.0),
        "identity": xpart(np.eye(8)),
        "witness": xpart(choi_explicit(w)),
        "underweighted": XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0], [1, 1, -1, 1]),
        "all_negative": XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0], [1j, 1, -1, 1]),
    }


class TestXStateNormOnce:
    @pytest.mark.parametrize("name", sorted(_x_files()))
    def test_one_x_norm_call_per_request(self, capsys, monkeypatch, tmp_path, name):
        x = _x_files()[name]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(x.to_json()))
        calls = []

        def counting(z):
            calls.append(z)
            return x_norm(z)

        monkeypatch.setattr(xstate, "x_norm", counting)
        monkeypatch.setattr(cli, "x_norm", counting)
        _, payload = run_json(capsys, "xstate", "--file", str(path))
        assert len(calls) == 1
        assert payload["x_norm"] == x_norm(x.c)
        if payload["block_positive"] is not None:
            assert payload["block_positive"] == is_block_positive_xwitness(x.a[3], x.b[3], x.c)


class TestXStateScale:
    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_equality_at_any_scale(self, capsys, tmp_path, scale):
        weight = scale * 2 * SQRT2
        x = XMatrix([0, 0, 0, weight], [0, 0, 0, weight], scale * np.array([1, 1, -1, 1]))
        path = tmp_path / "w.json"
        path.write_text(json.dumps(x.to_json()))
        _, payload = run_json(capsys, "xstate", "--file", str(path))
        assert payload["block_positive"] is True
        assert payload["block_positive_equality"] is True

    def test_zero_weights_small_anti_diagonal(self, capsys, tmp_path):
        x = XMatrix(np.zeros(4), np.zeros(4), 3e-10 * np.array([1, 1, -1, 1]))
        path = tmp_path / "w.json"
        path.write_text(json.dumps(x.to_json()))
        _, payload = run_json(capsys, "xstate", "--file", str(path))
        assert payload["block_positive"] is False
        assert payload["block_positive_equality"] is False


class TestParserReuse:
    @staticmethod
    def run_steps(capsys, steps, target):
        outcomes = []
        for argv in steps:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse errors exit
                code = exc.code
            captured = capsys.readouterr()
            written = target.read_text() if target.exists() else None
            if target.exists():
                target.unlink()
            outcomes.append((code, captured.out, captured.err, written))
        return outcomes

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "cert.json"
        cert = ("certify", "exposedness")
        steps = [
            (*cert, "--grid", "small"),
            (*cert, "--drop-curved-constraints"),
            cert,
            (*cert, "--output", str(target)),
            cert,
        ]
        cli._parser.cache_clear()
        reused = self.run_steps(capsys, steps, target)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.run_steps(capsys, steps, target)
        assert reused == fresh
        assert [o[0] for o in reused] == [2, 1, 0, 0, 0]
        assert reused[3][1] == "" and reused[3][3] == reused[2][1] == reused[4][1]

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        main(["choi"])
        main(["choi", "--s", "4", "--t", "2"])
        capsys.readouterr()
        assert len(built) == 1


def _put(directory, name, content):
    path = directory / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


_NON_HERMITIAN = np.eye(8)
_NON_HERMITIAN[0, 1] = 0.5

_ONES = {"a": [1.0] * 4, "b": [1.0] * 4, "c_re": [1.0] * 4, "c_im": [0.0] * 4}
_HUGE = matrix_to_json(np.eye(8))
_HUGE["re"][0][0] = 10**400  # a 401-digit integer literal, beyond every double

#: argv builders, given a scratch directory, for inputs the CLI must reject.
_ERROR_CASES = {
    "bad_st": lambda d: ["choi", "--s", "1", "--t", "1"],
    "missing_file": lambda d: ["pairing", "--rho", str(d / "missing.json")],
    "malformed_json": lambda d: ["pairing", "--rho", _put(d, "bad.json", "{not json")],
    "apply_4x4": lambda d: [
        "apply",
        "--x",
        _put(d, "x.json", matrix_to_json(np.eye(4))),
        "--y",
        _put(d, "y.json", matrix_to_json(np.eye(2))),
    ],
    "pairing_4x4": lambda d: ["pairing", "--rho", _put(d, "r.json", matrix_to_json(np.eye(4)))],
    "bad_params": lambda d: ["kernel", "--family", "eta1", "--params", "a,b"],
    "non_hermitian": lambda d: [
        "pairing",
        "--rho",
        _put(d, "r.json", matrix_to_json(_NON_HERMITIAN)),
    ],
    # a NaN diagonal entry passed the separability criterion: exit 0, separable
    "xstate_nan": lambda d: ["xstate", "--file", _put(d, "x.json", {**_ONES, "a": [math.nan, 1, 1, 1]})],
    # an Infinity token classified as no family: exit 1, residual Infinity
    "classify_infinity": lambda d: [
        "classify",
        "--vector",
        _put(d, "v.json", {"x_re": [math.inf, 0], "x_im": [0, 0], "y_re": [1, 0], "y_im": [0, 0],
                           "z_re": [1, 0], "z_im": [0, 0]}),
    ],
    # a literal that overflows to inf was applied: exit 0, NaN tokens on stdout
    "apply_overflow": lambda d: [
        "apply",
        "--x",
        _put(d, "x.json", '{"dim": 2, "re": [[1e999, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'),
        "--y",
        _put(d, "y.json", matrix_to_json(np.eye(2))),
    ],
    # an integer too large for a double ended in an OverflowError traceback
    "huge_integer": lambda d: ["pairing", "--rho", _put(d, "r.json", _HUGE)],
    # a fractional dim was truncated: 2.9 read as 2, and the map applied
    "dim_fraction": lambda d: [
        "apply",
        "--x",
        _put(d, "x.json", {**matrix_to_json(np.eye(2)), "dim": 2.9}),
        "--y",
        _put(d, "y.json", matrix_to_json(np.eye(2))),
    ],
    "dim_bool": lambda d: [
        "apply",
        "--x",
        _put(d, "x.json", {"dim": True, "re": [[1.0]], "im": [[0.0]]}),
        "--y",
        _put(d, "y.json", matrix_to_json(np.eye(2))),
    ],
    # the detected state's entry a underflowed to 5e-324: exit 1 with exact true
    "detect_subnormal": lambda d: ["certify", "detect", "--s", "1e-161", "--t", "8e161"],
    # argparse printed a usage block and "qxwit choi: error: ..."
    "unknown_flag": lambda d: ["choi", "--seed", "3"],
    "bad_choice": lambda d: ["certify", "spanning", "--grid", "tiny"],
    # an 853 PiB see-saw batch: numpy's MemoryError ended in a traceback and
    # exit 1, the negative verdict's code; beyond any 57-bit address space,
    # so the allocation fails at once
    "memory": lambda d: ["certify", "positivity", "--restarts", "10000000000000000"],
    # numpy's "error: expected non-negative integer" named no argument
    "negative_seed": lambda d: ["certify", "positivity", "--seed", "-1"],
    # the X norm overflowed to inf, and inf >= -1e-9 inf passed: exit 0, block positive
    "xstate_x_norm_overflow": lambda d: [
        "xstate",
        "--file",
        _put(d, "x.json", {"a": [0, 0, 0, 1], "b": [0, 0, 0, 1], "c_re": [0] * 4, "c_im": [0, 1.7e308, 1.7e308, 0]}),
    ],
}


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


class TestErrorContract:
    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_exit_two_and_one_error_line(self, capsys, tmp_path, case):
        assert_one_error_line(*run(capsys, *_ERROR_CASES[case](tmp_path)))

    def test_negative_seed_is_named(self, capsys):
        assert run(capsys, "certify", "positivity", "--seed", "-1") == (2, "", "error: seed must be at least 0\n")


_COMMON_FLAGS = {"--s", "--t", "--output", "--pretty"}

#: The option strings each leaf command registers, -h/--help aside.  No
#: handler reads --seed on spanning, exposedness and detect, nor --direction
#: on detect: they are accepted because the benchmark's exposed and certify
#: workloads pass them.
_LEAF_FLAGS = {
    "choi": _COMMON_FLAGS,
    "apply": _COMMON_FLAGS | {"--x", "--y"},
    "pairing": _COMMON_FLAGS | {"--rho"},
    "kernel": _COMMON_FLAGS | {"--family", "--params"},
    "classify": _COMMON_FLAGS | {"--tol", "--vector"},
    "xstate": _COMMON_FLAGS | {"--file"},
    "certify spanning": _COMMON_FLAGS | {"--grid", "--seed"},
    "certify positivity": _COMMON_FLAGS | {"--seed", "--restarts"},
    "certify exposedness": _COMMON_FLAGS | {"--drop-curved-constraints", "--seed"},
    "certify detect": _COMMON_FLAGS | {"--seed", "--direction"},
}

#: Flags each leaf accepted, and ignored, before every command declared only
#: the flags its handler reads; the --tol of kernel, positivity and
#: exposedness, whose pass marks are now constants of ``qxwit.certify``; and
#: the --grid of exposedness, which both its runs ignored.
_REMOVED_FLAGS = {
    "choi": ("--tol", "--seed", "--grid"),
    "apply": ("--tol", "--seed", "--grid"),
    "pairing": ("--tol", "--seed", "--grid"),
    "kernel": ("--seed", "--grid", "--tol"),
    "classify": ("--seed", "--grid"),
    "xstate": ("--tol", "--seed", "--grid"),
    "certify spanning": ("--tol", "--restarts", "--direction", "--drop-curved-constraints"),
    "certify positivity": ("--grid", "--direction", "--drop-curved-constraints", "--tol"),
    "certify exposedness": ("--restarts", "--direction", "--tol", "--grid"),
    "certify detect": ("--tol", "--grid", "--restarts", "--drop-curved-constraints"),
}

#: A valid value of each removed flag, so that only the flag itself is wrong.
_FLAG_VALUES = {"--tol": ["5"], "--seed": ["3"], "--grid": ["small"], "--restarts": ["10"],
                "--direction": ["x"], "--drop-curved-constraints": []}

#: Required flags of each leaf; parsing fails before any file is read.
_REQUIRED = {"apply": ["--x", "x.json", "--y", "y.json"], "pairing": ["--rho", "r.json"],
             "kernel": ["--family", "eta1"], "classify": ["--vector", "v.json"], "xstate": ["--file", "x.json"]}


def _leaf_flags(parser, path=()):
    """{leaf command: its option strings} of a parser and its subparsers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}}
    return {leaf: flags for a in subs for name, p in a.choices.items()
            for leaf, flags in _leaf_flags(p, (*path, name)).items()}


def assert_parsed_as_by_the_full_tree(parser, argv):
    """main parses argv into the full tree's namespace, less the command
    names only the tree records."""
    want = vars(parser.parse_args(argv))
    del want["command"]
    want.pop("kind", None)
    assert vars(cli._parse(argv)) == want


def _benchmark_workloads():
    """``perfbench/workloads.py``, which builds the benchmark's argv."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module("workloads")


class TestFlagSurface:
    def test_each_leaf_registers_its_table_row(self):
        assert _leaf_flags(cli.build_parser()) == _LEAF_FLAGS
        assert sum(map(len, _LEAF_FLAGS.values())) == 56
        assert sum(map(len, _REMOVED_FLAGS.values())) == 33

    @pytest.mark.parametrize(
        "leaf, flag", [(leaf, flag) for leaf, flags in _REMOVED_FLAGS.items() for flag in flags]
    )
    def test_removed_flag_is_an_error(self, capsys, leaf, flag):
        assert flag not in _LEAF_FLAGS[leaf]
        argv = [*leaf.split(), *_REQUIRED.get(leaf, []), flag, *_FLAG_VALUES[flag]]
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: unrecognized arguments: {flag}")

    def test_benchmark_argv_parses(self, monkeypatch, tmp_path):
        workloads = _benchmark_workloads()
        parser = cli.build_parser()
        for seed in (0, 3):
            for i in (0, 1, 7):
                certify = [argv for *_, argv in workloads.certify_argvs(seed, i)]
                for argv in workloads.exposed_argvs(seed, i) + certify:
                    assert parser.parse_args(argv).handler == f"cmd_{argv[1]}"
                    assert_parsed_as_by_the_full_tree(parser, argv)
        seen = []
        monkeypatch.setattr(workloads, "run_cli", seen.append)
        screen = workloads.Screen(0, str(tmp_path), pool=2)
        for i in range(2):
            for job in screen.round(i):
                if job.cli:
                    job.call()
        assert len(seen) == 12
        for argv in seen:
            assert parser.parse_args(argv).handler == f"cmd_{argv[0]}"
            assert_parsed_as_by_the_full_tree(parser, argv)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every ``qxwit ...`` line of the README's sh blocks, as argv after ``qxwit``."""
    text = README.read_text(encoding="utf-8")
    blocks = [b.partition("\n")[2] for b in text.split("```")[1::2] if b.startswith("sh\n")]
    lines = [line.partition("#")[0] for b in blocks for line in b.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("qxwit ")]


def _readme_flag_table():
    """{command: the flags its row names} of the README's table of per-command
    flags: each row is "| `command` | ... |", a flag a code span "`--name...`"."""
    rows = re.findall(r"^\| `([a-z ]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), flags=re.M)
    return {leaf: set(re.findall(r"`(--[a-z][a-z-]*)", flags)) for leaf, flags in rows}


class TestReadmeFlagTable:
    def test_rows_are_what_each_leaf_registers(self):
        table = _readme_flag_table()
        assert len(table) == len(_LEAF_FLAGS)
        assert {leaf: flags | _COMMON_FLAGS for leaf, flags in table.items()} == _leaf_flags(
            cli.build_parser()
        )


class TestReadmeCommands:
    def test_at_least_one_per_leaf(self):
        leaves = {" ".join(argv[:2]) if argv[0] == "certify" else argv[0] for argv in _readme_commands()}
        assert leaves == set(_LEAF_FLAGS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        assert_parsed_as_by_the_full_tree(cli.build_parser(), argv)


def _exit_and_stdout(parse, argv) -> tuple:
    """What a parse that prints and exits (--help, --version) writes to
    stdout, with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue()


class TestDispatch:
    @pytest.mark.parametrize("leaf", sorted(_LEAF_FLAGS))
    def test_one_parse_per_leaf_argv(self, capsys, monkeypatch, leaf):
        parses, handled = [], []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        def handler(args, w):
            handled.append(args)
            return {}, 0, ""

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        monkeypatch.setattr(cli, f"cmd_{leaf.split()[-1]}", handler)
        code, out, err = run(capsys, *leaf.split(), *_REQUIRED.get(leaf, []))
        assert (code, err) == (0, "")
        assert parses == [f"qxwit {leaf}"]
        assert len(handled) == 1

    def test_handler_is_looked_up_when_called(self, capsys, monkeypatch):
        called = []
        cli._parser()
        monkeypatch.setattr(cli, "cmd_choi", lambda args, w: called.append(w) or ({}, 0, ""))
        code, out, _ = run(capsys, "choi", "--s", "4", "--t", "2")
        assert code == 0 and json.loads(out) == {"s": 4.0, "t": 2.0}
        assert len(called) == 1

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["--version"], ["certify", "--help"]]
        + [[*leaf.split(), "--help"] for leaf in sorted(_LEAF_FLAGS)],
        ids=" ".join,
    )
    def test_help_and_version_print_what_the_full_tree_prints(self, argv):
        code, out = _exit_and_stdout(main, argv)
        assert code == 0 and out
        assert (code, out) == _exit_and_stdout(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [["choi", "--=x"], ["certify", "spanning", "--=1"]], ids=" ".join)
    def test_root_ambiguity_reported_as_the_full_tree_does(self, capsys, argv):
        with pytest.raises(ValueError) as exc:
            cli.build_parser().parse_args(argv)
        assert str(exc.value).endswith("could match --help, --version")
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {exc.value}\n"


class TestUnwritableOutput:
    def test_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "choi.json"
        code, out, err = run(capsys, "choi", "--output", str(target))
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()


def _benchmark_reference():
    """``perfbench/reference.py``: the benchmark's independent numpy checks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("benchmark_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _benchmark_reference()


def cli_stdout(*argv) -> tuple:
    """Exit code and stdout of ``qxwit`` on argv, without a pytest fixture,
    so that ``hypothesis`` can call it many times in one test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestDetectPayload:
    def test_fields(self, capsys):
        code, payload = run_json(capsys, "certify", "detect")
        assert code == 0
        assert payload["delta"] == "2/11"
        assert payload["exact"] is payload["indecomposable"] is payload["certified"] is True
        assert payload["ball_radius"] == pytest.approx(2.2673e-2, abs=1e-6)
        assert payload["pairing_value"] == pytest.approx(-0.1111, abs=1e-4)
        for gone in ("lambda_max", "lambda_used", "seed", "grid", "direction_kind", "pt_allowance", "tol"):
            assert gone not in payload

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-100.0, 100.0),
        st.sampled_from(["x", "random"]),
        st.integers(0, 2**31 - 1),
    )
    def test_direction_and_seed_leave_stdout_alone(self, log_s, direction, seed):
        s = 10.0**log_s
        curve = ("--s", repr(s), "--t", repr(8.0 / s))
        flags = ("--direction", direction, "--seed", str(seed))
        assert cli_stdout("certify", "detect", *curve, *flags) == cli_stdout("certify", "detect", *curve)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-100.0, 100.0))
    def test_reference_accepts_stdout_along_the_curve(self, log_s):
        s = 10.0**log_s
        code, out = cli_stdout("certify", "detect", "--s", repr(s), "--t", repr(8.0 / s))
        payload = json.loads(out)
        assert code == 0
        REF.check_detect(payload, REF.choi(s, 8.0 / s))
        assert payload["exact"] is True and payload["certified"] is True


def _scale_files():
    return {
        **_x_files(),
        # negative at scale 1 but within 1e-12 of GHZ diagonal at scale 1e-12
        "imaginary_c": XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0], [0.5j, 1, -1, 1]),
        # GHZ diagonal at scale 1 but 0.1 away from it at scale 1e12
        "near_equal_diagonal": XMatrix([0, 0, 0, 1.0], [0, 0, 0, 1.0 + 1e-13], [1, 1, -1, 1]),
    }


class TestXStateExitScale:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    @pytest.mark.parametrize("name", sorted(_scale_files()))
    def test_exit_code_does_not_depend_on_scale(self, capsys, tmp_path, name, scale):
        x = _scale_files()[name]
        scaled = XMatrix(scale * x.a, scale * x.b, scale * x.c)
        code, _, _ = run(capsys, "xstate", "--file", _put(tmp_path, "x.json", x.to_json()))
        code_scaled, _, _ = run(
            capsys, "xstate", "--file", _put(tmp_path, "s.json", scaled.to_json())
        )
        assert code in (0, 1)
        assert code_scaled == code


class TestPositivityConvergence:
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0])
    def test_reports_the_see_saw_run(self, capsys, s):
        code, payload = run_json(
            capsys, "certify", "positivity", "--s", repr(s), "--t", repr(8.0 / s), "--restarts", "50"
        )
        res = verify_positive(WitnessFamily(s, 8.0 / s), restarts=50)
        assert code == 0
        assert payload["cycles"] == res.cycles
        assert payload["max_cycles"] == res.max_cycles == 300
        assert payload["converged"] is res.converged is True
        assert 1 <= payload["cycles"] < payload["max_cycles"]


def _echo_flags(d, command):
    w = WitnessFamily(4.0, 2.0)
    eye2 = _put(d, "eye2.json", matrix_to_json(np.eye(2)))
    return {
        "choi": [],
        "apply": ["--x", eye2, "--y", eye2],
        "pairing": ["--rho", _put(d, "r.json", matrix_to_json(np.eye(8) / 8.0))],
        "kernel": ["--family", "eta1"],
        "classify": ["--vector", _put(d, "v.json", product_vector_to_json(kernel_vector(w, "eta1", (1.0, 1.0))))],
        "xstate": ["--file", _put(d, "x.json", _ONES)],
        "certify": ["spanning"],
    }[command]


class TestParameterEcho:
    @pytest.mark.parametrize(
        "command", ["choi", "apply", "pairing", "kernel", "classify", "xstate", "certify"]
    )
    def test_every_payload_echoes_s_and_t(self, capsys, tmp_path, command):
        _, payload = run_json(capsys, command, *_echo_flags(tmp_path, command), "--s", "4", "--t", "2")
        assert payload["s"] == 4.0
        assert payload["t"] == 2.0


class TestPositivityPayload:
    def test_is_the_see_saw_result_json(self, capsys):
        code, payload = run_json(
            capsys, "certify", "positivity", "--s", "4", "--t", "2", "--restarts", "50", "--seed", "3"
        )
        res = verify_positive(WitnessFamily(4.0, 2.0), restarts=50, seed=3)
        lib = res.to_json_dict()
        assert code == 0
        assert {k: v for k, v in payload.items() if k not in ("s", "t", "certified")} == lib
        again = product_vector_from_json(lib["argmin"])
        for f, g in zip(again.factors(), res.argmin.factors()):
            assert np.array_equal(f, g)


class TestPositivityRunReport:
    def test_restarts_moving(self, capsys):
        code, payload = run_json(capsys, "certify", "positivity", "--restarts", "50", "--seed", "2")
        assert code == 0
        assert payload["converged"] is True and payload["restarts_moving"] == 0

    @pytest.mark.parametrize("s", [1e-8, 1e12])
    def test_certified_at_the_curve_ends(self, capsys, s):
        code, payload = run_json(capsys, "certify", "positivity", "--s", repr(s), "--t", repr(8.0 / s))
        assert code == 0 and payload["certified"] is True


#: The stdout of ``certify exposedness``, with the exit code, less the echoed
#: ``s`` and ``t``, for the certificate and the flat-only control: every run
#: computes at s = t from its fixed members, so the text is the same at every
#: (s, 8 / s).  Written out in full, so that a change that moves a byte shows
#: as a readable diff.  Pinned when the nullspace, the survivor and the prune
#: directions moved to one Householder QR and the payload began to cite the
#: exact ranks and their prime.  A change meant to keep the output must keep
#: these.  They pin one platform's floating point (numpy 2.4
#: with OpenBLAS 0.3.31 on x86-64): another BLAS or LAPACK may round the last
#: bits of ``direction_match_error`` and ``pv4_diagonal_error`` differently.
_EXPOSEDNESS_STDOUT = {
    "certificate": (
        0,
        '{"certified":true,"constraint_count":32,"direction_match_error":1.1794536764359223e-15,'
        '"exact_rank":[32,63],"nullspace_dim":32,"prime":2147483497,"pv4_diagonal_error":7.963299770872632e-16,'
        '"surviving_ray_dim":1,"tol":1e-08,"unpruned_directions":0}\n',
    ),
    "control": (
        1,
        '{"certified":false,"constraint_count":18,"direction_match_error":2.7194799110210365e-16,'
        '"exact_rank":[18,54],"nullspace_dim":46,"prime":2147483497,"pv4_diagonal_error":0.0,'
        '"surviving_ray_dim":10,"tol":1e-08,"unpruned_directions":null}\n',
    ),
}

#: The inputs s, t = 8 / s, at which the stdout is pinned.
_EXPOSEDNESS_PINNED_S = (0.5, 2 * SQRT2, 16.0, 1.0, 8.0, 1e-3)


class TestExposednessStdoutPinned:
    @pytest.mark.parametrize("kind", list(_EXPOSEDNESS_STDOUT))
    @pytest.mark.parametrize("s", _EXPOSEDNESS_PINNED_S)
    def test_stdout(self, capsys, s, kind):
        argv = ["certify", "exposedness", "--s", repr(s), "--t", repr(8.0 / s)]
        if kind == "control":
            argv.append("--drop-curved-constraints")
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert (payload["s"], payload["t"]) == (s, 8.0 / s)
        # the echo, as the sorted compact JSON writes it, after the key before it
        for key in ("s", "t"):
            echo = f',"{key}":{json.dumps(payload[key])}'
            assert out.count(echo) == 1
            out = out.replace(echo, "")
        assert (code, out) == _EXPOSEDNESS_STDOUT[kind]


class TestExposednessGate:
    """``perfbench/reference.py``'s ``check_exposedness``, the benchmark's gate
    on ``certify exposedness``, over the whole curve and on the benchmark's
    own argv.  The probe runs once per certificate; the control, which its
    exact first-order rank refuses, runs none."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-100.0, 100.0))
    def test_reference_accepts_stdout_along_the_curve(self, log_s):
        s = 10.0**log_s
        curve = ("certify", "exposedness", "--s", repr(s), "--t", repr(8.0 / s))
        for control, extra in ((False, ()), (True, ("--drop-curved-constraints",))):
            with mock.patch.object(certify, "_prune_probe", wraps=certify._prune_probe) as spy:
                code, out = cli_stdout(*curve, *extra)
            payload = json.loads(out)
            REF.check_exposedness(code, payload, control)
            assert spy.call_count == (0 if control else 1)
            assert payload["unpruned_directions"] == (None if control else 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_benchmark_rounds_pass_the_gate(self, seed):
        workloads = _benchmark_workloads()
        for i in range(10):
            for argv in workloads.exposed_argvs(seed, i):
                code, out = cli_stdout(*argv)
                REF.check_exposedness(code, json.loads(out), "--drop-curved-constraints" in argv)


#: sha256 of the stdout, with the exit code, of ``certify spanning`` at (s,
#: grid), t = 8 / s.  Recorded while all eight conjugation classes still took
#: their own SVD, and at s = 0.5 and 16 again when spanning moved to the frame
#: s = t (the digests at s = t did not move); a change meant to keep the
#: output must keep these.  They pin the same platform's floating point as the
#: exposedness stdout above.
_SPANNING_STDOUT_SHA256 = {
    (0.5, "small"): (0, "375d51d2416586e7f972addc6dc7ef503129d2bc47b7d4619fffacf33cdd2cc7"),
    (0.5, "default"): (0, "b7436edd08e714b171d0ba3637f87430a56e475196bcfa3530904150717b149d"),
    (0.5, "fine"): (0, "5a6548f5782462c6c7043c0e620144d66a64cfe0af55d1a93d520e118db33e1d"),
    (2 * SQRT2, "small"): (0, "e3a714e9aa3d5b0fe88858821936fdd221513a078c3753cc81b2ec7091711e56"),
    (2 * SQRT2, "default"): (0, "a846aebcfe13d07e0a0f95753f3e8fd34197b64e2fe2c544ac2f34b463435f37"),
    (2 * SQRT2, "fine"): (0, "e66b9557bddce7aa4654a5ae343445afcf1731d0a326b42d060da7ba0e3196cb"),
    (16.0, "small"): (0, "8297275421fe5944858e6e28a80955aa5dbd88dfd7b969e72afa24cd73eb469c"),
    (16.0, "default"): (0, "6073ba8f07db341fa75e42e751b8a2c44350536cf992244953e9aa1d2ab837d5"),
    (16.0, "fine"): (0, "00361fafa598b30a618223f5150c6942920638945ce263181b25d2390ac05ed7"),
}


class TestSpanningGate:
    """``perfbench/reference.py``'s ``check_spanning``, the benchmark's gate on
    ``certify spanning``, along the curve on every preset grid.  The reference
    recomputes the grid's ranks at the input's (s, t), whose frame is too
    badly scaled for rank 8 outside log10 s in [-7.25, 8]; the payload, which
    is the frame s = t's, is full rank everywhere."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-7.25, 8.0), st.sampled_from(["small", "default", "fine"]))
    def test_reference_accepts_stdout_along_the_curve(self, log_s, grid):
        s = 10.0**log_s
        code, out = cli_stdout("certify", "spanning", "--s", repr(s), "--t", repr(8.0 / s), "--grid", grid)
        assert code == 0
        REF.check_spanning(json.loads(out), s, 8.0 / s)


class TestSpanningStdoutPinned:
    @pytest.mark.parametrize("s, grid", list(_SPANNING_STDOUT_SHA256))
    def test_sha256(self, capsys, s, grid):
        code, out, _ = run(capsys, "certify", "spanning", "--s", repr(s), "--t", repr(8.0 / s), "--grid", grid)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == _SPANNING_STDOUT_SHA256[s, grid]


#: sha256 of the stdout, with the exit code, of ``certify positivity`` at (s,
#: restarts), t = 8 / s, seed 3.  Recorded when the see-saw's party update
#: moved to one BLAS product and one einsum with a guarded division; a change
#: to the engine at rounding level shows here as a diff.  They pin the same
#: platform's floating point as the digests above.
_POSITIVITY_STDOUT_SHA256 = {
    (0.5, 24): (0, "30cc853cddb6e7f02ae1db9e0467293c500914004f1af7795aebf70620444b1b"),
    (0.5, 200): (0, "03900293652cb48eba4c7075249461e0b8e5524d16ba3aad8b9fd200fca000aa"),
    (2 * SQRT2, 24): (0, "99a75a067dfc141b150b9508cfc425dfb1d289e298f3500d6d193f1050a5d353"),
    (2 * SQRT2, 200): (0, "27f7ab66bbe3345b46fc058e3761f85242dda4e6d8afc2f47507f5753e4ff0fe"),
    (16.0, 24): (0, "91a85c8118bf2f7ed9c1f0dd882fd089db27da9e3fc3b60ac7171865b1e0fe68"),
    (16.0, 200): (0, "ee661b2127cb423386cf5167206847bf39b2d9a313d706bc7b4431a1a1d35fc7"),
}


class TestPositivityStdoutPinned:
    @pytest.mark.parametrize("s, restarts", list(_POSITIVITY_STDOUT_SHA256))
    def test_sha256(self, capsys, s, restarts):
        code, out, _ = run(
            capsys, "certify", "positivity", "--s", repr(s), "--t", repr(8.0 / s), "--restarts", str(restarts),
            "--seed", "3",
        )
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == _POSITIVITY_STDOUT_SHA256[s, restarts]
