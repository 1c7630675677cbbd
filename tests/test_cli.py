import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
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

    def test_exposedness_small_grid(self, capsys):
        code, payload = run_json(capsys, "certify", "exposedness", "--grid", "small")
        assert code == 0
        assert payload["certified"]
        assert payload["surviving_ray_dim"] == 1

    def test_exposedness_flat_only_fails(self, capsys):
        code, payload = run_json(
            capsys,
            "certify",
            "exposedness",
            "--grid",
            "small",
            "--drop-curved-constraints",
        )
        assert code == 1
        assert payload["surviving_ray_dim"] > 1

    @pytest.mark.parametrize("extra", [(), ("--drop-curved-constraints",)])
    def test_exposedness_does_not_depend_on_seed(self, capsys, extra):
        argv = ("certify", "exposedness", "--grid", "small", *extra)
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
        small = ("certify", "exposedness", "--grid", "small")
        steps = [
            ("certify", "exposedness", "--grid", "tiny"),
            (*small, "--drop-curved-constraints"),
            small,
            (*small, "--output", str(target)),
            small,
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
    "bad_choice": lambda d: ["certify", "exposedness", "--grid", "tiny"],
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


_COMMON_FLAGS = {"--s", "--t", "--output", "--pretty"}

#: The option strings each leaf command registers, -h/--help aside.  No
#: handler reads --seed on spanning, exposedness and detect, nor --direction
#: on detect: they are accepted because the benchmark's exposed and certify
#: workloads pass them.
_LEAF_FLAGS = {
    "choi": _COMMON_FLAGS,
    "apply": _COMMON_FLAGS | {"--x", "--y"},
    "pairing": _COMMON_FLAGS | {"--rho"},
    "kernel": _COMMON_FLAGS | {"--tol", "--family", "--params"},
    "classify": _COMMON_FLAGS | {"--tol", "--vector"},
    "xstate": _COMMON_FLAGS | {"--file"},
    "certify spanning": _COMMON_FLAGS | {"--grid", "--seed"},
    "certify positivity": _COMMON_FLAGS | {"--tol", "--seed", "--restarts"},
    "certify exposedness": _COMMON_FLAGS | {"--tol", "--grid", "--drop-curved-constraints", "--seed"},
    "certify detect": _COMMON_FLAGS | {"--seed", "--direction"},
}

#: Flags each leaf accepted, and ignored, before every command declared only
#: the flags its handler reads.
_REMOVED_FLAGS = {
    "choi": ("--tol", "--seed", "--grid"),
    "apply": ("--tol", "--seed", "--grid"),
    "pairing": ("--tol", "--seed", "--grid"),
    "kernel": ("--seed", "--grid"),
    "classify": ("--seed", "--grid"),
    "xstate": ("--tol", "--seed", "--grid"),
    "certify spanning": ("--tol", "--restarts", "--direction", "--drop-curved-constraints"),
    "certify positivity": ("--grid", "--direction", "--drop-curved-constraints"),
    "certify exposedness": ("--restarts", "--direction"),
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


def _benchmark_workloads():
    """``perfbench/workloads.py``, which builds the benchmark's argv."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module("workloads")


class TestFlagSurface:
    def test_each_leaf_registers_its_table_row(self):
        assert _leaf_flags(cli.build_parser()) == _LEAF_FLAGS
        assert sum(map(len, _LEAF_FLAGS.values())) == 60
        assert sum(map(len, _REMOVED_FLAGS.values())) == 29

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
                    assert parser.parse_args(argv).handler is getattr(cli, f"cmd_{argv[1]}")
        seen = []
        monkeypatch.setattr(workloads, "run_cli", seen.append)
        screen = workloads.Screen(0, str(tmp_path), pool=2)
        for i in range(2):
            for job in screen.round(i):
                if job.cli:
                    job.call()
        assert len(seen) == 12
        for argv in seen:
            assert parser.parse_args(argv).handler is getattr(cli, f"cmd_{argv[0]}")


def _readme_commands():
    """Every ``qxwit ...`` line of the README's sh blocks, as argv after ``qxwit``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.partition("\n")[2] for b in text.split("```")[1::2] if b.startswith("sh\n")]
    lines = [line.partition("#")[0] for b in blocks for line in b.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("qxwit ")]


class TestReadmeCommands:
    def test_at_least_one_per_leaf(self):
        leaves = {" ".join(argv[:2]) if argv[0] == "certify" else argv[0] for argv in _readme_commands()}
        assert leaves == set(_LEAF_FLAGS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        cli.build_parser().parse_args(argv)


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


def detect_stdout(*argv) -> tuple:
    """Exit code and stdout of ``certify detect``, without a pytest fixture,
    so that ``hypothesis`` can call it many times in one test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["certify", "detect", *argv])
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
        assert detect_stdout(*curve, *flags) == detect_stdout(*curve)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-100.0, 100.0))
    def test_reference_accepts_stdout_along_the_curve(self, log_s):
        s = 10.0**log_s
        code, out = detect_stdout("--s", repr(s), "--t", repr(8.0 / s))
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


#: sha256 of the stdout, with the exit code, of ``certify exposedness`` at
#: (s, grid, constraints), t = 8 / s.  Recorded once both runs moved to the
#: frame s = t and the certificate to its fixed 32 members; a change meant to
#: keep the output must keep these.  They pin one platform's floating point
#: (numpy 2.4 with OpenBLAS 0.3.31 on x86-64): another BLAS or LAPACK may
#: round the last bits differently.
_EXPOSEDNESS_STDOUT_SHA256 = {
    (0.5, "small", "certificate"): (0, "608dff75cfbfde9d7b6b8eee7d50de37462d47b78ec99b548b0e3c3ed552971f"),
    (0.5, "small", "control"): (1, "a776a829a7f652d536b1338c09985fa63e1fd88001c244f1b6474dd77645e6b9"),
    (0.5, "default", "certificate"): (0, "43ea19ef7facbe2c425eb90ba10f8fddfc5b69c6020aaf5eb2091fab215533a0"),
    (0.5, "default", "control"): (1, "e61a68ec755ab7b2b9dd5f8132287cc324109253f7154fc229cbdc7f85a0f4a8"),
    (2 * SQRT2, "small", "certificate"): (0, "7e2cac5c48c1c2f184f94277c6337c3c4aa17418f715e7bb4628d4c6cc70df12"),
    (2 * SQRT2, "small", "control"): (1, "d9bf5e04f4f51d7056c1ca071142568f4580a9c887baffe8b35d035abfc7dc7d"),
    (2 * SQRT2, "default", "certificate"): (0, "93573948a9bbea7614f4a6f09fcd17b5f46ad84b2edec9541a0b79cbdaf2241c"),
    (2 * SQRT2, "default", "control"): (1, "4e331688ea543cb281d760bcaa6c832458e02cb7fff67e8e7608ef203d8d73c1"),
    (16.0, "small", "certificate"): (0, "c21a242ebe71702add888e81fee0d99255664718e6fa4c6361dad7330b08edd1"),
    (16.0, "small", "control"): (1, "e5859e3c28305cf92902885c7a12b23aea6e523761af65c97d13533862b9f734"),
    (16.0, "default", "certificate"): (0, "ce2d5fa138ed75641df38aa07e0cc650679d76e2757b0806371cfae66e08473c"),
    (16.0, "default", "control"): (1, "c17327a733565a9c1c94fdd23ecf050d1e0fdcbafb1768c95403a70fcfd4a96e"),
}


class TestExposednessStdoutPinned:
    @pytest.mark.parametrize("s, grid, kind", list(_EXPOSEDNESS_STDOUT_SHA256))
    def test_sha256(self, capsys, s, grid, kind):
        argv = ["certify", "exposedness", "--s", repr(s), "--t", repr(8.0 / s), "--grid", grid]
        if kind == "control":
            argv.append("--drop-curved-constraints")
        code, out, _ = run(capsys, *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == _EXPOSEDNESS_STDOUT_SHA256[s, grid, kind]


#: sha256 of the stdout, with the exit code, of ``certify spanning`` at (s,
#: grid), t = 8 / s.  Recorded while all eight conjugation classes still took
#: their own SVD; a change meant to keep the output must keep these.  They
#: pin the same platform's floating point as the exposedness digests above.
_SPANNING_STDOUT_SHA256 = {
    (0.5, "small"): (0, "bbf1788a16031e2e702077608eed0a2ad6dc31d0bf71dd347d9ab59852223380"),
    (0.5, "default"): (0, "f29b45c6f24a433f3af78b082e2ee8e15c4ee247f33dedcb00ff884616bf4fd7"),
    (0.5, "fine"): (0, "d5f249274422813581ee5298d24138f86fe4b6f3109cf29fe4dba610c2ee2724"),
    (2 * SQRT2, "small"): (0, "e3a714e9aa3d5b0fe88858821936fdd221513a078c3753cc81b2ec7091711e56"),
    (2 * SQRT2, "default"): (0, "a846aebcfe13d07e0a0f95753f3e8fd34197b64e2fe2c544ac2f34b463435f37"),
    (2 * SQRT2, "fine"): (0, "e66b9557bddce7aa4654a5ae343445afcf1731d0a326b42d060da7ba0e3196cb"),
    (16.0, "small"): (0, "6784be8a6822a49119b1cc208e391c798dadac96c5dd58dc6eda30b923722d4c"),
    (16.0, "default"): (0, "a2174a265a87a281aa192e9aea95931010439432e97411e1323de2ebdeab8b52"),
    (16.0, "fine"): (0, "832ae54a9da1b8dd819da8065e5d17644b41b605e6a1e4b5b6728191b8570f64"),
}


class TestSpanningStdoutPinned:
    @pytest.mark.parametrize("s, grid", list(_SPANNING_STDOUT_SHA256))
    def test_sha256(self, capsys, s, grid):
        code, out, _ = run(capsys, "certify", "spanning", "--s", repr(s), "--t", repr(8.0 / s), "--grid", grid)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == _SPANNING_STDOUT_SHA256[s, grid]
