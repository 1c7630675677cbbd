import json
import math

import numpy as np
import pytest

from qxwit import (
    WitnessFamily,
    XMatrix,
    choi_explicit,
    dual_state,
    is_block_positive_xwitness,
    kernel_vector,
    matrix_to_json,
    product_vector_to_json,
    x_norm,
    xpart,
)
from qxwit import cli, xstate
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
        code, payload = run_json(
            capsys, "certify", "exposedness", "--grid", "small", "--prune-restarts", "16"
        )
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
            "--prune-restarts",
            "8",
            "--drop-curved-constraints",
        )
        assert code == 1
        assert payload["surviving_ray_dim"] > 1


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
