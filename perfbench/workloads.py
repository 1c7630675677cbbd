"""The benchmark's workloads: inputs generated from a seed, and the verdict
jobs that call into qxwit.

A workload is a sequence of rounds.  Round ``i`` is a fixed list of jobs,
one per verdict kind, whose inputs are drawn from ``(seed, i)`` alone, so a
given seed always yields the same rounds.  A job's ``call`` is the timed
request; its ``check`` compares the outcome with the independent reference
in ``reference.py`` and raises on disagreement.

qxwit is reached only through module attributes (``qxwit.cli.main``,
``qxwit.x_norm``) looked up at call time, so tracing wrappers installed on
those attributes see every request.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qxwit
import qxwit.cli

import reference as ref

#: Curve points s * t = 8 are drawn with s log-uniform in this range.
S_RANGE = (0.5, 16.0)
#: Inputs per screen query kind; rounds cycle through them.
SCREEN_POOL = 64


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = False
    #: The verdict runs on every core (the exposedness prune pool).
    all_cores: bool = False


def curve_point(rng) -> tuple:
    s = math.exp(rng.uniform(math.log(S_RANGE[0]), math.log(S_RANGE[1])))
    return s, 8.0 / s


def round_rng(seed: int, workload: str, i: int):
    return np.random.default_rng([seed, sum(map(ord, workload)), i])


def run_cli(argv) -> tuple:
    """In-process CLI call: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qxwit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


def cli_job(kind: str, argv: list, check: Callable[[int, dict], None], all_cores: bool = False) -> Job:
    def verify(result):
        code, text = result
        check(code, json.loads(text))

    return Job(kind, lambda: run_cli(argv), verify, cli=True, all_cores=all_cores)


def _st_args(s: float, t: float) -> list:
    return ["--s", repr(s), "--t", repr(t)]


def _expect(code: int, wanted: int) -> None:
    ref.require(code == wanted, f"exit code {code}, expected {wanted}")


# --- exposed --------------------------------------------------------------------


def exposed_argvs(seed: int, i: int) -> list:
    """Certificate at one curve point and the flat-only control at another."""
    rng = round_rng(seed, "exposed", i)
    out = []
    for extra in ([], ["--drop-curved-constraints"]):
        s, t = curve_point(rng)
        out.append(["certify", "exposedness", *_st_args(s, t),
                    "--seed", str(int(rng.integers(2**31))), *extra])
    return out


def exposed_round(seed: int, i: int) -> list:
    cert, control = exposed_argvs(seed, i)
    return [
        cli_job("exposedness:cert", cert, lambda code, p: ref.check_exposedness(code, p, False), all_cores=True),
        cli_job("exposedness:neg", control, lambda code, p: ref.check_exposedness(code, p, True), all_cores=True),
    ]


# --- certify --------------------------------------------------------------------

CERTIFY_KINDS = (
    ("spanning:small", ["spanning", "--grid", "small"]),
    ("spanning:default", ["spanning", "--grid", "default"]),
    ("spanning:fine", ["spanning", "--grid", "fine"]),
    ("positivity:200", ["positivity", "--restarts", "200"]),
    ("positivity:1000", ["positivity", "--restarts", "1000"]),
    ("detect:x", ["detect", "--direction", "x"]),
    ("detect:random", ["detect", "--direction", "random"]),
)


def certify_argvs(seed: int, i: int) -> list:
    rng = round_rng(seed, "certify", i)
    out = []
    for kind, args in CERTIFY_KINDS:
        s, t = curve_point(rng)
        argv = ["certify", *args, *_st_args(s, t), "--seed", str(int(rng.integers(2**31)))]
        out.append((kind, s, t, argv))
    return out


def _certify_check(kind: str, s: float, t: float):
    c = ref.choi(s, t)

    def check(code, payload):
        _expect(code, 0)
        if kind.startswith("spanning"):
            ref.check_spanning(payload, s, t)
        elif kind.startswith("positivity"):
            ref.check_positivity(payload, c)
        else:
            ref.check_detect(payload, c)

    return check


def certify_round(seed: int, i: int) -> list:
    return [cli_job(kind, argv, _certify_check(kind, s, t)) for kind, s, t, argv in certify_argvs(seed, i)]


# --- screen ---------------------------------------------------------------------


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_state(rng) -> np.ndarray:
    g = _cgauss(rng, 8, int(rng.integers(1, 9)))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _ppt_state(rng) -> np.ndarray:
    """Random state whose smallest partial-transpose eigenvalue is clear of zero."""
    while True:
        rho = _random_state(rng)
        if abs(float(np.min(ref.pt_min_eigs(rho)))) > 1e-6:
            return rho


def _x_witness(rng) -> tuple:
    """(x4, y4, z) with sqrt(x4 y4) well above or below the X norm of z."""
    z = _cgauss(rng, 4)
    lo, hi = ref.x_norm_bracket(z)
    margin = rng.uniform(0.05, 0.5)
    target = hi * (1.0 + margin) if rng.random() < 0.5 else lo * (1.0 - margin)
    r = _log_uniform(rng, 0.25, 4.0)
    return target * r, target / r, z


def _dual(rng, s: float, t: float) -> tuple:
    return ref.dual_state(s, t, int(rng.integers(1, 3)), _log_uniform(rng, 0.25, 4.0), _log_uniform(rng, 0.25, 4.0))


def _random_x_state(rng) -> tuple:
    a = rng.uniform(0.1, 2.0, 4)
    b = rng.uniform(0.1, 2.0, 4)
    return a, b, _cgauss(rng, 4)


def _factors(rng) -> list:
    """Random product-vector factors with no entry near zero."""
    while True:
        f = [_cgauss(rng, 2) for _ in range(3)]
        if min(float(np.min(np.abs(x))) for x in f) > 0.1:
            return f


def _kernel_member(rng, s: float, t: float) -> tuple:
    """(tag, params, factors): a kernel-family member with a random phase and
    scale on every party."""
    tag = ref.TAGS[int(rng.integers(len(ref.TAGS)))]
    if tag in ref.FLAT_SLOTS:
        params = _cgauss(rng, 2)
    else:
        params = (_log_uniform(rng, 0.25, 4.0), _log_uniform(rng, 0.25, 4.0))
    factors = [f * _log_uniform(rng, 0.5, 2.0) * np.exp(2j * np.pi * rng.random())
               for f in ref.kernel_factors(s, t, tag, params)]
    return tag, params, factors


def _non_kernel(rng, c: np.ndarray) -> list:
    while True:
        f = [_cgauss(rng, 2) for _ in range(3)]
        if ref.form(c, ref.product(f)) > 1e-3:
            return f


def _matrix_json(m) -> dict:
    return {"dim": 8, "re": m.real.tolist(), "im": m.imag.tolist()}


def _x_json(a, b, c) -> dict:
    return {"a": list(map(float, a)), "b": list(map(float, b)),
            "c_re": np.real(c).tolist(), "c_im": np.imag(c).tolist()}


def _vector_json(factors) -> dict:
    out = {}
    for p, f in zip("xyz", factors):
        out[f"{p}_re"] = np.real(f).tolist()
        out[f"{p}_im"] = np.imag(f).tolist()
    return out


def screen_inputs(seed: int, pool: int = SCREEN_POOL) -> list:
    """One dict of raw inputs per pool slot, drawn from the seed."""
    items = []
    for k in range(pool):
        rng = round_rng(seed, "screen", k)
        s, t = curve_point(rng)
        c = ref.choi(s, t)
        v = ref.product(_factors(rng))
        items.append({
            "s": s, "t": t, "c": c,
            "rho": _random_state(rng),
            "ppt_rho": _ppt_state(rng),
            "z": _dual(rng, s, t)[2] if k % 2 else _cgauss(rng, 4),
            "witness": _x_witness(rng),
            "dual": _dual(rng, s, t),
            "x_random": _random_x_state(rng),
            "x_product": ref.x_of(np.outer(v, v.conj())),
            "hit": _kernel_member(rng, s, t),
            "miss": _non_kernel(rng, c),
            "kernel": _kernel_member(rng, s, t)[:2],
            "cli_witness": _x_witness(rng),
            "cli_dual": _dual(rng, s, t),
        })
    return items


def write_screen_files(items: list, workdir: str) -> list:
    """Write the CLI input files of every pool slot; returns their paths."""
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for k, it in enumerate(items):
        files = {
            "rho": _matrix_json(it["rho"]),
            "witness": _x_json([0, 0, 0, it["cli_witness"][0]], [0, 0, 0, it["cli_witness"][1]], it["cli_witness"][2]),
            "dual": _x_json(*it["cli_dual"]),
            "hit": _vector_json(it["hit"][2]),
            "miss": _vector_json(it["miss"]),
        }
        slot = {}
        for name, obj in files.items():
            path = os.path.join(workdir, f"{k:03d}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, sort_keys=True)
            slot[name] = path
        paths.append(slot)
    return paths


def _flat_params_arg(params) -> str:
    p = np.asarray(params, dtype=complex)
    return ",".join(repr(float(v)) for v in (p[0].real, p[0].imag, p[1].real, p[1].imag))


class Screen:
    """Library and CLI queries over a pool of generated inputs."""

    def __init__(self, seed: int, workdir: str, pool: int = SCREEN_POOL):
        self.items = screen_inputs(seed, pool)
        self.paths = write_screen_files(self.items, workdir)
        for it in self.items:
            it["family"] = qxwit.WitnessFamily(it["s"], it["t"])
            it["hit_pv"] = qxwit.ProductVector(*it["hit"][2])
            it["miss_pv"] = qxwit.ProductVector(*it["miss"])
            it["xm"] = {key: qxwit.XMatrix(*it[key]) for key in ("dual", "x_random", "x_product")}

    def round(self, i: int) -> list:
        it = self.items[i % len(self.items)]
        files = self.paths[i % len(self.paths)]
        s, t, c, w = it["s"], it["t"], it["c"], it["family"]
        x4, y4, z = it["witness"]
        rec_key = "dual" if i % 2 else "x_product"
        jobs = [
            Job("lib.pairing", lambda: qxwit.pairing(it["rho"], c),
                lambda v: ref.check_pairing(v, it["rho"], c)),
            Job("lib.ppt_check", lambda: qxwit.ppt_check(it["ppt_rho"]),
                lambda r: ref.check_ppt(r.is_ppt, r.min_eigs, it["ppt_rho"])),
            Job("lib.x_norm", lambda: qxwit.x_norm(it["z"]), lambda v: ref.check_x_norm(v, it["z"])),
            Job("lib.block_positive", lambda: qxwit.is_block_positive_xwitness(x4, y4, z),
                lambda v: ref.check_block_positive(v, x4, y4, z)),
            Job("lib.rank4_dual", lambda: qxwit.rank4_separability_check(it["xm"]["dual"]),
                lambda r: ref.check_rank4(r.separable, *it["dual"])),
            Job("lib.rank4_random", lambda: qxwit.rank4_separability_check(it["xm"]["x_random"]),
                lambda r: ref.check_rank4(r.separable, *it["x_random"])),
            Job("lib.reconstruct", lambda: qxwit.reconstruct_product_vector(it["xm"][rec_key]),
                lambda r: ref.check_reconstruction(r.vector.factors(), r.scale, *it[rec_key])),
            Job("lib.classify_hit", lambda: qxwit.kernel_classify(w, it["hit_pv"]),
                lambda r: ref.check_classify_hit(r.family, r.params, it["hit"][2], c, s, t)),
            Job("lib.classify_miss", lambda: qxwit.kernel_classify(w, it["miss_pv"]),
                lambda r: ref.check_classify_miss(r.family)),
        ]
        st = _st_args(s, t)
        cx4, cy4, cz = it["cli_witness"]
        tag, params = it["kernel"]
        param_arg = _flat_params_arg(params) if tag in ref.FLAT_SLOTS else ",".join(map(repr, params))

        def pairing_check(code, p):
            _expect(code, 0)
            ref.check_pairing(p["pairing"], it["rho"], c)

        def dual_check(code, p):
            _expect(code, 0)
            ref.check_rank4(p["separable"], *it["cli_dual"])
            ref.check_x_norm(p["x_norm"], it["cli_dual"][2])

        def witness_check(code, p):
            ref.check_block_positive(p["block_positive"], cx4, cy4, cz)
            ref.check_x_norm(p["x_norm"], cz)
            _expect(code, 0 if p["block_positive"] else 1)

        def hit_check(code, p):
            _expect(code, 0)
            ref.check_classify_hit(p["family"], ref.params_from_json(p["family"], p["params"]),
                                   it["hit"][2], c, s, t)

        def miss_check(code, p):
            _expect(code, 1)
            ref.check_classify_miss(p["family"])

        def kernel_check(code, p):
            _expect(code, 0)
            got = ref.vector_from_json(p["vector"])
            want = ref.kernel_factors(s, t, tag, params)
            ref.require(max(ref.ray_distance(f, g) for f, g in zip(got, want)) <= 1e-6,
                        f"{tag} member differs from the reference")
            ref.require(abs(ref.form(c, ref.product(got))) <= ref.EPS * max(s, t), "kernel member not annihilated")

        jobs += [
            cli_job("cli.pairing", ["pairing", "--rho", files["rho"], *st], pairing_check),
            cli_job("cli.xstate_dual", ["xstate", "--file", files["dual"], *st], dual_check),
            cli_job("cli.xstate_witness", ["xstate", "--file", files["witness"], *st], witness_check),
            cli_job("cli.classify_hit", ["classify", "--vector", files["hit"], *st], hit_check),
            cli_job("cli.classify_miss", ["classify", "--vector", files["miss"], *st], miss_check),
            cli_job("cli.kernel", ["kernel", "--family", tag, f"--params={param_arg}", *st], kernel_check),
        ]
        return jobs


def make_rounds(name: str, seed: int, workdir: str) -> Callable[[int], list]:
    """Round factory of a workload; set-up work (input files) happens here."""
    if name == "exposed":
        return lambda i: exposed_round(seed, i)
    if name == "certify":
        return lambda i: certify_round(seed, i)
    if name == "screen":
        return Screen(seed, workdir).round
    raise ValueError(f"unknown workload {name!r}")
