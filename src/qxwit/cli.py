"""Command-line front end.

Subcommands: choi, apply, pairing, kernel, classify, xstate, and certify
with its kinds spanning, positivity, exposedness and detect.  Each declares
only the flags its handler reads, but for the inert --seed of spanning,
exposedness and detect and --direction of detect, which the benchmark passes.
Output is JSON on stdout (byte-identical across runs for fixed flags and
seed); --pretty indents it and adds a one-line summary on stderr.
Exit codes: 0 certified / verdict positive, 1 verdict negative, 2 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .certify import (
    RANK_THRESHOLD,
    exposedness_certificate,
    find_ppt_entangled,
    kernel_classify,
    spanning_check,
)
from .qcore import (
    matrix_from_json,
    matrix_to_json,
    product_vector_from_json,
    product_vector_to_json,
)
from .witness import (
    FAMILY_TAGS,
    KernelGrid,
    WitnessFamily,
    choi_explicit,
    kernel_vector,
    pairing,
    phi_apply,
    verify_positive,
    _PV1_SLOTS,
)
from .xstate import (
    XMatrix,
    _block_positivity,
    is_ghz_diagonal,
    rank4_separability_check,
    x_norm,
    xpart,
)


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line to main, which reports it as one error line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qxwit",
        description="Construction and numerical certification of a family of "
        "three-qubit entanglement witnesses.",
    )
    parser.add_argument("--version", action="version", version=f"qxwit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    grids = ("small", "default", "fine")
    ignored = "ignored; the benchmark's exposed and certify workloads pass it"

    def command(subparsers, name, handler, help):
        p = subparsers.add_parser(name, help=help)
        p.add_argument("--s", type=float, default=WitnessFamily.s, help="witness parameter s")
        p.add_argument("--t", type=float, default=WitnessFamily.t, help="witness parameter t")
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent JSON, summary on stderr")
        p.set_defaults(handler=handler)
        return p

    command(commands, "choi", cmd_choi, "emit the Choi matrix and its X decomposition")

    p = command(commands, "apply", cmd_apply, "apply the bilinear map to two 2x2 matrices")
    p.add_argument("--x", required=True, help="matrix JSON file, first argument")
    p.add_argument("--y", required=True, help="matrix JSON file, second argument")

    p = command(commands, "pairing", cmd_pairing, "pair an 8x8 state file with the Choi matrix")
    p.add_argument("--rho", required=True, help="matrix JSON file (dim 8)")

    p = command(commands, "kernel", cmd_kernel, "emit a kernel family member and its pairing")
    p.add_argument("--tol", type=float, default=1e-9, help="bound on the pairing")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument(
        "--params",
        default="1,1",
        help="comma list: a1,a2 for eta/zeta; re0,im0,re1,im1 (or re0,re1) for flat families",
    )

    p = command(commands, "classify", cmd_classify, "match a product vector file to a family")
    p.add_argument("--tol", type=float, default=1e-6, help="fit residual")
    p.add_argument("--vector", required=True, help="product vector JSON file")

    p = command(commands, "xstate", cmd_xstate, "verdicts for an X matrix file")
    p.add_argument("--file", required=True, help="X matrix JSON file")

    kinds = commands.add_parser(
        "certify", help="run a certification and encode it in the exit status"
    ).add_subparsers(dest="kind", required=True)

    p = command(kinds, "spanning", cmd_spanning, "rank 8 of the partially conjugated kernel")
    p.add_argument("--grid", choices=grids, default="default", help="kernel sampling grid")
    p.add_argument("--seed", type=int, default=0, help=ignored)

    p = command(kinds, "positivity", cmd_positivity, "see-saw minimum over product vectors")
    p.add_argument("--tol", type=float, default=1e-9, help="bound below zero on the minimum")
    p.add_argument("--seed", type=int, default=0, help="random seed of the restarts")
    p.add_argument("--restarts", type=int, default=200, help="see-saw restarts")

    p = command(kinds, "exposedness", cmd_exposedness, "the witness spans an exposed ray")
    p.add_argument("--tol", type=float, default=RANK_THRESHOLD, help="rank cutoff, direction match")
    p.add_argument("--grid", choices=grids, default="default", help="the flat-only control's grid")
    p.add_argument("--drop-curved-constraints", action="store_true", help="the flat-only control")
    p.add_argument("--seed", type=int, default=0, help=ignored)

    p = command(kinds, "detect", cmd_detect, "a PPT state the witness detects, in closed form")
    p.add_argument("--seed", type=int, default=0, help=ignored)
    p.add_argument("--direction", choices=("x", "random"), default="x", help=ignored)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call in this process reuses, built on first use.

    Parsing reads the parser and returns a new namespace, so reuse carries no
    state from one call to the next.
    """
    return build_parser()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _parse_params(family: str, text: str):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed --params {text!r}") from exc
    if family in _PV1_SLOTS:
        if len(values) == 2:
            return np.array([values[0], values[1]], dtype=complex)
        if len(values) == 4:
            return np.array([values[0] + 1j * values[1], values[2] + 1j * values[3]])
        raise ValueError("flat families take 2 or 4 numbers in --params")
    if len(values) != 2:
        raise ValueError("eta/zeta families take 2 numbers in --params")
    return (values[0], values[1])


def cmd_choi(args, w):
    c = choi_explicit(w)
    payload = {"matrix": matrix_to_json(c), "x": xpart(c).to_json()}
    return payload, 0, f"Choi matrix for s={w.s:g}, t={w.t:g}"


def cmd_apply(args, w):
    x = matrix_from_json(_load_json(args.x))
    y = matrix_from_json(_load_json(args.y))
    return {"result": matrix_to_json(phi_apply(w, x, y))}, 0, "map applied"


def cmd_pairing(args, w):
    rho = matrix_from_json(_load_json(args.rho))
    value = pairing(rho, choi_explicit(w))
    return {"pairing": value}, 0, f"pairing = {value:.6g}"


def cmd_kernel(args, w):
    params = _parse_params(args.family, args.params)
    v = kernel_vector(w, args.family, params)
    value = pairing(v.projector(), choi_explicit(w))
    ok = abs(value) <= args.tol
    payload = {
        "family": args.family,
        "vector": product_vector_to_json(v),
        "pairing": value,
        "within_tol": ok,
    }
    return payload, 0 if ok else 1, f"{args.family}: pairing = {value:.3e}"


def cmd_classify(args, w):
    v = product_vector_from_json(_load_json(args.vector))
    result = kernel_classify(w, v, tol=args.tol)
    code = 0 if result.family is not None else 1
    return result.to_json_dict(), code, f"family = {result.family}"


def cmd_xstate(args, w):
    x = XMatrix.from_json(_load_json(args.file))
    payload = {"ghz_diagonal": is_ghz_diagonal(x)}
    try:
        verdict = rank4_separability_check(x)
        payload["separable"] = verdict.separable
        payload["violations"] = list(verdict.violated)
        payload["separable_reason"] = None
    except ValueError as exc:
        payload["separable"] = None
        payload["violations"] = None
        payload["separable_reason"] = str(exc)
    witness_shaped = bool(
        np.all(x.a[:3] == 0.0) and np.all(x.b[:3] == 0.0) and x.a[3] >= 0 and x.b[3] >= 0
    )
    norm = x_norm(x.c)
    if witness_shaped:
        payload["block_positive"], payload["block_positive_equality"] = _block_positivity(
            x.a[3], x.b[3], norm
        )
    else:
        payload["block_positive"] = None
        payload["block_positive_equality"] = None
    payload["x_norm"] = norm
    positive_verdict = bool(
        payload["ghz_diagonal"]
        or payload.get("separable")
        or payload.get("block_positive")
    )
    return payload, 0 if positive_verdict else 1, "xstate verdicts emitted"


def cmd_spanning(args, w):
    report = spanning_check(w, KernelGrid.named(args.grid))
    note = f"spanning ranks: {[r.rank for r in report.records]}"
    return report.to_json_dict(), 0 if report.all_full_rank else 1, note


def cmd_positivity(args, w):
    res = verify_positive(w, restarts=args.restarts, seed=args.seed)
    ok = res.min_value >= -args.tol
    payload = {**res.to_json_dict(), "certified": ok}
    return payload, 0 if ok else 1, f"see-saw minimum = {res.min_value:.3e}"


def cmd_exposedness(args, w):
    cert = exposedness_certificate(
        w,
        KernelGrid.named(args.grid),
        tol=args.tol,
        include_eta_zeta=not args.drop_curved_constraints,
    )
    note = (
        f"surviving ray dim = {cert.surviving_ray_dim}, "
        f"match error = {cert.direction_match_error:.2e}"
    )
    return cert.to_json_dict(), 0 if cert.certified else 1, note


def cmd_detect(args, w):
    cert = find_ppt_entangled(w)
    note = f"PPT state with pairing {cert.pairing_value:.4g}"
    return cert.to_json_dict(), 0 if cert.certified else 1, note


def _emit(payload: dict, args) -> None:
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        w = WitnessFamily(args.s, args.t)
        payload, code, note = args.handler(args, w)
        _emit({**payload, "s": w.s, "t": w.t}, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
