"""Command-line front end.

Subcommands: choi, apply, pairing, kernel, classify, xstate, certify.
Output is JSON on stdout (byte-identical across runs for fixed flags and
seed); --pretty indents it and adds a one-line summary on stderr.
Exit codes: 0 certified / verdict positive, 1 verdict negative, 2 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import (
    exposedness_certificate,
    find_ppt_entangled,
    kernel_classify,
    spanning_check,
)
from .qcore import (
    PSD_TOL,
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

_DEFAULT_ST = 2.0 * math.sqrt(2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qxwit",
        description="Construction and numerical certification of a family of "
        "three-qubit entanglement witnesses.",
    )
    parser.add_argument("--version", action="version", version=f"qxwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--s", type=float, default=_DEFAULT_ST, help="witness parameter s")
        p.add_argument("--t", type=float, default=_DEFAULT_ST, help="witness parameter t")
        p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="random seed (exposedness: seeds only the see-saw on perturbations the probe "
            "leaves open)",
        )
        p.add_argument(
            "--grid",
            choices=("small", "default", "fine"),
            default="default",
            help="kernel sampling grid",
        )
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent JSON, summary on stderr")

    p = sub.add_parser("choi", help="emit the Choi matrix and its X decomposition")
    common(p)

    p = sub.add_parser("apply", help="apply the bilinear map to two 2x2 matrices")
    common(p)
    p.add_argument("--x", required=True, help="matrix JSON file, first argument")
    p.add_argument("--y", required=True, help="matrix JSON file, second argument")

    p = sub.add_parser("pairing", help="pair an 8x8 state file with the Choi matrix")
    common(p)
    p.add_argument("--rho", required=True, help="matrix JSON file (dim 8)")

    p = sub.add_parser("kernel", help="emit a kernel family member and its pairing")
    common(p)
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument(
        "--params",
        default="1,1",
        help="comma list: a1,a2 for eta/zeta; re0,im0,re1,im1 (or re0,re1) for flat families",
    )

    p = sub.add_parser("classify", help="match a product vector file to a kernel family")
    common(p)
    p.add_argument("--vector", required=True, help="product vector JSON file")

    p = sub.add_parser("xstate", help="verdicts for an X matrix file")
    common(p)
    p.add_argument("--file", required=True, help="X matrix JSON file")

    p = sub.add_parser("certify", help="run a certification and encode it in the exit status")
    common(p)
    p.add_argument("which", choices=("spanning", "exposedness", "detect", "positivity"))
    p.add_argument("--restarts", type=int, default=200, help="see-saw restarts (positivity)")
    p.add_argument("--prune-step", type=float, default=0.05, help="perturbation size (exposedness)")
    p.add_argument(
        "--prune-restarts",
        type=int,
        default=32,
        help="exposedness: see-saw restarts per perturbation the closed-form probe leaves open",
    )
    p.add_argument("--direction", choices=("x", "random"), default="x", help="detect direction")
    p.add_argument(
        "--drop-curved-constraints",
        action="store_true",
        help="exposedness only: restrict constraints to the flat families",
    )
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
    except (OSError, json.JSONDecodeError) as exc:
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


def cmd_choi(args):
    w = WitnessFamily(args.s, args.t)
    c = choi_explicit(w)
    payload = {
        "s": w.s,
        "t": w.t,
        "matrix": matrix_to_json(c),
        "x": xpart(c).to_json(),
    }
    return payload, 0, f"Choi matrix for s={w.s:g}, t={w.t:g}"


def cmd_apply(args):
    w = WitnessFamily(args.s, args.t)
    x = matrix_from_json(_load_json(args.x))
    y = matrix_from_json(_load_json(args.y))
    result = phi_apply(w, x, y)
    return {"s": w.s, "t": w.t, "result": matrix_to_json(result)}, 0, "map applied"


def cmd_pairing(args):
    w = WitnessFamily(args.s, args.t)
    rho = matrix_from_json(_load_json(args.rho))
    value = pairing(rho, choi_explicit(w))
    return {"s": w.s, "t": w.t, "pairing": value}, 0, f"pairing = {value:.6g}"


def cmd_kernel(args):
    w = WitnessFamily(args.s, args.t)
    tol = args.tol if args.tol is not None else 1e-9
    params = _parse_params(args.family, args.params)
    v = kernel_vector(w, args.family, params)
    value = pairing(v.projector(), choi_explicit(w))
    ok = abs(value) <= tol
    payload = {
        "s": w.s,
        "t": w.t,
        "family": args.family,
        "vector": product_vector_to_json(v),
        "pairing": value,
        "within_tol": ok,
    }
    return payload, 0 if ok else 1, f"{args.family}: pairing = {value:.3e}"


def cmd_classify(args):
    w = WitnessFamily(args.s, args.t)
    tol = args.tol if args.tol is not None else 1e-6
    v = product_vector_from_json(_load_json(args.vector))
    result = kernel_classify(w, v, tol=tol)
    payload = {"s": w.s, "t": w.t, **result.to_json_dict()}
    code = 0 if result.family is not None else 1
    return payload, code, f"family = {result.family}"


def cmd_xstate(args):
    w = WitnessFamily(args.s, args.t)
    x = XMatrix.from_json(_load_json(args.file))
    payload = {"s": w.s, "t": w.t, "ghz_diagonal": is_ghz_diagonal(x)}
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


def cmd_certify(args):
    w = WitnessFamily(args.s, args.t)
    grid = KernelGrid.named(args.grid)
    if args.which == "spanning":
        report = spanning_check(w, grid)
        payload = report.to_json_dict()
        ok = report.all_full_rank
        note = f"spanning ranks: {[r.rank for r in report.records]}"
    elif args.which == "positivity":
        tol = args.tol if args.tol is not None else 1e-9
        res = verify_positive(w, restarts=args.restarts, seed=args.seed)
        ok = res.min_value >= -tol
        payload = {
            "s": w.s,
            "t": w.t,
            "seed": args.seed,
            "restarts": res.restarts,
            "min_value": res.min_value,
            "argmin": product_vector_to_json(res.argmin),
            "cycles": res.cycles,
            "max_cycles": res.max_cycles,
            "converged": res.converged,
            "certified": ok,
        }
        note = f"see-saw minimum = {res.min_value:.3e}"
    elif args.which == "exposedness":
        tol = args.tol if args.tol is not None else 1e-8
        cert = exposedness_certificate(
            w,
            grid,
            tol=tol,
            prune_step=args.prune_step,
            prune_restarts=args.prune_restarts,
            seed=args.seed,
            include_eta_zeta=not args.drop_curved_constraints,
            include_dual_states=not args.drop_curved_constraints,
        )
        payload = cert.to_json_dict()
        ok = cert.certified
        note = (
            f"surviving ray dim = {cert.surviving_ray_dim}, "
            f"match error = {cert.direction_match_error:.2e}"
        )
    else:
        tol = args.tol if args.tol is not None else PSD_TOL
        cert = find_ppt_entangled(
            w, seed=args.seed, grid=grid, direction=args.direction, ppt_tol=tol
        )
        payload = cert.to_json_dict()
        ok = cert.certified
        note = f"PPT state with pairing {cert.pairing_value:.4g}"
    return payload, 0 if ok else 1, note


_COMMANDS = {
    "choi": cmd_choi,
    "apply": cmd_apply,
    "pairing": cmd_pairing,
    "kernel": cmd_kernel,
    "classify": cmd_classify,
    "xstate": cmd_xstate,
    "certify": cmd_certify,
}


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
    args = _parser().parse_args(argv)
    try:
        payload, code, note = _COMMANDS[args.command](args)
        _emit(payload, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
