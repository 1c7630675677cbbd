"""Independent reference checks for the benchmark's verdicts.

Everything here is plain numpy written for the benchmark; nothing imports or
calls qxwit.  Each ``check_*`` function raises ``Mismatch`` when a verdict
disagrees with the reference and returns None otherwise.
"""

from __future__ import annotations

import math

import numpy as np

W8 = np.exp(1j * np.pi / 4.0)

#: Phase exponents (powers of W8) of the curved kernel families, per party.
CURVED_EIGHTHS = {
    "eta1": (3, 1, 7),
    "eta2": (3, 5, 3),
    "eta3": (7, 1, 3),
    "eta4": (7, 5, 7),
    "zeta1": (5, 7, 1),
    "zeta2": (5, 3, 5),
    "zeta3": (1, 7, 5),
    "zeta4": (1, 3, 1),
}
#: Flat kernel families: which party is free, and the basis kets of the others.
FLAT_SLOTS = {
    "x01": (None, 0, 1),
    "x10": (None, 1, 0),
    "0y0": (0, None, 0),
    "1y1": (1, None, 1),
    "00z": (0, 0, None),
    "11z": (1, 1, None),
}
TAGS = tuple(FLAT_SLOTS) + tuple(CURVED_EIGHTHS)

#: Round-off allowance for 8x8 double-precision arithmetic on O(1) entries.
EPS = 1e-9
#: PPT tolerance on partial-transpose eigenvalues: the CLI's default for
#: ``ppt_check`` and ``certify detect``, fixed here so that a verdict's own
#: reported tolerance cannot loosen the check.
PPT_TOL = 1e-10


class Mismatch(Exception):
    """A verdict that disagrees with the reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def choi(s: float, t: float) -> np.ndarray:
    """Closed-form witness matrix of the (s, t) family."""
    c = np.zeros((8, 8), dtype=complex)
    c[3, 3], c[4, 4] = t, s
    c[3, 4] = c[4, 3] = 1.0
    for (i, j), v in {(0, 7): 1.0, (1, 6): 1.0, (2, 5): -1.0}.items():
        c[i, j] = c[j, i] = v
    return c


def pairing(rho: np.ndarray, c: np.ndarray) -> float:
    return float(np.trace(c @ rho.T).real)


def _pt_index_maps():
    """Row and column gather indices of the partial transpose, per 3-bit mask
    (party 1 is the high bit): transposing a party swaps its row and column bit."""
    maps = []
    r = np.arange(8)[:, None] * np.ones(8, dtype=int)[None, :]
    col = r.T
    for mask in range(8):
        swap = (r ^ col) & mask
        maps.append((r ^ swap, col ^ swap))
    return maps


_PT_MAPS = _pt_index_maps()


def pt_min_eigs(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each of the eight partial transposes, in mask order."""
    out = np.empty(8)
    for mask, (ri, ci) in enumerate(_PT_MAPS):
        m = rho[ri, ci]
        out[mask] = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
    return out


def product(factors) -> np.ndarray:
    x, y, z = (np.asarray(f, dtype=complex) for f in factors)
    return np.einsum("i,j,k->ijk", x, y, z).reshape(8)


def form(c: np.ndarray, v: np.ndarray) -> float:
    """<v|C|v> / |v|^2."""
    return float(np.real(np.vdot(v, c @ v)) / np.real(np.vdot(v, v)))


def kernel_factors(s: float, t: float, tag: str, params):
    """Factors of a kernel-family member, built from the family's closed form."""
    ket = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    if tag in FLAT_SLOTS:
        free = np.asarray(params, dtype=complex)
        return [free if slot is None else ket[slot] for slot in FLAT_SLOTS[tag]]
    a1, a2 = params
    u = math.sqrt(s / t)
    mods = (math.sqrt(u * a1), math.sqrt(a2 / u), math.sqrt(a1 / a2))
    return [np.array([m, W8**k]) for m, k in zip(mods, CURVED_EIGHTHS[tag])]


def ray_distance(f, g) -> float:
    """Distance of two 2-vectors modulo phase and scale."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    ip = abs(np.vdot(f, g)) / (np.linalg.norm(f) * np.linalg.norm(g))
    return math.sqrt(max(0.0, 2.0 - 2.0 * ip))


def x_of(m: np.ndarray):
    """Diagonal halves and upper anti-diagonal of an 8x8 matrix (X-part layout)."""
    d = np.diagonal(m)
    return d.real[:4].copy(), d.real[[7, 6, 5, 4]].copy(), m[[0, 1, 2, 3], [7, 6, 5, 4]].copy()


def dual_state(s: float, t: float, kind: int, a1: float, a2: float):
    """The two kinds of rank-four separable X states on the dual face."""
    u = math.sqrt(s / t)
    a = np.array([a1, a2, u * a1 / a2, u])
    b = np.array([1.0 / a1, 1.0 / a2, a2 / (u * a1), 1.0 / u])
    c = W8 ** np.array([-3, 3, -1, -3] if kind == 1 else [3, -3, 1, 3])
    return a, b, c


#: Phase-grid size of the reference X norm.
XNORM_GRID = 8192


def x_norm_bracket(z):
    """(lower, upper) bracket of the X norm from a dense phase grid.

    The objective is Lipschitz in the phase with constant |z1| + |z2|, and
    every phase is within pi / XNORM_GRID of a grid point.
    """
    z = np.asarray(z, dtype=complex)
    theta = (np.arange(XNORM_GRID) + 0.5) * (2.0 * np.pi / XNORM_GRID)
    e = np.exp(1j * theta)
    g = float(np.max(np.abs(z[0] * e + np.conj(z[3])) + np.abs(z[1] * e + np.conj(z[2]))))
    slack = (abs(z[0]) + abs(z[1])) * np.pi / XNORM_GRID
    return g, g + slack


def x_rank4_separable(a, b, c, tol: float = 1e-6) -> bool:
    """Rank-four separability conditions, compared after scaling max a_i b_i to 1."""
    scale = math.sqrt(float(np.max(a * b)))
    an, bn, cn = a / scale, b / scale, c / scale
    prods = an * bn
    mags = np.abs(cn) ** 2
    return bool(
        np.max(np.abs(prods[:, None] - mags[None, :])) <= tol
        and abs(an[0] * an[3] - an[1] * an[2]) <= tol
        and abs(cn[0] * cn[3] - cn[1] * cn[2]) <= tol
    )


# --- checks ------------------------------------------------------------------


def check_pairing(value: float, rho: np.ndarray, c: np.ndarray) -> None:
    ref = pairing(rho, c)
    require(abs(value - ref) <= EPS * (1.0 + abs(ref)), f"pairing {value!r} != reference {ref!r}")


def check_ppt(is_ppt: bool, min_eigs, rho: np.ndarray, tol: float = PPT_TOL) -> None:
    ref = pt_min_eigs(rho)
    got = np.asarray(min_eigs, dtype=float)
    require(got.shape == (8,), "ppt_check must report eight eigenvalues")
    require(np.max(np.abs(got - ref)) <= EPS, f"PT eigenvalues {got} != reference {ref}")
    require(bool(is_ppt) == bool(np.all(ref >= -tol)), f"is_ppt={is_ppt} disagrees with reference")


def check_detect(payload: dict, c: np.ndarray) -> None:
    require(payload["certified"] is True, "detect certificate not certified")
    rho = np.asarray(payload["rho"]["re"]) + 1j * np.asarray(payload["rho"]["im"])
    eigs = pt_min_eigs(rho)
    require(bool(np.all(eigs >= -PPT_TOL)), f"emitted state is not PPT: {eigs}")
    require(pairing(rho, c) < 0.0, "emitted state is not detected")
    check_pairing(payload["pairing_value"], rho, c)
    require(abs(np.trace(rho).real - 1.0) <= EPS, "emitted state does not have unit trace")


def vector_from_json(obj) -> list:
    return [np.asarray(obj[f"{p}_re"]) + 1j * np.asarray(obj[f"{p}_im"]) for p in "xyz"]


def check_positivity(payload: dict, c: np.ndarray, tol: float = 1e-9) -> None:
    v = product(vector_from_json(payload["argmin"]))
    value = form(c, v)
    scale = float(np.max(np.abs(c)))
    require(abs(value - payload["min_value"]) <= EPS * scale,
            f"quadratic form at argmin {value!r} != reported {payload['min_value']!r}")
    require(payload["certified"] is True and value >= -tol, f"form is negative at argmin: {value!r}")


def check_spanning(payload: dict, s: float, t: float) -> None:
    """Rank 8, under every partial conjugation, of the grid's kernel vectors."""
    require(payload["certified"] is True, "spanning certificate not certified")
    grid = payload["grid"]
    free = [np.array([1.0, 0.0]), np.array([0.0, 1.0])] + [
        np.array([1.0, np.exp(2j * np.pi * k / grid["phase_count"])])
        for k in range(grid["phase_count"])
    ]
    members = [kernel_factors(s, t, tag, f) for tag in FLAT_SLOTS for f in free]
    ab = grid["ab_values"]
    members += [kernel_factors(s, t, tag, (a1, a2)) for tag in CURVED_EIGHTHS for a1 in ab for a2 in ab]
    for mask in range(8):
        rows = np.array([
            product([f.conj() if mask >> (2 - p) & 1 else f for p, f in enumerate(m)])
            for m in members
        ])
        sv = np.linalg.svd(rows, compute_uv=False)
        require(int(np.sum(sv > 1e-8 * sv[0])) == 8, f"reference rank below 8 for mask {mask}")
    require([r["rank"] for r in payload["subsets"]] == [8] * 8, "reported ranks are not all 8")


def check_exposedness(code: int, payload: dict, negative_control: bool) -> None:
    if negative_control:
        require(code == 1 and payload["certified"] is False, "control was certified")
        require(payload["surviving_ray_dim"] >= 2, "control left a single surviving ray")
    else:
        require(code == 0 and payload["certified"] is True, "exposedness not certified")
        require(payload["surviving_ray_dim"] == 1, "surviving ray dimension is not 1")


def check_x_norm(value: float, z) -> None:
    lo, hi = x_norm_bracket(z)
    pad = EPS * (1.0 + hi)
    require(lo - pad <= value <= hi + pad, f"x_norm {value!r} outside reference [{lo!r}, {hi!r}]")


def check_block_positive(verdict: bool, x4: float, y4: float, z) -> None:
    lo, hi = x_norm_bracket(z)
    lhs = math.sqrt(x4 * y4)
    require(lhs < lo or lhs > hi, "block-positivity input too close to the boundary")
    require(bool(verdict) == (lhs > hi), f"block positivity {verdict} disagrees with reference")


def check_rank4(separable: bool, a, b, c) -> None:
    require(bool(separable) == x_rank4_separable(a, b, c), f"separable={separable} disagrees with reference")


def check_reconstruction(factors, scale: float, a, b, c) -> None:
    v = product(factors)
    ra, rb, rc = x_of(np.outer(v, v.conj()))
    err = max(np.max(np.abs(ra - scale * a)), np.max(np.abs(rb - scale * b)), np.max(np.abs(rc - scale * c)))
    require(err <= EPS * max(1.0, scale * float(np.max(a))), f"reconstruction round trip error {err:.3e}")


def check_classify_hit(family, params, factors, c: np.ndarray, s: float, t: float) -> None:
    """Any family whose member at the returned parameters matches the input
    party by party, modulo phase and scale, and annihilates the witness."""
    require(family in TAGS, f"kernel member classified as {family!r}")
    ref = kernel_factors(s, t, family, params)
    dist = max(ray_distance(f, g) for f, g in zip(factors, ref))
    require(dist <= 1e-5, f"{family} member at {params} is {dist:.2e} from the input")
    require(abs(form(c, product(ref))) <= EPS * float(np.max(np.abs(c))), f"{family} member is not annihilated")


def check_classify_miss(family) -> None:
    require(family is None, f"random product vector classified as {family!r}")


def params_from_json(family: str, params):
    """Classifier parameters as JSON-encoded by the CLI: [re, im] pairs or reals."""
    if family in FLAT_SLOTS:
        return [complex(re, im) for re, im in params]
    return tuple(float(p) for p in params)
