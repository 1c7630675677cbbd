"""Certification pipeline: PPT checks, the full spanning property, the span of
the dual face, an exposedness certificate, detection of PPT-entangled states,
and classification of kernel product vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    PSD_TOL,
    SUBSETS,
    ProductVector,
    check_hermitian,
    herm_min_eig,
    matrix_to_json,
    partial_conjugate,
    partial_transpose,
    product_vector_to_json,
    subset_mask,
)
from .witness import (
    FAMILY_TAGS,
    KernelGrid,
    WitnessFamily,
    choi_explicit,
    dual_state,
    kernel_vector,
    min_product_values,
    pairing,
    pv4_vectors,
    _PV1_SLOTS,
)
from .xstate import XMatrix

#: Relative singular-value cutoff for numerical ranks and nullspaces.
RANK_THRESHOLD = 1e-8


# --- Hermitian <-> real-vector embedding -------------------------------------

_IU, _JU = np.triu_indices(8, k=1)
_SQRT2 = math.sqrt(2.0)


def herm_to_vec(h: np.ndarray) -> np.ndarray:
    """Isometric embedding of Hermitian 8x8 matrices into R^64.

    The Hilbert-Schmidt inner product becomes the Euclidean dot product.
    """
    upper = h[_IU, _JU]
    return np.concatenate(
        [np.diagonal(h).real, _SQRT2 * upper.real, _SQRT2 * upper.imag]
    )


def vec_to_herm(v: np.ndarray) -> np.ndarray:
    h = np.zeros((8, 8), dtype=complex)
    h[np.arange(8), np.arange(8)] = v[:8]
    upper = (v[8:36] + 1j * v[36:]) / _SQRT2
    h[_IU, _JU] = upper
    h[_JU, _IU] = upper.conj()
    return h


# --- PPT check ----------------------------------------------------------------


@dataclass(frozen=True)
class PPTReport:
    is_ppt: bool
    min_eigs: np.ndarray  # one entry per subset, in SUBSETS (mask) order

    def to_json_dict(self) -> dict:
        return {"is_ppt": self.is_ppt, "min_eigs": self.min_eigs.tolist()}


def ppt_check(rho, tol: float = PSD_TOL) -> PPTReport:
    """Minimal eigenvalue of every partial transpose of a Hermitian matrix.

    Only the four subsets with masks 0..3 are diagonalized; the complements
    share their spectra since transposing the remaining parties is a global
    transpose of the already transposed matrix.
    """
    rho = check_hermitian(rho)
    min_eigs = np.empty(8)
    for mask in range(4):
        e = herm_min_eig(partial_transpose(rho, SUBSETS[mask]))
        min_eigs[mask] = e
        min_eigs[7 - mask] = e
    return PPTReport(is_ppt=bool(np.all(min_eigs >= -tol)), min_eigs=min_eigs)


# --- full spanning property -----------------------------------------------------


@dataclass(frozen=True)
class SubsetSpanRecord:
    subset: tuple
    mask: int
    rank: int
    smallest_kept_singular_value: float
    largest_singular_value: float
    vectors_used: int

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "mask": self.mask,
            "rank": self.rank,
            "smallest_kept_singular_value": self.smallest_kept_singular_value,
            "largest_singular_value": self.largest_singular_value,
            "vectors_used": self.vectors_used,
        }


@dataclass(frozen=True)
class SpanningReport:
    records: tuple
    grid: dict
    s: float
    t: float

    @property
    def all_full_rank(self) -> bool:
        return all(r.rank == 8 for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "grid": self.grid,
            "rank_threshold": RANK_THRESHOLD,
            "certified": self.all_full_rank,
            "subsets": [r.to_json_dict() for r in self.records],
        }


def spanning_check(
    w: WitnessFamily, grid: KernelGrid | None = None, tags=FAMILY_TAGS
) -> SpanningReport:
    """Numerical rank, per party subset, of the partially conjugated kernel
    vectors stacked as rows; the full spanning property means rank 8 for all
    eight subsets."""
    grid = grid or KernelGrid.default()
    ids = [(tag, params) for tag, params in grid.kernel_ids() if tag in tags]
    vectors = [kernel_vector(w, tag, params) for tag, params in ids]
    if len(vectors) < 8:
        raise ValueError(f"grid yields only {len(vectors)} kernel vectors, need >= 8")
    records = []
    for subset in SUBSETS:
        rows = np.array([partial_conjugate(v, subset).full for v in vectors])
        sv = np.linalg.svd(rows, compute_uv=False)
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        records.append(
            SubsetSpanRecord(
                subset=subset,
                mask=subset_mask(subset),
                rank=rank,
                smallest_kept_singular_value=float(sv[rank - 1]),
                largest_singular_value=float(sv[0]),
                vectors_used=len(vectors),
            )
        )
    return SpanningReport(records=tuple(records), grid=grid.describe(), s=w.s, t=w.t)


# --- span of the dual face ------------------------------------------------------


@dataclass(frozen=True)
class DualFaceSpan:
    basis: tuple  # orthonormal Hermitian matrices (Hilbert-Schmidt)
    dim: int


def _dual_face_states(
    w: WitnessFamily,
    grid: KernelGrid,
    include_eta_zeta: bool = True,
    include_dual_states: bool = True,
    include_pv4: bool = True,
) -> list:
    """Unnormalized members of the dual face sampled by a grid."""
    states = []
    for tag, params in grid.kernel_ids():
        if not include_eta_zeta and tag not in _PV1_SLOTS:
            continue
        states.append(kernel_vector(w, tag, params).projector())
    if include_pv4:
        states.extend(v.projector() for v in pv4_vectors())
    if include_dual_states:
        states.extend(
            dual_state(w, kind, a1, a2).to_matrix()
            for kind, a1, a2 in grid.dual_params()
        )
    return states


def dual_face_span(w: WitnessFamily, grid: KernelGrid | None = None) -> DualFaceSpan:
    """Orthonormal basis of the real span of the sampled dual-face states
    inside the 64-dimensional space of Hermitian 8x8 matrices."""
    grid = grid or KernelGrid.default()
    states = _dual_face_states(w, grid)
    rows = np.array([herm_to_vec(s) for s in states])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    dim = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    basis = tuple(vec_to_herm(vt[k]) for k in range(dim))
    return DualFaceSpan(basis=basis, dim=dim)


# --- exposedness certificate ----------------------------------------------------


@dataclass(frozen=True)
class PruneRecord:
    direction: int
    epsilon: float
    min_value: float
    argmin: ProductVector
    violated: bool
    perturbation: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "epsilon": self.epsilon,
            "min_value": self.min_value,
            "argmin": product_vector_to_json(self.argmin),
            "violated": self.violated,
        }


@dataclass(frozen=True)
class ExposednessCertificate:
    s: float
    t: float
    grid: dict
    tol: float
    seed: int
    constraint_count: int
    nullspace_dim: int
    surviving_ray_dim: int
    direction_match_error: float
    pv4_diagonal_error: float
    survivor_offx_error: float
    equality_case: dict
    unpruned_directions: int
    prune_records: tuple = field(repr=False, default=())

    @property
    def certified(self) -> bool:
        return (
            self.surviving_ray_dim == 1
            and self.direction_match_error < self.tol
            and self.unpruned_directions == 0
        )

    def to_json_dict(self, with_prune_records: bool = False) -> dict:
        out = {
            "s": self.s,
            "t": self.t,
            "grid": self.grid,
            "tol": self.tol,
            "seed": self.seed,
            "certified": self.certified,
            "constraint_count": self.constraint_count,
            "nullspace_dim": self.nullspace_dim,
            "surviving_ray_dim": self.surviving_ray_dim,
            "direction_match_error": self.direction_match_error,
            "pv4_diagonal_error": self.pv4_diagonal_error,
            "survivor_offx_error": self.survivor_offx_error,
            "equality_case": self.equality_case,
            "unpruned_directions": self.unpruned_directions,
        }
        if with_prune_records:
            out["prune_records"] = [r.to_json_dict() for r in self.prune_records]
        return out


def _orthonormal_rows(rows: np.ndarray, threshold: float) -> np.ndarray:
    """Row-orthonormal basis of the row space of a real matrix."""
    if rows.size == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    keep = int(np.sum(sv > threshold * sv[0])) if sv[0] > 0 else 0
    return vt[:keep]


def _intersection_dim(basis_a: np.ndarray, basis_b: np.ndarray, cos_tol: float) -> int:
    """Dimension of the intersection of two subspaces with orthonormal row bases."""
    if basis_a.shape[0] == 0 or basis_b.shape[0] == 0:
        return 0
    sv = np.linalg.svd(basis_a @ basis_b.T, compute_uv=False)
    return int(np.sum(sv >= 1.0 - cos_tol))


#: Diagonal indices forced to zero by the six basis product vectors in the
#: flat kernel families (all but 011 and 100).
_PV4_DIAG_INDICES = (0, 1, 2, 5, 6, 7)

_X_DIRECTION = np.array([1.0, 1.0, -1.0, 1.0])


def _structural_basis(w: WitnessFamily) -> np.ndarray:
    """Row-orthonormal basis of the two-parameter family of X witnesses with
    balanced diagonal weights (x4 s = y4 t) and anti-diagonal along (1,1,-1,1)."""
    zeros = np.zeros(4)
    v1 = herm_to_vec(
        XMatrix(
            np.array([0.0, 0.0, 0.0, w.t]),
            np.array([0.0, 0.0, 0.0, w.s]),
            np.zeros(4, dtype=complex),
        ).to_matrix()
    )
    v2 = herm_to_vec(XMatrix(zeros, zeros, _X_DIRECTION.astype(complex)).to_matrix())
    return _orthonormal_rows(np.array([v1, v2]), 1e-12)


def exposedness_certificate(
    w: WitnessFamily,
    grid: KernelGrid | None = None,
    tol: float = 1e-8,
    prune_step: float = 0.05,
    prune_restarts: int = 32,
    seed: int = 0,
    include_eta_zeta: bool = True,
    include_dual_states: bool = True,
) -> ExposednessCertificate:
    """Certificate that the witness spans an exposed ray.

    Pipeline: (1) the sampled dual-face states impose real-linear constraints
    on Hermitian matrices; their common nullspace N is computed by SVD.
    (2) Every element of N must have zero diagonal at the six indices pinned
    by the basis kernel vectors.  (3) The ray is isolated two ways, which must
    agree: structurally, by intersecting N with the balanced X-witness family
    (the intersection dimension is reported as ``surviving_ray_dim``), and by
    falsification, running a see-saw on both signed perturbations of the Choi
    matrix along every nullspace direction orthogonal to it; each such
    perturbation must lose block positivity.  (4) The surviving direction is
    compared to the Choi matrix (``direction_match_error``).

    With ``include_eta_zeta`` and ``include_dual_states`` both false the
    constraints reduce to the flat families, which is known to leave a
    surviving dimension larger than one.
    """
    grid = grid or KernelGrid.default()
    choi = choi_explicit(w)
    states = _dual_face_states(
        w,
        grid,
        include_eta_zeta=include_eta_zeta,
        include_dual_states=include_dual_states,
    )
    rows = np.array([herm_to_vec(s.conj()) for s in states])
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > tol * sv[0]))
    if rank < len(sv) and rank > 0:
        smallest_kept = sv[rank - 1]
        if smallest_kept < 10.0 * tol * sv[0]:
            raise ValueError(
                "nullspace computation is ill-conditioned "
                f"(singular-value gap {smallest_kept / sv[0]:.3e}); refine the grid"
            )
    null_basis = vt[rank:]
    nullspace_dim = null_basis.shape[0]

    # The basis kernel vectors force these diagonals to vanish on all of N.
    pv4_diag_error = 0.0
    for row in null_basis:
        h = vec_to_herm(row)
        pv4_diag_error = max(
            pv4_diag_error,
            float(np.max(np.abs(np.diagonal(h).real[list(_PV4_DIAG_INDICES)]))),
        )
    if pv4_diag_error > 10.0 * tol:
        raise ValueError(
            f"nullspace elements have nonzero pinned diagonals ({pv4_diag_error:.3e})"
        )

    cvec = herm_to_vec(choi)
    cunit = cvec / np.linalg.norm(cvec)
    coeffs = null_basis @ cunit
    survivor = null_basis.T @ coeffs
    survivor_norm = np.linalg.norm(survivor)
    if survivor_norm == 0.0:
        raise ValueError("the Choi matrix is not in the constraint nullspace")
    survivor_unit = survivor / survivor_norm
    if survivor_unit @ cunit < 0:
        survivor_unit = -survivor_unit
    direction_match_error = float(np.linalg.norm(survivor_unit - cunit))

    surviving_ray_dim = _intersection_dim(null_basis, _structural_basis(w), tol)

    # Equality-case data of the surviving direction.
    survivor_mat = vec_to_herm(survivor_unit)
    sx = np.zeros((8, 8), dtype=complex)
    idx = np.arange(4)
    sx[idx, idx] = np.diagonal(survivor_mat)[:4]
    sx[idx + 4, idx + 4] = np.diagonal(survivor_mat)[4:]
    sx[idx, 7 - idx] = survivor_mat[idx, 7 - idx]
    sx[7 - idx, idx] = survivor_mat[7 - idx, idx]
    survivor_offx_error = float(np.max(np.abs(survivor_mat - sx)))
    x4 = float(survivor_mat[3, 3].real)
    y4 = float(survivor_mat[4, 4].real)
    cpart = np.array([survivor_mat[0, 7], survivor_mat[1, 6], survivor_mat[2, 5], survivor_mat[3, 4]])
    r_fit = float(np.real(np.vdot(_X_DIRECTION, cpart)) / 4.0)
    scale = float(np.max(np.abs(survivor_unit))) + 1e-300
    equality_case = {
        "z_pattern_error": float(np.max(np.abs(cpart - r_fit * _X_DIRECTION))) / scale,
        "balance_error": abs(x4 * w.s - y4 * w.t) / (abs(x4 * w.s) + abs(y4 * w.t) + 1e-300),
    }

    # Falsification route: every direction in N orthogonal to the ray must
    # break block positivity under both signed perturbations.
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    perp_basis = _orthonormal_rows(perp, 1e-10)
    tasks = []
    rng = np.random.default_rng(seed)
    for k in range(perp_basis.shape[0]):
        direction = vec_to_herm(perp_basis[k])
        for eps in (prune_step, -prune_step):
            tasks.append((k, eps, choi + eps * direction, int(rng.integers(2**63))))
    results = min_product_values(
        [pert for _, _, pert, _ in tasks], prune_restarts, [sub_seed for *_, sub_seed in tasks]
    )
    records = [
        PruneRecord(
            direction=k,
            epsilon=eps,
            min_value=res.min_value,
            argmin=res.argmin,
            violated=res.min_value < -1e-9,
            perturbation=pert,
        )
        for (k, eps, pert, _), res in zip(tasks, results)
    ]
    pruned = {}
    for rec in records:
        pruned.setdefault(rec.direction, True)
        pruned[rec.direction] = pruned[rec.direction] and rec.violated
    unpruned = sum(1 for ok in pruned.values() if not ok)

    return ExposednessCertificate(
        s=w.s,
        t=w.t,
        grid=grid.describe(),
        tol=tol,
        seed=seed,
        constraint_count=len(states),
        nullspace_dim=nullspace_dim,
        surviving_ray_dim=surviving_ray_dim,
        direction_match_error=direction_match_error,
        pv4_diagonal_error=pv4_diag_error,
        survivor_offx_error=survivor_offx_error,
        equality_case=equality_case,
        unpruned_directions=unpruned,
        prune_records=tuple(records),
    )


# --- detection of PPT entanglement ----------------------------------------------


@dataclass(frozen=True)
class DetectionCertificate:
    rho: np.ndarray
    pairing_value: float
    min_pt_eigs: np.ndarray
    lambda_max: float
    lambda_used: float
    s: float
    t: float
    seed: int
    grid: dict
    direction_kind: str
    ppt_tol: float = PSD_TOL

    @property
    def certified(self) -> bool:
        return bool(
            np.all(self.min_pt_eigs >= -self.ppt_tol) and self.pairing_value < 0.0
        )

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "seed": self.seed,
            "grid": self.grid,
            "tol": self.ppt_tol,
            "certified": self.certified,
            "rho": matrix_to_json(self.rho),
            "pairing_value": self.pairing_value,
            "min_pt_eigs": self.min_pt_eigs.tolist(),
            "lambda_max": self.lambda_max,
            "lambda_used": self.lambda_used,
            "direction_kind": self.direction_kind,
        }


def separable_anchor(w: WitnessFamily, grid: KernelGrid | None = None) -> np.ndarray:
    """Unit-trace average of the sampled dual-face states; full rank by the
    spanning property, PPT, and pairing to zero with the Choi matrix."""
    grid = grid or KernelGrid.default()
    states = _dual_face_states(w, grid)
    acc = np.zeros((8, 8), dtype=complex)
    for s in states:
        acc += s / np.trace(s).real
    return acc / len(states)


def find_ppt_entangled(
    w: WitnessFamily,
    seed: int = 0,
    grid: KernelGrid | None = None,
    direction: str = "x",
    ppt_tol: float = PSD_TOL,
) -> DetectionCertificate:
    """PPT state detected by the witness (negative pairing).

    Starting from the separable anchor, walks along a traceless Hermitian
    direction with negative pairing until the PPT boundary (bisection to
    relative accuracy 1e-9), then retreats to 0.9 of the boundary parameter so
    the certificate sits strictly inside the PPT cone.
    """
    grid = grid or KernelGrid.default()
    choi = choi_explicit(w)
    anchor = separable_anchor(w, grid)
    if direction == "x":
        zeros = np.zeros(4)
        d = XMatrix(zeros, zeros, -_X_DIRECTION / (2.0 * _SQRT2)).to_matrix()
    elif direction == "random":
        rng = np.random.default_rng(seed)
        while True:
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (g + g.conj().T) / 2.0
            h -= np.trace(h).real / 8.0 * np.eye(8)
            h /= np.linalg.norm(h)
            p = pairing(h, choi)
            if abs(p) > 0.1:
                d = h if p < 0 else -h
                break
    else:
        raise ValueError("direction must be 'x' or 'random'")

    def ppt_at(lam: float) -> bool:
        return ppt_check(anchor + lam * d, tol=ppt_tol).is_ppt

    if not ppt_at(0.0):
        raise RuntimeError("separable anchor failed the PPT check")
    hi = 1.0
    while ppt_at(hi):
        hi *= 2.0
        if hi > 2.0**30:
            raise RuntimeError("failed to bracket the PPT boundary")
    lo = 0.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if ppt_at(mid):
            lo = mid
        else:
            hi = mid
    lam = 0.9 * lo
    rho = anchor + lam * d
    report = ppt_check(rho, tol=ppt_tol)
    value = pairing(rho, choi)
    if not report.is_ppt or value >= 0.0:
        raise RuntimeError(
            f"detection failed: is_ppt={report.is_ppt}, pairing={value!r}"
        )
    return DetectionCertificate(
        rho=rho,
        pairing_value=value,
        min_pt_eigs=report.min_eigs,
        lambda_max=lo,
        lambda_used=lam,
        s=w.s,
        t=w.t,
        seed=seed,
        grid=grid.describe(),
        direction_kind=direction,
        ppt_tol=ppt_tol,
    )


# --- classification of kernel vectors -------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    family: str | None
    params: tuple | None
    residual: float

    def to_json_dict(self) -> dict:
        params = None
        if self.params is not None:
            params = [
                [p.real, p.imag] if isinstance(p, complex) else float(p)
                for p in self.params
            ]
        return {"family": self.family, "params": params, "residual": self.residual}


def _unit_or_none(f: np.ndarray):
    n = np.linalg.norm(f)
    if n == 0.0:
        return None
    return f / n


def _phase_dist(f: np.ndarray, g: np.ndarray) -> float:
    """Distance between unit 2-vectors modulo a global phase."""
    ip = abs(np.vdot(f, g))
    return math.sqrt(max(0.0, 2.0 - 2.0 * ip))


def _canonical_free(f: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(f)))
    phase = f[k] / abs(f[k])
    return f / phase


def _estimate_params(w: WitnessFamily, tag: str, factors):
    if tag in _PV1_SLOTS:
        slots = _PV1_SLOTS[tag]
        free = factors[slots.index(None)]
        return tuple(complex(v) for v in _canonical_free(free))
    mags = [np.abs(f) for f in factors]
    if any(m[0] < 1e-12 or m[1] < 1e-12 for m in mags):
        return None
    q1 = mags[0][0] / mags[0][1]
    q2 = mags[1][0] / mags[1][1]
    return (float(q1 * q1 / w.u), float(w.u * q2 * q2))


def kernel_classify(w: WitnessFamily, v: ProductVector, tol: float = 1e-6) -> ClassifyResult:
    """Match a product vector against the fourteen kernel families, modulo a
    global phase and scale on each party.

    Returns the best-fitting family with its fitted parameters, or family None
    when no family reproduces the vector within tolerance (a valid verdict,
    and an alarm for the completeness of the enumeration).
    """
    factors = [_unit_or_none(f) for f in v.factors()]
    if any(f is None for f in factors):
        return ClassifyResult(family=None, params=None, residual=float("inf"))
    best_tag, best_params, best_res = None, None, float("inf")
    for tag in FAMILY_TAGS:
        est = _estimate_params(w, tag, factors)
        if est is None:
            continue
        try:
            cand = kernel_vector(w, tag, np.array(est) if tag in _PV1_SLOTS else est)
        except ValueError:
            continue
        res = max(
            _phase_dist(factors[i], _unit_or_none(cand.factors()[i]))
            for i in range(3)
        )
        if res < best_res:
            best_tag, best_params, best_res = tag, est, res
    if best_tag is not None and best_res <= tol:
        return ClassifyResult(family=best_tag, params=best_params, residual=best_res)
    return ClassifyResult(family=None, params=None, residual=best_res)
