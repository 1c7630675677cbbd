"""Certification pipeline: PPT checks, the full spanning property, the span of
the dual face, an exposedness certificate, detection of PPT-entangled states,
and classification of kernel product vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .qcore import (
    PSD_TOL,
    SUBSETS,
    ProductVector,
    check_hermitian,
    matrix_to_json,
    partial_transpose,
    product_vector_to_json,
    subset_mask,
    tensor3,
)
from .witness import (
    ETA_TAGS,
    FAMILY_TAGS,
    PV1_TAGS,
    ZETA_TAGS,
    KernelGrid,
    WitnessFamily,
    choi_explicit,
    dual_state,
    min_product_values,
    pairing,
    _PV1_SLOTS,
    _PV4_FACTORS,
    _family_factors,
    _kernel_table,
)
from .xstate import XMatrix, xpart

#: Relative singular-value cutoff for numerical ranks and nullspaces.
RANK_THRESHOLD = 1e-8

#: A prune perturbation C + eps D has lost block positivity once its see-saw
#: value is below this.  The threshold is absolute because the scale is fixed:
#: every direction D has unit Hilbert-Schmidt norm and the step eps is 0.05.
PRUNE_VIOLATION = -1e-9


# --- Hermitian <-> real-vector embedding -------------------------------------

_IU, _JU = np.triu_indices(8, k=1)
_DIAG = np.arange(8)
_SQRT2 = math.sqrt(2.0)


def herm_to_vec(h: np.ndarray) -> np.ndarray:
    """Isometric embedding of Hermitian 8x8 matrices into R^64, applied to
    the last two axes of a stack.

    The Hilbert-Schmidt inner product becomes the Euclidean dot product.
    """
    upper = h[..., _IU, _JU]
    return np.concatenate(
        [h[..., _DIAG, _DIAG].real, _SQRT2 * upper.real, _SQRT2 * upper.imag], axis=-1
    )


def vec_to_herm(v: np.ndarray) -> np.ndarray:
    """Inverse of ``herm_to_vec``, applied to the last axis of a stack."""
    h = np.zeros(v.shape[:-1] + (8, 8), dtype=complex)
    h[..., _DIAG, _DIAG] = v[..., :8]
    upper = (v[..., 8:36] + 1j * v[..., 36:]) / _SQRT2
    h[..., _IU, _JU] = upper
    h[..., _JU, _IU] = upper.conj()
    return h


def _field_dict(record, *skip) -> dict:
    """A dataclass's fields by name, in declaration order, less those in skip."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


# --- PPT check ----------------------------------------------------------------


@dataclass(frozen=True)
class PPTReport:
    is_ppt: bool
    min_eigs: np.ndarray  # one entry per subset, in SUBSETS (mask) order

    def to_json_dict(self) -> dict:
        return {"is_ppt": self.is_ppt, "min_eigs": self.min_eigs.tolist()}


def ppt_check(rho, tol: float = PSD_TOL) -> PPTReport:
    """Minimal eigenvalue of every partial transpose of a Hermitian matrix.

    Only the four subsets with masks 0..3 are diagonalized, in one stacked
    call; the complements share their spectra since transposing the remaining
    parties is a global transpose of the already transposed matrix.  Partial
    transposes of a Hermitian matrix are Hermitian, so rho is checked once.
    """
    rho = check_hermitian(rho)
    spectra = np.linalg.eigvalsh([partial_transpose(rho, SUBSETS[mask]) for mask in range(4)])
    # mask 7 - k is the complement of mask k
    min_eigs = np.concatenate([spectra[:, 0], spectra[::-1, 0]])
    return PPTReport(is_ppt=bool(np.all(min_eigs >= -tol)), min_eigs=min_eigs)


# --- full spanning property -----------------------------------------------------

#: Per subset (in SUBSETS order), which of the three parties it conjugates.
_CONJUGATED = np.array([[p in subset for p in (1, 2, 3)] for subset in SUBSETS])


@dataclass(frozen=True)
class SubsetSpanRecord:
    subset: tuple
    mask: int
    rank: int
    smallest_kept_singular_value: float
    largest_singular_value: float
    vectors_used: int

    def to_json_dict(self) -> dict:
        return {**_field_dict(self), "subset": list(self.subset)}


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
    factors = _kernel_table(w, grid, tags)
    n = len(factors)
    if n < 8:
        raise ValueError(f"grid yields only {n} kernel vectors, need >= 8")
    # (subset, vector, party, 2): the factors of each subset's parties conjugated
    conj = np.where(_CONJUGATED[:, None, :, None], factors.conj(), factors)
    rows = tensor3(conj[..., 0, :], conj[..., 1, :], conj[..., 2, :])
    records = []
    for subset, sv in zip(SUBSETS, np.linalg.svd(rows, compute_uv=False)):
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        records.append(
            SubsetSpanRecord(
                subset=subset,
                mask=subset_mask(subset),
                rank=rank,
                smallest_kept_singular_value=float(sv[rank - 1]),
                largest_singular_value=float(sv[0]),
                vectors_used=n,
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
    tags=FAMILY_TAGS,
    include_dual_states: bool = True,
) -> np.ndarray:
    """Unnormalized members (m, 8, 8) of the dual face sampled by a grid: the
    projectors of its kernel vectors in ``tags`` and of the six basis kernel
    vectors, then the dual states."""
    factors = np.concatenate([_kernel_table(w, grid, tags), _PV4_FACTORS])
    full = tensor3(factors[:, 0], factors[:, 1], factors[:, 2])
    states = full[:, :, None] * full[:, None, :].conj()
    if include_dual_states:
        duals = [dual_state(w, kind, a1, a2).to_matrix() for kind, a1, a2 in grid.dual_params()]
        states = np.concatenate([states, duals])
    return states


def dual_face_span(w: WitnessFamily, grid: KernelGrid | None = None) -> DualFaceSpan:
    """Orthonormal basis of the real span of the sampled dual-face states
    inside the 64-dimensional space of Hermitian 8x8 matrices."""
    grid = grid or KernelGrid.default()
    rows = herm_to_vec(_dual_face_states(w, grid))
    basis = tuple(vec_to_herm(_orthonormal_rows(rows, RANK_THRESHOLD)))
    return DualFaceSpan(basis=basis, dim=len(basis))


# --- exposedness certificate ----------------------------------------------------


@dataclass(frozen=True)
class PruneRecord:
    direction: int
    epsilon: float
    #: The first see-saw value below PRUNE_VIOLATION, reached at ``argmin``;
    #: or, if none was, the value at the stall or the cycle cap.
    min_value: float
    argmin: ProductVector
    violated: bool
    cycles: int
    stopped_below: bool
    perturbation: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {**_field_dict(self, "perturbation"), "argmin": product_vector_to_json(self.argmin)}


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

    def to_json_dict(self) -> dict:
        return {**_field_dict(self, "prune_records"), "certified": self.certified}


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
        tags=FAMILY_TAGS if include_eta_zeta else PV1_TAGS,
        include_dual_states=include_dual_states,
    )
    rows = herm_to_vec(states.conj())
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
    # herm_to_vec stores the diagonal in coordinates 0-7.
    pv4_diag_error = float(np.max(np.abs(null_basis[:, _PV4_DIAG_INDICES]), initial=0.0))
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
    sx = xpart(survivor_mat)
    survivor_offx_error = float(np.max(np.abs(survivor_mat - sx.to_matrix())))
    x4, y4 = float(sx.a[3]), float(sx.b[3])
    r_fit = float(np.real(np.vdot(_X_DIRECTION, sx.c)) / 4.0)
    scale = float(np.max(np.abs(survivor_unit))) + 1e-300
    equality_case = {
        "z_pattern_error": float(np.max(np.abs(sx.c - r_fit * _X_DIRECTION))) / scale,
        "balance_error": abs(x4 * w.s - y4 * w.t) / (abs(x4 * w.s) + abs(y4 * w.t) + 1e-300),
    }

    # Falsification route: every direction in N orthogonal to the ray must
    # break block positivity under both signed perturbations.  See-saw values
    # never rise, so each task stops at its first value below the threshold:
    # its verdict is fixed from then on.
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    directions = vec_to_herm(_orthonormal_rows(perp, 1e-10))
    rng = np.random.default_rng(seed)
    tasks = [
        (k, eps, choi + eps * direction, int(rng.integers(2**63)))
        for k, direction in enumerate(directions)
        for eps in (prune_step, -prune_step)
    ]
    results = min_product_values(
        [pert for _, _, pert, _ in tasks],
        prune_restarts,
        [sub_seed for *_, sub_seed in tasks],
        stop_below=PRUNE_VIOLATION,
    )
    records = [
        PruneRecord(
            direction=k,
            epsilon=eps,
            min_value=res.min_value,
            argmin=res.argmin,
            violated=res.min_value < PRUNE_VIOLATION,
            cycles=res.cycles,
            stopped_below=res.stopped_below,
            perturbation=pert,
        )
        for (k, eps, pert, _), res in zip(tasks, results)
    ]
    # A direction is pruned when both of its signed perturbations violate.
    unpruned = len({rec.direction for rec in records if not rec.violated})

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
    traces = np.trace(states, axis1=1, axis2=2).real
    return np.sum(states / traces[:, None, None], axis=0) / len(states)


def find_ppt_entangled(
    w: WitnessFamily,
    seed: int = 0,
    grid: KernelGrid | None = None,
    direction: str = "x",
    ppt_tol: float = PSD_TOL,
) -> DetectionCertificate:
    """PPT state detected by the witness (negative pairing).

    Starting from the separable anchor, walks along a traceless Hermitian
    direction d with negative pairing to the exact PPT boundary, then retreats
    to 0.9 of the boundary parameter so the certificate sits strictly inside
    the PPT cone.  Partial transposition is linear, so with L_k the Cholesky
    factor of the anchor's k-th partial transpose, PT_k(anchor + lam d) is
    L_k (I - lam M_k) L_k^H for M_k = -L_k^-1 PT_k(d) L_k^-H, and the boundary
    is lam* = 1 / max_k lambda_max(M_k).  ``ppt_tol`` only judges the emitted
    state.
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

    # masks 0..3 only, as in ppt_check: the complements share their spectra
    try:
        chol = np.linalg.cholesky([partial_transpose(anchor, SUBSETS[k]) for k in range(4)])
    except np.linalg.LinAlgError:
        raise RuntimeError("separable anchor failed the PPT check") from None
    pt_d = np.array([partial_transpose(d, SUBSETS[k]) for k in range(4)])
    left = np.linalg.solve(chol, pt_d)  # L^-1 PT(d)
    m = -np.linalg.solve(chol, left.conj().swapaxes(1, 2))  # -L^-1 PT(d) L^-H
    top = float(np.max(np.linalg.eigvalsh(m)))
    if top <= 0.0:
        raise RuntimeError("failed to bracket the PPT boundary")
    lambda_max = 1.0 / top
    lam = 0.9 * lambda_max
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
        lambda_max=lambda_max,
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


def kernel_classify(w: WitnessFamily, v: ProductVector, tol: float = 1e-6) -> ClassifyResult:
    """Match a product vector against the fourteen kernel families, modulo a
    global phase and scale on each party.

    Returns the best-fitting family with its fitted parameters, or family None
    when no family reproduces the vector within tolerance (a valid verdict,
    and an alarm for the completeness of the enumeration).
    """
    norms = [np.linalg.norm(f) for f in v.factors()]
    if 0.0 in norms:
        return ClassifyResult(family=None, params=None, residual=float("inf"))
    factors = [f / n for f, n in zip(v.factors(), norms)]
    mags = [np.abs(f) for f in factors]
    # A flat family's estimate is its free factor with the phase of the larger
    # entry removed; a curved family's is the (a1, a2) that the moduli of the
    # first two factors give, the same for all eight.
    canonical = [f / (f[k] / abs(f[k])) for f, k in zip(factors, map(np.argmax, mags))]
    free = [canonical[_PV1_SLOTS[tag].index(None)] for tag in PV1_TAGS]
    tags = list(PV1_TAGS)
    estimates = [tuple(complex(c) for c in f) for f in free]
    candidates = _family_factors(w, PV1_TAGS, np.array(free)[:, None])[:, 0]
    if not any(m[0] < 1e-12 or m[1] < 1e-12 for m in mags):
        q1 = mags[0][0] / mags[0][1]
        q2 = mags[1][0] / mags[1][1]
        est = (float(q1 * q1 / w.u), float(w.u * q2 * q2))
        curved = ETA_TAGS + ZETA_TAGS
        tags += curved
        estimates += [est] * len(curved)
        candidates = np.concatenate([candidates, _family_factors(w, curved, [est])[:, 0]])
    seen = {}

    def party_residual(i: int, g: np.ndarray) -> float:
        # Distance modulo a global phase between unit 2-vectors: the sine of
        # their angle, |f0 h1 - f1 h0|, which unlike sqrt(2 - 2|<f, h>|) does
        # not floor at sqrt(eps).  Candidates share factors (the basis kets,
        # and each curved phase pattern appears in two families), so each
        # distinct one is compared once.
        key = (i, g.tobytes())
        if key not in seen:
            f, h = factors[i], g / np.linalg.norm(g)
            seen[key] = float(abs(f[0] * h[1] - f[1] * h[0]))
        return seen[key]

    best_tag, best_params, best_res = None, None, float("inf")
    for tag, est, cand in zip(tags, estimates, candidates):
        res = max(party_residual(i, g) for i, g in enumerate(cand))
        if res < best_res:
            best_tag, best_params, best_res = tag, est, res
    if best_tag is not None and best_res <= tol:
        return ClassifyResult(family=best_tag, params=best_params, residual=best_res)
    return ClassifyResult(family=None, params=None, residual=best_res)
