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
    min_product_values,
    pairing,
    _PV1_SLOTS,
    _PV4_FACTORS,
    _dual_entries,
    _family_factors,
    _effective,
    _kernel_table,
    _min_eigpair,
    _party_rows,
)
from .xstate import xpart, _x_matrices

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


def _pt_stack(m: np.ndarray) -> np.ndarray:
    """Partial transposes (4, 8, 8) of an 8x8 matrix for the masks 0..3.  Mask
    7 - k shares the spectrum of mask k: transposing the remaining parties is
    a global transpose of the already transposed matrix."""
    return np.array([partial_transpose(m, SUBSETS[mask]) for mask in range(4)])


@dataclass(frozen=True)
class PPTReport:
    is_ppt: bool
    min_eigs: np.ndarray  # one entry per subset, in SUBSETS (mask) order

    def to_json_dict(self) -> dict:
        return {"is_ppt": self.is_ppt, "min_eigs": self.min_eigs.tolist()}


def ppt_check(rho, tol: float = PSD_TOL) -> PPTReport:
    """Minimal eigenvalue of every partial transpose of a Hermitian matrix,
    from one stacked call over ``_pt_stack``.  Partial transposes of a
    Hermitian matrix are Hermitian, so rho is checked once."""
    rho = check_hermitian(rho)
    spectra = np.linalg.eigvalsh(_pt_stack(rho))
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
        states = np.concatenate([states, _x_matrices(*_dual_entries(w, grid.dual_params()))])
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
    #: The probe's value (``cycles`` 0) or the first see-saw value below
    #: PRUNE_VIOLATION, reached at ``argmin``; or, if neither was below it,
    #: the see-saw value at the stall or the cycle cap.
    min_value: float
    argmin: ProductVector
    violated: bool
    #: 0 when the probe settled the task, else the see-saw cycles run.
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
    """Row-orthonormal basis of the row space of a real matrix, its dimension
    decided by ``_rank``."""
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[: _rank(sv, threshold)]


def _rank(sv: np.ndarray, tol: float) -> int:
    """Count of the descending singular values above ``tol`` times the largest;
    raises when the smallest counted one is within a factor 10 of that cutoff."""
    rank = int(np.sum(sv > tol * sv[0]))
    if 0 < rank < len(sv) and sv[rank - 1] < 10.0 * tol * sv[0]:
        raise ValueError(
            "nullspace computation is ill-conditioned "
            f"(singular-value gap {sv[rank - 1] / sv[0]:.3e}); refine the grid"
        )
    return rank


#: Diagonal indices forced to zero by the six basis product vectors in the
#: flat kernel families (all but 011 and 100).
_PV4_DIAG_INDICES = (0, 1, 2, 5, 6, 7)

_X_DIRECTION = np.array([1.0, 1.0, -1.0, 1.0])


def _prune_probe(x: np.ndarray, perts: np.ndarray) -> tuple:
    """Cycle 0 of the prune search: for each matrix M of a stack (task, 8,
    8), the best product vector one see-saw party update reaches from any
    product vector x of a stack (n, party, 2).  Returns its unit factors
    (task, party, 2) and the form of M itself there.

    Where the form of M vanishes at x but a partial gradient there does not,
    changing one party's factor of x takes the form below zero, and the best
    change is the lowest eigenvector of that party's effective 2x2 matrix at
    the other two unit factors of x.  Every (party, task, x) needs only the
    lowest eigenvalue, (m00 + m11)/2 - sqrt(((m00 - m11)/2)^2 + |m01|^2) as
    in _min_eigpair, and each task's lowest one its eigenvector.
    """
    tasks, n = len(perts), len(x)
    pick = np.arange(tasks)
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    columns = unit.transpose(1, 2, 0)[:, None]  # (party, 1, component, x)
    work = np.empty((1, 16, n), dtype=complex)
    best_x, best_value = np.empty((3, tasks), dtype=int), np.empty((3, tasks))
    best_entries = np.empty((3, 3, tasks), dtype=complex)
    # entries scaled to at most 1, so that the squares below cannot overflow
    scaled = perts / np.max(np.abs(perts), initial=1.0)
    for p, rows in enumerate(_party_rows(scaled)):
        partners = np.delete(columns, p, axis=0)
        entries = _effective(rows.reshape(1, -1, 16), *partners, work).reshape(tasks, 3, n)
        m00, m11, m01 = entries.real[:, 0], entries.real[:, 1], entries[:, 2]
        half = 0.5 * (m00 - m11)
        lowest = 0.5 * (m00 + m11) - np.sqrt(half * half + np.abs(m01) ** 2)
        best_x[p] = np.argmin(lowest, axis=1)
        best_value[p] = lowest[pick, best_x[p]]
        best_entries[p] = entries[pick, :, best_x[p]].T
    party = np.argmin(best_value, axis=0)
    probe = unit[best_x[party, pick]]
    current = probe[pick, party].T
    probe[pick, party] = _min_eigpair(best_entries[party, :, pick].T, current)[1].T
    psi = tensor3(probe[:, 0], probe[:, 1], probe[:, 2])
    return probe, np.einsum("ti,tij,tj->t", psi.conj(), perts, psi).real


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
    agree: by first-order conditions, since a block-positive matrix that
    vanishes at a product vector has vanishing partial gradients there too
    (the dimension of the subspace of N meeting them at every constraint
    product vector is reported as ``surviving_ray_dim``), and by
    falsification: both signed perturbations C +- ``prune_step`` D of the
    Choi matrix along every nullspace direction D orthogonal to it must lose
    block positivity, shown by a value below ``PRUNE_VIOLATION``.  A
    closed-form probe (``_prune_probe``) tries one party update from every
    constraint product vector and settles each perturbation it takes below
    the threshold, with ``cycles`` 0; only the rest run a see-saw of
    ``prune_restarts`` restarts, seeded per task from ``seed``.  (4) The
    surviving direction is compared to the Choi matrix
    (``direction_match_error``).

    With ``include_eta_zeta`` and ``include_dual_states`` both false the
    constraints reduce to the flat families, which is known to leave a
    surviving dimension larger than one.
    """
    if not math.isfinite(prune_step):
        raise ValueError(f"prune_step must be finite, got {prune_step!r}")
    if prune_restarts < 1:
        raise ValueError("prune_restarts must be at least 1")
    grid = grid or KernelGrid.default()
    choi = choi_explicit(w)
    tags = FAMILY_TAGS if include_eta_zeta else PV1_TAGS
    states = _dual_face_states(w, grid, tags=tags, include_dual_states=include_dual_states)
    rows = herm_to_vec(states.conj())
    # all 64 right singular vectors are needed only when rows are fewer
    _, sv, vt = np.linalg.svd(rows, full_matrices=len(rows) < 64)
    null_basis = vt[_rank(sv, tol) :]
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

    # <a|W|x> for W in N, x each product vector where the projectors pair to zero,
    # a that x with one party's factor (axis 0) replaced by its orthogonal complement
    x = np.concatenate([_kernel_table(w, grid, tags), _PV4_FACTORS]).conj()
    xperp = np.stack([-x[..., 1].conj(), x[..., 0].conj()], axis=-1)
    a = np.where(np.eye(3, dtype=bool)[:, None, :, None], xperp, x)
    forms = tensor3(*np.moveaxis(a, -2, 0)).conj()[..., None] * tensor3(*x.swapaxes(0, 1))[:, None]
    values = forms.reshape(-1, 64) @ vec_to_herm(null_basis).reshape(-1, 64).T
    tangent = np.concatenate([values.real, values.imag])
    surviving_ray_dim = nullspace_dim - _rank(np.linalg.svd(tangent, compute_uv=False), tol)

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
    # break block positivity under both signed perturbations M = C + eps D.
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    directions = vec_to_herm(_orthonormal_rows(perp, 1e-10))
    task_direction = np.repeat(np.arange(len(directions)), 2)
    task_eps = np.tile([prune_step, -prune_step], len(directions))
    perts = choi + task_eps[:, None, None] * directions[task_direction]

    # Cycle 0: the probe settles every task it takes below the threshold.
    probe, probe_values = _prune_probe(x, perts)

    # Tasks the probe leaves open go to the see-saw, seeded as before.  See-saw
    # values never rise, so each stops at its first value below the threshold:
    # its verdict is fixed from then on.
    outcomes = [
        (value, ProductVector(*f), 0, True) for value, f in zip(probe_values.tolist(), probe.conj())
    ]
    open_tasks = np.flatnonzero(probe_values >= PRUNE_VIOLATION)
    if open_tasks.size:
        seeds = np.random.default_rng(seed).integers(2**63, size=len(perts))[open_tasks]
        results = min_product_values(
            perts[open_tasks], prune_restarts, seeds.tolist(), stop_below=PRUNE_VIOLATION
        )
        for t, res in zip(open_tasks.tolist(), results):
            outcomes[t] = (res.min_value, res.argmin, res.cycles, res.stopped_below)
    records = [
        PruneRecord(
            direction=k,
            epsilon=eps,
            min_value=value,
            argmin=argmin,
            violated=value < PRUNE_VIOLATION,
            cycles=cycles,
            stopped_below=stopped,
            perturbation=pert,
        )
        for k, eps, pert, (value, argmin, cycles, stopped) in zip(
            task_direction.tolist(), task_eps.tolist(), perts, outcomes
        )
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
        d = _x_matrices(np.zeros(4), np.zeros(4), -_X_DIRECTION / (2.0 * _SQRT2))
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

    try:
        chol = np.linalg.cholesky(_pt_stack(anchor))
    except np.linalg.LinAlgError:
        raise RuntimeError("separable anchor failed the PPT check") from None
    pt_d = _pt_stack(d)
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
