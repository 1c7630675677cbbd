"""Certification pipeline: PPT checks, the full spanning property, an
exposedness certificate, detection of a PPT-entangled state in closed form,
and classification of kernel product vectors.  Masks k and 7 - k of
partial transposes and conjugations share their spectra, so only masks 0-3
are ever decomposed."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    PSD_TOL,
    SUBSETS,
    ProductVector,
    check_hermitian,
    matrix_to_json,
    product_vector_to_json,
    subset_mask,
    tensor3,
    _field_dict,
)
from .witness import (
    ETA_TAGS,
    FAMILY_TAGS,
    OMEGA,
    PV1_TAGS,
    ZETA_TAGS,
    KernelGrid,
    WitnessFamily,
    choi_explicit,
    pairing,
    _PV1_SLOTS,
    _PV4_FACTORS,
    _bloch_min,
    _bloch_vectors,
    _family_factors,
    _kernel_table,
    _pauli_tensor,
    _spinors,
)
from .xstate import xpart, _x_matrices

#: Relative singular-value cutoff for numerical ranks and nullspaces.
RANK_THRESHOLD = 1e-8

#: Step eps of the prune perturbations C +- eps E along unit directions E.
PRUNE_STEP = 0.05

#: A prune perturbation C + eps E has lost block positivity once its probe
#: value is below this.  It is absolute because the scales are fixed: every
#: direction E has unit Hilbert-Schmidt norm, eps is PRUNE_STEP, and C is
#: always the Choi matrix at s = t, the frame every exposedness run uses.
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


# --- PPT check ----------------------------------------------------------------


def _pt_index_maps() -> tuple:
    """Row and column gather indices (4, 8, 8) of the partial transposes for
    the masks 0..3: transposing a party swaps its row and column bit."""
    row, col = np.indices((8, 8))
    swap = (row ^ col) & np.arange(4)[:, None, None]
    return row ^ swap, col ^ swap


_PT_ROWS, _PT_COLS = _pt_index_maps()


def _pt_stack(m: np.ndarray) -> np.ndarray:
    """Partial transposes (4, 8, 8) of an 8x8 matrix for the masks 0..3.  Mask
    7 - k shares the spectrum of mask k: transposing the remaining parties is
    a global transpose of the already transposed matrix."""
    return m[_PT_ROWS, _PT_COLS]


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
    if rho.shape != (8, 8):
        raise ValueError(f"partial transpose needs an 8x8 matrix, got {rho.shape}")
    spectra = np.linalg.eigvalsh(_pt_stack(rho))
    min_eigs = np.concatenate([spectra[:, 0], spectra[::-1, 0]])
    return PPTReport(is_ppt=bool(np.all(min_eigs >= -tol)), min_eigs=min_eigs)


# --- full spanning property -----------------------------------------------------

#: Per subset of masks 0-3 (party 1 left alone), which parties it conjugates.
_CONJUGATED = np.array([[p in subset for p in (1, 2, 3)] for subset in SUBSETS[:4]])


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
            **_field_dict(self, "records"),
            "rank_threshold": RANK_THRESHOLD,
            "certified": self.all_full_rank,
            "subsets": [r.to_json_dict() for r in self.records],
        }


def spanning_check(
    w: WitnessFamily, grid: KernelGrid | None = None, tags=FAMILY_TAGS
) -> SpanningReport:
    """Numerical rank, per party subset, of the partially conjugated kernel
    vectors stacked as rows; the full spanning property means rank 8 for all
    eight subsets.  The rows of mask 7 - k conjugate those of mask k, and
    every IEEE operation commutes with conjugation, so one stacked SVD of
    masks 0-3 gives all eight subsets' singular values, bit for bit."""
    grid = grid or KernelGrid.default()
    factors = _kernel_table(w, grid, tags)
    n = len(factors)
    if n < 8:
        raise ValueError(f"grid yields only {n} kernel vectors, need >= 8")
    # (mask 0-3, vector, party, 2): the factors of each subset's parties conjugated
    conj = np.where(_CONJUGATED[:, None, :, None], factors.conj(), factors)
    rows = tensor3(conj[..., 0, :], conj[..., 1, :], conj[..., 2, :])
    half = np.linalg.svd(rows, compute_uv=False)
    records = []
    for subset, sv in zip(SUBSETS, np.concatenate([half, half[::-1]])):
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        kept, largest = float(sv[rank - 1]), float(sv[0])
        records.append(SubsetSpanRecord(subset, subset_mask(subset), rank, kept, largest, n))
    return SpanningReport(records=tuple(records), grid=grid.describe(), s=w.s, t=w.t)


# --- exposedness certificate ----------------------------------------------------


@dataclass(frozen=True)
class PruneRecord:
    direction: int
    epsilon: float
    #: The probe's value, the form of the perturbation at ``argmin``.
    min_value: float
    argmin: ProductVector
    violated: bool
    perturbation: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {**_field_dict(self, "perturbation"), "argmin": product_vector_to_json(self.argmin)}


@dataclass(frozen=True)
class ExposednessCertificate:
    s: float
    t: float
    grid: dict
    tol: float
    constraint_count: int
    nullspace_dim: int
    surviving_ray_dim: int
    direction_match_error: float
    pv4_diagonal_error: float
    survivor_offx_error: float
    equality_case: dict
    unpruned_directions: int
    # Per signed perturbation: its direction, step, probe factors, value and matrix
    _direction: np.ndarray = field(repr=False, compare=False)
    _eps: np.ndarray = field(repr=False, compare=False)
    _factors: np.ndarray = field(repr=False, compare=False)
    _values: np.ndarray = field(repr=False, compare=False)
    _perts: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def prune_records(self) -> tuple:
        """One ``PruneRecord`` per signed perturbation, built on first access."""
        return tuple(
            PruneRecord(
                direction=k,
                epsilon=eps,
                min_value=value,
                argmin=ProductVector(*f),
                violated=value < PRUNE_VIOLATION,
                perturbation=pert,
            )
            for k, eps, value, f, pert in zip(
                self._direction.tolist(), self._eps.tolist(), self._values.tolist(),
                self._factors.conj(), self._perts,
            )
        )

    @property
    def certified(self) -> bool:
        return (
            self.surviving_ray_dim == 1
            and self.direction_match_error < self.tol
            and self.unpruned_directions == 0
        )

    def to_json_dict(self) -> dict:
        return {**_field_dict(self), "certified": self.certified}


def _rank(sv: np.ndarray, tol: float) -> int:
    """Count of the descending singular values above ``tol`` times the largest;
    raises when the smallest counted one is within a factor 10 of that cutoff."""
    rank = int(np.sum(sv > tol * sv[0]))
    if 0 < rank < len(sv) and sv[rank - 1] < 10.0 * tol * sv[0]:
        raise ValueError(
            "nullspace computation is ill-conditioned (singular-value gap "
            f"{sv[rank - 1] / sv[0]:.3e} is within a factor 10 of the cutoff {tol:.3e})"
        )
    return rank


#: Diagonal indices forced to zero by the six basis product vectors in the
#: flat kernel families (all but 011 and 100).
_PV4_DIAG_INDICES = (0, 1, 2, 5, 6, 7)

_X_DIRECTION = np.array([1.0, 1.0, -1.0, 1.0])


def _prune_probe(x: np.ndarray, perts: np.ndarray, tensors: np.ndarray) -> tuple:
    """For each matrix M of a stack (task, 8, 8), given with its Pauli tensor
    (task, 4, 4, 4) (see ``witness._pauli_tensor``), the best product vector
    one see-saw party update reaches from any product vector x of a stack
    (n, party, 2).  Returns its unit factors (task, party, 2) and the form of
    M itself there.

    Where the form of M vanishes at x but a partial gradient there does not,
    changing one party's factor of x takes the form below zero, and the best
    change is the lowest eigenvector of that party's effective 2x2 matrix at
    the other two unit factors of x.  As in the see-saw, that matrix is
    tau0 I + tau.sigma, with tau the contraction of T with the other two
    parties' Bloch vectors, and ``_bloch_min`` gives its lowest eigenvalue
    and Bloch vector for every (party, task, x).  Each Bloch vector starts
    at x's own, so a matrix that is a multiple of the identity keeps x's
    factor.
    """
    tasks, n = len(perts), len(x)
    pick = np.arange(tasks)
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    bloch = _bloch_vectors(unit.swapaxes(0, 1))  # (party, 4, x)
    best_x, best_value = np.empty((3, tasks), dtype=int), np.empty((3, tasks))
    best_bloch = np.empty((3, 3, tasks))
    # Party by party: for the control on the default grid, tau of all three
    # parties at once is 415 kB, and arrays that size were handed back to the
    # system and faulted in again on every call, about 200 minor faults.
    for p, (q1, q2) in enumerate(((1, 2), (0, 2), (0, 1))):
        # T with the party's index first, then the task, then the other two
        rows = np.moveaxis(tensors, 1 + p, 0).reshape(4 * tasks, 16)
        tau = rows @ (bloch[q1, :, None] * bloch[q2, None]).reshape(16, n)
        moved = np.tile(bloch[p, 1:], tasks)  # x's own Bloch vectors, per task
        lowest = _bloch_min(tau.reshape(4, tasks * n), moved).reshape(tasks, n)
        best_x[p] = np.argmin(lowest, axis=1)
        best_value[p] = lowest[pick, best_x[p]]
        best_bloch[p] = moved.reshape(3, tasks, n)[:, pick, best_x[p]]
    party = np.argmin(best_value, axis=0)
    probe = unit[best_x[party, pick]]
    probe[pick, party] = _spinors(best_bloch[party, :, pick].T)
    psi = tensor3(probe[:, 0], probe[:, 1], probe[:, 2])
    return probe, np.einsum("ti,tij,tj->t", psi.conj(), perts, psi).real


#: The constraint product vectors of the certificate, as kernel ids (tag,
#: params) of ``KernelGrid.kernel_ids()``, at s = t.  Their 32 zero-value
#: rows span the same 32-dimensional row space as any grid's, and their
#: first-order rows have rank 31, so they isolate the ray.  They were chosen
#: once by a pivoted Gram-Schmidt on the zero-value rows of the omega-phase
#: pool at s = t, taking the largest remaining row first (the first in pool
#: order among those within 1e-9 of it, so rounding does not break ties).
#: The pool, in this order: the flat families at the two basis endpoints
#: and the phases OMEGA**k, the curved families at a1, a2 in {1/2, 1, 2},
#: and the six basis vectors.  Two picks are basis vectors, 001 and 110.
CERTIFICATE_KERNEL_IDS = (
    ("x01", (1.0, 0.0)),
    ("x10", (0.0, 1.0)),
    ("11z", (1.0, OMEGA**3)),
    ("11z", (1.0, OMEGA**7)),
    *(
        (tag, ab)
        for tag, pairs in (
            ("eta1", ((0.5, 2.0), (1.0, 0.5), (2.0, 0.5), (2.0, 2.0))),
            ("eta2", ((0.5, 2.0), (1.0, 0.5), (2.0, 0.5), (2.0, 2.0))),
            ("eta3", ((0.5, 2.0), (2.0, 0.5), (2.0, 2.0))),
            ("eta4", ((0.5, 2.0), (2.0, 0.5), (2.0, 2.0))),
            ("zeta1", ((0.5, 2.0), (1.0, 0.5), (2.0, 0.5), (2.0, 2.0))),
            ("zeta2", ((0.5, 2.0), (1.0, 0.5), (2.0, 0.5), (2.0, 2.0))),
            ("zeta3", ((0.5, 2.0), (1.0, 0.5), (2.0, 0.5), (2.0, 2.0))),
            ("zeta4", ((1.0, 0.5), (2.0, 0.5))),
        )
        for ab in pairs
    ),
)

#: The canonical frame s = t = 2 sqrt(2), where every exposedness stage runs.
_CANONICAL = WitnessFamily()

#: ``CERTIFICATE_KERNEL_IDS`` as the (tags, params (tag, 1, 2)) of one
#: ``_family_factors`` call per family kind, flat then curved.
_CERTIFICATE_CALLS = [
    (tuple(tag for tag, _ in ids), np.array([p for _, p in ids])[:, None])
    for ids in (
        [i for i in CERTIFICATE_KERNEL_IDS if i[0] in PV1_TAGS],
        [i for i in CERTIFICATE_KERNEL_IDS if i[0] not in PV1_TAGS],
    )
]


def exposedness_certificate(
    w: WitnessFamily,
    grid: KernelGrid | None = None,
    tol: float = RANK_THRESHOLD,
    include_eta_zeta: bool = True,
) -> ExposednessCertificate:
    """Certificate that the witness spans an exposed ray.

    Every stage runs at s = t.  With D = diag(alpha, 1/alpha) (x) I4 and
    alpha**2 = t / (2 sqrt 2), C(s, t) = D C(2 sqrt 2, 2 sqrt 2) D, and
    W -> D W D is an automorphism of the block-positive cone (D is a local
    filter: it maps product vectors onto product vectors), so it carries
    exposed rays, kernel vectors (v -> D^-1 v) and the nullspace below.  The
    verdict at any point of the curve is therefore the verdict at s = t,
    computed in a frame where C is well scaled; ``s`` and ``t`` echo the
    input, and every other field, prune records included, is of the s = t
    computation.

    Pipeline: (1) the constraint product vectors x, the conjugated members
    ``CERTIFICATE_KERNEL_IDS``, are zeros of the Choi matrix's form; each
    imposes the real-linear constraint <x|W|x> = 0 on Hermitian matrices W,
    and their common nullspace N, the same as the grid's kernel vectors and
    dual states pin, is computed by SVD.  (2) Every element of N must have
    zero diagonal at the indices of the six basis kernel vectors.  (3) The
    ray is isolated two ways, which must agree: by first-order conditions,
    since a block-positive matrix that vanishes at a product vector has
    vanishing partial gradients there too (the dimension of the subspace of
    N meeting them at every constraint product vector is reported as
    ``surviving_ray_dim``), and by falsification: both signed perturbations
    C +- ``PRUNE_STEP`` E of the Choi matrix along every nullspace direction
    E orthogonal to it must lose block positivity, shown by a value below
    ``PRUNE_VIOLATION``.  A closed-form probe (``_prune_probe``) tries one
    party update from every constraint product vector; a perturbation it
    does not take below the threshold stays open, and its direction counts
    as unpruned, so it can only withhold the certificate, never grant it.
    (4) The surviving direction is compared to the Choi matrix
    (``direction_match_error``).

    With ``include_eta_zeta`` false the constraints are the flat members of
    ``grid`` and the six basis kernel vectors, which is known to leave a
    surviving dimension larger than one; ``grid`` selects only these rows.
    ``surviving_ray_dim`` alone decides the control.  Its
    ``unpruned_directions`` depends on the basis LAPACK returns for the prune
    directions inside a degenerate singular-value cluster, not only on the
    subspace they span, so that count says nothing about the witness.
    """
    grid = grid or KernelGrid.default()
    w0 = _CANONICAL
    choi = choi_explicit(w0)
    if include_eta_zeta:
        x = np.concatenate([_family_factors(w0, *call)[:, 0] for call in _CERTIFICATE_CALLS])
    else:
        x = np.concatenate([_kernel_table(w0, grid, PV1_TAGS), _PV4_FACTORS])
    x = x.conj()
    full = tensor3(*x.swapaxes(0, 1))
    rows = herm_to_vec(full[:, :, None] * full[:, None, :].conj())
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

    # <a|W|x> for W in N at each constraint product vector x, a that x with one
    # party's factor (axis 0) replaced by its orthogonal complement
    xperp = np.stack([-x[..., 1].conj(), x[..., 0].conj()], axis=-1)
    a = np.where(np.eye(3, dtype=bool)[:, None, :, None], xperp, x)
    forms = tensor3(*np.moveaxis(a, -2, 0)).conj()[..., None] * full[:, None]
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
        "balance_error": abs(x4 * w0.s - y4 * w0.t) / (abs(x4 * w0.s) + abs(y4 * w0.t) + 1e-300),
    }

    # Falsification route: every direction in N orthogonal to the ray must
    # break block positivity under both signed perturbations M = C + eps E.
    # Projecting the ray out of N leaves nullspace_dim - 1 of them; the last
    # singular value of perp is only the part of C outside the computed N.
    perp = null_basis - np.outer(null_basis @ cunit, cunit)
    directions = vec_to_herm(np.linalg.svd(perp, full_matrices=False)[2][: nullspace_dim - 1])
    task_direction = np.repeat(np.arange(len(directions)), 2)
    task_eps = np.tile([PRUNE_STEP, -PRUNE_STEP], len(directions))
    perts = choi + task_eps[:, None, None] * directions[task_direction]
    # T is linear, so the tensors of the perturbations come from those of C
    # and the directions, at most 64 matrices: few enough for one thread.
    tensors = _pauli_tensor(np.concatenate([choi[None], directions]))
    tensors = tensors[0] + task_eps[:, None, None, None] * tensors[1 + task_direction]

    probe, probe_values = _prune_probe(x, perts, tensors)
    # A direction is pruned when both of its signed perturbations violate.
    unpruned = len(set(task_direction[~(probe_values < PRUNE_VIOLATION)].tolist()))

    return ExposednessCertificate(
        s=w.s,
        t=w.t,
        grid=grid.describe(),
        tol=tol,
        constraint_count=len(rows),
        nullspace_dim=nullspace_dim,
        surviving_ray_dim=surviving_ray_dim,
        direction_match_error=direction_match_error,
        pv4_diagonal_error=pv4_diag_error,
        survivor_offx_error=survivor_offx_error,
        equality_case=equality_case,
        unpruned_directions=unpruned,
        _direction=task_direction, _eps=task_eps,
        _factors=probe, _values=probe_values, _perts=perts,
    )


# --- detection of PPT entanglement ----------------------------------------------

#: The detected state's parameter delta = p / q: within 1e-3 of
#: (8 - 4 sqrt 2) / (8 + sqrt 24), where the two bounds of
#: ``DetectionCertificate.ball_radius`` meet.
DETECT_DELTA = (2, 11)

#: The exact verdict on that state, from delta alone (see ``find_ppt_entangled``):
#: 1 - delta = 9/11, so it is PPT, (9/11)^2 = 81/121 <= 1, and detected,
#: 9/11 > 0 and 2 (81/121) = 162/121 > 1.  A PPT state that pairs negatively
#: proves the witness indecomposable: a decomposable P + sum_S Q_S^Gamma_S
#: (P, Q_S PSD) pairs nonnegatively with every PPT state.
DETECT_EXACT = True

#: How far below zero a computed partial-transpose eigenvalue of the detected
#: state may fall: 8 n eps for n = 8.  ``eigvalsh`` is backward stable, and a
#: partial transpose of a unit-trace state has ||M||_2 <= ||rho||_F <= 1.  Off
#: s = t the exact smallest eigenvalue shrinks with the frame (about 1e-201 at
#: s = 1e-100) below what doubles resolve, so the computed one is rounding
#: noise of either sign, and this bound, not a tolerance, judges it.
PT_ROUNDING = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DetectionCertificate:
    """A PPT state the witness detects; its verdict is ``DETECT_EXACT``.
    ``ball_radius`` is the frame's radius, at s = t: min(lambda_min,
    -pairing / ||C||_HS) bounds a Hilbert-Schmidt ball of PPT, detected states
    (Weyl's inequality, partial transposition being an isometry, and
    Cauchy-Schwarz), so they have positive volume; the frame congruence maps
    the ball onto a neighbourhood of ``rho``.  ``ppt_check`` and ``pairing`` on
    ``rho`` are the cross-check, its eigenvalues allowed ``PT_ROUNDING`` below
    zero."""

    rho: np.ndarray
    pairing_value: float
    min_pt_eigs: np.ndarray
    ball_radius: float
    s: float
    t: float

    @property
    def certified(self) -> bool:
        return bool(np.all(self.min_pt_eigs >= -PT_ROUNDING) and self.pairing_value < 0.0)

    def to_json_dict(self) -> dict:
        return {
            **_field_dict(self),
            "delta": "%d/%d" % DETECT_DELTA,
            "exact": DETECT_EXACT,
            "indecomposable": DETECT_EXACT,
            "certified": self.certified,
            "rho": matrix_to_json(self.rho),
            "min_pt_eigs": self.min_pt_eigs.tolist(),
        }


def find_ppt_entangled(w: WitnessFamily, seed: int = 0) -> DetectionCertificate:
    """PPT state detected by the witness, in closed form; ``seed`` is ignored.

    At s = t it is the X state with a = b = (1, 1, 1, 1) / 8 and
    c = -(1 - delta) / 8 (1, 1, -1, 1).  Partial transposition permutes an X
    matrix's anti-diagonal, and a_i b_i = |c_j|^2 / (1 - delta)^2, so every
    partial transpose has eigenvalues (1 +- (1 - delta)) / 8: PPT iff
    (1 - delta)^2 <= 1.  The pairing is sqrt 2 / 2 - (1 - delta): negative iff
    1 - delta > 0 and 2 (1 - delta)^2 > 1.  Here delta is ``DETECT_DELTA``.

    At any other s it is the frame image D^-1 rho D^-1 / Tr, with
    D = diag(alpha, 1/alpha) (x) I4 and alpha**2 = t / (2 sqrt 2), as in
    ``exposedness_certificate``: C(s, t) = D C(2 sqrt 2, 2 sqrt 2) D keeps the
    pairing's sign, and the local filter D keeps every partial transpose PSD.
    a, b and c scale by 1 / alpha**2, alpha**2 and 1.  Near the ends of the
    range ``WitnessFamily`` accepts (s below about 1e-153 or above about
    1e153) an entry of the image falls below the smallest normal double, where
    it keeps too few digits to stand for the state; that raises ValueError.
    """
    d = DETECT_DELTA[0] / DETECT_DELTA[1]
    # lambda_min = delta / 8, and ||C||_HS = sqrt 24 at s = t
    radius = min(d / 8.0, (1.0 - d - _SQRT2 / 2.0) / math.sqrt(24.0))

    inv, alpha2 = 2.0 * _SQRT2 / w.t, w.t / (2.0 * _SQRT2)
    trace = (inv + alpha2) / 2.0  # of D^-1 rho D^-1
    a, b, c = inv / 8.0 / trace, alpha2 / 8.0 / trace, (1.0 - d) / 8.0 / trace
    if min(a, b, c) < np.finfo(float).tiny:
        raise ValueError(
            f"the detected state at s = {w.s!r} has an entry below the smallest normal double"
        )
    rho = _x_matrices(np.full(4, a), np.full(4, b), -c * _X_DIRECTION)
    return DetectionCertificate(
        rho=rho,
        pairing_value=pairing(rho, choi_explicit(w)),
        min_pt_eigs=ppt_check(rho).min_eigs,
        ball_radius=radius,
        s=w.s,
        t=w.t,
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


#: Per flat family, in PV1_TAGS order, the party whose factor is free.
_FREE_PARTY = [_PV1_SLOTS[tag].index(None) for tag in PV1_TAGS]


def kernel_classify(w: WitnessFamily, v: ProductVector, tol: float = 1e-6) -> ClassifyResult:
    """Match a product vector against the fourteen kernel families, modulo a
    global phase and scale on each party.

    Returns the best-fitting family with its fitted parameters, or family None
    when no family reproduces the vector within tolerance (a valid verdict,
    and an alarm for the completeness of the enumeration).  A zero factor
    gives family None; a factor that is not finite, or whose norm overflows,
    raises ValueError.
    """
    raw = np.array(v.factors())
    # On the numpy/OpenBLAS build the tests run on, np.vecdot rounds a
    # 2-vector's squared norm as np.linalg.norm does.  numpy promises no such
    # thing (the two sum the squares along different BLAS or loop paths); the
    # bitwise tests in tests/test_screen_kernels.py pin it on that build only.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(raw, raw).real)
    if not np.isfinite(norms).all():
        raise ValueError("kernel classification needs finite factors of finite norm")
    if not norms.all():
        return ClassifyResult(family=None, params=None, residual=float("inf"))
    factors = raw / norms[:, None]
    mags = np.abs(factors)
    # A flat family's estimate is its free factor with the phase of the larger
    # entry removed; a curved family's is the (a1, a2) that the moduli of the
    # first two factors give, the same for all eight.  Python's abs of a
    # complex rounds like numpy's scalar abs; numpy's array abs may not.
    top = np.where(mags[:, 1] > mags[:, 0], factors[:, 1], factors[:, 0])
    phase = top / np.array([abs(c) for c in top.tolist()])
    free = (factors / phase[:, None])[_FREE_PARTY]
    tags = list(PV1_TAGS)
    estimates = [tuple(row) for row in free.tolist()]
    candidates = _family_factors(w, PV1_TAGS, free[:, None])[:, 0]
    if not (mags < 1e-12).any():
        q1, q2 = (mags[:2, 0] / mags[:2, 1]).tolist()
        est = (q1 * q1 / w.u, w.u * q2 * q2)
        # A curved member's third factor is (sqrt(a1 / a2), phase).  Far out on
        # the curve a1 / a2 can overflow: that candidate has no finite factor,
        # and is not tried.  No member is lost: its third factor would have an
        # entry below 1e-12 of the other, which skips the curved candidates.
        if est[0] / est[1] < math.inf:
            curved = ETA_TAGS + ZETA_TAGS
            tags += curved
            estimates += [est] * len(curved)
            candidates = np.concatenate([candidates, _family_factors(w, curved, [est])[:, 0]])
    units = candidates / np.sqrt(np.vecdot(candidates, candidates).real)[..., None]
    # Distance modulo a global phase between unit 2-vectors: the sine of their
    # angle, |f0 h1 - f1 h0|, which unlike sqrt(2 - 2|<f, h>|) does not floor
    # at sqrt(eps).  Python complex arithmetic rounds like numpy's scalars;
    # numpy's array multiply may fuse the products.
    (x0, x1), (y0, y1), (z0, z1) = factors.tolist()
    residuals = [
        max(abs(x0 * h1 - x1 * h0), abs(y0 * k1 - y1 * k0), abs(z0 * l1 - z1 * l0))
        for (h0, h1), (k0, k1), (l0, l1) in units.tolist()
    ]
    best = min(range(len(tags)), key=residuals.__getitem__)
    if residuals[best] <= tol:
        return ClassifyResult(family=tags[best], params=estimates[best], residual=residuals[best])
    return ClassifyResult(family=None, params=None, residual=residuals[best])
