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
    tensor3,
    _PT_COLS,
    _PT_ROWS,
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
    _PAULI_MAP,
    _PV1_SLOTS,
    _bloch_min,
    _bloch_vectors,
    _family_factors,
    _kernel_table,
    _pairing,
    _spinors,
)
from .xstate import _x_matrices

#: Relative singular-value cutoff for numerical ranks and nullspaces, and the
#: bound on the exposedness certificate's ``direction_match_error``.
RANK_THRESHOLD = 1e-8

#: A see-saw minimum at or above minus this certifies positivity.  Absolute:
#: the minimum is the form at unit product vectors at a kernel zero, at most
#: about 1e-16 in magnitude at twelve s measured from 1e-150 to 1e150.
POSITIVITY_TOL = 1e-9

#: ``qxwit kernel``'s bound on a member's pairing, as a fraction of its own
#: terms |v|^T |C| |v|, whatever the member's scale: members read below
#: 1e-15, the same members with one factor rotated 0.4 or more.
KERNEL_PAIRING_TOL = 1e-9

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


def _pt_stack(m: np.ndarray) -> np.ndarray:
    """Partial transposes (4, 8, 8) of an 8x8 matrix for the masks 0..3.  Mask
    7 - k shares the spectrum of mask k: transposing the remaining parties is
    a global transpose of the already transposed matrix."""
    return m[_PT_ROWS[:4], _PT_COLS[:4]]


@dataclass(frozen=True, eq=False)
class PPTReport:
    """What ``ppt_check`` found: ``min_eigs`` holds the minimal eigenvalue of
    each partial transpose, in SUBSETS (mask) order, and ``is_ppt`` is true
    when none is below minus ``qcore.PSD_TOL``."""

    is_ppt: bool
    min_eigs: np.ndarray  # one entry per subset, in SUBSETS (mask) order


def _pt_min_eigs(rho: np.ndarray) -> np.ndarray:
    """Minimal eigenvalue of every partial transpose of a Hermitian 8x8
    matrix, in SUBSETS (mask) order, from one stacked call over
    ``_pt_stack``; unvalidated."""
    spectra = np.linalg.eigvalsh(_pt_stack(rho))
    return np.concatenate([spectra[:, 0], spectra[::-1, 0]])


def ppt_check(rho) -> PPTReport:
    """Minimal eigenvalue of every partial transpose of a Hermitian matrix,
    PPT when none is below minus ``qcore.PSD_TOL``.  Partial transposes of a
    Hermitian matrix are Hermitian, so rho is checked once."""
    rho = check_hermitian(rho)
    if rho.shape != (8, 8):
        raise ValueError(f"partial transpose needs an 8x8 matrix, got {rho.shape}")
    min_eigs = _pt_min_eigs(rho)
    return PPTReport(is_ppt=bool(np.all(min_eigs >= -PSD_TOL)), min_eigs=min_eigs)


# --- full spanning property -----------------------------------------------------

#: The canonical frame s = t = 2 sqrt(2), where spanning and exposedness run.
_CANONICAL = WitnessFamily()

#: Per subset of masks 0-3 (party 1 left alone), which parties it conjugates.
_CONJUGATED = np.array([[p in subset for p in (1, 2, 3)] for subset in SUBSETS[:4]])


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _spanning_rows(grid: KernelGrid, tags) -> np.ndarray:
    """The partially conjugated kernel vectors (mask 0-3, member, 8) of the
    grid's members of the families in ``tags`` at s = t, in
    ``grid.kernel_ids()`` order.  The factors are held member-major, (party,
    2, member), so each mask picks every party's factors or their conjugates
    and takes two contiguous products over members; component 4i+2j+k is
    (x_i y_j) z_k, as in ``tensor3``, which gives the same bits.  The rows
    are a transposed view of an array (mask, 8, member)."""
    f = np.ascontiguousarray(_kernel_table(_CANONICAL, grid, tags).transpose(1, 2, 0))
    picks = (f, f.conj())
    n = f.shape[-1]
    out = np.empty((4, 2, 2, 2, n), dtype=complex)
    for mask, conjugated in enumerate(_CONJUGATED.tolist()):
        x, y, z = (picks[c][p] for p, c in enumerate(conjugated))
        np.multiply(x[:, None, None] * y[None, :, None], z[None, None], out=out[mask])
    return out.reshape(4, 8, n).transpose(0, 2, 1)


#: ``_spanning_rows`` of the three preset grids at all fourteen families,
#: per grid.  They depend on nothing else, so they are built once; every SVD,
#: rank and record runs per call.
_SPANNING_ROWS = {
    grid: _read_only(_spanning_rows(grid, FAMILY_TAGS))[0]
    for grid in (KernelGrid.small(), KernelGrid.default(), KernelGrid.fine())
}


@dataclass(frozen=True)
class SubsetSpanRecord:
    """One party subset's line of a ``SpanningReport``: the kernel vectors
    with the parties in ``subset`` (bit mask ``mask``) conjugated have
    numerical rank ``rank``, from their ``vectors_used`` rows, with the
    smallest singular value counted in that rank and the largest one."""

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
    """What ``spanning_check`` found: one ``SubsetSpanRecord`` per party
    subset in SUBSETS order, the grid the kernel vectors came from, as
    ``KernelGrid.describe`` gives it, and the input's ``s`` and ``t``."""

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
    masks 0-3 gives all eight subsets' singular values, bit for bit.  The
    records are the frame's: the rows are the grid's members at s = t, which
    D^-1 (see ``exposedness_certificate``) maps to kernel vectors at (s, t);
    D^-1 is real, diagonal and invertible, so it commutes with partial
    conjugation and keeps every rank.

    The rows depend only on the grid and the tags.  For a preset grid
    (``small``, ``default`` or ``fine``) at the tuple ``FAMILY_TAGS``, every
    CLI call's case, they are the constants ``_SPANNING_ROWS`` built at
    import; any other grid or tag collection builds them per call with the
    same ``_spanning_rows``.  The SVD, the ranks and the records run per
    call.  A string, or a tag outside ``FAMILY_TAGS``, raises ValueError:
    members are picked by ``in``, which matches a string's substrings and
    passes over an unknown tag."""
    grid = grid or KernelGrid.default()
    rows = _SPANNING_ROWS.get(grid) if isinstance(tags, tuple) and tags == FAMILY_TAGS else None
    if rows is None:
        if isinstance(tags, str) or not set(tags) <= set(FAMILY_TAGS):
            raise ValueError(f"tags must be a collection of tags from FAMILY_TAGS, got {tags!r}")
        rows = _spanning_rows(grid, tags)
    n = rows.shape[1]
    if n < 8:
        raise ValueError(f"grid yields only {n} kernel vectors, need >= 8")
    half = np.linalg.svd(rows, compute_uv=False)
    ranks = np.sum(half > RANK_THRESHOLD * half[:, :1], axis=1)
    kept = half[np.arange(4), ranks - 1]
    # SUBSETS is in mask order, and mask 7 - k has the singular values of mask k
    per_mask = list(zip(ranks.tolist(), kept.tolist(), half[:, 0].tolist()))
    records = tuple(
        SubsetSpanRecord(subset, mask, *values, n)
        for mask, (subset, values) in enumerate(zip(SUBSETS, per_mask + per_mask[::-1]))
    )
    return SpanningReport(records=records, grid=grid.describe(), s=w.s, t=w.t)


# --- exposedness certificate ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class PruneRecord:
    """One signed prune perturbation C + ``epsilon`` E of an exposedness
    certificate, along its ``direction``-th direction E: the probe's value
    there, the unit product vector it reached, whether the value is below
    ``PRUNE_VIOLATION``, and the 8x8 perturbation itself."""

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
    """What each stage of ``exposedness_certificate`` decided.
    ``exact_rank`` is the run's (zero-value, first-order) exact rank, the
    constant its JSON cites with ``EXACT_PRIME``.  ``unpruned_directions``
    is None, and the probe arrays are empty, when the first-order conditions
    have refused already and no falsification ran."""

    s: float
    t: float
    constraint_count: int
    exact_rank: tuple
    nullspace_dim: int
    surviving_ray_dim: int
    direction_match_error: float
    pv4_diagonal_error: float
    unpruned_directions: int | None
    # Per signed perturbation: its probe factors, value and herm_to_vec
    # coordinates.  Task i perturbs along direction i // 2, by +PRUNE_STEP
    # for even i and -PRUNE_STEP for odd i.
    _factors: np.ndarray = field(repr=False, compare=False)
    _values: np.ndarray = field(repr=False, compare=False)
    _coords: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def prune_records(self) -> tuple:
        """One ``PruneRecord`` per signed perturbation, built on first access,
        with its 8x8 matrix, which no stage needs."""
        return tuple(
            PruneRecord(
                direction=i // 2,
                epsilon=-PRUNE_STEP if i % 2 else PRUNE_STEP,
                min_value=value,
                argmin=ProductVector(*f),
                violated=value < PRUNE_VIOLATION,
                perturbation=pert,
            )
            for i, (value, f, pert) in enumerate(zip(
                self._values.tolist(), self._factors.conj(), vec_to_herm(self._coords)
            ))
        )

    @property
    def certified(self) -> bool:
        return (
            self.surviving_ray_dim == 1
            and self.direction_match_error < RANK_THRESHOLD
            and self.unpruned_directions == 0
        )

    def to_json_dict(self) -> dict:
        return {
            **_field_dict(self),
            "exact_rank": list(self.exact_rank),
            "prime": EXACT_PRIME,
            "tol": RANK_THRESHOLD,
            "certified": self.certified,
        }


def _rank(sv: np.ndarray) -> int:
    """Count of the descending singular values above ``RANK_THRESHOLD`` times
    the largest; raises when the smallest counted one is within 10x of it."""
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    if 0 < rank < len(sv) and sv[rank - 1] < 10.0 * RANK_THRESHOLD * sv[0]:
        raise ValueError(
            "nullspace computation is ill-conditioned (singular-value gap "
            f"{sv[rank - 1] / sv[0]:.3e} is within a factor 10 of the cutoff {RANK_THRESHOLD:.3e})"
        )
    return rank


#: Diagonal indices forced to zero by the six basis product vectors in the
#: flat kernel families (all but 011 and 100).
_PV4_DIAG_INDICES = (0, 1, 2, 5, 6, 7)


#: Axis orders of a stack of Pauli tensors (task, 4, 4, 4) that put one
#: party's index first, then the task, then the other two parties in order.
_PARTY_FIRST = ((1, 0, 2, 3), (2, 0, 1, 3), (3, 0, 1, 2))


def _probe_starts(x: np.ndarray) -> tuple:
    """The start data of ``_prune_probe`` at product vectors x (n, party, 2):
    their unit factors (n, party, 2) and those factors' Bloch vectors
    (party, 4, n)."""
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return unit, _bloch_vectors(unit.swapaxes(0, 1))


def _prune_probe(starts: tuple, tensors: np.ndarray) -> tuple:
    """For each Pauli tensor T (task, 4, 4, 4) of a stack of Hermitian 8x8
    matrices M (see ``witness._pauli_tensor``), the best product vector one
    see-saw party update reaches from any product vector x of a stack, given
    as its ``_probe_starts``.  Returns its unit factors (task, party, 2) and
    the form of M there, the trilinear form of T at the factors' Bloch
    vectors; no 8x8 matrix is needed.

    Where the form of M vanishes at x but a partial gradient there does not,
    changing one party's factor of x takes the form below zero, and the best
    change is the lowest eigenvector of that party's effective 2x2 matrix at
    the other two unit factors of x.  As in the see-saw, that matrix is
    tau0 I + tau.sigma, with tau the contraction of T with the other two
    parties' Bloch vectors: its lowest eigenvalue tau0 - |tau| is taken for
    every (party, task, x), and ``_bloch_min`` gives the Bloch vector of the
    one move each task keeps.  That Bloch vector starts at x's own, so a
    matrix that is a multiple of the identity keeps x's factor.
    """
    unit, bloch = starts  # (x, party, 2) and (party, 4, x)
    tasks, n = len(tensors), len(unit)
    pick = np.arange(tasks)
    best_x, best_value = np.empty((3, tasks), dtype=int), np.empty((3, tasks))
    best_tau = np.empty((3, tasks, 4))
    # Party by party: for 48 product vectors and 90 tasks, tau of all three
    # parties at once is 415 kB, and arrays that size were handed back to the
    # system and faulted in again on every call, about 200 minor faults.
    for p, (q1, q2) in enumerate(((1, 2), (0, 2), (0, 1))):
        # T with the party's index first, then the task, then the other two
        rows = tensors.transpose(_PARTY_FIRST[p]).reshape(4 * tasks, 16)
        tau = (rows @ (bloch[q1, :, None] * bloch[q2, None]).reshape(16, n)).reshape(4, tasks, n)
        # The minima tau0 - |tau| as ``_bloch_min`` takes them, which then
        # runs only on each task's chosen column, for its Bloch vector.  It
        # rescales a column whose |tau| is below 2^-484, where the sum of
        # squares here may underflow: the value moves by less than 1e-145.
        lowest = tau[0] - np.sqrt(np.add.reduce(tau[1:] * tau[1:], axis=0))
        best_x[p] = np.argmin(lowest, axis=1)
        best_value[p] = lowest[pick, best_x[p]]
        best_tau[p] = tau[:, pick, best_x[p]].T
    party = np.argmin(best_value, axis=0)
    chosen = best_x[party, pick]
    moved = bloch[party, 1:, chosen].T.copy()  # x's own Bloch vectors, then the move
    _bloch_min(best_tau[party, pick].T, moved)
    probe = unit[chosen]
    probe[pick, party] = _spinors(moved)
    # the form at the factors, sum_ijk T_ijk a_i b_j c_k over their Bloch vectors
    a, b, c = _bloch_vectors(probe.swapaxes(0, 1))  # (4, task) each
    abc = (a[:, None, None] * b[None, :, None] * c[None, None]).reshape(64, tasks)
    return probe, np.einsum("tm,mt->t", tensors.reshape(tasks, 64), abc)


#: The constraint product vectors of the certificate, as kernel ids (tag,
#: params) of ``KernelGrid.kernel_ids()``, at s = t.  Their 32 zero-value
#: rows span the same 32-dimensional row space as any grid's, and with their
#: first-order rows they have the exact rank 63 (``CERTIFICATE_EXACT_RANKS``),
#: so they isolate the ray.  Every factor entry is 0 or OMEGA**k sqrt(2)**e
#: with |e| <= 2.  They were chosen
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

#: The constraint product vectors of the flat-only control, as kernel ids
#: at s = t.  Their 18 zero-value rows span the same 18-dimensional row
#: space as any grid's flat members and basis kernel vectors, and together
#: with their first-order rows the same 54-dimensional space, so they leave
#: the grids' nullspace (46) and surviving dimension (10).  They were chosen
#: once by a pivoted selection from the flat families of the pool of
#: ``CERTIFICATE_KERNEL_IDS``, in pool order: a member is taken when its
#: zero-value row raises the numerical rank (singular values above 1e-8 of
#: the largest), up to 18, and then when its zero-value and first-order
#: rows raise the joint rank, up to 54.  The first stage reached joint rank
#: 54 by itself.  Every factor entry is 0, 1 or OMEGA, and the six basis
#: vectors are among the members.
CONTROL_KERNEL_IDS = (
    *(("x01", p) for p in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, OMEGA))),
    *(("x10", p) for p in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, OMEGA))),
    *(("0y0", p) for p in ((1.0, 0.0), (1.0, 1.0), (1.0, OMEGA))),
    *(("1y1", p) for p in ((0.0, 1.0), (1.0, 1.0), (1.0, OMEGA))),
    *(("00z", p) for p in ((1.0, 1.0), (1.0, OMEGA))),
    *(("11z", p) for p in ((1.0, 1.0), (1.0, OMEGA))),
)


def _member_factors(ids) -> np.ndarray:
    """Factors (n, party, 2) at s = t of the kernel ids, from one
    ``_family_factors`` call per family kind, flat then curved."""
    kinds = ([i for i in ids if i[0] in PV1_TAGS], [i for i in ids if i[0] not in PV1_TAGS])
    return np.concatenate([
        _family_factors(_CANONICAL, tuple(tag for tag, _ in k), np.array([p for _, p in k])[:, None])[:, 0]
        for k in kinds if k
    ])


def _constraint_data(x: np.ndarray) -> tuple:
    """The zero-value constraints that conjugated product vectors x (n,
    party, 2) impose on Hermitian matrices W: the probe's starts at x
    (``_probe_starts``), and the real rows (n, 64) of W -> <x|W|x> in
    ``herm_to_vec`` coordinates.  Each x is a zero of the Choi matrix's
    form.  Every array is read-only."""
    full = tensor3(*x.swapaxes(0, 1))
    rows = herm_to_vec(full[:, :, None] * full[:, None, :].conj())
    return _read_only(*_probe_starts(x)), _read_only(rows)[0]


#: The constraint data of the certificate and of the control,
#: ``_constraint_data`` of the members ``CERTIFICATE_KERNEL_IDS`` and
#: ``CONTROL_KERNEL_IDS`` at s = t, conjugated.  They depend on nothing else,
#: so they are built once; every decision on them runs per call.
_CERTIFICATE_DATA = _constraint_data(_member_factors(CERTIFICATE_KERNEL_IDS).conj())
_CONTROL_DATA = _constraint_data(_member_factors(CONTROL_KERNEL_IDS).conj())

#: The prime of the exact ranks below, 2**31 - 151.  It is 1 mod 8, so F_p
#: holds an element zeta of order 8, the image of OMEGA, and zeta + zeta**-1
#: is the image of sqrt 2.
EXACT_PRIME = 2147483497

#: The exact ranks (zero-value, first-order) of the certificate's
#: constraint product vectors x at s = t, and of the control's: the rank of
#: the complexified rows vec|x><x|, and of those together with vec|a_p><x|
#: and vec|x><a_p|, a_p being x with party p's factor replaced by its
#: orthogonal complement.  Every entry of these rows is 0 or OMEGA**k
#: sqrt(2)**e, so they reduce mod ``EXACT_PRIME``, and a rank there bounds
#: the complex rank from below; the Choi matrix, which annihilates every
#: certificate row exactly, and the ten Hermitian matrices on its X pattern,
#: which annihilate every control row, bound it from above.
#: ``tests/test_exact_rank.py`` proves both bounds with integers.  The rows
#: are closed under the adjoint, so the Hermitian W that meet every
#: condition have real dimension 64 minus the first-order rank: the ray of
#: C for the certificate, and 10 for the control.
CERTIFICATE_EXACT_RANKS = (32, 63)
CONTROL_EXACT_RANKS = (18, 54)

#: The ``herm_to_vec`` coordinates of the canonical Choi matrix C, and their
#: unit vector, the ray the certificate tests.
_CHOI_VEC = herm_to_vec(choi_explicit(_CANONICAL))
_CHOI_UNIT = _CHOI_VEC / np.linalg.norm(_CHOI_VEC)
_read_only(_CHOI_VEC, _CHOI_UNIT)

#: ``_pauli_tensor`` of ``vec_to_herm``, as one real (64, 64) map on
#: ``herm_to_vec`` coordinates: row k is the flattened Pauli tensor of the
#: k-th coordinate matrix B_k.  It takes the prune perturbations'
#: coordinates to their Pauli tensors without building their 8x8 matrices.
#: Entry (k, ijk) is tr(B_k P) / 8 for the Pauli product P = sigma_i (x)
#: sigma_j (x) sigma_k, the Hilbert-Schmidt product of B_k and P / 8, so it
#: is the k-th ``herm_to_vec`` coordinate of P / 8 (an isometry): built
#: from ``witness._PAULI_MAP``, whose row ijk is (P / 8)^T, with no matrix
#: product, so that importing starts no BLAS.
_HERM_PAULI = _read_only(np.ascontiguousarray(herm_to_vec(_PAULI_MAP.reshape(64, 8, 8).swapaxes(1, 2)).T))[0]


def _constraint_vectors(include_eta_zeta: bool) -> tuple:
    """Stage 1: the constraint product vectors at s = t, as the probe's
    starts, and their zero-value rows, as ``_constraint_data`` built them at
    import, and their exact ranks: the members ``CERTIFICATE_KERNEL_IDS``
    with ``CERTIFICATE_EXACT_RANKS``, or for the control
    ``CONTROL_KERNEL_IDS`` with ``CONTROL_EXACT_RANKS``."""
    if include_eta_zeta:
        return (*_CERTIFICATE_DATA, CERTIFICATE_EXACT_RANKS)
    return (*_CONTROL_DATA, CONTROL_EXACT_RANKS)


def _zero_value_nullspace(rows: np.ndarray, rank: int) -> tuple:
    """Stage 2: an orthonormal basis (64 - rank, 64) of the common nullspace
    N of the zero-value rows, the nullspace the grid's kernel vectors and
    dual states pin, from one complete Householder QR of the 64 x (m + 1)
    matrix [rows; C]^T, C the Choi matrix's unit coordinates.  ``rank`` is
    the rows' exact rank; the QR needs the m rows independent, so m must be
    that rank.  Q's columns from m on are the basis: column m is C's
    normalized component in N, the basis's first row, and the columns after
    it are orthogonal to C.

    The singular values of R's leading m x m block are those of the rows up
    to backward error; their numerical rank must be the exact rank, or this
    raises ValueError, the one cross-check of the float route on the exact
    one.  It raises too when m is not that rank, and when R[m, m] is 0,
    where C has no component in N.  Also the largest entry of the basis at
    the diagonals the six basis kernel vectors pin, which must vanish on
    all of N."""
    m = len(rows)
    q, r = np.linalg.qr(np.vstack([rows, _CHOI_UNIT]).T, mode="complete")
    numerical = _rank(np.linalg.svd(r[:m, :m], compute_uv=False))
    if numerical != rank:
        raise ValueError(f"the zero-value rows have numerical rank {numerical}, not their exact rank {rank}")
    if m != rank:
        raise ValueError(f"{m} zero-value rows for their exact rank {rank}: the QR needs independent rows")
    if r[m, m] == 0.0:
        raise ValueError("the Choi matrix is not in the constraint nullspace")
    null_basis = q[:, m:].T
    # herm_to_vec stores the diagonal in coordinates 0-7
    pv4_diag_error = float(np.max(np.abs(null_basis[:, _PV4_DIAG_INDICES]), initial=0.0))
    if pv4_diag_error > 10.0 * RANK_THRESHOLD:
        raise ValueError(
            f"nullspace elements have nonzero pinned diagonals ({pv4_diag_error:.3e})"
        )
    return null_basis, pv4_diag_error


def _direction_match(null_basis: np.ndarray) -> float:
    """Stage 3: ``direction_match_error``, the distance of the Choi matrix's
    unit direction to the survivor, the basis's first row: C's normalized
    component in N, with its sign taken towards C.  The first-order rank
    needs no computation: it is the exact constant of stage 1."""
    survivor = null_basis[0]
    if survivor @ _CHOI_UNIT < 0:
        survivor = -survivor
    return float(np.linalg.norm(survivor - _CHOI_UNIT))


def _falsification(starts: tuple, null_basis: np.ndarray) -> dict:
    """Stage 4: both signed perturbations C +- ``PRUNE_STEP`` E of the Choi
    matrix along every direction E of N orthogonal to it must lose block
    positivity, shown by a value below ``PRUNE_VIOLATION``.  A closed-form
    probe (``_prune_probe``) tries one party update from every constraint
    product vector, given as its starts; a perturbation it does not take
    below the threshold stays open, and its direction counts as unpruned.
    Returns that count and the probe's per-task arrays, keyed by their
    certificate fields.  The directions are the basis rows after the
    survivor; the perturbations stay in ``herm_to_vec`` coordinates, which
    ``_HERM_PAULI`` takes to the Pauli tensors the probe reads, and their
    8x8 matrices are built only for ``prune_records``."""
    directions = null_basis[1:]
    task_direction = np.repeat(np.arange(len(directions)), 2)
    task_eps = np.tile([PRUNE_STEP, -PRUNE_STEP], len(directions))
    coords = _CHOI_VEC + task_eps[:, None] * directions[task_direction]
    # the certificate's 62 rows: few enough for one thread
    tensors = (coords @ _HERM_PAULI).reshape(-1, 4, 4, 4)

    probe, probe_values = _prune_probe(starts, tensors)
    # A direction is pruned when both of its signed perturbations violate.
    return {
        "unpruned_directions": len(set(task_direction[~(probe_values < PRUNE_VIOLATION)].tolist())),
        "_factors": probe, "_values": probe_values, "_coords": coords,
    }


#: A certificate's falsification fields when the first-order conditions
#: have refused already: no count and no probe tasks, so no prune records.
_NOT_FALSIFIED = {
    "unpruned_directions": None,
    "_factors": np.empty((0, 3, 2), dtype=complex), "_values": np.empty(0),
    "_coords": np.empty((0, 64)),
}


def exposedness_certificate(
    w: WitnessFamily, *, include_eta_zeta: bool = True
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

    The stages: the constraint product vectors with their exact ranks
    (``_constraint_vectors``), the nullspace N of their zero-value
    constraints (``_zero_value_nullspace``), the direction match
    (``_direction_match``), and the falsification (``_falsification``).
    ``surviving_ray_dim`` is 64 minus the exact first-order rank
    (``CERTIFICATE_EXACT_RANKS``, ``CONTROL_EXACT_RANKS``), which a test
    proves in exact arithmetic, so no first-order rank is computed.  One
    Householder QR of the zero-value rows with C appended gives N, the
    survivor (C's normalized component in N) and the prune directions, the
    rest of N; the singular values of its m x m triangle, one small SVD,
    must have the exact zero-value rank as their numerical rank, or the
    call raises ValueError.  The perturbations stay in ``herm_to_vec``
    coordinates, which one real map takes to the Pauli tensors the probe
    reads.  The fixed members' zero-value rows and the probe's starts at
    them, the certificate's and the control's, the Choi matrix's
    coordinates and that map are built at import; the QR, the SVD, its rank
    and the probe run per call.  The falsification can only withhold the
    certificate, never grant it, so it runs only once the first-order
    conditions have isolated the ray:
    ``surviving_ray_dim`` 1 and ``direction_match_error`` below
    ``RANK_THRESHOLD``.  Otherwise ``unpruned_directions`` is None and there
    are no prune records.

    With ``include_eta_zeta`` false the constraints are the flat-only
    control's members ``CONTROL_KERNEL_IDS``, whose zero-value and
    first-order rows span those of every grid's flat members and six basis
    kernel vectors; their exact rank leaves a surviving dimension of 10.
    ``surviving_ray_dim`` alone decides the control, and it runs no
    falsification.
    """
    starts, rows, exact_rank = _constraint_vectors(include_eta_zeta)
    null_basis, pv4_diag_error = _zero_value_nullspace(rows, exact_rank[0])
    direction_match_error = _direction_match(null_basis)
    surviving_ray_dim = 64 - exact_rank[1]
    if surviving_ray_dim == 1 and direction_match_error < RANK_THRESHOLD:
        falsified = _falsification(starts, null_basis)
    else:
        falsified = _NOT_FALSIFIED
    return ExposednessCertificate(
        s=w.s,
        t=w.t,
        constraint_count=len(rows),
        exact_rank=exact_rank,
        nullspace_dim=len(null_basis),
        surviving_ray_dim=surviving_ray_dim,
        direction_match_error=direction_match_error,
        pv4_diagonal_error=pv4_diag_error,
        **falsified,
    )


# --- detection of PPT entanglement ----------------------------------------------

#: The detected state's parameter delta = p / q: within 1e-3 of
#: (8 - 4 sqrt 2) / (8 + sqrt 24), where the two bounds of
#: ``DetectionCertificate.ball_radius`` meet.
DETECT_DELTA = (2, 11)

#: The anti-diagonal pattern of the Choi matrix, and of the detected state.
_X_DIRECTION = np.array([1.0, 1.0, -1.0, 1.0])

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


@dataclass(frozen=True, eq=False)
class DetectionCertificate:
    """A PPT state the witness detects; its verdict is ``DETECT_EXACT``.
    ``ball_radius`` is the frame's radius, at s = t: min(lambda_min,
    -pairing / ||C||_HS) bounds a Hilbert-Schmidt ball of PPT, detected states
    (Weyl's inequality, partial transposition being an isometry, and
    Cauchy-Schwarz), so they have positive volume; the frame congruence maps
    the ball onto a neighbourhood of ``rho``.  The computed pairing and
    partial-transpose minima of ``rho``, the values ``pairing`` and
    ``ppt_check`` return, are the cross-check, its eigenvalues allowed
    ``PT_ROUNDING`` below zero."""

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

    The cross-check computes the pairing with the Choi matrix and the
    partial-transpose spectra as ``pairing`` and ``ppt_check`` do, bit for
    bit, without their Hermiticity checks: the state is built exactly
    Hermitian (real and symmetric), and so is the Choi matrix.
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
        pairing_value=_pairing(rho, choi_explicit(w)).real,
        min_pt_eigs=_pt_min_eigs(rho),
        ball_radius=radius,
        s=w.s,
        t=w.t,
    )


# --- classification of kernel vectors -------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    """What ``kernel_classify`` matched: the kernel family's tag and its
    fitted parameters, both None when no family fits within the tolerance,
    and the best family's residual, the largest sine distance between a
    party's factor and the family's."""

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
    raises ValueError, and so does a ``tol`` that is not finite and
    nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"kernel classification needs a finite, nonnegative tol, got {tol!r}")
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
