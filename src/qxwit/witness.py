"""The two-parameter witness family: bilinear action, Choi matrices, the
duality pairing, kernel product-vector families, dual-face states, see-saw
positivity checks and the motivating sum construction."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .qcore import ProductVector, check_hermitian, _check_hermitian_stack, _square
from .xstate import XMatrix

#: Eighth root of unity used by every kernel family and dual state.
OMEGA = np.exp(1j * np.pi / 4.0)

ST_PRODUCT = 8.0
ST_TOL = 1e-9


@dataclass(frozen=True)
class WitnessFamily:
    """Parameters (s, t) of the witness; only pairs with s * t = 8 are valid."""

    s: float = 2.0 * math.sqrt(2.0)
    t: float = 2.0 * math.sqrt(2.0)

    def __post_init__(self):
        if self.s <= 0.0 or self.t <= 0.0:
            raise ValueError("witness parameters must be positive")
        if abs(self.s * self.t - ST_PRODUCT) >= ST_TOL:
            raise ValueError(
                f"witness parameters must satisfy s*t = 8, got s*t = {self.s * self.t!r}"
            )
        # The curved kernel families need the ratio u = sqrt(s / t) as a finite
        # positive double; it under- or overflows once s leaves about
        # [1e-161, 1e154].
        if not 0.0 < self.u < math.inf:
            raise ValueError(f"witness parameter ratio s/t = {self.s / self.t!r} is out of range")

    @property
    def u(self) -> float:
        """Derived ratio sqrt(s / t)."""
        return math.sqrt(self.s / self.t)

    @property
    def omega(self) -> complex:
        return OMEGA


def phi_apply(w: WitnessFamily, x, y) -> np.ndarray:
    """Bilinear action of the witness map on a pair of 2x2 matrices."""
    x = _square(x, "first argument")
    y = _square(y, "second argument")
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise ValueError("the map acts on pairs of 2x2 matrices")
    top_right = (
        x[0, 1] * y[0, 1] - x[0, 1] * y[1, 0] + x[1, 0] * y[0, 1] + x[1, 0] * y[1, 0]
    )
    bottom_left = (
        x[0, 1] * y[0, 1] + x[0, 1] * y[1, 0] - x[1, 0] * y[0, 1] + x[1, 0] * y[1, 0]
    )
    return np.array(
        [
            [w.s * x[1, 1] * y[0, 0], top_right],
            [bottom_left, w.t * x[0, 0] * y[1, 1]],
        ]
    )


def choi_generic(f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Assemble the 8x8 Choi matrix of a bilinear map from its values on the
    sixteen matrix-unit pairs."""
    c = np.zeros((8, 8), dtype=complex)
    for i1, j1, i2, j2 in itertools.product(range(2), repeat=4):
        e1 = np.zeros((2, 2), dtype=complex)
        e1[i1, j1] = 1.0
        e2 = np.zeros((2, 2), dtype=complex)
        e2[i2, j2] = 1.0
        block = np.asarray(f(e1, e2), dtype=complex)
        if block.shape != (2, 2):
            raise ValueError("the bilinear map must return 2x2 matrices")
        rows = 4 * i1 + 2 * i2
        cols = 4 * j1 + 2 * j2
        c[rows : rows + 2, cols : cols + 2] += block
    return c


def choi_explicit(w: WitnessFamily) -> np.ndarray:
    """Closed-form Choi matrix: diagonal t at 011 and s at 100, a symmetric 1
    linking them, and anti-diagonal entries (1, 1, -1) at (000,111), (001,110),
    (010,101)."""
    c = np.zeros((8, 8), dtype=complex)
    c[3, 3] = w.t
    c[4, 4] = w.s
    c[3, 4] = c[4, 3] = 1.0
    c[0, 7] = c[7, 0] = 1.0
    c[1, 6] = c[6, 1] = 1.0
    c[2, 5] = c[5, 2] = -1.0
    return c


def pairing(rho, c) -> float:
    """Duality pairing Tr(C rho^t) of two Hermitian matrices of equal size."""
    rho = check_hermitian(rho)
    c = check_hermitian(c)
    if rho.shape != c.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {c.shape}")
    value = complex(np.sum(c * rho))
    # Hermitian inputs pair to a real number.  The defects check_hermitian
    # allows (1e-12 of either matrix's largest entry) leave below 1e-10
    # max|c| max|rho| of imaginary part over the 64 products, rounding less.
    if abs(value.imag) > 1e-10 * float(np.max(np.abs(c)) * np.max(np.abs(rho))):
        raise ValueError(f"pairing has imaginary residue {value.imag:.3e}")
    return float(value.real)


def pairing_x(x: XMatrix, w: WitnessFamily) -> float:
    """Closed form of the pairing of an X matrix with the witness Choi matrix:
    t a4 + s b4 + 2 Re(c1 + c2 - c3 + c4)."""
    c = x.c
    return float(w.t * x.a[3] + w.s * x.b[3] + 2.0 * np.real(c[0] + c[1] - c[2] + c[3]))


# --- kernel product-vector families -----------------------------------------

_BASIS = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))

#: Flat families: one free 2-vector factor, the other two pinned to basis kets.
_PV1_SLOTS = {
    "x01": (None, 0, 1),
    "x10": (None, 1, 0),
    "0y0": (0, None, 0),
    "1y1": (1, None, 1),
    "00z": (0, 0, None),
    "11z": (1, 1, None),
}

#: Phase exponents (powers of the eighth root of unity) of the curved families.
_PHASE_EIGHTHS = {
    "eta1": (3, 1, 7),
    "eta2": (3, 5, 3),
    "eta3": (7, 1, 3),
    "eta4": (7, 5, 7),
    "zeta1": (5, 7, 1),
    "zeta2": (5, 3, 5),
    "zeta3": (1, 7, 5),
    "zeta4": (1, 3, 1),
}

PV1_TAGS = tuple(_PV1_SLOTS)
ETA_TAGS = ("eta1", "eta2", "eta3", "eta4")
ZETA_TAGS = ("zeta1", "zeta2", "zeta3", "zeta4")
FAMILY_TAGS = PV1_TAGS + ETA_TAGS + ZETA_TAGS


#: OMEGA**k for k = 0..7, each computed as the scalar power.
_OMEGA_POWERS = np.array([OMEGA**k for k in range(8)])
#: Per flat family: which party is free, and the basis kets of the others.
_PV1_FREE = np.array([[slot is None for slot in slots] for slots in _PV1_SLOTS.values()])
_PV1_PINNED = np.array([[_BASIS[slot or 0] for slot in slots] for slots in _PV1_SLOTS.values()])


def _family_factors(w: WitnessFamily, tags, params) -> np.ndarray:
    """Factors (tag, param, party, 2) of members of one or more kernel
    families, all flat or all curved.  Flat params are free 2-vectors, (param,
    2) or (tag, param, 2); curved ones are one (a1, a2) stack for every tag."""
    if tags[0] in _PV1_SLOTS:
        idx = [PV1_TAGS.index(tag) for tag in tags]
        free = np.asarray(params, dtype=complex)[..., None, :]
        return np.where(_PV1_FREE[idx, None, :, None], free, _PV1_PINNED[idx, None])
    a1, a2 = np.asarray(params, dtype=float).T
    u = w.u
    out = np.empty((len(tags), len(a1), 3, 2), dtype=complex)
    out[..., 0] = np.stack([np.sqrt(u * a1), np.sqrt(a2 / u), np.sqrt(a1 / a2)], axis=-1)
    out[..., 1] = _OMEGA_POWERS[[_PHASE_EIGHTHS[tag] for tag in tags]][:, None, :]
    return out


def kernel_vector(w: WitnessFamily, tag: str, params) -> ProductVector:
    """Member of one of the fourteen kernel families.

    Flat families take a complex pair (the free factor); the eta and zeta
    families take two positive reals (a1, a2).  Every returned vector v pairs
    to zero with the Choi matrix: pairing(|v><v|, C) = 0.
    """
    if tag in _PV1_SLOTS:
        params = np.asarray(params, dtype=complex)
        if params.shape != (2,):
            raise ValueError(f"family {tag} takes a complex 2-vector parameter")
    elif tag in _PHASE_EIGHTHS:
        a1, a2 = params
        if a1 <= 0.0 or a2 <= 0.0:
            raise ValueError(f"family {tag} takes two positive parameters")
    else:
        raise ValueError(f"unknown kernel family tag {tag!r}")
    return ProductVector(*_family_factors(w, (tag,), [params])[0, 0])


#: Factors (6, party, 2) of the six basis product vectors in the flat kernel
#: families: 000, 001, 010, 101, 110, 111.
_PV4_FACTORS = np.array(_BASIS)[[(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]]


def pv4_vectors() -> list:
    """The six basis product vectors contained in the flat kernel families."""
    return [ProductVector(*f) for f in _PV4_FACTORS]


def _dual_entries(w: WitnessFamily, params) -> tuple:
    """X-matrix fields (a, b, c), each (m, 4), of the dual states with (kind,
    a1, a2) in the rows of ``params``.  Both kinds share the diagonal (a1, a2,
    u a1/a2, u) / (1/a1, 1/a2, a2/(u a1), 1/u); they differ in the
    anti-diagonal phase pattern."""
    params = np.asarray(params, dtype=float).reshape(-1, 3)
    kind, a1, a2 = params.T
    if not set(kind.tolist()) <= {1, 2}:
        raise ValueError("kind must be 1 or 2")
    if (params[:, 1:] <= 0.0).any():
        raise ValueError("dual state parameters must be positive")
    u = w.u
    a = np.array([a1, a2, u * a1 / a2, np.full_like(a1, u)]).T
    b = np.array([1.0 / a1, 1.0 / a2, a2 / (u * a1), np.full_like(a1, 1.0 / u)]).T
    return a, b, OMEGA ** np.array([[-3, 3, -1, -3], [3, -3, 1, 3]])[kind.astype(int) - 1]


def dual_state(w: WitnessFamily, kind: int, a1: float, a2: float) -> XMatrix:
    """Rank-four separable X state pairing to zero with C: one row of ``_dual_entries``."""
    return XMatrix(*(f[0] for f in _dual_entries(w, [(kind, a1, a2)])))


@dataclass(frozen=True)
class KernelGrid:
    """Sampling grid over the kernel families and dual states.

    Flat families are sampled at ``phase_count`` unimodular phases plus the
    two basis endpoints; eta/zeta families and dual states run over the
    cartesian square of ``ab_values``.
    """

    phase_count: int = 5
    ab_values: tuple = (0.5, 1.0, 2.0)
    name: str = "default"

    @classmethod
    def small(cls) -> "KernelGrid":
        return cls(phase_count=3, ab_values=(0.5, 2.0), name="small")

    @classmethod
    def default(cls) -> "KernelGrid":
        return cls()

    @classmethod
    def fine(cls) -> "KernelGrid":
        return cls(
            phase_count=7,
            ab_values=(1.0 / 3.0, 0.5, 1.0, 2.0, 3.0),
            name="fine",
        )

    @classmethod
    def named(cls, name: str) -> "KernelGrid":
        presets = {"small": cls.small, "default": cls.default, "fine": cls.fine}
        if name not in presets:
            raise ValueError(f"unknown grid preset {name!r}")
        return presets[name]()

    def pv1_params(self) -> list:
        params = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        for k in range(self.phase_count):
            phase = np.exp(2j * np.pi * k / self.phase_count)
            params.append(np.array([1.0, phase]))
        return params

    def _ab_pairs(self) -> list:
        return [(a1, a2) for a1 in self.ab_values for a2 in self.ab_values]

    def kernel_ids(self) -> list:
        flat = [(tag, p) for tag in PV1_TAGS for p in self.pv1_params()]
        return flat + [(tag, ab) for tag in ETA_TAGS + ZETA_TAGS for ab in self._ab_pairs()]

    def dual_params(self) -> list:
        return [(kind, a1, a2) for kind in (1, 2) for a1, a2 in self._ab_pairs()]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "phase_count": self.phase_count,
            "ab_values": list(self.ab_values),
        }


def _kernel_table(w: WitnessFamily, grid: KernelGrid, tags=FAMILY_TAGS) -> np.ndarray:
    """Factors (n, party, 2) of the grid's members of the families in
    ``tags``, in ``grid.kernel_ids()`` order."""
    parts = [np.empty((0, 3, 2), dtype=complex)]
    for kind, params in ((PV1_TAGS, grid.pv1_params()), (ETA_TAGS + ZETA_TAGS, grid._ab_pairs())):
        kept = [tag for tag in kind if tag in tags]
        if kept:
            parts.append(_family_factors(w, kept, params).reshape(-1, 3, 2))
    return np.concatenate(parts)


def kernel_vectors(w: WitnessFamily, grid: KernelGrid) -> list:
    """All kernel vectors of a grid, in the grid's enumeration order."""
    return [ProductVector(*f) for f in _kernel_table(w, grid)]


# --- see-saw minimization over product vectors -------------------------------

#: A see-saw task has stalled once no restart's value moved by this much in a
#: cycle, relative to the task's scale (see ``_seesaw``).
STALL_TOL = 1e-12


@dataclass(frozen=True)
class SeesawResult:
    min_value: float
    argmin: ProductVector
    restarts: int
    seed: int
    cycles: int
    max_cycles: int
    #: The run stopped because its best value dropped below ``stop_below``.
    stopped_below: bool = False

    @property
    def converged(self) -> bool:
        """The stall test stopped the run before its cycle cap.  A run that
        stalls on its last allowed cycle, or that ``stop_below`` stopped,
        reads as not converged."""
        return not self.stopped_below and self.cycles < self.max_cycles


def _min_eigpair(m: np.ndarray, current: np.ndarray) -> tuple:
    """Minimal eigenvalues and unit eigenvectors of a batch of 2x2 Hermitian
    matrices, each given by its entries (m00, m11, m01) along axis -2 of
    ``m``; the vectors hold their two components along axis -2, like
    ``current``.

    With h = (m00 - m11) / 2, r = hypot(h, |m01|) and top = r + |h|, the
    eigenvalue is (m00 + m11) / 2 - r and the vector is (-m01, top) if h > 0,
    else (-top, conj m01): of the two eigenvector formulas the one free of
    cancellation.  Rows whose matrix is (numerically) a multiple of the
    identity keep the current vector, since any unit vector is then optimal.
    """
    a = m[..., 0, :].real
    d = m[..., 1, :].real
    od = m[..., 2, :]
    mean = 0.5 * (a + d)
    half = 0.5 * (a - d)
    aod = np.abs(od)
    abs_half = np.abs(half)
    r = np.hypot(half, aod)
    top = r + abs_half
    use2 = half > 0
    vec = np.empty(current.shape, dtype=complex)
    np.negative(np.where(use2, od, top), out=vec[..., 0, :])
    vec[..., 1, :] = np.where(use2, top, od.conj())
    nrm = np.hypot(top, aod)
    # |m00| + |m11| + 2 |m01| = 2 (max(|mean|, |half|) + |m01|)
    degenerate = nrm <= 2e-14 * (np.maximum(np.abs(mean), abs_half) + aod)
    vec /= np.where(degenerate, 1.0, nrm)[..., None, :]
    return mean - r, np.where(degenerate[..., None, :], current, vec)


def _batched_min_eigvec(m: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Unit minimal eigenvectors (..., 2) of a batch (..., 2, 2) of 2x2
    Hermitian matrices; rows whose matrix is (numerically) a multiple of the
    identity keep the current vector."""
    entries = np.asarray(m).reshape(*np.shape(m)[:-2], 4)[..., [0, 3, 1], None]
    return _min_eigpair(entries, np.asarray(current)[..., None])[1][..., 0]


#: Axis orders of the Choi tensor C[a, b, c, d, e, f] (row abc, column def)
#: that put first the (row, column) pair one party's effective matrix keeps,
#: then the indices it sums over: party one keeps (a, d), two (b, e), three
#: (c, f).
_PARTY_AXES = ((0, 3, 1, 2, 4, 5), (1, 4, 0, 2, 3, 5), (2, 5, 0, 1, 3, 4))


def _party_rows(c8: np.ndarray) -> list:
    """Per party, the (task, 3, 16) rows of a stack (task, 8, 8) of matrices
    that ``_effective`` pairs with the other two parties' factors."""
    c6 = c8.reshape((len(c8),) + (2,) * 6)
    return [
        c6.transpose(0, *(1 + a for a in axes)).reshape(len(c8), 4, 16)[:, [0, 3, 1]]
        for axes in _PARTY_AXES
    ]


def _effective(rows: np.ndarray, f1: np.ndarray, f2: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Entries (m00, m11, m01), (task, 3, restart), of one party's effective
    2x2 matrices, given the factors f1, f2 (task, 2, restart) of the other
    two parties and that party's (task, 3, 16) rows of the Choi tensor.

    The (task, 16, restart) products of the other parties' entries go into
    the first tasks of ``work``: reusing one buffer spares the allocator a
    fresh array, often a few hundred kB, per party update.
    """
    tasks = f1.shape[0]
    g = (f1[:, :, None] * f2[:, None, :]).reshape(tasks, 4, -1)
    w = work[:tasks]
    np.multiply(g.conj()[:, :, None], g[:, None, :], out=w.reshape(tasks, 4, 4, -1))
    return np.matmul(rows, w)


def _seesaw(
    matrices,
    restarts: int,
    seeds,
    max_cycles: int,
    stall_tol: float,
    *,
    stop_below: float | None = None,
):
    """Run every restart of the cyclic see-saw of every matrix as one batch.

    Minimizes <eta| C |eta> over unit product vectors eta for each matrix C;
    one party at a time is replaced by the minimal eigenvector of its
    effective 2x2 matrix, and a cycle's values are the third party's minimal
    eigenvalues.  Task k draws its starting factors from
    ``default_rng(seeds[k])`` and stops when no restart's value moved by
    ``stall_tol`` times its scale or more in the last cycle, when its best
    value is below ``stop_below`` (if given), or at ``max_cycles``; stopped
    tasks leave the batch.  A task's scale is the largest power of two not
    above its largest entry: each task runs on its matrix divided by it, which
    is exact, so the run neither under- nor overflows and its stall test
    does not depend on the input's scale.  Every update is an exact
    minimization, so a restart's value never rises and a value below
    ``stop_below`` stays below it.  Returns the values (task, restart), the
    factors (party, task, restart, 2) and the cycles run per task.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if any(np.shape(m) != (8, 8) for m in matrices):
        raise ValueError("see-saw needs an 8x8 Hermitian matrix")
    if len(seeds) != len(matrices):
        raise ValueError(f"got {len(seeds)} seeds for {len(matrices)} matrices")
    c8 = _check_hermitian_stack(np.array(matrices, dtype=complex).reshape(-1, 8, 8))
    tasks = c8.shape[0]
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(c8), axis=(1, 2), initial=0.0))[1] - 1)
    party_rows = _party_rows(c8 / scale[:, None, None])
    limit = np.full(tasks, -np.inf if stop_below is None else stop_below) / scale

    # Starting factors; each task's final factors overwrite its slice.  Task k
    # draws from default_rng(seeds[k]) in the order (party, real/imaginary
    # part, restart, component); the reshape keeps an empty batch 5-D.  The
    # loop holds factors as (task, component, restart).
    draws = np.array(
        [np.random.default_rng(seed).standard_normal((3, 2, restarts, 2)) for seed in seeds]
    ).reshape(tasks, 3, 2, restarts, 2)
    v = draws[:, :, 0] + 1j * draws[:, :, 1]
    factors = (v / np.linalg.norm(v, axis=-1, keepdims=True)).transpose(1, 0, 3, 2).copy()
    fa, fb, fz = factors
    work = np.empty((tasks, 16, restarts), dtype=complex)
    values = np.full((tasks, restarts), np.inf)
    out_values = np.empty_like(values)
    out_cycles = np.full(tasks, max_cycles)
    active = np.arange(tasks)
    for cycle in range(1, max_cycles + 1):
        if active.size == 0:
            break
        fa = _min_eigpair(_effective(party_rows[0], fb, fz, work), fa)[1]
        fb = _min_eigpair(_effective(party_rows[1], fa, fz, work), fb)[1]
        new, fz = _min_eigpair(_effective(party_rows[2], fa, fb, work), fz)
        stop = (cycle > 1) & (np.max(np.abs(new - values), axis=1) < stall_tol)
        stop |= new.min(axis=1) < limit
        values = new
        if stop.any():
            done = active[stop]
            out_values[done] = values[stop]
            factors[:, done] = np.array([fa[stop], fb[stop], fz[stop]])
            out_cycles[done] = cycle
            keep = ~stop
            active, values, limit = active[keep], values[keep], limit[keep]
            fa, fb, fz = fa[keep], fb[keep], fz[keep]
            party_rows = [p[keep] for p in party_rows]
    out_values[active] = values
    factors[:, active] = np.array([fa, fb, fz])
    return out_values * scale[:, None], factors.swapaxes(-1, -2), out_cycles


def seesaw_minima(
    matrix,
    restarts: int = 200,
    seed: int = 0,
    max_cycles: int = 300,
):
    """Converged see-saw values and minimizing product vectors, one per restart.

    The returned vectors v satisfy pairing(|v><v|, matrix) = value.
    """
    values, (fa, fb, fz), _ = _seesaw([matrix], restarts, [seed], max_cycles, STALL_TOL)
    vectors = [
        ProductVector(fa[0, k].conj(), fb[0, k].conj(), fz[0, k].conj())
        for k in range(restarts)
    ]
    return values[0], vectors


def min_product_values(
    matrices,
    restarts: int,
    seeds,
    max_cycles: int = 300,
    *,
    stop_below: float | None = None,
) -> tuple:
    """Global see-saw minima over unit product vectors of several matrices,
    run as one batch; ``seeds[k]`` seeds the restarts of ``matrices[k]``.

    Each party update solves its 2x2 eigenproblem in closed form, and a
    restart's value is the last update's minimal eigenvalue, equal up to
    rounding to the form at ``argmin``.  A task has converged once no
    restart's value moved by ``STALL_TOL`` times the largest power of two
    not above the matrix's largest entry, so the number of cycles does not
    depend on the matrix's scale.

    ``argmin`` is the first restart whose value is within 32 ulps of the
    matrix's largest entry of ``min_value``, so rounding-level changes do not
    move it.  Without ``stop_below`` each result equals, up to rounding,
    ``min_product_value`` of that matrix and seed.  With it a task stops at
    the first cycle where its best value is below that threshold; its
    ``min_value`` is then that first value below the threshold, not the
    minimum a full run would reach, and ``stopped_below`` is set.  Returns a
    tuple of SeesawResult in the order of ``matrices``.
    """
    values, (fa, fb, fz), cycles = _seesaw(
        matrices, restarts, seeds, max_cycles, STALL_TOL, stop_below=stop_below
    )
    results = []
    for t, seed in enumerate(seeds):
        min_value = float(values[t].min())
        # Restarts that end at the same minimum agree only up to rounding: a
        # value is the eigenvalue of a 2x2 matrix whose entries are 16-term
        # sums over the matrix's entries, and on Choi matrices along the curve
        # all 1000 restarts end within one ulp of the largest entry.  So that
        # rounding does not choose the argmin, it is the first restart within
        # 32 such ulps of the minimum, far below any threshold a verdict reads.
        window = 32.0 * np.spacing(np.max(np.abs(np.asarray(matrices[t]))))
        k = int(np.argmax(values[t] <= min_value + window))
        results.append(
            SeesawResult(
                min_value=min_value,
                argmin=ProductVector(fa[t, k].conj(), fb[t, k].conj(), fz[t, k].conj()),
                restarts=restarts,
                seed=seed,
                cycles=int(cycles[t]),
                max_cycles=max_cycles,
                # The threshold is tested on every cycle's values, the stored
                # last ones included, so a task ends below it exactly when the
                # threshold stopped it.
                stopped_below=stop_below is not None and min_value < stop_below,
            )
        )
    return tuple(results)


def min_product_value(
    matrix,
    restarts: int = 200,
    seed: int = 0,
    max_cycles: int = 300,
) -> SeesawResult:
    """Global see-saw minimum of the quadratic form over unit product vectors."""
    (result,) = min_product_values([matrix], restarts, [seed], max_cycles)
    return result


def verify_positive(w: WitnessFamily, restarts: int = 200, seed: int = 0) -> SeesawResult:
    """See-saw check that the witness quadratic form is nonnegative on product
    vectors; the minimum is expected to sit at zero, on a kernel family."""
    return min_product_value(choi_explicit(w), restarts=restarts, seed=seed)


# --- motivating sum construction ---------------------------------------------


class MotivatingSum(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    total: np.ndarray


def _transpose_second_factor(m4: np.ndarray) -> np.ndarray:
    return m4.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def motivating_sum(alpha) -> MotivatingSum:
    """Rank-one positive summands whose combination is linear in the input state.

    For the rank-one matrix P = [[1, conj(alpha)], [alpha, |alpha|^2]], builds
    the positive matrices A and B supported on the middle 2x2 block and returns
    (A, B, A + B^T) where B^T transposes the second tensor factor of M2 (x) M2.
    The total coincides with the linear map ``motivating_linear_map`` evaluated
    at P, while neither A nor B^T alone extends linearly.
    """
    alpha = complex(alpha)
    s = alpha.conjugate() + alpha
    d = alpha.conjugate() - alpha
    a = np.zeros((4, 4), dtype=complex)
    a[1, 1] = abs(s) ** 2
    a[1, 2] = s
    a[2, 1] = np.conj(s)
    a[2, 2] = 1.0
    b = np.zeros((4, 4), dtype=complex)
    b[1, 1] = abs(d) ** 2
    b[1, 2] = d
    b[2, 1] = np.conj(d)
    b[2, 2] = 1.0
    return MotivatingSum(a=a, b=b, total=a + _transpose_second_factor(b))


def motivating_linear_map(p) -> np.ndarray:
    """Linear extension of the motivating sum to arbitrary 2x2 inputs."""
    p = _square(p, "input")
    if p.shape != (2, 2):
        raise ValueError("the motivating map acts on 2x2 matrices")
    out = np.zeros((4, 4), dtype=complex)
    out[0, 3] = p[0, 1] - p[1, 0]
    out[3, 0] = p[1, 0] - p[0, 1]
    out[1, 1] = 4.0 * p[1, 1]
    out[1, 2] = p[0, 1] + p[1, 0]
    out[2, 1] = p[1, 0] + p[0, 1]
    out[2, 2] = 2.0 * p[0, 0]
    return out
