"""The two-parameter witness family: bilinear action, Choi matrices, the
duality pairing, kernel product-vector families, the dual states, see-saw
positivity checks with their 2x2 Bloch kernel (which the exposedness prune
probe shares) and the motivating sum construction."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .qcore import ProductVector, check_hermitian, product_vector_to_json, tensor3, _field_dict, _square
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
    families, all flat or all curved.  Params are one stack (param, 2) for
    every tag, or one per tag (tag, param, 2): free 2-vectors for the flat
    families, (a1, a2) pairs for the curved ones."""
    if tags[0] in _PV1_SLOTS:
        idx = [PV1_TAGS.index(tag) for tag in tags]
        free = np.asarray(params, dtype=complex)[..., None, :]
        return np.where(_PV1_FREE[idx, None, :, None], free, _PV1_PINNED[idx, None])
    params = np.asarray(params, dtype=float)
    a1, a2 = params[..., 0], params[..., 1]
    u = w.u
    out = np.empty((len(tags), a1.shape[-1], 3, 2), dtype=complex)
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


#: Anti-diagonal phases (kind, 4) of the dual states.
_DUAL_PHASES = OMEGA ** np.array([[-3, 3, -1, -3], [3, -3, 1, 3]])


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
    return a, b, _DUAL_PHASES[kind.astype(int) - 1]


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

#: A see-saw has stalled once no restart's value moved by this much in a
#: cycle, relative to the matrix's scale (see ``_seesaw``).
STALL_TOL = 1e-12


@dataclass(frozen=True)
class SeesawResult:
    min_value: float
    argmin: ProductVector
    restarts: int
    seed: int
    cycles: int
    max_cycles: int
    #: Restarts whose value moved by ``STALL_TOL`` times the scale or more in
    #: the last cycle run: 0 whenever the stall test stopped the run.
    restarts_moving: int

    @property
    def converged(self) -> bool:
        """The stall test stopped the run before its cycle cap.  A run that
        stalls on its last allowed cycle reads as not converged."""
        return self.cycles < self.max_cycles

    def to_json_dict(self) -> dict:
        return {
            **_field_dict(self),
            "argmin": product_vector_to_json(self.argmin),
            "converged": self.converged,
        }


#: The identity and the Pauli matrices sigma_x, sigma_y, sigma_z.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

#: Row ijk holds the entries of (sigma_i (x) sigma_j (x) sigma_k)^T / 8, so
#: that this map takes a flattened 8x8 matrix C to its Pauli tensor
#: T_ijk = tr(C sigma_i (x) sigma_j (x) sigma_k) / 8, real when C is Hermitian.
#: Its real and imaginary parts are kept apart, transposed, for ``_pauli_tensor``.
_PAULI_MAP = np.einsum("iad,jbe,kcf->ijkdefabc", _PAULI, _PAULI, _PAULI).reshape(64, 64) / 8.0
_PAULI_RE = np.ascontiguousarray(_PAULI_MAP.real.T)
_PAULI_IM = np.ascontiguousarray(_PAULI_MAP.imag.T)


def _pauli_tensor(c8: np.ndarray) -> np.ndarray:
    """The real Pauli tensors T (..., 4, 4, 4) of a Hermitian 8x8 matrix C or
    of a stack (..., 8, 8) of them.  With each unit factor's projector
    written (I + n.sigma) / 2 and its Bloch 4-vector a = (1, n), the form of
    C at a product vector is the trilinear form sum_ijk T_ijk a_i b_j c_k.

    T is Re(C) Re(M) - Im(C) Im(M) for the map M, two real products: OpenBLAS
    splits a 64x64 complex matrix-vector product over its threads, and on a
    2-core host whose other core was busy that took 8 ms instead of 2 us.
    Real products of up to 64 matrices ran on one thread there.  Each row of
    M has eight nonzero entries, all +-1/8 or all +-i/8, so one of the two
    products adds only exact zeros to each entry of T.
    """
    flat = c8.reshape(-1, 64)
    return (flat.real @ _PAULI_RE - flat.imag @ _PAULI_IM).reshape(c8.shape[:-2] + (4, 4, 4))


def _bloch_vectors(f: np.ndarray) -> np.ndarray:
    """Bloch 4-vectors (1, n), shaped (..., 4, r), of unit spinors f (..., r,
    2): n = <f|sigma|f>, so that |f><f| = (I + n.sigma) / 2."""
    out = np.ones(f.shape[:-2] + (4, f.shape[-2]))
    xy = 2.0 * f[..., 0].conj() * f[..., 1]
    out[..., 1, :], out[..., 2, :] = xy.real, xy.imag
    out[..., 3, :] = np.abs(f[..., 0]) ** 2 - np.abs(f[..., 1]) ** 2
    return out


def _bloch_min(tau: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Minimize tau0 + n.tau over unit 3-vectors n, for each column of tau
    (4, ...): the minimum is tau0 - |tau| at n = -tau / |tau|, which is
    written into n (3, ...).  The see-saw and the prune probe of ``certify``
    both take their 2x2 minima from here.

    tau0 I + tau.sigma is the effective 2x2 matrix of the party; where it is
    numerically a multiple of the identity, |tau| <= 1e-14 (|tau0| + |tau|)
    of its spectral radius, every unit n is optimal and n keeps its current
    value.  Returns the minima (...).

    |tau| is the root of the summed squares where it is in [lo, hi], so they
    neither overflow nor lose accuracy to subnormals.  Other columns are
    first scaled by a power of two, exactly, to a largest entry in [0.5, 1),
    and n is taken from the scaled column, so it is a unit vector also where
    |tau| is subnormal.  Squares past 1.3e154 warn of overflow; the see-saw's
    and the probe's tau stay below 50.
    """
    r = np.sqrt(np.add.reduce(tau[1:] * tau[1:], axis=0))
    v, rv = tau[1:], r  # the direction and its length
    lo, hi = 2.0**-484, 2.0**511  # min/max as ufunc reductions: the methods cost twice as much
    if not lo <= np.minimum.reduce(r, None, initial=hi) or np.maximum.reduce(r, None, initial=lo) > hi:
        off = ~((r >= lo) & (r <= hi))
        _, e = np.frexp(np.max(np.abs(tau[1:, off]), axis=0))
        v, rv = tau[1:].copy(), r.copy()
        v[:, off] = np.ldexp(tau[1:, off], -e)
        rv[off] = np.sqrt(np.add.reduce(v[:, off] * v[:, off], axis=0))
        r[off] = np.ldexp(rv[off], e)
    np.divide(v, -rv, out=n, where=r > 1e-14 * (np.abs(tau[0]) + r))
    return tau[0] - r


def _spinors(n: np.ndarray) -> np.ndarray:
    """Unit spinors (..., 2) whose projectors are (I + n.sigma) / 2, of unit
    Bloch vectors n (3, ...): (1 + nz, nx + i ny) where nz >= 0, else
    (nx - i ny, 1 - nz), over its norm; of the two the one free of
    cancellation, whose norm, in [sqrt(2), 2], needs no hypot."""
    nx, ny, nz = n
    top = 1.0 + np.abs(nz)
    xy = nx + 1j * ny
    up = nz >= 0.0
    out = np.empty(nz.shape + (2,), dtype=complex)
    out[..., 0] = np.where(up, top, xy.conj())
    out[..., 1] = np.where(up, xy, top)
    out /= np.sqrt(top * top + nx * nx + ny * ny)[..., None]
    return out


def _seesaw(matrix, restarts: int, seed: int, max_cycles: int, moving: list | None = None):
    """Run every restart of the cyclic see-saw of one matrix as one batch.

    Minimizes <eta| C |eta> over unit product vectors eta, one party at a
    time.  Each party is held as Bloch 4-vectors (1, n), shaped (4, restart),
    and the run is on the Pauli tensor T of the matrix (see
    ``_pauli_tensor``): a party's update contracts T (4, 16) with the (16,
    restart) outer products of the other two parties' Bloch vectors into tau
    and takes ``_bloch_min``, the minimal eigenpair of its effective 2x2
    matrix.  A cycle's values are the third party's minima.

    The starting factors come from ``default_rng(seed)``; the run stops when
    no restart's value moved by ``STALL_TOL`` times the scale or more in the
    last cycle, or at ``max_cycles``.  The scale is the largest power of two
    not above the largest entry: the run is on the matrix divided by it,
    which is exact, so it neither under- nor overflows and its stall test
    does not depend on the input's scale.  Every update is an exact
    minimization, so a restart's value never rises.

    Returns the values (restart,), the unit factors (party, restart, 2) and
    the cycles run.  The number of restarts that moved in the last cycle run
    is appended to ``moving`` when one is given.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    # a run of no cycle has no value; it must not read as a minimum of +inf
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")
    if np.shape(matrix) != (8, 8):
        raise ValueError("see-saw needs an 8x8 Hermitian matrix")
    c8 = check_hermitian(matrix)
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(c8)))[1] - 1)
    c = c8 / scale
    t = _pauli_tensor(c)
    # Per party, T with that party's index first, then the other two in order.
    party_rows = [t.transpose(p).reshape(4, 16) for p in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]

    # Starting factors, drawn in the order (party, real/imaginary part,
    # restart, component), and their Bloch vectors (party, 4, restart).
    draws = np.random.default_rng(seed).standard_normal((3, 2, restarts, 2))
    v = draws[:, 0] + 1j * draws[:, 1]
    bloch = _bloch_vectors(v / np.linalg.norm(v, axis=-1, keepdims=True))
    work = np.empty((4, 4, restarts))
    tau = np.empty((4, restarts))
    values = np.full(restarts, np.inf)
    for cycles in range(1, max_cycles + 1):
        for p, (q1, q2) in enumerate(((1, 2), (0, 2), (0, 1))):
            np.multiply(bloch[q1, :, None], bloch[q2, None], out=work)
            np.matmul(party_rows[p], work.reshape(16, restarts), out=tau)
            new = _bloch_min(tau, bloch[p, 1:])
        # The first cycle's moves from infinity count, so no run stops there.
        still_moving = restarts - int(np.count_nonzero(np.abs(new - values) < STALL_TOL))
        values = new
        if still_moving == 0:
            break
    if moving is not None:
        moving.append(still_moving)
    factors = _spinors(bloch[:, 1:].swapaxes(0, 1))
    # A minimum tau0 - |tau| is a difference of sums over every entry of T,
    # good to about 1e-16 of the largest entry whatever its size; the form at
    # the factors keeps the matrix's zeros and small entries apart.  On the
    # witness curve at s = 1e12 the smallest of 200 restarts' minima is
    # -1.4e-9, past the positivity threshold -1e-9, and the smallest form at
    # their factors -2.3e-52.
    psi = tensor3(*factors)
    values = np.einsum("ri,ri->r", psi.conj() @ c, psi).real
    return values * scale, factors, cycles


def seesaw_minima(
    matrix,
    restarts: int = 200,
    seed: int = 0,
    max_cycles: int = 300,
):
    """Converged see-saw values and minimizing product vectors, one per restart
    of the batch that ``_seesaw`` runs on the matrix.

    The returned vectors v satisfy pairing(|v><v|, matrix) = value.
    """
    values, factors, _ = _seesaw(matrix, restarts, seed, max_cycles)
    return values, [ProductVector(*factors[:, k].conj()) for k in range(restarts)]


def min_product_value(
    matrix,
    restarts: int = 200,
    seed: int = 0,
    max_cycles: int = 300,
) -> SeesawResult:
    """Global see-saw minimum of the quadratic form over unit product vectors,
    from one batch of ``restarts`` restarts seeded by ``seed``.

    Each party update minimizes a linear function over its Bloch sphere in
    closed form, and a restart's value is the form at its final factors.
    The run has converged once no restart's value moved by ``STALL_TOL``
    times the largest power of two not above the matrix's largest entry, so
    the number of cycles does not depend on the matrix's scale;
    ``restarts_moving`` counts the restarts that had not stalled when the
    run stopped.

    ``argmin`` is the first restart whose value is within 32 ulps of its
    own terms of ``min_value``, so rounding-level changes do not move it.
    """
    moving = []
    values, factors, cycles = _seesaw(matrix, restarts, seed, max_cycles, moving)
    min_value = float(values.min())
    # Restarts that end at the same minimum agree only up to rounding: a value
    # is the form at a restart's factors psi, a sum of 64 products rounded
    # relative to their magnitudes, |psi|^T |C| |psi|.  So that rounding does
    # not choose the argmin, it is the first restart within 32 ulps of its
    # own terms of the minimum.  A window of the largest entry is too wide at
    # the ends of the curve, where it admits a restart whose form is 1e-8
    # above a minimum of 1e-35.
    # |psi| (8, restart) = |x| (x) |y| (x) |z|, restarts along the contiguous
    # axis: a broadcast product over the 2-vectors' own axis is ten times slower
    m = np.ascontiguousarray(np.abs(factors).swapaxes(1, 2))
    psi = (m[0][:, None, None] * m[1][None, :, None] * m[2][None, None, :]).reshape(8, -1)
    terms = np.einsum("ir,ir->r", np.abs(np.asarray(matrix)) @ psi, psi)
    k = int(np.argmax(values <= min_value + 32.0 * np.spacing(terms)))
    return SeesawResult(
        min_value=min_value,
        argmin=ProductVector(*factors[:, k].conj()),
        restarts=restarts,
        seed=seed,
        cycles=cycles,
        max_cycles=max_cycles,
        restarts_moving=moving[0],
    )


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
