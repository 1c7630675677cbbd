"""Dense complex linear algebra for up to three qubits.

Conventions used throughout the package: tensor components are ordered
party 1, party 2, party 3, and composite indices follow the lexicographic
order 000, 001, 010, 011, 100, 101, 110, 111 with the party-1 bit most
significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Maximum allowed deviation from Hermitian symmetry, as a fraction of the
#: largest entry modulus: a matrix computed in floating point carries an
#: asymmetry proportional to its entries.  The zero matrix passes.
HERMITICITY_TOL = 1e-12
#: A Hermitian matrix counts as positive semidefinite down to this eigenvalue.
PSD_TOL = 1e-10

PARTIES = (1, 2, 3)

#: All eight party subsets, ordered by bit mask (party p occupies bit 3 - p,
#: so the mask of a subset equals the index of the tuple in this listing).
SUBSETS = ((), (3,), (2,), (2, 3), (1,), (1, 3), (1, 2), (1, 2, 3))


def subset_mask(parties) -> int:
    """3-bit mask of a subset of {1, 2, 3}; party 1 is the high bit."""
    mask = 0
    for p in parties:
        if p not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {p!r}")
        mask |= 1 << (3 - p)
    return mask


def _square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of square matrices, capped at total dimension 8."""
    a = _square(a, "left factor")
    b = _square(b, "right factor")
    if a.shape[0] * b.shape[0] > 8:
        raise ValueError(
            f"dimension overflow: {a.shape[0]} x {b.shape[0]} exceeds 8"
        )
    return np.kron(a, b)


def tensor3(x, y, z) -> np.ndarray:
    """8-vectors x (x) y (x) z of stacks of 2-vectors (last axis); component
    [..., 4i+2j+k] equals (x[..., i] y[..., j]) z[..., k]."""
    x, y, z = (np.asarray(f, dtype=complex) for f in (x, y, z))
    xyz = x[..., :, None, None] * y[..., None, :, None] * z[..., None, None, :]
    return xyz.reshape(xyz.shape[:-3] + (8,))


@dataclass(frozen=True, eq=False)
class ProductVector:
    """Ordered triple of complex 2-vectors with the induced 8-vector."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = np.asarray(getattr(self, name), dtype=complex)
            if v.shape != (2,):
                raise ValueError(f"factor {name} must be a complex 2-vector")
            object.__setattr__(self, name, v)

    @property
    def full(self) -> np.ndarray:
        return tensor3(self.x, self.y, self.z)

    def factors(self):
        return (self.x, self.y, self.z)

    def projector(self) -> np.ndarray:
        """Rank-one matrix |v><v| of the full 8-vector."""
        f = self.full
        return np.outer(f, f.conj())

    def unit(self) -> "ProductVector":
        """Same ray with every factor normalized to unit length."""
        return ProductVector(
            self.x / np.linalg.norm(self.x),
            self.y / np.linalg.norm(self.y),
            self.z / np.linalg.norm(self.z),
        )

    def conj(self) -> "ProductVector":
        return ProductVector(self.x.conj(), self.y.conj(), self.z.conj())


def partial_transpose(m, parties) -> np.ndarray:
    """Transpose the tensor factors named in ``parties`` of an 8x8 matrix.

    Implemented as an index swap on the affected bit positions, so it acts
    factor-wise on elementary tensors and extends linearly.
    """
    m = _square(m)
    if m.shape != (8, 8):
        raise ValueError(f"partial transpose needs an 8x8 matrix, got {m.shape}")
    t = m.reshape((2,) * 6)
    for p in set(parties):
        if p not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {p!r}")
        t = np.swapaxes(t, p - 1, p + 2)
    return np.ascontiguousarray(t.reshape(8, 8))


def partial_conjugate(v: ProductVector, parties) -> ProductVector:
    """Conjugate exactly the tensor factors named in ``parties``."""
    factors = list(v.factors())
    for p in set(parties):
        if p not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {p!r}")
        factors[p - 1] = factors[p - 1].conj()
    return ProductVector(*factors)


def hermiticity_defect(m) -> float:
    """Largest entry modulus of m - m^dagger."""
    m = _square(m)
    return float(np.max(np.abs(m - m.conj().T)))


def check_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = _square(m)
    # NaN fails every comparison, so the defect test alone would pass it;
    # testing the scale first also keeps inf - inf out of the defect.
    scale = float(np.max(np.abs(m)))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {tol:.0e} "
            f"of the largest entry {scale:.3e}"
        )
    return m


def _check_hermitian_stack(ms: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """``check_hermitian`` on every matrix of a stack (k, n, n), in one pass."""
    scale = np.max(np.abs(ms), axis=(1, 2), initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    defect = np.max(np.abs(ms - ms.conj().swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    for k in np.flatnonzero(defect > tol * scale):
        check_hermitian(ms[k], tol)  # the same test, so it raises, with its message
    return ms


def herm_min_eig(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = check_hermitian(m)
    return float(np.linalg.eigvalsh(m)[0])


def matrix_to_json(m) -> dict:
    """Serialize a square complex matrix as {"dim", "re", "im"}."""
    m = _square(m)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """Parse the {"dim", "re", "im"} matrix format, rejecting shape mismatches."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix arrays must both be {dim}x{dim}, got {re.shape} and {im.shape}"
        )
    return re + 1j * im


def product_vector_to_json(v: ProductVector) -> dict:
    out = {}
    for name, f in zip(("x", "y", "z"), v.factors()):
        out[f"{name}_re"] = f.real.tolist()
        out[f"{name}_im"] = f.imag.tolist()
    return out


def product_vector_from_json(obj) -> ProductVector:
    if not isinstance(obj, dict):
        raise ValueError("product vector JSON must be an object")
    factors = []
    for name in ("x", "y", "z"):
        try:
            re = np.asarray(obj[f"{name}_re"], dtype=float)
            im = np.asarray(obj[f"{name}_im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed product vector JSON: {exc}") from exc
        if re.shape != (2,) or im.shape != (2,):
            raise ValueError(f"factor {name} must have two components")
        factors.append(re + 1j * im)
    return ProductVector(*factors)
