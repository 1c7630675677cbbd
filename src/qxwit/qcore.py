"""Dense complex linear algebra for up to three qubits.

Conventions used throughout the package: tensor components are ordered
party 1, party 2, party 3, and composite indices follow the lexicographic
order 000, 001, 010, 011, 100, 101, 110, 111 with the party-1 bit most
significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


def _field_dict(record, *skip) -> dict:
    """A dataclass's public fields by name, in declaration order, less those in skip."""
    names = [f.name for f in fields(record) if f.name not in skip and not f.name.startswith("_")]
    return {name: getattr(record, name) for name in names}


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


#: Row and column gather indices (mask, 8, 8) of the partial transposes:
#: transposing a party swaps its row and column bit.
_ROW, _COL = np.indices((8, 8))
_SWAP = (_ROW ^ _COL) & np.arange(8)[:, None, None]
_PT_ROWS, _PT_COLS = _ROW ^ _SWAP, _COL ^ _SWAP


def partial_transpose(m, parties) -> np.ndarray:
    """Transpose the tensor factors named in ``parties`` of an 8x8 matrix.

    Implemented as an index swap on the affected bit positions, so it acts
    factor-wise on elementary tensors and extends linearly.
    """
    m = _square(m)
    if m.shape != (8, 8):
        raise ValueError(f"partial transpose needs an 8x8 matrix, got {m.shape}")
    mask = subset_mask(parties)
    return m[_PT_ROWS[mask], _PT_COLS[mask]]


def partial_conjugate(v: ProductVector, parties) -> ProductVector:
    """Conjugate exactly the tensor factors named in ``parties``."""
    factors = list(v.factors())
    for p in set(parties):
        if p not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {p!r}")
        factors[p - 1] = factors[p - 1].conj()
    return ProductVector(*factors)


def _defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def check_hermitian(m) -> np.ndarray:
    m = _square(m)
    # NaN fails every comparison, so the defect test alone would pass it;
    # testing the scale first also keeps inf - inf out of the defect.
    scale = float(np.max(np.abs(m)))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    defect = _defect(m)
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {HERMITICITY_TOL:.0e} "
            f"of the largest entry {scale:.3e}"
        )
    return m


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
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ValueError(f"matrix JSON dim must be an integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix arrays must both be {dim}x{dim}, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix JSON has non-finite entries")
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed product vector JSON: {exc}") from exc
        if re.shape != (2,) or im.shape != (2,):
            raise ValueError(f"factor {name} must have two components")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError(f"factor {name} has non-finite entries")
        factors.append(re + 1j * im)
    return ProductVector(*factors)
