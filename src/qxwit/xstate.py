"""X-shaped three-qubit matrices: X norm, block positivity of X witnesses,
rank-four separability, product-vector decomposition and reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import HERMITICITY_TOL, ProductVector, _square

#: Relative tolerance on the rank-four separability conditions.
SEPARABILITY_TOL = 1e-9
# Both sides of the block-positivity inequality sqrt(x4 y4) >= ||z||_X scale
# linearly when (x4, y4, z) is scaled, so its tolerances are fractions of the
# norm and the verdicts do not depend on the scale.  The computed norm is off
# by a relative error only: a few ulps of rounding in the two moduli, plus the
# error of the maximising phase.  np.roots is backward stable, so that phase
# is off by O(eps), or O(sqrt(eps)) at a double root, and the objective, flat
# to first order there, by the square of it.  Both lie many orders below 1e-9.
#: Relative slack allowed in the block-positivity inequality.
BLOCK_POSITIVITY_SLACK = 1e-9
#: Relative tolerance for reporting equality sqrt(x4 y4) = ||z||_X.
BLOCK_POSITIVITY_EQUALITY_TOL = 1e-8
# The bound ||z||_X >= ||z||_1 / sqrt(2) is homogeneous in z as well, so its
# tolerances are the same fractions, taken of the bound.
#: Relative slack allowed in the X-norm lower bound.
X_NORM_BOUND_SLACK = 1e-9
#: Relative tolerance for reporting equality in the X-norm lower bound.
X_NORM_BOUND_EQUALITY_TOL = 1e-8
#: Tolerance of the GHZ-diagonal test, relative to the largest entry modulus.
GHZ_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class XMatrix:
    """Matrix supported on the diagonal and anti-diagonal.

    ``a`` holds the top half of the diagonal (indices 000..011), ``b`` the
    bottom half read upwards (b1 sits at index 111, b4 at 100), and ``c`` the
    upper anti-diagonal entries c1..c4.  The full matrix is Hermitian by
    construction: the lower anti-diagonal carries conj(c).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=complex)
        for name, v in (("a", a), ("b", b), ("c", c)):
            if v.shape != (4,):
                raise ValueError(f"field {name} must be a 4-vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((8, 8), dtype=complex)
        idx = np.arange(4)
        m[idx, idx] = self.a
        m[idx + 4, idx + 4] = self.b[::-1]
        m[idx, 7 - idx] = self.c
        m[7 - idx, idx] = self.c.conj()
        return m

    def to_json(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "c_re": self.c.real.tolist(),
            "c_im": self.c.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "XMatrix":
        if not isinstance(obj, dict):
            raise ValueError("X matrix JSON must be an object")
        try:
            a = np.asarray(obj["a"], dtype=float)
            b = np.asarray(obj["b"], dtype=float)
            c = np.asarray(obj["c_re"], dtype=float) + 1j * np.asarray(
                obj["c_im"], dtype=float
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed X matrix JSON: {exc}") from exc
        return cls(a, b, c)


def xpart(m) -> XMatrix:
    """Project an 8x8 matrix onto its diagonal and anti-diagonal entries.

    Raises when a diagonal entry has an imaginary part beyond the Hermiticity
    tolerance, since the extracted a and b vectors are real by definition.
    """
    m = _square(m)
    if m.shape != (8, 8):
        raise ValueError(f"X-part extraction needs an 8x8 matrix, got {m.shape}")
    diag = np.diagonal(m)
    worst = float(np.max(np.abs(diag.imag)))
    # relative to the largest entry, as in check_hermitian: fused complex
    # multiplies can leave |entry| * eps imaginary residue on real products
    if worst > HERMITICITY_TOL * float(np.max(np.abs(m))):
        raise ValueError(
            f"diagonal entries must be real, found imaginary part {worst:.3e}"
        )
    a = diag.real[:4].copy()
    b = diag.real[[7, 6, 5, 4]].copy()
    c = np.array([m[0, 7], m[1, 6], m[2, 5], m[3, 4]])
    return XMatrix(a, b, c)


def _x_norm_objective(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.abs(z[0] * e + np.conj(z[3])) + np.abs(z[1] * e + np.conj(z[2]))


def x_norm(z) -> float:
    """Max over a unimodular phase e of |z1 e + conj(z4)| + |z2 e + conj(z3)|.

    With p = z1 z4, q = z2 z3, A = |z1|^2 + |z4|^2 and B = |z2|^2 + |z3|^2 the
    objective is sqrt(A + 2 Re(p e)) + sqrt(B + 2 Re(q e)), and its stationary
    phases solve Im(p e)^2 (B + 2 Re(q e)) = Im(q e)^2 (A + 2 Re(p e)).  Times
    -4 e^3 that is a degree-6 polynomial in e; the norm is the objective's largest
    value at its roots, moved onto the unit circle.  The maximum is never at a
    kink, where one term vanishes: that is a V-shaped minimum of the term, and
    the other term's finite slope cannot make it a maximum of the sum.  The
    phases e = 1, conj(p)/|p| and conj(q)/|q| (each term's maximum) are also
    tried; they decide the cases where the polynomial vanishes identically,
    such as a constant term.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (4,):
        raise ValueError("X norm expects a complex 4-vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("X norm expects finite entries")
    scale = float(np.max(np.abs(z)))
    if scale == 0.0:
        return 0.0
    # At unit scale, zeroing entries below 1e-20 moves the norm by under 4e-20
    # of it (it is at least max|z|) and keeps the coefficients far from
    # underflow, where np.roots' division by the leading one overflows.
    z = z / scale
    z[np.abs(z) < 1e-20] = 0.0
    p, q = z[0] * z[3], z[1] * z[2]
    a = abs(z[0]) ** 2 + abs(z[3]) ** 2
    b = abs(z[1]) ** 2 + abs(z[2]) ** 2
    # on |e| = 1, -4 Im(p e)^2 = p^2 e^2 - 2|p|^2 + conj(p)^2 e^-2 and
    # A + 2 Re(p e) = p e + A + conj(p) e^-1; the same for q and B
    poly = np.convolve([p * p, 0, -2 * abs(p) ** 2, 0, np.conj(p * p)], [q, b, np.conj(q)])
    poly -= np.convolve([q * q, 0, -2 * abs(q) ** 2, 0, np.conj(q * q)], [p, a, np.conj(p)])
    phases = np.concatenate([np.angle(np.roots(poly)), [0.0, -np.angle(p), -np.angle(q)]])
    return scale * float(np.max(_x_norm_objective(z, np.exp(1j * phases))))


@dataclass(frozen=True)
class XNormBound:
    """Outcome of the lower-bound check norm >= one_norm / sqrt(2)."""

    holds: bool
    equality: bool
    phase_gap: float
    norm: float
    one_norm: float


def x_norm_lower_bound_check(z) -> XNormBound:
    """Check the bound ||z||_X >= ||z||_1 / sqrt(2) and report the equality data.

    ``phase_gap`` is (arg z1 + arg z4) - (arg z2 + arg z3) reduced mod 2 pi;
    equality of the bound requires a common entry magnitude and a gap of pi.
    """
    z = np.asarray(z, dtype=complex)
    nx = x_norm(z)
    n1 = float(np.sum(np.abs(z)))
    lower = n1 / math.sqrt(2.0)
    gap = float(
        (np.angle(z[0]) + np.angle(z[3]) - np.angle(z[1]) - np.angle(z[2]))
        % (2.0 * np.pi)
    )
    return XNormBound(
        holds=nx - lower >= -X_NORM_BOUND_SLACK * lower,
        equality=abs(nx - lower) <= X_NORM_BOUND_EQUALITY_TOL * lower,
        phase_gap=gap,
        norm=nx,
        one_norm=n1,
    )


def _block_positivity(x4: float, y4: float, norm: float) -> tuple:
    """(block positive, equality) for nonnegative weights x4, y4 and the X
    norm of the anti-diagonal, both with tolerances relative to the norm."""
    gap = math.sqrt(x4 * y4) - norm
    return (
        gap >= -BLOCK_POSITIVITY_SLACK * norm,
        abs(gap) <= BLOCK_POSITIVITY_EQUALITY_TOL * norm,
    )


def is_block_positive_xwitness(x4: float, y4: float, z) -> bool:
    """Block positivity of X((0,0,0,x4), (0,0,0,y4), z): sqrt(x4 y4) >= ||z||_X."""
    if x4 < 0 or y4 < 0:
        raise ValueError("diagonal witness weights must be nonnegative")
    return _block_positivity(x4, y4, x_norm(z))[0]


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    violated: tuple


def rank4_separability_check(x: XMatrix, tol: float = SEPARABILITY_TOL) -> SeparabilityVerdict:
    """Criterion for a non-diagonal X matrix to be a rank-four separable state.

    Requires a_i b_i = |c_j|^2 for every pair (i, j), a1 a4 = a2 a3 and
    c1 c4 = c2 c3.  The input is rescaled so that max a_i b_i = 1 before the
    comparisons, which makes the stated tolerance effectively relative.
    """
    a, b, c = x.a, x.b, x.c
    if float(np.max(np.abs(c))) == 0.0:
        raise ValueError(
            "criterion applies to non-diagonal X matrices; all anti-diagonal entries are zero"
        )
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("criterion requires strictly positive diagonal entries")
    scale = math.sqrt(float(np.max(a * b)))
    an, bn, cn = a / scale, b / scale, c / scale
    violated = []
    prods = an * bn
    mags = np.abs(cn) ** 2
    for i in range(4):
        for j in range(4):
            if abs(prods[i] - mags[j]) > tol:
                violated.append(f"a{i+1}*b{i+1} != |c{j+1}|^2")
    if abs(an[0] * an[3] - an[1] * an[2]) > tol:
        violated.append("a1*a4 != a2*a3")
    if abs(cn[0] * cn[3] - cn[1] * cn[2]) > tol:
        violated.append("c1*c4 != c2*c3")
    return SeparabilityVerdict(separable=not violated, violated=tuple(violated))


_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def xpart_decompose(v: ProductVector) -> list:
    """Four product vectors whose projector average equals xpart(|v><v|).

    The factors of v must have no zero entry.  The four vectors flip the sign
    of the second component of each factor following the patterns (+,+,+),
    (+,-,-), (-,+,-), (-,-,+).
    """
    if any(np.any(np.abs(f) == 0.0) for f in v.factors()):
        raise ValueError("decomposition requires a product vector with no zero entry")
    out = []
    for sx, sy, sz in _SIGN_PATTERNS:
        out.append(
            ProductVector(
                np.array([v.x[0], sx * v.x[1]]),
                np.array([v.y[0], sy * v.y[1]]),
                np.array([v.z[0], sz * v.z[1]]),
            )
        )
    return out


def _half_phase(sq: complex) -> complex:
    """Unimodular square root of a unimodular number with argument in [0, pi)."""
    half = np.angle(sq) / 2.0
    if half < 0.0:
        half += np.pi
    return complex(np.cos(half), np.sin(half))


@dataclass(frozen=True)
class Reconstruction:
    vector: ProductVector
    scale: float


def reconstruct_product_vector(x: XMatrix, tol: float = SEPARABILITY_TOL) -> Reconstruction:
    """Product vector v = (p1, q1) (x) (p2, q2) (x) (p3, q3) with scale r such
    that r * X equals xpart(|v><v|).

    Moduli come from the diagonal system (p1^2 = a4/b1, p2^2 = b3/b1,
    p3^2 = b2/b1, r = 1/b1); phases come from the anti-diagonal entries.  The
    remaining sign ambiguities are fixed by choosing arg q1 and arg q2 in
    [0, pi).
    """
    verdict = rank4_separability_check(x, tol)
    if not verdict.separable:
        if "c1*c4 != c2*c3" in verdict.violated:
            raise ValueError("inconsistent phase system: c1*c4 != c2*c3")
        raise ValueError(
            f"not a rank-four separable X matrix: {', '.join(verdict.violated)}"
        )
    a, b, c = x.a, x.b, x.c
    r = 1.0 / b[0]
    p = np.sqrt(np.array([a[3], b[2], b[1]]) / b[0])
    pp = float(p[0] * p[1] * p[2])
    w = c / (pp * b[0])
    w = w / np.abs(w)
    q1 = _half_phase((w[0] * w[3]).conjugate())
    q2 = _half_phase((w[0] * w[1]).conjugate() * q1.conjugate() ** 2)
    q3 = w[1] * q1 * q2
    vector = ProductVector(
        np.array([p[0], q1]), np.array([p[1], q2]), np.array([p[2], q3])
    )
    return Reconstruction(vector=vector, scale=r)


def is_ghz_diagonal(x: XMatrix) -> bool:
    """True when a = b entrywise and c is real, i.e. diagonal in the GHZ basis.

    Both tests are relative to the largest entry modulus, so the verdict does
    not depend on the scale; the zero matrix is GHZ diagonal.
    """
    tol = GHZ_TOL * max(np.max(np.abs(x.a)), np.max(np.abs(x.b)), np.max(np.abs(x.c)))
    return bool(np.max(np.abs(x.a - x.b)) <= tol and np.max(np.abs(x.c.imag)) <= tol)
