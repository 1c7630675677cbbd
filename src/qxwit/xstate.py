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
            if not np.isfinite(v).all():
                raise ValueError(f"field {name} has non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def to_matrix(self) -> np.ndarray:
        return _x_matrices(self.a, self.b, self.c)

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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed X matrix JSON: {exc}") from exc
        return cls(a, b, c)


def _x_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Matrices (..., 8, 8) of stacks (..., 4) of X-matrix fields."""
    m = np.zeros(c.shape[:-1] + (8, 8), dtype=complex)
    idx = np.arange(4)
    m[..., idx, idx] = a
    m[..., idx + 4, idx + 4] = b[..., ::-1]
    m[..., idx, 7 - idx] = c
    m[..., 7 - idx, idx] = c.conj()
    return m


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
    # np.max propagates NaN, so the scale is finite only if every entry is finite
    scale = float(np.max(np.abs(z)))
    if not math.isfinite(scale):
        raise ValueError("X norm expects finite entries")
    if scale == 0.0:
        return 0.0
    if 1.0 / scale == math.inf:
        # Dividing by a scale below about 5.6e-309 multiplies by 1 / scale,
        # which overflows.  The norm is homogeneous: scaling z up by 2**600 is
        # exact, and scaling the norm back down rounds it to the subnormal grid.
        return x_norm(z * 2.0**600) * 2.0**-600
    # At unit scale, zeroing entries below 1e-20 moves the norm by under 4e-20
    # of it (it is at least max|z|) and keeps the coefficients far from
    # underflow, where np.roots' division by the leading one overflows.
    z = z / scale
    z[np.abs(z) < 1e-20] = 0.0
    try:
        return scale * _unit_x_norm(z)
    except FloatingPointError:
        # A real or imaginary part far below its entry can still leave the
        # leading coefficient, p q (p - q) up to sign, subnormal: with p - q
        # about 2e-313 the division overflows.  Zeroing the parts below 1e-20
        # as well moves the norm by under 4e-20 of it, and every nonzero
        # coefficient then stays far from underflow.  Inputs whose division
        # does not overflow never come here, so their norm keeps its bits.
        z.real[np.abs(z.real) < 1e-20] = 0.0
        z.imag[np.abs(z.imag) < 1e-20] = 0.0
        return scale * _unit_x_norm(z)


def _unit_x_norm(z: np.ndarray) -> float:
    """``x_norm`` of a complex 4-vector at unit scale; raises
    FloatingPointError where np.roots' division by the leading coefficient
    overflows."""
    # Python complex arithmetic rounds like numpy's scalars, at less cost.
    z1, z2, z3, z4 = z.tolist()
    p, q = z1 * z4, z2 * z3
    a = abs(z1) ** 2 + abs(z4) ** 2
    b = abs(z2) ** 2 + abs(z3) ** 2
    # on |e| = 1, -4 Im(p e)^2 = p^2 e^2 - 2|p|^2 + conj(p)^2 e^-2 and
    # A + 2 Re(p e) = p e + A + conj(p) e^-1; the same for q and B
    pp, qq = p * p, q * q
    poly = np.convolve([pp, 0, -2 * abs(p) ** 2, 0, pp.conjugate()], [q, b, q.conjugate()])
    poly -= np.convolve([qq, 0, -2 * abs(q) ** 2, 0, qq.conjugate()], [p, a, p.conjugate()])
    with np.errstate(over="raise", invalid="raise"):
        roots = np.roots(poly)
    phases = np.angle(np.concatenate([roots, [1.0, p, q]]))
    phases[-2:] *= -1.0
    e = np.exp(1j * phases)
    return float(np.max(abs(z1 * e + z4.conjugate()) + abs(z2 * e + z3.conjugate())))


def _block_positivity(x4: float, y4: float, norm: float) -> tuple:
    """(block positive, equality) for nonnegative weights x4, y4 and the X
    norm of the anti-diagonal, both with tolerances relative to the norm.
    A norm that overflowed to inf raises ValueError: its slack would be inf
    as well, and every pair of weights would pass.  sqrt(x4) sqrt(y4) stays
    finite and nonzero where the product x4 y4 would over- or underflow."""
    if not math.isfinite(norm):
        raise ValueError("block positivity needs a finite X norm, and the anti-diagonal's overflows")
    gap = math.sqrt(x4) * math.sqrt(y4) - norm
    return (
        gap >= -BLOCK_POSITIVITY_SLACK * norm,
        abs(gap) <= BLOCK_POSITIVITY_EQUALITY_TOL * norm,
    )


def is_block_positive_xwitness(x4: float, y4: float, z) -> bool:
    """Block positivity of X((0,0,0,x4), (0,0,0,y4), z): sqrt(x4 y4) >= ||z||_X."""
    if not (math.isfinite(x4) and math.isfinite(y4)):
        raise ValueError("diagonal witness weights must be finite")
    if x4 < 0 or y4 < 0:
        raise ValueError("diagonal witness weights must be nonnegative")
    return _block_positivity(x4, y4, x_norm(z))[0]


@dataclass(frozen=True)
class SeparabilityVerdict:
    """What ``rank4_separability_check`` decided, and the conditions of the
    criterion that failed, as text, empty when it holds."""

    separable: bool
    violated: tuple


#: The sixteen pair conditions a_i b_i = |c_j|^2, row i and column j.
_PAIR_CONDITIONS = np.array(
    [[f"a{i+1}*b{i+1} != |c{j+1}|^2" for j in range(4)] for i in range(4)]
)


def rank4_separability_check(x: XMatrix) -> SeparabilityVerdict:
    """Criterion for a non-diagonal X matrix to be a rank-four separable state.

    Requires a_i b_i = |c_j|^2 for every pair (i, j), a1 a4 = a2 a3 and
    c1 c4 = c2 c3.  The input is rescaled so that max a_i b_i = 1 before the
    comparisons, which makes ``SEPARABILITY_TOL`` effectively relative.
    """
    a, b, c = x.a, x.b, x.c
    if not c.any():
        raise ValueError(
            "criterion applies to non-diagonal X matrices; all anti-diagonal entries are zero"
        )
    if (a <= 0.0).any() or (b <= 0.0).any():
        raise ValueError("criterion requires strictly positive diagonal entries")
    # Python floats: they round like numpy's, and a product that over- or
    # underflows gives inf or 0 without a warning
    al, bl = a.tolist(), b.tolist()
    scale = math.sqrt(max(p * q for p, q in zip(al, bl)))
    top = max(map(abs, (*al, *bl, *c.real.tolist(), *c.imag.tolist())))
    if not (scale < math.inf and top < _RANK4_RANGE * scale):
        return _rank4_exact(a, b, c)
    an, bn, cn = a / scale, b / scale, c / scale
    pairs = np.abs((an * bn)[:, None] - (np.abs(cn) ** 2)[None, :]) > SEPARABILITY_TOL
    violated = _PAIR_CONDITIONS[pairs].tolist()
    # Python scalars round like numpy's
    a1, a2, a3, a4 = an.tolist()
    c1, c2, c3, c4 = cn.tolist()
    if abs(a1 * a4 - a2 * a3) > SEPARABILITY_TOL:
        violated.append("a1*a4 != a2*a3")
    if abs(c1 * c4 - c2 * c3) > SEPARABILITY_TOL:
        violated.append("c1*c4 != c2*c3")
    return SeparabilityVerdict(separable=not violated, violated=tuple(violated))


#: The floating-point criterion runs while every entry is below this many
#: times sqrt(max a_i b_i): then each product of two scaled entries, and each
#: sum of two such products, stays below 2**1022.
_RANK4_RANGE = 2.0**510


def _rank4_exact(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> SeparabilityVerdict:
    """``rank4_separability_check``'s conditions in exact rational
    arithmetic, for entries whose scaled squares or products would leave the
    double range: a_i b_i, |c_j|^2, a1 a4 - a2 a3 and c1 c4 - c2 c3 over the
    largest a_i b_i, each against ``SEPARABILITY_TOL``."""
    # imported here, off the common path: fractions imports decimal, a few
    # milliseconds of every process's start
    from fractions import Fraction

    fa, fb = ([Fraction(v) for v in part.tolist()] for part in (a, b))
    fc = [(Fraction(z.real), Fraction(z.imag)) for z in c.tolist()]
    tol = Fraction(SEPARABILITY_TOL) * max(p * q for p, q in zip(fa, fb))
    names = _PAIR_CONDITIONS.tolist()
    violated = [
        names[i][j] for i, (p, q) in enumerate(zip(fa, fb))
        for j, (re, im) in enumerate(fc) if abs(p * q - (re * re + im * im)) > tol
    ]
    if abs(fa[0] * fa[3] - fa[1] * fa[2]) > tol:
        violated.append("a1*a4 != a2*a3")
    # c1 c4 - c2 c3, and its modulus squared
    (r1, i1), (r2, i2), (r3, i3), (r4, i4) = fc
    re, im = r1 * r4 - i1 * i4 - r2 * r3 + i2 * i3, r1 * i4 + i1 * r4 - r2 * i3 - i2 * r3
    if re * re + im * im > tol * tol:
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
    """Unimodular square root of a unimodular number with argument in [0, pi).

    A half-angle above -1e-13 is rounding of 0 (the argument is rounded to a
    few 1e-16) and counts as 0, so a square of 1 computed as 1 - 1e-16i does
    not give a root at the far end, pi.
    """
    half = np.angle(sq) / 2.0
    if half < -1e-13:
        half += np.pi
    half = max(half, 0.0)
    return complex(np.cos(half), np.sin(half))


@dataclass(frozen=True)
class Reconstruction:
    """The product vector v of ``reconstruct_product_vector`` and the scale r
    with r X = xpart(|v><v|)."""

    vector: ProductVector
    scale: float


def reconstruct_product_vector(x: XMatrix) -> Reconstruction:
    """Product vector v = (p1, q1) (x) (p2, q2) (x) (p3, q3) with scale r such
    that r * X equals xpart(|v><v|).

    Moduli come from the diagonal system (p1^2 = a4/b1, p2^2 = b3/b1,
    p3^2 = b2/b1, r = 1/b1); phases come from the anti-diagonal entries.  The
    remaining sign ambiguities are fixed by choosing arg q1 and arg q2 in
    [0, pi).
    """
    verdict = rank4_separability_check(x)
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
    a, b, c = x.a, x.b, x.c
    # From 2**1022 on, a - b or |c| may overflow; a quarter of every entry
    # then gives the same verdict, losing bits only far below the tolerance
    if max(map(abs, (*a.tolist(), *b.tolist(), *c.real.tolist(), *c.imag.tolist()))) >= 2.0**1022:
        a, b, c = a / 4.0, b / 4.0, c / 4.0
    tol = GHZ_TOL * max(np.max(np.abs(a)), np.max(np.abs(b)), np.max(np.abs(c)))
    return bool(np.max(np.abs(a - b)) <= tol and np.max(np.abs(c.imag)) <= tol)
