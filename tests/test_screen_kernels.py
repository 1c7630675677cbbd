"""The screen kernels, each pinned bit for bit to the code it replaced:
``kernel_classify``, ``x_norm``, ``rank4_separability_check`` and
``certify._pt_stack``.

The reference copies below are the earlier implementations, kept verbatim
(bar their names): per-vector numpy scalar arithmetic, separate numpy
calls per phase and a Python loop over the sixteen pair conditions.  The
rewrites must return the same bytes wherever a reference returns a result,
so each comparison is of ``tobytes`` or of exact Python values, never
approximate.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import (
    SUBSETS,
    ProductVector,
    WitnessFamily,
    XMatrix,
    dual_state,
    kernel_classify,
    kernel_vector,
    partial_transpose,
    rank4_separability_check,
    x_norm,
)
from qxwit.certify import ClassifyResult, _pt_stack
from qxwit.witness import (
    ETA_TAGS,
    FAMILY_TAGS,
    PV1_TAGS,
    ZETA_TAGS,
    _PV1_SLOTS,
    _family_factors,
)
from qxwit.xstate import SEPARABILITY_TOL, SeparabilityVerdict

# --- reference copies -------------------------------------------------------


def _reference_classify(w: WitnessFamily, v: ProductVector, tol: float = 1e-6) -> ClassifyResult:
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


def _x_norm_objective(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.abs(z[0] * e + np.conj(z[3])) + np.abs(z[1] * e + np.conj(z[2]))


def _reference_x_norm(z) -> float:
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


def _reference_rank4(x: XMatrix) -> SeparabilityVerdict:
    """Criterion for a non-diagonal X matrix to be a rank-four separable state.

    Requires a_i b_i = |c_j|^2 for every pair (i, j), a1 a4 = a2 a3 and
    c1 c4 = c2 c3.  The input is rescaled so that max a_i b_i = 1 before the
    comparisons, which makes ``SEPARABILITY_TOL`` effectively relative.
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
            if abs(prods[i] - mags[j]) > SEPARABILITY_TOL:
                violated.append(f"a{i+1}*b{i+1} != |c{j+1}|^2")
    if abs(an[0] * an[3] - an[1] * an[2]) > SEPARABILITY_TOL:
        violated.append("a1*a4 != a2*a3")
    if abs(cn[0] * cn[3] - cn[1] * cn[2]) > SEPARABILITY_TOL:
        violated.append("c1*c4 != c2*c3")
    return SeparabilityVerdict(separable=not violated, violated=tuple(violated))


# --- comparisons ----------------------------------------------------------------


def _bits(value) -> tuple:
    """Exact identity of a float, a tuple of numbers or None: dtype and bytes."""
    if value is None:
        return (None,)
    arr = np.asarray(value)
    types = tuple(type(v) for v in value) if isinstance(value, tuple) else type(value)
    return arr.dtype.str, arr.tobytes(), types


def assert_same_classification(got: ClassifyResult, want: ClassifyResult) -> None:
    assert got.family == want.family
    assert _bits(got.params) == _bits(want.params)
    assert _bits(got.residual) == _bits(want.residual)
    assert got.to_json_dict() == want.to_json_dict()


LOG_S = st.floats(math.log(0.5), math.log(16.0))
PHASE = st.floats(0.0, 2.0 * math.pi)
LOG_SCALE = st.floats(-20.0, 20.0)
ENTRY = st.floats(-3.0, 3.0)
TOL = st.sampled_from([1e-6, 1e-12, 1e-3])


def _curve(log_s: float) -> WitnessFamily:
    s = math.exp(log_s)
    return WitnessFamily(s, 8.0 / s)


def _rescaled(factors, phases, log_scales) -> ProductVector:
    """The product vector with a phase and a scale applied to every party."""
    return ProductVector(
        *(f * math.exp(k) * complex(math.cos(a), math.sin(a)) for f, a, k in zip(factors, phases, log_scales))
    )


def _classify_both(w, v, tol) -> ClassifyResult:
    got = kernel_classify(w, v, tol)
    assert_same_classification(got, _reference_classify(w, v, tol))
    return got


class TestClassifyBitForBit:
    """Family, parameters and residual bytes equal the reference's."""

    @settings(max_examples=150, deadline=None)
    @given(
        LOG_S,
        st.sampled_from(FAMILY_TAGS),
        st.lists(ENTRY, min_size=4, max_size=4),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        st.tuples(PHASE, PHASE, PHASE),
        st.tuples(LOG_SCALE, LOG_SCALE, LOG_SCALE),
        TOL,
    )
    def test_hits_with_phase_and_scale_on_every_party(
        self, log_s, tag, flat, log_ab, phases, log_scales, tol
    ):
        w = _curve(log_s)
        if tag in PV1_TAGS:
            params = np.array([flat[0] + 1j * flat[1], flat[2] + 1j * flat[3]])
            # no member at a parameter whose squared norm is zero or underflows
            if not np.vecdot(params, params).real > 0.0:
                params[0] = 1.0
        else:
            params = tuple(math.exp(k) for k in log_ab)
        v = _rescaled(kernel_vector(w, tag, params).factors(), phases, log_scales)
        _classify_both(w, v, tol)

    @settings(max_examples=150, deadline=None)
    @given(LOG_S, st.lists(ENTRY, min_size=12, max_size=12), TOL)
    def test_misses(self, log_s, parts, tol):
        f = np.array(parts[:6]) + 1j * np.array(parts[6:])
        _classify_both(_curve(log_s), ProductVector(*f.reshape(3, 2)), tol)

    @pytest.mark.parametrize("tag", PV1_TAGS)
    @pytest.mark.parametrize("endpoint", [0, 1])
    @pytest.mark.parametrize("s", [0.5, 2 * math.sqrt(2.0), 16.0])
    def test_basis_endpoints_where_flat_families_tie(self, tag, endpoint, s):
        # every factor is a basis ket, so several flat families fit exactly
        w = WitnessFamily(s, 8.0 / s)
        v = kernel_vector(w, tag, np.eye(2)[endpoint])
        result = _classify_both(w, v, 1e-6)
        assert result.family is not None and result.residual == 0.0
        _classify_both(w, _rescaled(v.factors(), (0.3, 2.0, 4.0), (-3.0, 0.5, 7.0)), 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(
        LOG_S,
        st.lists(ENTRY, min_size=12, max_size=12),
        st.integers(0, 5),
        st.booleans(),
        st.tuples(LOG_SCALE, LOG_SCALE, LOG_SCALE),
    )
    def test_factors_with_a_zero_entry(self, log_s, parts, entry, whole_factor, log_scales):
        f = (np.array(parts[:6]) + 1j * np.array(parts[6:])).reshape(3, 2)
        f[entry // 2, entry % 2] = 0.0
        if whole_factor:
            f[entry // 2] = 0.0
        v = _rescaled(f, (0.0, 0.0, 0.0), log_scales)
        result = _classify_both(_curve(log_s), v, 1e-6)
        if whole_factor:
            assert result.family is None and result.residual == math.inf


def _reference_at_any_scale(z) -> float:
    try:
        return _reference_x_norm(z)
    except RuntimeWarning:
        # The reference overflows dividing by a largest modulus below
        # about 5.6e-309.  The norm is homogeneous, so compare with the
        # reference at z times a power of two, where it does not.
        return _reference_x_norm(z * 2.0**600) * 2.0**-600


def _flushed(z: np.ndarray) -> np.ndarray:
    """z with each real or imaginary part below 1e-20 of the largest modulus
    zeroed."""
    scale = np.max(np.abs(z))
    out = z.copy()
    out.real[np.abs(z.real) / scale < 1e-20] = 0.0
    out.imag[np.abs(z.imag) / scale < 1e-20] = 0.0
    return out


def _assert_same_x_norm(z) -> float:
    got = x_norm(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            want = _reference_at_any_scale(z)
        except RuntimeWarning:
            # The reference's np.roots also overflows where a part far below
            # its entry leaves the leading coefficient subnormal, with
            # p - q about 2e-313 say.  Only there, compare with the reference
            # on z with those parts zeroed, as x_norm then does.
            want = _reference_at_any_scale(_flushed(z))
    assert _bits(got) == _bits(want)
    return got


class TestXNormBitForBit:
    """One or two zero entries give leading and trailing zero coefficients,
    or the identically zero polynomial; the scale runs from 1e-150 to 1e150."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(ENTRY, min_size=8, max_size=8),
        st.sets(st.integers(0, 3), max_size=2),
        st.floats(-150.0, 150.0),
    )
    # p - q is about 2e-313: np.roots' leading coefficient is subnormal
    @example(parts=[1.0, 1.0, 0.0, 0.0, 0.0, 2.2250738585e-313, 1.0, 1.0], zero_at=set(), log10_scale=0.0)
    def test_zero_entries_at_every_scale(self, parts, zero_at, log10_scale):
        z = np.array(parts[:4]) + 1j * np.array(parts[4:])
        z[list(zero_at)] = 0.0
        _assert_same_x_norm(10.0**log10_scale * z)

    @pytest.mark.parametrize(
        "z",
        [
            [0, 1 + 2j, -0.5j, 3],  # p = 0: leading and trailing zeros
            [2, 0, 0.5j, 1 - 1j],  # q = 0
            [1, 2, 3, 6],  # p = q, A != B: leading and trailing zeros
            [1, 1, -1, 1],  # the witness's anti-diagonal
            [1, 1, 1, 1],  # p = q, A = B: the zero polynomial
            [0, 0, 1, 1j],  # p = q = 0: the zero polynomial
            [1, 0, 0, 0],
            [1, 1e-160, 1e-160, 1],  # entries below 1e-20 of the largest
            [0, 0, 0, 0],
        ],
    )
    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 3e7, 1e150])
    def test_degenerate_polynomials(self, z, scale):
        _assert_same_x_norm(scale * np.array(z, dtype=complex))

    @pytest.mark.parametrize("tiny", [5e-309, 2.2250738585e-313, 5e-324])
    def test_subnormal_largest_entry(self, tiny):
        # the reference overflowed dividing by such a modulus, then raised
        # LinAlgError on the NaNs
        assert x_norm(tiny * np.array([0, 0, 0, 1j])) == tiny
        _assert_same_x_norm(tiny * np.array([1, 1, -1, 1]))


class TestPartialTransposeStack:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(ENTRY, min_size=128, max_size=128))
    def test_gather_equals_partial_transpose(self, parts):
        m = (np.array(parts[:64]) + 1j * np.array(parts[64:])).reshape(8, 8)
        stack = _pt_stack(m)
        assert stack.shape == (4, 8, 8)
        for mask in range(4):
            assert stack[mask].tobytes() == partial_transpose(m, SUBSETS[mask]).tobytes()


POSITIVE = st.floats(0.05, 3.0)


def _assert_same_rank4(x: XMatrix) -> SeparabilityVerdict:
    got = rank4_separability_check(x)
    want = _reference_rank4(x)
    assert got.separable is want.separable
    assert got.violated == want.violated
    assert all(type(v) is str for v in got.violated)
    return got


class TestRank4BitForBit:
    """The same verdict and the same ``violated`` tuple, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(POSITIVE, min_size=8, max_size=8),
        st.lists(ENTRY, min_size=8, max_size=8),
        st.floats(-100.0, 100.0),
    )
    def test_random_x_matrices(self, ab, parts, log10_scale):
        c = np.array(parts[:4]) + 1j * np.array(parts[4:])
        if not c.any():
            c[0] = 1.0
        scale = 10.0**log10_scale
        _assert_same_rank4(XMatrix(scale * np.array(ab[:4]), scale * np.array(ab[4:]), scale * c))

    @settings(max_examples=200, deadline=None)
    @given(
        LOG_S,
        st.sampled_from([1, 2]),
        st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        st.integers(0, 11),
        st.floats(-12.0, -1.0),
    )
    def test_dual_states_with_one_entry_moved(self, log_s, kind, log_ab, entry, log10_step):
        x = dual_state(_curve(log_s), kind, *(math.exp(k) for k in log_ab))
        a, b, c = x.a.copy(), x.b.copy(), x.c.copy()
        step = 10.0**log10_step
        if entry < 4:
            a[entry] *= 1.0 + step
        elif entry < 8:
            b[entry - 4] *= 1.0 + step
        else:
            c[entry - 8] *= complex(math.cos(step), math.sin(step))
        _assert_same_rank4(x)
        _assert_same_rank4(XMatrix(a, b, c))
