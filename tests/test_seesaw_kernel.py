"""The see-saw's kernels and its scale-relative stall test, checked against
oracles that share no code with the engine: numpy's ``eigh``/``eigvalsh``
and einsum quadratic forms for the kernels (the Pauli tensor, the Bloch
update and its spinors, which the prune probe shares), and a serial
see-saw built on ``eigh`` for the whole run."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import ProductVector, WitnessFamily, choi_explicit, min_product_value, pairing, verify_positive, witness
from qxwit.qcore import tensor3
from qxwit.witness import (
    STALL_TOL,
    _bloch_min,
    _bloch_vectors,
    _pauli_tensor,
    _seesaw,
    _spinors,
)

SQRT2 = math.sqrt(2.0)

unit = st.floats(-1.0, 1.0)
log_scale = st.floats(-150.0, 150.0)


def hermitian_2x2(kind, a, d, re, im, scale):
    """A 2x2 Hermitian matrix of the given kind, entries scaled by ``scale``."""
    if kind == "zero":
        a = d = re = im = 0.0
    elif kind == "od = 0":
        re = im = 0.0
    elif kind == "a = d":
        d = a
    elif kind == "a < d":
        a, d = min(a, d), max(a, d) + 0.5
    elif kind == "a > d":
        a, d = max(a, d) + 0.5, min(a, d)
    elif kind == "identity multiple":
        d, re, im = a, 0.0, 0.0
    od = complex(re, im)
    return scale * np.array([[a, od], [od.conjugate(), d]])


def eigh_seesaw(c8, restarts, seed, max_cycles=300):
    """Serial see-saw of one matrix: numpy's eigh for each party update and
    einsum for the effective matrices; the stall tolerance is STALL_TOL times
    the largest power of two not above max|C|.  Returns the per-restart
    values and the cycles run."""
    c6 = c8.reshape((2,) * 6)
    tol = STALL_TOL * 2.0 ** math.floor(math.log2(np.max(np.abs(c8))))
    draws = np.random.default_rng(seed).standard_normal((3, 2, restarts, 2))
    v = draws[:, 0] + 1j * draws[:, 1]
    fa, fb, fz = v / np.linalg.norm(v, axis=-1, keepdims=True)
    values = np.full(restarts, np.inf)
    for cycles in range(1, max_cycles + 1):
        fa = np.linalg.eigh(np.einsum("abcdef,nb,nc,ne,nf->nad", c6, fb.conj(), fz.conj(), fb, fz))[1][..., 0]
        fb = np.linalg.eigh(np.einsum("abcdef,na,nc,nd,nf->nbe", c6, fa.conj(), fz.conj(), fa, fz))[1][..., 0]
        lam, vecs = np.linalg.eigh(np.einsum("abcdef,na,nb,nd,ne->ncf", c6, fa.conj(), fb.conj(), fa, fb))
        fz = vecs[..., 0]
        stalled = cycles > 1 and float(np.max(np.abs(lam[:, 0] - values))) < tol
        values = lam[:, 0]
        if stalled:
            break
    return values, cycles


def _dense_hermitian(seed=2026):
    g = np.random.default_rng(seed).standard_normal((2, 8, 8))
    g = g[0] + 1j * g[1]
    return g + g.conj().T


def _lowered_choi():
    """The Choi matrix at s = t with its 011 diagonal lowered by 1e-2: its
    minimum over product vectors is negative, about -1.2e-3."""
    c = choi_explicit(WitnessFamily())
    c[3, 3] -= 1e-2
    return c


class TestSeesawAgainstEighOracle:
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 5.0, 16.0])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_choi_cycles_and_values(self, s, seed):
        self.check(choi_explicit(WitnessFamily(s, 8.0 / s)), seed)

    @pytest.mark.parametrize("build", [_dense_hermitian, _lowered_choi], ids=["dense", "lowered-011"])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_dense_and_negative_minimum(self, build, seed):
        self.check(build(), seed)

    @staticmethod
    def check(c, seed):
        values, cycles = eigh_seesaw(c, 24, seed)
        engine_values, _, engine_cycles, _ = _seesaw(c, 24, seed, 300)
        assert engine_cycles == cycles
        assert np.max(np.abs(engine_values - values)) <= 1e-12 * np.max(np.abs(c))
        res = min_product_value(c, 24, seed)
        assert res.cycles == cycles
        assert res.min_value == pytest.approx(values.min(), abs=1e-12 * np.max(np.abs(c)))


class TestGuardedUpdate:
    """A party update divides by |tau| directly when the smallest |tau| of the
    batch is above the run's floor, and otherwise runs ``_bloch_min``; both
    give the eigh oracle's run."""

    @pytest.fixture
    def bloch_min_calls(self, monkeypatch):
        calls = []

        def spy(tau, n):
            calls.append(tau.shape)
            return _bloch_min(tau, n)

        monkeypatch.setattr(witness, "_bloch_min", spy)
        return calls

    @staticmethod
    def check(c, restarts, seed):
        values, cycles = eigh_seesaw(c, restarts, seed)
        assert cycles < 300
        engine_values, _, engine_cycles, _ = _seesaw(c, restarts, seed, 300)
        assert engine_cycles == cycles
        assert np.max(np.abs(engine_values - values)) <= 1e-12 * np.max(np.abs(c))
        res = min_product_value(c, restarts, seed)
        # the oracle stalled: no restart moved by the tolerance in its last cycle
        assert (res.cycles, res.restarts_moving) == (cycles, 0)

    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 16.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_choi_takes_the_division_only(self, bloch_min_calls, s, seed):
        # the benchmark's positivity verdicts run on this path
        self.check(choi_explicit(WitnessFamily(s, 8.0 / s)), 200, seed)
        assert bloch_min_calls == []

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000])
    def test_identity_falls_back(self, bloch_min_calls, scale):
        # tau = 0 in every column, so the division alone would give 0 / 0
        c = scale * np.eye(8)
        self.check(c, 24, 0)
        assert bloch_min_calls and set(bloch_min_calls) == {(4, 24)}


class TestScaleRelativeStall:
    """min over unit product vectors of lam (C - I/2) is -lam/2 at every scale."""

    SHIFTED = choi_explicit(WitnessFamily()) - 0.5 * np.eye(8)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-150.0, 150.0))
    def test_homogeneity(self, log10_lam):
        lam = 10.0**log10_lam
        with np.errstate(all="raise"):
            res = min_product_value(lam * self.SHIFTED, 16, 3)
        assert res.converged
        assert res.min_value / lam == pytest.approx(-0.5, abs=1e-12)
        assert pairing(res.argmin.projector(), self.SHIFTED) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("lam", [1e-160, 1e150, 1e155])
    def test_extreme_scales(self, lam):
        with np.errstate(all="raise"):
            res = min_product_value(lam * self.SHIFTED, 16, 3)
        assert res.converged and res.cycles < 20
        assert res.min_value / lam == pytest.approx(-0.5, abs=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        # dividing by a power of two is exact, so the run is the same run
        one = min_product_value(self.SHIFTED, 16, 3)
        big = min_product_value(2.0**300 * self.SHIFTED, 16, 3)
        assert big.min_value == 2.0**300 * one.min_value
        assert big.cycles == one.cycles
        assert np.array_equal(big.argmin.full, one.argmin.full)


SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch4(f: np.ndarray) -> np.ndarray:
    """Bloch 4-vectors (..., 4) = <f|sigma_i|f> of unit spinors f (..., 2)."""
    return np.einsum("...a,iab,...b->...i", f.conj(), SIGMA, f).real


class TestPauliTensor:
    """sum_ijk T_ijk a_i b_j c_k is <eta|C|eta> at eta = x (x) y (x) z, with
    a, b, c the Bloch 4-vectors of x, y, z."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([-500, -1, 0, 1, 500]))
    def test_trilinear_form_is_the_quadratic_form(self, seed, exponent):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 8, 8))
        c = 2.0**exponent * (g[0] + g[0].T + 1j * (g[1] - g[1].T))
        f = rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2))
        f /= np.linalg.norm(f, axis=-1, keepdims=True)
        with np.errstate(all="raise"):
            t = _pauli_tensor(c)
            form = np.einsum("ijk,ni,nj,nk->n", t, *bloch4(f))
            eta = tensor3(*f)
            expected = np.einsum("ni,ij,nj->n", eta.conj(), c, eta).real
        assert t.dtype == float and t.shape == (4, 4, 4)
        assert np.max(np.abs(form - expected)) <= 1e-12 * np.max(np.abs(c))

    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_power_of_two_scaling_is_exact(self, exponent):
        c = _dense_hermitian()
        with np.errstate(all="raise"):
            assert np.array_equal(_pauli_tensor(2.0**exponent * c), 2.0**exponent * _pauli_tensor(c))

    def test_stack_is_each_matrix(self):
        stack = np.array([_dense_hermitian(seed) for seed in range(5)]).reshape(5, 1, 8, 8)
        t = _pauli_tensor(stack)
        assert t.shape == (5, 1, 4, 4, 4)
        for m, tm in zip(stack[:, 0], t[:, 0]):
            assert np.max(np.abs(tm - _pauli_tensor(m))) <= 1e-15 * np.max(np.abs(m))


def tau_of(m: np.ndarray) -> np.ndarray:
    """(tau0, tau) with m = tau0 I + tau.sigma, as a column (4, 1)."""
    return (np.einsum("iab,ba->i", SIGMA, m).real / 2.0)[:, None]


class TestBlochMin:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["generic", "zero", "od = 0", "a = d", "a < d", "a > d", "identity multiple"]),
        unit,
        unit,
        unit,
        unit,
        log_scale,
        st.tuples(unit, unit, unit).filter(lambda c: math.hypot(*c) > 1e-3),
    )
    # subnormal entries
    @example(
        kind="generic", a=0.0, d=-1.0842086058377695e-186, re=0.0, im=0.0, log10_scale=-126.0, cur=(0.0, 0.0, 1.0)
    )
    # a gap of one subnormal spacing: (a - d) / 2 rounds to 0, so tau is a multiple of the identity
    @example(kind="generic", a=-5e-324, d=0.0, re=0.0, im=0.0, log10_scale=0.0, cur=(0.0, 0.0, -1.0))
    # |tau| = 4.4e-311 rounds on the subnormal grid: n was 1 + 3.7e-14 long
    @example(
        kind="generic", a=0.0, d=0.0, re=3.130670072125392e-190, im=3.130670072125392e-190, log10_scale=-121.0,
        cur=(0.0, 0.0, 1.0),
    )
    def test_minimal_eigenpair(self, kind, a, d, re, im, log10_scale, cur):
        m = hermitian_2x2(kind, a, d, re, im, 10.0**log10_scale)
        current = np.array(cur) / math.hypot(*cur)
        n = current[:, None].copy()
        tau = tau_of(m)
        value = _bloch_min(tau, n)[0]
        size = float(np.max(np.abs(m)))
        lam = np.linalg.eigvalsh(m)
        # tau of a subnormal matrix is rounded to the subnormal spacing
        assert value == pytest.approx(lam[0], abs=max(1e-12 * size, 1e-321))
        if m[0, 0] == m[1, 1] and m[0, 1] == 0:
            # every unit vector is optimal: the current one is kept
            assert np.array_equal(n[:, 0], current)
            return
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)
        v = _spinors(n)[0]
        assert np.linalg.norm(m @ v - lam[0] * v) <= 1e-12 * size
        # tau.sigma, formed from tau without rounding, has the eigenvectors
        # _bloch_min is asked for; m's may differ where tau rounds a
        # subnormal gap of m, or erases it
        tx, ty, tz = tau[1:, 0]
        if 2.0 * math.hypot(tx, ty, tz) > 1e-6 * size:
            traceless = np.array([[tz, tx - 1j * ty], [tx + 1j * ty, -tz]])
            assert abs(np.vdot(np.linalg.eigh(traceless)[1][:, 0], v)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_identity_up_to_rounding_keeps_the_current_vector(self, scale):
        # tau0 I plus a rounding-sized tau: the direction of tau is noise
        tau = scale * np.array([[1.0, -1.0], [3e-16, 0.0], [-2e-16, 0.0], [1e-16, 4e-15]])
        current = np.array([[0.6, 0.0], [0.0, 0.8], [0.8, -0.6]])
        n = current.copy()
        assert _bloch_min(tau, n) == pytest.approx(tau[0] - scale * np.array([np.sqrt(14e-32), 4e-15]), rel=1e-14)
        assert np.array_equal(n, current)

    def test_columns_are_independent(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 7, 2, 2))
        ms = g[0] + g[0].swapaxes(1, 2) + 1j * (g[1] - g[1].swapaxes(1, 2))
        tau = np.hstack([tau_of(m) for m in ms])
        n = np.zeros((3, 7))
        values = _bloch_min(tau, n)
        assert np.allclose(values, np.linalg.eigvalsh(ms)[:, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(n, axis=0), 1.0, rtol=0.0, atol=1e-14)


class TestSpinors:
    """The spinor of a unit Bloch vector n is a unit vector whose projector is
    (I + n.sigma) / 2, on both branches: nz >= 0 and nz < 0."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))
    @example(1.0, 0.0)
    @example(0.0, 1.0)
    @example(-1.0, 0.0)
    @example(-0.0, 0.3)
    @example(2.0**-60, 2.0)
    @example(-(2.0**-60), 2.0)
    @example(5e-324, 4.0)
    @example(-5e-324, 4.0)
    def test_unit_spinor_of_the_ray(self, nz, phi):
        rho = math.sqrt((1.0 - nz) * (1.0 + nz))
        n = np.array([rho * math.cos(phi), rho * math.sin(phi), nz])
        f = _spinors(n[:, None])[0]
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-15)
        projector = (np.eye(2) + np.einsum("i,iab->ab", n, SIGMA[1:])) / 2.0
        assert np.max(np.abs(np.outer(f, f.conj()) - projector)) <= 1e-15

    def test_batch_shape(self):
        n = np.random.default_rng(4).standard_normal((3, 2, 5))
        n /= np.linalg.norm(n, axis=0)
        f = _spinors(n)
        assert f.shape == (2, 5, 2)
        assert np.allclose(bloch4(f)[..., 1:], np.moveaxis(n, 0, -1), rtol=0.0, atol=1e-15)

    def test_bloch_vectors_of_the_spinors(self):
        n = np.random.default_rng(5).standard_normal((3, 2, 5))
        n /= np.linalg.norm(n, axis=0)
        a = _bloch_vectors(_spinors(n))
        assert a.shape == (2, 4, 5)
        assert np.array_equal(a[:, 0], np.ones((2, 5)))
        assert np.allclose(a[:, 1:], n.swapaxes(0, 1), rtol=0.0, atol=1e-15)
        assert np.allclose(a, np.moveaxis(bloch4(_spinors(n)), -1, 1), rtol=0.0, atol=1e-15)


class TestMaxCycles:
    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_below_one_is_rejected(self, max_cycles):
        # a run of no cycle has no value; it must not read as a minimum of +inf
        with pytest.raises(ValueError, match="max_cycles"):
            min_product_value(choi_explicit(WitnessFamily()), 8, 0, max_cycles=max_cycles)

    def test_private_run_rejects_it_too(self):
        with pytest.raises(ValueError, match="max_cycles"):
            _seesaw(choi_explicit(WitnessFamily()), 8, 0, 0)


class TestSeed:
    def test_negative_is_rejected_by_name(self):
        # numpy's own error, "expected non-negative integer", names no argument
        with pytest.raises(ValueError, match="^seed must be at least 0$"):
            min_product_value(choi_explicit(WitnessFamily()), 8, -1)


class TestRestartsMoving:
    """``restarts_moving`` counts the restarts whose value moved by the stall
    tolerance or more in the last cycle run, as the eigh oracle's values do."""

    C = choi_explicit(WitnessFamily())

    @pytest.mark.parametrize("max_cycles", range(1, 10))
    def test_count_of_the_last_cycle(self, max_cycles):
        res = min_product_value(self.C, 200, 0, max_cycles=max_cycles)
        before = eigh_seesaw(self.C, 200, 0, max_cycles - 1)[0] if max_cycles > 1 else np.inf
        after, cycles = eigh_seesaw(self.C, 200, 0, max_cycles)
        tol = STALL_TOL * 2.0 ** math.floor(math.log2(np.max(np.abs(self.C))))
        assert res.cycles == cycles
        if cycles < max_cycles:
            assert res.converged and res.restarts_moving == 0
        else:
            assert res.restarts_moving == np.count_nonzero(~(np.abs(after - before) < tol))

    def test_converged_run_moves_none(self):
        res = verify_positive(WitnessFamily(), restarts=200)
        assert res.converged and res.restarts_moving == 0
        assert res.to_json_dict()["restarts_moving"] == 0

    def test_capped_run_shows_descending_restarts(self):
        res = min_product_value(_lowered_choi(), 24, 0)
        assert not res.converged and res.cycles == 300
        assert 1 <= res.restarts_moving <= 24


class TestCurveEnds:
    """At the ends of the curve the Choi matrix's entries span twenty orders
    of magnitude; the values are the form at the returned vectors, so the
    minimum stays at rounding level of the form's own terms."""

    @pytest.mark.parametrize("s", [1e-8, 1e12])
    def test_positivity_holds(self, s):
        c = choi_explicit(WitnessFamily(s, 8.0 / s))
        assert verify_positive(WitnessFamily(s, 8.0 / s)).min_value >= -1e-9
        values, factors, _, _ = _seesaw(c, 50, 0, 300)
        for value, f in zip(values, factors.transpose(2, 0, 1)):
            # the form at the factors is the pairing with the conjugates' projector
            vec = ProductVector(*f.conj())
            v = vec.full
            terms = np.einsum("i,ij,j->", np.abs(v), np.abs(c), np.abs(v))
            assert abs(value - pairing(vec.projector(), c)) <= 1e-14 * terms
