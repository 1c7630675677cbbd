"""The see-saw's closed-form 2x2 eigenpair and its scale-relative stall test,
checked against oracles that share no code with the engine: numpy's
``eigh``/``eigvalsh`` for the kernel, and a serial see-saw built on ``eigh``
for the whole run."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import WitnessFamily, choi_explicit, min_product_value, pairing
from qxwit.qcore import tensor3
from qxwit.witness import STALL_TOL, _effective, _min_eigpair, _party_rows, _seesaw

SQRT2 = math.sqrt(2.0)

def _batched_min_eigvec(m: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Unit minimal eigenvectors (..., 2) of a batch (..., 2, 2) of 2x2
    Hermitian matrices; rows whose matrix is (numerically) a multiple of the
    identity keep the current vector."""
    entries = np.asarray(m).reshape(*np.shape(m)[:-2], 4)[..., [0, 3, 1], None]
    return _min_eigpair(entries, np.asarray(current)[..., None])[1][..., 0]


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


class TestKernelAgainstEigh:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["generic", "zero", "od = 0", "a = d", "a < d", "a > d", "identity multiple"]),
        unit,
        unit,
        unit,
        unit,
        log_scale,
        st.tuples(unit, unit, unit, unit).filter(lambda c: math.hypot(*c) > 1e-3),
    )
    # subnormal entries: 1 / norm of the unnormalized vector overflows
    @example(
        kind="generic", a=0.0, d=0.0, re=0.0, im=2.2250738585e-313, log10_scale=0.0, cur=(0.0, 0.0, 0.0, 1.0)
    )
    def test_minimal_eigenpair(self, kind, a, d, re, im, log10_scale, cur):
        m = hermitian_2x2(kind, a, d, re, im, 10.0**log10_scale)
        current = np.array([complex(cur[0], cur[1]), complex(cur[2], cur[3])])
        current /= np.linalg.norm(current)
        v = _batched_min_eigvec(m[None], current[None])[0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        size = float(np.max(np.abs(m)))
        lam = np.linalg.eigvalsh(m)[0]
        assert np.linalg.norm(m @ v - lam * v) <= 1e-12 * size
        if m[0, 0] == m[1, 1] and m[0, 1] == 0:
            # every unit vector is optimal: the current one is kept
            assert np.array_equal(v, current)
        elif np.ptp(np.linalg.eigvalsh(m)) > 1e-6 * size:
            _, vecs = np.linalg.eigh(m)
            assert abs(np.vdot(vecs[:, 0], v)) == pytest.approx(1.0, abs=1e-12)

    def test_batch_shapes(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        m = g + g.conj().swapaxes(-1, -2)
        current = np.ones((3, 5, 2), dtype=complex) / SQRT2
        v = _batched_min_eigvec(m, current)
        lam = np.linalg.eigvalsh(m)[..., 0]
        assert v.shape == (3, 5, 2)
        assert np.max(np.abs(np.einsum("...ij,...j->...i", m, v) - lam[..., None] * v)) <= 1e-12


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


class TestSeesawAgainstEighOracle:
    @pytest.mark.parametrize("s", [0.5, 2 * SQRT2, 5.0, 16.0])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_choi_cycles_and_values(self, s, seed):
        c = choi_explicit(WitnessFamily(s, 8.0 / s))
        values, cycles = eigh_seesaw(c, 24, seed)
        engine_values, _, engine_cycles = _seesaw(c, 24, seed, 300)
        assert engine_cycles == cycles
        assert np.max(np.abs(engine_values - values)) <= 1e-12 * np.max(np.abs(c))
        res = min_product_value(c, 24, seed)
        assert res.cycles == cycles
        assert res.min_value == pytest.approx(values.min(), abs=1e-12 * np.max(np.abs(c)))


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


def _stack_and_factors(m=3, n=5, seed=11):
    """A stack (m, 8, 8) of Hermitian matrices and factors (party, n, 2)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, 8, 8)) + 1j * rng.standard_normal((m, 8, 8))
    f = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
    return g + g.conj().swapaxes(1, 2), f


class TestEffectiveEntries:
    """``_effective`` on the rows of ``_party_rows`` of a stack: the m00 entries
    of every matrix, then the m11, then the m01, against <i, f|M|j, f> with the
    kept party's basis vectors i, j in its slot."""

    @pytest.mark.parametrize("party", range(3))
    def test_against_projected_forms(self, party):
        stack, f = _stack_and_factors()
        others = [f[q].T for q in range(3) if q != party]
        entries = _effective(_party_rows(stack)[party], *others, np.empty((16, 5), dtype=complex))

        def slot(i):
            basis = np.broadcast_to(np.eye(2)[i], (5, 2))
            return tensor3(*[basis if q == party else f[q] for q in range(3)])

        expected = [
            np.einsum("ni,mij,nj->mn", slot(i).conj(), stack, slot(j))
            for i, j in ((0, 0), (1, 1), (0, 1))
        ]
        assert np.allclose(entries.reshape(3, 3, 5), expected, rtol=0.0, atol=1e-12)

    def test_out_is_returned_and_bitwise_equal(self):
        stack, f = _stack_and_factors()
        rows = _party_rows(stack)[1]
        work = np.empty((16, 5), dtype=complex)
        out = np.empty((len(rows), 5), dtype=complex)
        assert _effective(rows, f[0].T, f[2].T, work, out=out) is out
        plain = _effective(rows, f[0].T, f[2].T, work)
        assert plain is not out and plain.tobytes() == out.tobytes()
