"""The exposedness certificate's exact ranks, proved with integers.

At s = t every factor entry of the fixed members is 0 or a monomial
OMEGA**k sqrt(2)**e, and so is every entry of the complexified constraint
rows vec|x><x|, vec|a_p><x| and vec|x><a_p|.  The ring map from
Z[zeta8, 1/2] onto F_p that takes zeta8 = OMEGA to an element zeta of order
8 takes sqrt 2 = zeta8 + zeta8**-1 to zeta + zeta**-1.  A minor that is
nonzero mod p is nonzero, so a rank mod p bounds the rank over Q(zeta8),
which is the complex rank, from below.  Matrices that annihilate every row
bound it from above: the Choi matrix C for the certificate, exactly in
Z[zeta8], and for the control the ten Hermitian matrices on C's X pattern.
The eliminations mod p run on numpy int64 (p < 2**31, so every product of
two residues fits); the annihilation runs on Python integers."""

import itertools
import math

import numpy as np
import pytest

from qxwit import OMEGA, WitnessFamily, choi_explicit, exposedness_certificate
from qxwit import certify
from qxwit.certify import (
    CERTIFICATE_EXACT_RANKS,
    CERTIFICATE_KERNEL_IDS,
    CONTROL_EXACT_RANKS,
    CONTROL_KERNEL_IDS,
    EXACT_PRIME,
)
from qxwit.cli import main
from qxwit.qcore import tensor3

P = EXACT_PRIME
RUNS = {
    "certificate": (CERTIFICATE_KERNEL_IDS, CERTIFICATE_EXACT_RANKS),
    "control": (CONTROL_KERNEL_IDS, CONTROL_EXACT_RANKS),
}

#: The support of C, and of every Hermitian matrix on its X pattern: the
#: anti-diagonal pairs (000, 111), (001, 110), (010, 101), and the block of
#: 011 and 100.  It is its own transpose.
X_PATTERN = ((0, 7), (7, 0), (1, 6), (6, 1), (2, 5), (5, 2), (3, 3), (3, 4), (4, 3), (4, 4))


def zeta_mod_p() -> int:
    """The first g**((p - 1) / 8), g = 2, 3, ..., whose fourth power is -1."""
    for g in itertools.count(2):
        z = pow(g, (P - 1) // 8, P)
        if pow(z, 4, P) == P - 1:
            return z


ZETA = zeta_mod_p()
SQRT2 = (ZETA + pow(ZETA, -1, P)) % P


# --- monomials OMEGA**k sqrt(2)**e, as arrays (k, e, nonzero) -------------------


def monomials(z: np.ndarray) -> tuple:
    """Exponents (k mod 8, e) of entries z = OMEGA**k sqrt(2)**e, and where z
    is nonzero; k and e are 0 where it is zero."""
    nonzero = z != 0
    e = np.rint(2.0 * np.log2(np.abs(np.where(nonzero, z, 1.0)))).astype(int)
    k = np.rint(np.angle(z) / (np.pi / 4.0)).astype(int) % 8
    return np.where(nonzero, k, 0), np.where(nonzero, e, 0), nonzero


def evaluate(m: tuple) -> np.ndarray:
    k, e, nonzero = m
    return np.where(nonzero, OMEGA**k * math.sqrt(2.0) ** e.astype(float), 0.0)


def conj(m: tuple) -> tuple:
    k, e, nonzero = m
    return -k % 8, e, nonzero


def tensor(m: tuple) -> tuple:
    """Monomials (n, 8) of x (x) y (x) z from those (n, party, 2) of the
    factors; component 4i+2j+l is x_i y_j z_l, as in ``tensor3``."""
    k, e, nonzero = m
    def combine(a, op):
        return op(op(a[:, 0, :, None, None], a[:, 1, None, :, None]), a[:, 2, None, None, :]).reshape(-1, 8)

    return combine(k, np.add) % 8, combine(e, np.add), combine(nonzero, np.logical_and)


def outer(u: tuple, v: tuple) -> tuple:
    """Monomials (n, 64) of vec|u><v|: entry 8i+j is u_i conj(v_j)."""
    (ku, eu, nu), (kv, ev, nv) = u, conj(v)
    return (
        ((ku[:, :, None] + kv[:, None, :]) % 8).reshape(-1, 64),
        (eu[:, :, None] + ev[:, None, :]).reshape(-1, 64),
        (nu[:, :, None] & nv[:, None, :]).reshape(-1, 64),
    )


def constraint_rows(ids) -> tuple:
    """Monomials of the complexified rows of a run's members, x being their
    conjugated factors: vec|x><x| (n, 64), then vec|a_p><x| and vec|x><a_p|
    (6n, 64), a_p being x with party p's factor (f0, f1) replaced by
    (-conj f1, conj f0)."""
    kf, ef, nf = conj(monomials(certify._member_factors(ids)))
    # -conj f1 and conj f0, party by party
    kp = np.stack([(4 - kf[..., 1]) % 8, -kf[..., 0] % 8], axis=-1)
    ep, np_ = ef[..., ::-1], nf[..., ::-1]
    x = tensor((kf, ef, nf))
    rows = [outer(x, x)]
    for party in range(3):
        pick = np.arange(3) == party
        a = tensor(tuple(np.where(pick[None, :, None], perp, own)
                         for perp, own in ((kp, kf), (ep, ef), (np_, nf))))
        rows += [outer(a, x), outer(x, a)]
    return tuple(np.concatenate(parts) for parts in zip(*rows))


# --- F_p -------------------------------------------------------------------------

#: The images of zeta8**k, k = 0..7, and of sqrt(2)**e, e = -16..16.
ZETA_POWERS = np.array([pow(ZETA, k, P) for k in range(8)], dtype=np.int64)
SQRT2_POWERS = np.array([pow(SQRT2, e, P) for e in range(-16, 17)], dtype=np.int64)


def mod_p(m: tuple) -> np.ndarray:
    k, e, nonzero = m
    assert np.abs(e).max() <= 16
    return np.where(nonzero, ZETA_POWERS[k] * SQRT2_POWERS[e + 16] % P, 0)


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over F_p by Gaussian elimination on int64 residues."""
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        candidates = np.flatnonzero(m[rank:, col])
        if not len(candidates):
            continue
        pivot = rank + candidates[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, P) % P
        below = m[rank + 1 :]
        below[:] = (below - below[:, col, None] * m[rank] % P) % P
        rank += 1
        if rank == len(m):
            break
    return rank


# --- Z[zeta8], with Python integers ------------------------------------------------


def add_monomial(acc: list, k: int, e: int) -> None:
    """acc += zeta8**k sqrt(2)**e for e >= 0, acc holding the coefficients of
    1, zeta8, zeta8**2, zeta8**3 (zeta8**4 = -1); sqrt 2 = zeta8 - zeta8**3."""
    def add(power, coefficient):
        power %= 8
        acc[power % 4] += coefficient if power < 4 else -coefficient

    if e % 2:
        add(k + 1, 2 ** (e // 2))
        add(k + 3, -(2 ** (e // 2)))
    else:
        add(k, 2 ** (e // 2))


class TestPrimeAndRoot:
    def test_prime_by_trial_division(self):
        assert P % 8 == 1
        assert all(P % d for d in range(2, math.isqrt(P) + 1))

    def test_zeta_has_order_eight_and_gives_sqrt2(self):
        assert pow(ZETA, 8, P) == 1 and pow(ZETA, 4, P) == P - 1
        assert SQRT2 == (ZETA + pow(ZETA, 7, P)) % P
        assert SQRT2 * SQRT2 % P == 2


class TestExactRanks:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_factor_entries_are_monomials(self, run):
        ids, _ = RUNS[run]
        factors = certify._member_factors(ids)
        m = monomials(factors)
        assert np.abs(m[1]).max() <= 2
        assert np.max(np.abs(evaluate(m) - factors)) <= 1e-15 * np.max(np.abs(factors))
        assert np.array_equal(m[2], factors != 0)

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_rows_mod_p_have_the_constants_ranks(self, run):
        ids, (zero_rank, first_order_rank) = RUNS[run]
        rows = mod_p(constraint_rows(ids))
        n = len(ids)
        assert rows.shape == (7 * n, 64)
        assert rank_mod_p(rows[:n]) == zero_rank == n
        assert rank_mod_p(rows) == first_order_rank

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_rows_are_those_of_the_floats(self, run):
        # the monomial rows, evaluated, are the complex rows of the members
        ids, _ = RUNS[run]
        f = certify._member_factors(ids).conj()
        perp = np.stack([-f[..., 1].conj(), f[..., 0].conj()], axis=-1)
        x = tensor3(*f.swapaxes(0, 1))
        rows = [x[:, :, None] * x[:, None, :].conj()]
        for party in range(3):
            a = tensor3(*np.where((np.arange(3) == party)[None, :, None], perp, f).swapaxes(0, 1))
            rows += [a[:, :, None] * x[:, None, :].conj(), x[:, :, None] * a[:, None, :].conj()]
        reference = np.concatenate(rows).reshape(-1, 64)
        assert np.max(np.abs(evaluate(constraint_rows(ids)) - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_choi_matrix_annihilates_every_certificate_row(self):
        # tr(C R) = sum_ij C_ij R_ji in Z[zeta8], every term scaled by
        # sqrt(2)**16 so that its exponent is nonnegative
        c = choi_explicit(WitnessFamily())
        kc, ec, nc = monomials(c)
        assert np.max(np.abs(evaluate((kc, ec, nc)) - c)) <= 1e-15 * np.max(np.abs(c))
        assert {(i, j) for i, j in zip(*np.nonzero(nc))} == set(X_PATTERN)
        k, e, nonzero = constraint_rows(CERTIFICATE_KERNEL_IDS)
        for kr, er, nr in zip(k.tolist(), e.tolist(), nonzero.tolist()):
            acc = [0, 0, 0, 0]
            for i, j in X_PATTERN:
                if nr[8 * j + i]:
                    add_monomial(acc, kc[i, j] + kr[8 * j + i], ec[i, j] + er[8 * j + i] + 16)
            assert acc == [0, 0, 0, 0]

    def test_x_pattern_annihilates_every_control_row(self):
        # every matrix unit E_ij on the pattern pairs to R_ji with a row R,
        # so the ten Hermitian matrices there meet every control condition
        _, _, nonzero = constraint_rows(CONTROL_KERNEL_IDS)
        assert not nonzero[:, [8 * j + i for i, j in X_PATTERN]].any()

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_certificate_uses_the_constants(self, run):
        _, (zero_rank, first_order_rank) = RUNS[run]
        cert = exposedness_certificate(WitnessFamily(), include_eta_zeta=run == "certificate")
        assert cert.nullspace_dim == 64 - zero_rank
        assert cert.surviving_ray_dim == 64 - first_order_rank


class TestFloatExactCrossCheck:
    def test_a_dropped_member_raises(self, capsys, monkeypatch):
        # 31 rows against the exact rank 32: the SVD's numerical rank differs
        monkeypatch.setattr(certify, "_CERTIFICATE_DATA", tuple(a[1:] for a in certify._CERTIFICATE_DATA))
        with pytest.raises(ValueError, match="numerical rank 31, not their exact rank 32"):
            exposedness_certificate(WitnessFamily())
        assert main(["certify", "exposedness"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "exact rank" in err
