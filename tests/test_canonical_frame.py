"""The exposedness certificate runs in the frame s = t from a fixed set of 32
kernel members, and its flat-only control from a fixed set of 18.  With D = diag(alpha, 1/alpha) (x) I4 and alpha**2 =
t / (2 sqrt 2), C(s, t) = D C(2 sqrt 2, 2 sqrt 2) D, and kernel vectors map
by v -> D^-1 v: the local-filtering invariance of block positivity and
exposed rays (Ha and Kye, Open Syst. Inf. Dyn. 18, 2011).  Checked across
log10 s in [-100, 100], together with the fixed sets' ranks and gaps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxwit import (
    ETA_TAGS,
    OMEGA,
    PV1_TAGS,
    ZETA_TAGS,
    KernelGrid,
    WitnessFamily,
    choi_explicit,
    exposedness_certificate,
    kernel_vector,
    pairing,
)
from qxwit import certify, witness
from qxwit.certify import CERTIFICATE_KERNEL_IDS, CONTROL_KERNEL_IDS, herm_to_vec, vec_to_herm
from qxwit.qcore import tensor3
from qxwit.witness import _PV4_FACTORS

SQRT2 = math.sqrt(2.0)
W0 = WitnessFamily()
GRIDS = (KernelGrid.small(), KernelGrid.default(), KernelGrid.fine())


def curve(s: float) -> WitnessFamily:
    return WitnessFamily(s, 8.0 / s)


def frame(w: WitnessFamily) -> np.ndarray:
    """The diagonal of D = diag(alpha, 1/alpha) (x) I4, alpha**2 = t / (2 sqrt 2)."""
    alpha = math.sqrt(w.t / (2.0 * SQRT2))
    return np.repeat([alpha, 1.0 / alpha], 4)


class TestFrameIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-100.0, 100.0).map(lambda e: 10.0**e))
    @example(1e-100)
    @example(1e-7)
    @example(1e-6)
    @example(3e6)
    @example(1e7)
    @example(1e100)
    def test_congruence_members_and_verdicts(self, s):
        w = curve(s)
        d = frame(w)
        c = choi_explicit(w)
        congruent = d[:, None] * choi_explicit(W0) * d[None, :]
        assert np.max(np.abs(congruent - c)) <= 8.0 * np.spacing(np.max(np.abs(c)))

        # D^-1 v at s = t is alpha times the member at (u a1, u a2), u = 1/alpha**2
        for tag in ETA_TAGS + ZETA_TAGS:
            for a1, a2 in ((0.5, 2.0), (1.0, 1.0), (3.0, 0.25)):
                mapped = kernel_vector(W0, tag, (a1, a2)).full / d
                member = d[0] * kernel_vector(w, tag, (w.u * a1, w.u * a2)).full
                assert np.allclose(mapped, member, rtol=4e-15, atol=0.0)

        assert exposedness_certificate(w).certified
        assert not exposedness_certificate(w, include_eta_zeta=False).certified

    @pytest.mark.parametrize("s", [9e5, 2e6])
    def test_far_out(self, s):
        assert exposedness_certificate(curve(s)).certified
        assert not exposedness_certificate(curve(s), include_eta_zeta=False).certified

    def test_control_settled_far_out(self):
        # with an absolute PRUNE_VIOLATION this control left 2 directions open
        # when it ran at the given s; at s = t it is decided as the canonical
        # one, by its first-order rank alone, with no falsification
        far = exposedness_certificate(curve(5.011872336272653e-06), include_eta_zeta=False)
        here = exposedness_certificate(W0, include_eta_zeta=False)
        assert far.unpruned_directions is here.unpruned_directions is None
        assert far.prune_records == here.prune_records == ()
        assert dataclasses.replace(far, s=W0.s, t=W0.t) == here
        assert here.surviving_ray_dim >= 2 and not far.certified


def member_factors(ids) -> np.ndarray:
    return np.array([kernel_vector(W0, tag, p).factors() for tag, p in ids])


def zero_value_rows(factors: np.ndarray) -> np.ndarray:
    """herm_to_vec of the projectors onto the conjugated product vectors:
    W -> <x|W|x> as rows."""
    full = tensor3(*factors.conj().swapaxes(0, 1))
    return herm_to_vec(full[:, :, None] * full[:, None, :].conj())


def first_order_rows(factors: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Re and Im of <a|W|x> over the nullspace basis ``null``, one row per
    product vector x and party, a being x with that party's factor replaced
    by its orthogonal complement."""
    rows = []
    for f in factors.conj():
        x = tensor3(*f)
        for party in range(3):
            g = f.copy()
            g[party] = [-np.conj(f[party, 1]), np.conj(f[party, 0])]
            values = np.einsum("i,kij,j->k", tensor3(*g).conj(), vec_to_herm(null), x)
            rows += [values.real, values.imag]
    return np.array(rows)


def pivoted_gram_schmidt(rows: np.ndarray, count: int) -> list:
    """Indices of ``count`` rows, each time the largest remaining one, the
    first in order among those within 1e-9 of it."""
    rest, picked = rows.copy(), []
    for _ in range(count):
        norms = np.linalg.norm(rest, axis=1)
        j = int(np.argmax(norms >= (1.0 - 1e-9) * norms.max()))
        picked.append(j)
        q = rest[j] / norms[j]
        rest -= np.outer(rest @ q, q)
    return picked


class TestFixedSet:
    def test_zero_value_rank_and_gap(self):
        sv = np.linalg.svd(zero_value_rows(member_factors(CERTIFICATE_KERNEL_IDS)), compute_uv=False)
        assert len(sv) == 32
        assert sv[31] / sv[0] > 1e-2

    def test_first_order_rank_and_gap(self):
        factors = member_factors(CERTIFICATE_KERNEL_IDS)
        null = np.linalg.svd(zero_value_rows(factors))[2][32:]
        sv = np.linalg.svd(first_order_rows(factors, null), compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 31
        assert sv[30] / sv[0] > 0.1

    def test_same_nullspace_as_every_grid(self):
        # the grids' rows, kernel vectors and basis vectors, span the same space
        fixed = zero_value_rows(member_factors(CERTIFICATE_KERNEL_IDS))
        for grid in GRIDS:
            factors = np.concatenate([witness._kernel_table(W0, grid), _PV4_FACTORS])
            both = np.concatenate([fixed, zero_value_rows(factors)])
            sv = np.linalg.svd(both, compute_uv=False)
            assert int(np.sum(sv > 1e-8 * sv[0])) == 32

    def test_every_member_annihilated(self):
        c = choi_explicit(W0)
        for tag, p in CERTIFICATE_KERNEL_IDS:
            v = kernel_vector(W0, tag, p)
            assert abs(pairing(v.projector(), c)) <= 1e-14 * np.vdot(v.full, v.full).real

    def test_omega_phases_and_parameters(self):
        powers = [OMEGA**k for k in range(8)]
        for tag, p in CERTIFICATE_KERNEL_IDS:
            if tag in PV1_TAGS:
                assert p in ((1.0, 0.0), (0.0, 1.0)) or (p[0] == 1.0 and p[1] in powers)
            else:
                assert set(p) <= {0.5, 1.0, 2.0}

    def test_pivot_of_the_omega_phase_pool(self):
        # the pool in the order the constant was chosen from
        endpoints = [(1.0, 0.0), (0.0, 1.0)]
        flat = [(tag, p) for tag in PV1_TAGS for p in endpoints + [(1.0, OMEGA**k) for k in range(8)]]
        pairs = [(a1, a2) for a1 in (0.5, 1.0, 2.0) for a2 in (0.5, 1.0, 2.0)]
        curved = [(tag, ab) for tag in ETA_TAGS + ZETA_TAGS for ab in pairs]
        pool = np.concatenate([member_factors(flat + curved), _PV4_FACTORS])
        picked = sorted(pivoted_gram_schmidt(zero_value_rows(pool), 32))
        assert max(picked) < len(flat + curved)
        assert tuple((flat + curved)[j] for j in picked) == CERTIFICATE_KERNEL_IDS

    def test_rows_are_the_fixed_members(self, monkeypatch):
        seen = []
        probe = certify._prune_probe

        def spy(starts, *args):
            seen.append(starts)
            return probe(starts, *args)

        def fail(*args, **kwargs):
            raise AssertionError("the certificate read the grid's kernel table")

        monkeypatch.setattr(certify, "_prune_probe", spy)
        monkeypatch.setattr(certify, "_kernel_table", fail)
        exposedness_certificate(curve(0.5))
        [starts] = seen
        fresh = certify._probe_starts(member_factors(CERTIFICATE_KERNEL_IDS).conj())
        assert all(np.array_equal(a, b) for a, b in zip(starts, fresh, strict=True))


def rank(rows: np.ndarray) -> int:
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0])) if len(sv) else 0


def joint_rows(factors: np.ndarray) -> np.ndarray:
    """The zero-value rows and, over all 64 coordinates, the first-order
    rows of the product vectors."""
    return np.concatenate([zero_value_rows(factors), first_order_rows(factors, np.eye(64))])


def grid_flat_factors(grid) -> np.ndarray:
    """The grid's flat members and the six basis kernel vectors, at s = t:
    the constraints the control read from the grid before it had fixed
    members."""
    return np.concatenate([witness._kernel_table(W0, grid, PV1_TAGS), _PV4_FACTORS])


class TestControlSet:
    def test_zero_value_and_joint_ranks_and_gaps(self):
        factors = member_factors(CONTROL_KERNEL_IDS)
        sv = np.linalg.svd(zero_value_rows(factors), compute_uv=False)
        assert len(sv) == 18 and sv[17] / sv[0] > 0.1
        sv = np.linalg.svd(joint_rows(factors), compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 54
        assert sv[53] / sv[0] > 0.1

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.name)
    def test_zero_value_rows_span_the_grids(self, grid):
        fixed = zero_value_rows(member_factors(CONTROL_KERNEL_IDS))
        both = np.concatenate([fixed, zero_value_rows(grid_flat_factors(grid))])
        assert rank(both) == rank(fixed) == 18

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.name)
    def test_joint_rows_span_the_grids(self, grid):
        fixed = joint_rows(member_factors(CONTROL_KERNEL_IDS))
        both = np.concatenate([fixed, joint_rows(grid_flat_factors(grid))])
        assert rank(both) == rank(fixed) == 54

    def test_every_member_annihilated(self):
        c = choi_explicit(W0)
        for tag, p in CONTROL_KERNEL_IDS:
            assert tag in PV1_TAGS
            v = kernel_vector(W0, tag, p)
            assert abs(pairing(v.projector(), c)) <= 1e-14 * np.vdot(v.full, v.full).real

    def test_entries_are_zero_one_or_omega(self):
        factors = member_factors(CONTROL_KERNEL_IDS)
        assert set(factors.ravel().tolist()) == {0.0, 1.0, complex(OMEGA)}

    def test_pivot_of_the_flat_pool(self):
        # the flat families of the certificate's pool, in its order; a member
        # is taken when its rows raise the rank, first of the zero-value rows
        # up to 18, then of the joint rows up to 54
        endpoints = [(1.0, 0.0), (0.0, 1.0)]
        pool = [(tag, p) for tag in PV1_TAGS for p in endpoints + [(1.0, OMEGA**k) for k in range(8)]]
        factors = member_factors(pool)
        picked = []
        for rows_of, target in ((zero_value_rows, 18), (joint_rows, 54)):
            for j in range(len(pool)):
                have = rank(rows_of(factors[picked]))
                if have < target and rank(rows_of(factors[picked + [j]])) > have:
                    picked.append(j)
        assert rank(joint_rows(factors[picked])) == 54
        assert tuple(pool[j] for j in sorted(picked)) == CONTROL_KERNEL_IDS

    def test_rows_are_the_fixed_members(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the control read the grid's kernel table")

        monkeypatch.setattr(certify, "_kernel_table", fail)
        payload = exposedness_certificate(curve(0.5), include_eta_zeta=False).to_json_dict()
        assert payload["constraint_count"] == 18
        assert payload["nullspace_dim"] == 46 and payload["surviving_ray_dim"] == 10
