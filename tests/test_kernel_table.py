"""The kernel factor table: every consumer reads the grid's kernel members from
one vectorised family builder and gets what the one-vector-at-a-time code
gives, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxwit import (
    ETA_TAGS,
    FAMILY_TAGS,
    PV1_TAGS,
    SUBSETS,
    ZETA_TAGS,
    OMEGA,
    KernelGrid,
    WitnessFamily,
    dual_state,
    kernel_classify,
    kernel_vector,
    kernel_vectors,
    partial_conjugate,
    spanning_check,
)
from qxwit.certify import RANK_THRESHOLD
from qxwit.witness import _dual_entries
from qxwit.xstate import _x_matrices

GRIDS = st.sampled_from([KernelGrid.small(), KernelGrid.default(), KernelGrid.fine()])
LOG_S = st.floats(-6.0, 6.0)
TAG_SETS = st.sampled_from([FAMILY_TAGS, PV1_TAGS])


def family(log_s: float) -> WitnessFamily:
    s = 10.0**log_s
    return WitnessFamily(s, 8.0 / s)


def spanning_oracle(w, grid, tags):
    """(rank, smallest kept, largest singular value) per subset, from one
    partial_conjugate per vector and one SVD per subset."""
    vectors = [kernel_vector(w, tag, p) for tag, p in grid.kernel_ids() if tag in tags]
    out = []
    for subset in SUBSETS:
        rows = np.array([partial_conjugate(v, subset).full for v in vectors])
        sv = np.linalg.svd(rows, compute_uv=False)
        rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
        out.append((rank, float(sv[rank - 1]), float(sv[0]), len(vectors)))
    return out


#: The families as published: the free party (None) and pinned basis kets of
#: the flat ones, and the phase exponents (powers of OMEGA) of the curved ones.
FLAT_SLOTS = {
    "x01": (None, 0, 1),
    "x10": (None, 1, 0),
    "0y0": (0, None, 0),
    "1y1": (1, None, 1),
    "00z": (0, 0, None),
    "11z": (1, 1, None),
}
EIGHTHS = {
    "eta1": (3, 1, 7),
    "eta2": (3, 5, 3),
    "eta3": (7, 1, 3),
    "eta4": (7, 5, 7),
    "zeta1": (5, 7, 1),
    "zeta2": (5, 3, 5),
    "zeta3": (1, 7, 5),
    "zeta4": (1, 3, 1),
}


def scalar_member(w, tag, params) -> list:
    """The factors of a family member from the closed form, one scalar at a time."""
    if tag in FLAT_SLOTS:
        basis = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
        free = np.asarray(params, dtype=complex)
        return [free if slot is None else basis[slot] for slot in FLAT_SLOTS[tag]]
    a1, a2 = params
    mods = (math.sqrt(w.u * a1), math.sqrt(a2 / w.u), math.sqrt(a1 / a2))
    return [np.array([m, OMEGA**k], dtype=complex) for m, k in zip(mods, EIGHTHS[tag])]


class TestTableMatchesSingleMembers:
    @settings(max_examples=40, deadline=None)
    @given(GRIDS, LOG_S)
    def test_rows_are_kernel_vector_bitwise(self, grid, log_s):
        w = family(log_s)
        ids = grid.kernel_ids()
        rows = kernel_vectors(w, grid)
        assert len(rows) == len(ids)
        for v, (tag, params) in zip(rows, ids):
            single = kernel_vector(w, tag, params).factors()
            for f, g, h in zip(v.factors(), single, scalar_member(w, tag, params)):
                assert f.tobytes() == g.tobytes() == h.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(GRIDS, LOG_S, TAG_SETS)
    def test_spanning_matches_per_subset_oracle(self, grid, log_s, tags):
        # spanning is computed in the frame s = t, whatever the input's s
        report = spanning_check(family(log_s), grid, tags=tags)
        got = [
            (r.rank, r.smallest_kept_singular_value, r.largest_singular_value, r.vectors_used)
            for r in report.records
        ]
        assert got == spanning_oracle(WitnessFamily(), grid, tags)
        assert [r.subset for r in report.records] == list(SUBSETS)


# Curved parameters log-uniform on [1e-2, 1e2]; flat free factors with both
# moduli in [0.1, 10], so away from the basis endpoints where flat families
# overlap.
LOG_AB = st.floats(-2.0, 2.0)
PHASE = st.floats(0.0, 2.0 * np.pi)
LOG_MOD = st.floats(-1.0, 1.0)


class TestClassifyRecoversMembers:
    @settings(max_examples=60, deadline=None)
    @given(LOG_S, st.sampled_from(ETA_TAGS + ZETA_TAGS), LOG_AB, LOG_AB)
    def test_curved(self, log_s, tag, log_a1, log_a2):
        w = family(log_s)
        a1, a2 = 10.0**log_a1, 10.0**log_a2
        result = kernel_classify(w, kernel_vector(w, tag, (a1, a2)))
        assert result.family == tag
        assert result.params == pytest.approx((a1, a2), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(LOG_S, st.sampled_from(PV1_TAGS), LOG_MOD, LOG_MOD, PHASE, PHASE)
    def test_flat(self, log_s, tag, log_r0, log_r1, phi0, phi1):
        w = family(log_s)
        free = np.array([10.0**log_r0 * np.exp(1j * phi0), 10.0**log_r1 * np.exp(1j * phi1)])
        result = kernel_classify(w, kernel_vector(w, tag, free))
        assert result.family == tag
        # flat parameters are fixed only up to scale and phase
        fitted = np.array(result.params)
        overlap = abs(np.vdot(fitted, free)) / (np.linalg.norm(fitted) * np.linalg.norm(free))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestNoPerMemberCalls:
    def test_consumers_make_no_kernel_vector_calls(self, monkeypatch):
        from qxwit import certify, witness

        calls = []
        original = witness.kernel_vector

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(witness, "kernel_vector", counting)
        monkeypatch.setattr(certify, "kernel_vector", counting, raising=False)
        w = WitnessFamily()
        grid = KernelGrid.default()
        member = original(w, "zeta3", (0.7, 1.9))
        spanning_check(w, grid)
        spanning_check(w, grid, tags=PV1_TAGS)
        assert kernel_classify(w, member).family == "zeta3"
        assert calls == []

    def test_certify_imports_no_single_member_helpers(self):
        from qxwit import certify

        assert not hasattr(certify, "kernel_vector")
        assert not hasattr(certify, "partial_conjugate")


def scalar_dual(w, kind, a1, a2) -> tuple:
    """The X fields (a, b, c) of a dual state from the closed form, one
    scalar at a time."""
    u = w.u
    a = np.array([a1, a2, u * a1 / a2, u])
    b = np.array([1.0 / a1, 1.0 / a2, a2 / (u * a1), 1.0 / u])
    c = OMEGA ** np.array([-3, 3, -1, -3] if kind == 1 else [3, -3, 1, 3])
    return a, b, c


class TestDualBuilderMatchesSingleStates:
    @settings(max_examples=40, deadline=None)
    @given(GRIDS, LOG_S)
    def test_batch_is_the_per_state_loop_bitwise(self, grid, log_s):
        w = family(log_s)
        params = grid.dual_params()
        batch = _x_matrices(*_dual_entries(w, params))
        loop = np.array([dual_state(w, *p).to_matrix() for p in params])
        assert batch.tobytes() == loop.tobytes()
        for p in params:
            x = dual_state(w, *p)
            for got, want in zip((x.a, x.b, x.c), scalar_dual(w, *p)):
                assert got.tobytes() == want.tobytes()
