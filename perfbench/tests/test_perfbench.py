"""Tests of the benchmark itself: seeded inputs, span arithmetic, tracer
install/uninstall, and the reference checks.

    python3 -m pytest perfbench/tests -q
"""

import filecmp
import importlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import qxwit  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _modules():
    return [importlib.import_module(m) for m in tracing.MODULES]


# --- seeded inputs ---------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = workloads.write_screen_files(workloads.screen_inputs(5, pool=4), str(tmp_path / "a"))
    b = workloads.write_screen_files(workloads.screen_inputs(5, pool=4), str(tmp_path / "b"))
    for slot_a, slot_b in zip(a, b):
        for name in slot_a:
            assert filecmp.cmp(slot_a[name], slot_b[name], shallow=False)
    for i in range(3):
        assert workloads.certify_argvs(5, i) == workloads.certify_argvs(5, i)
        assert workloads.exposed_argvs(5, i) == workloads.exposed_argvs(5, i)


def test_other_seed_gives_other_curve_points(tmp_path):
    def points(seed):
        return [s for _, s, _, _ in workloads.certify_argvs(seed, 0)]

    assert points(5) != points(6)
    assert workloads.exposed_argvs(5, 0) != workloads.exposed_argvs(6, 0)
    a = workloads.write_screen_files(workloads.screen_inputs(5, pool=1), str(tmp_path / "a"))
    b = workloads.write_screen_files(workloads.screen_inputs(6, pool=1), str(tmp_path / "b"))
    assert not filecmp.cmp(a[0]["rho"], b[0]["rho"], shallow=False)


def test_curve_points_stay_on_the_curve():
    for kind, s, t, argv in workloads.certify_argvs(9, 0):
        assert workloads.S_RANGE[0] <= s <= workloads.S_RANGE[1]
        assert abs(s * t - 8.0) < 1e-12


# --- span arithmetic -------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing.union_length([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_with_overlapping_children_on_two_threads():
    S = tracing.Span
    spans = [
        S(1, "certify.exposedness_certificate", 0.0, 10.0, None, 1),
        S(2, "witness.min_product_value", 1.0, 5.0, 1, 2),  # pool thread A
        S(3, "witness.min_product_value", 3.0, 8.0, 1, 3),  # pool thread B, overlaps A
        S(4, "certify.herm_to_vec", 8.5, 9.5, 1, 1),  # same layer: counts as self time
        S(5, "qcore.check_hermitian", 9.0, 9.2, 4, 1),  # foreign grandchild
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(10.0 - 7.0 - 0.2)
    assert ix.busy("witness.min_product_value") == pytest.approx(7.0)
    assert ix.total("witness.min_product_value") == pytest.approx(9.0)
    assert ix.calls("witness.min_product_value") == 2


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(5)) is None
    pct, value = run.tail(range(100))
    assert pct == 90.0 and value == 89
    pct, _ = run.tail(range(1000))
    assert pct == 99.0


# --- tracer ----------------------------------------------------------------------


def _bindings():
    return {(m.__name__, name): obj for m in _modules() for name, obj in vars(m).items()}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _bindings()
    rounds = workloads.Screen(3, str(tmp_path), pool=2).round
    tracer = tracing.Tracer()
    tracer.install(_modules())
    try:
        assert qxwit.x_norm is not before[("qxwit", "x_norm")]
        assert qxwit.x_norm is qxwit.xstate.x_norm
        traced = run.run_rounds(rounds, speed.Speed(), min_rounds=1)
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    recorded = len(tracer.spans)
    assert recorded > 0
    assert _bindings() == before
    assert all(before[k] is v for k, v in _bindings().items())
    plain = run.run_rounds(rounds, speed.Speed(), min_rounds=1)
    assert plain.failed == 0 and plain.attempted == traced.attempted
    assert len(tracer.spans) == recorded


def test_pool_thread_spans_take_the_open_certify_span_as_parent():
    c = ref.choi(2.0, 4.0)

    def orchestrate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda k: qxwit.witness.min_product_value(c, restarts=2, seed=k, max_cycles=3), range(4)))

    orchestrate.__module__ = "qxwit.certify"
    tracer = tracing.Tracer()
    tracer.install([qxwit.witness])
    try:
        tracer._wrap(orchestrate)()
    finally:
        tracer.uninstall()
    (root,) = [s for s in tracer.spans if s.name == "certify.orchestrate"]
    children = [s for s in tracer.spans if s.name == "witness.min_product_value"]
    assert len(children) == 4
    assert all(s.parent == root.id for s in children)
    metrics = tracing.layer_metrics(tracer.spans, 0, 0.0)
    assert metrics["witness.seesaw.cycle_restarts"][0] == 4 * 3 * 2
    assert metrics["witness.seesaw.at_cap_frac"][0] == 1.0


# --- verdict checks --------------------------------------------------------------


def test_one_round_of_each_cheap_workload_passes(tmp_path):
    assert run.run_rounds(workloads.Screen(4, str(tmp_path), pool=2).round, speed.Speed(), min_rounds=1).failed == 0
    assert run.run_rounds(lambda i: workloads.certify_round(4, i)[:1], speed.Speed(), min_rounds=1).failed == 0


def test_reference_rejects_wrong_verdicts():
    rng = np.random.default_rng(0)
    c = ref.choi(4.0, 2.0)
    rho = workloads._random_state(rng)
    ref.check_pairing(ref.pairing(rho, c), rho, c)
    with pytest.raises(ref.Mismatch):
        ref.check_pairing(ref.pairing(rho, c) + 1e-6, rho, c)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ref.check_x_norm(qxwit.x_norm(z), z)
    with pytest.raises(ref.Mismatch):
        ref.check_x_norm(qxwit.x_norm(z) * 1.01, z)
    eigs = ref.pt_min_eigs(rho)
    with pytest.raises(ref.Mismatch):
        ref.check_ppt(bool(np.all(eigs >= 0)), eigs + 1e-3, rho)
    with pytest.raises(ref.Mismatch):
        ref.check_classify_miss("eta1")


def test_reference_partial_transpose_matches_definition():
    rng = np.random.default_rng(1)
    rho = workloads._random_state(rng)
    t = rho.reshape((2,) * 6)
    # transposing party 2 swaps its row and column axes
    pt2 = np.swapaxes(t, 1, 4).reshape(8, 8)
    assert ref.pt_min_eigs(rho)[2] == pytest.approx(np.linalg.eigvalsh(pt2)[0], abs=1e-12)
    assert ref.pt_min_eigs(rho)[0] == pytest.approx(np.linalg.eigvalsh(rho)[0], abs=1e-12)


def test_adjustment_uses_the_readings_on_both_sides():
    s = speed.Speed()
    reading = s.current()
    assert reading > 0.0 and s.current() == reading  # a fresh reading is reused
    assert s.adjust(0.01, 2 * s.REFERENCE_S, 2 * s.REFERENCE_S) == pytest.approx(0.005)
    assert s.adjust(10.0, s.REFERENCE_S, 3 * s.REFERENCE_S) == pytest.approx(5.0)


def test_all_core_verdicts_are_adjusted_for_steal_time(monkeypatch):
    s = speed.Speed()
    assert s.unstolen(10.0, (100, 0), (175, 25)) == pytest.approx(7.5)
    assert s.unstolen(10.0, (5, 5), (5, 5)) == 10.0
    busy, stolen = s.ticks()
    assert busy > 0 and stolen >= 0

    def rounds(i):
        return [workloads.Job("one", lambda: sum(range(1000)), lambda r: None),
                workloads.Job("all", lambda: sum(range(1000)), lambda r: None, all_cores=True)]

    ticks = iter([(0, 0), (3, 1)] * 3)
    monkeypatch.setattr(s, "ticks", lambda: next(ticks))
    p = run.run_rounds(rounds, s, min_rounds=3)
    assert p.rounds == 3 and p.failed == 0
    assert p.adjusted["all"] == pytest.approx([0.75 * t for t in p.latency["all"]])
    assert p.adjusted["one"] != p.latency["one"]


def test_gated_groups_split_every_workload_in_two(tmp_path):
    kinds = {
        "exposed": [job.kind for job in workloads.exposed_round(1, 0)],
        "certify": [job.kind for job in workloads.certify_round(1, 0)],
        "screen": [job.kind for job in workloads.Screen(1, str(tmp_path), pool=1).round(0)],
    }
    assert set(kinds) == set(run.GROUPS)
    for workload, (a, b) in run.GROUPS.items():
        assert all(k.startswith(a) != k.startswith(b) for k in kinds[workload])
        assert any(k.startswith(a) for k in kinds[workload])
        assert any(k.startswith(b) for k in kinds[workload])
