"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from qxwit import (
    PV1_TAGS,
    KernelGrid,
    ProductVector,
    WitnessFamily,
    choi_explicit,
    choi_generic,
    dual_state,
    exposedness_certificate,
    find_ppt_entangled,
    herm_min_eig,
    kernel_classify,
    kernel_vectors,
    motivating_linear_map,
    motivating_sum,
    pairing,
    pairing_x,
    phi_apply,
    ppt_check,
    rank4_separability_check,
    reconstruct_product_vector,
    spanning_check,
    verify_positive,
    x_norm,
    xpart,
    xpart_decompose,
)

SQRT2 = math.sqrt(2.0)
ST_CASES = ((2 * SQRT2, 2 * SQRT2), (4.0, 2.0), (2.0, 4.0), (8.0, 1.0))


class _Criterion:
    def __init__(self, label):
        self.label = label
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok else "FAIL"
        suffix = f" -- {detail}" if detail else ""
        print(f"[{verdict}] {self.label} ({elapsed:.2f}s){suffix}")
        assert ok, f"{self.label}{suffix}"


def test_criterion_01_choi_consistency():
    crit = _Criterion("criterion 1: generic Choi assembly matches the explicit matrix")
    worst = 0.0
    for s, t in ST_CASES:
        w = WitnessFamily(s, t)
        generic = choi_generic(lambda x, y: phi_apply(w, x, y))
        worst = max(worst, float(np.max(np.abs(generic - choi_explicit(w)))))
    crit.finish(worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_02_positivity_seesaw():
    crit = _Criterion("criterion 2: see-saw minimum nonnegative, argmin on a kernel family")
    w = WitnessFamily()
    res = verify_positive(w, restarts=1000, seed=1)
    val = pairing(res.argmin.projector(), choi_explicit(w))
    family = kernel_classify(w, res.argmin).family
    ok = res.min_value >= -1e-9 and val <= 1e-10 and family is not None
    crit.finish(ok, f"min {res.min_value:.2e}, argmin family {family}")


def test_criterion_03_not_completely_positive():
    crit = _Criterion("criterion 3: Choi matrix has minimal eigenvalue -1")
    worst = 0.0
    for s, t in ST_CASES:
        e = herm_min_eig(choi_explicit(WitnessFamily(s, t)))
        worst = max(worst, abs(e + 1.0))
    crit.finish(worst <= 1e-10, f"max |min eig + 1| = {worst:.2e}")


def test_criterion_04_kernel_families():
    crit = _Criterion("criterion 4: all fourteen kernel families annihilated on the grid")
    w = WitnessFamily()
    c = choi_explicit(w)
    vectors = kernel_vectors(w, KernelGrid.default())
    worst = max(abs(pairing(v.projector(), c)) for v in vectors)
    ok = len(vectors) >= 60 and worst <= 1e-9
    crit.finish(ok, f"{len(vectors)} vectors, worst pairing {worst:.2e}")


def test_criterion_05_dual_states():
    crit = _Criterion("criterion 5: dual states separable, annihilated, closed form matches")
    grid = KernelGrid.default()
    worst_pair, worst_match = 0.0, 0.0
    for s, t in ST_CASES:
        w = WitnessFamily(s, t)
        c = choi_explicit(w)
        for kind, a1, a2 in grid.dual_params():
            x = dual_state(w, kind, a1, a2)
            assert rank4_separability_check(x).separable
            px = pairing_x(x, w)
            worst_pair = max(worst_pair, abs(px))
            worst_match = max(worst_match, abs(px - pairing(x.to_matrix(), c)))
    ok = worst_pair <= 1e-9 and worst_match <= 1e-10
    crit.finish(ok, f"worst pairing {worst_pair:.2e}, closed-form gap {worst_match:.2e}")


def test_criterion_06_x_norm():
    crit = _Criterion("criterion 6: X norm value, witness equality, one-norm bounds")
    w = WitnessFamily()
    nx = x_norm([1, 1, -1, 1])
    ok = abs(nx - 2 * SQRT2) <= 1e-9
    ok = ok and abs(math.sqrt(w.s * w.t) - nx) <= 1e-9
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = x_norm(z)
        n1 = float(np.sum(np.abs(z)))
        if not (n1 / SQRT2 - 1e-9 <= n <= n1 + 1e-9):
            ok = False
            break
    crit.finish(ok, f"witness norm {nx:.12f}")


def test_criterion_07_decomposition_round_trip():
    crit = _Criterion("criterion 7: projector-average identity and reconstruction round trip")
    rng = np.random.default_rng(3)
    worst_avg, worst_rec = 0.0, 0.0
    count = 0
    while count < 1000:
        factors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        factors = [f / np.linalg.norm(f) for f in factors]
        if any(np.min(np.abs(f)) < 0.2 for f in factors):
            continue
        count += 1
        v = ProductVector(*factors)
        x = xpart(v.projector())
        avg = sum(p.projector() for p in xpart_decompose(v)) / 4
        worst_avg = max(worst_avg, float(np.max(np.abs(avg - x.to_matrix()))))
        rec = reconstruct_product_vector(x)
        back = xpart(rec.vector.projector()).to_matrix()
        worst_rec = max(worst_rec, float(np.max(np.abs(rec.scale * x.to_matrix() - back))))
    ok = worst_avg <= 1e-12 and worst_rec <= 1e-10
    crit.finish(ok, f"average gap {worst_avg:.2e}, round-trip gap {worst_rec:.2e}")


def test_criterion_08_full_spanning():
    crit = _Criterion("criterion 8: rank 8 for every subset, deficient for flat families")
    w = WitnessFamily()
    report = spanning_check(w)
    margins = [
        r.smallest_kept_singular_value / r.largest_singular_value for r in report.records
    ]
    ok = all(r.rank == 8 for r in report.records) and min(margins) >= 1e-6
    flat = spanning_check(w, tags=PV1_TAGS)
    ok = ok and any(r.rank < 8 for r in flat.records)
    crit.finish(
        ok,
        f"margin {min(margins):.2e}, flat ranks {sorted({r.rank for r in flat.records})}",
    )


def test_criterion_09_exposedness():
    crit = _Criterion("criterion 9: exposed ray certified; flat constraints leave more")
    w = WitnessFamily()
    cert = exposedness_certificate(w)
    ok = (
        cert.surviving_ray_dim == 1
        and cert.direction_match_error < 1e-8
        and cert.unpruned_directions == 0
    )
    reduced = exposedness_certificate(w, include_eta_zeta=False)
    ok = ok and reduced.surviving_ray_dim > 1
    crit.finish(
        ok,
        f"surviving dim {cert.surviving_ray_dim}, match {cert.direction_match_error:.2e}, "
        f"reduced dim {reduced.surviving_ray_dim}",
    )


def test_criterion_10_ppt_detection():
    crit = _Criterion("criterion 10: PPT state detected, verdict open under noise")
    w = WitnessFamily()
    cert = find_ppt_entangled(w, seed=0)
    c = choi_explicit(w)
    ok = (
        bool(np.all(cert.min_pt_eigs >= -1e-10))
        and cert.pairing_value <= -1e-3
        and abs(np.trace(cert.rho).real - 1.0) <= 1e-10
    )
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        noise = (g + g.conj().T) / 2
        noise *= 1e-5 / np.linalg.norm(noise)
        rho = cert.rho + noise
        if not (pairing(rho, c) < 0.0 and ppt_check(rho).is_ppt):
            ok = False
            break
    crit.finish(ok, f"pairing {cert.pairing_value:.4g}, PT margin {np.min(cert.min_pt_eigs):.2e}")


def test_criterion_11_motivating_construction():
    crit = _Criterion("criterion 11: summands positive, total linear through three points")
    rng = np.random.default_rng(5)

    def p_of(alpha):
        return np.array([[1.0, np.conj(alpha)], [alpha, abs(alpha) ** 2]])

    ok = True
    for _ in range(1000):
        al = complex(*rng.standard_normal(2))
        ms = motivating_sum(al)
        if herm_min_eig(ms.a) < -1e-12 or herm_min_eig(ms.b) < -1e-12:
            ok = False
            break
        if np.max(np.abs(ms.total - motivating_linear_map(p_of(al)))) > 1e-12:
            ok = False
            break
        other = complex(*rng.standard_normal(2))
        lam = rng.uniform(-1.0, 2.0)
        blend = (1 - lam) * p_of(al) + lam * p_of(other)
        rhs = (1 - lam) * ms.total + lam * motivating_sum(other).total
        if np.max(np.abs(motivating_linear_map(blend) - rhs)) > 1e-12:
            ok = False
            break
    crit.finish(ok)
