"""qxwit benchmark: time to verdict for one workload, checked against an
independent reference.

    python3 perfbench/run.py --workload {exposed,certify,screen} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qxwit checkout; the package is imported from its
``src`` directory.  One caller issues one verdict at a time and waits for it
(a closed loop with a single client).  Rounds of the workload run until
``--seconds`` have passed; every verdict is checked.  Verdict times are also
reported adjusted for the machine's speed at the time (see speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.  A
full report (provenance, per-kind timings) and the spans of a traced run are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qxwit, qxwit.cli; "
    "qxwit.cli.build_parser(); dt = time.perf_counter() - t0; print(qxwit.__file__); print(dt)"
)
#: Set-up reference: a fresh interpreter importing numpy, which qxwit's import
#: is mostly made of.  Its time drifts with the host as qxwit's does.
REFERENCE_CODE = "import time; t0 = time.perf_counter(); import numpy; print(time.perf_counter() - t0)"
#: Time of the set-up reference on the reference machine of setup_s.
SETUP_REFERENCE_S = 0.1
#: Percentiles tried, highest first, for the tail of a timing.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Seconds a single run may take before the benchmark gives up.
RUN_LIMIT = 150.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qxwit():
    if not os.path.isfile(os.path.join(SRC, "qxwit", "__init__.py")):
        fail(f"no qxwit sources under {SRC}; run from the root of a qxwit checkout")
    sys.path[:0] = [SRC, HERE]
    import qxwit

    if not os.path.abspath(qxwit.__file__).startswith(SRC + os.sep):
        fail(f"imported qxwit from {qxwit.__file__}, not from {SRC}")
    return qxwit


# --- statistics ---------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it (nearest-rank), or None when there are too few samples."""
    xs = sorted(values)
    for pct in TAIL_LADDER:
        rank = math.ceil(round(pct * len(xs) / 100.0, 9))
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1]
    return None


def summary(values, unit: str) -> dict:
    out = {"unit": unit, "n": len(values), "p50": statistics.median(values) if values else None}
    t = tail(values)
    out["tail_pct"], out["tail"] = t if t else (None, None)
    return out


# --- provenance ---------------------------------------------------------------


def provenance(args, qxwit) -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "qxwit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "qxwit": qxwit.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "QXWIT_THREADS": os.environ.get("QXWIT_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "loop": "closed, one client",
    }


# --- measurement ----------------------------------------------------------------


def _child(code: str) -> list:
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return res.stdout.split()


def measure_setup() -> tuple:
    """import qxwit + cli.build_parser() in fresh interpreters: (raw seconds,
    reference seconds, adjusted seconds).  Each timing is adjusted by the mean
    of the set-up references run just before and after it."""
    refs = [float(_child(REFERENCE_CODE)[0])]
    raw, adjusted = [], []
    for k in range(SETUP_REPEATS + 1):
        path, dt = _child(SETUP_CODE)
        if not os.path.abspath(path).startswith(SRC + os.sep):
            fail(f"set-up child imported qxwit from {path}")
        refs.append(float(_child(REFERENCE_CODE)[0]))
        if k:
            raw.append(float(dt))
            adjusted.append(float(dt) * SETUP_REFERENCE_S / (0.5 * (refs[-2] + refs[-1])))
    return raw, refs[1:], adjusted


class Pass:
    """Outcome of running rounds: per-kind latencies and failures."""

    def __init__(self):
        self.latency: dict = {}
        self.adjusted: dict = {}  # latency scaled to the reference machine
        self.readings: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.busy = 0.0
        self.stdout_bytes = 0
        self.rounds = 0


def run_rounds(rounds, speed, seconds: float = 0.0, min_rounds: int = 1) -> Pass:
    """Run whole rounds until ``seconds`` of wall time and ``min_rounds``
    rounds have passed.  A verdict on every core is adjusted for steal time,
    any other by the one-core speed reading (see speed.py)."""
    p = Pass()
    begin = time.perf_counter()
    while True:
        for job in rounds(p.rounds):
            reading = speed.current()
            ticks = speed.ticks() if job.all_cores else None
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # a raising verdict counts as failed
                t1 = time.perf_counter()
                result, error = None, f"{job.kind}: raised {exc!r}"
            else:
                t1 = time.perf_counter()
                error = None
            p.busy += t1 - t0
            p.latency.setdefault(job.kind, []).append(t1 - t0)
            if job.all_cores:
                adjusted = speed.unstolen(t1 - t0, ticks, speed.ticks())
            else:
                adjusted = speed.adjust(t1 - t0, reading, speed.current())
            p.adjusted.setdefault(job.kind, []).append(adjusted)
            p.readings.append(reading)
            if error is None:
                if job.cli:
                    p.stdout_bytes += len(result[1].encode())
                try:
                    job.check(result)
                except Exception as exc:  # any disagreement or malformed output
                    error = f"{job.kind}: {exc}"
            if error:
                p.failed += 1
                if len(p.failures) < 10:
                    p.failures.append(error)
        p.rounds += 1
        elapsed = time.perf_counter() - begin
        if p.rounds >= min_rounds and elapsed >= seconds:
            return p
        if elapsed > RUN_LIMIT:
            fail(f"run exceeded {RUN_LIMIT} s")


def gmean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Report lines per workload: (name, unit, scale, prefixes of the kinds pooled).
DETAIL = {
    "exposed": [
        ("exposedness_s", "s", 1.0, ("exposedness:cert",)),
        ("exposedness_neg_s", "s", 1.0, ("exposedness:neg",)),
    ],
    "certify": [
        ("spanning_ms", "ms", 1e3, ("spanning:",)),
        ("positivity_ms", "ms", 1e3, ("positivity:",)),
        ("detect_ms", "ms", 1e3, ("detect:",)),
    ],
    "screen": [
        ("query_us", "us", 1e6, ("lib.",)),
        ("cli_ms", "ms", 1e3, ("cli.",)),
    ],
}


#: Gated verdict groups per workload: prefixes of the kinds in group a and in
#: group b.  A change that doubles the time of one group moves its metric by 2x.
GROUPS = {
    "exposed": (("exposedness:cert",), ("exposedness:neg",)),
    "certify": (("positivity:",), ("spanning:", "detect:")),
    "screen": (("lib.",), ("cli.",)),
}


def group_p50_gmean(times: dict, prefixes: tuple) -> float:
    """Geometric mean, over the kinds in a group, of each kind's median, in ms."""
    return 1e3 * gmean([statistics.median(vs) for k, vs in times.items() if k.startswith(prefixes)])


def end_to_end(workload: str, p: Pass, setup: tuple) -> tuple:
    """(gated metrics, detail report) of an untraced pass."""
    a, b = GROUPS[workload]
    metrics = {
        "setup_s": (statistics.median(setup[2]), "s"),
        "verdict_ms_adj.a_p50_gmean": (group_p50_gmean(p.adjusted, a), "ms"),
        "verdict_ms_adj.b_p50_gmean": (group_p50_gmean(p.adjusted, b), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "verdict_ms.a_p50_gmean": group_p50_gmean(p.latency, a),
        "verdict_ms.b_p50_gmean": group_p50_gmean(p.latency, b),
        "verdicts_per_s": p.attempted / p.busy,
        "verdicts_per_s_adj": p.attempted / sum(sum(vs) for vs in p.adjusted.values()),
        "failed_frac": p.failed / p.attempted,
        "rounds": p.rounds,
        "speed_reading_ms": summary([1e3 * r for r in p.readings], "ms"),
        "speed_reading_ms.mean": 1e3 * statistics.fmean(p.readings),
        "setup_s.raw": setup[0],
        "setup_s.numpy_import": setup[1],
    }
    for name, unit, scale, prefixes in DETAIL[workload]:
        detail[name] = summary([scale * v for k, vs in p.latency.items() if k.startswith(prefixes) for v in vs], unit)
    detail["kinds_ms"] = {k: summary([1e3 * v for v in vs], "ms") for k, vs in sorted(p.latency.items())}
    detail["kinds_ms_adj"] = {k: summary([1e3 * v for v in vs], "ms") for k, vs in sorted(p.adjusted.items())}
    return metrics, detail


def emit(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qxwit time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(DETAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qxwit = import_qxwit()
    import tracing
    import workloads
    from speed import Speed

    prov = provenance(args, qxwit)
    print("provenance " + json.dumps(prov, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, f"run-{tag}-{os.getpid()}")
    speed = Speed()
    try:
        setup = None if args.trace else measure_setup()
        rounds = workloads.make_rounds(args.workload, args.seed, workdir)
        plain = run_rounds(rounds, speed, seconds=args.seconds)
        passes = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install([importlib.import_module(m) for m in tracing.MODULES])
            try:
                traced = run_rounds(rounds, speed, min_rounds=plain.rounds)
            finally:
                tracer.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(OUT, exist_ok=True)
    report = {"provenance": prov, "rounds": plain.rounds}
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, traced.stdout_bytes, traced.busy / plain.busy - 1.0)
        tracer.write(os.path.join(OUT, f"spans-{tag}.json"))
        emit("per-layer metrics (traced run)", metrics)
    else:
        metrics, detail = end_to_end(args.workload, plain, setup)
        emit("end-to-end metrics", metrics)
        print("detail " + json.dumps(detail, sort_keys=True))
        report["detail"] = detail
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures:
        print(f"FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(result, failures=failures)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
