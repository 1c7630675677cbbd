"""Record one entry of the benchmark trajectory: every workload of
BENCHMARK.json, untraced and traced, from seed 1 and BENCHMARK.json's
run_seconds, so that every entry compares with every other.

    python3 perfbench/record.py LABEL

Run from the repository root.  Writes perfbench/results/BENCH_<LABEL>.json
holding each run's full report (provenance, end-to-end or per-layer metrics,
per-kind timings).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    entry = {"label": args.label, "seed": SEED, "seconds": seconds, "runs": []}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd, check=True, timeout=600, stdout=subprocess.DEVNULL)
            path = os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                entry["runs"].append({"workload": workload, "trace": trace, **json.load(fh)})
            print(f"recorded {workload} trace={trace}", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
