#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --runs 10 [--trace 0]

For every metric this prints the median over runs and the distance between
the first and third quartile as a share of the median, next to the bound
in BENCHMARK.json.  The runs use seeds 1..runs and the run_seconds of
BENCHMARK.json, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        took = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.6g}  iqr/median {share:7.4f}  "
              f"bound {bounds.get(name)}  runs "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
