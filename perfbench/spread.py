"""Run the benchmark on several seeds and report each metric's spread.

usage: python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 20]

For each metric: the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, the figure each end-to-end bound in BENCHMARK.json is
held against. Results are appended to perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range such as 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    log = BENCH_DIR / "out" / f"spread-{args.workload}.jsonl"
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
