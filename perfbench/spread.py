#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10]

For each workload of BENCHMARK.json and each end-to-end metric, from
untraced runs, it prints the median over the seeds and the distance between
the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), and the share of failed operations.
Runs are sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, s, bench["run_seconds"]) for s in seeds_from(args.seeds)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: correct {all(r['correct'] for r in results)}, failed share {shares}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32s} median {med:.6g} {results[0]['metrics'][name]['unit']:6s}"
                  f" spread {spread:.4f} bound {bounds[name]}  values {' '.join(f'{v:.4g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
