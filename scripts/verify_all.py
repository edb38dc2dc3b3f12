#!/usr/bin/env python3
"""Run every verification suite against all shipped scenarios, printing each
scenario's worst residual next to the wall time it took (load and suites)."""

import sys
import time
from pathlib import Path

from cqm.scenario import load_scenario
from cqm.verify import run_suites

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    failures = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        start = time.perf_counter()
        sc = load_scenario(path)
        checks = run_suites(sc)
        wall = time.perf_counter() - start
        bad = [c for c in checks if not c.passed]
        failures += len(bad)
        status = "pass" if not bad else f"FAIL ({len(bad)})"
        worst = max(c.max_residual for c in checks if c.comparator == "le")
        print(f"{path.name:24s} {len(checks):2d} checks  worst residual {worst:9.2e}  {wall:5.2f} s  [{status}]")
        for c in bad:
            print(f"    FAIL {c.name}: {c.max_residual:.3e} vs {c.tolerance:.1e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
