#!/usr/bin/env python3
"""Run every verification suite against all shipped scenarios, printing each
scenario's worst residual next to the wall time it took (load and suites)
and the wall time of each suite."""

import sys
import time
from pathlib import Path

from cqm.scenario import load_scenario
from cqm.verify import SUITES, run_suites

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    failures = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        start = time.perf_counter()
        sc = load_scenario(path)
        checks, suite_walls = [], []
        for suite in SUITES:
            t0 = time.perf_counter()
            checks += run_suites(sc, [suite])
            suite_walls.append(f"{suite} {time.perf_counter() - t0:.2f}")
        wall = time.perf_counter() - start
        bad = [c for c in checks if not c.passed]
        failures += len(bad)
        status = "pass" if not bad else f"FAIL ({len(bad)})"
        worst = max(c.max_residual for c in checks if c.comparator == "le")
        print(f"{path.name:24s} {len(checks):2d} checks  worst residual {worst:9.2e}  {wall:5.2f} s  [{status}]")
        print(f"    suites (s): {', '.join(suite_walls)}")
        for c in bad:
            print(f"    FAIL {c.name}: {c.max_residual:.3e} vs {c.tolerance:.1e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
