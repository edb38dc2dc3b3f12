#!/usr/bin/env python3
"""Run every verification suite against all shipped scenarios, printing each
scenario's worst residual next to the wall time it took (load and suites),
and each suite's wall time next to its tracemalloc peak.  The peaks come
from a second pass, one fresh scenario load per suite, under tracemalloc,
so the timed pass runs untraced; the jet kernel's scatter-bin cache is warm
by then, so a peak is the suite's working memory."""

import sys
import time
import tracemalloc
from pathlib import Path

from cqm.scenario import load_scenario
from cqm.verify import SUITES, run_suites

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def suite_peak_mib(path: Path, suite: str) -> float:
    """The tracemalloc peak of one suite on a fresh load of the scenario, in MiB."""
    sc = load_scenario(path)
    tracemalloc.start()
    try:
        run_suites(sc, [suite])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    failures = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        start = time.perf_counter()
        sc = load_scenario(path)
        checks, suite_walls = [], []
        for suite in SUITES:
            t0 = time.perf_counter()
            checks += run_suites(sc, [suite])
            suite_walls.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        peaks = [suite_peak_mib(path, suite) for suite in SUITES]
        bad = [c for c in checks if not c.passed]
        failures += len(bad)
        status = "pass" if not bad else f"FAIL ({len(bad)})"
        worst = max(c.max_residual for c in checks if c.comparator == "le")
        print(f"{path.name:24s} {len(checks):2d} checks  worst residual {worst:9.2e}  {wall:5.2f} s  [{status}]")
        print("    suites (s, peak MiB):",
              ", ".join(f"{suite} {t:.2f} {peak:.2f}" for suite, t, peak in zip(SUITES, suite_walls, peaks)))
        for c in bad:
            print(f"    FAIL {c.name}: {c.max_residual:.3e} vs {c.tolerance:.1e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
