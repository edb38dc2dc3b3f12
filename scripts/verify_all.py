#!/usr/bin/env python3
"""Run every verification suite against all shipped scenarios, printing each
scenario's worst residual next to the wall time it took (load and suites),
and each suite's wall time next to its tracemalloc peak and its work
counts: field evaluations (FieldDef.eval_jet calls) and jet products
(Jet.__mul__ and __rmul__ calls).  The peaks and counts come from a second
pass, one fresh scenario load per suite, under tracemalloc and with those
methods wrapped, so the timed pass runs untraced; the jet kernel's
scatter-bin cache is warm by then, so a peak is the suite's working memory.
The counts do not depend on the host's load, so they show a change of work
that wall time cannot resolve."""

import sys
import time
import tracemalloc
from pathlib import Path

from cqm.fieldlang import FieldDef
from cqm.jets import Jet
from cqm.scenario import load_scenario
from cqm.verify import SUITES, run_suites

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (owner, method, counter) of the calls the traced pass counts
COUNTED = ((FieldDef, "eval_jet", "evals"), (Jet, "__mul__", "products"), (Jet, "__rmul__", "products"))


def _count_calls(owner, name: str, counts: dict, key: str):
    """Wrap owner.name so each call adds one to counts[key]; returns the undo."""
    inner = getattr(owner, name)

    def wrapper(*args):
        counts[key] += 1
        return inner(*args)

    setattr(owner, name, wrapper)
    return lambda: setattr(owner, name, inner)


def traced_suite(path: Path, suite: str) -> tuple:
    """The tracemalloc peak in MiB, the field evaluations and the jet
    products of one suite on a fresh load of the scenario."""
    sc = load_scenario(path)
    counts = {"evals": 0, "products": 0}
    undo = [_count_calls(owner, name, counts, key) for owner, name, key in COUNTED]
    tracemalloc.start()
    try:
        run_suites(sc, [suite])
        return tracemalloc.get_traced_memory()[1] / 2**20, counts["evals"], counts["products"]
    finally:
        tracemalloc.stop()
        for restore in undo:
            restore()


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
        traced = [traced_suite(path, suite) for suite in SUITES]
        bad = [c for c in checks if not c.passed]
        failures += len(bad)
        status = "pass" if not bad else f"FAIL ({len(bad)})"
        worst = max(c.max_residual for c in checks if c.comparator == "le")
        print(f"{path.name:24s} {len(checks):2d} checks  worst residual {worst:9.2e}  {wall:5.2f} s  [{status}]")
        print("    suites (s, peak MiB, field evaluations/jet products):",
              ", ".join(f"{suite} {t:.2f} {peak:.2f} {evals}/{products}"
                        for suite, t, (peak, evals, products) in zip(SUITES, suite_walls, traced)))
        for c in bad:
            print(f"    FAIL {c.name}: {c.max_residual:.3e} vs {c.tolerance:.1e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
