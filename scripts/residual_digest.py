#!/usr/bin/env python3
"""Every worst residual of `cqm verify`, exactly: one line
`scenario seed check max_residual passed` per check, for every shipped
scenario at its default seed and at seeds 1 and 16, all suites, with the
residual written as `float.hex`.  Two trees that give the same output give
the same verify reports bit for bit; `diff` the outputs to compare them."""

from pathlib import Path

from cqm.scenario import load_scenario
from cqm.verify import run_suites

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    for path in sorted(SCENARIOS.glob("*.json")):
        default = load_scenario(path).seed
        for seed in (default, 1, 16):
            sc = load_scenario(path)
            sc.seed = seed
            for c in run_suites(sc):
                print(path.stem, seed, c.name, float(c.max_residual).hex(), c.passed)


if __name__ == "__main__":
    main()
