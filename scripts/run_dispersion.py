#!/usr/bin/env python3
"""Free Gaussian packet dispersion against the analytic width law
sigma(t) = sigma0 sqrt(1 + (D t / sigma0^2)^2) with D = u0 hbar / 2m, next to
the wall time of the evolution."""

import argparse
import time
from pathlib import Path

import numpy as np

from cqm.quantum import GridGeometry, evolve_pauli
from cqm.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(SCENARIOS / "free_packet.json"))
    ap.add_argument("--dt", type=float, default=0.004)
    ap.add_argument("--steps", type=int, default=3600)
    args = ap.parse_args()

    sc = load_scenario(args.scenario)
    c = sc.background.constants
    diffusivity = c.u0.value * c.hbar.value / (2.0 * c.m.value)
    psi0 = sc.initial_grid()
    geom = GridGeometry(sc.qd, sc.grid)
    start = time.perf_counter()
    traj = evolve_pauli(sc.qd, psi0, args.dt, args.steps, geom=geom)
    wall = time.perf_counter() - start
    sigma0 = traj.widths[0]
    print(f"D = u0 hbar / 2m = {diffusivity}; sigma0 = {sigma0:.4f}")
    print(f"{'t':>8} {'width':>10} {'analytic':>10} {'rel dev':>10}")
    worst = 0.0
    for k in range(0, len(traj.times), len(traj.times) // 12):
        t = traj.times[k]
        analytic = sigma0 * np.sqrt(1.0 + (diffusivity * t / sigma0**2) ** 2)
        dev = abs(traj.widths[k] - analytic) / analytic
        worst = max(worst, dev)
        print(f"{t:8.2f} {traj.widths[k]:10.4f} {analytic:10.4f} {dev:10.2e}")
    print(f"norm drift {np.max(np.abs(traj.norms - traj.norms[0])):.2e}, "
          f"max width deviation {worst:.2%}")
    print(f"evolve_pauli {wall:.3f} s ({wall / args.steps * 1e6:.1f} us per step)")


if __name__ == "__main__":
    main()
