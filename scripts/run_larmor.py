#!/usr/bin/env python3
"""Larmor precession experiment: a single spin in a uniform magnetic field.

Evolves psi0 = (1, 1)/sqrt(2) on a 1x1x1 grid, measures the <sigma_1>
precession frequency and compares it with u0 mu |B|, next to the wall time
of the evolution.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from cqm.quantum import GridGeometry, evolve_pauli, measure_frequency
from cqm.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(SCENARIOS / "larmor.json"))
    ap.add_argument("--dt", type=float, default=0.1)
    ap.add_argument("--periods", type=float, default=25.0)
    args = ap.parse_args()

    sc = load_scenario(args.scenario)
    c = sc.background.constants
    b_norm = float(np.linalg.norm([s.value for s in sc.background.magnetic_field((0, 0, 0, 0))]))
    omega = c.u0.value * c.mu.value * b_norm
    steps = int(np.ceil(args.periods * 2 * np.pi / omega / args.dt))
    print(f"expected omega = u0 mu |B| = {omega:.6f}; running {steps} steps at dt = {args.dt}")

    psi0 = sc.initial_grid()
    geom = GridGeometry(sc.qd, sc.grid)
    start = time.perf_counter()
    traj = evolve_pauli(sc.qd, psi0, args.dt, steps, geom=geom)
    wall = time.perf_counter() - start
    measured = measure_frequency(traj.sx, args.dt)
    drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
    print(f"measured omega   = {measured:.6f}  (rel err {abs(measured - omega) / omega:.2e})")
    print(f"norm drift       = {drift:.2e}")
    print(f"evolve_pauli     = {wall:.3f} s ({wall / steps * 1e6:.1f} us per step)")
    print(f"<sigma> at t_end = ({traj.sx[-1]:+.4f}, {traj.sy[-1]:+.4f}, {traj.sz[-1]:+.4f})")


if __name__ == "__main__":
    main()
