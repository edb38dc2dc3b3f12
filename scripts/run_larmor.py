#!/usr/bin/env python3
"""Larmor precession experiment: a single spin in a uniform magnetic field.

Evolves psi0 = (1, 1)/sqrt(2) on a 1x1x1 grid, measures the <sigma_1>
precession frequency and compares it with u0 mu |B|, next to the median
wall time per step of seven evolutions and its quartiles.  The final state
is compared with the closed-form Crank-Nicolson rotation: on one node the
generator is a 2x2 Hermitian matrix h0 + h.sigma, and n Cayley steps turn
psi by sum_+- c(h0 +- |h|)^n P+-, with c(lam) = (1 - i dt lam/2) /
(1 + i dt lam/2) = exp(-2 i atan(dt lam/2)) and the projectors
P+- = (1 +- h.sigma/|h|)/2.
"""

import argparse
from pathlib import Path

import numpy as np

from cqm.pauli import SIGMA
from cqm.quantum import GridGeometry, evolve_pauli, measure_frequency, pauli_generator
from cqm.scenario import load_scenario
from generator_applies import RUNS, timed_steps

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def cayley_rotation(geom, psi0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """psi0 after `steps` Crank-Nicolson steps of the one-node generator, in
    closed form (module docstring)."""
    apply_fn = pauli_generator(geom).apply_fn
    h = np.stack([apply_fn(e.reshape(psi0.shape)).ravel() for e in np.eye(2, dtype=complex)], axis=1)
    h0 = 0.5 * np.trace(h).real
    field = np.array([0.5 * np.trace(s @ h).real for s in SIGMA])
    size = np.linalg.norm(field)
    out = np.zeros(2, dtype=complex)
    for sign in (1.0, -1.0):
        lam = h0 + sign * size
        turn = np.exp(-2j * steps * np.arctan(0.5 * dt * lam))  # c(lam)^steps, one rounding of its phase
        projector = 0.5 * (np.eye(2) + sign * sum(f * s for f, s in zip(field, SIGMA)) / size)
        out += turn * (projector @ psi0.ravel())
    return out.reshape(psi0.shape)


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
    traj, (q1, median, q3), applies = timed_steps(
        lambda: evolve_pauli(sc.qd, psi0, args.dt, steps, geom=geom), steps)
    measured = measure_frequency(traj.sx, args.dt)
    drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
    reference = cayley_rotation(geom, psi0.psi, args.dt, steps)
    print(f"measured omega   = {measured:.6f}  (rel err {abs(measured - omega) / omega:.2e})")
    print(f"norm drift       = {drift:.2e}")
    print(f"final state      = {np.linalg.norm(traj.final.psi - reference):.2e} from the closed-form "
          f"Crank-Nicolson rotation")
    print(f"evolve_pauli     = {median:.1f} us per step, median of {RUNS} runs (quartiles {q1:.1f}-{q3:.1f}), "
          f"{applies:.2f} generator applies per step")
    print(f"<sigma> at t_end = ({traj.sx[-1]:+.4f}, {traj.sy[-1]:+.4f}, {traj.sz[-1]:+.4f})")


if __name__ == "__main__":
    main()
