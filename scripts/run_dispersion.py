#!/usr/bin/env python3
"""Free Gaussian packet dispersion against the analytic width law
sigma(t) = sigma0 sqrt(1 + (D t / sigma0^2)^2) with D = u0 hbar / 2m, next to
the median wall time per step of seven evolutions and its quartiles.  The
final state is compared with an independent Crank-Nicolson reference: the
generator's dense matrix (one column per unit spinor grid, 766 unknowns on
free_packet's grid), one dense solve for the step matrix
(1 + i dt/2 H)^-1 (1 - i dt/2 H), and a matrix-vector product per step.  A
second run at --dt-far (default 0.008, past dt 0.0075, where the Neumann
series of the Cayley step used to diverge on this grid) prints its width
deviation too, so the figures show that accuracy sets dt."""

import argparse
from pathlib import Path

import numpy as np

from cqm.quantum import GridGeometry, evolve_pauli, pauli_generator
from cqm.scenario import load_scenario
from generator_applies import RUNS, counted_applies, timed_steps

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def width_deviations(traj, diffusivity: float):
    """(t, width, analytic width, relative deviation) at every step."""
    sigma0 = traj.widths[0]
    t = traj.times - traj.times[0]
    analytic = sigma0 * np.sqrt(1.0 + (diffusivity * t / sigma0**2) ** 2)
    return t, traj.widths, analytic, np.abs(traj.widths - analytic) / analytic


def dense_crank_nicolson(geom, psi0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """psi0 after `steps` Crank-Nicolson steps of the dense generator
    (module docstring)."""
    apply_fn = pauli_generator(geom).apply_fn
    eye = np.eye(psi0.size, dtype=complex)
    h = np.stack([apply_fn(e.reshape(psi0.shape)).ravel() for e in eye], axis=1)
    step = np.linalg.solve(eye + 0.5j * dt * h, eye - 0.5j * dt * h)
    psi = psi0.ravel()
    for _ in range(steps):
        psi = step @ psi
    return psi.reshape(psi0.shape)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(SCENARIOS / "free_packet.json"))
    ap.add_argument("--dt", type=float, default=0.004)
    ap.add_argument("--steps", type=int, default=3600)
    ap.add_argument("--dt-far", type=float, default=0.008)
    args = ap.parse_args()

    sc = load_scenario(args.scenario)
    c = sc.background.constants
    diffusivity = c.u0.value * c.hbar.value / (2.0 * c.m.value)
    psi0 = sc.initial_grid()
    geom = GridGeometry(sc.qd, sc.grid)
    traj, (q1, median, q3), applies = timed_steps(
        lambda: evolve_pauli(sc.qd, psi0, args.dt, args.steps, geom=geom), args.steps)
    t, widths, analytic, dev = width_deviations(traj, diffusivity)
    print(f"D = u0 hbar / 2m = {diffusivity}; sigma0 = {widths[0]:.4f}")
    print(f"{'t':>8} {'width':>10} {'analytic':>10} {'rel dev':>10}")
    for k in range(0, len(t), len(t) // 12):
        print(f"{t[k]:8.2f} {widths[k]:10.4f} {analytic[k]:10.4f} {dev[k]:10.2e}")
    print(f"norm drift {np.max(np.abs(traj.norms - traj.norms[0])):.2e}, "
          f"max width deviation {np.max(dev[::len(t) // 12]):.2%}")
    print(f"evolve_pauli {median:.1f} us per step, median of {RUNS} runs (quartiles {q1:.1f}-{q3:.1f}), "
          f"{applies:.2f} generator applies per step")
    reference = dense_crank_nicolson(geom, psi0.psi, args.dt, args.steps)
    print(f"final state {np.linalg.norm(traj.final.psi - reference) / np.linalg.norm(psi0.psi):.2e} "
          f"(relative) from the dense Crank-Nicolson reference")
    far_steps = int(round(args.steps * args.dt / args.dt_far))
    with counted_applies() as far_applies:
        far = evolve_pauli(sc.qd, psi0, args.dt_far, far_steps, geom=geom)
    far_dev = width_deviations(far, diffusivity)[3]
    print(f"dt {args.dt_far}: {far_steps} steps to the same time, max width deviation "
          f"{np.max(far_dev[::max(1, len(far_dev) // 12)]):.2%}, norm drift "
          f"{np.max(np.abs(far.norms - far.norms[0])):.2e}, {len(far_applies) / far_steps:.2f} generator applies "
          f"per step")


if __name__ == "__main__":
    main()
