"""Counting the generator applies of `evolve_pauli`: the wrapper of
`quantum.pauli_generator` that the tests install, as a context manager for
the experiment scripts, and the timing of repeated evolutions.  Usage:

    with counted_applies() as applies:
        traj = evolve_pauli(...)
    print(len(applies) / steps, "applies per step")

    traj, (q1, median, q3), per_step = timed_steps(lambda: evolve_pauli(...), steps)
"""

import contextlib
import time

import numpy as np

from cqm import quantum

# one run on a loaded host can be off by 2x, so the timing figure is the
# median of several
RUNS = 7


@contextlib.contextmanager
def counted_applies():
    """A list that gains one entry per apply of every generator that
    quantum.pauli_generator returns inside the block."""
    applies = []
    original = quantum.pauli_generator

    def counting(geom):
        op = original(geom)
        return quantum.GridOperator(op.label, lambda psi: applies.append(1) or op.apply_fn(psi), op.symmetric)

    quantum.pauli_generator = counting
    try:
        yield applies
    finally:
        quantum.pauli_generator = original


def timed_steps(evolve, steps: int):
    """Runs evolve() RUNS times: (its last result, the lower quartile,
    median and upper quartile of the wall time per step in us over the runs,
    generator applies per step)."""
    walls = []
    with counted_applies() as applies:
        for _ in range(RUNS):
            start = time.perf_counter()
            result = evolve()
            walls.append(time.perf_counter() - start)
    quartiles = tuple(float(q) for q in np.percentile(walls, [25, 50, 75]) / steps * 1e6)
    return result, quartiles, len(applies) / (RUNS * steps)
