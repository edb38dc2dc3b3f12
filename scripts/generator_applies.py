"""Counting the generator applies of `evolve_pauli`: the wrapper of
`quantum.pauli_generator` that the tests install, as a context manager for
the experiment scripts.  Usage:

    with counted_applies() as applies:
        traj = evolve_pauli(...)
    print(len(applies) / steps, "applies per step")
"""

import contextlib

from cqm import quantum


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
