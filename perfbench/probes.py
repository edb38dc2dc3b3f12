"""Per-layer timings of `cqm` public calls on fixed, seeded inputs.

Each probe times one public entry point of a layer outside any workload
loop and returns the median per-call time over a few batches.  Probes that
evaluate at a point take a fresh point per call, so the point-keyed caches
of `Background.jets` are missed as they are on a verify sample sweep.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The verify sample box of scenarios/curved_magnetic.json.
BOX = (-0.8, 0.8)


def per_call(fn, number: int, repeats: int = 5) -> float:
    """Median over `repeats` batches of the seconds per call of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def fresh_points(rng: np.random.Generator, count: int):
    return iter(rng.uniform(BOX[0], BOX[1], (count, 4)))


def jets_probes(mods, rng) -> dict:
    Jet = mods.jets.Jet
    size = mods.jets.SIZES[3]
    a = Jet(3, rng.standard_normal(size))
    b = Jet(3, rng.standard_normal(size))
    pos = Jet(3, np.concatenate(([2.0], 0.1 * rng.standard_normal(size - 1))))

    def compose():
        pos.recip()
        pos.sqrt()

    return {
        "jets.mul_us": per_call(lambda: a * b, 2000) * 1e6,
        "jets.compose_us": per_call(compose, 300) * 1e6 / 2.0,
    }


def point_probes(mods, curved, rng) -> dict:
    """Jet-level layers on the curved background (a Scenario)."""
    bg, qd = curved.background, curved.qd
    consts = bg.constants.table()
    g11 = bg.g[0][0]
    pts = fresh_points(rng, 4000)
    f, g = (mods.verify.random_special_function(rng, consts, name=n) for n in ("Pa", "Pb"))
    triple = [mods.verify.random_special_function(rng, consts, name=f"PJ{i}") for i in range(3)]
    yf, yg = mods.hermitian.from_special(f, qd), mods.hermitian.from_special(g, qd)

    def bundle():
        b = mods.background.BackgroundJets(bg, next(pts))
        for order in (1, 0):
            b.phi_ref(order)
            b.ktilde("moment", order)
            b.rho("moment", order)

    return {
        "fieldlang.eval_jet_us": per_call(lambda: g11.eval_jet(next(pts), 3), 300) * 1e6,
        "background.bundle_ms": per_call(bundle, 10) * 1e3,
        "pauli.coeff_values_us": per_call(lambda: qd.spin.coeff_values(next(pts)), 30) * 1e6,
        "special.extended_bracket_us":
            per_call(lambda: mods.special.extended_bracket(f, g, bg, next(pts)), 20) * 1e6,
        "special.jacobi_residual_ms":
            per_call(lambda: mods.special.jacobi_residual(*triple, bg, next(pts)), 3) * 1e3,
        "hermitian.lie_bracket_ms":
            per_call(lambda: mods.hermitian.lie_bracket_y(yf, yg, next(pts), 1), 5) * 1e3,
    }


def eval_array_probe(mods, expr: str, spec, consts) -> dict:
    """fieldlang.eval_array of one psi0 component on the nodes of spec."""
    fld = mods.fieldlang.FieldDef("psi0", mods.units.DIMLESS, expr, consts)
    mesh = np.meshgrid(*spec.coords(), indexing="ij")
    coords = [np.full(spec.shape, spec.time)] + list(mesh)
    return {"fieldlang.eval_array_ms": per_call(lambda: fld.eval_array(coords), 3) * 1e3}


def grid_probes(mods, qd, spec, rng, repeats: int) -> dict:
    """GridGeometry build and one generator apply on the given grid."""
    q = mods.quantum
    geom = None

    def build():
        nonlocal geom
        geom = q.GridGeometry(qd, spec)

    geometry_s = per_call(build, 1, repeats)
    gen = q.pauli_generator(geom)
    psi = rng.standard_normal(spec.shape + (2,)) + 1j * rng.standard_normal(spec.shape + (2,))
    values = 2 * int(np.prod(spec.shape))
    number = max(3, 200_000 // values)
    return {
        "quantum.geometry_s": geometry_s,
        "quantum.apply_ns_per_value": per_call(lambda: gen.apply_fn(psi), number) * 1e9 / values,
    }
