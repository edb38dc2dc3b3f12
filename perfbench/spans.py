"""Spans and counters for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into `cqm` (scenario
load, initial grid, GridGeometry, generator, each verify suite, each
evolution) and kept in memory until the run ends.  Counters wrap a few hot
entry points of the program from outside; `install_counters` patches the
classes of the currently imported `cqm` modules and returns a callable that
undoes the patch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = "setup-0"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Seconds per layer (the span name up to its first '.'), each span's
        duration minus the part of it covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return out


class Counters:
    """Call counts at the wrapped entry points."""

    NAMES = ("jets.mul_calls", "background.jets_calls", "background.bundles_built",
             "quantum.geometry_builds", "quantum.generator_applies")

    def __init__(self):
        self.counts = dict.fromkeys(self.NAMES, 0)

    def reset(self):
        for k in self.NAMES:
            self.counts[k] = 0

    def snapshot(self) -> dict:
        return dict(self.counts)

    def since(self, snap: dict) -> dict:
        return {k: self.counts[k] - snap[k] for k in self.NAMES}


def install_counters(counters: Counters, tracer: Tracer, jets, background, quantum):
    """Wrap Jet.__mul__/__rmul__, Background.jets, BackgroundJets.__init__,
    GridGeometry.__init__ (also a span) and the apply_fn of every generator
    that quantum.pauli_generator returns.  Returns the undo callable."""
    counts = counters.counts
    saved = [
        (jets.Jet, "__mul__", jets.Jet.__mul__),
        (jets.Jet, "__rmul__", jets.Jet.__rmul__),
        (background.Background, "jets", background.Background.jets),
        (background.BackgroundJets, "__init__", background.BackgroundJets.__init__),
        (quantum.GridGeometry, "__init__", quantum.GridGeometry.__init__),
        (quantum, "pauli_generator", quantum.pauli_generator),
    ]
    orig_mul, orig_rmul, orig_jets, orig_bundle, orig_geom, orig_gen = (s[2] for s in saved)

    def mul(self, other):
        counts["jets.mul_calls"] += 1
        return orig_mul(self, other)

    def rmul(self, other):
        counts["jets.mul_calls"] += 1
        return orig_rmul(self, other)

    def bg_jets(self, point):
        counts["background.jets_calls"] += 1
        return orig_jets(self, point)

    def bundle_init(self, bg, point):
        counts["background.bundles_built"] += 1
        orig_bundle(self, bg, point)

    def geom_init(self, qd, spec):
        counts["quantum.geometry_builds"] += 1
        with tracer.span("quantum.GridGeometry.build"):
            orig_geom(self, qd, spec)

    def generator(geom):
        op = orig_gen(geom)
        inner = op.apply_fn

        def apply_fn(psi):
            counts["quantum.generator_applies"] += 1
            return inner(psi)

        return quantum.GridOperator(op.label, apply_fn, op.symmetric)

    jets.Jet.__mul__ = mul
    jets.Jet.__rmul__ = rmul
    background.Background.jets = bg_jets
    background.BackgroundJets.__init__ = bundle_init
    quantum.GridGeometry.__init__ = geom_init
    quantum.pauli_generator = generator

    def undo():
        for owner, attr, value in saved:
            setattr(owner, attr, value)

    return undo
