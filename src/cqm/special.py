"""Special phase functions and their Lie brackets.

A special function is the tuple (f0, f^i, fbrev, phi_a): quadratic velocity
weight, momentum components (chart), observer-adapted scalar part, and the
spin covector in orthonormal-frame components.  Evaluation on the extended
phase space is

    f0 (m u^0 / 2 hbar) g_ij v^i v^j + f^i (m u^0 / hbar) g_ij v^j + fbrev
    + phi_a s^a.

Every function has one evaluator, `jets_fn`, which gives its component
jets and receives `where` as given (a point, a cloud or a background
bundle); a bracket of two functions is again a function, evaluated through
theirs on the same bundle.  The extended bracket is computed from the
component formulas in reference-adapted coordinates.  Its spin part uses
the moment-joined restricted connection (frame coefficients Ktilde and the
curvature axial covector rho), its scalar part the charge-joined
cosymplectic pullback Phi.
A bracket computes f0 and f^i at its own order, and its scalar part (through
Phi) and spin part (through Ktilde and rho) when they are read, at the order
of the reader (`ComponentJets`).  The grid operators read f^i at order 1 and
every value at order 0, so there rho carries its two metric derivatives and
the frame goes to order 2.  Nested brackets are evaluated with jet-valued
components so outer derivatives are exact: the Jacobi check reads an inner
bracket's spin part at order 1, and only that caps the jet order at 3 (rho's
two metric derivatives, one more for the outer bracket).

A residual evaluates each function it reads once, at the highest order it
reads, and every reader takes truncations of that one evaluation
(`evaluated`).  This is exact: every jet operation commutes with
truncation bit for bit, so the truncation is the lower-order evaluation.

Several functions evaluate as one through `stack_functions`: their
component jets are stacked along a leading batch axis, (m, N) on an (N,)
cloud, and the bundle's (N,) jets broadcast against them (jets.py), so one
pass of the bracket engine evaluates every draw, each with the arithmetic
it would get alone.  Values and residuals then carry the stack's batch:
(m, N) arrays where a single function gives (N,) ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import Background, BackgroundJets, PhasePoint, as_point
from .jets import Jet, jet_stack, jet_sum, max_abs, value_array
from .pauli import cross


@dataclass(frozen=True)
class SpecialFunction:
    """A special function and its one evaluator `jets_fn`, a
    (where, order) -> ComponentJets map that gives all eight components in
    one pass (a derived function's scalar and spin parts when they are
    read).  It receives `where` as given: a point (4,), a (4, N) cloud or a
    `BackgroundJets` bundle.

    A function built from component fields (f0, f^i, fbrev, phi_a) gets the
    evaluator of those fields, which reads the points off `where`; the
    fields stay as data, which float oracles can evaluate.  A derived
    function (a bracket, say) passes only `name` and `jets_fn` and has no
    component fields; its evaluator calls `bg.jets(where)`, so on a bundle
    it shares that bundle."""

    f0: object = None
    fi: tuple = ()
    fbrev: object = None
    phi: tuple = ()
    name: str = ""
    jets_fn: object = None

    def __post_init__(self):
        if self.jets_fn is None:
            fields = (self.f0, *self.fi, self.fbrev, *self.phi)

            def jets_fn(where, order):
                point = as_point(where)
                j = [c.eval_jet(point, order) for c in fields]
                return ComponentJets(j[0], j[1:4], j[4], j[5:], order)

            object.__setattr__(self, "jets_fn", jets_fn)

    @classmethod
    def scalar(cls, f0, fi, fbrev, name: str = "") -> "SpecialFunction":
        from .fieldlang import zero_field

        return cls(f0, tuple(fi), fbrev, tuple(zero_field() for _ in range(3)), name)


@dataclass(frozen=True)
class SpecialValue:
    """Componentwise value of a special function (or of a bracket) at a point."""

    f0: float
    fi: np.ndarray
    fbrev: float
    phi: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.f0], self.fi, [self.fbrev], self.phi))


class ComponentJets:
    """The component jets (f0, f^i, fbrev, phi_a) of a special function at
    one order, at a point or on a cloud.

    A derived function may give its scalar part fbrev and its spin part phi
    as functions of the order: each is computed on first read, at the order
    of the ComponentJets through which it is read, and `truncate` passes an
    unread part on unread.  So a reader that takes f^i at order 1 and the
    values through `truncate(0)`, as the grid operators do, builds a
    bracket's spin part (rho, hence the frame to order 2) and scalar part
    (Phi) at order 0."""

    def __init__(self, f0: Jet, fi: list, fbrev, phi, order: int):
        self.f0 = f0
        self.fi = fi
        self.order = order
        self._parts = {"fbrev": fbrev, "phi": phi}

    def _read(self, name: str):
        part = self._parts[name]
        if callable(part):
            part = self._parts[name] = part(self.order)
        return part

    @property
    def fbrev(self) -> Jet:
        return self._read("fbrev")

    @property
    def phi(self) -> list:
        return self._read("phi")

    def truncate(self, order: int) -> "ComponentJets":
        if order == self.order:
            return self
        fbrev, phi = self._parts["fbrev"], self._parts["phi"]
        return ComponentJets(
            self.f0.truncate(order),
            [j.truncate(order) for j in self.fi],
            fbrev if callable(fbrev) else fbrev.truncate(order),
            phi if callable(phi) else [j.truncate(order) for j in phi],
            order,
        )

    def values(self, batch: tuple = ()) -> SpecialValue:
        """Component values at a point (batch ()) or as arrays on a cloud
        (batch (N,)), of shape (m, N) for a stack of m draws; point-shaped
        components broadcast to the cloud."""
        v = value_array([self.f0, *self.fi, self.fbrev, *self.phi], batch)
        f0, fbrev = (v[0], v[4]) if v.ndim > 1 else (float(v[0]), float(v[4]))
        return SpecialValue(f0, v[1:4], fbrev, v[5:])

    @staticmethod
    def stack(parts: list, batch: tuple) -> "ComponentJets":
        """The component jets of m functions at one order, on points of
        batch shape `batch`, as one stack of batch (m,) + batch, draw t at
        index t; a derived part is read (at the parts' order) to be
        stacked."""
        return ComponentJets(
            jet_stack([c.f0 for c in parts], batch),
            [jet_stack([c.fi[i] for c in parts], batch) for i in range(3)],
            jet_stack([c.fbrev for c in parts], batch),
            [jet_stack([c.phi[a] for c in parts], batch) for a in range(3)],
            parts[0].order,
        )

    def x_components(self) -> list:
        """Chart components of X[f]: (f0, -f^i)."""
        return [self.f0, -self.fi[0], -self.fi[1], -self.fi[2]]


def stack_functions(funcs) -> SpecialFunction:
    """The functions as one, whose component jets are the stack of theirs
    (ComponentJets.stack): every value and residual of it is an (m, N)
    array on an (N,) cloud, row t that of funcs[t]."""

    def jets_fn(where, order):
        return ComponentJets.stack([f.jets_fn(where, order) for f in funcs], as_point(where).shape[1:])

    return SpecialFunction(name=f"stack({', '.join(f.name for f in funcs)})", jets_fn=jets_fn)


def component_jets(f: SpecialFunction, where, order: int) -> ComponentJets:
    """Component jets at a point, on a (4, N) cloud or on a bundle's points;
    `where` reaches the evaluator as given, so a derived function shares a
    bundle it is handed."""
    return f.jets_fn(where, order)


def evaluated(f: SpecialFunction, bundle: BackgroundJets, order: int) -> SpecialFunction:
    """f evaluated once, on `bundle` at `order`: a function whose evaluator
    gives truncations of that one ComponentJets, equal bit for bit to
    evaluations of f at the lower orders.  It raises for any other `where`
    and for an order above `order`.  A residual hands it to every reader of
    f and lets it go when it returns."""
    c = f.jets_fn(bundle, order)

    def jets_fn(where, n):
        if where is not bundle:
            raise ValueError(f"{f.name} was evaluated on another bundle")
        if n > order:
            raise ValueError(f"{f.name} was evaluated at order {order}, not {n}")
        return c.truncate(n)

    return SpecialFunction(name=f.name, jets_fn=jets_fn)


def eval_special(f: SpecialFunction, bg: Background, p: PhasePoint):
    """The function's value: a float at a phase point, an (N,) array on a
    cloud of them, (m, N) for a stack of m functions."""
    b = bg.jets(p.x)
    batch = b.point.shape[1:]
    g = value_array(b.metric(0), batch)
    c = component_jets(f, b, 0).values(batch)
    pref = bg.constants.metric_prefactor
    gv = [sum(g[i][j] * p.v[j] for j in range(3)) for i in range(3)]
    quad = sum(p.v[i] * gv[i] for i in range(3))
    lin = sum(c.fi[i] * gv[i] for i in range(3))
    spin = sum(c.phi[a] * p.s[a] for a in range(3))
    return c.f0 * 0.5 * pref * quad + pref * lin + c.fbrev + spin


# ---------------------------------------------------------------------------
# bracket engines (jet-generic so brackets nest exactly)


def extended_bracket_jets(a: ComponentJets, b: ComponentJets, bundle: BackgroundJets, order: int) -> ComponentJets:
    """The bracket at `order` from inputs at order+1.  f0 and f^i are
    computed at once; the scalar and spin parts when read, at the order of
    the reader, from the inputs truncated to one order more, on `bundle`."""
    f0_out = _lam_component(a, b, a.f0, b.f0, order)
    fi_out = [_lam_component(a, b, a.fi[i], b.fi[i], order) for i in range(3)]
    return ComponentJets(
        f0_out,
        fi_out,
        lambda n: _bracket_scalar(a.truncate(n + 1), b.truncate(n + 1), bundle, n),
        lambda n: _bracket_spin(a.truncate(n + 1), b.truncate(n + 1), bundle, n),
        order,
    )


def _lam_component(a: ComponentJets, b: ComponentJets, fa: Jet, fb: Jet, order: int) -> Jet:
    """X[a] fb - X[b] fa for components fa of a and fb of b."""
    out = (
        a.f0.truncate(order) * fb.derive(0)
        - b.f0.truncate(order) * fa.derive(0)
    )
    for h in range(3):
        out = out - a.fi[h].truncate(order) * fb.derive(h + 1)
        out = out + b.fi[h].truncate(order) * fa.derive(h + 1)
    return out


def _bracket_scalar(a: ComponentJets, b: ComponentJets, bundle: BackgroundJets, order: int) -> Jet:
    """Scalar part: the component bracket of fbrev and the cosymplectic term Phi."""
    phi2 = bundle.phi_ref(order)
    fb_out = _lam_component(a, b, a.fbrev, b.fbrev, order)
    a0 = a.f0.truncate(order)
    b0 = b.f0.truncate(order)
    for h in range(3):
        ah = a.fi[h].truncate(order)
        bh = b.fi[h].truncate(order)
        fb_out = fb_out - (a0 * bh - b0 * ah) * phi2[0][h + 1]
        for k in range(3):
            fb_out = fb_out + ah * b.fi[k].truncate(order) * phi2[h + 1][k + 1]
    return fb_out


def _bracket_spin(a: ComponentJets, b: ComponentJets, bundle: BackgroundJets, order: int) -> list:
    """Spin part: the curvature term rho, the covariant derivatives of phi
    along X[a] and X[b], and phi' x phi."""
    rho = bundle.rho("moment", order)  # first: it builds ktilde at order + 1
    kt = bundle.ktilde("moment", order)
    xa = a.truncate(order).x_components()
    xb = b.truncate(order).x_components()

    def covariant(phi_jets, lam):
        # covector transport d_lam phi_k - Ktilde_lam^k_j phi_j; this is the
        # rule the endomorphism picture induces (nabla = d - ad of the
        # connection matrix), and what makes the field correspondence exact.
        out = []
        for k in range(3):
            acc = phi_jets[k].derive(lam)
            for j in range(3):
                acc = acc - kt[lam][k][j] * phi_jets[j].truncate(order)
            out.append(acc)
        return out

    phi_out = [jet_sum(rho[lam][mu][k] * xa[lam] * xb[mu] * (-1.0) for lam in range(4) for mu in range(4))
               for k in range(3)]
    for lam in range(4):
        dphi_b = covariant(b.phi, lam)
        dphi_a = covariant(a.phi, lam)
        for k in range(3):
            phi_out[k] = phi_out[k] + xa[lam] * dphi_b[k] - xb[lam] * dphi_a[k]
    spin = cross([p.truncate(order) for p in b.phi], [p.truncate(order) for p in a.phi])  # phi' x phi
    return [phi_out[k] + spin[k] for k in range(3)]


# ---------------------------------------------------------------------------
# public operations


def extended_bracket(f: SpecialFunction, fp: SpecialFunction, bg: Background, where) -> SpecialValue:
    """The bracket's component values at a point, or (N,) arrays of them on
    a (4, N) cloud or on a bundle's points ((m, N) for stacks of m)."""
    b = bg.jets(where)
    a = component_jets(f, b, 1)
    c = component_jets(fp, b, 1)
    return extended_bracket_jets(a, c, b, 0).values(b.point.shape[1:])


def jacobi_residual(f1: SpecialFunction, f2: SpecialFunction, f3: SpecialFunction, bg: Background, where):
    """Max-norm of the cyclic sum [[F1,[F2,F3]]] + cyc: a float at a point,
    an (N,) array of per-point values on a (4, N) cloud or on a bundle's
    points.  The three cyclic terms are evaluated as one stack, and added
    in the order of the sum."""
    b = bg.jets(where)
    batch = b.point.shape[1:]
    comps = [component_jets(f, b, 2) for f in (f1, f2, f3)]
    # term t of the stack is [[F_i, [F_j, F_k]]] for the t-th rotation (i, j, k)
    outer = ComponentJets.stack([c.truncate(1) for c in comps], batch)
    inner = extended_bracket_jets(ComponentJets.stack(comps[1:] + comps[:1], batch),
                                  ComponentJets.stack(comps[2:] + comps[:2], batch), b, 1)
    del comps  # the stacks hold copies
    terms = extended_bracket_jets(outer, inner, b, 0).values(batch).as_array()  # [component, term, point]
    total = np.zeros(terms.shape[:1] + terms.shape[2:])
    for t in range(3):
        total += terms[:, t]
    return max_abs(total, total.shape[1:])
