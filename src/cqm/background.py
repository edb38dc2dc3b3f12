"""The classical Galileian arena.

A Background bundles the spatial metric g_ij (L^2-scaled), the free slots
K^i_00 and K^i_0j of the gravitational spacetime connection (whose time row
vanishes; the bundle derives the slots the metric fixes), the
electromagnetic 2-form F and the coupling constants.  Everything downstream
(the gravitational and joined connections, orthonormal frames, curvatures,
the spin connection as the axial vector of Ktilde, the cosymplectic table,
observer pullbacks, the magnetic field) is read off one `BackgroundJets`
bundle, `Background.jets(where)`, at a point or on a (4, N) cloud of
points, as jets, so derivatives are exact to the requested order.  A
bundle stands for its points: passed on in place of them, it shares what
it has computed; on a constant background all bundles share one cache.

Chart conventions: a single global chart (x0..x3), dimensionless coordinates,
dt = u0 dx0, reference observer = chart-adapted (zero velocity components).
Spatial chart indices run 1..3; arrays use 0..2 for them.  2-form component
tables store honest evaluations w(d_a, d_b).  The cosymplectic sector is read
off one velocity form theta (`velocity_form`) and one exterior derivative:
Omega = Phi[reference] + d Theta, Phi[o] = Phi[reference] + d theta[o], and
the observed potential Ch[o] = A + theta[o] (CONVENTIONS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fieldlang as fl
from .fieldlang import FieldDef
from .jets import MAX_ORDER, Jet, jet_sum, value_array
from .pauli import InconsistentSystem, axis_vector, spin_curvature_jets
from .units import (
    BFIELD_FRAME_DIM,
    CHARGE_DIM,
    EM_FIELD_DIM,
    HBAR_DIM,
    MASS,
    METRIC_DIM,
    MOMENT_DIM,
    TIME,
    DimensionMismatch,
    ScaledReal,
)


class NotPositiveDefinite(ValueError):
    """Metric fails positive-definiteness at an evaluation point."""


def as_point(x) -> np.ndarray:
    """A point as a (4,) array, or a cloud of N points as a coordinate-major
    (4, N) array; a bundle stands for its points."""
    if isinstance(x, BackgroundJets):
        return x.point
    p = np.asarray(x, dtype=float)
    if p.ndim != 2 or p.shape[0] != 4:
        p = p.reshape(4)
    finite = np.isfinite(p)
    if not np.all(finite):
        # name one point: the repr of a whole cloud runs to many lines
        first = p if p.ndim == 1 else p[:, int(np.argmin(np.all(finite, axis=0)))]
        raise ValueError(f"non-finite evaluation point {first.tolist()}")
    return p


def _require_positive(j: Jet, what: str, point: np.ndarray):
    """NotPositiveDefinite unless the value slot of j is positive at the point
    or at every point of the cloud."""
    value = j.value
    bad = np.asarray(value <= 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        where = point if point.ndim == 1 else point[:, k]
        value = value if bad.ndim == 0 else value[k]
        raise NotPositiveDefinite(what.format(value=value, where=where.tolist()))


@dataclass(frozen=True)
class PhasePoint:
    """Spacetime point, velocity coordinates x^i_0, and orthonormal-frame
    spin components: x (4,), v and s (3,) at a phase point; x (4, N), v and
    s (3, N) on a cloud of N phase points.  v and s default to zero.  x may
    be a `BackgroundJets` bundle, kept as given; it stands for its points."""

    x: object
    v: np.ndarray = None
    s: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.x, BackgroundJets):
            object.__setattr__(self, "x", as_point(self.x))
        shape = (3,) + as_point(self.x).shape[1:]
        for name in ("v", "s"):
            a = getattr(self, name)
            a = np.zeros(shape) if a is None else np.asarray(a, dtype=float).reshape(shape)
            object.__setattr__(self, name, a)
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.s))):
            raise ValueError("non-finite phase point data")


@dataclass(frozen=True)
class Observer:
    """Chart components o^i_0 of an observer; the reference observer has all
    components identically zero."""

    components: tuple

    @classmethod
    def reference(cls) -> "Observer":
        return cls(tuple(fl.zero_field(f"o{i}") for i in range(3)))

    def velocity(self, point) -> np.ndarray:
        """Values o^i_0: (3,) at a point, (3, N) on a (4, N) cloud."""
        point = as_point(point)
        return value_array(self.jets(point, 0), point.shape[1:])

    def jets(self, point, order: int) -> list:
        return [c.eval_jet(point, order) for c in self.components]


@dataclass(frozen=True)
class Constants:
    m: ScaledReal
    q: ScaledReal
    hbar: ScaledReal
    mu: ScaledReal
    u0: ScaledReal
    extras: Mapping[str, ScaledReal] = field(default_factory=dict)

    def __post_init__(self):
        expected = {"m": MASS, "q": CHARGE_DIM, "hbar": HBAR_DIM, "mu": MOMENT_DIM, "u0": TIME}
        for name, dim in expected.items():
            got = getattr(self, name).dim
            if got != dim:
                raise DimensionMismatch(f"constant {name!r} must have dimension {dim}, got {got}")

    def table(self) -> dict:
        base = {"m": self.m, "q": self.q, "hbar": self.hbar, "mu": self.mu, "u0": self.u0}
        base.update(self.extras)
        return base

    @property
    def metric_prefactor(self) -> float:
        """m u^0 / hbar, the velocity-form weight; dimension L^-2."""
        return self.m.value / (self.hbar.value * self.u0.value)


class Background:
    """Immutable chart-level description of the classical fields.  Whether
    they are constant (`fields_constant`) is decided here, once: then its
    bundles share one cache, and no caller branches on it for speed."""

    def __init__(
        self,
        g: Sequence[Sequence[FieldDef]],
        kgrav: Mapping[tuple, FieldDef],
        f_em: Mapping[tuple, FieldDef],
        constants: Constants,
    ):
        self.g = [[g[i][j] for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(3):
                if self.g[i][j].dim != METRIC_DIM:
                    raise DimensionMismatch(f"metric entry g[{i}][{j}] must have dimension {METRIC_DIM}")
        # the free slots of the gravitational connection, keyed (i, lam, mu)
        # with i in 1..3 upper and lam <= mu; the bundle adds them to the
        # slots the metric fixes
        self.kgrav = {}
        for (i, lam, mu), fld in kgrav.items():
            key = (i, min(lam, mu), max(lam, mu))
            self.kgrav[key] = fld
        # the chart variables each metric entry references: d_lam g_ij is
        # formed only where g_ij depends on x^lam
        self.g_vars = [[fl.variables(e.expr) for e in row] for row in self.g]
        # the frame, built from every entry, depends on those variables only
        self.frame_vars = frozenset().union(*sum(self.g_vars, []))
        # F keyed by (lam, mu), lam < mu.
        self.f_em = {}
        for (lam, mu), fld in f_em.items():
            if lam >= mu:
                raise ValueError("F components must be keyed with lam < mu")
            if fld.dim != EM_FIELD_DIM:
                raise DimensionMismatch(f"F[{lam}{mu}] must have dimension {EM_FIELD_DIM}")
            self.f_em[(lam, mu)] = fld
        self.constants = constants
        # g, Kgrav and F all constant: every background quantity is one number
        self.fields_constant = all(e.constant for e in [*sum(self.g, []), *self.kgrav.values(), *self.f_em.values()])
        self._constant_cache = {} if self.fields_constant else None

    # -- jet bundles -----------------------------------------------------------

    def jets(self, where) -> "BackgroundJets":
        """The jet bundle at a point (4,) or on a (4, N) cloud: a new one for a
        point or a cloud, `where` itself for a bundle of this background.  A
        caller that needs several quantities at the same points passes the
        bundle on in place of the points."""
        if isinstance(where, BackgroundJets):
            if where.bg is not self:
                raise ValueError("the bundle belongs to another background")
            return where
        return BackgroundJets(self, as_point(where))

    # -- public operations ---------------------------------------------------

    def magnetic_field(self, point) -> list:
        """Orthonormal-frame components B^a = 1/2 eps^{abc} Fcheck_{bc}."""
        b = self.jets(point)
        jets = b.magnetic(0)
        return [ScaledReal(j.value, BFIELD_FRAME_DIM) for j in jets]


# ---------------------------------------------------------------------------


def _truncate(entry, order: int):
    """A jet, or nested lists and tuples of jets, truncated to `order`."""
    if isinstance(entry, Jet):
        return entry.truncate(order)
    return type(entry)(_truncate(e, order) for e in entry)


def _zeros(shape, order):
    if not shape:
        return Jet.const(0.0, order)
    return [_zeros(shape[1:], order) for _ in range(shape[0])]


class BackgroundJets:
    """All derived background quantities at one point or on a (4, N) cloud of
    points, as jets, with caching.

    Each accessor takes the jet order of its *output*; primitives are pulled
    at whatever deeper order the derivative chain needs, and a quantity
    cached at a higher order serves a lower one by truncation.
    On a constant background every bundle shares the background's one
    cache: a field with no chart variable gives point-shaped jets, which
    every jet operation keeps point-shaped, so each entry holds on every
    point and cloud.  Each bundle keeps its own `point`.
    """

    def __init__(self, bg: Background, point: np.ndarray):
        self.bg = bg
        self.point = point
        self._cache: dict = {} if bg._constant_cache is None else bg._constant_cache

    def _get(self, key, builder):
        """The cached entry of `key`, whose last item is the jet order.  A
        missing entry is the truncation of the same quantity cached at a
        higher order, when there is one, else built.  Every jet operation
        gives at a lower order the truncation of its result at a higher one,
        bit for bit (a product sums the same table terms in the same order),
        so the two agree."""
        if key not in self._cache:
            *name, order = key
            higher = [k for m in range(order + 1, MAX_ORDER + 1) if (k := (*name, m)) in self._cache]
            self._cache[key] = _truncate(self._cache[higher[0]], order) if higher else builder()
        return self._cache[key]

    # -- primitives ----------------------------------------------------------

    def metric(self, order: int) -> list:
        return self._get(("g", order), lambda: [
            [self.bg.g[i][j].eval_jet(self.point, order) for j in range(3)] for i in range(3)
        ])

    def f_jets(self, order: int) -> list:
        def build():
            f = _zeros((4, 4), order)
            for (lam, mu), fld in self.bg.f_em.items():
                j = fld.eval_jet(self.point, order)
                f[lam][mu] = j
                f[mu][lam] = -j
            return f
        return self._get(("F", order), build)

    def kgrav(self, order: int) -> list:
        """Gravitational connection k[lam][i - 1][mu] = K^i_{lam mu}: the slots
        that the metric fixes for a torsion-free connection preserving it,
        plus the scenario's free slots K^i_00 and K^i_0j.  With g_0x = 0 one
        formula gives the fixed slots,
          K^i_{lam mu} = 1/2 g^ih (d_lam g_h mu + d_mu g_h lam - d_h g_lam mu),
        the Levi-Civita coefficients for spatial lam, mu and 1/2 g^ih d_0 g_hj
        for lam = 0.  A d_lam g_hk whose entry does not reference x^lam is
        left out, so a constant metric does no work here."""
        def build():
            g_vars = self.bg.g_vars
            dg = {}  # (lam, h, k) -> d_lam g_hk, spatial h, k in 1..3
            for h in range(3):
                for kk in range(h, 3):
                    for lam in g_vars[h][kk]:
                        dg[lam, h + 1, kk + 1] = dg[lam, kk + 1, h + 1] = self.metric(order + 1)[h][kk].derive(lam)
            slots = {}

            def add(key, j):
                slots[key] = slots[key] + j if key in slots else j

            for lam in range(4):
                for mu in range(max(lam, 1), 4):
                    for h in range(1, 4):
                        # the terms of 2 Gamma_{h lam mu}, the slot lowered by g
                        terms = [dg[key] for key in ((lam, h, mu), (mu, h, lam)) if key in dg]
                        if (h, lam, mu) in dg:
                            terms.append(-dg[h, lam, mu])
                        if terms:
                            gam = jet_sum(terms) * 0.5
                            for i in range(1, 4):
                                add((i, lam, mu), self.metric_inv(order)[i - 1][h - 1] * gam)
            for key, fld in self.bg.kgrav.items():
                add(key, fld.eval_jet(self.point, order))
            k = _zeros((4, 3, 4), order)
            for (i, lam, mu), j in slots.items():
                k[lam][i - 1][mu] = k[mu][i - 1][lam] = j
            return k
        return self._get(("kgrav", order), build)

    # -- metric algebra ------------------------------------------------------

    def sqrt_det(self, order: int) -> Jet:
        """sqrt|g| = L_00 L_11 L_22, the diagonal of the frame's Cholesky
        factor L (einv[a][i] = L[i][a])."""
        def build():
            _, einv = self.frame(order)
            return einv[0][0] * einv[1][1] * einv[2][2]
        return self._get(("sqrtg", order), build)

    def metric_inv(self, order: int) -> list:
        """g^ij = sum_a e_a^i e_a^j from the frame, formed for i <= j and
        mirrored, so exactly symmetric; e_a^i = 0 for a < i, so the terms
        a < j are left out."""
        def build():
            e, _ = self.frame(order)
            ginv = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    ginv[i][j] = ginv[j][i] = jet_sum(e[i][a] * e[j][a] for a in range(j, 3))
            return ginv
        return self._get(("ginv", order), build)

    def frame(self, order: int):
        """Triad e (as e[i][a] = e_a^i) and inverse e^a_i (einv[a][i]) from the
        Cholesky factor of g, positive diagonal, positive orientation: the one
        factorisation of g, which sqrt_det and metric_inv read.  A metric that
        is not positive definite is NotPositiveDefinite at the first pivot
        that is not positive."""
        def build():
            g = self.metric(order)
            _require_positive(g[0][0], "g00 = {value} at {where}", self.point)
            l00 = g[0][0].sqrt()
            l10 = g[1][0] / l00
            l20 = g[2][0] / l00
            d1 = g[1][1] - l10 * l10
            _require_positive(d1, "metric not positive definite at {where}", self.point)
            l11 = d1.sqrt()
            l21 = (g[2][1] - l20 * l10) / l11
            d2 = g[2][2] - l20 * l20 - l21 * l21
            _require_positive(d2, "metric not positive definite at {where}", self.point)
            l22 = d2.sqrt()
            zero = Jet.const(0.0, order)
            lmat = [[l00, zero, zero], [l10, l11, zero], [l20, l21, l22]]
            # forward substitution for M = L^{-1} (lower triangular)
            m00 = l00.recip()
            m11 = l11.recip()
            m22 = l22.recip()
            m10 = -(l10 * m00) * m11
            m20 = -(l20 * m00 + l21 * m10) * m22
            m21 = -(l21 * m11) * m22
            m = [[m00, zero, zero], [m10, m11, zero], [m20, m21, m22]]
            # e_a^i = (L^-T)[i][a] = M[a][i]; e^a_i = (L^T)[a][i] = L[i][a]
            e = [[m[a][i] for a in range(3)] for i in range(3)]
            einv = [[lmat[i][a] for i in range(3)] for a in range(3)]
            return e, einv
        return self._get(("frame", order), build)

    # -- connections ---------------------------------------------------------

    def k_joined(self, which: str, order: int) -> list:
        def build():
            kg = self.kgrav(order)
            if which == "grav":
                return kg
            f = self.f_jets(order)
            ginv = self.metric_inv(order)
            c = self.bg.constants
            if which == "charge":
                c0k = c.q.value * c.u0.value / (2.0 * c.m.value)
                c00 = c.q.value * c.u0.value / c.m.value
            elif which == "moment":
                # Opposite sign relative to the charge sector: fixed by the
                # classical precession law and the quantum convention lock.
                # Only ktilde reads this sector, and only its slots K_lam^i_j
                # with j spatial: the time column K^i_lam0 stays gravitational.
                c0k = -c.mu.value * c.u0.value
                c00 = None
            else:
                raise ValueError(f"unknown coupling {which!r}")
            fup = [[jet_sum(ginv[i][h] * f[h + 1][mu] for h in range(3)) for mu in range(4)] for i in range(3)]
            k = [[[kg[lam][i][mu] for mu in range(4)] for i in range(3)] for lam in range(4)]
            for i in range(3):
                if c00 is not None:
                    k[0][i][0] = k[0][i][0] + fup[i][0] * c00
                for kk in range(3):
                    extra = fup[i][kk + 1] * c0k
                    k[0][i][kk + 1] = k[0][i][kk + 1] + extra
                    if c00 is not None:
                        k[kk + 1][i][0] = k[kk + 1][i][0] + extra
            return k
        return self._get(("K", which, order), build)

    def ktilde(self, which: str, order: int) -> list:
        """Frame coefficients Ktilde_lam^a_b = e^a_i (d_lam e_b^i + K_lam^i_j e_b^j).
        d_lam e is a point-shaped zero where no metric entry references
        x^lam, so an entry whose K terms are structural zeros stays a point
        zero, as kgrav's slots do."""
        def build():
            e1, _ = self.frame(order + 1)
            _, einv = self.frame(order)
            e0 = [[e1[i][a].truncate(order) for a in range(3)] for i in range(3)]
            k = self.k_joined(which, order)
            zero = Jet.const(0.0, order)
            moving = self.bg.frame_vars
            kt = []
            for lam in range(4):
                # d_lam e_b^i + K_lam^i_j e_b^j, shared by every row a
                inner = [[e1[i][b].derive(lam) if lam in moving else zero for b in range(3)] for i in range(3)]
                for i in range(3):
                    for b in range(3):
                        for j in range(3):
                            inner[i][b] = inner[i][b] + k[lam][i][j + 1] * e0[j][b]
                kt.append([[einv[a][0] * inner[0][b] + einv[a][1] * inner[1][b] + einv[a][2] * inner[2][b]
                            for b in range(3)] for a in range(3)])
            return kt
        return self._get(("ktilde", which, order), build)

    def rho(self, which: str, order: int) -> list:
        """Curvature of the spin connection, rho_{lam mu}^k as [4][4][3] jets:
        `pauli.spin_curvature_jets` of `spin(which, order + 1)`, so
        InconsistentSystem on a non-metric connection.  rho_{lam mu} is the
        axial vector of the frame curvature of Ktilde."""
        return self._get(("rho", which, order), lambda: spin_curvature_jets(self.spin(which, order + 1), order))

    def spin(self, which: str, order: int) -> list:
        """Spin connection C_lam^a, [4][3] jets: the axial vector of
        Ktilde_lam, so Ktilde_lam^k_j = C_lam^i eps_ijk.  InconsistentSystem
        where a Ktilde_lam is not antisymmetric (a non-metric connection)."""
        def build():
            kt = self.ktilde(which, order)
            vals = value_array(kt, self.point.shape[1:])  # [lam, k, j, point]
            for lam in range(4):
                scale = 1.0 + np.max(np.abs(vals[lam]), axis=(0, 1))
                if np.any(np.max(np.abs(vals[lam] + vals[lam].swapaxes(0, 1)), axis=(0, 1)) > 2e-8 * scale):
                    raise InconsistentSystem(f"frame coefficients not antisymmetric at lambda={lam} (which={which})")
            return [axis_vector(kt[lam]) for lam in range(4)]
        return self._get(("spin", which, order), build)

    def riemann_lowered_spatial(self) -> np.ndarray:
        """R_{ij h k} = g_{hm} R^m_{k ij} of the gravitational connection,
        all-spatial slots, numeric, in the standard curvature-operator
        convention (the one under which a Levi-Civita connection has the
        pair symmetry R_{ijhk} = R_{hkij}).  Shape (3, 3, 3, 3), with a
        trailing (N,) axis on a cloud."""
        batch = self.point.shape[1:]
        k1 = self.kgrav(1)
        k0 = value_array(self.kgrav(0), batch)
        g0 = value_array(self.metric(0), batch)
        riem = np.zeros((3, 3, 3, 3) + batch)
        for i in range(3):
            for j in range(3):
                for m in range(3):
                    for kk in range(3):
                        r = value_array(k1[j + 1][m][kk + 1].derive(i + 1), batch) \
                            - value_array(k1[i + 1][m][kk + 1].derive(j + 1), batch)
                        for h in range(3):
                            r = r + k0[i + 1][m][h + 1] * k0[j + 1][h][kk + 1]
                            r = r - k0[j + 1][m][h + 1] * k0[i + 1][h][kk + 1]
                        riem[i, j, :, kk] += r * g0[:, m]
        return riem

    def magnetic(self, order: int) -> list:
        def build():
            f = self.f_jets(order)
            e, _ = self.frame(order)
            fcheck = [[jet_sum(f[i + 1][j + 1] * e[i][a] * e[j][b] for i in range(3) for j in range(3))
                       for b in range(3)] for a in range(3)]
            return [-w for w in axis_vector(fcheck)]
        return self._get(("B", order), build)

    # -- cosymplectic sector ---------------------------------------------------

    def velocity_form(self, v: list, order: int) -> list:
        """theta_0..theta_3 of the velocity form
          theta(v) = c (g_ij v^j dx^i - 1/2 g_ij v^i v^j dx^0),  c = m u0 / hbar,
        at `order` for velocity jets v at that order: observer component jets
        for the observed form theta[o], constant jets at fixed velocity values."""
        g = self.metric(order)
        c = self.bg.constants.metric_prefactor
        quad = jet_sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3))
        return [quad * (-0.5 * c)] + [jet_sum(g[i][j] * v[j] for j in range(3)) * c for i in range(3)]

    def phi_ref(self, order: int) -> list:
        """Phi[reference] = Omega_K = -c g_ij K_lam^i_0 dx^lam ^ dx^j (joined
        K), the one formula for the part of the cosymplectic form that the
        velocity form does not give; 4x4 antisymmetric jets."""
        def build():
            g = self.metric(order)
            k = self.k_joined("charge", order)
            c = self.bg.constants.metric_prefactor
            phi = _zeros((4, 4), order)
            for j in range(3):
                acc = jet_sum(g[i][j] * k[0][i][0] for i in range(3))
                phi[0][j + 1] = acc * (-c)
                phi[j + 1][0] = acc * c
            for h in range(3):
                for j in range(h + 1, 3):
                    acc = jet_sum(g[i][j] * k[h + 1][i][0] - g[i][h] * k[j + 1][i][0] for i in range(3))
                    phi[h + 1][j + 1] = acc * (-c)
                    phi[j + 1][h + 1] = acc * c
            return phi
        return self._get(("phi_ref", order), build)

    def omega_table(self, v, order: int) -> list:
        """Cosymplectic component table over (dx^0..dx^3, dv^1..dv^3), jets at
        `order`, at velocity values v: (3,) at a point, (3, N) on a cloud.
        Omega = Phi[reference] + d Theta with Theta = theta_lam dx^lam, so its
        spacetime block is phi_ref + d theta(v) at fixed v, and its
        dv^j ^ dx^lam entries are d theta_lam / d v^j: c g_ij for lam = i and
        -c g_ij v^i for lam = 0."""
        c = self.bg.constants.metric_prefactor
        v = [Jet.const(vk, order + 1) for vk in np.asarray(v, dtype=float)]
        spacetime = _table_sum(self.phi_ref(order), exterior_derivative(self.velocity_form(v, order + 1)))
        g = self.metric(order)
        # dv[j][lam] = Omega(d_vj, d_lam)
        dv = [[jet_sum(g[i][j] * v[i] for i in range(3)) * (-c)] + [g[i][j] * c for i in range(3)] for j in range(3)]
        zero = Jet.const(0.0, order)
        return ([spacetime[lam] + [-dv[j][lam] for j in range(3)] for lam in range(4)]
                + [dv[j] + [zero] * 3 for j in range(3)])

    def phi_observer(self, o: Observer, order: int) -> list:
        """Phi[o] = Phi[reference] + d theta[o], the pullback of Omega along
        the observer section v = o, with theta[o] at order + 1."""
        theta = self.velocity_form(o.jets(self.point, order + 1), order + 1)
        return _table_sum(self.phi_ref(order), exterior_derivative(theta))


def exterior_derivative(w: Sequence) -> list:
    """(dw)_{lam mu} = d_lam w_mu - d_mu w_lam for the jets w_0..w_3 of a
    1-form: a 4x4 table of jets one order lower."""
    dw = [[w[mu].derive(lam) for mu in range(4)] for lam in range(4)]
    zero = Jet.const(0.0, w[0].order - 1)
    return [[dw[lam][mu] - dw[mu][lam] if lam != mu else zero for mu in range(4)] for lam in range(4)]


def _table_sum(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def divergence_eta_jets(x_jets: Sequence, bundle: BackgroundJets, order: int) -> Jet:
    """div_eta X = (X^0 d0 sqrt|g| + d_i(X^i sqrt|g|)) / sqrt|g| at `order`;
    x_jets must be at order+1."""
    sg = bundle.sqrt_det(order + 1)
    acc = x_jets[0].truncate(order) * sg.derive(0)
    for i in range(3):
        acc = acc + (x_jets[i + 1] * sg).derive(i + 1)
    return acc * sg.truncate(order).recip()
