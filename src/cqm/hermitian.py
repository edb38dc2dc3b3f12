"""Linear projectable vector fields on the rank-2 quantum bundle.

A field is the pair (X^lambda, Y^A_B): chart components of the projection and
a 2x2 complex matrix field, stored through its xi-basis coefficients.  Raw
fields carry an anti-Hermitian matrix part; fields built from special
functions carry the volume-weighted variant, whose matrix part is the
anti-Hermitian combination shifted by -1/2 (div_eta X) 1.

The module implements the action on sections, the Lie bracket, the lift and
vertical projection along the connection i Ch[o] 1 + C, the pair bracket with
its curvature term, and the observer-independent correspondence with special
phase functions (both directions), plus the scalar invariant combination used
to test observer independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .background import (
    Background,
    Observer,
    PhasePoint,
    as_point,
    divergence_eta_jets,
)
from .fieldlang import FieldDef
from .jets import Jet, max_abs, value_array
from .pauli import XI_ALL, SpinConnection, spin_connection_from, spin_curvature_jets
from .special import SpecialFunction, SpecialValue, component_jets, eval_special


class NotHermitian(ValueError):
    """Matrix part fails the (possibly divergence-modified) Hermiticity test."""


# ---------------------------------------------------------------------------
# small complex 2x2 matrices with complex jet entries


class Mat2:
    __slots__ = ("m",)

    def __init__(self, entries):
        self.m = entries

    @staticmethod
    def zero(order: int) -> "Mat2":
        z = Jet.const(0j, order)
        return Mat2([[z, z], [z, z]])

    @staticmethod
    def from_xi(coeffs: Sequence) -> "Mat2":
        """sum_nu coeffs[nu] xi_nu for real jet coefficients (xi_0 = i 1)."""
        entries = []
        for r in range(2):
            row = []
            for c in range(2):
                acc = None
                for nu in range(4):
                    w = XI_ALL[nu][r, c]
                    if w == 0:
                        continue
                    term = coeffs[nu] * w
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = Jet.const(0j, coeffs[0].order)
                row.append(acc)
            entries.append(row)
        return Mat2(entries)

    @staticmethod
    def constant(mat: np.ndarray, order: int) -> "Mat2":
        return Mat2([[Jet.const(complex(mat[r, c]), order) for c in range(2)] for r in range(2)])

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2([[self.m[r][c] + other.m[r][c] for c in range(2)] for r in range(2)])

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2([[self.m[r][c] - other.m[r][c] for c in range(2)] for r in range(2)])

    def __neg__(self) -> "Mat2":
        return Mat2([[-self.m[r][c] for c in range(2)] for r in range(2)])

    def scale(self, w) -> "Mat2":
        return Mat2([[self.m[r][c] * w for c in range(2)] for r in range(2)])

    def matmul(self, other: "Mat2") -> "Mat2":
        out = []
        for r in range(2):
            row = []
            for c in range(2):
                row.append(self.m[r][0] * other.m[0][c] + self.m[r][1] * other.m[1][c])
            out.append(row)
        return Mat2(out)

    def commutator(self, other: "Mat2") -> "Mat2":
        return self.matmul(other) - other.matmul(self)

    def add_identity(self, w) -> "Mat2":
        return Mat2([
            [self.m[0][0] + w, self.m[0][1]],
            [self.m[1][0], self.m[1][1] + w],
        ])

    def derive(self, lam: int) -> "Mat2":
        return Mat2([[self.m[r][c].derive(lam) for c in range(2)] for r in range(2)])

    def truncate(self, order: int) -> "Mat2":
        return Mat2([[self.m[r][c].truncate(order) for c in range(2)] for r in range(2)])

    def values(self, batch: tuple = ()) -> np.ndarray:
        """Entry values: (2, 2) at a point, (2, 2, N) on a cloud of batch
        shape (N,); point-shaped entries (constants) broadcast to the cloud,
        as jets.value_array does."""
        return np.array([[np.broadcast_to(self.m[r][c].value, batch) for c in range(2)] for r in range(2)])

    def apply(self, psi: Sequence) -> list:
        return [
            self.m[0][0] * psi[0] + self.m[0][1] * psi[1],
            self.m[1][0] * psi[0] + self.m[1][1] * psi[1],
        ]


# ---------------------------------------------------------------------------
# quantum data (potential + spin connection over a background)


@dataclass(frozen=True)
class QuantumData:
    """Reference-observer potential A_lambda of Phi (hbar-rescaled, so
    dimensionless) together with the spin connection over a background."""

    bg: Background
    a_fields: tuple
    spin: SpinConnection

    @classmethod
    def standard(cls, bg: Background, a_fields: Sequence[FieldDef]) -> "QuantumData":
        """Spin connection from the moment-joined spacetime connection."""
        return cls(bg, tuple(a_fields), spin_connection_from(bg, "moment"))

    def a_jets(self, point, order: int) -> list:
        return [f.eval_jet(point, order) for f in self.a_fields]

    def check_potential(self, samples) -> float:
        """max |dA - Phi[reference]| over the sample points (rows), evaluated
        as one (4, N) cloud; a consistency warning level, not an error (A is
        primary input)."""
        cloud = np.asarray(samples, dtype=float).reshape(-1, 4).T
        batch = cloud.shape[1:]
        a1 = self.a_jets(cloud, 1)
        phi = value_array(self.bg.jets(cloud).phi_ref(0), batch)
        worst = 0.0
        for lam in range(4):
            for mu in range(lam + 1, 4):
                da = value_array(a1[mu].derive(lam), batch) - value_array(a1[lam].derive(mu), batch)
                worst = max(worst, float(np.max(np.abs(da - phi[lam][mu]))))
        return worst


def ch_components(qd: QuantumData, p: PhasePoint):
    """(Ch_0, Ch_i) at a phase point, (N,) and (3, N) arrays on a cloud; the
    classical Hamiltonian and momentum are H0 = -Ch_0 and P_i = Ch_i."""
    batch = p.x.shape[1:]
    g = value_array(qd.bg.jets(p.x).metric(0), batch)
    pref = qd.bg.constants.metric_prefactor
    a = value_array(qd.a_jets(p.x, 0), batch)
    gv = np.array([sum(g[i][j] * p.v[j] for j in range(3)) for i in range(3)])
    ch0 = -0.5 * pref * sum(p.v[i] * gv[i] for i in range(3)) + a[0]
    chi = pref * gv + a[1:]
    return ch0, chi


def ch_along_jets(qd: QuantumData, o: Observer, point, order: int) -> list:
    """Jets of Ch_lambda evaluated along the observer section."""
    b = qd.bg.jets(point)
    g = b.metric(order)
    pref = qd.bg.constants.metric_prefactor
    a = qd.a_jets(point, order)
    v = o.jets(point, order)
    quad = None
    for i in range(3):
        for j in range(3):
            term = g[i][j] * v[i] * v[j]
            quad = term if quad is None else quad + term
    out = [a[0] - quad * (0.5 * pref)]
    for i in range(3):
        lin = None
        for j in range(3):
            term = g[i][j] * v[j]
            lin = term if lin is None else lin + term
        out.append(a[i + 1] + lin * pref)
    return out


# ---------------------------------------------------------------------------
# Hermitian fields


class HermitianField:
    """Recipe for a linear projectable vector field: evaluators for the chart
    components X^lambda and the matrix part."""

    def __init__(self, x_eval: Callable, ymat_eval: Callable, div_corrected: bool, name: str = ""):
        self._x = x_eval
        self._y = ymat_eval
        self.div_corrected = div_corrected
        self.name = name

    def x_jets(self, point, order: int) -> list:
        return self._x(as_point(point), order)

    def ymat(self, point, order: int) -> Mat2:
        return self._y(as_point(point), order)

    def x_values(self, point) -> np.ndarray:
        return np.array([j.value for j in self.x_jets(point, 0)])


def hermitian_raw(x_fields: Sequence, y0_field, yi_fields: Sequence, name: str = "") -> HermitianField:
    """Plain-Hermitian field from real component fields: Ymat = i Y0 1 + Y^a xi_a."""

    def x_eval(point, order):
        return [f.eval_jet(point, order) for f in x_fields]

    def y_eval(point, order):
        coeffs = [y0_field.eval_jet(point, order)] + [f.eval_jet(point, order) for f in yi_fields]
        return Mat2.from_xi(coeffs)

    return HermitianField(x_eval, y_eval, div_corrected=False, name=name)


def from_special(f: SpecialFunction, qd: QuantumData) -> HermitianField:
    """The Hermitian field of a special function: X = (f0, -f^i),
    Y0 = f0 A0 - f^j A_j + fbrev, Y^a = X^lam C_lam^a + phi^a, matrix part
    shifted by -1/2 (div_eta X) 1 so the volume-weighted Hermiticity holds."""

    def x_eval(point, order):
        c = component_jets(f, point, order)
        return c.x_components()

    def y_eval(point, order):
        bundle = qd.bg.jets(point)
        c = component_jets(f, point, order + 1)
        a = qd.a_jets(point, order)
        x_full = c.x_components()
        x = [j.truncate(order) for j in x_full]
        y0 = c.f0.truncate(order) * a[0] + c.fbrev.truncate(order)
        for j in range(3):
            y0 = y0 - c.fi[j].truncate(order) * a[j + 1]
        cc = qd.spin.coeffs_from(bundle, order)
        yi = []
        for aidx in range(3):
            acc = c.phi[aidx].truncate(order)
            for lam in range(4):
                acc = acc + x[lam] * cc[lam][aidx]
            yi.append(acc)
        div = divergence_eta_jets(x_full, bundle, order)
        mat = Mat2.from_xi([y0] + yi)
        return mat.add_identity(div * -0.5)

    return HermitianField(x_eval, y_eval, div_corrected=True, name=f.name or "from_special")


@dataclass(frozen=True)
class SpinorSection:
    """Two complex component fields, each a (re, im) pair of field defs."""

    components: tuple

    def eval_jets(self, point, order: int) -> list:
        return [re.eval_jet(point, order) + im.eval_jet(point, order) * 1j for (re, im) in self.components]


def act_on_section(y: HermitianField, psi: SpinorSection, point) -> np.ndarray:
    """(Y.psi)^A = X^lam d_lam psi^A - Y^A_B psi^B."""
    point = as_point(point)
    x = y.x_jets(point, 0)
    mat = y.ymat(point, 0)
    pj = psi.eval_jets(point, 1)
    mp = mat.apply([p.truncate(0) for p in pj])
    out = []
    for a_idx in range(2):
        acc = -mp[a_idx]
        for lam in range(4):
            acc = acc + pj[a_idx].derive(lam) * x[lam]
        out.append(acc.value)
    return np.array(out)


def lie_bracket_y(y: HermitianField, yp: HermitianField, point, order: int = 0):
    """Lie bracket at a point or on a (4, N) cloud: ([X,X'] jets, matrix part
    Z = X.dY' - X'.dY + Y'Y - YY')."""
    point = as_point(point)
    x1 = y.x_jets(point, order + 1)
    x2 = yp.x_jets(point, order + 1)
    m1 = y.ymat(point, order + 1)
    m2 = yp.ymat(point, order + 1)
    xb = []
    for mu in range(4):
        acc = None
        for lam in range(4):
            term = x1[lam].truncate(order) * x2[mu].derive(lam) - x2[lam].truncate(order) * x1[mu].derive(lam)
            acc = term if acc is None else acc + term
        xb.append(acc)
    z = Mat2.zero(order)
    for lam in range(4):
        z = z + m2.derive(lam).scale(x1[lam].truncate(order)) - m1.derive(lam).scale(x2[lam].truncate(order))
    m1t = m1.truncate(order)
    m2t = m2.truncate(order)
    z = z + m2t.matmul(m1t) - m1t.matmul(m2t)
    return xb, z


def _lift_mat(qd: QuantumData, x_jets: Sequence, o: Observer, point, order: int) -> Mat2:
    ch = ch_along_jets(qd, o, point, order)
    cc = qd.spin.coeffs_from(qd.bg.jets(point), order)
    coeffs = []
    for nu in range(4):
        acc = None
        for lam in range(4):
            base = ch[lam] if nu == 0 else cc[lam][nu - 1]
            term = x_jets[lam].truncate(order) * base
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return Mat2.from_xi(coeffs)


def connection_lift(qd: QuantumData, x_fields: Sequence, o: Observer, name: str = "") -> HermitianField:
    """X |_ (Ch[o] (x) C): matrix part i X^lam Ch_lam[o] 1 + X^lam C_lam^a xi_a."""

    def x_eval(point, order):
        return [f.eval_jet(point, order) for f in x_fields]

    def y_eval(point, order):
        return _lift_mat(qd, x_eval(point, order), o, point, order)

    return HermitianField(x_eval, y_eval, div_corrected=False, name=name or "lift")


def vertical_projection(y: HermitianField, qd: QuantumData, o: Observer, point, order: int = 0) -> Mat2:
    """nu[c] Y = Ymat - X^lam c_lam at a point or on a (4, N) cloud:
    anti-Hermitian when Y is plain-Hermitian."""
    point = as_point(point)
    x = y.x_jets(point, order)
    return y.ymat(point, order) - _lift_mat(qd, x, o, point, order)


def pair_bracket(pair, pair_p, qd: QuantumData, o: Observer, point, order: int = 0):
    """Bracket of (X, Ycheck) pairs through the connection:
    ([X,X'], -R(X,X') + nabla_X Y' - nabla_X' Y + [Y', Y]).

    Each pair is (x_fields, vertical_mat_eval) with vertical_mat_eval a
    callable (point, order) -> Mat2.  Jets and Mat2 at a point or on a
    (4, N) cloud.
    """
    point = as_point(point)
    x_fields, yv = pair
    xp_fields, yvp = pair_p
    x1 = [f.eval_jet(point, order + 1) for f in x_fields]
    x2 = [f.eval_jet(point, order + 1) for f in xp_fields]
    bundle = qd.bg.jets(point)
    cc1 = qd.spin.coeffs_from(bundle, order + 1)
    cc = [[cj.truncate(order) for cj in row] for row in cc1]
    ch1 = ch_along_jets(qd, o, point, order + 1)
    m1 = yv(point, order + 1)
    m2 = yvp(point, order + 1)

    xb = []
    for mu in range(4):
        acc = None
        for lam in range(4):
            term = x1[lam].truncate(order) * x2[mu].derive(lam) - x2[lam].truncate(order) * x1[mu].derive(lam)
            acc = term if acc is None else acc + term
        xb.append(acc)

    # curvature R_{lam mu} = -i (dCh[o])_{lam mu} 1 + R[C]_{lam mu}^a xi_a
    rc = spin_curvature_jets(cc1, order)
    out = Mat2.zero(order)
    for lam in range(4):
        for mu in range(4):
            w = (x1[lam] * x2[mu]).truncate(order)
            if lam != mu:
                dch = ch1[mu].derive(lam) - ch1[lam].derive(mu)
                scalar_part = dch * w * -1j
                spin_part = Mat2.from_xi([dch * 0.0] + [rc[lam][mu][1 + a] for a in range(3)]).scale(w)
                out = out - (spin_part.add_identity(scalar_part))
    # transport of the vertical parts: nabla_lam Y = d_lam Y - [C_lam, Y]
    # (the sign the vertical-field identification induces; it makes this
    # formula agree with the plain Lie bracket route)
    for lam in range(4):
        cmat = Mat2.from_xi([cc[lam][0] * 0.0, cc[lam][0], cc[lam][1], cc[lam][2]])
        d2 = m2.derive(lam) - cmat.commutator(m2.truncate(order))
        d1 = m1.derive(lam) - cmat.commutator(m1.truncate(order))
        out = out + d2.scale(x1[lam].truncate(order)) - d1.scale(x2[lam].truncate(order))
    out = out + m2.truncate(order).commutator(m1.truncate(order))
    return xb, out


def to_special(y: HermitianField, qd: QuantumData, o: Observer, point, tol: float = 1e-8) -> SpecialValue:
    """Invert the correspondence: (f0, f^i) from X, fbrev from the trace of
    the vertical projection, phi from the traceless part."""
    point = as_point(point)
    x = y.x_values(point)
    mval = y.ymat(point, 0).values()
    bundle = qd.bg.jets(point)
    div = 0.0
    if y.div_corrected:
        xj = y.x_jets(point, 1)
        div = divergence_eta_jets(xj, bundle, 0).value
    herm = mval + mval.conj().T + div * np.eye(2)
    if np.max(np.abs(herm)) > tol:
        raise NotHermitian(f"Hermiticity residual {np.max(np.abs(herm)):.3e} at {point.tolist()}")
    # remove the divergence shift, then split off the lift along o
    mat = mval + 0.5 * div * np.eye(2)
    x_jets = [Jet.const(v, 0) for v in x]
    lift = _lift_mat(qd, x_jets, o, point, 0).values()
    ycheck = mat - lift
    f_o = float((-0.5j * np.trace(ycheck)).real)
    phi = np.array([float((-2.0 * np.trace(ycheck @ XI_ALL[1 + a])).real) for a in range(3)])
    f0 = x[0]
    fi = -x[1:]
    g = np.array([[bundle.metric(0)[i][j].value for j in range(3)] for i in range(3)])
    pref = qd.bg.constants.metric_prefactor
    vo = o.velocity(point)
    fbrev = f_o - 0.5 * pref * f0 * float(vo @ g @ vo) - pref * float(fi @ g @ vo)
    return SpecialValue(f0, fi, fbrev, phi)


def invariant_combination(f: SpecialFunction, qd: QuantumData, o: Observer, point):
    """f0 Ch_0(o) - f^j Ch_j(o) + f(o): the scalar that the main theorem shows
    to be observer-independent (it equals f0 A0 - f^j A_j + fbrev).  A float
    at a point, an (N,) array of per-point values on a (4, N) cloud."""
    point = as_point(point)
    vo = o.velocity(point)
    p = PhasePoint(point, vo)
    ch0, chi = ch_components(qd, p)
    c = component_jets(f, point, 0).values(point.shape[1:])
    f_at_o = eval_special(f, qd.bg, p)
    return c.f0 * ch0 - sum(c.fi[j] * chi[j] for j in range(3)) + f_at_o


def hermiticity_residual(y: HermitianField, qd: QuantumData, point):
    """max |Y + Y^dagger (+ div_eta X for volume-weighted fields)|: a float
    at a point, an (N,) array of per-point values on a (4, N) cloud."""
    point = as_point(point)
    batch = point.shape[1:]
    mval = y.ymat(point, 0).values(batch)
    div = 0.0
    if y.div_corrected:
        xj = y.x_jets(point, 1)
        div = value_array(divergence_eta_jets(xj, qd.bg.jets(point), 0), batch)
    eye = np.eye(2).reshape((2, 2) + (1,) * len(batch))
    return max_abs(mval + mval.conj().swapaxes(0, 1) + div * eye, batch)
