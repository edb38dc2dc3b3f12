"""Linear projectable vector fields on the rank-2 quantum bundle.

A field is the pair (X^lambda, Y^A_B): chart components of the projection and
a 2x2 complex matrix field Y = w 1 + y_nu xi_nu, stored as five real
coefficient jets (a `Mat2`).  xi_0 = i 1 is central and [xi_a, xi_b] =
eps_abc xi_c, so the commutators of the brackets are cross products of
y_1..y_3, the bracket the spin part phi of a special function carries.  Raw
fields carry an anti-Hermitian matrix part (w = 0); fields built from
special functions carry the volume-weighted variant, whose matrix part is
the anti-Hermitian combination shifted by w = -1/2 div_eta X.

Every operation evaluates at a point (4,), on a (4, N) cloud, or on the
points of a `BackgroundJets` bundle, which it then shares with every
background quantity it needs instead of building its own.  A field of a
stack of special functions (`special.stack_functions`) evaluates all of them
in one pass; its residuals are (m, N) arrays, their batch read off the
operands' jets (`jets.batch_shape`).  A field's
evaluators receive `where` as given, so a field of a derived special function
(a bracket, say) evaluated on a bundle shares it too.

The module implements the Lie bracket, the lift and vertical projection
along the connection i Ch[o] 1 + C, the pair bracket with its curvature term
(the bundle's rho), and the observer-independent correspondence with special
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
    exterior_derivative,
)
from .fieldlang import FieldDef
from .jets import Jet, batch_shape, jet_sum, max_abs, value_array
from .pauli import SpinConnection, cross, spin_connection_from, xi_combination
from .special import SpecialFunction, SpecialValue, component_jets, eval_special, evaluated


class NotHermitian(ValueError):
    """Matrix part fails the (possibly divergence-modified) Hermiticity test."""


HERMITIAN_TOL = 1e-8  # the Hermiticity residual above which to_special raises NotHermitian


# ---------------------------------------------------------------------------
# 2x2 complex matrix fields through their real coefficient jets


class Mat2:
    """The matrix field Y = w 1 + sum_nu y_nu xi_nu, stored as its real
    coefficient jets w and y_0..y_3; w defaults to a point-shaped zero, whose
    products stay free.  xi_0 = i 1 is central and [xi_a, xi_b] =
    eps_abc xi_c, so a commutator is the cross product of y_1..y_3."""

    __slots__ = ("w", "y")

    def __init__(self, coeffs: Sequence, w: Jet | None = None):
        self.y = tuple(coeffs)
        self.w = Jet.const(0.0, self.y[0].order) if w is None else w

    @staticmethod
    def zero(order: int) -> "Mat2":
        return Mat2([Jet.const(0.0, order)] * 4)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2([a + b for a, b in zip(self.y, other.y)], self.w + other.w)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2([a - b for a, b in zip(self.y, other.y)], self.w - other.w)

    def scale(self, s) -> "Mat2":
        return Mat2([c * s for c in self.y], self.w * s)

    def commutator(self, other: "Mat2") -> "Mat2":
        """[Y, Y'] = eps_abc y_a y'_b xi_c; it has no 1 or xi_0 part."""
        c = cross(self.y[1:], other.y[1:])
        return Mat2([Jet.const(0.0, c[0].order)] + c)

    def add_identity(self, w) -> "Mat2":
        """Y + w 1."""
        return Mat2(self.y, self.w + w)

    def derive(self, lam: int) -> "Mat2":
        return Mat2([c.derive(lam) for c in self.y], self.w.derive(lam))

    def truncate(self, order: int) -> "Mat2":
        return Mat2([c.truncate(order) for c in self.y], self.w.truncate(order))

    def values(self, batch: tuple = ()) -> np.ndarray:
        """Entry values w 1 + sum_nu y_nu xi_nu: (2, 2) at a point, (2, 2, N)
        on a cloud of batch shape (N,), (2, 2, m, N) for a stack;
        point-shaped coefficients (constants) broadcast to the cloud, as
        jets.value_array does."""
        batch = batch_shape([self.y, self.w], batch)
        eye = np.eye(2).reshape((2, 2) + (1,) * len(batch))
        return xi_combination(value_array(self.y, batch), batch) + value_array(self.w, batch) * eye


def y_coefficients(c, a, cc) -> list:
    """[y_0, y_1, y_2, y_3] of Y[F] before its -1/2 (div_eta X) shift:
    y_0 = (f0 A_0 + fbrev) - f^j A_j and y_a = (phi_a + f0 C_0^a) - f^j C_j^a,
    from the components c (f0, fi, fbrev, phi), A_lam and C_lam^a (indexed
    [lam][a]).  Jets and value arrays alike; this is the one place the
    correspondence F -> Y[F] forms them."""
    y0 = c.f0 * a[0] + c.fbrev
    for j in range(3):
        y0 = y0 - c.fi[j] * a[j + 1]
    ya = []
    for k in range(3):
        acc = c.phi[k] + c.f0 * cc[0][k]
        for j in range(3):
            acc = acc - c.fi[j] * cc[j + 1][k]
        ya.append(acc)
    return [y0] + ya


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


def ch_along_jets(qd: QuantumData, o: Observer, where, order: int) -> list:
    """Jets of Ch_lambda[o] = A_lambda + theta_lambda[o] along the observer
    section; the classical Hamiltonian and momentum there are H0 = -Ch_0
    and P_i = Ch_i."""
    bundle = qd.bg.jets(where)
    theta = bundle.velocity_form(o.jets(bundle.point, order), order)
    return [a + t for a, t in zip(qd.a_jets(bundle.point, order), theta)]


def potential_residual(qd: QuantumData, o: Observer, where):
    """max |d Ch[o] - Phi[o]| with Ch[o] = A + theta[o]: zero when the input
    potential A has dA = Phi[reference] (a consistency level of primary
    input, not an error), and for a moving observer a check of the
    d theta[o] in Phi[o].  A float at a point, an (N,) array of per-point
    values on a (4, N) cloud or on a bundle's points."""
    bundle = qd.bg.jets(where)
    batch = bundle.point.shape[1:]
    dch = value_array(exterior_derivative(ch_along_jets(qd, o, bundle, 1)), batch)
    return max_abs(dch - value_array(bundle.phi_observer(o, 0), batch), batch)


# ---------------------------------------------------------------------------
# Hermitian fields


class HermitianField:
    """Recipe for a linear projectable vector field: evaluators for the chart
    components X^lambda and for the matrix part, (where, order) -> jets,
    each called with `where` as given (a point, a cloud or a bundle)."""

    def __init__(self, x_eval: Callable, ymat_eval: Callable, div_corrected: bool):
        self._x = x_eval
        self._y = ymat_eval
        self.div_corrected = div_corrected

    def x_jets(self, where, order: int) -> list:
        return self._x(where, order)

    def ymat(self, where, order: int) -> Mat2:
        return self._y(where, order)


def from_special(f: SpecialFunction, qd: QuantumData) -> HermitianField:
    """The Hermitian field of a special function: X = (f0, -f^i), matrix
    part y_coefficients(F) shifted by -1/2 (div_eta X) 1 so the
    volume-weighted Hermiticity holds."""

    def x_eval(where, order):
        return component_jets(f, where, order).x_components()

    def y_eval(where, order):
        bundle = qd.bg.jets(where)
        c = component_jets(f, bundle, order + 1)
        y = y_coefficients(c.truncate(order), qd.a_jets(bundle.point, order), qd.spin.coeffs(bundle, order))
        div = divergence_eta_jets(c.x_components(), bundle, order)
        return Mat2(y).add_identity(div * -0.5)

    return HermitianField(x_eval, y_eval, div_corrected=True)


@dataclass(frozen=True)
class SpinorSection:
    """Two complex component fields, each a (re, im) pair of field defs."""

    components: tuple


def _vector_bracket(x1: Sequence, x2: Sequence, order: int) -> list:
    """[X, X']^mu = X^lam d_lam X'^mu - X'^lam d_lam X^mu at `order`; the
    component jets must be at order+1."""
    return [jet_sum(x1[lam].truncate(order) * x2[mu].derive(lam) - x2[lam].truncate(order) * x1[mu].derive(lam)
                    for lam in range(4)) for mu in range(4)]


def lie_bracket_y(y: HermitianField, yp: HermitianField, where, order: int = 0):
    """Lie bracket at a point, on a (4, N) cloud or on a bundle's points:
    ([X,X'] jets, matrix part Z = X.dY' - X'.dY + [Y', Y])."""
    x1 = y.x_jets(where, order + 1)
    x2 = yp.x_jets(where, order + 1)
    m1 = y.ymat(where, order + 1)
    m2 = yp.ymat(where, order + 1)
    xb = _vector_bracket(x1, x2, order)
    z = Mat2.zero(order)
    for lam in range(4):
        z = z + m2.derive(lam).scale(x1[lam].truncate(order)) - m1.derive(lam).scale(x2[lam].truncate(order))
    z = z + m2.truncate(order).commutator(m1.truncate(order))
    return xb, z


def _lift_mat(qd: QuantumData, x_jets: Sequence, o: Observer, where, order: int) -> Mat2:
    """X^lam (i Ch_lam[o] 1 + C_lam^a xi_a) for the jets x_jets of X."""
    ch = ch_along_jets(qd, o, where, order)
    cc = qd.spin.coeffs(where, order)
    x = [xj.truncate(order) for xj in x_jets]
    return Mat2([jet_sum(x[lam] * (ch[lam] if nu == 0 else cc[lam][nu - 1]) for lam in range(4)) for nu in range(4)])


def connection_lift(qd: QuantumData, x_fields: Sequence, o: Observer) -> HermitianField:
    """X |_ (Ch[o] (x) C): matrix part i X^lam Ch_lam[o] 1 + X^lam C_lam^a xi_a."""

    def x_eval(where, order):
        point = as_point(where)
        return [f.eval_jet(point, order) for f in x_fields]

    def y_eval(where, order):
        return _lift_mat(qd, x_eval(where, order), o, where, order)

    return HermitianField(x_eval, y_eval, div_corrected=False)


def vertical_projection(y: HermitianField, qd: QuantumData, o: Observer, where, order: int = 0) -> Mat2:
    """nu[c] Y = Ymat - X^lam c_lam at a point, on a (4, N) cloud or on a
    bundle's points: anti-Hermitian when Y is plain-Hermitian."""
    x = y.x_jets(where, order)
    return y.ymat(where, order) - _lift_mat(qd, x, o, where, order)


def pair_bracket(pair, pair_p, qd: QuantumData, o: Observer, where, order: int = 0):
    """Bracket of (X, Ycheck) pairs through the connection:
    ([X,X'], -R(X,X') + nabla_X Y' - nabla_X' Y + [Y', Y]).

    Each pair is (x_fields, vertical_mat_eval) with vertical_mat_eval a
    callable (where, order) -> Mat2.  Jets and Mat2 at a point, on a (4, N)
    cloud or on a bundle's points.
    """
    bundle = qd.bg.jets(where)
    point = bundle.point
    x_fields, yv = pair
    xp_fields, yvp = pair_p
    x1 = [f.eval_jet(point, order + 1) for f in x_fields]
    x2 = [f.eval_jet(point, order + 1) for f in xp_fields]
    cc = [[cj.truncate(order) for cj in row] for row in qd.spin.coeffs(bundle, order + 1)]
    ch1 = ch_along_jets(qd, o, bundle, order + 1)
    m1 = yv(where, order + 1)
    m2 = yvp(where, order + 1)
    xb = _vector_bracket(x1, x2, order)

    # curvature R_{lam mu} = -i (dCh[o])_{lam mu} 1 + rho_{lam mu}^a xi_a
    # = -(dCh[o])_{lam mu} xi_0 + rho_{lam mu}^a xi_a
    rho = bundle.rho(qd.spin.which, order)
    dch = exterior_derivative(ch1)
    out = Mat2.zero(order)
    for lam in range(4):
        for mu in range(4):
            if lam != mu:
                w = (x1[lam] * x2[mu]).truncate(order)
                out = out - Mat2([-dch[lam][mu]] + rho[lam][mu]).scale(w)
    # transport of the vertical parts: nabla_lam Y = d_lam Y - [C_lam, Y]
    # (the sign the vertical-field identification induces; it makes this
    # formula agree with the plain Lie bracket route)
    for lam in range(4):
        cmat = Mat2([Jet.const(0.0, order)] + cc[lam])
        d2 = m2.derive(lam) - cmat.commutator(m2.truncate(order))
        d1 = m1.derive(lam) - cmat.commutator(m1.truncate(order))
        out = out + d2.scale(x1[lam].truncate(order)) - d1.scale(x2[lam].truncate(order))
    out = out + m2.truncate(order).commutator(m1.truncate(order))
    return xb, out


def to_special(y: HermitianField, qd: QuantumData, o: Observer, where) -> SpecialValue:
    """Invert the correspondence: (f0, f^i) from X, then fbrev and phi from
    the xi_0 and xi_a coefficients of the vertical projection along o.  The
    divergence shift of a volume-weighted field is its identity coefficient
    w, which they read past.  Floats at a point, (N,) arrays on a (4, N)
    cloud or on a bundle's points; NotHermitian where the Hermiticity
    residual exceeds HERMITIAN_TOL (or is not a number)."""
    bundle = qd.bg.jets(where)
    point = bundle.point
    batch = point.shape[1:]
    herm = hermiticity_residual(y, qd, bundle)
    bad = ~(np.asarray(herm) <= HERMITIAN_TOL)
    if bad.any():
        at = point[:, np.argmax(bad)] if batch else point
        raise NotHermitian(f"Hermiticity residual {np.max(herm):.3e} at {at.tolist()}")
    x = value_array(y.x_jets(bundle, 0), batch)
    ycheck = value_array(vertical_projection(y, qd, o, bundle).y, batch)
    f0, fi = x[0], -x[1:]
    g = value_array(bundle.metric(0), batch)
    pref = qd.bg.constants.metric_prefactor
    vo = o.velocity(point)
    gvo = [sum(g[i][j] * vo[j] for j in range(3)) for i in range(3)]
    fbrev = (ycheck[0] - 0.5 * pref * f0 * sum(vo[i] * gvo[i] for i in range(3))
             - pref * sum(fi[i] * gvo[i] for i in range(3)))
    return SpecialValue(f0, fi, fbrev, ycheck[1:])


def invariant_combination(f: SpecialFunction, qd: QuantumData, o: Observer, where):
    """f0 Ch_0(o) - f^j Ch_j(o) + f(o): the scalar that the main theorem shows
    to be observer-independent (it equals f0 A0 - f^j A_j + fbrev).  A float
    at a point, an (N,) array of per-point values on a (4, N) cloud or on a
    bundle's points, (m, N) for a stack of m functions.  f is evaluated once,
    at order 0, for its components and its value f(o) alike; a caller that
    checks several observers on one bundle passes `evaluated(f, bundle, 0)`."""
    bundle = qd.bg.jets(where)
    batch = bundle.point.shape[1:]
    f = evaluated(f, bundle, 0)
    ch = value_array(ch_along_jets(qd, o, bundle, 0), batch)
    c = component_jets(f, bundle, 0).values(batch)
    f_at_o = eval_special(f, qd.bg, PhasePoint(bundle, o.velocity(bundle.point)))
    return c.f0 * ch[0] - sum(c.fi[j] * ch[j + 1] for j in range(3)) + f_at_o


def hermiticity_residual(y: HermitianField, qd: QuantumData, where):
    """max |Y + Y^dagger (+ div_eta X for volume-weighted fields)|: a float
    at a point, an (N,) array of per-point values on a (4, N) cloud or on a
    bundle's points, (m, N) for the field of a stack of m functions."""
    bundle = qd.bg.jets(where)
    ymat = y.ymat(bundle, 0)
    div = divergence_eta_jets(y.x_jets(bundle, 1), bundle, 0) if y.div_corrected else Jet.const(0.0, 0)
    batch = batch_shape([ymat.y, ymat.w, div], bundle.point.shape[1:])
    mval = ymat.values(batch)
    eye = np.eye(2).reshape((2, 2) + (1,) * len(batch))
    return max_abs(mval + mval.conj().swapaxes(0, 1) + value_array(div, batch) * eye, batch)
