"""Oracles the tests compare the package against: plain numpy or float
evaluations written independently of the package's jet routes."""

import struct

import numpy as np

from cqm.background import as_point
from cqm.hermitian import HermitianField, Mat2
from cqm.jets import Jet, value_array
from cqm.pauli import XI, XI_ALL
from cqm.quantum import GridSpec, SpinorGrid, inner_product


def gtilde(a: np.ndarray, b: np.ndarray) -> float:
    """The form -2 Tr(AB) under which the xi_a are orthonormal."""
    return float((-2.0 * np.trace(a @ b)).real)


def pauli_unmap(m: np.ndarray) -> np.ndarray:
    """Sigma^-1 of a traceless anti-Hermitian matrix: v^a = gtilde(m, xi_a)."""
    return np.array([gtilde(m, XI[a]) for a in range(3)])


def frame_curvature(bundle, which: str = "moment") -> np.ndarray:
    """The frame curvature of Ktilde as 3x3 matrices,
    R_{lam mu} = -d_lam Kt_mu + d_mu Kt_lam + [Kt_lam, Kt_mu], from the
    order-1 jets of `bundle.ktilde`: (4, 4, 3, 3) at a point, with a trailing
    (N,) axis on a cloud.  R_{mu lam} is the negated R_{lam mu}."""
    batch = bundle.point.shape[1:]
    kt1 = bundle.ktilde(which, 1)
    kt = value_array(kt1, batch)
    r = np.zeros((4, 4, 3, 3) + batch)
    for lam in range(4):
        for mu in range(lam + 1, 4):
            for a in range(3):
                for b in range(3):
                    acc = (-value_array(kt1[mu][a][b].derive(lam), batch)
                           + value_array(kt1[lam][a][b].derive(mu), batch))
                    for c in range(3):
                        acc = acc + kt[lam, a, c] * kt[mu, c, b]
                        acc = acc - kt[mu, a, c] * kt[lam, c, b]
                    r[lam, mu, a, b] = acc
                    r[mu, lam, a, b] = -acc
    return r


def ad(w) -> list:
    """ad(w)^k_j = w_i eps_ijk, the endomorphism v -> w x v, as a nested 3x3
    list; the entries of w may be floats, arrays or jets."""
    zero = w[0] * 0.0
    return [[zero, -w[2], w[1]], [w[2], zero, -w[0]], [-w[1], w[0], zero]]


def cosymplectic_and_gamma(bg, p):
    """Numeric component table of the cosymplectic form over the basis
    (dx^0..dx^3, dx^1_0..dx^3_0) and the second-order connection gamma^i at
    the PhasePoint p: (7, 7) and (3,) at a phase point, (7, 7, N) and (3, N)
    on a cloud."""
    b = bg.jets(p.x)
    batch = b.point.shape[1:]
    omega = value_array(b.omega_table([Jet.const(v, 1) for v in p.v], 0), batch)
    kval = value_array(b.k_joined("charge", 0), batch)
    gamma = np.zeros((3,) + batch)
    for i in range(3):
        acc = kval[0][i][0]
        for j in range(3):
            acc = acc + 2.0 * kval[0][i][j + 1] * p.v[j]
            for h in range(3):
                acc = acc + kval[h + 1][i][j + 1] * p.v[h] * p.v[j]
        gamma[i] = acc
    return omega, gamma


def mat2_constant(mat: np.ndarray, order: int) -> Mat2:
    """The constant matrix field of a numeric matrix M: y_0 = -(i/2) tr M and
    y_a = -2 tr(M xi_a)."""
    coeffs = [-0.5j * np.trace(mat)] + [-2.0 * np.trace(mat @ XI_ALL[1 + a]) for a in range(3)]
    return Mat2([Jet.const(complex(c), order) for c in coeffs])


def x_values(y: HermitianField, where) -> np.ndarray:
    """Values of the chart components X^lambda of y."""
    return np.array([j.value for j in y.x_jets(where, 0)])


def hermitian_raw(x_fields, y0_field, yi_fields, name: str = "") -> HermitianField:
    """Plain-Hermitian field from real component fields: Ymat = i Y0 1 + Y^a xi_a."""

    def x_eval(where, order):
        return [f.eval_jet(as_point(where), order) for f in x_fields]

    def y_eval(where, order):
        point = as_point(where)
        return Mat2([y0_field.eval_jet(point, order)] + [f.eval_jet(point, order) for f in yi_fields])

    return HermitianField(x_eval, y_eval, div_corrected=False, name=name)


def act_on_section(y: HermitianField, psi, where) -> np.ndarray:
    """(Y.psi)^A = X^lam d_lam psi^A - Y^A_B psi^B at a point, for a
    SpinorSection psi."""
    point = as_point(where)
    pj = [re.eval_jet(point, 1) + im.eval_jet(point, 1) * 1j for re, im in psi.components]
    dpsi = np.array([[p.derive(lam).value for lam in range(4)] for p in pj])
    psi0 = np.array([p.value for p in pj])
    return dpsi @ x_values(y, point) - y.ymat(where, 0).values() @ psi0


def vector_of(f, point) -> np.ndarray:
    """Chart components of X[f] = f0 d0 - f^i d_i from the component fields,
    evaluated as floats."""
    point = as_point(point)
    return np.array([f.f0(point), -f.fi[0](point), -f.fi[1](point), -f.fi[2](point)])


def grid_norm(geom, a: SpinorGrid) -> float:
    """The norm sqrt <a, a> of a spinor grid under `inner_product`."""
    return float(np.sqrt(inner_product(geom, a, a).real))


_SNAPSHOT_HEADER = struct.Struct("<3q6dd")  # CONVENTIONS.md, "Snapshot files"


def read_snapshot(path) -> SpinorGrid:
    """A snapshot file read as CONVENTIONS.md lays it out."""
    with open(path, "rb") as fh:
        header = _SNAPSHOT_HEADER.unpack(fh.read(_SNAPSHOT_HEADER.size))
        sizes, bounds, time = header[0:3], header[3:9], header[9]
        axes = tuple((bounds[2 * i], bounds[2 * i + 1], sizes[i]) for i in range(3))
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(sizes + (2, 2))
    return SpinorGrid(GridSpec(axes, time), raw[..., 0] + 1j * raw[..., 1])
