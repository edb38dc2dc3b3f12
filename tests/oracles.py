"""Oracles the tests compare the package against: plain numpy or float
evaluations written independently of the package's jet routes."""

import math
import struct

import numpy as np

from cqm.background import as_point
from cqm.hermitian import HermitianField, Mat2
from cqm.jets import INDEX_OF, Jet, value_array
from cqm.pauli import XI, XI_ALL
from cqm.quantum import GridSpec, SpinorGrid, inner_product


def extract(jet: Jet, alpha):
    """Partial derivative d^alpha f of a jet at its base point
    (= alpha! c_alpha): a float at a point, an (N,) array on a cloud."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > jet.order:
        raise ValueError(f"|{alpha}| exceeds jet order {jet.order}")
    fact = 1.0
    for a in alpha:
        fact *= math.factorial(a)
    slot = jet.c[..., INDEX_OF[alpha]]
    return fact * (slot.item() if jet.c.ndim == 1 else slot)


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
    omega = value_array(b.omega_table(p.v, 0), batch)
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


def omega_table_expanded(bundle, v_jets: list, order: int) -> list:
    """The cosymplectic table over (dx^0..dx^3, dv^1..dv^3) at `order`,
    expanded term by term as d Theta + Omega_K with the (d_lam g_ij) v^j
    products written out, for velocity jets v_jets."""
    c = bundle.bg.constants.metric_prefactor
    g1 = bundle.metric(order + 1)
    g0 = [[g1[i][j].truncate(order) for j in range(3)] for i in range(3)]
    k = bundle.k_joined("charge", order)
    v = [vj.truncate(order) for vj in v_jets]
    zero = Jet.const(0.0, order)
    omega = [[zero for _ in range(7)] for _ in range(7)]

    def add(a, b, w):
        omega[a][b] = omega[a][b] + w
        omega[b][a] = omega[b][a] - w

    for i in range(3):
        for j in range(3):
            # c g_ij dv^j ^ dx^i
            add(4 + j, i + 1, g0[i][j] * c)
            # -c g_ij v^i dv^j ^ dx^0
            add(4 + j, 0, g0[i][j] * v[i] * (-c))
            for lam in range(4):
                dg = g1[i][j].derive(lam)
                # c (d_lam g_ij) v^j dx^lam ^ dx^i
                add(lam, i + 1, dg * v[j] * c)
                # -c/2 (d_lam g_ij) v^i v^j dx^lam ^ dx^0
                add(lam, 0, dg * v[i] * v[j] * (-0.5 * c))
                # Omega_K: -c g_ij K_lam^i_0 dx^lam ^ dx^j
                add(lam, j + 1, g0[i][j] * k[lam][i][0] * (-c))
    return omega


def phi_observer_pullback(bundle, o, order: int) -> list:
    """Phi[o] as the chain-rule pullback of `omega_table_expanded` along the
    observer section: Omega_{lam mu} + Omega_{lam, vk} d_mu o^k
    + Omega_{vk, mu} d_lam o^k."""
    v = o.jets(bundle.point, order)
    do = o.jets(bundle.point, order + 1)
    omega = omega_table_expanded(bundle, v, order)
    phi = [[None] * 4 for _ in range(4)]
    for lam in range(4):
        for mu in range(4):
            acc = omega[lam][mu]
            for kk in range(3):
                acc = acc + omega[lam][4 + kk] * do[kk].derive(mu)
                acc = acc + omega[4 + kk][mu] * do[kk].derive(lam)
            phi[lam][mu] = acc
    return phi


def mat2_constant(mat: np.ndarray, order: int) -> Mat2:
    """The constant matrix field of a numeric matrix M = w 1 + (anti-Hermitian):
    w = 1/2 Re tr M, y_0 = 1/2 Im tr M and y_a = -2 tr(M xi_a)."""
    tr = np.trace(mat)
    coeffs = [0.5 * tr.imag] + [(-2.0 * np.trace(mat @ XI_ALL[1 + a])).real for a in range(3)]
    return Mat2([Jet.const(float(c), order) for c in coeffs], Jet.const(0.5 * tr.real, order))


def x_values(y: HermitianField, where) -> np.ndarray:
    """Values of the chart components X^lambda of y."""
    return np.array([j.value for j in y.x_jets(where, 0)])


def hermitian_raw(x_fields, y0_field, yi_fields) -> HermitianField:
    """Plain-Hermitian field from real component fields: Ymat = i Y0 1 + Y^a xi_a."""

    def x_eval(where, order):
        return [f.eval_jet(as_point(where), order) for f in x_fields]

    def y_eval(where, order):
        point = as_point(where)
        return Mat2([y0_field.eval_jet(point, order)] + [f.eval_jet(point, order) for f in yi_fields])

    return HermitianField(x_eval, y_eval, div_corrected=False)


def act_on_section(y: HermitianField, psi, where) -> np.ndarray:
    """(Y.psi)^A = X^lam d_lam psi^A - Y^A_B psi^B at a point, for a
    SpinorSection psi, whose components are held as (re, im) pairs of real
    jets."""
    point = as_point(where)
    pairs = [(re.eval_jet(point, 1), im.eval_jet(point, 1)) for re, im in psi.components]
    dpsi = np.array([[complex(re.derive(lam).value, im.derive(lam).value) for lam in range(4)]
                     for re, im in pairs])
    psi0 = np.array([complex(re.value, im.value) for re, im in pairs])
    return dpsi @ x_values(y, point) - y.ymat(where, 0).values() @ psi0


def vector_of(f, point) -> np.ndarray:
    """Chart components of X[f] = f0 d0 - f^i d_i from the component fields,
    evaluated as floats."""
    point = as_point(point)
    return np.array([f.f0(point), -f.fi[0](point), -f.fi[1](point), -f.fi[2](point)])


def grid_norm(geom, a: SpinorGrid) -> float:
    """The norm sqrt <a, a> of a spinor grid under `inner_product`."""
    return float(np.sqrt(inner_product(geom, a, a).real))


def shift(arr: np.ndarray, axis: int, d: int) -> np.ndarray:
    """Array whose value at node k is arr[k + d] (d = +-1) with zeros
    outside (Dirichlet)."""
    out = np.zeros_like(arr)
    dst, src = [slice(None)] * arr.ndim, [slice(None)] * arr.ndim
    dst[axis], src[axis] = (slice(None, -1), slice(1, None)) if d == 1 else (slice(1, None), slice(None, -1))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def d1(spec: GridSpec, arr: np.ndarray, axis: int) -> np.ndarray:
    """The central first difference along an axis from shifted copies, zero
    past the edges."""
    return (shift(arr, axis, 1) - shift(arr, axis, -1)) / (2.0 * spec.spacing(axis))


_SNAPSHOT_HEADER = struct.Struct("<3q6dd")  # CONVENTIONS.md, "Snapshot files"


def read_snapshot(path) -> SpinorGrid:
    """A snapshot file read as CONVENTIONS.md lays it out."""
    with open(path, "rb") as fh:
        header = _SNAPSHOT_HEADER.unpack(fh.read(_SNAPSHOT_HEADER.size))
        sizes, bounds, time = header[0:3], header[3:9], header[9]
        axes = tuple((bounds[2 * i], bounds[2 * i + 1], sizes[i]) for i in range(3))
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(sizes + (2, 2))
    return SpinorGrid(GridSpec(axes, time), raw[..., 0] + 1j * raw[..., 1])


def cayley_coefficient(s: int, j: int) -> int:
    """c_{s,j}, the coefficient of w^j in C^s = (1 + w)^s (1 - w)^-s, as an
    exact integer: sum_i binom(s, i) binom(s - 1 + j - i, s - 1)."""
    if s == 0:
        return int(j == 0)
    return sum(math.comb(s, i) * math.comb(s - 1 + j - i, s - 1) for i in range(min(s, j) + 1))


def certifying_terms(rates, psi, count: int) -> list:
    """For H = diag(rates) / tau on one node, whose term t_m = (-i tau H)^m psi
    has |t_m|^2 = sum_a |psi_a|^2 rates_a^(2m): per step s = 1..count the
    first m with (c_{s,m} + c_{s-1,m})^2 |t_m|^2 <= 1e-28 |psi + t_1|^2."""
    weights = np.abs(np.asarray(psi).ravel()) ** 2
    rates = np.asarray(rates, dtype=float)
    b2 = float(np.sum(weights * (1.0 + rates**2)))
    out = []
    for s in range(1, count + 1):
        for m in range(1, 501):
            w = cayley_coefficient(s, m) + cayley_coefficient(s - 1, m)
            if w * w * float(np.sum(weights * rates ** (2 * m))) <= 1e-28 * b2:
                out.append(m)
                break
    return out
