"""Grid discretization: pre-quantum operators and Pauli evolution.

Spinor fields live on a rectangular spatial grid with Dirichlet-zero boundary
(the finite surrogate of compactly supported sections).  Axes with a single
node are inactive: the scenario is treated as invariant along them and they
contribute no derivative or potential terms (dimensional reduction).  All
stencils are second-order central differences.  Node coefficients come from
chunked jet passes over the grid nodes and are stored component-major; on a
constant background the passes' bundles share one cache.

Each grid operator is built once as a Stencil: a (..., 2, 2) centre matrix and
one coefficient array per neighbour offset, with offsets whose coefficients
are all zero dropped (the mixed derivatives of a diagonal metric, say).  An
apply is one einsum with the centre and one in-place slice accumulation per
kept offset; the Dirichlet zeros come from the slicing.  A centre with no
off-diagonal entry multiplies psi elementwise by its diagonal without the
einsum.  Each elementwise factor is a Python number when it holds one
number at every node and spinor component, and otherwise a C-contiguous
array of the full (..., 2) shape it multiplies: numpy broadcasts a column or
a row along the length-2 spinor axis several times slower than it
multiplies two contiguous arrays of one shape.  The terms left out are
exact zeros, so the results are those of the all-array apply.

The generator H with i d0 psi = H psi on the Pauli kernel is

    H = -1/2 Delta0 - A0 + i C_0^k xi_k,

and the pre-quantum operator of a special function F is assembled as
i (Y.psi - u0 f0 P psi) with the d0 psi contributions cancelled structurally
(they are never formed).  Crank-Nicolson steps solve the Cayley system
(1 + i tau H) x = (1 - i tau H) psi, tau = dt/2, matrix-free as the Neumann
series x = psi + 2 sum_{j>=1} t_j with t_j = (-i tau H)^j psi, one generator
apply per term.  The terms certify each step: it ends when an update 2|t_m|
falls to 1e-14 |b| (b = psi + t_1), which bounds the residual
(1 + i tau H) x - b = -2 t_{m+1}, and a step size at which the terms stop
shrinking is reported as SolverDivergence.  The observables of the states
are evaluated a block of steps at a time, in one pass per block.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hermitian import QuantumData, y_coefficients
from .jets import SIZES, value_array
from .pauli import xi_combination
from .special import SpecialFunction, SpecialValue, component_jets

__all__ = [
    "GridSpec", "SpinorGrid", "node_map",
    "GridGeometry", "GridOperator", "observed_laplacian", "pauli_generator",
    "prequantum", "operator_bracket", "inner_product", "evolve_pauli",
    "Trajectory", "measure_frequency", "write_snapshot",
    "GridMismatch", "NonStaticMetric", "SolverDivergence",
]


class GridMismatch(ValueError):
    """Operands live on different grids."""


class NonStaticMetric(ValueError):
    """Evolution requires a time-independent spatial volume."""


class SolverDivergence(RuntimeError):
    """The Cayley series of a Crank-Nicolson step failed to converge."""


@dataclass(frozen=True)
class GridSpec:
    """Per-axis (min, max, n) for x1..x3; n = 1 marks an inactive axis."""

    axes: tuple
    time: float = 0.0

    def __post_init__(self):
        if len(self.axes) != 3:
            raise ValueError("three axes required")
        for ax in self.axes:
            if len(ax) != 3 or not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in ax):
                raise ValueError(f"bad axis {ax!r}: expected finite (lo, hi, n)")
            lo, hi, n = ax
            if n < 1 or n != int(n) or (n >= 2 and hi <= lo):
                raise ValueError(f"bad axis ({lo}, {hi}, {n})")

    @property
    def shape(self) -> tuple:
        return tuple(int(n) for _, _, n in self.axes)

    def coords(self) -> list:
        out = []
        for lo, hi, n in self.axes:
            if n == 1:
                out.append(np.array([0.5 * (lo + hi)]))
            else:
                out.append(np.linspace(lo, hi, int(n)))
        return out

    def mesh4(self) -> list:
        """The node coordinates x0..x3, each an array of the grid's shape."""
        return [np.full(self.shape, self.time), *np.meshgrid(*self.coords(), indexing="ij")]

    def spacing(self, axis: int) -> float:
        lo, hi, n = self.axes[axis]
        return (hi - lo) / (n - 1) if n > 1 else 0.0

    @property
    def active(self) -> list:
        return [i for i in range(3) if self.axes[i][2] > 1]

    @property
    def dvol(self) -> float:
        """The cell volume: the product of the spacings of the active axes."""
        return math.prod((self.spacing(ax) for ax in self.active), start=1.0)


@dataclass
class SpinorGrid:
    spec: GridSpec
    psi: np.ndarray  # complex, shape (n1, n2, n3, 2)

    def __post_init__(self):
        self.psi = np.ascontiguousarray(self.psi, dtype=complex)
        if self.psi.shape != self.spec.shape + (2,):
            raise GridMismatch(f"psi shape {self.psi.shape} does not match grid {self.spec.shape}")

    def copy(self) -> "SpinorGrid":
        return SpinorGrid(self.spec, self.psi.copy())


def _check_same(a: SpinorGrid, b: SpinorGrid):
    if a.spec != b.spec:
        raise GridMismatch("grids differ")


def _shift(arr: np.ndarray, axis: int, d: int) -> np.ndarray:
    """Array whose value at node k is arr[k + d] with zeros outside (Dirichlet)."""
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    if d == 1:
        dst[axis] = slice(None, -1)
        src[axis] = slice(1, None)
    elif d == -1:
        dst[axis] = slice(1, None)
        src[axis] = slice(None, -1)
    else:
        raise ValueError("shift must be +-1")
    out[tuple(dst)] = arr[tuple(src)]
    return out


# Grid nodes per batched jet evaluation.  The grid pass of a bracket on
# curved_magnetic (f^i at order 1, its scalar and spin parts at order 0)
# peaks at about 820 float64 coefficients per node, so one chunk stays near
# 1.6 MiB however large the grid.
NODE_CHUNK = 256

# Complex spinor values per block of states whose observables evolve_pauli
# evaluates in one pass (256 KiB): all 5,611 states of a one-node Larmor run,
# 21 states of 383 nodes, one state of 24^3 nodes.
OBSERVABLE_BLOCK = 2**14


def node_map(mesh4, evaluate) -> np.ndarray:
    """Per-node quantities of a grid, evaluated NODE_CHUNK nodes at a time.

    `evaluate` takes a coordinate-major (4, n) cloud of nodes and returns an
    array whose last axis runs over those n nodes (length 1 for a value that
    all of them share).  The result is component-major: the leading axes of
    that array, then the grid shape of mesh4, so that each component is one
    contiguous grid array."""
    shape = mesh4[1].shape
    cloud = np.stack([np.broadcast_to(m, shape).ravel() for m in mesh4])
    out = None
    for s in range(0, cloud.shape[1], NODE_CHUNK):
        part = evaluate(cloud[:, s:s + NODE_CHUNK])
        if out is None:
            out = np.empty(part.shape[:-1] + (cloud.shape[1],))
        out[..., s:s + NODE_CHUNK] = part
    return out.reshape(out.shape[:-1] + shape)


class GridGeometry:
    """Node-level coefficient arrays for one (quantum data, grid) pair.

    One chunked jet pass, with one background bundle per chunk, gives them
    all: sqrt|g|, g^{ij} and A_lam as order-1 jets, whose coefficients
    (value, d0, d1, d2, d3) are values and first derivatives, and the spin
    connection C_lam^a at order 0.  On a constant background the chunks'
    bundles share one cache, so the background's part is built once.  The
    attributes are grid-major views of the component-major result
    (CONVENTIONS.md)."""

    def __init__(self, qd: QuantumData, spec: GridSpec):
        self.qd = qd
        self.spec = spec
        self.mesh4 = spec.mesh4()
        bg = qd.bg
        consts = bg.constants
        self.kinetic = consts.u0.value * consts.hbar.value / consts.m.value  # u0 hbar / m

        def evaluate(cloud):
            n = cloud.shape[1]
            bundle = bg.jets(cloud)
            ginv = bundle.metric_inv(1)
            jets = [bundle.sqrt_det(1), *(ginv[i][j] for i in range(3) for j in range(3)), *qd.a_jets(cloud, 1)]
            rows = [np.broadcast_to(j.c, (n, SIZES[1])).T for j in jets]
            return np.concatenate(rows + [qd.spin.coeff_values(bundle).reshape(12, n)])

        nodes = node_map(self.mesh4, evaluate)
        jets = nodes[:-12].reshape((14, SIZES[1]) + spec.shape)  # [sqrtg, g^11..g^33, A_0..A_3][coeff]
        # inactive axes carry no derivative terms (dimensional reduction)
        jets[:10, [2 + ax for ax in range(3) if ax not in spec.active]] = 0.0
        self.sqrtg, self.d0sqrtg = jets[0, 0], jets[0, 1]
        self.dsqrtg = np.moveaxis(jets[0, 2:], 0, -1)  # [..., i] = d_i sqrt|g|
        ginv = jets[1:10].reshape((3, 3, SIZES[1]) + spec.shape)
        self.ginv = np.moveaxis(ginv[:, :, 0], (0, 1), (-2, -1))
        self.dginv = np.moveaxis(ginv[:, :, 2:], (2, 0, 1), (-3, -2, -1))  # [..., axis, j, h] = d_axis g^{jh}
        self.a = list(jets[10:, 0])
        self.da = np.moveaxis(jets[11:, 2:], (1, 0), (-2, -1))  # [..., i, j] = d_i A_j
        self.c_coeffs = np.moveaxis(nodes[-12:].reshape((4, 3) + spec.shape), (0, 1), (-2, -1))
        self.dvol = spec.dvol

    # -- differential helpers ------------------------------------------------

    def d1(self, arr: np.ndarray, axis: int) -> np.ndarray:
        h = self.spec.spacing(axis)
        return (_shift(arr, axis, 1) - _shift(arr, axis, -1)) / (2.0 * h)


@dataclass
class GridOperator:
    """A linear map on spinor grids."""

    label: str
    apply_fn: Callable
    symmetric: bool = False

    def __call__(self, grid: SpinorGrid) -> SpinorGrid:
        return SpinorGrid(grid.spec, self.apply_fn(grid.psi))


# (dst, src) slices along one axis for a neighbour step of +1, -1 or 0
_STEP_SLICES = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
                0: (slice(None), slice(None))}


def _offset_slices(offset: tuple):
    """(dst, src) node slices that pair each node with its neighbour at
    `offset`; neighbours past the edge are left out (Dirichlet zero)."""
    return tuple(_STEP_SLICES[d][0] for d in offset), tuple(_STEP_SLICES[d][1] for d in offset)


def _spinor_factor(arr: np.ndarray):
    """A (..., 1) or (..., 2) node array as a factor of (..., 2) spinor
    nodes: a Python number when it holds one number at every node and
    component, else a C-contiguous array of the full (..., 2) shape, as
    numpy multiplies two contiguous arrays of one shape several times faster
    than it broadcasts a column or a row along the spinor axis."""
    first = arr.flat[0]
    if np.all(arr == first):
        return first.item()
    return np.ascontiguousarray(np.broadcast_to(arr, arr.shape[:-1] + (2,)))


class Stencil:
    """A nearest-neighbour grid operator as coefficient arrays (CONVENTIONS.md).

    (H psi)[k] = centre[k] psi[k] + sum over offsets d of coef_d[k] psi[k + d],
    with a (..., 2, 2) complex centre matrix and, per offset d in {-1, 0, 1}^3,
    a grid-shaped complex coefficient array.  Stencils add."""

    def __init__(self, centre: np.ndarray, offsets: dict):
        self.centre = centre
        self.offsets = offsets

    def __add__(self, other: "Stencil") -> "Stencil":
        offsets = dict(self.offsets)
        for d, coef in other.offsets.items():
            offsets[d] = offsets[d] + coef if d in offsets else coef
        return Stencil(self.centre + other.centre, offsets)

    def live_offsets(self) -> dict:
        """The offsets whose coefficients are not all zero."""
        return {d: coef for d, coef in self.offsets.items() if np.any(coef)}

    def operator(self, label: str, symmetric: bool) -> GridOperator:
        """The operator that applies this stencil: the centre, then one
        in-place slice accumulation per live offset.  A centre with no
        off-diagonal entry multiplies psi elementwise by its diagonal, and
        only a centre with one takes the einsum.  Each elementwise factor
        is a Python number or a contiguous (..., 2) array (_spinor_factor)."""
        centre = self.centre
        diagonal = not (np.any(centre[..., 0, 1]) or np.any(centre[..., 1, 0]))
        if diagonal:
            centre = _spinor_factor(np.einsum("...ii->...i", centre))
        terms = []
        for d, coef in self.live_offsets().items():
            dst, src = _offset_slices(d)
            terms.append((dst, src, _spinor_factor(coef[dst][..., None])))

        def apply_fn(psi: np.ndarray) -> np.ndarray:
            out = centre * psi if diagonal else np.einsum("...ab,...b->...a", centre, psi)
            for dst, src, coef in terms:
                out[dst] += coef * psi[src]
            return out

        return GridOperator(label, apply_fn, symmetric)


def inner_product(geom: GridGeometry, a: SpinorGrid, b: SpinorGrid) -> complex:
    """<a, b> = sum conj(a) . b sqrt|g| dV (plain Riemann sum)."""
    _check_same(a, b)
    dens = np.einsum("...s,...s->...", a.psi.conj(), b.psi)
    return complex(np.sum(dens * geom.sqrtg) * geom.dvol)


def _axis_offset(i: int, d: int) -> tuple:
    return tuple(d if k == i else 0 for k in range(3))


def _laplacian_stencil(geom: GridGeometry, scale=1.0) -> Stencil:
    """Delta0[o] = u0 (hbar/m) g^{ij} ((d_i - iA_i)(d_j - iA_j) - K^h_{ij}(d_h - iA_h)), times `scale`.

    The connection term carries the covariant-Hessian sign (-Gamma); it is
    assembled through the divergence identity -g^{ij} K^h_{ij} =
    (1/sqrt|g|) d_i (sqrt|g| g^{ih}), which makes this the Laplace-Beltrami
    operator of the spatial metric (symmetric with the sqrt|g| weight).  Sums
    run over active axes only: a single-node axis removes its whole
    (d_i - iA_i) factor, and the divergence form keeps the reduction
    self-adjoint for the full 3-d volume weight.  Second derivatives are
    central differences, mixed ones the four-corner product of two.  `scale`,
    a scalar or a grid-shaped node array, enters the prefactor u0 hbar/m
    before the centre and the offsets are formed, so no scaled copy of
    them is made."""
    active = geom.spec.active
    pref = geom.kinetic * scale
    ginv = geom.ginv
    a_sp = [geom.a[i + 1] for i in range(3)]
    h = [geom.spec.spacing(i) for i in range(3)]
    real = np.zeros(geom.spec.shape)  # centre = real + i imag
    imag = np.zeros(geom.spec.shape)
    offsets = {}
    for i in active:
        # w_i = d_j g^{ji} + g^{ji} d_j sqrt|g| / sqrt|g|, the divergence vector
        w = np.zeros(geom.spec.shape)
        ga = np.zeros(geom.spec.shape)  # g^{ij} A_j
        for j in active:
            w += geom.dginv[..., j, j, i] + ginv[..., j, i] * geom.dsqrtg[..., j] / geom.sqrtg
            ga += ginv[..., i, j] * a_sp[j]
            imag -= ginv[..., i, j] * geom.da[..., i, j]
            if j > i:
                cross = ginv[..., i, j] + ginv[..., j, i]  # both orderings of d_i d_j
                if np.any(cross):
                    for si in (1, -1):
                        for sj in (1, -1):
                            d = tuple(si if k == i else sj if k == j else 0 for k in range(3))
                            offsets[d] = pref * (si * sj * cross / (4.0 * h[i] * h[j]))
        for s in (1, -1):
            offsets[_axis_offset(i, s)] = pref * (ginv[..., i, i] / h[i] ** 2 + s * (w - 2j * ga) / (2.0 * h[i]))
        real -= 2.0 * ginv[..., i, i] / h[i] ** 2 + ga * a_sp[i]
        imag -= w * a_sp[i]
    return Stencil((pref * (real + 1j * imag))[..., None, None] * np.eye(2), offsets)


def observed_laplacian(geom: GridGeometry) -> GridOperator:
    """Delta0 on the grid (see _laplacian_stencil)."""
    return _laplacian_stencil(geom).operator("Delta0", symmetric=False)


def _static_check(geom: GridGeometry, tol: float = 1e-12):
    if float(np.max(np.abs(geom.d0sqrtg))) > tol:
        raise NonStaticMetric("metric volume is time-dependent; evolution unsupported")


def _node_matrices(geom: GridGeometry, coeffs) -> np.ndarray:
    """sum_nu coeffs[nu] xi_nu at every node, as a (..., 2, 2) array, for
    four coefficients (numbers or node arrays)."""
    return np.moveaxis(xi_combination(coeffs, geom.spec.shape), (0, 1), (-2, -1))


def _spin_c0(geom: GridGeometry) -> np.ndarray:
    """C_0^a xi_a at every node, as a (..., 2, 2) array."""
    return _node_matrices(geom, [0.0, *np.moveaxis(geom.c_coeffs[..., 0, :], -1, 0)])


def pauli_generator(geom: GridGeometry) -> GridOperator:
    """H with i d0 psi = H psi on the Pauli kernel: -1/2 Delta0 - A0 + i C_0^k xi_k."""
    _static_check(geom)
    local = 1j * _spin_c0(geom) - geom.a[0][..., None, None] * np.eye(2)
    stencil = _laplacian_stencil(geom, -0.5) + Stencil(local, {})
    return stencil.operator("pauli_generator", symmetric=True)


def _component_arrays(f: SpecialFunction, geom: GridGeometry):
    """Node arrays of the components (f0, f^1..f^3, fbrev, phi_1..phi_3) of f,
    and of d_i f^i keyed by active axis i, from one order-1 jet evaluation of
    f per chunk of nodes.  The values are read through its order-0
    truncation, so a derived function builds its scalar and spin parts at
    order 0 only."""
    active = geom.spec.active

    def evaluate(cloud):
        cj = component_jets(f, cloud, 1)
        c0 = cj.truncate(0)
        jets = [c0.f0, *c0.fi, c0.fbrev, *c0.phi] + [cj.fi[i].derive(i + 1) for i in active]
        return value_array(jets, cloud.shape[1:])

    arrays = node_map(geom.mesh4, evaluate)
    return list(arrays[:8]), dict(zip(active, arrays[8:]))


def prequantum(qd: QuantumData, geom: GridGeometry, f: SpecialFunction) -> GridOperator:
    """i (Y[F].psi - u0 f0 P psi) with the time derivative structurally
    cancelled (no d0 psi term is ever formed)."""
    if qd is not geom.qd:
        raise GridMismatch("geometry was built for different quantum data")
    vals, dfi = _component_arrays(f, geom)
    c = SpecialValue(vals[0], vals[1:4], vals[4], vals[5:8])
    y = y_coefficients(c, geom.a, np.moveaxis(geom.c_coeffs, (-2, -1), (0, 1)))
    f0 = c.f0
    xi_sp = [-fi for fi in c.fi]
    # div_eta X = (X^0 d0 sqrtg + d_i(X^i sqrtg)) / sqrtg, active axes only
    div = f0 * geom.d0sqrtg / geom.sqrtg
    for i in geom.spec.active:
        div += -dfi[i] + xi_sp[i] * geom.dsqrtg[..., i] / geom.sqrtg
    ymat = _node_matrices(geom, y) + (-0.5 * div)[..., None, None] * np.eye(2)
    p_factor = geom.d0sqrtg / (2.0 * geom.sqrtg)
    # Y.psi - f0 (P psi without its Laplacian part); P's -i/2 Delta0 is added below
    pmat = (-1j * geom.a[0] + p_factor)[..., None, None] * np.eye(2) - _spin_c0(geom)
    offsets = {}
    for i in geom.spec.active:
        h = geom.spec.spacing(i)
        for s in (1, -1):
            offsets[_axis_offset(i, s)] = 1j * (s * xi_sp[i] / (2.0 * h))
    local = Stencil(1j * (-ymat - f0[..., None, None] * pmat), offsets)
    stencil = local + _laplacian_stencil(geom, -0.5 * f0)
    return stencil.operator(f.name or "prequantum", symmetric=True)


def operator_bracket(o1: GridOperator, o2: GridOperator, probe: SpinorGrid) -> SpinorGrid:
    """[O1, O2] psi = -i (O1 O2 - O2 O1) psi."""
    a = o1.apply_fn(o2.apply_fn(probe.psi))
    b = o2.apply_fn(o1.apply_fn(probe.psi))
    return SpinorGrid(probe.spec, -1j * (a - b))


def check_linearity(op: GridOperator, spec: GridSpec, rng: np.random.Generator) -> float:
    shape = spec.shape + (2,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    al, be = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    lhs = op.apply_fn(al * u + be * v)
    rhs = al * op.apply_fn(u) + be * op.apply_fn(v)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


# ---------------------------------------------------------------------------
# evolution


@dataclass
class Trajectory:
    steps: np.ndarray
    times: np.ndarray
    norms: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    widths: np.ndarray
    final: SpinorGrid
    snapshots: list = field(default_factory=list)


def _observables(geom: GridGeometry, psis: np.ndarray) -> np.ndarray:
    """Rows (norm, <sigma_1>, <sigma_2>, <sigma_3>, width) of a stack of
    states psis[k], from one pass over the weighted spinors psi sqrt|g|.
    Each state's 2x2 density rho_ab = sum conj(psi_a) psi_b sqrt|g|, one
    matrix of a batched matmul, gives the norm sqrt(tr rho dV) and
    <sigma_k> = sum_ab sigma_k,ab rho_ab / tr rho (not tr(sigma rho), which
    flips the sign of the antisymmetric sigma_2): Re(rho_01 + rho_10),
    Im rho_01 - Im rho_10 and Re(rho_00 - rho_11), over tr rho.  On a grid
    with an active axis the node density gives the width, the root of the
    summed variances along the active axes.  A zero state's row is zeros."""
    count = len(psis)
    conj = psis.conj().reshape(count, -1, 2)
    weighted = (psis * geom.sqrtg[..., None]).reshape(count, -1, 2)
    r00, r01, r10, r11 = np.matmul(conj.transpose(0, 2, 1), weighted).reshape(count, 4).T
    total = r00.real + r11.real
    denom = np.where(total == 0.0, 1.0, total)  # every sum of a zero state is 0
    out = np.zeros((5, count))
    out[0] = np.sqrt(total * geom.dvol)
    out[1] = (r01 + r10).real / denom
    out[2] = (r01.imag - r10.imag) / denom
    out[3] = (r00.real - r11.real) / denom
    active = geom.spec.active
    if active:
        dens = np.einsum("...s,...s->...", conj, weighted).real
        for ax in active:
            x = geom.mesh4[ax + 1].ravel()
            mean = np.sum(dens * x, axis=1) / denom
            out[4] += np.sum(dens * (x - mean[:, None]) ** 2, axis=1) / denom
        out[4] = np.sqrt(out[4])
    return out


def _cayley_step(h_apply: Callable, psi: np.ndarray, tau: float, n: int) -> np.ndarray:
    """Step n of evolve_pauli: x with (1 + i tau H) x = (1 - i tau H) psi.
    Norms are compared squared, the shrink rule starts from t_0 = psi, and
    an overflowing term, whose norm is infinite or NaN, raises too."""
    last = np.vdot(psi, psi).real
    factor = -1j * tau
    t = psi
    for m in range(1, 501):
        t = h_apply(t)
        t *= factor
        tt = np.vdot(t, t).real
        if tt and not tt < last:  # a zero term (psi = 0, H psi = 0) ends the series below
            raise SolverDivergence(f"the Cayley series stopped shrinking at step {n}; reduce dt")
        if m == 1:
            b = psi + t
            tol = 0.25e-28 * np.vdot(b, b).real  # (1e-14 |b| / 2)^2
            total = t
        else:
            total += t
        if tt <= tol:
            return psi + 2.0 * total
        last = tt
    raise SolverDivergence(f"the Cayley series stalled at step {n}")


def evolve_pauli(
    qd: QuantumData,
    psi0: SpinorGrid,
    dt: float,
    steps: int,
    geom: GridGeometry | None = None,
    snapshot_every: int = 0,
) -> Trajectory:
    """Crank-Nicolson evolution (1 + i tau H) psi+ = (1 - i tau H) psi with
    tau = dt/2, solved matrix-free as the Neumann series
    psi+ = psi + 2 sum_{j>=1} t_j, t_j = (-i tau H)^j psi, one generator apply
    per term.  A step ends at the first update 2|t_m| <= 1e-14 |b|,
    b = psi + t_1, which certifies it: the residual (1 + i tau H) psi+ - b is
    -2 t_{m+1}.  A term no smaller than the one before it means the series
    does not converge at this dt, and SolverDivergence is raised at once, as
    it is after 500 terms without convergence.  Norm, <sigma> and width are
    recorded at every step: each state is copied into a block of
    OBSERVABLE_BLOCK // psi.size states (at least one, at most steps + 1),
    and _observables evaluates each full block, and the last partial one,
    in one pass."""
    geom = geom or GridGeometry(qd, psi0.spec)
    h_apply = pauli_generator(geom).apply_fn
    spec = psi0.spec
    psi = psi0.psi.copy()
    obs = np.empty((5, steps + 1))
    block = np.empty((max(1, min(steps + 1, OBSERVABLE_BLOCK // psi.size)),) + psi.shape, dtype=complex)
    snaps = []

    def record(step):
        k = step % len(block)
        block[k] = psi
        if k == len(block) - 1 or step == steps:
            obs[:, step - k:step + 1] = _observables(geom, block[:k + 1])
        if snapshot_every and step % snapshot_every == 0:
            snaps.append((step, SpinorGrid(spec, psi.copy())))

    record(0)
    # an overflowing term is caught by the step's shrink rule, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            psi = _cayley_step(h_apply, psi, 0.5 * dt, n)
            record(n)
    step_numbers = np.arange(steps + 1)
    return Trajectory(
        steps=step_numbers,
        times=spec.time + step_numbers * dt,
        norms=obs[0],
        sx=obs[1],
        sy=obs[2],
        sz=obs[3],
        widths=obs[4],
        final=SpinorGrid(spec, psi),
        snapshots=snaps,
    )


def measure_frequency(signal: np.ndarray, dt: float) -> float:
    """Dominant angular frequency of a real signal: Hann-windowed periodogram
    peak refined by golden-section search."""
    sig = np.asarray(signal, dtype=float)
    sig = sig - np.mean(sig)
    n = len(sig)
    window = np.hanning(n)
    t = np.arange(n) * dt

    def power(omega: float) -> float:
        z = np.sum(window * sig * np.exp(-1j * omega * t))
        return float(np.abs(z) ** 2)

    pad = 8
    spec = np.abs(np.fft.rfft(window * sig, n=pad * n)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(pad * n, d=dt)
    k = int(np.argmax(spec[1:]) + 1)
    lo = freqs[max(k - 2, 0)]
    hi = freqs[min(k + 2, len(freqs) - 1)]
    phi_ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi_ratio * (b - a)
    d = a + phi_ratio * (b - a)
    for _ in range(80):
        if power(c) > power(d):
            b = d
        else:
            a = c
        c = b - phi_ratio * (b - a)
        d = a + phi_ratio * (b - a)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# snapshot files: header (3 int64 sizes, 6 f64 box bounds, 1 f64 time),
# then row-major (re, im) f64 pairs, little-endian, spinor index fastest.

_HEADER = struct.Struct("<3q6dd")


def write_snapshot(path, grid: SpinorGrid):
    spec = grid.spec
    bounds = []
    for lo, hi, _ in spec.axes:
        bounds += [lo, hi]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*spec.shape, *bounds, spec.time))
        data = np.empty(spec.shape + (2, 2))
        data[..., 0] = grid.psi.real
        data[..., 1] = grid.psi.imag
        fh.write(data.astype("<f8").tobytes())
