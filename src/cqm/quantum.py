"""Grid discretization: pre-quantum operators and Pauli evolution.

Spinor fields live on a rectangular spatial grid with Dirichlet-zero boundary
(the finite surrogate of compactly supported sections).  Axes with a single
node are inactive: the scenario is treated as invariant along them and they
contribute no derivative or potential terms (dimensional reduction).  All
stencils are second-order central differences; the Laplacian's flux form
makes the Pauli generator self-adjoint on any metric.  Node coefficients
come from chunked jet passes over the grid nodes, one array per quantity: a
quantity whose jet is a constant in every chunk is the same at every node
and is kept as one number, the others as contiguous grid arrays; on a
constant background the passes' bundles share one cache.  Constant terms
stay numbers until they meet a varying array, so a flat metric costs no
grid memory and no grid arithmetic.

Each grid operator is built once as a Stencil: a centre matrix and one
coefficient per neighbour offset, each without grid axes when it is the
same at every node, with offsets whose coefficients are all zero dropped
(the mixed derivatives of a diagonal metric, say).  An
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
(1 + i tau H) x = (1 - i tau H) psi, tau = dt/2, matrix-free.  As the
generator is static, every step applies the same Cayley map
c(lam) = (1 - i tau lam) / (1 + i tau lam), so one Chebyshev series gives a
block of k steps (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984): with
[centre - radius, centre + radius] the Gershgorin interval of the
generator's stencil and H~ = (H - centre) / radius,
psi_s = c(H)^s psi = sum_n a_n(s) T_n(H~) psi, s = 1..k.  The a_n(s) are the
Chebyshev coefficients of c^s, from one FFT of its samples; the terms
T_n(H~) psi come from the three-term recurrence, one generator apply each,
and do not depend on s.  Each state's series ends at N_s, fixed before the
first apply by an a priori bound on the tail sum_{n > N_s} |a_n(s)|, which
certifies every step's Cayley residual to 1e-14 |b| as H is self-adjoint
(CONVENTIONS.md); a dt whose one step needs more than TERM_LIMIT terms is
reported as SolverDivergence before any apply, as is a term that outgrows
psi.  The block length is the one with the fewest terms for the run, so it
follows from the input alone.  The terms are not summed one by one: each
is written into the next slot of a ring of psi-shaped slots, and each full
ring, then the last one, is folded into the block's states by one matrix
product of a block of the a_n(s) with the slots, so a term costs the apply
and a few vector passes.  The observables of the states are evaluated a
block of states at a time, in one pass per block.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fieldlang import variables
from .hermitian import QuantumData, y_coefficients
from .pauli import xi_combination
from .special import SpecialFunction, SpecialValue, component_jets

__all__ = [
    "GridSpec", "SpinorGrid", "node_map",
    "GridGeometry", "GridOperator", "observed_laplacian", "pauli_generator",
    "prequantum", "operator_bracket", "inner_product", "require_static", "evolve_pauli",
    "Trajectory", "measure_frequency", "write_snapshot",
    "GridMismatch", "NonStaticMetric", "SolverDivergence",
]


class GridMismatch(ValueError):
    """Operands live on different grids."""


class NonStaticMetric(ValueError):
    """Evolution requires a static background: no field that references x0,
    and a time-independent spatial volume."""


class SolverDivergence(RuntimeError):
    """A Crank-Nicolson step's Chebyshev series would take more than
    TERM_LIMIT terms at this dt, or its terms grow past psi."""


@dataclass(frozen=True)
class GridSpec:
    """Per-axis (min, max, n) for x1..x3, finite numbers and not bools; n = 1
    marks an inactive axis."""

    axes: tuple
    time: float = 0.0

    def __post_init__(self):
        if len(self.axes) != 3:
            raise ValueError("three axes required")
        for ax in self.axes:
            if len(ax) != 3 or not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                                       for v in ax):
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
        """The node coordinates x0..x3, each a read-only view of the grid's
        shape that broadcasts the time or its axis's coords() with zero
        strides, so that it holds no grid memory."""
        columns = [np.reshape(x, [-1 if k == ax else 1 for k in range(3)]) for ax, x in enumerate(self.coords())]
        return [np.broadcast_to(x, self.shape) for x in [self.time, *columns]]

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


def _check_same(a: SpinorGrid, b: SpinorGrid):
    if a.spec != b.spec:
        raise GridMismatch("grids differ")


# Grid nodes per batched jet evaluation.  The grid pass of a bracket on
# curved_magnetic (f^i at order 1, its scalar and spin parts at order 0)
# peaks at about 820 float64 coefficients per node, so one chunk stays near
# 1.6 MiB however large the grid.
NODE_CHUNK = 256

# Complex spinor values per block of states whose observables evolve_pauli
# evaluates in one pass (256 KiB): all 5,611 states of a one-node Larmor run,
# 21 states of 383 nodes, one state of 24^3 nodes.
OBSERVABLE_BLOCK = 2**14


def node_map(mesh4, evaluate) -> list:
    """Per-node quantities of a grid, evaluated NODE_CHUNK nodes at a time.

    `evaluate` takes a coordinate-major (4, n) cloud of nodes and returns a
    list of jets, one per quantity.  The result holds one array per
    quantity: the jet's coefficients (value, then derivatives) along the
    first axis, then the grid shape of mesh4, so that each coefficient is
    one contiguous grid array.  A quantity whose jet is point-shaped (a
    constant: the jet kernel keeps a jet with no chart variable as a point)
    is kept as its (size,) coefficients alone, with no grid axes.  That
    depends on which inputs are constants, not on a chunk's points, so the
    first chunk fixes each quantity's layout."""
    shape = mesh4[1].shape
    cloud = np.stack([np.broadcast_to(m, shape).ravel() for m in mesh4])
    total = cloud.shape[1]
    out = []
    for s in range(0, total, NODE_CHUNK):
        for k, jet in enumerate(evaluate(cloud[:, s:s + NODE_CHUNK])):
            c = jet.c.T  # (size,) when point-shaped, else (size, n)
            if s == 0:
                out.append(c.copy() if c.ndim == 1 else np.empty((len(c), total)))
            if out[k].ndim > 1:
                out[k][:, s:s + NODE_CHUNK] = c.reshape(len(c), -1)
    return [q if q.ndim == 1 else q.reshape((len(q),) + shape) for q in out]


class GridGeometry:
    """Node-level coefficients for one (quantum data, grid) pair.

    One chunked jet pass, with one background bundle per chunk, gives them
    all: sqrt|g| as an order-1 jet, whose coefficients (value, d0, d1, d2,
    d3) are its value and first derivatives, and g^{ij}, A_lam and the spin
    connection C_lam^a at order 0.  On a constant background the chunks'
    bundles share one cache, so the background's part is built once.  Each
    quantity is stored on its own (CONVENTIONS.md): a grid array when it
    varies over the nodes, a number (a numpy scalar, which cannot be
    written to) when it is the same at every node, so a flat metric costs
    no grid memory.  The attributes are nested lists of them: sqrtg,
    d0sqrtg, dsqrtg[i] = d_i sqrt|g|, ginv[i][j] = g^{ij}, a[lam] and
    c_coeffs[lam][a] = C_lam^a; d_i sqrt|g| along an inactive axis is zero
    (dimensional reduction), and a derivative of sqrt|g| that is zero at
    every node (a static metric, an axis it does not depend on) is the
    number 0.0, which `_times` skips.  coords holds the spec's coords(),
    made once for every evaluation of the observables.  generator_interval
    is the (lo, hi) of Stencil.interval for the Pauli generator, which
    pauli_generator records when it builds that stencil, so that
    evolve_pauli reads it with no second build."""

    def __init__(self, qd: QuantumData, spec: GridSpec):
        self.qd = qd
        self.spec = spec
        self.coords = spec.coords()
        self.mesh4 = spec.mesh4()
        bg = qd.bg
        consts = bg.constants
        self.kinetic = consts.u0.value * consts.hbar.value / consts.m.value  # u0 hbar / m
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]

        def evaluate(cloud):
            bundle = bg.jets(cloud)
            ginv = bundle.metric_inv(0)
            return [bundle.sqrt_det(1), *(ginv[i][j] for i, j in pairs), *qd.a_jets(cloud, 0),
                    *(c for row in qd.spin.coeffs(bundle, 0) for c in row)]

        nodes = node_map(self.mesh4, evaluate)
        sqrtg = nodes[0]
        sqrtg[[2 + ax for ax in range(3) if ax not in spec.active]] = 0.0  # dimensional reduction
        self.sqrtg = sqrtg[0]
        self.d0sqrtg, *self.dsqrtg = [row if np.any(row) else np.float64(0.0) for row in sqrtg[1:]]
        upper = {pair: q[0] for pair, q in zip(pairs, nodes[1:7])}
        self.ginv = [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)]
        self.a = [q[0] for q in nodes[7:11]]
        self.c_coeffs = [[nodes[11 + 3 * lam + k][0] for k in range(3)] for lam in range(4)]
        self.dvol = spec.dvol
        self.generator_interval = None  # set by pauli_generator


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
    with a complex centre matrix and, per offset d in {-1, 0, 1}^3, a
    complex coefficient, on a grid of the given shape.  A part that is the
    same at every node is kept without grid axes: a (2, 2) centre, a number
    for an offset; the others are (..., 2, 2) and grid-shaped.  Stencils add."""

    def __init__(self, centre: np.ndarray, offsets: dict, shape: tuple):
        self.centre = centre
        self.offsets = offsets
        self.shape = shape

    def __add__(self, other: "Stencil") -> "Stencil":
        offsets = dict(self.offsets)
        for d, coef in other.offsets.items():
            offsets[d] = offsets[d] + coef if d in offsets else coef
        return Stencil(self.centre + other.centre, offsets, self.shape)

    def interval(self) -> tuple:
        """(lo, hi), the real extent of the Gershgorin discs of the stencil's
        rows: each row's diagonal entry plus or minus the |coefficients| of
        its off-diagonal centre entry and of every offset (at the grid's
        edge too, where a neighbour is missing, so the interval may be
        wider than the discs).  Every real eigenvalue lies in it.  One
        spinor component at a time, so that no temporary holds more than
        one number per node."""
        radius = 0.0  # sum_d |coef_d| per node
        for coef in self.offsets.values():
            radius = radius + np.abs(coef)
        lo, hi = math.inf, -math.inf
        for a in range(2):
            spread = np.abs(self.centre[..., a, 1 - a]) + radius
            diag = self.centre[..., a, a].real
            lo, hi = min(lo, float(np.min(diag - spread))), max(hi, float(np.max(diag + spread)))
        return lo, hi

    def live_offsets(self) -> dict:
        """The offsets whose coefficients are not all zero."""
        return {d: coef for d, coef in self.offsets.items() if np.any(coef)}

    def operator(self, label: str, symmetric: bool) -> GridOperator:
        """The operator that applies this stencil: the centre, then one
        in-place slice accumulation per live offset.  A centre with no
        off-diagonal entry multiplies psi elementwise by its diagonal, and
        only a centre with one takes the einsum.  Each elementwise factor
        is a Python number or a contiguous (..., 2) array (_spinor_factor)."""
        shape = self.shape
        centre = self.centre
        diagonal = not (np.any(centre[..., 0, 1]) or np.any(centre[..., 1, 0]))
        if diagonal:
            centre = _spinor_factor(np.broadcast_to(np.einsum("...ii->...i", centre), shape + (2,)))
        terms = []
        for d, coef in self.live_offsets().items():
            dst, src = _offset_slices(d)
            terms.append((dst, src, _spinor_factor(np.broadcast_to(coef, shape)[dst][..., None])))

        def apply_fn(psi: np.ndarray) -> np.ndarray:
            out = centre * psi if diagonal else np.einsum("...ab,...b->...a", centre, psi)
            for dst, src, coef in terms:
                view = out[dst]  # an in-place add with no store back through out[dst]
                view += coef * psi[src]
            return out

        return GridOperator(label, apply_fn, symmetric)


def inner_product(geom: GridGeometry, a: SpinorGrid, b: SpinorGrid) -> complex:
    """<a, b> = sum conj(a) . b sqrt|g| dV (plain Riemann sum)."""
    _check_same(a, b)
    dens = np.einsum("...s,...s->...", a.psi.conj(), b.psi)
    return complex(np.sum(dens * geom.sqrtg) * geom.dvol)


def _axis_offset(i: int, d: int) -> tuple:
    return tuple(d if k == i else 0 for k in range(3))


def _times(a, b, over=None):
    """The node product a b, divided by `over` if given, or the number 0.0
    when a or b is a number (no grid axes) equal to 0: a zero metric entry
    or derivative does not turn a varying quantity into a grid array of
    zeros, and a sum it enters keeps its value."""
    if any(np.ndim(f) == 0 and f == 0 for f in (a, b)):
        return 0.0
    return a * b if over is None else a * b / over


def _neighbour(x, axis: int, s: int):
    """x at node k + s along axis, the node's own value past the edge; a number is its own neighbour."""
    if np.ndim(x) == 0:
        return x
    out, (dst, src) = x.copy(), _offset_slices(_axis_offset(axis, s))
    out[dst] = x[src]
    return out


def _laplacian_stencil(geom: GridGeometry, scale=1.0) -> Stencil:
    """Delta0 = u0 (hbar/m) (1/sqrt|g|) D_i (G^{ij} D_j), D = d - iA and
    G^{ij} = sqrt|g| g^{ij}, in flux form (CONVENTIONS.md), times `scale`.
    With V^i = G^{ij} A_j it sums, over the active axes, the compact second
    difference with G^{ii} at the faces k +- 1/2, the four corners of
    d_i G^{ij} d_j + d_j G^{ij} d_i with G^{ij} at the nodes between k and
    the corner, the drift -i (d_i (V^i psi) + V^i d_i psi) and -A_i V^i, so
    that sqrt|g| Delta0 is a Hermitian matrix on any metric.  `scale`, a
    scalar or a grid-shaped node array, enters the prefactor
    u0 hbar / (m sqrt|g|) before the centre and the offsets are formed, so
    no scaled copy of them is made."""
    active = geom.spec.active
    pref = _times(geom.kinetic, scale, geom.sqrtg)
    big_g = [[_times(geom.sqrtg, geom.ginv[i][j]) for j in range(3)] for i in range(3)]
    a_sp = geom.a[1:]
    h = [geom.spec.spacing(i) for i in range(3)]
    centre = 0.0
    offsets = {}
    for i in active:
        v = 0.0  # V^i = G^{ij} A_j
        for j in active:
            v += _times(big_g[i][j], a_sp[j])
            if j > i and np.any(big_g[i][j]):  # d_i G^{ij} d_j + d_j G^{ij} d_i
                for si in (1, -1):
                    for sj in (1, -1):
                        d = tuple(si if k == i else sj if k == j else 0 for k in range(3))
                        inner = _neighbour(big_g[i][j], i, si) + _neighbour(big_g[i][j], j, sj)
                        offsets[d] = pref * (si * sj * inner / (4.0 * h[i] * h[j]))
        faces = [0.5 * (big_g[i][i] + _neighbour(big_g[i][i], i, s)) for s in (1, -1)]
        for s, face in zip((1, -1), faces):
            drift = v + _neighbour(v, i, s)  # -i (d_i (V^i psi) + V^i d_i psi)
            offsets[_axis_offset(i, s)] = pref * (face / h[i] ** 2 - s * 1j * drift / (2.0 * h[i]))
        centre -= (faces[0] + faces[1]) / h[i] ** 2 + _times(a_sp[i], v)
    return Stencil(_times_identity(pref * centre), offsets, geom.spec.shape)


def observed_laplacian(geom: GridGeometry) -> GridOperator:
    """Delta0 on the grid (see _laplacian_stencil)."""
    return _laplacian_stencil(geom).operator("Delta0", symmetric=True)


def _static_check(geom: GridGeometry, tol: float = 1e-12):
    if float(np.max(np.abs(geom.d0sqrtg))) > tol:
        raise NonStaticMetric("metric volume is time-dependent; evolution unsupported")


def require_static(qd: QuantumData):
    """NonStaticMetric when the metric, a Kgrav slot, F or A references x0:
    evolution builds its generator once, at the grid's time, so it would
    freeze such a background there."""
    bg = qd.bg
    for fld in [*sum(bg.g, []), *bg.kgrav.values(), *bg.f_em.values(), *qd.a_fields]:
        if 0 in variables(fld.expr):
            raise NonStaticMetric(f"{fld.name} references x0: evolution on a time-dependent background is unsupported")


def _times_identity(x) -> np.ndarray:
    """x 1 for a number x, a (2, 2) matrix, or for a node array x, (..., 2, 2)."""
    return np.asarray(x)[..., None, None] * np.eye(2)


def _node_matrices(coeffs) -> np.ndarray:
    """sum_nu coeffs[nu] xi_nu for four coefficients (numbers or node
    arrays): a (2, 2) matrix when all four are numbers, else (..., 2, 2)."""
    batch = np.broadcast_shapes(*(np.shape(c) for c in coeffs))
    return np.moveaxis(xi_combination(coeffs, batch), (0, 1), (-2, -1))


def _spin_c0(geom: GridGeometry) -> np.ndarray:
    """C_0^a xi_a: (2, 2) when C_0 is the same at every node, else (..., 2, 2)."""
    return _node_matrices([0.0, *geom.c_coeffs[0]])


def pauli_generator(geom: GridGeometry) -> GridOperator:
    """H with i d0 psi = H psi on the Pauli kernel: -1/2 Delta0 - A0 + i C_0^k xi_k."""
    _static_check(geom)
    local = 1j * _spin_c0(geom) - _times_identity(geom.a[0])
    stencil = _laplacian_stencil(geom, -0.5) + Stencil(local, {}, geom.spec.shape)
    geom.generator_interval = stencil.interval()
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
        return [c0.f0, *c0.fi, c0.fbrev, *c0.phi] + [cj.fi[i].derive(i + 1) for i in active]

    values = [q[0] for q in node_map(geom.mesh4, evaluate)]
    return values[:8], dict(zip(active, values[8:]))


def prequantum(qd: QuantumData, geom: GridGeometry, f: SpecialFunction) -> GridOperator:
    """i (Y[F].psi - u0 f0 P psi) with the time derivative structurally
    cancelled (no d0 psi term is ever formed)."""
    if qd is not geom.qd:
        raise GridMismatch("geometry was built for different quantum data")
    vals, dfi = _component_arrays(f, geom)
    c = SpecialValue(vals[0], vals[1:4], vals[4], vals[5:8])
    y = y_coefficients(c, geom.a, geom.c_coeffs)
    f0 = c.f0
    xi_sp = [-fi for fi in c.fi]
    # div_eta X = (X^0 d0 sqrtg + d_i(X^i sqrtg)) / sqrtg, active axes only
    div = _times(f0, geom.d0sqrtg, geom.sqrtg)
    for i in geom.spec.active:
        div += -dfi[i] + _times(xi_sp[i], geom.dsqrtg[i], geom.sqrtg)
    ymat = _node_matrices(y) + _times_identity(-0.5 * div)
    p_factor = _times(geom.d0sqrtg, 0.5, geom.sqrtg)
    # Y.psi - f0 (P psi without its Laplacian part); P's -i/2 Delta0 is added below
    pmat = _times_identity(-1j * geom.a[0] + p_factor) - _spin_c0(geom)
    offsets = {}
    for i in geom.spec.active:
        h = geom.spec.spacing(i)
        for s in (1, -1):
            offsets[_axis_offset(i, s)] = 1j * (s * xi_sp[i] / (2.0 * h))
    local = Stencil(1j * (-ymat - np.asarray(f0)[..., None, None] * pmat), offsets, geom.spec.shape)
    stencil = local + _laplacian_stencil(geom, -0.5 * f0)
    return stencil.operator(f.name or "prequantum", symmetric=False)


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
    states psis[k].  Each state's 2x2 density rho_ab = sum conj(psi_a) psi_b
    sqrt|g| comes from the weighted node densities |psi_a|^2 sqrt|g| of its
    two components, which sum to rho_00 and rho_11, and from
    rho_01 = conj(rho_10).  It gives the norm sqrt(tr rho dV) and
    <sigma_k> = sum_ab sigma_k,ab rho_ab / tr rho (not tr(sigma rho), which
    flips the sign of the antisymmetric sigma_2): 2 Re rho_01, 2 Im rho_01
    and rho_00 - rho_11, over tr rho.  On a grid with an active axis the
    node density gives the width, the root of the summed variances along
    the active axes, each from the density's marginal along its axis and
    that axis's coordinates.  A zero state's row is zeros.  Every product is
    real and every sum runs along one state's row, so a state's row is the
    same bit for bit in any stack (a complex product, whose rounding can
    depend on the array's length, and an einsum, which buffers rows of more
    than 8,192 values, need not be)."""
    count = len(psis)
    flat = psis.reshape(count, -1, 2).view(float)  # re, im of psi_up, then of psi_down
    weight = np.reshape(geom.sqrtg, -1)  # one number, or one per node
    squares = np.square(flat)
    up = (squares[..., 0] + squares[..., 1]) * weight
    down = (squares[..., 2] + squares[..., 3]) * weight
    r00, r11 = up.sum(axis=1), down.sum(axis=1)
    total = r00 + r11
    denom = np.where(total == 0.0, 1.0, total)  # every sum of a zero state is 0
    out = np.zeros((5, count))
    out[0] = np.sqrt(total * geom.dvol)
    out[1] = 2.0 * np.sum((flat[..., 0] * flat[..., 2] + flat[..., 1] * flat[..., 3]) * weight, axis=1) / denom
    out[2] = 2.0 * np.sum((flat[..., 0] * flat[..., 3] - flat[..., 1] * flat[..., 2]) * weight, axis=1) / denom
    out[3] = (r00 - r11) / denom
    active = geom.spec.active
    if active:
        dens = (up + down).reshape((count,) + geom.spec.shape)
        coords = geom.coords
        for ax in active:
            marginal = dens.sum(axis=tuple(1 + k for k in range(3) if k != ax))
            mean = np.sum(marginal * coords[ax], axis=1) / denom
            out[4] += np.sum(marginal * (coords[ax] - mean[:, None]) ** 2, axis=1) / denom
        out[4] = np.sqrt(out[4])
    return out


# Complex values the term ring of evolve_pauli may hold (512 KiB): 42 slots
# of free_packet's 383 nodes, and two, the fewest the recurrence needs, of
# 24^3 nodes.  A block's buffer of states holds as many values, or
# STATE_BLOCK states where that is more, and at most BLOCK_CAP states.  A
# block of k steps takes about k dt R terms plus some that do not grow
# with k, so a longer block takes fewer terms per step but holds more
# states: 20 steps of the 24^3 flat_magnetic packet at dt 0.02 take 2.7
# generator applies per step in blocks of 10 against 3.55 in blocks of 7,
# for three more states (1.3 MiB).  BLOCK_CAP bounds the table of Chebyshev
# coefficients (BLOCK_CAP rows of at most 2 * 1024 samples).
RING_VALUES = 2**15
STATE_BLOCK = 10
BLOCK_CAP = 128

# The most generator applies one series may take: a dt whose one step
# needs more is a solver failure.
TERM_LIMIT = 500

# The Chebyshev coefficients a_0..a_M of the Cayley map come from one FFT
# of its 2 M samples at the angles pi j / M: M = 64, 128, ..., up to 1024,
# the first M past which the coefficients' geometric bound is negligible;
# 1024 leaves that bound room past TERM_LIMIT.
_MAX_HALF_SAMPLES = 1024

# Each state's share of the 1e-14 certificate of a step (CONVENTIONS.md).
_STATE_TAIL = 0.5e-14

# The roundoff unit: term n of a series may outgrow psi by 64 n^2 _EPS.
_EPS = np.finfo(float).eps


def _pole_ellipse(tau: float, centre: float, radius: float) -> float:
    """rho_p, the parameter of the Bernstein ellipse through the pole
    z = (i / tau - centre) / radius of the Cayley map c(centre + radius z):
    rho_p = |w| >= 1 for the root w of z = (w + 1/w) / 2.  inf when the pole
    lies past the floating-point range."""
    with np.errstate(all="ignore"):
        z = (np.complex128(1j) / tau - centre) / radius
        w = abs(z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
        rho = max(w, 1.0 / w)
    return float(rho) if np.isfinite(rho) else math.inf


def _geometric_tail(rho_p: float, s, n):
    """A bound G >= sum_{m >= n} |a_m(s)| for steps s >= 1 and n >= 1, as
    arrays that broadcast (Trefethen, Approximation Theory and Approximation
    Practice, ch. 8): in the Bernstein ellipse E_rho, rho < rho_p,
    |c| <= K_rho = (rho_p + rho)(1 + 1/(rho rho_p)) / ((rho_p - rho)(1 - 1/(rho rho_p))),
    so |a_m(s)| <= 2 K_rho^s rho^-m, and G is the least of the geometric
    sums 2 K_rho^s rho^-n / (1 - 1/rho) over rho = rho_p^(j/16), j = 1..15."""
    log_g = np.inf
    with np.errstate(all="ignore"):  # rho_p = 1 makes every bound inf, rho_p = inf every one zero
        for j in range(1, 16):
            ratio, inner = np.float64(rho_p) ** (j / 16 - 1.0), np.float64(rho_p) ** (-1.0 - j / 16)
            log_k = np.log((1.0 + ratio) * (1.0 + inner) / ((1.0 - ratio) * (1.0 - inner)))
            log_rho = (j / 16) * np.log(rho_p)
            log_g = np.minimum(log_g, s * log_k + (np.log(2.0) - np.log1p(-np.exp(-log_rho)) - n * log_rho))
    return np.exp(log_g)


def _cayley_series(tau: float, interval: tuple, k: int) -> tuple:
    """The Chebyshev series of the steps s = 1..k of the Cayley map
    c(lam) = (1 - i tau lam) / (1 + i tau lam) on the interval (lo, hi):
    (coeffs, lengths, centre, radius).  With lam = centre + radius x,
    c(lam)^s = sum_n a_n(s) T_n(x) on [-1, 1]; coeffs[s - 1, n] = a_n(s) for
    n <= N_s and 0 past it, where N_s, the series length of step s, is the
    fewest terms whose tail bound tail_s(N) >= sum_{n > N} |a_n(s)| is at
    most 0.5e-14, each state's share of the certificate (CONVENTIONS.md),
    and TERM_LIMIT + 1 if no N <= TERM_LIMIT is.  lengths[s - 1] is the
    largest of N_1..N_s: the generator applies of a block of s steps.  The
    a_n(s) come from one FFT of the powers c^s at x = cos(pi j / M),
    j < 2 M.  Each tail is the sum of the computed |a_n(s)| from N + 1 up to
    some n0 <= M + 1 plus the geometric bound past n0 (_geometric_tail),
    the least over n0: past the FFT's ~1e-16 floor the computed a_n are
    roundoff, and the geometric bound takes over.  The aliasing of the
    computed a_n adds at most 2 M times the bound past M."""
    lo, hi = interval
    centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    with np.errstate(over="ignore"):
        turn = np.exp(-2j * np.arctan(tau * centre))  # c(centre), exactly 1 at centre 0
    if not radius:  # H = centre 1: psi_s = c(centre)^s psi, with no term past T_0
        return np.cumprod(np.full((k, 1), turn), axis=0), np.zeros(k, dtype=int), centre, 1.0
    rho_p = _pole_ellipse(tau, centre, radius)
    m = 64
    while m < _MAX_HALF_SAMPLES and 2 * m * _geometric_tail(rho_p, k, m) > 1e-3 * _STATE_TAIL:
        m *= 2
    # c = exp(-2 i atan(tau lam)) at lam_j = centre + radius cos(theta_j),
    # theta_j = pi j / M, formed from the angle theta0 nearest lam = 0, where c
    # turns fastest: lam_j = lam0 - 2 radius sin((theta_j + theta0)/2)
    # sin((theta_j - theta0)/2) keeps lam_j exact to roundoff near 0
    theta0 = math.acos(min(1.0, max(-1.0, -centre / radius)))
    theta = np.pi / m * np.arange(2 * m)
    lam = centre + radius * math.cos(theta0) - 2 * radius * np.sin(0.5 * (theta + theta0)) * np.sin(
        0.5 * (theta - theta0))
    with np.errstate(over="ignore"):
        powers = np.cumprod(np.broadcast_to(np.exp(-2j * np.arctan(tau * lam)), (k, 2 * m)), axis=0)
    coeffs = np.fft.fft(powers, axis=1)[:, :m + 1] / m
    coeffs[:, 0] /= 2.0
    coeffs[:, m] /= 2.0
    geometric = _geometric_tail(rho_p, np.arange(1.0, k + 1.0)[:, None], np.arange(1.0, m + 2.0))  # n0 = 1..M + 1
    rest = np.zeros((k, m + 2))  # rest[:, n] = sum_{n <= n' <= M} |a_n'|, summed from the small end
    rest[:, :-1] = np.cumsum(np.abs(coeffs[:, ::-1]), axis=1)[:, ::-1]
    with np.errstate(all="ignore"):
        # tail_s(N) = rest[N + 1] + the least over n0 > N of (geometric[n0] - rest[n0])
        reach = np.minimum.accumulate((geometric - rest[:, 1:])[:, ::-1], axis=1)[:, ::-1]
        top = min(m, TERM_LIMIT) + 1
        tails = rest[:, 1:top + 1] + reach[:, :top] + 2 * m * geometric[:, m - 1:m]
        ok = tails <= _STATE_TAIL
    own = np.where(ok.any(axis=1), ok.argmax(axis=1), TERM_LIMIT + 1)
    lengths = np.maximum.accumulate(own)
    coeffs = coeffs[:, :min(lengths[-1], TERM_LIMIT) + 1]
    coeffs[np.arange(coeffs.shape[1]) > own[:, None]] = 0.0
    return coeffs, lengths, centre, radius


def _fold(dest: np.ndarray, coeffs: np.ndarray, lengths: np.ndarray, ring: np.ndarray, lo: int, hi: int):
    """Add the terms T_lo..T_{hi-1}, held in the first hi - lo rows of
    `ring`, to dest, whose row s - 1 is the state sum_n a_n(s) T_n: one
    matrix product of coeffs[:, lo:hi] with those rows, for the states
    whose series reach T_lo (lengths grows with s, so they are the last
    rows).  The fold of T_0 writes dest; a later one adds its product in
    column chunks of about one psi each, or in one product when the rows
    hold at most RING_VALUES values."""
    first = int(np.searchsorted(lengths, lo))
    rows, block, terms = dest[first:], coeffs[first:, lo:hi], ring[:hi - lo]
    if lo == 0:
        np.dot(block, terms, out=rows)
        return
    width = rows.shape[1] if rows.size <= RING_VALUES else -(-rows.shape[1] // len(rows))
    for col in range(0, rows.shape[1], width):
        rows[:, col:col + width] += np.dot(block, terms[:, col:col + width])


def _cayley_block(h_apply: Callable, psi: np.ndarray, series: tuple, norm2: Callable, step: int,
                  slots: list, flat_ring: np.ndarray, out: np.ndarray):
    """Steps step..step+k-1 of evolve_pauli, k = len(out): the states
    psi_s = sum_{n <= N_s} a_n(s) T_n(H~) psi, s = 1..k, H~ = (H - centre) /
    radius, from series = (coeffs, lengths, centre, radius) of
    _cayley_series cut to k steps, written to the rows of out.  The terms
    come from T_0 = psi, T_1 = H~ psi and T_{n+1} = 2 H~ T_n - T_{n-1}, one
    generator apply each.  Term n goes to slots[n % len(slots)], the rows
    of the ring whose (slots, values) view is flat_ring (at least two
    slots), and each full ring, then the last one, full or partial, is
    folded into out by one matrix product (_fold).  As H is
    self-adjoint for the norm whose square norm2 gives and the interval
    holds its spectrum, no term outgrows psi: before each fold, a term
    that does by more than roundoff, or is not finite, raises
    SolverDivergence."""
    coeffs, lengths, centre, radius = series
    cap = len(slots)
    flat_out = out.reshape(len(out), -1)
    slots[0][...] = psi
    limit = norm2(psi)
    last = int(lengths[-1])
    for n in range(1, last + 1):
        j = n % cap
        prev, slot = slots[j - 1], slots[j]
        t = h_apply(prev)
        scale = 2.0 / radius if n > 1 else 1.0 / radius
        t *= scale
        if n > 1:
            t -= slots[j - 2]  # T_{n-2}, in slot j itself when the ring has two
        if centre:
            np.multiply(prev, -centre * scale, out=slot)
            slot += t
        else:
            slot[...] = t
        del t  # not alive through the next apply
        if j == cap - 1 or n == last:
            bound = limit * (1.0 + 64 * n * n * _EPS)
            if not all(norm2(term) <= bound for term in slots[:j + 1]):  # NaN fails too
                raise SolverDivergence(f"the Chebyshev terms of the Cayley map grow at step {step}: "
                                       "the generator is not self-adjoint on its Gershgorin interval")
            _fold(flat_out, coeffs, lengths, flat_ring, n - j, n + 1)
    if not last:
        _fold(flat_out, coeffs, lengths, flat_ring, 0, 1)


def _run_terms(lengths: np.ndarray, steps: int, k: int) -> float:
    """The terms T_0..T_N of every series of a run of `steps` steps in
    blocks of k, the last block holding the rest, where a block of s steps
    takes the lengths[s - 1] + 1 terms of _cayley_series; inf when a block
    of k steps takes more than TERM_LIMIT."""
    if lengths[k - 1] > TERM_LIMIT:
        return math.inf
    full, rest = divmod(steps, k)
    return full * (int(lengths[k - 1]) + 1) + (int(lengths[rest - 1]) + 1 if rest else 0)


def evolve_pauli(
    qd: QuantumData,
    psi0: SpinorGrid,
    dt: float,
    steps: int,
    geom: GridGeometry | None = None,
    snapshot_every: int = 0,
) -> Trajectory:
    """Crank-Nicolson evolution (1 + i tau H) psi+ = (1 - i tau H) psi with
    tau = dt/2, in blocks of steps, each block's states from one Chebyshev
    series of the Cayley map (module docstring; _cayley_series,
    _cayley_block), every step certified to 1e-14 |b| (CONVENTIONS.md).
    The generator is reached only through pauli_generator(geom).apply_fn,
    and its Gershgorin interval through geom.generator_interval.  The
    block length k is the one of at most min(steps, BLOCK_CAP,
    max(STATE_BLOCK, RING_VALUES // psi.size)) steps whose blocks take the
    fewest terms for the whole run (_run_terms), the shorter on a tie, so
    it follows from the input alone.  A dt whose one step needs more than
    TERM_LIMIT terms raises SolverDivergence before any apply.  The terms
    go to a ring of max(2, min(TERM_LIMIT + 1, RING_VALUES // psi.size))
    psi-shaped slots and the states to a buffer of
    min(steps, max(k, OBSERVABLE_BLOCK // psi.size)) states, both made
    once; the blocks fill the buffer one after another.  Norm, <sigma> and
    width are recorded at every step: when the buffer is full, and at the
    end, _observables evaluates its states, with no copy, in passes of at
    most OBSERVABLE_BLOCK // psi.size states (at least one).  A
    snapshot's grid carries its step's time, spec.time + step * dt, as
    Trajectory.times does.  The background must be static
    (`require_static`)."""
    require_static(qd)
    geom = geom or GridGeometry(qd, psi0.spec)
    h_apply = pauli_generator(geom).apply_fn
    spec = psi0.spec
    psi = psi0.psi  # read, never written: each block copies its psi into the ring
    obs = np.empty((5, steps + 1))
    k = 0
    if steps:
        most = min(steps, BLOCK_CAP, max(STATE_BLOCK, RING_VALUES // psi.size))
        coeffs, lengths, centre, radius = _cayley_series(0.5 * dt, geom.generator_interval, most)
        if lengths[0] > TERM_LIMIT:
            raise SolverDivergence(f"one step of dt {dt!r} takes more than {TERM_LIMIT} Chebyshev terms; reduce dt")
        k = min(range(1, most + 1), key=lambda s: _run_terms(lengths, steps, s))
        coeffs, lengths = coeffs[:k, :lengths[k - 1] + 1], lengths[:k]
    if np.ndim(geom.sqrtg) == 0:  # the norms of one weight compare as plain norms
        def norm2(row):
            return np.vdot(row, row).real
    else:
        weight = np.repeat(geom.sqrtg[..., None], 2, axis=-1)  # one per spinor component

        def norm2(row):
            return np.vdot(row, weight * row).real
    chunk = max(1, OBSERVABLE_BLOCK // psi.size)
    # at most RING_VALUES values, and no more slots than the terms T_0..T_TERM_LIMIT
    ring = np.empty((max(2, min(TERM_LIMIT + 1, RING_VALUES // psi.size)),) + psi.shape, dtype=complex)
    slots, flat_ring = list(ring), ring.reshape(len(ring), -1)
    states = np.empty((min(steps, max(k, chunk)),) + psi.shape, dtype=complex)
    snaps = []

    def record(first, stack):
        """The observables, and the snapshots due, of the states of steps first.. in stack."""
        for lo in range(0, len(stack), chunk):
            part = stack[lo:lo + chunk]
            obs[:, first + lo:first + lo + len(part)] = _observables(geom, part)
        if snapshot_every:
            for step in range(first + (-first) % snapshot_every, first + len(stack), snapshot_every):
                snaps.append((step, SpinorGrid(replace(spec, time=spec.time + step * dt), stack[step - first].copy())))

    record(0, psi[None])
    n, held = 1, 0  # the next step, and the states of steps n - held..n - 1 not yet recorded
    # a term that overflows is caught before its fold, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= steps:
            count = min(k, steps + 1 - n)
            if held + count > len(states):
                record(n - held, states[:held])
                held = 0
            series = (coeffs[:count], lengths[:count], centre, radius)
            _cayley_block(h_apply, psi, series, norm2, n, slots, flat_ring, states[held:held + count])
            held += count
            psi = states[held - 1]
            n += count
    record(n - held, states[:held])
    step_numbers = np.arange(steps + 1)
    return Trajectory(
        steps=step_numbers,
        times=spec.time + step_numbers * dt,
        norms=obs[0],
        sx=obs[1],
        sy=obs[2],
        sz=obs[3],
        widths=obs[4],
        final=SpinorGrid(spec, psi.copy()),  # not a view of psi0 or of the states buffer
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
