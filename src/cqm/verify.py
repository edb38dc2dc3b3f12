"""Property suites behind `cqm verify`.

Each suite reports the worst residual of a family of identities.  Every
check's bound is a constant of TOLERANCES, which no scenario can change.
Two kinds of checks exist: residual checks (pass when max residual <=
bound), which gate every identity that holds exactly, and the `*_ratio`
convergence checks of the operators suite (pass when halving the grid step
shrinks an O(h^2) discretisation defect by a ratio >= the bound, or when
both defects are already at roundoff, which reads as an infinite ratio).

`run_suites` hands each suite its own seeded stream, `_rng_for`.  The five
point suites (all but operators) first draw their samples through
`_sample`: (n, 4) rows from the scenario box as one (4, n) cloud, whose
background bundle the suite passes in place of the cloud, so every residual
function shares its background quantities.  A residual function takes a
point (4,), a cloud (4, n) or the bundle of one; a residual is a float at a
point and an (n,) array of per-point values on a cloud, and a suite
reports the largest.  A suite's random special functions go through the
bracket engine as one stack (special.stack_functions), whose residuals are
(m, n) arrays, row t that of draw t: the isomorphism suite's main-theorem
pairs and its Hermiticity functions, the observer suite's functions, and
in jacobi_residual the three cyclic terms of each triple.  The draws from
the suite's stream are those of one function at a time.  The background
suite's seven checks are all built here: the connection axioms (metricity,
the curvature's pair symmetry, dF = 0), frame orthonormality, Ktilde
antisymmetry, the volume and the closure dOmega = 0, from exact derivatives
off the bundle.  The closure's spacetime triples are the closure of
Phi[ref]; every Phi[o] = Phi[ref] + dtheta[o] is closed with it, as dd = 0
holds exactly on jets, so no observer has a check of its own.
The volume check compares the bundle's sqrt|g| with np.linalg.det of the
metric values and its derivatives with Jacobi's formula
d sqrt|g| = 1/2 sqrt|g| g^ij d g_ij.  Only the operators suite's grid
sweeps measure a discretisation.  The operators suite builds one grid
geometry per distinct grid: the named displays run on the scenario grid,
or on the probe box _BOX_GRID when the scenario has none or it cannot carry
them, and both step-halving sweeps run on the one pair of levels
_SWEEP_GRIDS.

The main theorem is checked as stated: from_special of the bracket
[[F, F']] against the Lie bracket of from_special F and from_special F',
reported as the worse of the vector and the matrix residual.
The bracket enters as a derived special function (bracket_as_function)
whose one evaluator is the extended bracket of the two, so its field goes
through the same Y[F] formula, hermitian.y_coefficients, as every other
field and the grid operators.

Each stack of random functions is evaluated once, at the highest order its
readers take (special.evaluated): the isomorphism suite's first stack at
order 2 for the main theorem and the Hermiticity check, the observer
suite's at order 0 for every observer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fieldlang as fl
from .background import Observer, as_point
from .fieldlang import FieldDef
from .hermitian import (
    HermitianField,
    Mat2,
    _lift_mat,
    connection_lift,
    from_special,
    hermiticity_residual,
    invariant_combination,
    lie_bracket_y,
    pair_bracket,
    potential_residual,
    vertical_projection,
)
from .jets import batch_shape, max_abs, value_array
from .pauli import EPS, SIGMA, XI_ALL
from .quantum import (
    GridGeometry,
    GridSpec,
    SpinorGrid,
    check_linearity,
    inner_product,
    node_map,
    observed_laplacian,
    operator_bracket,
    pauli_generator,
    prequantum,
)
from .scenario import Scenario
from .special import (
    SpecialFunction,
    component_jets,
    evaluated,
    extended_bracket_jets,
    jacobi_residual,
    stack_functions,
)
from .units import DIMLESS

SUITES = ("background", "curvature", "isomorphism", "jacobi", "observer", "operators")

TOLERANCES = {
    "background.metricity": 1e-10,
    "background.curvature_symmetry": 1e-10,
    "background.dF": 1e-10,
    "background.frame_orthonormality": 1e-12,
    "background.ktilde_antisymmetry": 1e-10,
    "background.domega": 1e-12,
    "background.volume": 1e-12,
    "curvature.rtilde_relation": 1e-10,
    "curvature.rho_coupling_slots": 1e-9,
    "jacobi.residual": 1e-8,
    "isomorphism.main_theorem": 1e-9,
    "isomorphism.hj_roundtrip": 1e-10,
    "isomorphism.pair_bracket": 1e-10,
    "isomorphism.eta_hermiticity": 1e-10,
    "observer.invariant_combination": 1e-11,
    "observer.potential_consistency": 1e-8,
    "operators.named_displays": 1e-10,
    "operators.generator_lock": 1e-10,
    "operators.linearity": 1e-12,
    "operators.symmetry_ratio": 3.5,
    "operators.bracket_homomorphism_ratio": 3.0,
}


@dataclass
class Check:
    """The worst residual of the identity `name` over `samples` samples,
    gated by TOLERANCES[name]."""

    name: str
    samples: int
    max_residual: float

    @property
    def tolerance(self) -> float:
        return TOLERANCES[self.name]

    @property
    def comparator(self) -> str:
        """The grid-convergence checks (`*_ratio`, the step-halving ratios
        of the operators suite) pass at ratio >= bound ("ge"), every other,
        the exact closures among them, at residual <= bound ("le")."""
        return "ge" if self.name.endswith("_ratio") else "le"

    @property
    def passed(self) -> bool:
        if self.comparator == "le":
            return self.max_residual <= self.tolerance
        return self.max_residual >= self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": int(self.samples),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "comparator": self.comparator,
            "passed": bool(self.passed),
        }


def _rng_for(sc: Scenario, suite: str) -> np.random.Generator:
    return np.random.default_rng([sc.seed, SUITES.index(suite)])


def random_special_function(rng: np.random.Generator, consts, name: str = "rand",
                            active_vars=(0, 1, 2, 3)) -> SpecialFunction:
    """Random low-degree polynomial special function; f0 depends on time only
    (the physically meaningful projectable subalgebra, closed under the
    bracket)."""

    def poly_expr(vars_, deg=2, scale=0.5):
        terms = [fl.Const(round(float(rng.uniform(-scale, scale)), 6))]
        n_terms = int(rng.integers(1, 4))
        for _ in range(n_terms):
            coeff = round(float(rng.uniform(-scale, scale)), 6)
            node = fl.Const(coeff)
            for _ in range(int(rng.integers(1, deg + 1))):
                node = fl.Binary("mul", node, fl.Var(int(rng.choice(vars_))))
            terms.append(node)
        out = terms[0]
        for t in terms[1:]:
            out = fl.Binary("add", out, t)
        return out

    spatial = [v for v in active_vars]
    f0 = FieldDef("f0", DIMLESS, poly_expr([0]), consts)
    fi = tuple(FieldDef(f"f{i}", DIMLESS, poly_expr(spatial), consts) for i in range(3))
    fbrev = FieldDef("fb", DIMLESS, poly_expr(spatial), consts)
    phi = tuple(FieldDef(f"phi{a}", DIMLESS, poly_expr(spatial), consts) for a in range(3))
    return SpecialFunction(f0, fi, fbrev, phi, name=name)


def bracket_as_function(f: SpecialFunction, fp: SpecialFunction, sc: Scenario) -> SpecialFunction:
    """The extended bracket as a special function with no component fields:
    its one evaluator gives all eight components from one bracket
    evaluation, which grid paths call once per chunk of nodes."""
    bg = sc.background

    def bracket_jets(where, order):
        b = bg.jets(where)
        return extended_bracket_jets(component_jets(f, b, order + 1), component_jets(fp, b, order + 1), b, order)

    return SpecialFunction(name=f"[{f.name},{fp.name}]", jets_fn=bracket_jets)


# ---------------------------------------------------------------------------
# suites


def _sample(sc: Scenario, rng: np.random.Generator):
    """The bundle of a point suite's samples, drawn from rng as (n, 4) rows
    and evaluated as one (4, n) cloud, and n."""
    points = sc.sample_points(rng)
    return sc.background.jets(points.T), len(points)


def suite_background(sc: Scenario, rng: np.random.Generator) -> list:
    b, n = _sample(sc, rng)
    e = value_array(b.frame(0)[0], (n,))
    g = value_array(b.metric(0), (n,))
    frame = [sum(e[i][a] * g[i][j] * e[j][bb] for i in range(3) for j in range(3)) - (1.0 if a == bb else 0.0)
             for a in range(3) for bb in range(3)]
    kt = value_array([b.ktilde("charge", 0), b.ktilde("moment", 0)], (n,))  # [sector, lam, k, j, point]
    return [
        Check("background.metricity", n, _metricity_residual(b)),
        Check("background.curvature_symmetry", n, _curvature_symmetry_residual(b)),
        Check("background.dF", n, _df_residual(b)),
        Check("background.frame_orthonormality", n, max_abs(frame)),
        Check("background.ktilde_antisymmetry", n, max_abs(kt + kt.swapaxes(2, 3))),
        Check("background.volume", n, _volume_residual(b)),
        Check("background.domega", n, _domega_residual(b, rng)),
    ]


def _metricity_residual(b) -> float:
    """max |nabla_lam g_ij| = |d_lam g_ij - K_lam^h_i g_hj - K_lam^h_j g_ih|.
    Torsion-freeness needs no residual: kgrav writes a slot and its mirror at once."""
    batch = b.point.shape[1:]
    g1 = b.metric(1)
    k = value_array(b.kgrav(0), batch)  # [lam, i, mu, ...]
    g0 = value_array(b.metric(0), batch)
    res = []
    for lam, i, j in itertools.product(range(4), range(3), range(3)):
        r = value_array(g1[i][j].derive(lam), batch)
        for h in range(3):
            r = r - k[lam][h][i + 1] * g0[h][j] - k[lam][h][j + 1] * g0[i][h]
        res.append(r)
    return max_abs(res)


def _curvature_symmetry_residual(b) -> float:
    """max |R_ijhk - R_hkij|, the pair symmetry of the all-spatial curvature."""
    riem = b.riemann_lowered_spatial()
    return max_abs(riem - riem.swapaxes(0, 2).swapaxes(1, 3))


def _df_residual(b) -> float:
    """max |d_nu F_lam mu + d_lam F_mu nu + d_mu F_nu lam| over lam < mu < nu."""
    f1 = b.f_jets(1)
    return max_abs([sum(value_array(f1[a][c].derive(e), b.point.shape[1:]) for a, c, e in
                        ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)))
                    for lam, mu, nu in itertools.combinations(range(4), 3)])


def _volume_residual(b) -> float:
    """The worse of two relative residuals of the bundle's sqrt|g| at its
    points, so the result does not depend on units: |sqrt|g|^2 / det g - 1|
    with det g from np.linalg.det of the metric values, and Jacobi's formula,
    max over lam of |d_lam sqrt|g| - 1/2 sqrt|g| g^ij d_lam g_ij| / sqrt|g|."""
    batch = b.point.shape[1:]
    sqrtg1 = b.sqrt_det(1)
    sqrtg = value_array(sqrtg1, batch)
    det = np.linalg.det(np.moveaxis(value_array(b.metric(0), batch), -1, 0))
    ginv = value_array(b.metric_inv(0), batch)
    g1 = b.metric(1)
    dg = np.array([value_array([[e.derive(lam) for e in row] for row in g1], batch) for lam in range(4)])
    dsqrtg = np.array([value_array(sqrtg1.derive(lam), batch) for lam in range(4)])
    trace = sum(ginv[i, j] * dg[:, i, j] for i in range(3) for j in range(3))  # [lam] g^ij d_lam g_ij
    jacobi = dsqrtg - 0.5 * sqrtg * trace
    return max(float(np.max(np.abs(sqrtg * sqrtg / det - 1.0))), float(np.max(np.abs(jacobi) / sqrtg)))


def _domega_residual(b, rng) -> float:
    """dOmega = 0 on phase space at the bundle's points, from exact
    derivatives: x-derivatives from order-1 jets, v-derivatives of Omega (at
    most quadratic in v) from central differences of step 1, exact up to
    rounding.  The velocities are drawn from rng.  The worst
    |d_i w_jk - d_j w_ik + d_k w_ij| over i < j < k is relative to
    max(1, the point's largest derivative).  Its spacetime triples are the
    closure of Phi[ref], and so of every Phi[o] = Phi[ref] + dtheta[o]."""
    batch = b.point.shape[1:]
    v = rng.uniform(-0.5, 0.5, (3,) + batch)

    def omega_at(vel):
        return value_array(b.omega_table(vel, 0), batch)

    dx = value_array([[[w.derive(a) for a in range(4)] for w in row] for row in b.omega_table(v, 1)], batch)
    dv = [0.5 * (omega_at(v + e) - omega_at(v - e)) for e in np.eye(3)[:, :, None]]
    d = np.concatenate([dx, np.stack(dv, axis=2)], axis=2)  # [row, col, derivative, point]
    scale = np.maximum(1.0, np.max(np.abs(d), axis=(0, 1, 2)))
    return max(float(np.max(np.abs(d[j, k, i] - d[i, k, j] + d[i, j, k]) / scale))
               for i, j, k in itertools.combinations(range(d.shape[0]), 3))


def suite_curvature(sc: Scenario, rng: np.random.Generator) -> list:
    b, n = _sample(sc, rng)
    batch = (n,)
    c = sc.background.constants
    rho = value_array(b.rho("moment", 0), batch)  # [lam, mu, k, point]
    # dual route: the frame curvature of Ktilde as matrices,
    # -d_lam Kt_mu + d_mu Kt_lam + [Kt_lam, Kt_mu], for lam < mu, laid out
    # [pair, k, j, point], against ad(rho) = rho_i eps_ijk
    kt1 = b.ktilde("moment", 1)
    kt = value_array(kt1, batch)  # [lam, k, j, point]
    dkt = np.array([value_array([[[e.derive(nu) for e in row] for row in m] for m in kt1], batch)
                    for nu in range(4)])  # [nu, lam, k, j, point]
    lam, mu = np.triu_indices(4, 1)
    frame = -dkt[lam, mu] + dkt[mu, lam]
    for i in range(3):
        frame = frame + kt[lam, :, i, None] * kt[mu, None, i] - kt[mu, :, i, None] * kt[lam, None, i]
    pred = sum(rho[lam, mu, i, None, None] * EPS[i].T[:, :, None] for i in range(3))
    worst_rt = float(np.max(np.abs(pred - frame)))
    # charge vs moment rho differ only in (0, j) slots, where their parts
    # past the gravitational one go as the couplings q u0/2m and -mu u0;
    # cross-multiplied, so a neutral particle (q = 0) is checked too
    rho_c = value_array(b.rho("charge", 0), batch)
    rho_g = value_array(b.rho("grav", 0), batch)
    charge, moment = c.q.value * c.u0.value / (2.0 * c.m.value), -c.mu.value * c.u0.value
    worst_slots = max(float(np.max(np.abs(rho[1:, 1:] - rho_c[1:, 1:]))),
                      float(np.max(np.abs(charge * (rho[0] - rho_g[0]) - moment * (rho_c[0] - rho_g[0])))))
    return [
        Check("curvature.rtilde_relation", n, worst_rt),
        Check("curvature.rho_coupling_slots", n, worst_slots),
    ]


def suite_jacobi(sc: Scenario, rng: np.random.Generator) -> list:
    bundle, n = _sample(sc, rng)
    consts = sc.background.constants.table()
    triples = [
        tuple(random_special_function(rng, consts, name=f"J{t}{i}") for i in range(3))
        for t in range(3)
    ]
    worst = float(np.max([jacobi_residual(*triple, sc.background, bundle) for triple in triples]))
    return [Check("jacobi.residual", n, worst)]


def main_theorem_residual(f: SpecialFunction, fp: SpecialFunction, sc: Scenario, where):
    """(vector residual, matrix residual) of the main theorem
    from_special([[F,F']]) == [from_special F, from_special F'] at order 0:
    floats at a point, (N,) arrays of per-point values on a (4, N) cloud or
    on a bundle's points, (m, N) for stacks of m functions.  Both sides
    share one bundle.  The left side's X comes from the bracket's component
    formulas, the right side's from the Lie bracket of vector fields, so the
    vector residual compares two routes.  Each operand is evaluated once, at
    order 2, and the bracket once, at order 1; every reader (the Lie
    bracket's X and Y at order 1, the bracket's field at orders 0 and 1)
    takes truncations of those evaluations."""
    qd = sc.qd
    bundle = sc.background.jets(where)
    f, fp = evaluated(f, bundle, 2), evaluated(fp, bundle, 2)
    lhs = from_special(evaluated(bracket_as_function(f, fp, sc), bundle, 1), qd)
    xb, z = lie_bracket_y(from_special(f, qd), from_special(fp, qd), bundle)
    xl, ml = lhs.x_jets(bundle, 0), lhs.ymat(bundle, 0)
    batch = batch_shape([xl, xb, ml.y, ml.w, z.y, z.w], bundle.point.shape[1:])
    vec_res = max_abs(value_array(xl, batch) - value_array(xb, batch), batch)
    mat_res = max_abs(ml.values(batch) - z.values(batch), batch)
    return vec_res, mat_res


def random_raw_pair(rng, consts, tag):
    """Random plain-Hermitian pair (X fields, vertical matrix evaluator)."""

    def rnd_field(nm):
        coeff = [round(float(rng.uniform(-0.8, 0.8)), 6) for _ in range(5)]
        src = f"{coeff[0]} + {coeff[1]}*x0 + {coeff[2]}*x1 + {coeff[3]}*x2 + {coeff[4]}*x3"
        return FieldDef(nm, DIMLESS, src, consts)

    x_fields = tuple(rnd_field(f"X{tag}{lam}") for lam in range(4))
    y0f = rnd_field(f"Y0{tag}")
    yif = tuple(rnd_field(f"Yi{tag}{a}") for a in range(3))

    def mat_eval(where, order):
        point = as_point(where)
        return Mat2([y0f.eval_jet(point, order)] + [f.eval_jet(point, order) for f in yif])

    return x_fields, mat_eval


def assemble_pair(qd, x_fields, vert, o) -> HermitianField:
    """j[c](X, Ycheck) = lift + vertical."""
    lifted = connection_lift(qd, x_fields, o)

    def y_eval(where, order):
        return lifted.ymat(where, order) + vert(where, order)

    return HermitianField(lifted.x_jets, y_eval, False)


def suite_isomorphism(sc: Scenario, rng: np.random.Generator) -> list:
    cloud, n = _sample(sc, rng)
    batch = (n,)
    consts = sc.background.constants.table()
    qd = sc.qd
    ref = Observer.reference()
    pairs = [
        (random_special_function(rng, consts, name=f"I{t}a"),
         random_special_function(rng, consts, name=f"I{t}b"))
        for t in range(4)
    ]
    firsts = evaluated(stack_functions([f for f, _ in pairs]), cloud, 2)  # read by both residuals
    worst_main = float(np.max(main_theorem_residual(firsts, stack_functions([fp for _, fp in pairs]), sc, cloud)))
    worst_herm = float(np.max(hermiticity_residual(from_special(firsts, qd), qd, cloud)))
    p1 = random_raw_pair(rng, consts, "a")
    p2 = random_raw_pair(rng, consts, "b")
    y_full = assemble_pair(qd, p1[0], p1[1], ref)
    y2_full = assemble_pair(qd, p2[0], p2[1], ref)
    back = vertical_projection(y_full, qd, ref, cloud)
    worst_round = float(np.max(np.abs(back.values(batch) - p1[1](cloud, 0).values(batch))))
    xb, zmat = lie_bracket_y(y_full, y2_full, cloud)
    xpair, mpair = pair_bracket(p1, p2, qd, ref, cloud)
    lift_vals = _lift_mat(qd, xb, ref, cloud, 0).values(batch)
    worst_pair = max(float(np.max(np.abs((zmat.values(batch) - lift_vals) - mpair.values(batch)))),
                     float(np.max(np.abs(value_array(xb, batch) - value_array(xpair, batch)))))
    return [
        Check("isomorphism.main_theorem", n, worst_main),
        Check("isomorphism.hj_roundtrip", n, worst_round),
        Check("isomorphism.pair_bracket", n, worst_pair),
        Check("isomorphism.eta_hermiticity", n, worst_herm),
    ]


def suite_observer(sc: Scenario, rng: np.random.Generator) -> list:
    cloud, n = _sample(sc, rng)
    consts = sc.background.constants.table()
    qd = sc.qd
    observers = [Observer.reference()]
    for t in range(5):
        comps = tuple(
            FieldDef(
                f"o{t}{i}",
                DIMLESS,
                f"{round(float(rng.uniform(-0.4, 0.4)), 6)} + {round(float(rng.uniform(-0.3, 0.3)), 6)}*x{i + 1}",
                consts,
            )
            for i in range(3)
        )
        observers.append(Observer(comps))
    funcs = evaluated(stack_functions([random_special_function(rng, consts, name=f"O{t}") for t in range(3)]),
                      cloud, 0)
    vals = np.array([invariant_combination(funcs, qd, o, cloud) for o in observers])  # [observer, function, point]
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
    worst = float(np.max((np.max(vals, axis=0) - np.min(vals, axis=0)) / scale))
    potential = max(float(np.max(potential_residual(qd, o, cloud))) for o in observers)
    return [Check("observer.invariant_combination", n, worst),
            Check("observer.potential_consistency", n, potential)]


def _smooth_grid(spec: GridSpec, rng: np.random.Generator) -> SpinorGrid:
    """Random smooth interior-supported spinor field: a compactly supported
    C^7 window (1 - u^2)^8 per active axis (exactly zero on the boundary, so
    Dirichlet truncation sees no leakage) times a random low-order polynomial."""
    xs = spec.coords()
    mesh = np.meshgrid(*xs, indexing="ij")
    env = np.ones(spec.shape)
    for ax in spec.active:
        lo, hi, _ = spec.axes[ax]
        c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = (mesh[ax] - c) / half
        env = env * np.clip(1.0 - u * u, 0.0, None) ** 8
    psi = np.zeros(spec.shape + (2,), dtype=complex)
    for comp in range(2):
        poly = rng.uniform(-1, 1)
        for ax in spec.active:
            poly = poly + rng.uniform(-1, 1) * mesh[ax] + rng.uniform(-0.5, 0.5) * mesh[ax] ** 2
        imag = rng.uniform(-1, 1)
        for ax in spec.active:
            imag = imag + rng.uniform(-1, 1) * mesh[ax]
        psi[..., comp] = env * (poly + 1j * imag)
    return SpinorGrid(spec, psi)


def _column(x) -> np.ndarray:
    """A number or a node array as a factor of (..., 2) spinor nodes."""
    return np.asarray(x)[..., None]


def _d1(spec: GridSpec, arr: np.ndarray, axis: int) -> np.ndarray:
    """The central first difference of node values along an axis, from a
    zero-padded copy (zero past the edges)."""
    padded = np.pad(arr, [(1, 1) if ax == axis else (0, 0) for ax in range(arr.ndim)])
    window = np.lib.stride_tricks.sliding_window_view(padded, 3, axis=axis)
    return (window[..., 2] - window[..., 0]) / (2.0 * spec.spacing(axis))


def _shifted_laplacian(geom: GridGeometry):
    """Delta0 psi in flux form (G^{ij} = sqrt|g| g^{ij}, V^i = G^{ij} A_j) from
    zero-padded copies of psi, independent of the production stencil: the
    differences of the face fluxes G^{ii}_{k+1/2} (psi_{k+1} - psi_k) / h^2,
    each face the mean of its nodes (the node's value past the edge),
    d1_i (G^{ij} d1_j psi) for i != j, -i (d1_i (V^i psi) + V^i d1_i psi) and
    -A_i V^i psi, over the active axes, times u0 hbar / (m sqrt|g|)."""
    spec = geom.spec
    active = spec.active
    big_g = [[np.broadcast_to(geom.sqrtg * geom.ginv[i][j], spec.shape) for j in range(3)] for i in range(3)]
    a_sp = geom.a[1:]
    v = {i: _column(sum(big_g[i][j] * a_sp[j] for j in active)) for i in active}
    potential = -sum(_column(a_sp[i]) * v[i] for i in active)
    faces = {}
    for i in active:
        padded = np.pad(big_g[i][i], [(1, 1) if ax == i else (0, 0) for ax in range(3)], mode="edge")
        faces[i] = _column(np.lib.stride_tricks.sliding_window_view(padded, 2, axis=i).mean(axis=-1))

    def apply(psi):
        out = potential * psi
        for i in active:
            h = spec.spacing(i)
            steps = np.diff(np.pad(psi, [(1, 1) if ax == i else (0, 0) for ax in range(4)]), axis=i)
            out += np.diff(faces[i] * steps, axis=i) / (h * h)
            for j in active:
                if j != i:
                    out += _d1(spec, _column(big_g[i][j]) * _d1(spec, psi, j), i)
            out += -1j * (_d1(spec, v[i] * psi, i) + v[i] * _d1(spec, psi, i))
        return geom.kinetic * out / _column(geom.sqrtg)

    return apply


def _closed_form_ops(sc: Scenario, geom: GridGeometry):
    """Independent implementations of the displayed operators (x^lam, P_1,
    H0', spin along e3) used as the dual route for prequantum, and of Delta0
    for observed_laplacian.  Delta0 and the kinetic part of H0' come from
    _shifted_laplacian, not from the production stencil."""
    x1 = geom.mesh4[1]
    dlog = geom.dsqrtg[0] / (2.0 * geom.sqrtg)
    c1mat = sum(np.asarray(geom.c_coeffs[1][a])[..., None, None] * XI_ALL[1 + a] for a in range(3))
    lap = _shifted_laplacian(geom)
    a0 = geom.a[0]
    bg = sc.background
    c = bg.constants
    bvals = [q[0] for q in node_map(geom.mesh4, lambda cloud: bg.jets(cloud).magnetic(0))]
    w = c.u0.value * c.mu.value
    smat = sum(0.5 * w * np.asarray(bvals[a])[..., None, None] * SIGMA[a] for a in range(3))

    def op_x1(psi):
        return x1[..., None] * psi

    def op_p1(psi):
        return -1j * (_d1(geom.spec, psi, 0) - np.einsum("...ab,...b->...a", c1mat, psi) + _column(dlog) * psi)

    def op_h0p(psi):
        out = -0.5 * lap(psi) - _column(a0) * psi
        return out + np.einsum("...ab,...b->...a", smat, psi)

    def op_spin3(psi):
        return 0.5 * np.einsum("ab,...b->...a", SIGMA[2], psi)

    return {"x1": op_x1, "P1": op_p1, "H0prime": op_h0p, "spin3": op_spin3, "Delta0": lap}


# The named displays' probe box for a scenario whose grid cannot carry them.
_BOX_GRID = GridSpec(((-4.0, 4.0, 16),) * 3, 0.0)
# The two levels of both step-halving sweeps (symmetry and bracket
# homomorphism), whatever the scenario grid: the step halves from 15^2 to 29^2.
_SWEEP_GRIDS = (GridSpec(((-3.0, 3.0, 15), (-3.0, 3.0, 15), (0.0, 0.0, 1)), 0.0),
                GridSpec(((-3.0, 3.0, 29), (-3.0, 3.0, 29), (0.0, 0.0, 1)), 0.0))


def suite_operators(sc: Scenario, rng: np.random.Generator) -> list:
    # the named-display dual route needs the x1 axis active (P1 differentiates
    # along it), and its probe's window (1 - u^2)^8 vanishes at every node of
    # an axis of 2 nodes; such scenario grids fall back to the probe box
    spec = sc.grid
    if spec is None or 0 not in spec.active or min(spec.shape[ax] for ax in spec.active) < 3:
        spec = _BOX_GRID
    qd = sc.qd
    geoms = {}

    def geometry(grid: GridSpec) -> GridGeometry:
        # the sweeps share their levels, which often repeat the scenario grid
        if grid not in geoms:
            geoms[grid] = GridGeometry(qd, grid)
        return geoms[grid]

    geom = geometry(spec)
    probe = _smooth_grid(spec, rng)
    closed = _closed_form_ops(sc, geom)
    worst_named = 0.0
    spin3 = SpecialFunction(
        fl.zero_field(), tuple(fl.zero_field() for _ in range(3)), fl.zero_field(),
        tuple(FieldDef(f"n{a}", DIMLESS, "-1" if a == 2 else "0", sc.background.constants.table())
              for a in range(3)),
        name="spin3",
    )
    named = {
        "x1": sc.function("x1"),
        "P1": sc.function("P1"),
        "H0prime": sc.function("H0prime"),
        "spin3": spin3,
    }
    ops = {key: prequantum(qd, geom, f) for key, f in named.items()}
    displays = {key: op.apply_fn for key, op in ops.items()}
    displays["Delta0"] = observed_laplacian(geom).apply_fn
    for key, apply_fn in displays.items():
        got = apply_fn(probe.psi)
        want = closed[key](probe.psi)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst_named = max(worst_named, float(np.max(np.abs(got - want))) / scale)
    gen = pauli_generator(geom)
    lock = float(np.max(np.abs(gen.apply_fn(probe.psi) - ops["H0prime"].apply_fn(probe.psi))))
    lock /= max(1.0, float(np.max(np.abs(probe.psi))))
    worst_lin = 0.0
    for op in ops.values():
        worst_lin = max(worst_lin, check_linearity(op, spec, rng))
    sym_ratio = _grid_ratio(partial(_symmetry_defect, sc), rng, geometry)
    hom_ratio = _grid_ratio(partial(_bracket_homomorphism_defect, sc), rng, geometry)
    return [
        Check("operators.named_displays", 1, worst_named),
        Check("operators.generator_lock", 1, lock),
        Check("operators.linearity", len(ops), worst_lin),
        Check("operators.symmetry_ratio", 2, sym_ratio),
        Check("operators.bracket_homomorphism_ratio", 2, hom_ratio),
    ]


def _symmetry_defect(sc: Scenario, geom: GridGeometry, rng) -> float:
    """|<a, O b> - <O a, b>| of O = prequantum(P1) for two random probes.
    prequantum(H0prime) is -1/2 Delta0 plus a Hermitian centre, symmetric
    by construction, so it would add roundoff alone."""
    a = _smooth_grid(geom.spec, rng)
    b = _smooth_grid(geom.spec, rng)
    op = prequantum(sc.qd, geom, sc.function("P1"))
    return abs(inner_product(geom, a, op(b)) - inner_product(geom, op(a), b))


def _bracket_homomorphism_defect(sc: Scenario, geom: GridGeometry, rng) -> float:
    qd = sc.qd
    spec = geom.spec
    consts = sc.background.constants.table()
    # f0-free pairs, independent of the inactive x3 axis, so the grid
    # reduction is exact on both routes.  Pairs with f0 != 0 are neither
    # gated nor reported yet (ROADMAP item 6).
    def rand_f(name):
        g = random_special_function(rng, consts, name=name, active_vars=(0, 1, 2))
        return SpecialFunction(fl.zero_field(), g.fi, g.fbrev, g.phi, name=name)

    f, fp = rand_f("Ha"), rand_f("Hb")
    probe = _smooth_grid(spec, rng)
    o1 = prequantum(qd, geom, f)
    o2 = prequantum(qd, geom, fp)
    lhs = operator_bracket(o1, o2, probe)
    br = bracket_as_function(f, fp, sc)
    rhs = prequantum(qd, geom, br)(probe)
    return float(np.max(np.abs(lhs.psi - rhs.psi)))


def _grid_ratio(defect, rng, geometry) -> float:
    """Step-halving ratio coarse/fine of defect(geometry, rng) from the
    coarse level of _SWEEP_GRIDS to the fine one; both levels draw their
    data from one seed taken from rng.  inf when both defects are below the
    roundoff floor 1e-12 or the fine one is 0; nan, which fails the check,
    when either is not finite."""
    seed = rng.integers(2**31)
    coarse, fine = (defect(geometry(spec), np.random.default_rng(seed)) for spec in _SWEEP_GRIDS)
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        return float("nan")
    if max(coarse, fine) < 1e-12:
        return float("inf")
    return coarse / fine if fine > 0 else float("inf")


_SUITE_FNS = {
    "background": suite_background,
    "curvature": suite_curvature,
    "isomorphism": suite_isomorphism,
    "jacobi": suite_jacobi,
    "observer": suite_observer,
    "operators": suite_operators,
}


def run_suites(sc: Scenario, suites=None) -> list:
    """The checks of the named suites (all by default), each suite run once,
    sorted by name."""
    names = sorted(set(suites or SUITES))
    for name in names:
        if name not in _SUITE_FNS:
            raise ValueError(f"unknown suite {name!r} (available: {', '.join(SUITES)})")
    checks = [c for n in names for c in _SUITE_FNS[n](sc, _rng_for(sc, n))]
    checks.sort(key=lambda c: c.name)
    return checks
