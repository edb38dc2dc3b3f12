"""Property suites behind `cqm verify`.

Each suite draws seeded sample points from the scenario box and reports the
worst residual of a family of identities.  Every check's bound is a constant
of TOLERANCES, which no scenario can change.  Two kinds of checks exist:
residual checks (pass when max residual <= bound), which gate every
identity that holds exactly, and the `*_ratio` convergence checks of the
operators suite (pass when halving the grid step shrinks an O(h^2)
discretisation defect by a ratio >= the bound, or when both defects are
already at roundoff, which reads as an infinite ratio).

Every suite but operators draws its samples as (n, 4) rows and evaluates
them as one (4, n) cloud, `points.T`.  Every residual function the suites
call takes a point (4,), a cloud (4, n) or the background bundle of one; a
residual is a float at a point and an (n,) array of per-point values on a
cloud, and a suite reports the largest.  The isomorphism, Jacobi and
observer suites build one background bundle per cloud and pass the bundle in
place of the cloud, so every residual function shares its background
quantities.  The background suite's closure checks (dOmega = 0 and
dPhi[o] = 0) read exact derivatives off the suite's own bundle; only the
operators suite's grid sweeps measure a discretisation.  The operators suite
builds one grid geometry per distinct grid and shares it between its
sweeps; a scenario without a grid gets the probe box _BOX_GRID, which is
also the symmetry sweep's coarse level.

The main theorem is checked as stated: from_special of the bracket
[[F, F']] against the Lie bracket of from_special F and from_special F'.
The bracket enters as a derived special function (bracket_as_function)
whose one evaluator is the extended bracket of the two, so its field goes
through the same Y[F] formula, hermitian.y_coefficients, as every other
field and the grid operators.
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
    vertical_projection,
)
from .jets import Jet, max_abs, value_array
from .pauli import EPS, XI_ALL
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
    extended_bracket_jets,
    jacobi_residual,
)
from .units import DIMLESS

SUITES = ("background", "curvature", "isomorphism", "jacobi", "observer", "operators")

TOLERANCES = {
    "background.metricity": 1e-10,
    "background.torsion": 1e-15,
    "background.curvature_symmetry": 1e-10,
    "background.dF": 1e-10,
    "background.frame_orthonormality": 1e-12,
    "background.ktilde_antisymmetry": 1e-10,
    "background.domega": 1e-12,
    "background.dphi": 1e-12,
    "curvature.rtilde_relation": 1e-10,
    "curvature.c_roundtrip": 1e-11,
    "curvature.rho_coupling_slots": 1e-9,
    "jacobi.residual": 1e-8,
    "isomorphism.main_theorem": 1e-9,
    "isomorphism.vector_morphism": 1e-9,
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


def suite_background(sc: Scenario) -> list:
    rng = _rng_for(sc, "background")
    points = sc.sample_points(rng)
    cloud = points.T
    batch = cloud.shape[1:]
    bg = sc.background
    b = bg.jets(cloud)
    checks = [Check(f"background.{key}", len(points), worst) for key, worst in bg.validate(b).items()]
    e = value_array(b.frame(0)[0], batch)
    g = value_array(b.metric(0), batch)
    frame = [sum(e[i][a] * g[i][j] * e[j][bb] for i in range(3) for j in range(3)) - (1.0 if a == bb else 0.0)
             for a in range(3) for bb in range(3)]
    worst_frame = float(np.max(np.abs(frame)))
    kt = value_array(b.ktilde("charge", 0), batch)
    worst_anti = float(np.max(np.abs(kt + kt.swapaxes(1, 2))))
    return checks + [
        Check("background.frame_orthonormality", len(points), worst_frame),
        Check("background.ktilde_antisymmetry", len(points), worst_anti),
    ] + _closure_checks(sc, b, rng)


def _closure_checks(sc: Scenario, b, rng) -> list:
    """dOmega = 0 on phase space and dPhi[o] = 0 on spacetime at the
    bundle's points, from exact derivatives: x-derivatives from order-1
    jets, v-derivatives of Omega (at most quadratic in v) from central
    differences of step 1, exact up to rounding.  The velocities are drawn
    from rng; the observer is the scenario's first non-reference one."""
    batch = b.point.shape[1:]
    v = rng.uniform(-0.5, 0.5, (3,) + batch)

    def x_derivatives(table):
        return value_array([[[w.derive(a) for a in range(4)] for w in row] for row in table], batch)

    def omega_at(vel):
        return value_array(b.omega_table([Jet.const(vk, 0) for vk in vel], 0), batch)

    dv = [0.5 * (omega_at(v + e) - omega_at(v - e)) for e in np.eye(3)[:, :, None]]
    domega = np.concatenate([x_derivatives(b.omega_table([Jet.const(vk, 1) for vk in v], 1)),
                             np.stack(dv, axis=2)], axis=2)
    names = [n for n in sc.observers if n != "reference"]
    obs = sc.observers[names[0]] if names else Observer.reference()
    dphi = x_derivatives(b.phi_observer(obs, 1))
    return [Check("background.domega", batch[0], _closure_residual(domega)),
            Check("background.dphi", batch[0], _closure_residual(dphi))]


def _closure_residual(d: np.ndarray) -> float:
    """Worst |d_a w_bc - d_b w_ac + d_c w_ab| over a < b < c and the rows,
    relative to max(1, the row's largest derivative), for derivatives
    d[b, c, a, row] of a 2-form's component table w."""
    scale = np.maximum(1.0, np.max(np.abs(d), axis=(0, 1, 2)))
    return max(float(np.max(np.abs(d[b, c, a] - d[a, c, b] + d[a, b, c]) / scale))
               for a, b, c in itertools.combinations(range(d.shape[0]), 3))


def suite_curvature(sc: Scenario) -> list:
    rng = _rng_for(sc, "curvature")
    points = sc.sample_points(rng)
    cloud = points.T
    batch = cloud.shape[1:]
    bg = sc.background
    c = bg.constants
    coupling_ratio = (-c.mu.value * c.u0.value) / (c.q.value * c.u0.value / (2.0 * c.m.value))
    b = bg.jets(cloud)
    cjets = sc.qd.spin.coeffs(b, 1)
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
    # round trip: rebuild Ktilde_lam^k_j = eps_ijk C_lam^i from C and compare
    cvals = value_array(cjets, batch)
    recon = sum(EPS[i].T[:, :, None] * cvals[:, i, None, None] for i in range(3))
    worst_round = float(np.max(np.abs(recon - value_array(b.ktilde("moment", 0), batch))))
    # charge vs moment rho differ only in (0, j) slots, by the coupling ratio
    rho_c = value_array(b.rho("charge", 0), batch)
    rho_g = value_array(b.rho("grav", 0), batch)
    worst_slots = max(float(np.max(np.abs(rho[1:, 1:] - rho_c[1:, 1:]))),
                      float(np.max(np.abs((rho[0] - rho_g[0]) - coupling_ratio * (rho_c[0] - rho_g[0])))))
    return [
        Check("curvature.rtilde_relation", len(points), worst_rt),
        Check("curvature.c_roundtrip", len(points), worst_round),
        Check("curvature.rho_coupling_slots", len(points), worst_slots),
    ]


def suite_jacobi(sc: Scenario) -> list:
    rng = _rng_for(sc, "jacobi")
    points = sc.sample_points(rng)
    consts = sc.background.constants.table()
    triples = [
        tuple(random_special_function(rng, consts, name=f"J{t}{i}") for i in range(3))
        for t in range(3)
    ]
    bundle = sc.background.jets(points.T)
    worst = float(np.max([jacobi_residual(*triple, sc.background, bundle) for triple in triples]))
    return [Check("jacobi.residual", len(points), worst)]


def main_theorem_residual(f: SpecialFunction, fp: SpecialFunction, sc: Scenario, where):
    """(vector residual, matrix residual) of the main theorem
    from_special([[F,F']]) == [from_special F, from_special F'] at order 0:
    floats at a point, (N,) arrays of per-point values on a (4, N) cloud or
    on a bundle's points.  Both sides share one bundle.  The left side's X
    comes from the bracket's component formulas, the right side's from the
    Lie bracket of vector fields, so the vector residual compares two
    routes."""
    qd = sc.qd
    bundle = sc.background.jets(where)
    batch = bundle.point.shape[1:]
    lhs = from_special(bracket_as_function(f, fp, sc), qd)
    xb, z = lie_bracket_y(from_special(f, qd), from_special(fp, qd), bundle)
    vec_res = max_abs(value_array(lhs.x_jets(bundle, 0), batch) - value_array(xb, batch), batch)
    mat_res = max_abs(lhs.ymat(bundle, 0).values(batch) - z.values(batch), batch)
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


def suite_isomorphism(sc: Scenario) -> list:
    rng = _rng_for(sc, "isomorphism")
    points = sc.sample_points(rng)
    consts = sc.background.constants.table()
    qd = sc.qd
    ref = Observer.reference()
    pairs = [
        (random_special_function(rng, consts, name=f"I{t}a"),
         random_special_function(rng, consts, name=f"I{t}b"))
        for t in range(4)
    ]
    cloud = sc.background.jets(points.T)
    theorem = [main_theorem_residual(f, fp, sc, cloud) for f, fp in pairs]
    worst_vec = float(np.max([vec for vec, _ in theorem]))
    worst_main = max(worst_vec, float(np.max([mat for _, mat in theorem])))
    worst_herm = float(np.max([hermiticity_residual(from_special(f, qd), qd, cloud) for f, _ in pairs]))
    p1 = random_raw_pair(rng, consts, "a")
    p2 = random_raw_pair(rng, consts, "b")
    half = sc.background.jets(points[: max(len(points) // 2, 1)].T)
    batch = half.point.shape[1:]
    y_full = assemble_pair(qd, p1[0], p1[1], ref)
    y2_full = assemble_pair(qd, p2[0], p2[1], ref)
    back = vertical_projection(y_full, qd, ref, half)
    worst_round = float(np.max(np.abs(back.values(batch) - p1[1](half, 0).values(batch))))
    xb, zmat = lie_bracket_y(y_full, y2_full, half)
    xpair, mpair = pair_bracket(p1, p2, qd, ref, half)
    lift_vals = _lift_mat(qd, xb, ref, half, 0).values(batch)
    worst_pair = max(float(np.max(np.abs((zmat.values(batch) - lift_vals) - mpair.values(batch)))),
                     float(np.max(np.abs(value_array(xb, batch) - value_array(xpair, batch)))))
    return [
        Check("isomorphism.main_theorem", len(points), worst_main),
        Check("isomorphism.vector_morphism", len(points), worst_vec),
        Check("isomorphism.hj_roundtrip", len(points), worst_round),
        Check("isomorphism.pair_bracket", len(points), worst_pair),
        Check("isomorphism.eta_hermiticity", len(points), worst_herm),
    ]


def suite_observer(sc: Scenario) -> list:
    rng = _rng_for(sc, "observer")
    points = sc.sample_points(rng)
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
    funcs = [random_special_function(rng, consts, name=f"O{t}") for t in range(3)]
    cloud = sc.background.jets(points.T)
    worst = 0.0
    for f in funcs:
        vals = np.array([invariant_combination(f, qd, o, cloud) for o in observers])
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
        worst = max(worst, float(np.max((np.max(vals, axis=0) - np.min(vals, axis=0)) / scale)))
    n_pot = min(10, len(points))
    return [Check("observer.invariant_combination", len(points), worst),
            Check("observer.potential_consistency", n_pot, qd.check_potential(points[:n_pot]))]


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


def _closed_form_ops(sc: Scenario, geom: GridGeometry):
    """Independent implementations of the displayed operators (x^lam, P_1,
    H0', spin along e3) used as the dual route for prequantum."""
    from .pauli import SIGMA

    x1 = geom.mesh4[1]
    sqrtg = geom.sqrtg
    dlog = geom.dsqrtg[..., 0] / (2.0 * sqrtg)
    c1mat = np.zeros(geom.spec.shape + (2, 2), dtype=complex)
    c0mat = np.zeros(geom.spec.shape + (2, 2), dtype=complex)
    for a in range(3):
        c1mat += geom.c_coeffs[..., 1, a, None, None] * XI_ALL[1 + a]
        c0mat += geom.c_coeffs[..., 0, a, None, None] * XI_ALL[1 + a]
    lap = observed_laplacian(geom)
    a0 = geom.a[0]
    bg = sc.background
    c = bg.constants
    bvals = node_map(geom.mesh4, lambda cloud: value_array(bg.jets(cloud).magnetic(0), cloud.shape[1:]))
    w = c.u0.value * c.mu.value

    def op_x1(psi):
        return x1[..., None] * psi

    def op_p1(psi):
        d1 = geom.d1(psi, 0)
        return -1j * (d1 - np.einsum("...ab,...b->...a", c1mat, psi) + dlog[..., None] * psi)

    def op_h0p(psi):
        out = -0.5 * lap.apply_fn(psi) - a0[..., None] * psi
        smat = np.zeros(geom.spec.shape + (2, 2), dtype=complex)
        for a in range(3):
            smat += 0.5 * w * bvals[a, ..., None, None] * SIGMA[a]
        return out + np.einsum("...ab,...b->...a", smat, psi)

    def op_spin3(psi):
        return 0.5 * np.einsum("ab,...b->...a", SIGMA[2], psi)

    return {"x1": op_x1, "P1": op_p1, "H0prime": op_h0p, "spin3": op_spin3}


# The probe box of the operators suite for a scenario without a grid: the
# named displays and the symmetry sweep's coarse level share its geometry.
_BOX_GRID = GridSpec(((-4.0, 4.0, 16),) * 3, 0.0)
# The bracket-homomorphism sweep's two levels: the step halves from 15^2 to 29^2.
_HOMOMORPHISM_GRIDS = (GridSpec(((-3.0, 3.0, 15), (-3.0, 3.0, 15), (0.0, 0.0, 1)), 0.0),
                       GridSpec(((-3.0, 3.0, 29), (-3.0, 3.0, 29), (0.0, 0.0, 1)), 0.0))


def suite_operators(sc: Scenario) -> list:
    rng = _rng_for(sc, "operators")
    # the named-display dual route needs the x1 axis active (P1 differentiates
    # along it); reduced scenario grids fall back to the probe box
    spec = sc.grid
    if spec is None or 0 not in spec.active:
        spec = _BOX_GRID
    qd = sc.qd
    geoms = {}

    def geometry(grid: GridSpec) -> GridGeometry:
        # the sweeps' grids often repeat the scenario grid and each other
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
    for key, op in ops.items():
        got = op.apply_fn(probe.psi)
        want = closed[key](probe.psi)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst_named = max(worst_named, float(np.max(np.abs(got - want))) / scale)
    gen = pauli_generator(geom)
    lock = float(np.max(np.abs(gen.apply_fn(probe.psi) - ops["H0prime"].apply_fn(probe.psi))))
    lock /= max(1.0, float(np.max(np.abs(probe.psi))))
    worst_lin = 0.0
    for op in ops.values():
        worst_lin = max(worst_lin, check_linearity(op, spec, rng))
    base = sc.grid or _BOX_GRID
    coarse = GridSpec(tuple((lo, hi, n if n == 1 else min(n, 17)) for lo, hi, n in base.axes), base.time)
    fine = GridSpec(tuple((lo, hi, n if n == 1 else 2 * n - 1) for lo, hi, n in coarse.axes), base.time)
    sym_ratio = _grid_ratio(partial(_symmetry_defect, sc), coarse, fine, rng, geometry)
    hom_ratio = _grid_ratio(partial(_bracket_homomorphism_defect, sc), *_HOMOMORPHISM_GRIDS, rng, geometry)
    return [
        Check("operators.named_displays", 1, worst_named),
        Check("operators.generator_lock", 1, lock),
        Check("operators.linearity", len(ops), worst_lin),
        Check("operators.symmetry_ratio", 2, sym_ratio),
        Check("operators.bracket_homomorphism_ratio", 2, hom_ratio),
    ]


def _symmetry_defect(sc: Scenario, geom: GridGeometry, rng) -> float:
    qd = sc.qd
    spec = geom.spec
    a = _smooth_grid(spec, rng)
    b = _smooth_grid(spec, rng)
    worst = 0.0
    for f in (sc.function("P1"), sc.function("H0prime")):
        op = prequantum(qd, geom, f)
        oa, ob = op(a), op(b)
        lhs = inner_product(geom, a, ob)
        rhs = inner_product(geom, oa, b)
        worst = max(worst, abs(lhs - rhs))
    return worst


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


def _grid_ratio(defect, spec1: GridSpec, spec2: GridSpec, rng, geometry) -> float:
    """Step-halving ratio coarse/fine of defect(geometry, rng) from the grid
    spec1 to spec2, whose step is half of spec1's; both levels draw their
    data from one seed taken from rng.  inf when both defects are below the
    roundoff floor 1e-12 or the fine one is 0; nan, which fails the check,
    when either is not finite."""
    seed = rng.integers(2**31)
    coarse = defect(geometry(spec1), np.random.default_rng(seed))
    fine = defect(geometry(spec2), np.random.default_rng(seed))
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
    names = sorted(suites or SUITES)
    for name in names:
        if name not in _SUITE_FNS:
            raise ValueError(f"unknown suite {name!r} (available: {', '.join(SUITES)})")
    checks = [c for n in names for c in _SUITE_FNS[n](sc)]
    checks.sort(key=lambda c: c.name)
    return checks
