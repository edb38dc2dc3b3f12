"""The sample suites evaluate their samples as one (4, n) cloud.

Every residual function they call must give on a cloud exactly the values it
gives point by point, and the suites must report what the per-point loops
(kept here as the oracle) report.
"""

import dataclasses

import numpy as np
import pytest

from cqm.background import BackgroundJets, Observer, PhasePoint
from cqm.fieldlang import FieldDef
from cqm.hermitian import (
    _lift_mat,
    ch_along_jets,
    from_special,
    hermiticity_residual,
    invariant_combination,
    lie_bracket_y,
    pair_bracket,
    to_special,
    vertical_projection,
)
from cqm.jets import value_array
from cqm.scenario import load_scenario
from cqm.special import eval_special, extended_bracket, jacobi_residual
from cqm.units import DIMLESS
from cqm.verify import (
    Check,
    _curvature_symmetry_residual,
    _df_residual,
    _metricity_residual,
    _rng_for,
    assemble_pair,
    bracket_as_function,
    main_theorem_residual,
    random_raw_pair,
    random_special_function,
    run_suites,
)

from conftest import sample_box, scenario_dict
from oracles import ad, cosymplectic_and_gamma, frame_curvature, mat2_constant

SIZES = (1, 4, 7)


@pytest.fixture(scope="module", params=["curved_magnetic", "flat_magnetic"])
def sc(request):
    return load_scenario(scenario_dict(request.param))


@pytest.fixture(scope="module")
def funcs(sc):
    rng = np.random.default_rng(31)
    consts = sc.background.constants.table()
    return [random_special_function(rng, consts, name=f"C{i}") for i in range(3)]


@pytest.fixture(scope="module")
def raw_pairs(sc):
    rng = np.random.default_rng(32)
    consts = sc.background.constants.table()
    return random_raw_pair(rng, consts, "a"), random_raw_pair(rng, consts, "b")


@pytest.fixture(scope="module")
def observers(sc):
    consts = sc.background.constants.table()
    shear = Observer(tuple(FieldDef(f"s{i}", DIMLESS, src, consts)
                           for i, src in enumerate(("0.1*x2", "-0.05*x1 + 0.2", "0.08*x3"))))
    return [Observer.reference(), shear]


def rows(n):
    return sample_box(np.random.default_rng([33, n]), n)


def assert_cloud_matches(cloud_value, point_values):
    """The cloud result equals the point results stacked along the last axis."""
    stacked = np.stack([np.asarray(v) for v in point_values], axis=-1)
    assert np.shape(cloud_value) == stacked.shape
    assert np.array_equal(cloud_value, stacked)


@pytest.mark.parametrize("n", SIZES)
def test_jacobi_and_bracket_on_a_cloud(sc, funcs, n):
    pts = rows(n)
    bg = sc.background
    got = jacobi_residual(*funcs, bg, pts.T)
    assert isinstance(jacobi_residual(*funcs, bg, pts[0]), float)
    assert_cloud_matches(got, [jacobi_residual(*funcs, bg, x) for x in pts])
    assert_cloud_matches(extended_bracket(funcs[0], funcs[1], bg, pts.T).as_array(),
                         [extended_bracket(funcs[0], funcs[1], bg, x).as_array() for x in pts])


@pytest.mark.parametrize("n", SIZES)
def test_main_theorem_and_hermiticity_on_a_cloud(sc, funcs, n):
    pts = rows(n)
    vec, mat = main_theorem_residual(funcs[0], funcs[1], sc, pts.T)
    at_points = [main_theorem_residual(funcs[0], funcs[1], sc, x) for x in pts]
    assert all(isinstance(v, float) for v in at_points[0])
    assert_cloud_matches(vec, [v for v, _ in at_points])
    assert_cloud_matches(mat, [m for _, m in at_points])
    y = from_special(funcs[2], sc.qd)
    assert_cloud_matches(hermiticity_residual(y, sc.qd, pts.T),
                         [hermiticity_residual(y, sc.qd, x) for x in pts])
    ref = Observer.reference()
    assert_cloud_matches(to_special(y, sc.qd, ref, pts.T).as_array(),
                         [to_special(y, sc.qd, ref, x).as_array() for x in pts])


@pytest.mark.parametrize("n", SIZES)
def test_projection_pair_bracket_and_lift_on_a_cloud(sc, raw_pairs, n):
    pts = rows(n)
    batch = (n,)
    qd, ref = sc.qd, Observer.reference()
    p1, p2 = raw_pairs
    y1 = assemble_pair(qd, p1[0], p1[1], ref)
    y2 = assemble_pair(qd, p2[0], p2[1], ref)
    assert_cloud_matches(vertical_projection(y1, qd, ref, pts.T).values(batch),
                         [vertical_projection(y1, qd, ref, x).values() for x in pts])
    xb, mb = pair_bracket(p1, p2, qd, ref, pts.T)
    at_points = [pair_bracket(p1, p2, qd, ref, x) for x in pts]
    assert_cloud_matches(value_array(xb, batch), [value_array(x) for x, _ in at_points])
    assert_cloud_matches(mb.values(batch), [m.values() for _, m in at_points])
    xl = lie_bracket_y(y1, y2, pts.T)[0]
    assert_cloud_matches(_lift_mat(qd, xl, ref, pts.T, 0).values(batch),
                         [_lift_mat(qd, lie_bracket_y(y1, y2, x)[0], ref, x, 0).values() for x in pts])


@pytest.mark.parametrize("n", SIZES)
def test_curvature_riemann_and_validate_on_a_cloud(sc, n):
    pts = rows(n)
    bg = sc.background
    cloud = bg.jets(pts.T)
    assert_cloud_matches(value_array(cloud.rho("moment", 0), (n,)),
                         [value_array(bg.jets(x).rho("moment", 0)) for x in pts])
    assert_cloud_matches(cloud.riemann_lowered_spatial(),
                         [bg.jets(x).riemann_lowered_spatial() for x in pts])
    rep = _connection_axioms(bg.jets(pts.T))
    singles = [_connection_axioms(bg.jets(x)) for x in pts]
    assert rep == {k: max(s[k] for s in singles) for k in rep}
    assert rep == _oracle_connection_axioms(bg, pts)


@pytest.mark.parametrize("n", SIZES)
def test_phase_point_functions_on_a_cloud(sc, funcs, observers, n):
    pts = rows(n)
    v, s = np.random.default_rng([34, n]).uniform(-0.5, 0.5, (2, n, 3))
    bg, qd = sc.background, sc.qd
    cloud = PhasePoint(pts.T, v.T, s.T)
    # a phase point keeps the bundle it stands on and gives the same values bit for bit
    bundle = bg.jets(pts.T)
    on_bundle = PhasePoint(bundle, v.T, s.T)
    assert on_bundle.x is bundle
    singles = [PhasePoint(*row) for row in zip(pts, v, s)]
    got = cosymplectic_and_gamma(bg, cloud)
    at_points = [cosymplectic_and_gamma(bg, p) for p in singles]
    for k in range(2):
        assert_cloud_matches(got[k], [r[k] for r in at_points])
        assert np.array_equal(cosymplectic_and_gamma(bg, on_bundle)[k], got[k])
    got = eval_special(funcs[0], bg, cloud)
    assert_cloud_matches(got, [eval_special(funcs[0], bg, p) for p in singles])
    assert np.array_equal(eval_special(funcs[0], bg, on_bundle), got)
    assert isinstance(invariant_combination(funcs[1], qd, observers[1], pts[0]), float)
    for o in observers:
        assert_cloud_matches(value_array(bg.jets(pts.T).phi_observer(o, 0), (n,)),
                             [value_array(bg.jets(x).phi_observer(o, 0)) for x in pts])
        assert_cloud_matches(value_array(ch_along_jets(qd, o, pts.T, 0), (n,)),
                             [value_array(ch_along_jets(qd, o, x, 0)) for x in pts])
        assert_cloud_matches(invariant_combination(funcs[1], qd, o, pts.T),
                             [invariant_combination(funcs[1], qd, o, x) for x in pts])


def test_invariant_combination_matches_the_float_oracle(sc, funcs, observers):
    pts = rows(7)
    for f in funcs:
        for o in observers:
            got = invariant_combination(f, sc.qd, o, pts.T)
            want = np.array([_oracle_invariant_combination(f, sc.qd, o, x) for x in pts])
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("n", SIZES)
def test_a_bundle_stands_for_its_cloud(sc, funcs, raw_pairs, n):
    """Passing the cloud's bundle gives what passing the cloud gives, bit for
    bit."""
    cloud = rows(n).T
    bundle = sc.background.jets(cloud)
    spin = sc.qd.spin
    assert spin.coeff_values(bundle).shape == (4, 3, n)
    assert np.array_equal(spin.coeff_values(bundle), spin.coeff_values(cloud))
    for row_b, row_c in zip(spin.coeffs(bundle, 1), spin.coeffs(cloud, 1)):
        for jb, jc in zip(row_b, row_c):
            assert np.array_equal(jb.c, jc.c)
    y1, y2 = (from_special(f, sc.qd) for f in funcs[:2])
    for order in (0, 1):
        xc, zc = lie_bracket_y(y1, y2, cloud, order)
        xb, zb = lie_bracket_y(y1, y2, bundle, order)
        assert np.array_equal(value_array(xb, (n,)), value_array(xc, (n,)))
        assert np.array_equal(zb.values((n,)), zc.values((n,)))
    for got, want in zip(main_theorem_residual(funcs[0], funcs[1], sc, bundle),
                         main_theorem_residual(funcs[0], funcs[1], sc, cloud)):
        assert np.array_equal(got, want)
    assert np.array_equal(hermiticity_residual(y1, sc.qd, bundle), hermiticity_residual(y1, sc.qd, cloud))
    ref = Observer.reference()
    y_raw = assemble_pair(sc.qd, raw_pairs[0][0], raw_pairs[0][1], ref)
    assert np.array_equal(hermiticity_residual(y_raw, sc.qd, bundle), hermiticity_residual(y_raw, sc.qd, cloud))


def test_isomorphism_and_jacobi_build_one_bundle_per_cloud(monkeypatch):
    """Every point suite evaluates on one cloud, its samples (which all
    four isomorphism checks share, both observer checks, both curvature
    checks and all seven background checks); each builds one bundle for it
    and hands it to every residual function."""
    sc = load_scenario(scenario_dict("curved_magnetic"))
    built = []
    original = BackgroundJets.__init__

    def counting(self, bg, point):
        built.append(point.shape)
        original(self, bg, point)

    monkeypatch.setattr(BackgroundJets, "__init__", counting)
    for suite in ("isomorphism", "jacobi", "observer", "background", "curvature"):
        built.clear()
        run_suites(sc, [suite])
        assert built == [(4, sc.samples)], suite


@pytest.mark.parametrize("case", ["extended_bracket", "from_special"])
def test_a_derived_function_on_a_bundle_builds_no_bundle(monkeypatch, case):
    """A derived special function (the curved H0prime, a bracket) evaluated
    on a bundle reads every background quantity off that bundle."""
    sc = load_scenario(scenario_dict("curved_magnetic"))
    bg = sc.background
    bundle = bg.jets(rows(4).T)
    f = random_special_function(np.random.default_rng(35), bg.constants.table(), name="D")
    built = []
    original = BackgroundJets.__init__

    def counting(self, bg, point):
        built.append(point.shape)
        original(self, bg, point)

    monkeypatch.setattr(BackgroundJets, "__init__", counting)
    if case == "extended_bracket":
        extended_bracket(sc.function("H0prime"), sc.function("x1"), bg, bundle)
    else:
        from_special(bracket_as_function(sc.function("H0prime"), f, sc), sc.qd).ymat(bundle, 0)
    assert built == []


def test_mat2_values_broadcast_constants():
    m = mat2_constant(np.array([[1.0 + 0.5j, 2j], [2j, 1.0 - 0.5j]]), 1)
    assert m.values().shape == (2, 2)
    got = m.values((5,))
    assert got.shape == (2, 2, 5)
    assert np.array_equal(got, np.repeat(m.values()[..., None], 5, axis=-1))


# ---------------------------------------------------------------------------
# the per-point suite loops, kept as the oracle of the cloud suites


def _connection_axioms(b):
    """The background suite's residuals of the connection axioms on the bundle b."""
    return {"metricity": _metricity_residual(b), "curvature_symmetry": _curvature_symmetry_residual(b),
            "dF": _df_residual(b)}


def _oracle_connection_axioms(bg, samples):
    res = {"metricity": 0.0, "curvature_symmetry": 0.0, "dF": 0.0}
    for x in samples:
        b = bg.jets(x)
        g1 = b.metric(1)
        k = b.kgrav(0)
        g0 = b.metric(0)
        for lam in range(4):
            for i in range(3):
                for j in range(3):
                    r = g1[i][j].derive(lam).value
                    for h in range(3):
                        r -= k[lam][h][i + 1].value * g0[h][j].value
                        r -= k[lam][h][j + 1].value * g0[i][h].value
                    res["metricity"] = max(res["metricity"], abs(r))
        riem = b.riemann_lowered_spatial()
        for i in range(3):
            for j in range(3):
                for h in range(3):
                    for kk in range(3):
                        res["curvature_symmetry"] = max(
                            res["curvature_symmetry"], abs(riem[i, j, h, kk] - riem[h, kk, i, j]))
        f1 = b.f_jets(1)
        for lam in range(4):
            for mu in range(lam + 1, 4):
                for nu in range(mu + 1, 4):
                    r = (f1[lam][mu].derive(nu).value + f1[mu][nu].derive(lam).value
                         + f1[nu][lam].derive(mu).value)
                    res["dF"] = max(res["dF"], abs(r))
    return res


def _oracle_background(sc):
    rng = _rng_for(sc, "background")
    points = sc.sample_points(rng)
    bg = sc.background
    rep = _oracle_connection_axioms(bg, points)
    checks = [Check(f"background.{key}", len(points), rep[key])
              for key in ("metricity", "curvature_symmetry", "dF")]
    worst_frame = 0.0
    worst_anti = 0.0
    for x in points:
        b = bg.jets(x)
        e, _ = b.frame(0)
        g = b.metric(0)
        for a in range(3):
            for bb in range(3):
                acc = sum(e[i][a].value * g[i][j].value * e[j][bb].value for i in range(3) for j in range(3))
                worst_frame = max(worst_frame, abs(acc - (1.0 if a == bb else 0.0)))
        for sector in ("charge", "moment"):
            kt = b.ktilde(sector, 0)
            for lam in range(4):
                for a in range(3):
                    for bb in range(3):
                        worst_anti = max(worst_anti, abs(kt[lam][a][bb].value + kt[lam][bb][a].value))
    checks.append(Check("background.frame_orthonormality", len(points), worst_frame))
    checks.append(Check("background.ktilde_antisymmetry", len(points), worst_anti))
    checks.append(_oracle_volume(bg, points))
    checks.append(_oracle_domega(bg, points, rng))
    return checks


def _oracle_volume(bg, points):
    """The two relative residuals of sqrt|g| point by point, in floats:
    sqrt|g|^2 against np.linalg.det of the 3x3 metric values, and Jacobi's
    formula d_lam sqrt|g| = 1/2 sqrt|g| g^ij d_lam g_ij."""
    worst = 0.0
    for x in points:
        b = bg.jets(x)
        sg1 = b.sqrt_det(1)
        sg = sg1.value
        g = np.array([[e.value for e in row] for row in b.metric(0)])
        ginv = [[e.value for e in row] for row in b.metric_inv(0)]
        g1 = b.metric(1)
        worst = max(worst, abs(sg * sg / np.linalg.det(g) - 1.0))
        for lam in range(4):
            trace = sum(ginv[i][j] * g1[i][j].derive(lam).value for i in range(3) for j in range(3))
            worst = max(worst, abs(sg1.derive(lam).value - 0.5 * sg * trace) / sg)
    return Check("background.volume", len(points), worst)


def _oracle_domega(bg, points, rng):
    """dOmega at each point and a velocity drawn as the suite draws it: the
    derivatives along x from order-1 jets, along v (Omega is at most
    quadratic in v) from central differences of step 1."""
    derivatives = []
    for x, v in zip(points, rng.uniform(-0.5, 0.5, (3, len(points))).T):
        b = bg.jets(x)
        om1 = b.omega_table(v, 1)
        dom = [[[om1[bb][c].derive(a).value for c in range(7)] for bb in range(7)] for a in range(4)]
        for k in range(3):
            vp, vm = v.copy(), v.copy()
            vp[k] += 1.0
            vm[k] -= 1.0
            wp = b.omega_table(vp, 0)
            wm = b.omega_table(vm, 0)
            dom.append([[0.5 * (wp[bb][c].value - wm[bb][c].value) for c in range(7)] for bb in range(7)])
        derivatives.append(dom)
    return Check("background.domega", len(points), _oracle_closure(derivatives))


def _oracle_closure(derivatives):
    """Worst |d_a w_bc - d_b w_ac + d_c w_ab| over a < b < c at each point,
    relative to max(1, the point's largest derivative), from the derivatives
    [axis][b][c] of a 2-form's table w at each point."""
    worst = 0.0
    for d in derivatives:
        n = len(d)
        res = 0.0
        for a in range(n):
            for bb in range(a + 1, n):
                for c in range(bb + 1, n):
                    res = max(res, abs(d[a][bb][c] - d[bb][a][c] + d[c][a][bb]))
        scale = max(1.0, max(abs(e) for plane in d for row in plane for e in row))
        worst = max(worst, res / scale)
    return worst


def _oracle_curvature(sc):
    rng = _rng_for(sc, "curvature")
    points = sc.sample_points(rng)
    bg = sc.background
    worst_rt = worst_slots = 0.0
    c = bg.constants
    charge, moment = c.q.value * c.u0.value / (2.0 * c.m.value), -c.mu.value * c.u0.value
    for x in points:
        b = bg.jets(x)
        rho = b.rho("moment", 0)
        frame = frame_curvature(b)
        for lam in range(4):
            for mu in range(4):
                pred = ad([rho[lam][mu][i].value for i in range(3)])
                for k in range(3):
                    for j in range(3):
                        worst_rt = max(worst_rt, abs(pred[k][j] - frame[lam, mu, k, j]))
        rho_c = b.rho("charge", 0)
        for lam in range(1, 4):
            for mu in range(1, 4):
                for k in range(3):
                    worst_slots = max(worst_slots, abs(rho[lam][mu][k].value - rho_c[lam][mu][k].value))
        rho_g = b.rho("grav", 0)
        for mu in range(4):
            for k in range(3):
                dm = rho[0][mu][k].value - rho_g[0][mu][k].value
                dc = rho_c[0][mu][k].value - rho_g[0][mu][k].value
                worst_slots = max(worst_slots, abs(charge * dm - moment * dc))
    return [Check(name, len(points), worst) for name, worst in (
        ("curvature.rtilde_relation", worst_rt), ("curvature.rho_coupling_slots", worst_slots))]


def _oracle_jacobi(sc):
    rng = _rng_for(sc, "jacobi")
    points = sc.sample_points(rng)
    consts = sc.background.constants.table()
    triples = [tuple(random_special_function(rng, consts, name=f"J{t}{i}") for i in range(3))
               for t in range(3)]
    worst = 0.0
    for x in points:
        for f1, f2, f3 in triples:
            worst = max(worst, jacobi_residual(f1, f2, f3, sc.background, x))
    return [Check("jacobi.residual", len(points), worst)]


def _oracle_isomorphism(sc):
    rng = _rng_for(sc, "isomorphism")
    points = sc.sample_points(rng)
    consts = sc.background.constants.table()
    qd = sc.qd
    ref = Observer.reference()
    pairs = [(random_special_function(rng, consts, name=f"I{t}a"),
              random_special_function(rng, consts, name=f"I{t}b")) for t in range(4)]
    worst_main = worst_herm = 0.0
    for x in points:
        for f, fp in pairs:
            worst_main = max(worst_main, *main_theorem_residual(f, fp, sc, x))
            worst_herm = max(worst_herm, hermiticity_residual(from_special(f, qd), qd, x))
    worst_round = worst_pair = 0.0
    p1 = random_raw_pair(rng, consts, "a")
    p2 = random_raw_pair(rng, consts, "b")
    for x in points:
        y_full = assemble_pair(qd, p1[0], p1[1], ref)
        y2_full = assemble_pair(qd, p2[0], p2[1], ref)
        back = vertical_projection(y_full, qd, ref, x)
        worst_round = max(worst_round, float(np.max(np.abs(back.values() - p1[1](x, 0).values()))))
        xb, zmat = lie_bracket_y(y_full, y2_full, x)
        xpair, mpair = pair_bracket(p1, p2, qd, ref, x)
        lift_vals = _lift_mat(qd, xb, ref, x, 0).values()
        worst_pair = max(worst_pair, float(np.max(np.abs((zmat.values() - lift_vals) - mpair.values()))))
        worst_pair = max(worst_pair, float(np.max(np.abs(
            np.array([j.value for j in xb]) - np.array([j.value for j in xpair])))))
    return [Check(name, len(points), worst) for name, worst in (
        ("isomorphism.main_theorem", worst_main), ("isomorphism.hj_roundtrip", worst_round),
        ("isomorphism.pair_bracket", worst_pair), ("isomorphism.eta_hermiticity", worst_herm))]


def _oracle_invariant_combination(f, qd, o, x):
    """invariant_combination from the independent float evaluator."""
    g = value_array(qd.bg.jets(x).metric(0))
    pref = qd.bg.constants.metric_prefactor
    vo = np.array([c(x) for c in o.components])
    a = [fld(x) for fld in qd.a_fields]
    ch0 = -0.5 * pref * float(vo @ g @ vo) + a[0]
    chi = pref * (g @ vo) + np.array(a[1:])
    fi = np.array([c(x) for c in f.fi])
    f_at_o = f.f0(x) * 0.5 * pref * float(vo @ g @ vo) + pref * float(fi @ g @ vo) + f.fbrev(x)
    return f.f0(x) * ch0 - float(fi @ chi) + f_at_o


def _oracle_potential(qd, observers, samples):
    worst = 0.0
    for x in samples:
        for o in observers:
            ch1 = ch_along_jets(qd, o, x, 1)
            phi = qd.bg.jets(x).phi_observer(o, 0)
            for lam in range(4):
                for mu in range(lam + 1, 4):
                    dch = ch1[mu].derive(lam).value - ch1[lam].derive(mu).value
                    worst = max(worst, abs(dch - phi[lam][mu].value))
    return worst


def _oracle_observer(sc):
    rng = _rng_for(sc, "observer")
    points = sc.sample_points(rng)
    consts = sc.background.constants.table()
    observers = [Observer.reference()]
    for t in range(5):
        coeffs = [(round(float(rng.uniform(-0.4, 0.4)), 6), round(float(rng.uniform(-0.3, 0.3)), 6))
                  for _ in range(3)]
        observers.append(Observer(tuple(FieldDef(f"o{t}{i}", DIMLESS, f"{c0} + {c1}*x{i + 1}", consts)
                                        for i, (c0, c1) in enumerate(coeffs))))
    funcs = [random_special_function(rng, consts, name=f"O{t}") for t in range(3)]
    worst = 0.0
    for x in points:
        for f in funcs:
            vals = [_oracle_invariant_combination(f, sc.qd, o, x) for o in observers]
            scale = max(1.0, max(abs(v) for v in vals))
            worst = max(worst, (max(vals) - min(vals)) / scale)
    return [Check("observer.invariant_combination", len(points), worst),
            Check("observer.potential_consistency", len(points), _oracle_potential(sc.qd, observers, points))]


_ORACLES = {"background": _oracle_background, "curvature": _oracle_curvature,
            "isomorphism": _oracle_isomorphism, "jacobi": _oracle_jacobi, "observer": _oracle_observer}


@pytest.mark.parametrize("samples", [4, 7])
def test_cloud_suites_report_what_the_point_loops_report(samples):
    sc = load_scenario(scenario_dict("curved_magnetic"))
    sc.samples = samples
    want = sorted((c for fn in _ORACLES.values() for c in fn(sc)), key=lambda c: c.name)
    got = run_suites(sc, list(_ORACLES))
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        if g.name == "observer.invariant_combination":
            # the float oracle rounds differently from the order-0 jets
            assert abs(g.max_residual - w.max_residual) <= 1e-15
            g = dataclasses.replace(g, max_residual=w.max_residual)
        assert g.to_json() == w.to_json()
    assert {c.samples for c in got if not c.name.endswith("_ratio")} == {samples}


def test_curvature_suite_reports_what_the_point_loop_reports_on_a_non_conformal_frame():
    """On the anisotropic fixture the curvature residuals are not exact zeros,
    so the suite's array route and the point loop agree on real values."""
    sc = load_scenario(scenario_dict("anisotropic"))
    sc.samples = 7
    got = run_suites(sc, ["curvature"])
    want = sorted(_oracle_curvature(sc), key=lambda c: c.name)
    assert [g.to_json() for g in got] == [w.to_json() for w in want]
    assert max(c.max_residual for c in got) > 0.0
