import json

import numpy as np
import pytest

from cqm.background import (
    Constants,
    NotPositiveDefinite,
    Observer,
    PhasePoint,
    as_point,
    divergence_eta_jets,
)
from cqm.fieldlang import FieldDef
from cqm.hermitian import potential_residual
from cqm.jets import SIZES, Jet, jet_sum, value_array
from cqm.pauli import EPS
from cqm.scenario import load_scenario
from cqm.units import (
    CHARGE_DIM,
    DIMLESS,
    HBAR_DIM,
    MASS,
    MOMENT_DIM,
    TIME,
    DimensionMismatch,
    ScaledReal,
)
from cqm.verify import _curvature_symmetry_residual, _df_residual, _metricity_residual, run_suites

from conftest import SCENARIO_DIR, sample_box, scenario_dict
from oracles import ad, cosymplectic_and_gamma, frame_curvature, omega_table_expanded, phi_observer_pullback


def numeric_christoffel(sc, point, i, lam, mu, h=1e-5):
    """Independent oracle for the slots the metric fixes: K^i_{lam mu} from
    central differences of the metric, with g_0x = 0 (so K^i_0j is
    1/2 g^ih d_0 g_hj); i spatial 0..2, lam and mu chart indices 0..3."""
    bg = sc.background

    def g4(pt):  # the metric padded with a zero time row and column
        b = bg.jets(pt)
        out = np.zeros((4, 4))
        out[1:, 1:] = [[b.metric(0)[r][c].value for c in range(3)] for r in range(3)]
        return out

    dg = np.zeros((4, 4, 4))  # dg[l][r][c] = d_l g_rc
    for l in range(4):
        pp, pm = np.array(point, dtype=float), np.array(point, dtype=float)
        pp[l] += h
        pm[l] -= h
        dg[l] = (g4(pp) - g4(pm)) / (2 * h)
    ginv = np.linalg.inv(g4(point)[1:, 1:])
    return 0.5 * sum(
        ginv[i, m - 1] * (dg[lam, m, mu] + dg[mu, m, lam] - dg[m, lam, mu]) for m in range(1, 4)
    )


def divergence_eta(x_fields, bg, where) -> float:
    """div_eta X at a point, from the bundle and the fields' order-1 jets."""
    b = bg.jets(where)
    return divergence_eta_jets([f.eval_jet(b.point, 1) for f in x_fields], b, 0).value


def test_flat_validation_zero(flat_scenario):
    b = flat_scenario.background.jets(np.array([(0, 0, 0, 0), (0.3, -0.2, 0.5, 0.1)]).T)
    assert all(r(b) == 0.0 for r in (_metricity_residual, _curvature_symmetry_residual, _df_residual))


def test_constant_f_is_closed(flat_magnetic_scenario):
    assert _df_residual(flat_magnetic_scenario.background.jets((0.1, 0.2, 0.3, 0.4))) == 0.0


def test_levi_civita_metricity(curved_magnetic_scenario):
    # hand-entered field-lang Christoffels of g = (1+0.1 x1^2) delta
    b = curved_magnetic_scenario.background.jets(np.array([(0.0, 0.4, -0.3, 0.2), (0.5, -0.6, 0.1, 0.8)]).T)
    assert _metricity_residual(b) < 1e-10
    assert _curvature_symmetry_residual(b) < 1e-10


def _hand_slots(x1) -> dict:
    """The Levi-Civita slots of g = (1 + 0.1 x1^2) delta as they were once
    entered by hand in scenarios/curved_magnetic.json, keyed (lam, i, mu)
    with i spatial 0..2, both orders of the lower pair."""
    w = 0.1 * x1 / (1 + 0.1 * x1 * x1)
    slots = {(1, 0, 1): w, (2, 0, 2): -w, (3, 0, 3): -w, (1, 1, 2): w, (1, 2, 3): w}
    return {**slots, **{(mu, i, lam): v for (lam, i, mu), v in slots.items()}}


@pytest.mark.parametrize("name", ["curved_magnetic", "anisotropic", "breathing"])
def test_derived_connection_matches_fd_oracle(name):
    """The bundle's K agrees with central differences of the metric in every
    slot; the breathing metric's time slots come from d_0 g."""
    sc = load_scenario(scenario_dict(name))
    pt = (0.3, 0.37, -0.21, 0.64)
    k = sc.background.jets(pt).kgrav(0)
    hand = _hand_slots(pt[1])
    for lam in range(4):
        for i in range(3):
            for mu in range(4):
                assert k[lam][i][mu].value == pytest.approx(numeric_christoffel(sc, pt, i, lam, mu), abs=1e-8)
                if name == "curved_magnetic":
                    assert k[lam][i][mu].value == pytest.approx(hand.get((lam, i, mu), 0.0), abs=1e-12)
    if name == "breathing":  # K^i_0i = 1/2 d_0 g_ii / g_ii
        assert [k[0][i][i + 1].value for i in range(3)] == pytest.approx([0.05 / (1 + 0.1 * pt[0])] * 3, abs=1e-12)


def test_breathing_metric_passes_the_point_suites_without_kgrav():
    """A time-dependent metric needs no hand-written slots: the five point
    suites pass on the breathing metric with no Kgrav section."""
    from cqm.verify import run_suites

    scn = scenario_dict("breathing")
    assert "Kgrav" not in scn
    checks = run_suites(load_scenario(scn), ["background", "curvature", "isomorphism", "jacobi", "observer"])
    assert [c.name for c in checks if not c.passed] == []
    assert len(checks) > 0


def test_joined_connection_reduces_without_f(flat_scenario):
    k = flat_scenario.background.jets((0.1, 0.2, 0.3, 0.4)).k_joined("charge", 0)
    assert all(
        k[lam][i][mu].value == 0.0 for lam in range(4) for i in range(3) for mu in range(4)
    )


def test_charge_coupling_formula(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    c = sc.background.constants
    k = sc.background.jets((0, 0, 0, 0)).k_joined("charge", 0)
    # K^1_{02} = (q/2m) u0 F^1_2 with F^1_2 = F_12 = b under the flat metric
    expect = c.q.value * c.u0.value / (2 * c.m.value) * 0.4
    assert k[0][0][2].value == pytest.approx(expect)
    assert k[2][0][0].value == pytest.approx(expect)
    assert k[0][1][1].value == pytest.approx(-expect)
    # purely spatial coefficients stay gravitational
    assert k[1][0][1].value == 0.0


def test_moment_vs_charge_slot_ratio(flat_magnetic_scenario):
    # slot couplings: charge q/2m, moment -mu u0 (sign from the convention
    # lock); with 2 mu = q/m numerically the magnitudes double... the ratio
    # of the antisymmetric 0jk parts equals (2 mu)/(q/m) up to the lock sign.
    sc = flat_magnetic_scenario
    c = sc.background.constants
    b = sc.background.jets((0, 0, 0, 0))
    kc = b.k_joined("charge", 0)
    km = b.k_joined("moment", 0)
    ratio = -(2 * c.mu.value) / (c.q.value / c.m.value)
    for i in range(3):
        for kk in range(3):
            assert km[0][i][kk + 1].value == pytest.approx(ratio * kc[0][i][kk + 1].value)


def test_orthonormal_frame_examples(flat_scenario, curved_magnetic_scenario):
    flat = flat_scenario.background.jets((0.2, 0.1, 0.5, -0.3))
    e = value_array(flat.frame(0)[0])
    assert np.allclose(e, np.eye(3))
    assert np.all(value_array(flat.ktilde("grav", 0)) == 0.0)
    pt = (0.0, 0.7, 0.1, -0.2)
    b = curved_magnetic_scenario.background.jets(pt)
    e2 = value_array(b.frame(0)[0])
    phi = 1 + 0.1 * 0.7 ** 2
    assert e2[0][0] == pytest.approx(phi ** -0.5)
    # defining property e^T g e = 1
    g = value_array(b.metric(0))
    assert np.max(np.abs(e2.T @ g @ e2 - np.eye(3))) < 1e-12


def test_ktilde_antisymmetry_random(curved_magnetic_scenario):
    rng = np.random.default_rng(8)
    bg = curved_magnetic_scenario.background
    for _ in range(6):
        pt = rng.uniform(-0.8, 0.8, 4)
        kt = bg.jets(pt).ktilde("moment", 0)
        for lam in range(4):
            m = np.array([[kt[lam][a][b].value for b in range(3)] for a in range(3)])
            assert np.max(np.abs(m + m.T)) < 1e-10


def test_rho_flat_zero_and_antisymmetric(flat_scenario, curved_magnetic_scenario):
    rho = value_array(flat_scenario.background.jets((0.1, 0.2, 0.3, 0.4)).rho("charge", 0))
    assert np.max(np.abs(rho)) == 0.0
    rho_c = value_array(curved_magnetic_scenario.background.jets((0.3, 0.5, -0.2, 0.1)).rho("moment", 0))
    assert np.max(np.abs(rho_c + np.swapaxes(rho_c, 0, 1))) == 0.0


@pytest.mark.parametrize("name", ["curved_magnetic", "anisotropic"])
def test_rho_matches_fd_curvature_oracle(name):
    """ad(rho) against the frame curvature of Ktilde from central differences
    of its values.  On the anisotropic frame E^-1 dE is not a multiple of 1,
    so every term of the cross-product route enters."""
    bg = load_scenario(scenario_dict(name)).background
    pt = np.array([0.1, 0.4, -0.3, 0.2])

    def ktilde_vals(p):
        return value_array(bg.jets(p).ktilde("moment", 0))  # [lam, a, b]

    h = 1e-5
    kt0 = ktilde_vals(pt)
    dkt = []  # dkt[nu] = d_nu Ktilde
    for nu in range(4):
        pp, pm = pt.copy(), pt.copy()
        pp[nu] += h
        pm[nu] -= h
        dkt.append((ktilde_vals(pp) - ktilde_vals(pm)) / (2 * h))
    rho = value_array(bg.jets(pt).rho("moment", 0))
    worst = 0.0
    for lam in range(4):
        for mu in range(4):
            expected = -dkt[lam][mu] + dkt[mu][lam] + kt0[lam] @ kt0[mu] - kt0[mu] @ kt0[lam]
            assert np.max(np.abs(expected - np.array(ad(rho[lam, mu])))) < 1e-7
            worst = max(worst, float(np.max(np.abs(expected))))
    assert worst > 1e-2  # genuinely curved data


def test_cosymplectic_flat_blocks(flat_scenario):
    bg = flat_scenario.background
    om, gamma = cosymplectic_and_gamma(bg, PhasePoint((0, 0, 0, 0), (0, 0, 0)))
    c = bg.constants.metric_prefactor
    assert np.allclose(om[4:, 1:4], c * np.eye(3))
    assert np.allclose(gamma, 0.0)
    assert np.max(np.abs(om + om.T)) == 0.0


def test_gamma_lorentz_force(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    c = sc.background.constants
    v = np.array([0.3, -0.2, 0.5])
    _, gamma = cosymplectic_and_gamma(sc.background, PhasePoint((0, 0, 0, 0), v))
    # gamma^i = (q/m) u0 (F^i_0 + F^i_j v^j), raised with the flat metric
    f = np.zeros((4, 4))
    f[1, 2], f[2, 1] = 0.4, -0.4
    coef = c.q.value * c.u0.value / c.m.value
    expect = coef * np.array([sum(f[i + 1, j + 1] * v[j] for j in range(3)) for i in range(3)])
    assert np.allclose(gamma, expect)


def test_domega_closed_fd(curved_magnetic_scenario):
    bg = curved_magnetic_scenario.background

    def omega_at(z):
        om, _ = cosymplectic_and_gamma(bg, PhasePoint(z[:4], z[4:]))
        return om

    z0 = np.array([0.1, 0.3, -0.2, 0.4, 0.15, -0.25, 0.1])

    def residual(h):
        dom = np.zeros((7, 7, 7))
        for a in range(7):
            zp, zm = z0.copy(), z0.copy()
            zp[a] += h
            zm[a] -= h
            dom[a] = (omega_at(zp) - omega_at(zm)) / (2 * h)
        worst = 0.0
        for a in range(7):
            for b in range(a + 1, 7):
                for c in range(b + 1, 7):
                    worst = max(worst, abs(dom[a][b, c] - dom[b][a, c] + dom[c][a, b]))
        return worst

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 < 1e-9 or r2 < r1 / 3.5


def _background_checks(scn: dict) -> dict:
    """The background suite's checks on 10 samples of the scenario `scn`, by
    name."""
    from cqm.verify import run_suites

    sc = load_scenario(scn)
    sc.samples = 10
    return {c.name: c for c in run_suites(sc, ["background"])}


def _shipped(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("slot, closed", [("0.3*x2", False), ("0.3*x1", True)])
def test_exact_closures_see_a_time_slot_that_is_not_closed(slot, closed):
    """K^1_00 enters Omega_K as -g_11 K^1_00 dx^0 ^ dx^1.  The slot 0.3 x2 is
    not closed: d_2 of that entry is -0.3, so dOmega reads 0.3 while F, and
    so background.dF, is untouched.  The gradient slot 0.3 x1 is closed."""
    checks = _background_checks({**_shipped("flat"), "Kgrav": {"1_00": slot}})
    assert checks["background.dF"].max_residual == 0.0
    domega = checks["background.domega"]
    if closed:
        assert domega.max_residual <= 1e-12 and domega.passed
    else:
        assert domega.max_residual == pytest.approx(0.3, rel=1e-12)
        assert not domega.passed


def test_exact_closures_see_an_electromagnetic_field_that_is_not_closed():
    checks = _background_checks({**_shipped("flat_magnetic"), "F": {"12": "0.4*x3"}})
    for name in ("background.domega", "background.dF"):
        assert checks[name].max_residual == pytest.approx(0.4, rel=1e-12)
        assert not checks[name].passed


@pytest.mark.parametrize("scn", [
    scenario_dict("anisotropic"),
    scenario_dict("breathing"),
    {**_shipped("flat"), "metric": [["1e10", "0", "0"], ["0", "1e10", "0"], ["0", "0", "1e10"]]},
    {**_shipped("flat_magnetic"), "metric": [["1e-10", "0", "0"], ["0", "1e-10", "0"], ["0", "0", "1e-10"]]},
    {**scenario_dict("curved_magnetic"), "metric": [
        ["1e10*(1+0.1*x1*x1)", "0", "0"], ["0", "1e10*(1+0.1*x1*x1)", "0"], ["0", "0", "1e10*(1+0.1*x1*x1)"]]},
], ids=["anisotropic", "breathing", "flat_1e10", "flat_magnetic_1e-10", "curved_1e10"])
def test_exact_closures_hold_on_closed_data_at_any_scale(scn):
    """The closure residuals are relative to the largest derivative, so a
    metric of 1e10 passes as a metric of 1 does."""
    domega = _background_checks(scn)["background.domega"]
    assert domega.max_residual <= 1e-12 and domega.passed


def test_observer_phi_examples(flat_scenario, flat_magnetic_scenario):
    ref = Observer.reference()
    phi = flat_scenario.background.jets((0.1, 0.2, 0.3, 0.4)).phi_observer(ref, 0)
    assert all(phi[a][b].value == 0.0 for a in range(4) for b in range(4))
    sc = flat_magnetic_scenario
    phi2 = sc.background.jets((0.3, -0.1, 0.2, 0.5)).phi_observer(ref, 0)
    c = sc.background.constants
    expect = c.q.value / c.hbar.value * 0.4
    assert phi2[1][2].value == pytest.approx(expect)
    assert phi2[2][1].value == pytest.approx(-expect)
    assert phi2[0][1].value == 0.0


_ORACLE_SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) + ["anisotropic", "breathing"]

# constant, linear and time-dependent observer sections
_ORACLE_OBSERVERS = {
    "reference": None,
    "drift": ("0.2", "-0.1", "0.15"),
    "shear": ("0.1*x2", "-0.05*x1", "0.08*x3"),
    "swirl": ("0.1*x2", "-0.1*x1", "0.05+0.02*x0*x3"),
}


def _oracle_scenario(name):
    return load_scenario(_shipped(name) if (SCENARIO_DIR / f"{name}.json").exists() else scenario_dict(name))


def _table_coeffs(table, n):
    """The coefficient arrays of a table of jets, each broadcast to n points."""
    return np.array([[np.broadcast_to(w.c, (n, w.c.shape[-1])) for w in row] for row in table])


def _assert_tables_match(table, oracle, n):
    """Equal to roundoff: within 1e-15 of max(1, the oracle's largest
    coefficient), as the closure residuals are scaled."""
    got, want = _table_coeffs(table, n), _table_coeffs(oracle, n)
    assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", _ORACLE_SCENARIOS)
@pytest.mark.parametrize("order", [0, 1])
def test_omega_table_matches_the_term_by_term_expansion(name, order):
    """Omega = Phi[reference] + d Theta against the term-by-term expansion
    of each (d_lam g_ij) v^j product, on a cloud of phase points."""
    sc = _oracle_scenario(name)
    rng = np.random.default_rng(31)
    n = 12
    b = sc.background.jets(sample_box(rng, n).T)
    v = rng.uniform(-0.5, 0.5, (3, n))
    oracle = omega_table_expanded(b, [Jet.const(vk, order + 1) for vk in v], order)
    _assert_tables_match(b.omega_table(v, order), oracle, n)


@pytest.mark.parametrize("name", _ORACLE_SCENARIOS)
@pytest.mark.parametrize("observer", list(_ORACLE_OBSERVERS))
def test_phi_observer_matches_the_chain_rule_pullback(name, observer):
    """Phi[o] = Phi[reference] + d theta[o] against the pullback of the
    expanded table along the section, d o^k by the chain rule."""
    sc = _oracle_scenario(name)
    comps = _ORACLE_OBSERVERS[observer]
    o = Observer.reference() if comps is None else Observer(
        tuple(FieldDef(f"o{i + 1}", DIMLESS, e) for i, e in enumerate(comps)))
    rng = np.random.default_rng(32)
    n = 12
    b = sc.background.jets(sample_box(rng, n).T)
    for order in (0, 1):
        _assert_tables_match(b.phi_observer(o, order), phi_observer_pullback(b, o, order), n)


@pytest.mark.parametrize("name", ["curved_electric", "anisotropic"])
def test_phi_observer_at_the_reference_observer_is_phi_ref(name):
    """d theta vanishes at v = 0, so the reference pullback is Phi[ref]
    itself, with no branch for it."""
    sc = _oracle_scenario(name)
    for where, points in (((0.1, -0.3, 0.2, 0.4), 1), (sample_box(np.random.default_rng(33), 5).T, 5)):
        b = sc.background.jets(where)
        for n in (0, 1):
            phi, ref = b.phi_observer(Observer.reference(), n), b.phi_ref(n)
            assert np.array_equal(_table_coeffs(phi, points), _table_coeffs(ref, points))


def test_phi_equals_dch_for_observers(curved_magnetic_scenario):
    """Phi[o] = d(Ch[o]) for any observer when dA = Phi[reference]; ties the
    cosymplectic table to the quantum-connection components."""
    from cqm.hermitian import ch_along_jets

    sc = curved_magnetic_scenario
    rng = np.random.default_rng(9)
    for name in ("reference", "drift", "shear"):
        o = sc.observers[name]
        for _ in range(3):
            pt = rng.uniform(-0.7, 0.7, 4)
            phi = sc.background.jets(pt).phi_observer(o, 0)
            ch = ch_along_jets(sc.qd, o, pt, 1)
            for lam in range(4):
                for mu in range(4):
                    dch = ch[mu].derive(lam).value - ch[lam].derive(mu).value
                    assert phi[lam][mu].value == pytest.approx(dch, abs=1e-11)


def test_dphi_closed_fd(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    o = sc.observers["shear"]
    bg = sc.background

    def phi_at(x):
        p = bg.jets(x).phi_observer(o, 0)
        return np.array([[p[a][b].value for b in range(4)] for a in range(4)])

    x0 = np.array([0.1, 0.3, -0.2, 0.4])

    def residual(h):
        d = np.zeros((4, 4, 4))
        for a in range(4):
            xp, xm = x0.copy(), x0.copy()
            xp[a] += h
            xm[a] -= h
            d[a] = (phi_at(xp) - phi_at(xm)) / (2 * h)
        worst = 0.0
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(b + 1, 4):
                    worst = max(worst, abs(d[a][b, c] - d[b][a, c] + d[c][a, b]))
        return worst

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 < 1e-9 or r2 < r1 / 3.5


def test_free_gravitational_phi_part():
    """The metric leaves the antisymmetric K_{0jk} free; it shows up as a
    closed gravitational Phi-part, and with a matching potential the whole
    correspondence still holds."""
    from cqm.verify import main_theorem_residual, random_special_function

    scn = scenario_dict("flat")
    scn["Kgrav"] = {"1_02": "0.3", "2_01": "-0.3"}
    sc = load_scenario(scn)
    assert _metricity_residual(sc.background.jets((0.1, 0.2, 0.3, 0.4))) == 0.0
    from cqm.background import Observer

    phi = sc.background.jets((0, 0, 0, 0)).phi_observer(Observer.reference(), 0)
    c = sc.background.constants.metric_prefactor
    assert phi[1][2].value == pytest.approx(0.6 * c)
    # pick A with dA = Phi[ref] and check the main theorem end to end
    scn["A"] = ["0", "0", f"{0.6 * c}*x1", "0"]
    sc2 = load_scenario(scn)
    cloud = np.array([(0, 0, 0, 0), (0.3, 0.2, 0.1, 0.5)]).T
    assert np.max(potential_residual(sc2.qd, Observer.reference(), cloud)) < 1e-14
    rng = np.random.default_rng(44)
    consts = sc2.background.constants.table()
    f = random_special_function(rng, consts)
    fp = random_special_function(rng, consts)
    vec_res, mat_res = main_theorem_residual(f, fp, sc2, (0.2, 0.4, -0.3, 0.1))
    assert max(vec_res, mat_res) < 1e-12
    # and the cosymplectic table stays closed
    def omega_at(z):
        om, _ = cosymplectic_and_gamma(sc2.background, PhasePoint(z[:4], z[4:]))
        return om

    z0 = np.array([0.1, 0.3, -0.2, 0.4, 0.15, -0.25, 0.1])
    h = 1e-3
    dom = np.zeros((7, 7, 7))
    for a in range(7):
        zp, zm = z0.copy(), z0.copy()
        zp[a] += h
        zm[a] -= h
        dom[a] = (omega_at(zp) - omega_at(zm)) / (2 * h)
    worst = max(
        abs(dom[a][b, c] - dom[b][a, c] + dom[c][a, b])
        for a in range(7) for b in range(a + 1, 7) for c in range(b + 1, 7)
    )
    assert worst < 1e-9


def test_magnetic_field_examples(flat_scenario, flat_magnetic_scenario):
    b0 = flat_scenario.background.magnetic_field((0, 0, 0, 0))
    assert all(s.value == 0.0 for s in b0)
    b1 = flat_magnetic_scenario.background.magnetic_field((0.1, 0.2, 0.3, 0.4))
    assert [s.value for s in b1] == pytest.approx([0.0, 0.0, 0.4])
    assert str(b1[2].dim) == "L^-3/2*M^1/2"


def test_magnetic_magnitude_rotation_invariant():
    # relabel the chart axes by the rotation (x1,x2,x3) -> (x2,x3,x1): the
    # uniform F moves to the 23-slot; |B| is unchanged
    scn = scenario_dict("flat_magnetic")
    scn["F"] = {"23": "b"}
    scn["A"] = ["0", "0", "0", "q*b/hbar*x2"]
    rot = load_scenario(scn)
    base = load_scenario(scenario_dict("flat_magnetic"))
    nb = np.linalg.norm([s.value for s in base.background.magnetic_field((0, 0, 0, 0))])
    nr = np.linalg.norm([s.value for s in rot.background.magnetic_field((0, 0, 0, 0))])
    assert nb == pytest.approx(nr)


@pytest.mark.parametrize("name", ["curved_magnetic", "anisotropic", "breathing"])
def test_one_cholesky_factor_gives_the_inverse_and_the_volume(name):
    """g^-1 and sqrt|g| both come from the frame's Cholesky factor: to order
    2, every jet slot of g_ij g^jk is delta_i^k up to roundoff of the terms,
    (sqrt|g|)^2 is np.linalg.det of the metric values, and the values of
    g^-1 are exactly symmetric."""
    n = 60
    b = load_scenario(scenario_dict(name)).background.jets(sample_box(np.random.default_rng(7), n).T)
    g, ginv = b.metric(2), b.metric_inv(2)
    for i in range(3):
        for k in range(3):
            residual = jet_sum(g[i][j] * ginv[j][k] for j in range(3)) - float(i == k)
            scale = max(np.max(np.abs(g[i][j].c)) * np.max(np.abs(ginv[j][k].c)) for j in range(3))
            assert np.max(np.abs(residual.c)) <= 1e-14 * scale
    sqrtg = value_array(b.sqrt_det(2), (n,))
    det = np.linalg.det(np.moveaxis(value_array(b.metric(0), (n,)), -1, 0))
    assert np.max(np.abs(sqrtg * sqrtg / det - 1.0)) <= 4e-15
    values = value_array(ginv, (n,))
    assert np.array_equal(values, values.swapaxes(0, 1))


def test_not_positive_definite():
    scn = scenario_dict("flat")
    scn["metric"] = [["1-x1*x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    sc = load_scenario(scn)
    with pytest.raises(NotPositiveDefinite):
        sc.background.jets((0.0, 2.0, 0.0, 0.0)).frame(0)


def test_divergence_examples(flat_scenario, curved_magnetic_scenario):
    consts = flat_scenario.background.constants.table()
    const_x = [FieldDef(f"x{l}", DIMLESS, "0.7", consts) for l in range(4)]
    assert divergence_eta(const_x, flat_scenario.background, (0, 0, 0, 0)) == 0.0
    lin = [FieldDef("z", DIMLESS, "0", consts), FieldDef("x", DIMLESS, "x1", consts),
           FieldDef("z2", DIMLESS, "0", consts), FieldDef("z3", DIMLESS, "0", consts)]
    assert divergence_eta(lin, flat_scenario.background, (0.3, 0.5, 0.2, 0.1)) == pytest.approx(1.0)
    # curved: FD oracle on sqrt|g|
    bg = curved_magnetic_scenario.background
    pt = np.array([0.1, 0.4, -0.2, 0.3])

    def sqrtg(p):
        return bg.jets(p).sqrt_det(0).value

    h = 1e-5
    pp, pm = pt.copy(), pt.copy()
    pp[1] += h
    pm[1] -= h
    expect = (sqrtg(pp) - sqrtg(pm)) / (2 * h) * 0.7 / sqrtg(pt)
    cfields = [FieldDef("z", DIMLESS, "0", consts)] + [
        FieldDef(f"c{i}", DIMLESS, "0.7" if i == 0 else "0", consts) for i in range(3)
    ]
    assert divergence_eta(cfields, bg, pt) == pytest.approx(expect, abs=1e-9)


def test_constants_dimension_check():
    with pytest.raises(DimensionMismatch):
        Constants(
            m=ScaledReal(1.0, DIMLESS),
            q=ScaledReal(1.0, DIMLESS),
            hbar=ScaledReal(1.0, DIMLESS),
            mu=ScaledReal(1.0, DIMLESS),
            u0=ScaledReal(1.0, DIMLESS),
        )
    Constants(
        m=ScaledReal(1.0, MASS),
        q=ScaledReal(1.0, CHARGE_DIM),
        hbar=ScaledReal(1.0, HBAR_DIM),
        mu=ScaledReal(1.0, MOMENT_DIM),
        u0=ScaledReal(1.0, TIME),
    )


def test_anisotropic_metric_full_stack():
    """Off-diagonal metric with derived Levi-Civita slots: metricity, frame
    orthonormality, the curvature identity and the main theorem all hold."""
    from cqm.verify import main_theorem_residual, random_special_function
    from cqm.special import jacobi_residual

    sc = load_scenario(scenario_dict("anisotropic"))
    rng = np.random.default_rng(55)
    pts = rng.uniform(-0.7, 0.7, (4, 4))
    b = sc.background.jets(pts.T)
    assert _metricity_residual(b) < 1e-12
    assert _curvature_symmetry_residual(b) < 1e-12
    assert _df_residual(b) < 1e-14
    for pt in pts:
        b = sc.background.jets(pt)
        e, _ = b.frame(0)
        g = np.array([[b.metric(0)[i][j].value for j in range(3)] for i in range(3)])
        emat = np.array([[e[i][a].value for a in range(3)] for i in range(3)])
        assert np.max(np.abs(emat.T @ g @ emat - np.eye(3))) < 1e-12
        rho = value_array(b.rho("moment", 0))
        ad_rho = np.array([[ad(rho[lam, mu]) for mu in range(4)] for lam in range(4)])
        assert np.max(np.abs(ad_rho - frame_curvature(b))) < 1e-10
    assert np.max(np.abs(rho)) > 1e-3  # genuinely curved data
    consts = sc.background.constants.table()
    f = random_special_function(rng, consts)
    fp = random_special_function(rng, consts)
    f3 = random_special_function(rng, consts)
    for pt in pts[:2]:
        vec_res, mat_res = main_theorem_residual(f, fp, sc, pt)
        assert max(vec_res, mat_res) < 1e-10
        assert jacobi_residual(f, fp, f3, sc.background, pt) < 1e-10


def test_jets_returns_a_bundle_of_its_own_background(flat_scenario, curved_magnetic_scenario):
    bg = curved_magnetic_scenario.background
    cloud = sample_box(np.random.default_rng(5), 3).T
    b = bg.jets(cloud)
    assert bg.jets(b) is b
    assert np.array_equal(as_point(b), cloud)
    with pytest.raises(ValueError, match="another background"):
        flat_scenario.background.jets(b)
    cloud[1, 2] = np.nan  # the message names the first bad point, not the cloud
    with pytest.raises(ValueError, match=r"^non-finite evaluation point \[[^]]*nan[^]]*\]$"):
        as_point(cloud)


def test_structural_zeros_of_a_cloud_bundle_stay_points(curved_magnetic_scenario):
    """On a cloud, the entries of g^-1 and K that vanish for a diagonal
    metric (the off-diagonal entries of g^-1 and the slots they multiply)
    are point-shaped zeros, not clouds of zeros."""
    b = curved_magnetic_scenario.background.jets(sample_box(np.random.default_rng(6), 100).T)
    entries = [j for row in b.metric_inv(1) for j in row]
    entries += [j for lam in b.kgrav(1) for row in lam for j in row]
    zeros = [j for j in entries if not j.c.any()]
    assert len(zeros) == 6 + 41  # 6 of g^-1; the 48 slots of K but 7 Levi-Civita ones
    assert all(j.c.shape == (5,) for j in zeros)
    assert all(j.c.shape == (100, 5) for j in entries if j.c.any())


def _magnetic_by_eps_loop(bundle, order):
    """B^a = 1/2 eps_abc Fcheck_bc with Fcheck_ab = F_ij e_a^i e_b^j, as the
    explicit epsilon loop over jets."""
    f = bundle.f_jets(order)
    e, _ = bundle.frame(order)
    fcheck = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            acc = None
            for i in range(3):
                for j in range(3):
                    term = f[i + 1][j + 1] * e[i][a] * e[j][b]
                    acc = term if acc is None else acc + term
            fcheck[a][b] = acc
    out = []
    for a in range(3):
        acc = None
        for b in range(3):
            for c in range(3):
                if EPS[a, b, c] != 0.0:
                    term = fcheck[b][c] * (0.5 * EPS[a, b, c])
                    acc = term if acc is None else acc + term
        out.append(acc)
    return out


def test_magnetic_matches_the_epsilon_loop_bit_for_bit():
    scn = scenario_dict("anisotropic")
    scn["F"].update({"13": "b*0.2*x2", "23": "b*(0.1+0.3*x3)"})
    sc = load_scenario(scn)
    for order in (0, 1):
        bundle = sc.background.jets(np.random.default_rng(15).uniform(-0.8, 0.8, (4, 6)))
        want = _magnetic_by_eps_loop(bundle, order)
        got = bundle.magnetic(order)
        assert all(np.max(np.abs(w.c)) > 1e-3 for w in want)
        for g, w in zip(got, want):
            assert np.array_equal(g.c, w.c)


def _jet_leaves(entry):
    """The jets of a jet or of nested lists and tuples of jets, in order."""
    if isinstance(entry, (list, tuple)):
        return [j for e in entry for j in _jet_leaves(e)]
    return [entry]


def test_constant_background_bundles_share_one_cache():
    """On flat_magnetic, after every suite has run, bundles on two different
    clouds return the same spin connection object, and every entry of the
    cache they share is point-shaped, so it holds on any cloud."""
    sc = load_scenario(SCENARIO_DIR / "flat_magnetic.json")
    run_suites(sc)
    rng = np.random.default_rng(4)
    a, b = sc.background.jets(rng.uniform(-1, 1, (4, 5))), sc.background.jets(rng.uniform(-1, 1, (4, 9)))
    assert a.spin("moment", 0) is b.spin("moment", 0)
    leaves = [j for entry in a._cache.values() for j in _jet_leaves(entry)]
    assert len(a._cache) > 10 and ("rho", "moment", 0) in a._cache
    assert all(j.c.shape == (SIZES[j.order],) for j in leaves)


def test_curved_background_bundles_do_not_share_a_cache(curved_magnetic_scenario):
    bg = curved_magnetic_scenario.background
    a, b = bg.jets(np.zeros((4, 3))), bg.jets(np.zeros((4, 3)))
    spin = a.spin("moment", 0)
    assert a._cache is not b._cache and ("spin", "moment", 0) not in b._cache
    assert b.spin("moment", 0) is not spin


@pytest.mark.parametrize("name", ["curved_magnetic", "anisotropic"])
@pytest.mark.parametrize("npoints", [None, 20])
def test_lower_orders_are_truncations_of_cached_entries(name, npoints):
    """After rho at order 0, which builds Ktilde at order 1 and the frame at
    order 2, Ktilde, the frame and the metric at order 0 are truncations of
    those entries: reading them runs no builder, and each equals the entry
    of a fresh bundle bit for bit."""
    bg = load_scenario(scenario_dict(name)).background
    pts = sample_box(np.random.default_rng(21), npoints or 1)
    where = pts.T if npoints else pts[0]
    bundle = bg.jets(where)
    bundle.rho("moment", 0)
    built = []
    get = bundle._get

    def recording(key, builder):
        return get(key, lambda: built.append(key) or builder())

    bundle._get = recording
    reads = {"ktilde": lambda b: b.ktilde("moment", 0), "frame": lambda b: b.frame(0),
             "metric": lambda b: b.metric(0)}
    got = {what: read(bundle) for what, read in reads.items()}
    assert built == []
    for what, read in reads.items():
        want = read(bg.jets(where))
        pairs = list(zip(_jet_leaves(got[what]), _jet_leaves(want), strict=True))
        assert pairs and all(a.order == b.order == 0 for a, b in pairs), what
        assert all(a.c.shape == b.c.shape and a.c.tobytes() == b.c.tobytes() for a, b in pairs), what
