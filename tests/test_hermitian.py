import warnings

import numpy as np
import pytest

from cqm.background import Observer, divergence_eta_jets
from cqm.fieldlang import FieldDef, zero_field
from cqm.hermitian import (
    HermitianField,
    Mat2,
    NotHermitian,
    SpinorSection,
    ch_along_jets,
    connection_lift,
    from_special,
    hermiticity_residual,
    invariant_combination,
    lie_bracket_y,
    pair_bracket,
    potential_residual,
    to_special,
    vertical_projection,
    y_coefficients,
)
from cqm.jets import Jet, value_array
from cqm.pauli import XI
from cqm.quantum import GridGeometry, GridSpec
from cqm.special import component_jets
from cqm.units import DIMLESS
from cqm.verify import assemble_pair, main_theorem_residual, random_raw_pair, random_special_function

from cqm.scenario import load_scenario

from conftest import make_special, sample_box, scenario_dict
from oracles import act_on_section, hermitian_raw, mat2_constant, x_values


def spinor(consts, exprs):
    return SpinorSection(tuple(
        (FieldDef(f"re{a}", DIMLESS, exprs[a][0], consts), FieldDef(f"im{a}", DIMLESS, exprs[a][1], consts))
        for a in range(2)
    ))


def vertical_const_field(consts, y0, yi):
    return hermitian_raw(
        tuple(zero_field() for _ in range(4)),
        FieldDef("y0", DIMLESS, y0, consts),
        tuple(FieldDef(f"y{a}", DIMLESS, yi[a], consts) for a in range(3)),
    )


def test_mat2_commutator_is_the_matrix_commutator(curved_magnetic_scenario):
    """The cross product of the xi_a coefficients is the commutator of the
    matrices, on a cloud of fields with an identity part."""
    sc = curved_magnetic_scenario
    cloud = sample_box(np.random.default_rng(38), 7).T
    rng = np.random.default_rng(39)
    consts = sc.background.constants.table()

    def random_mat2(tag):
        pair = random_raw_pair(rng, consts, tag)
        shift = FieldDef(f"s{tag}", DIMLESS, "0.3*x1 - 0.2*x0*x2", consts)
        # an identity shift w, xi_0 and xi_a parts, as from_special gives
        return pair[1](cloud, 1).add_identity(shift.eval_jet(cloud, 1))

    m1, m2 = random_mat2("a"), random_mat2("b")
    a = np.moveaxis(m1.values((7,)), -1, 0)
    b = np.moveaxis(m2.values((7,)), -1, 0)
    got = np.moveaxis(m1.commutator(m2).values((7,)), -1, 0)
    want = a @ b - b @ a
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_mat2_constant_round_trips_a_complex_matrix():
    """M = w 1 + (anti-Hermitian), the matrices a Mat2 holds."""
    rng = np.random.default_rng(40)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = rng.standard_normal() * np.eye(2) + (a - a.conj().T)
        got = mat2_constant(m, 2).values()
        assert np.max(np.abs(got - m)) <= 1e-15 * np.max(np.abs(m))


def test_act_vertical_identity(flat_scenario):
    consts = flat_scenario.background.constants.table()
    y = vertical_const_field(consts, "1", ("0", "0", "0"))  # Ymat = i 1
    psi = spinor(consts, [("1", "0"), ("0", "0")])
    out = act_on_section(y, psi, (0, 0, 0, 0))
    assert out[0] == pytest.approx(-1j)
    assert out[1] == 0.0


def test_act_translation(flat_scenario):
    consts = flat_scenario.background.constants.table()
    x_fields = (zero_field(), FieldDef("one", DIMLESS, "1", consts), zero_field(), zero_field())
    y = hermitian_raw(x_fields, zero_field(), tuple(zero_field() for _ in range(3)))
    psi = spinor(consts, [("x1", "0"), ("0", "0")])
    out = act_on_section(y, psi, (0.3, 0.7, 0.1, 0.2))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == 0.0


def test_act_matches_fd_oracle(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    x_fields = tuple(FieldDef(f"x{l}", DIMLESS, e, consts)
                     for l, e in enumerate(("0.2*x1", "x2", "0.4", "x0")))
    y = hermitian_raw(x_fields, FieldDef("y0", DIMLESS, "x1*x2", consts),
                      tuple(FieldDef(f"y{a}", DIMLESS, e, consts) for a, e in enumerate(("x3", "0.3", "x1"))))
    psi = spinor(consts, [("sin(x1)", "x2*x3"), ("cos(x0)", "0.2*x1")])
    pt = np.array([0.2, 0.4, -0.3, 0.5])
    out = act_on_section(y, psi, pt)
    h = 1e-6

    def psi_vals(p):
        return np.array([complex(re(p), im(p)) for re, im in psi.components])

    deriv_part = np.zeros(2, dtype=complex)
    xv = x_values(y, pt)
    for lam in range(4):
        pp, pm = pt.copy(), pt.copy()
        pp[lam] += h
        pm[lam] -= h
        deriv_part += xv[lam] * (psi_vals(pp) - psi_vals(pm)) / (2 * h)
    mat = y.ymat(pt, 0).values()
    expected = deriv_part - mat @ psi_vals(pt)
    assert np.allclose(out, expected, atol=1e-8)


def test_act_leibniz(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    x_fields = tuple(FieldDef(f"x{l}", DIMLESS, e, consts)
                     for l, e in enumerate(("0.5", "x2", "x3", "0.1*x1")))
    y = hermitian_raw(x_fields, FieldDef("y0", DIMLESS, "x3", consts),
                      tuple(FieldDef(f"y{a}", DIMLESS, e, consts) for a, e in enumerate(("0.2", "x1", "0"))))
    f_scal = FieldDef("f", DIMLESS, "1 + 0.3*x1*x2", consts)
    psi = spinor(consts, [("x2", "0.1"), ("x1*x3", "x0")])
    fpsi = spinor(consts, [(f"(1 + 0.3*x1*x2)*(x2)", f"(1 + 0.3*x1*x2)*(0.1)"),
                           (f"(1 + 0.3*x1*x2)*(x1*x3)", f"(1 + 0.3*x1*x2)*(x0)")])
    pt = np.array([0.1, 0.3, 0.4, -0.2])
    lhs = act_on_section(y, fpsi, pt)
    xf = sum(x_values(y, pt)[lam] * f_scal.eval_jet(pt, 1).derive(lam).value for lam in range(4))
    rhs = xf * np.array([complex(re(pt), im(pt)) for re, im in psi.components])
    rhs = rhs + f_scal(pt) * act_on_section(y, psi, pt)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_lie_bracket_vertical_constants(flat_scenario):
    consts = flat_scenario.background.constants.table()
    y = vertical_const_field(consts, "0.3", ("0.1", "-0.2", "0.4"))
    yp = vertical_const_field(consts, "-0.1", ("0.5", "0.2", "0.1"))
    _, z = lie_bracket_y(y, yp, (0.1, 0.2, 0.3, 0.4))
    m1 = y.ymat((0.1, 0.2, 0.3, 0.4), 0).values()
    m2 = yp.ymat((0.1, 0.2, 0.3, 0.4), 0).values()
    assert np.allclose(z.values(), m2 @ m1 - m1 @ m2, atol=1e-15)


def test_lie_bracket_self_zero(curved_magnetic_scenario):
    consts = curved_magnetic_scenario.background.constants.table()
    x_fields = tuple(FieldDef(f"x{l}", DIMLESS, e, consts)
                     for l, e in enumerate(("x1", "0.3", "x2*x3", "0")))
    y = hermitian_raw(x_fields, FieldDef("y0", DIMLESS, "x2", consts),
                      tuple(FieldDef(f"y{a}", DIMLESS, "0.2*x1", consts) for a in range(3)))
    xb, z = lie_bracket_y(y, y, (0.2, 0.1, 0.4, -0.3))
    assert np.max(np.abs([j.value for j in xb])) == 0.0
    assert np.max(np.abs(z.values())) == 0.0


def test_hermitian_closure_of_bracket(curved_magnetic_scenario):
    # bracket of plain-Hermitian fields has anti-Hermitian matrix part
    rng = np.random.default_rng(31)
    consts = curved_magnetic_scenario.background.constants.table()
    for _ in range(4):
        p1 = random_raw_pair(rng, consts, "a")
        p2 = random_raw_pair(rng, consts, "b")
        qd = curved_magnetic_scenario.qd
        ref = Observer.reference()
        y1 = assemble_pair(qd, p1[0], p1[1], ref)
        y2 = assemble_pair(qd, p2[0], p2[1], ref)
        pt = rng.uniform(-0.7, 0.7, 4)
        _, z = lie_bracket_y(y1, y2, pt)
        m = z.values()
        assert np.max(np.abs(m + m.conj().T)) < 1e-11


def test_lift_of_zero_and_flat(flat_scenario):
    qd = flat_scenario.qd
    ref = Observer.reference()
    zero_x = tuple(zero_field() for _ in range(4))
    y = connection_lift(qd, zero_x, ref)
    assert np.max(np.abs(y.ymat((0.3, 0.2, 0.1, 0.4), 0).values())) == 0.0
    # flat bg, A = 0, C = 0, X = d0: matrix part vanishes
    consts = flat_scenario.background.constants.table()
    x_fields = (FieldDef("one", DIMLESS, "1", consts),) + tuple(zero_field() for _ in range(3))
    y2 = connection_lift(qd, x_fields, ref)
    assert np.max(np.abs(y2.ymat((0.3, 0.2, 0.1, 0.4), 0).values())) == 0.0


def test_lift_is_plain_hermitian(curved_magnetic_scenario):
    qd = curved_magnetic_scenario.qd
    consts = curved_magnetic_scenario.background.constants.table()
    x_fields = tuple(FieldDef(f"x{l}", DIMLESS, e, consts)
                     for l, e in enumerate(("0.2", "x2", "0.3*x1", "x3")))
    y = connection_lift(qd, x_fields, curved_magnetic_scenario.observers["drift"])
    m = y.ymat((0.1, 0.5, -0.2, 0.3), 0).values()
    assert np.max(np.abs(m + m.conj().T)) < 1e-14


def test_projection_inverts_lift(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    qd = sc.qd
    rng = np.random.default_rng(32)
    consts = sc.background.constants.table()
    ref = Observer.reference()
    xf, vert = random_raw_pair(rng, consts, "r")
    lifted = connection_lift(qd, xf, ref)
    pt = (0.2, 0.3, -0.4, 0.1)
    # lift alone projects to zero
    assert np.max(np.abs(vertical_projection(lifted, qd, ref, pt).values())) < 1e-15
    # lift + vertical round-trips to the vertical part
    y = assemble_pair(qd, xf, vert, ref)
    back = vertical_projection(y, qd, ref, pt)
    assert np.allclose(back.values(), vert(pt, 0).values(), atol=1e-14)


def test_pair_bracket_pure_vertical(flat_scenario):
    qd = flat_scenario.qd
    consts = flat_scenario.background.constants.table()
    ref = Observer.reference()

    def vert(y0, yi):
        def ev(point, order):
            coeffs = [FieldDef("a", DIMLESS, y0, consts).eval_jet(point, order)] + [
                FieldDef("b", DIMLESS, c, consts).eval_jet(point, order) for c in yi
            ]
            return Mat2(coeffs)

        return ev

    zero_x = tuple(zero_field() for _ in range(4))
    v1 = vert("0.2", ("0.3", "-0.1", "0.4"))
    v2 = vert("-0.5", ("0.1", "0.2", "-0.3"))
    xb, mat = pair_bracket((zero_x, v1), (zero_x, v2), qd, ref, (0, 0, 0, 0))
    m1 = v1((0, 0, 0, 0), 0).values()
    m2 = v2((0, 0, 0, 0), 0).values()
    assert np.allclose(mat.values(), m2 @ m1 - m1 @ m2, atol=1e-15)
    assert np.max(np.abs([j.value for j in xb])) == 0.0


def test_pair_bracket_curvature_isolation(curved_magnetic_scenario):
    """Constant X, X' and zero vertical parts isolate -R(X, X'); compare with
    the curvature assembled from the Phi pullback and rho directly."""
    sc = curved_magnetic_scenario
    qd = sc.qd
    consts = sc.background.constants.table()
    ref = Observer.reference()
    x1 = tuple(FieldDef(f"c{l}", DIMLESS, v, consts) for l, v in enumerate(("1", "0.5", "-0.2", "0.3")))
    x2 = tuple(FieldDef(f"d{l}", DIMLESS, v, consts) for l, v in enumerate(("0.2", "-0.4", "0.7", "0.1")))

    def zero_vert(point, order):
        return Mat2.zero(order)

    pt = (0.1, 0.4, -0.3, 0.2)
    _, mat = pair_bracket((x1, zero_vert), (x2, zero_vert), qd, ref, pt)
    b = sc.background.jets(pt)
    phi = b.phi_observer(ref, 0)
    rho = value_array(b.rho("moment", 0))
    xv1 = np.array([f(pt) for f in x1])
    xv2 = np.array([f(pt) for f in x2])
    expected = np.zeros((2, 2), dtype=complex)
    for lam in range(4):
        for mu in range(4):
            w = xv1[lam] * xv2[mu]
            r_mat = -1j * phi[lam][mu].value * np.eye(2) + sum(
                rho[lam, mu, k] * XI[k] for k in range(3)
            )
            expected -= w * r_mat
    assert np.allclose(mat.values(), expected, atol=1e-12)


def test_pair_bracket_matches_lie_route(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    qd = sc.qd
    rng = np.random.default_rng(33)
    consts = sc.background.constants.table()
    ref = Observer.reference()
    p1 = random_raw_pair(rng, consts, "a")
    p2 = random_raw_pair(rng, consts, "b")
    y1 = assemble_pair(qd, p1[0], p1[1], ref)
    y2 = assemble_pair(qd, p2[0], p2[1], ref)
    for _ in range(4):
        pt = rng.uniform(-0.7, 0.7, 4)
        xb, z = lie_bracket_y(y1, y2, pt)
        xp, mp = pair_bracket(p1, p2, qd, ref, pt)
        assert np.allclose([j.value for j in xb], [j.value for j in xp], atol=1e-13)
        # vertical projection of the Lie bracket equals the pair-bracket matrix
        y_br = HermitianField(lambda p, n: lie_bracket_y(y1, y2, p, n)[0],
                              lambda p, n: lie_bracket_y(y1, y2, p, n)[1], False)
        proj = vertical_projection(y_br, qd, ref, pt)
        assert np.allclose(proj.values(), mp.values(), atol=1e-11)


def test_from_special_pure_time_coordinate(flat_scenario):
    sc = flat_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fbrev="x0", name="x0")
    y = from_special(f, sc.qd)
    pt = (0.7, 0.1, 0.2, 0.3)
    assert np.allclose(x_values(y, pt), 0.0)
    assert np.allclose(y.ymat(pt, 0).values(), 0.7j * np.eye(2))
    psi = spinor(consts, [("1", "0"), ("0", "1")])
    acted = act_on_section(y, psi, pt)
    # i Y.psi = x0 psi
    assert np.allclose(1j * acted, 0.7 * np.array([1, 1j]))


def test_from_special_momentum_flat(flat_scenario):
    sc = flat_scenario
    y = from_special(sc.function("P1"), sc.qd)
    pt = (0.2, 0.4, 0.1, -0.2)
    assert np.allclose(x_values(y, pt), [0, -1, 0, 0])
    assert np.max(np.abs(y.ymat(pt, 0).values())) == 0.0
    consts = sc.background.constants.table()
    psi = spinor(consts, [("sin(x1)", "0"), ("0", "0")])
    acted = act_on_section(y, psi, pt)
    assert 1j * acted[0] == pytest.approx(-1j * np.cos(0.4))


def test_from_special_pure_spin(flat_scenario):
    sc = flat_scenario
    consts = sc.background.constants.table()
    n = (0.3, -0.5, 0.81)
    f = make_special(consts, phi=tuple(str(v) for v in n), name="spin")
    y = from_special(f, sc.qd)
    pt = (0, 0, 0, 0)
    assert np.allclose(x_values(y, pt), 0.0)
    expected = sum(n[a] * XI[a] for a in range(3))
    assert np.allclose(y.ymat(pt, 0).values(), expected, atol=1e-15)


def test_eta_hermiticity_and_div_sign(curved_magnetic_scenario):
    """from_special output satisfies the volume-weighted Hermiticity; the
    -1/2 div placement reproduces the +d1 sqrt|g|/(2 sqrt|g|) momentum term."""
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(34)
    consts = sc.background.constants.table()
    for _ in range(4):
        f = random_special_function(rng, consts)
        y = from_special(f, sc.qd)
        pt = rng.uniform(-0.7, 0.7, 4)
        assert hermiticity_residual(y, sc.qd, pt) < 1e-10
    # P1 in the curved metric: Ymat = -C_1^a xi_a + (d1 sqrtg / 2 sqrtg) 1
    y = from_special(sc.function("P1"), sc.qd)
    pt = np.array([0.1, 0.6, -0.2, 0.3])
    b = sc.background.jets(pt)
    sg = b.sqrt_det(1)
    dlog = sg.derive(1).value / (2.0 * sg.value)
    cjets = sc.qd.spin.coeffs(b, 0)
    expected = dlog * np.eye(2) - sum(cjets[1][a].value * XI[a] for a in range(3))
    assert np.allclose(y.ymat(pt, 0).values(), expected, atol=1e-13)


def test_to_special_round_trip(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(35)
    consts = sc.background.constants.table()
    ref = Observer.reference()
    for _ in range(4):
        f = random_special_function(rng, consts)
        y = from_special(f, sc.qd)
        pt = rng.uniform(-0.7, 0.7, 4)
        val = to_special(y, sc.qd, ref, pt)
        assert val.f0 == pytest.approx(f.f0(pt), abs=1e-10)
        assert np.allclose(val.fi, [c(pt) for c in f.fi], atol=1e-10)
        assert val.fbrev == pytest.approx(f.fbrev(pt), abs=1e-10)
        assert np.allclose(val.phi, [c(pt) for c in f.phi], atol=1e-10)


def test_to_special_observer_independent(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, f0="0.4", fi=("x2", "0.1", "x3"), fbrev="x1*x2",
                     phi=("0.2", "x1", "0.3"), name="F")
    y = from_special(f, sc.qd)
    pt = (0.2, 0.3, -0.1, 0.4)
    for name in ("reference", "drift", "shear"):
        val = to_special(y, sc.qd, sc.observers[name], pt)
        assert val.fbrev == pytest.approx(f.fbrev(pt), abs=1e-11)
        assert np.allclose(val.phi, [c(pt) for c in f.phi], atol=1e-11)


def test_to_special_vertical_cases(flat_scenario):
    sc = flat_scenario
    consts = sc.background.constants.table()
    ref = Observer.reference()
    y = vertical_const_field(consts, "0.9", ("0", "0", "0"))
    val = to_special(y, sc.qd, ref, (0.1, 0.2, 0.3, 0.4))
    assert val.fbrev == pytest.approx(0.9)
    assert np.allclose(val.phi, 0.0)
    y2 = vertical_const_field(consts, "0", ("0", "0", "1"))  # Ymat = xi_3
    val2 = to_special(y2, sc.qd, ref, (0, 0, 0, 0))
    assert np.allclose(val2.phi, [0, 0, 1])
    assert val2.fbrev == 0.0


def test_to_special_rejects_non_hermitian(flat_scenario):
    sc = flat_scenario
    y = HermitianField(
        lambda p, n: [__import__("cqm.jets", fromlist=["Jet"]).Jet.const(0.0, n) for _ in range(4)],
        lambda p, n: mat2_constant(np.array([[1.0, 0], [0, 1.0]]), n),
        False,
    )
    with pytest.raises(NotHermitian):
        to_special(y, sc.qd, Observer.reference(), (0, 0, 0, 0))


def test_main_theorem_small_scale(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(36)
    consts = sc.background.constants.table()
    for _ in range(3):
        f = random_special_function(rng, consts)
        fp = random_special_function(rng, consts)
        pt = rng.uniform(-0.7, 0.7, 4)
        vec_res, mat_res = main_theorem_residual(f, fp, sc, pt)
        assert vec_res < 1e-11 and mat_res < 1e-11


def test_invariant_combination(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    rng = np.random.default_rng(37)
    f = make_special(consts, f0="0.3+0.1*x0", fi=("x2", "0.4", "x1"), fbrev="x1*x3", name="F")
    ref = Observer.reference()
    pt = (0.25, 0.4, -0.3, 0.1)
    base = invariant_combination(f, sc.qd, ref, pt)
    # reference value is f0 A0 - f^j A_j + fbrev directly
    a = [fld(pt) for fld in sc.qd.a_fields]
    direct = f.f0(pt) * a[0] - sum(f.fi[j](pt) * a[j + 1] for j in range(3)) + f.fbrev(pt)
    assert base == pytest.approx(direct, abs=1e-14)
    for _ in range(5):
        comps = tuple(
            FieldDef(f"o{i}", DIMLESS,
                     f"{rng.uniform(-0.5, 0.5):.6f} + {rng.uniform(-0.3, 0.3):.6f}*x{i + 1}", consts)
            for i in range(3)
        )
        o = Observer(comps)
        assert invariant_combination(f, sc.qd, o, pt) == pytest.approx(base, abs=1e-11)
    # x1 has no A-dependence at all
    x1 = make_special(consts, fbrev="x1")
    assert invariant_combination(x1, sc.qd, sc.observers["drift"], pt) == pytest.approx(0.4)


def test_ch_along_constant_observers(flat_magnetic_scenario):
    """On a flat metric, along a constant observer o, Ch_0 = A_0 - pref |o|^2 / 2
    and Ch_i = A_i + pref o_i (the classical H0 = -Ch_0 and P_i = Ch_i), and
    dCh = dA."""
    sc = flat_magnetic_scenario
    pref = sc.background.constants.metric_prefactor
    consts = sc.background.constants.table()
    drift = Observer(tuple(FieldDef(f"o{i}", DIMLESS, src, consts) for i, src in enumerate(("0.2", "-0.1", "0.15"))))
    pt = np.array([0.0, 0.5, 0.2, 0.1])
    a = sc.qd.a_jets(pt, 1)
    for o in (Observer.reference(), drift):
        v = o.velocity(pt)
        ch = ch_along_jets(sc.qd, o, pt, 1)
        want = [a[0].value - 0.5 * pref * float(v @ v)] + [a[i + 1].value + pref * v[i] for i in range(3)]
        assert np.allclose(value_array(ch), want, rtol=0.0, atol=1e-15)
        for lam in range(4):
            for mu in range(4):
                assert ch[lam].derive(mu).value == pytest.approx(a[lam].derive(mu).value, abs=1e-15)
    assert np.any(value_array(ch) != value_array(a))  # the drift observer moves Ch off A


def _dtypes(jets) -> set:
    """Coefficient dtypes of a jet or of a nested list of jets."""
    if isinstance(jets, Jet):
        return {jets.c.dtype}
    return set().union(*(_dtypes(j) for j in jets))


def test_every_coefficient_is_real_and_the_shift_is_in_w(curved_magnetic_scenario):
    """The background, the spin connection, the component jets, the matrix
    part Y^A_B = w 1 + y_nu xi_nu and the grid geometry are float64; the
    -1/2 div shift of Y[F] is its identity coefficient w, and the matrix
    still passes the volume-weighted Hermiticity test."""
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(36)
    cloud = sample_box(rng, 7).T
    f = random_special_function(rng, sc.background.constants.table())
    b = sc.background.jets(cloud)
    c = component_jets(f, cloud, 2)
    real = {
        "metric": b.metric(2),
        "frame": b.frame(2),
        "ktilde": b.ktilde("moment", 2),
        "rho": b.rho("moment", 1),
        "phi_ref": b.phi_ref(1),
        "spin": sc.qd.spin.coeffs(b, 2),
        "components": [c.f0, *c.fi, c.fbrev, *c.phi],
    }
    for name, jets in real.items():
        assert _dtypes(jets) == {np.dtype(np.float64)}, name
    y = from_special(f, sc.qd).ymat(cloud, 1)
    assert _dtypes([y.w, *y.y]) == {np.dtype(np.float64)}
    div = divergence_eta_jets(component_jets(f, b, 2).x_components(), b, 1)
    assert np.array_equal(y.w.c, (div * -0.5).c)
    assert np.max(hermiticity_residual(from_special(f, sc.qd), sc.qd, b)) < 1e-12

    with warnings.catch_warnings():
        # a complex jet cast into a real node array would only warn
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        geom = GridGeometry(sc.qd, GridSpec(((-2, 2, 7), (-1.5, 2.5, 7), (0.0, 0.0, 1)), 0.3))
    def leaves(v):
        return [x for item in v for x in leaves(item)] if isinstance(v, list) else [v]

    arrays = {name: v for name, v in vars(geom).items() if isinstance(v, (np.ndarray, np.floating, list))}
    assert {"sqrtg", "d0sqrtg", "dsqrtg", "ginv", "a", "c_coeffs", "mesh4"} <= set(arrays)
    for name, v in arrays.items():
        assert {np.asarray(x).dtype for x in leaves(v)} == {np.dtype(np.float64)}, name


@pytest.mark.parametrize("name", ["random", "H0prime", "P1"])
def test_y_coefficients_agree_on_jets_and_value_arrays(curved_magnetic_scenario, name):
    """The one Y[F] formula gives the same numbers from order-0 jets (the
    from_special route, which the main theorem reads) as from value arrays
    (the grid route) on a 7-point cloud."""
    sc = curved_magnetic_scenario
    qd = sc.qd
    rng = np.random.default_rng(7)
    f = random_special_function(rng, sc.background.constants.table()) if name == "random" else sc.function(name)
    bundle = sc.background.jets(sc.sample_points(rng, 7).T)
    batch = (7,)
    c = component_jets(f, bundle, 0)
    a = qd.a_jets(bundle.point, 0)
    from_jets = value_array(y_coefficients(c, a, qd.spin.coeffs(bundle, 0)), batch)
    from_values = y_coefficients(c.values(batch), value_array(a, batch), qd.spin.coeff_values(bundle))
    assert np.array_equal(from_jets, np.array(from_values))
    # P1's y_0 = A_1 - A_1 and its y_a = -C_1^a vanish on this conformally flat metric
    assert (np.max(np.abs(from_jets)) > 0.0) == (name != "P1")


def test_main_theorem_sees_the_electric_potential():
    """A static electric field, F_01 = e with A_0 = -q e x1 / hbar, on the
    curved metric: the f0 A_0 term of Y[F] is then nonzero (A_0 = 0 in every
    shipped scenario), and the main theorem still holds."""
    scn = scenario_dict("curved_magnetic")
    scn["constants"]["e"] = {"value": 0.3, "dim": {"l": "1/2", "t": "0", "m": "1/2"}}
    scn["F"]["01"] = "e"
    scn["A"][0] = "-q*e/hbar*x1"
    sc = load_scenario(scn)
    rng = np.random.default_rng(5)
    points = sc.sample_points(rng, 20)
    assert np.max(potential_residual(sc.qd, Observer.reference(), points.T)) < 1e-12
    consts = sc.background.constants.table()
    for _ in range(3):
        f, fp = random_special_function(rng, consts), random_special_function(rng, consts)
        vec, mat = main_theorem_residual(f, fp, sc, points.T)
        assert max(np.max(vec), np.max(mat)) < 1e-12

