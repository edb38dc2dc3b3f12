import numpy as np
import pytest

from cqm.background import PhasePoint
from cqm.jets import value_array
from cqm.special import (
    component_jets,
    eval_special,
    extended_bracket,
    extended_bracket_jets,
    jacobi_residual,
)
from cqm.verify import random_special_function

from conftest import make_special
from oracles import vector_of


def test_eval_coordinate_function(flat_scenario):
    sc = flat_scenario
    f = make_special(sc.background.constants.table(), fbrev="x1", name="x1")
    p = PhasePoint((0.3, 1.7, -0.2, 0.5), (0.4, 0.1, -0.3), (0.2, 0.1, 0.0))
    assert eval_special(f, sc.background, p) == pytest.approx(1.7)


def test_eval_momentum(flat_scenario):
    sc = flat_scenario
    f = sc.function("P1")  # A = 0 in this scenario
    p = PhasePoint((0, 0, 0, 0), (2.0, 0, 0))
    pref = sc.background.constants.metric_prefactor
    assert eval_special(f, sc.background, p) == pytest.approx(pref * 2.0)


def test_eval_pure_spin(flat_scenario):
    sc = flat_scenario
    f = make_special(sc.background.constants.table(), phi=("0", "0", "1"))
    p = PhasePoint((0, 0, 0, 0), (0, 0, 0), (0, 0, 0.5))
    assert eval_special(f, sc.background, p) == pytest.approx(0.5)


def test_vector_of_examples(flat_scenario):
    consts = flat_scenario.background.constants.table()
    assert np.allclose(vector_of(make_special(consts, fbrev="x1"), (0, 0, 0, 0)), 0.0)
    p1 = make_special(consts, fi=("1", "0", "0"))
    assert np.allclose(vector_of(p1, (0.2, 0.3, 0.1, 0.5)), [0, -1, 0, 0])
    h0 = make_special(consts, f0="1")
    assert np.allclose(vector_of(h0, (0, 0, 0, 0)), [1, 0, 0, 0])


def test_canonical_pair(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    x1 = sc.function("x1")
    p1 = sc.function("P1")  # fbrev = A1 (arbitrary A present)
    val = extended_bracket(x1, p1, sc.background, (0.2, -0.3, 0.4, 0.1))
    assert val.f0 == 0.0
    assert np.allclose(val.fi, 0.0)
    assert val.fbrev == pytest.approx(1.0, abs=1e-14)


def test_coordinate_brackets_vanish(flat_scenario):
    sc = flat_scenario
    val = extended_bracket(sc.function("x1"), sc.function("x2"), sc.background, (0, 0, 0, 0))
    assert np.max(np.abs(val.as_array())) == 0.0


def test_h0_p1_force_term(flat_magnetic_scenario):
    # bare H0 (f0 = 1) against bare P1: fbrev'' = -Phi_01; with only F_12
    # present the 01-slot vanishes, so probe the 12-force through bare P1, P2
    sc = flat_magnetic_scenario
    consts = sc.background.constants.table()
    h0 = make_special(consts, f0="1", name="H0bare")
    p1 = make_special(consts, fi=("1", "0", "0"), name="P1bare")
    p2 = make_special(consts, fi=("0", "1", "0"), name="P2bare")
    phi12 = sc.background.constants.q.value / sc.background.constants.hbar.value * 0.4
    v01 = extended_bracket(h0, p1, sc.background, (0.1, 0.2, 0.3, 0.4))
    assert v01.fbrev == pytest.approx(0.0, abs=1e-15)  # -(f0 f'^1) Phi_01 = 0
    v12 = extended_bracket(p1, p2, sc.background, (0.1, 0.2, 0.3, 0.4))
    # f^h f'^k Phi_hk = Phi_12
    assert v12.fbrev == pytest.approx(phi12)


def test_extended_bracket_constant_spins(flat_scenario):
    sc = flat_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, phi=("1", "0", "0"))
    fp = make_special(consts, phi=("0", "1", "0"))
    val = extended_bracket(f, fp, sc.background, (0.3, 0.1, -0.2, 0.5))
    # phi' x phi = e2 x e1 = -e3
    assert np.allclose(val.phi, [0, 0, -1])
    assert val.f0 == 0.0 and val.fbrev == 0.0


def test_extended_bracket_scalar_reduction(flat_magnetic_scenario, curved_magnetic_scenario):
    # scalar-only inputs: the scalar part is the component formula worked by
    # hand, f0'' = 0, f''^i = (x3, -x1, 0.3) and
    # fbrev'' = 0.3 x3 - f0 f'^h Phi_0h + f^h f'^k Phi_hk; the spin part
    # vanishes wherever rho(X, X') does (always in the flat scenario)
    pt = (0.1, 0.4, -0.2, 0.3)
    x1, x2, x3 = pt[1:]
    fi, fpi = np.array([x2, 0.0, x1]), np.array([0.3, x3, 0.0])
    for sc in (flat_magnetic_scenario, curved_magnetic_scenario):
        consts = sc.background.constants.table()
        f = make_special(consts, f0="0.2", fi=("x2", "0", "x1"), fbrev="x1*x3")
        fp = make_special(consts, fi=("0.3", "x3", "0"), fbrev="x2")
        ext = extended_bracket(f, fp, sc.background, pt)
        phi = value_array(sc.background.jets(pt).phi_ref(0))
        assert ext.f0 == 0.0
        assert np.allclose(ext.fi, [x3, -x1, 0.3], rtol=0, atol=1e-15)
        fbrev = 0.3 * x3 - 0.2 * fpi @ phi[0, 1:] + fi @ phi[1:, 1:] @ fpi
        assert ext.fbrev == pytest.approx(fbrev, abs=1e-14)
        rho = value_array(sc.background.jets(pt).rho("moment", 0))
        expect = -np.einsum("lmk,l,m->k", rho, vector_of(f, pt), vector_of(fp, pt))
        assert np.allclose(ext.phi, expect, rtol=0, atol=1e-13)
    assert np.max(np.abs(ext.phi)) > 1e-3  # the curved scenario populates the spin slot


def test_extended_bracket_transport_term_fd(flat_magnetic_scenario):
    """H0 against a position-dependent spin: the spin part is the transport
    d0 phi' - Ktilde_0 action; checked against a central-difference transport
    oracle."""
    sc = flat_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, f0="1", name="H0bare")
    fp = make_special(consts, phi=("x0*x1", "0.3*x0", "x2"), name="spin")
    pt = np.array([0.2, 0.4, -0.3, 0.1])
    val = extended_bracket(f, fp, sc.background, pt)
    b = sc.background.jets(pt)
    kt = np.array([[[b.ktilde("moment", 0)[lam][a][c].value for c in range(3)] for a in range(3)]
                   for lam in range(4)])
    h = 1e-6

    def phi_at(p):
        return np.array([c(p) for c in fp.phi])

    pp, pm = pt.copy(), pt.copy()
    pp[0] += h
    pm[0] -= h
    dphi0 = (phi_at(pp) - phi_at(pm)) / (2 * h)
    expected = dphi0 - kt[0] @ phi_at(pt)
    assert np.allclose(val.phi, expected, atol=1e-8)


def test_bracket_antisymmetry(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(21)
    consts = sc.background.constants.table()
    for _ in range(3):
        f = random_special_function(rng, consts)
        fp = random_special_function(rng, consts)
        pt = rng.uniform(-0.7, 0.7, 4)
        ab = extended_bracket(f, fp, sc.background, pt).as_array()
        ba = extended_bracket(fp, f, sc.background, pt).as_array()
        assert np.max(np.abs(ab + ba)) < 1e-13


def test_projectability_closure(curved_magnetic_scenario):
    # time-only f0 inputs give a bracket whose f0 has no spatial derivatives
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, f0="0.3+0.2*x0", fi=("x2", "x3", "x1"), fbrev="x1")
    fp = make_special(consts, f0="0.1*x0*x0", fi=("x1", "0.5", "x2"), fbrev="x3")
    pt = (0.2, 0.4, -0.1, 0.3)
    a = component_jets(f, pt, 2)
    b = component_jets(fp, pt, 2)
    out = extended_bracket_jets(a, b, sc.background.jets(pt), 1)
    for i in range(1, 4):
        assert abs(out.f0.derive(i).value) < 1e-14


def test_vector_of_is_morphism(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(22)
    consts = sc.background.constants.table()
    h = 1e-6
    for _ in range(3):
        f = random_special_function(rng, consts)
        fp = random_special_function(rng, consts)
        pt = rng.uniform(-0.6, 0.6, 4)
        br = extended_bracket(f, fp, sc.background, pt)
        lie = np.zeros(4)
        for lam in range(4):
            pp, pm = pt.copy(), pt.copy()
            pp[lam] += h
            pm[lam] -= h
            xf = vector_of(f, pt)
            xfp = vector_of(fp, pt)
            lie += xf[lam] * (vector_of(fp, pp) - vector_of(fp, pm)) / (2 * h)
            lie -= xfp[lam] * (vector_of(f, pp) - vector_of(f, pm)) / (2 * h)
        assert np.allclose(lie, np.concatenate(([br.f0], -br.fi)), atol=1e-7)


def test_jacobi_constant_components_flat(flat_scenario):
    sc = flat_scenario
    consts = sc.background.constants.table()
    f1 = make_special(consts, f0="0.3", fi=("0.2", "-0.1", "0.4"), fbrev="0.5", phi=("0.1", "0.2", "0.3"))
    f2 = make_special(consts, f0="-0.2", fi=("0.1", "0.3", "-0.2"), fbrev="0.1", phi=("0.4", "-0.1", "0.2"))
    f3 = make_special(consts, f0="0.1", fi=("-0.3", "0.2", "0.1"), fbrev="0.7", phi=("0.2", "0.5", "-0.3"))
    assert jacobi_residual(f1, f2, f3, sc.background, (0.3, 0.1, -0.4, 0.2)) < 1e-12


def test_jacobi_polynomials_flat(flat_scenario):
    sc = flat_scenario
    rng = np.random.default_rng(23)
    consts = sc.background.constants.table()
    tri = [random_special_function(rng, consts, name=f"f{i}") for i in range(3)]
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        assert jacobi_residual(*tri, sc.background, pt) < 1e-9


def test_jacobi_curved_magnetic(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(24)
    consts = sc.background.constants.table()
    tri = [random_special_function(rng, consts, name=f"g{i}") for i in range(3)]
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        assert jacobi_residual(*tri, sc.background, pt) < 1e-8


def test_jacobi_scales_cubically(flat_scenario):
    # residual is roundoff-limited: doubling amplitudes scales it at most ~8x
    sc = flat_scenario
    consts = sc.background.constants.table()

    def triple(scale):
        s = str(scale)
        return [
            make_special(consts, f0=f"{s}*(0.3+0.1*x0)", fi=(f"{s}*x2", f"{s}*x3", f"{s}*x1"),
                         fbrev=f"{s}*x1*x2", phi=(f"{s}*x2", f"{s}*x1", f"{s}*0.4")),
            make_special(consts, f0=f"{s}*0.2", fi=(f"{s}*x1", f"{s}*0.4", f"{s}*x3"),
                         fbrev=f"{s}*x3", phi=(f"{s}*0.1", f"{s}*x3", f"{s}*x1")),
            make_special(consts, f0=f"{s}*(0.1*x0)", fi=(f"{s}*0.2", f"{s}*x1", f"{s}*x2"),
                         fbrev=f"{s}*x2*x3", phi=(f"{s}*x1", f"{s}*0.2", f"{s}*x3")),
        ]

    pt = (0.2, 0.3, -0.4, 0.1)
    r1 = jacobi_residual(*triple(1.0), sc.background, pt)
    r2 = jacobi_residual(*triple(2.0), sc.background, pt)
    assert r2 <= 8.0 * max(r1, 1e-15) + 1e-12
