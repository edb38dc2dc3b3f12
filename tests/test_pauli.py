import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqm.pauli import (
    EPS,
    SIGMA,
    XI,
    InconsistentSystem,
    NotAntisymmetric,
    NotInL0,
    axis_vector,
    gtilde,
    is_anti_hermitian,
    is_hermitian,
    is_traceless,
    pauli_constants,
    pauli_map,
    pauli_unmap,
    spin_connection_from,
    spin_curvature_from_jets,
    triangle,
)
from cqm.jets import value_array
from cqm.scenario import load_scenario

from conftest import scenario_dict

vectors = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


def test_sigma_displays():
    sig, xi, eps = pauli_constants()
    assert np.array_equal(sig[2], np.array([[1, 0], [0, -1]], dtype=complex))
    assert np.array_equal(sig[0], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(sig[1], np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(xi[0], 1j * np.eye(2))


def test_sigma_product_identity():
    # sigma_a sigma_b = delta_ab 1 + i eps_abc sigma_c, exactly
    for a in range(3):
        for b in range(3):
            lhs = SIGMA[a] @ SIGMA[b]
            rhs = (1.0 if a == b else 0.0) * np.eye(2) + 1j * sum(
                EPS[a, b, c] * SIGMA[c] for c in range(3)
            )
            assert np.max(np.abs(lhs - rhs)) == 0.0


def test_xi_commutators_plus_sign():
    for i in range(3):
        for j in range(3):
            lhs = XI[i] @ XI[j] - XI[j] @ XI[i]
            rhs = sum(EPS[i, j, k] * XI[k] for k in range(3))
            assert np.max(np.abs(lhs - rhs)) <= 1e-16


def test_gtilde_orthonormal():
    for i in range(3):
        for j in range(3):
            assert gtilde(XI[i], XI[j]) == pytest.approx(1.0 if i == j else 0.0, abs=1e-16)


def test_pauli_map_basis():
    assert np.array_equal(pauli_map((0, 0, 1)), XI[2])


@settings(max_examples=50, deadline=None)
@given(vectors)
def test_unmap_round_trip(v):
    assert np.allclose(pauli_unmap(pauli_map(v)), v, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors)
def test_sigma_map_is_lie_isomorphism(v, w):
    cross = np.cross(v, w)
    lhs = pauli_map(cross)
    m1, m2 = pauli_map(v), pauli_map(w)
    rhs = m1 @ m2 - m2 @ m1
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_map_output_in_l0():
    m = pauli_map((0.3, -0.8, 0.5))
    assert is_traceless(m) and is_anti_hermitian(m)
    assert not is_hermitian(m)


def test_unmap_rejects_bad_input():
    with pytest.raises(NotInL0):
        pauli_unmap(np.eye(2))


def test_triangle_generator():
    a = np.zeros((3, 3))
    a[0, 1] = -1.0
    a[1, 0] = 1.0
    assert np.allclose(triangle(a), (0, 0, -2))
    assert np.allclose(triangle(np.zeros((3, 3))), 0)


def test_triangle_rejects_symmetric():
    with pytest.raises(NotAntisymmetric):
        triangle(np.eye(3))


@settings(max_examples=40, deadline=None)
@given(vectors, vectors)
def test_minus_half_triangle_intertwines(v, w):
    def ad(u):
        m = np.zeros((3, 3))
        for i in range(3):
            for k in range(3):
                m[i, k] = sum(EPS[i, j, k] * u[j] for j in range(3))
        return m

    a, b = ad(v), ad(w)
    comm = a @ b - b @ a
    lhs = -0.5 * triangle(comm)
    rhs = np.cross(axis_vector(a), axis_vector(b))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_flat_spin_connection_vanishes(flat_scenario):
    conn = flat_scenario.qd.spin
    assert np.max(np.abs(conn.coeff_values((0.3, 0.1, -0.2, 0.5)))) == 0.0


def test_uniform_field_moment_coupling(flat_magnetic_scenario):
    # C_0^3 = +mu u0 b; the sign is pinned by the generator lock
    sc = flat_magnetic_scenario
    c = sc.qd.spin.coeff_values((0.0, 0.2, 0.4, -0.1))
    mu = sc.background.constants.mu.value
    u0 = sc.background.constants.u0.value
    assert c[0] == pytest.approx([0.0, 0.0, mu * u0 * 0.4])
    assert np.max(np.abs(c[1:])) == 0.0


def test_coefficient_matrices_anti_hermitian(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(5)
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        c = sc.qd.spin.coeff_values(pt)
        for lam in range(4):
            m = sum(c[lam, a] * XI[a] for a in range(3))
            assert is_anti_hermitian(m, tol=1e-12)


def test_roundtrip_c_to_ktilde(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(6)
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        b = sc.background.jets(pt)
        cj = sc.qd.spin.coeffs(b, 0)
        kt = b.ktilde("moment", 0)
        for lam in range(4):
            for k in range(3):
                for j in range(3):
                    recon = sum(EPS[i, j, k] * cj[lam][i].value for i in range(3))
                    assert recon == pytest.approx(kt[lam][k][j].value, abs=1e-11)


def test_spin_curvature_zero_for_flat(flat_scenario):
    r = spin_curvature_from_jets(flat_scenario.qd.spin.coeffs((0.1, 0.2, 0.3, 0.4), 1))
    assert np.max(np.abs(r)) == 0.0


def test_spin_curvature_abelian_case():
    # only C_lam^3 nonzero: no quadratic term
    scn = scenario_dict("flat_magnetic")
    scn["F"] = {"12": "b*x1"}
    scn["A"] = ["0", "0", "0.5*q*b/hbar*x1*x1", "0"]
    sc = load_scenario(scn)
    pt = (0.0, 0.3, 0.2, -0.1)
    cj = sc.qd.spin.coeffs(pt, 1)
    r = spin_curvature_from_jets(cj)
    for lam in range(4):
        for mu in range(4):
            expect = (-cj[mu][2].derive(lam) + cj[lam][2].derive(mu)).value if lam != mu else 0.0
            assert r[lam, mu, 3] == pytest.approx(expect, abs=1e-14)
            assert r[lam, mu, 1] == pytest.approx(0.0, abs=1e-14)
            assert r[lam, mu, 0] == 0.0  # trace-free gauge


def test_curvature_identity_r_equals_rho(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    rng = np.random.default_rng(7)
    saw_nonzero = False
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        b = sc.background.jets(pt)
        r = spin_curvature_from_jets(sc.qd.spin.coeffs(b, 1))
        rho = value_array(b.rho("moment", 0))
        saw_nonzero = saw_nonzero or np.max(np.abs(rho)) > 1e-3
        for lam in range(4):
            for mu in range(4):
                for k in range(3):
                    assert r[lam, mu, 1 + k] == pytest.approx(rho[lam, mu, k], abs=1e-9)
    assert saw_nonzero  # the identity is exercised on genuinely curved data


def test_inconsistent_system_for_nonmetric_connection():
    # a connection that is not metric makes Ktilde non-antisymmetric
    scn = scenario_dict("flat")
    scn["Kgrav"] = {"1_11": "0.4"}
    sc = load_scenario(scn)
    conn = spin_connection_from(sc.background, "grav")
    with pytest.raises(InconsistentSystem):
        conn.coeff_values((0.0, 0.0, 0.0, 0.0))


def test_spin_connection_unknown_coupling(flat_scenario):
    with pytest.raises(ValueError):
        spin_connection_from(flat_scenario.background, "nope")
