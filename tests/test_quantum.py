import collections
import json
import warnings

import numpy as np
import pytest

from cqm import fieldlang as fl, quantum
from cqm.background import BackgroundJets, NotPositiveDefinite
from cqm.fieldlang import FieldDef, eval_float
from cqm.hermitian import SpinorSection, from_special
from cqm.jets import Jet, value_array
from cqm.pauli import SIGMA, XI_ALL
from cqm.quantum import (
    GridGeometry,
    GridMismatch,
    GridSpec,
    NonStaticMetric,
    SolverDivergence,
    SpinorGrid,
    check_linearity,
    evolve_pauli,
    inner_product,
    measure_frequency,
    observed_laplacian,
    operator_bracket,
    pauli_generator,
    prequantum,
    write_snapshot,
)
from cqm.scenario import load_scenario
from cqm.special import SpecialFunction, component_jets, extended_bracket
from cqm.units import DIMLESS
from cqm.verify import bracket_as_function, run_suites

from conftest import SCENARIO_DIR, derive_expr, make_special, scenario_dict
from oracles import act_on_section, grid_norm, read_snapshot


def flat_1d_spec(n=201, half=12.0):
    return GridSpec(((-half, half, n), (0.0, 0.0, 1), (0.0, 0.0, 1)), 0.0)


def gaussian_1d(spec, sigma=1.5, k=0.0):
    xs = spec.coords()
    mesh = np.meshgrid(*xs, indexing="ij")
    psi = np.zeros(spec.shape + (2,), dtype=complex)
    psi[..., 0] = np.exp(-mesh[0] ** 2 / (4 * sigma**2)) * np.exp(1j * k * mesh[0])
    return SpinorGrid(spec, psi)


def test_inner_product_examples(flat_scenario):
    spec = flat_1d_spec()
    geom = GridGeometry(flat_scenario.qd, spec)
    g = gaussian_1d(spec)
    nrm = grid_norm(geom, g)
    g.psi /= nrm
    assert inner_product(geom, g, g).real == pytest.approx(1.0, abs=1e-12)
    # continuum normalization of the Gaussian: integral = sigma sqrt(2 pi)
    assert nrm**2 == pytest.approx(1.5 * np.sqrt(2 * np.pi), rel=1e-3)
    # sesquilinearity is exact
    h = gaussian_1d(spec, sigma=2.0)
    alpha = 0.3 - 1.7j
    lhs = inner_product(geom, g, SpinorGrid(spec, alpha * h.psi))
    assert lhs == pytest.approx(alpha * inner_product(geom, g, h), rel=1e-15)
    with pytest.raises(GridMismatch):
        inner_product(geom, g, gaussian_1d(flat_1d_spec(n=101)))


def test_plane_wave_symbol(flat_scenario):
    """Discrete eigenvalue of Delta0 on one active axis: 2(cos kh - 1)/h^2."""
    spec = flat_1d_spec(n=256, half=np.pi * 4)
    geom = GridGeometry(flat_scenario.qd, spec)
    lap = observed_laplacian(geom)
    k = 1.0
    xs = spec.coords()[0]
    h = spec.spacing(0)
    psi = np.zeros(spec.shape + (2,), dtype=complex)
    psi[..., 0] = np.exp(1j * k * xs)[:, None, None]
    out = lap.apply_fn(psi)
    interior = slice(2, -2)
    ratio = out[interior, 0, 0, 0] / psi[interior, 0, 0, 0]
    symbol = geom.kinetic * 2.0 * (np.cos(k * h) - 1.0) / h**2
    assert np.allclose(ratio, symbol, atol=1e-12)
    # O(h^2)-close to the continuum eigenvalue -k^2
    assert symbol == pytest.approx(-geom.kinetic * k**2, rel=2e-3)


def test_constant_potential_shifts_symbol():
    scn = scenario_dict("flat")
    scn["A"] = ["0", "0.7", "0", "0"]
    sc = load_scenario(scn)
    spec = flat_1d_spec(n=512, half=np.pi * 4)
    geom = GridGeometry(sc.qd, spec)
    lap = observed_laplacian(geom)
    k, a = 1.3, 0.7
    xs = spec.coords()[0]
    h = spec.spacing(0)
    psi = np.zeros(spec.shape + (2,), dtype=complex)
    psi[..., 0] = np.exp(1j * k * xs)[:, None, None]
    out = lap.apply_fn(psi)
    interior = slice(2, -2)
    ratio = out[interior, 0, 0, 0] / psi[interior, 0, 0, 0]
    # (d - iA)^2 -> discrete symbol 2(cos kh - 1)/h^2 + 2 a sin(kh)/h - a^2
    expect = geom.kinetic * (2.0 * (np.cos(k * h) - 1.0) / h**2 + 2.0 * a * np.sin(k * h) / h - a**2)
    assert np.allclose(ratio, expect, atol=1e-12)
    # the shift k -> k - a to O(h^2)
    assert expect == pytest.approx(-geom.kinetic * (k - a) ** 2, rel=4e-3)


def test_laplacian_flat_seven_point(flat_scenario):
    spec = GridSpec(((-2, 2, 9), (-2, 2, 9), (-2, 2, 9)), 0.0)
    geom = GridGeometry(flat_scenario.qd, spec)
    lap = observed_laplacian(geom)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(spec.shape + (2,)) + 0j
    out = lap.apply_fn(psi)
    h = spec.spacing(0)
    manual = np.zeros_like(psi)
    for ax in range(3):
        shifted_p = np.zeros_like(psi)
        shifted_m = np.zeros_like(psi)
        sl_p = [slice(None)] * 4
        sl_m = [slice(None)] * 4
        sl_p[ax] = slice(None, -1)
        sl_m[ax] = slice(1, None)
        shifted_p[tuple(sl_p)] = psi[tuple(sl_m)]
        shifted_m[tuple(sl_m)] = psi[tuple(sl_p)]
        manual += (shifted_p - 2 * psi + shifted_m) / h**2
    assert np.allclose(out, geom.kinetic * manual, atol=1e-13)


def test_prequantum_equals_action_for_f0_free(curved_magnetic_scenario):
    """(f + phi)^ psi = i Y[f + phi].psi node-by-node when f0 = 0."""
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fi=("0.4", "x2*x1", "0.1"), fbrev="x1*x2",
                     phi=("x1", "0.2", "x2"), name="F")
    spec = GridSpec(((-2, 2, 7), (-2, 2, 7), (0, 0, 1)), 0.0)
    geom = GridGeometry(sc.qd, spec)
    op = prequantum(sc.qd, geom, f)
    psi_fields = SpinorSection((
        (FieldDef("r0", DIMLESS, "x1*x2", consts), FieldDef("i0", DIMLESS, "0.3*x1", consts)),
        (FieldDef("r1", DIMLESS, "x2", consts), FieldDef("i1", DIMLESS, "x1+x2", consts)),
    ))
    xs = spec.coords()
    mesh = np.meshgrid(*xs, indexing="ij")
    coords = [np.zeros(spec.shape)] + list(mesh)
    psi = np.zeros(spec.shape + (2,), dtype=complex)
    for comp in range(2):
        re_f, im_f = psi_fields.components[comp]
        psi[..., comp] = re_f.eval_array(coords) + 1j * im_f.eval_array(coords)
    got = op.apply_fn(psi)
    y = from_special(f, sc.qd)
    # compare on interior nodes where the stencil derivative is exact
    # (psi is quadratic in x1, x2, so the central difference is exact too)
    for idx in ((3, 3, 0), (2, 4, 0), (4, 1, 0)):
        pt = (0.0, mesh[0][idx], mesh[1][idx], mesh[2][idx])
        expect = 1j * act_on_section(y, psi_fields, pt)
        assert np.allclose(got[idx], expect, atol=1e-10)


def test_position_momentum_commutator(flat_scenario):
    sc = flat_scenario

    def defect(n):
        spec = GridSpec(((-4, 4, n), (-4, 4, 5), (-4, 4, 5)), 0.0)
        geom = GridGeometry(sc.qd, spec)
        op_x = prequantum(sc.qd, geom, sc.function("x1"))
        op_p = prequantum(sc.qd, geom, sc.function("P1"))
        xs = spec.coords()
        mesh = np.meshgrid(*xs, indexing="ij")
        psi = np.zeros(spec.shape + (2,), dtype=complex)
        psi[..., 0] = np.exp(-0.35 * mesh[0] ** 2) * (1.0 + 0.2 * mesh[1])
        probe = SpinorGrid(spec, psi)
        br = operator_bracket(op_x, op_p, probe)
        return float(np.max(np.abs(br.psi - probe.psi))), probe, op_x, spec, geom

    d1, probe, op_x, spec, geom = defect(33)
    d2 = defect(65)[0]
    # [x^1, P_1] psi = psi to O(h^2): halving h shrinks the defect ~4x
    assert d1 < 0.05
    assert d1 / d2 > 3.0
    # and [x1, x2] = 0 exactly
    op_x2 = prequantum(sc.qd, geom, sc.function("x2"))
    br2 = operator_bracket(op_x, op_x2, probe)
    assert np.max(np.abs(br2.psi)) == 0.0


def test_operator_linearity(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    spec = GridSpec(((-3, 3, 9), (-3, 3, 9), (-3, 3, 9)), 0.0)
    geom = GridGeometry(sc.qd, spec)
    rng = np.random.default_rng(2)
    for name in ("x1", "P1", "H0prime"):
        op = prequantum(sc.qd, geom, sc.function(name))
        assert check_linearity(op, spec, rng) < 1e-12


def test_zero_generator_keeps_state(flat_scenario):
    spec = GridSpec(((-0.5, 0.5, 1), (-0.5, 0.5, 1), (-0.5, 0.5, 1)), 0.0)
    psi0 = SpinorGrid(spec, np.array([[[[0.6, 0.8j]]]], dtype=complex))
    traj = evolve_pauli(flat_scenario.qd, psi0, 0.05, 200)
    assert np.max(np.abs(traj.norms - traj.norms[0])) == 0.0
    assert np.allclose(traj.final.psi, psi0.psi)


def test_dispersion_with_nonunit_constants():
    # diffusivity u0 hbar / 2m flows through the generator for u0, hbar, m != 1
    scn = {"constants": {"m": 1.3, "q": 1.0, "hbar": 0.9, "mu": 1.0, "u0": 0.8}}
    sc = load_scenario(scn)
    spec = flat_1d_spec(n=191, half=12.0)
    geom = GridGeometry(sc.qd, spec)
    packet = gaussian_1d(spec, sigma=1.5)
    packet.psi /= grid_norm(geom, packet)
    diffusivity = 0.8 * 0.9 / (2 * 1.3)
    traj = evolve_pauli(sc.qd, packet, 0.01, 600, geom=geom)
    sigma0 = traj.widths[0]
    t = traj.times[-1]
    analytic = sigma0 * np.sqrt(1.0 + (diffusivity * t / sigma0**2) ** 2)
    assert traj.widths[-1] == pytest.approx(analytic, rel=0.01)
    assert traj.widths[-1] > 1.2 * sigma0


def test_norm_conservation_long_run(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    spec = GridSpec(((-6, 6, 49), (0, 0, 1), (0, 0, 1)), 0.0)
    geom = GridGeometry(sc.qd, spec)
    packet = gaussian_1d(spec, sigma=1.2, k=0.8)
    packet.psi /= grid_norm(geom, packet)
    traj = evolve_pauli(sc.qd, packet, 0.004, 2000, geom=geom)
    drift = np.max(np.abs(traj.norms - traj.norms[0])) / traj.norms[0]
    assert drift < 1e-12


def test_crank_nicolson_is_second_order():
    """Halving dt to the same final time shrinks the Larmor phase error
    against u0 mu |B| t about 4x (Cayley turns by 4 atan(omega dt / 4))."""
    sc = load_scenario(SCENARIO_DIR / "larmor.json")
    grid = sc.initial_grid()
    c = sc.background.constants
    b = [s.value for s in sc.background.magnetic_field((0.0, 0.0, 0.0, 0.0))]
    omega = c.u0.value * c.mu.value * float(np.linalg.norm(b))
    errors = []
    for dt in (0.4, 0.2):
        traj = evolve_pauli(sc.qd, grid, dt, round(50.0 / dt))
        phase = np.arctan2(traj.sy, traj.sx)
        errors.append(float(np.max(np.abs(np.angle(np.exp(1j * (phase - omega * traj.times)))))))
    assert errors[1] > 1e-5  # well above roundoff, so the ratio measures the scheme
    assert errors[0] / errors[1] >= 3.5


@pytest.mark.parametrize("f_key, a_slot, a_expr, spin_up", [
    ("23", 3, "q*b/hbar*x2", True),
    ("13", 3, "q*b/hbar*x1", True),
    ("12", 2, "q*b/hbar*x1", False),
])
def test_larmor_precession_about_each_axis(f_key, a_slot, a_expr, spin_up):
    """larmor.json with B along e1, e2 and e3 and psi0 perpendicular to B:
    the spin turns about B by 4 atan(omega dt / 4) per Cayley step, omega =
    u0 mu |B|, from <sigma>(0) towards B x <sigma>(0) on every axis, so the
    angle turned over the run gives that signed rate to roundoff.  Along e1
    and e2 the generator's centre has off-diagonal entries, so these steps
    run through the einsum."""
    scn = json.loads((SCENARIO_DIR / "larmor.json").read_text())
    scn["F"] = {f_key: "b"}
    scn["A"] = ["0", "0", "0", "0"]
    scn["A"][a_slot] = a_expr
    scn["grid"]["psi0"] = [["1", "0"], ["0", "0"]] if spin_up else [["1", "0"], ["1", "0"]]
    sc = load_scenario(scn)
    geom = GridGeometry(sc.qd, sc.grid)
    c0 = quantum._spin_c0(geom)
    assert bool(np.any(c0[..., 0, 1])) == (f_key != "12")
    c = sc.background.constants
    b = np.array([s.value for s in sc.background.magnetic_field((0.0, 0.0, 0.0, 0.0))])
    assert np.count_nonzero(b) == 1
    omega = c.u0.value * c.mu.value * float(np.linalg.norm(b))
    dt, steps = 0.1, 400
    traj = evolve_pauli(sc.qd, sc.initial_grid(), dt, steps, geom=geom)
    spin = np.stack([traj.sx, traj.sy, traj.sz], axis=-1)
    n = b / np.linalg.norm(b)
    assert abs(spin[0] @ n) < 1e-15  # psi0 perpendicular to B
    e_a = spin[0] / np.linalg.norm(spin[0])
    e_b = np.cross(n, e_a)
    angle = np.unwrap(np.arctan2(spin @ e_b, spin @ e_a))
    rate = angle[-1] / (traj.times[-1] - traj.times[0])
    cayley = 4.0 / dt * np.arctan(omega * dt / 4.0)
    assert abs(rate - cayley) <= 1e-10 * cayley
    assert np.max(np.abs(traj.norms - traj.norms[0])) <= 1e-12 * traj.norms[0]


def test_crank_nicolson_keeps_the_norm_each_step(flat_magnetic_scenario):
    """The Cayley step is unitary for the sqrt|g|-weighted product, so the
    norm moves only by roundoff per step; any other theta-method (implicit
    Euler, say) loses norm every step, which the phase test cannot see."""
    sc = flat_magnetic_scenario
    geom = GridGeometry(sc.qd, GridSpec(((-3, 3, 8),) * 3, 0.0))
    traj = evolve_pauli(sc.qd, spinor_packet(geom), 0.05, 10, geom=geom)
    assert len(traj.norms) == 11
    assert np.max(np.abs(np.diff(traj.norms))) <= 1e-13


def test_step_guard(flat_scenario, monkeypatch):
    """A dt at which the fixed-point updates grow fails at step 1 after a
    few generator applies, before anything overflows."""
    spec = GridSpec(((-2, 2, 65), (0, 0, 1), (0, 0, 1)), 0.0)
    packet = gaussian_1d(spec, sigma=0.4)
    applies = []
    original = quantum.pauli_generator

    def counting(geom):
        op = original(geom)
        return quantum.GridOperator(op.label, lambda psi: applies.append(1) or op.apply_fn(psi), op.symmetric)

    monkeypatch.setattr(quantum, "pauli_generator", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverDivergence, match="at step 1;"):
            evolve_pauli(flat_scenario.qd, packet, 1.0, 2)
    assert 1 <= len(applies) <= 5


def assert_steps_certified(sc, geom, psi0, dt, steps=10):
    """Every step solves (1 + i tau H) x = (1 - i tau H) psi to 1e-13 |b|
    and keeps the norm."""
    traj = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom, snapshot_every=1)
    assert [step for step, _ in traj.snapshots] == list(range(steps + 1))
    h_apply = pauli_generator(geom).apply_fn
    tau = 0.5 * dt
    for (_, before), (_, after) in zip(traj.snapshots, traj.snapshots[1:]):
        b = before.psi - 1j * tau * h_apply(before.psi)
        residual = after.psi + 1j * tau * h_apply(after.psi) - b
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)
    assert np.max(np.abs(np.diff(traj.norms))) <= 1e-13


def test_cayley_residual_certifies_each_step():
    """free_packet at dt 0.006, beyond what a dt |H| <= 1.5 rule admits."""
    sc = load_scenario(SCENARIO_DIR / "free_packet.json")
    geom = GridGeometry(sc.qd, sc.grid)
    assert_steps_certified(sc, geom, sc.initial_grid(), 0.006)


def spinor_packet(geom):
    """A normalised Gaussian packet with momentum along x1 and a tilted spin."""
    x1, x2, x3 = geom.mesh4[1:]
    envelope = np.exp(-0.5 * (x1**2 + x2**2 + x3**2) + 0.7j * x1)
    grid = SpinorGrid(geom.spec, np.stack([0.8 * envelope, 0.6j * envelope], axis=-1))
    grid.psi /= grid_norm(geom, grid)
    return grid


def test_cayley_residual_certifies_each_step_on_other_stencils():
    """Larmor's one node: a spin centre that is not a multiple of the
    identity, and no offsets.  flat_magnetic at 8^3: the offsets along x1 and
    x3 are the same at every node, those along x2 carry A_2 = q b x1 / hbar."""
    sc = load_scenario(SCENARIO_DIR / "larmor.json")
    geom = GridGeometry(sc.qd, sc.grid)
    assert_steps_certified(sc, geom, sc.initial_grid(), 2.0)
    sc = load_scenario(SCENARIO_DIR / "flat_magnetic.json")
    geom = GridGeometry(sc.qd, GridSpec(((-3, 3, 8),) * 3, 0.0))
    assert_steps_certified(sc, geom, spinor_packet(geom), 0.1)


def oracle_spin_expectations(geom, grid):
    """Norm squared and <sigma_k> from three sigma-weighted density sums."""
    nn = inner_product(geom, grid, grid).real
    if nn == 0.0:
        return 0.0, [0.0, 0.0, 0.0]
    out = []
    for s in SIGMA:
        spsi = np.einsum("ab,...b->...a", s, grid.psi)
        out.append(float(np.sum(np.einsum("...s,...s->...", grid.psi.conj(), spsi) * geom.sqrtg).real * geom.dvol / nn))
    return nn, out


def oracle_width(geom, grid):
    dens = np.einsum("...s,...s->...", grid.psi.conj(), grid.psi).real * geom.sqrtg
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    var = 0.0
    for ax in geom.spec.active:
        x = geom.mesh4[ax + 1]
        mean = float(np.sum(dens * x)) / total
        var += float(np.sum(dens * (x - mean) ** 2)) / total
    return float(np.sqrt(var))


def test_observables_match_separate_density_sums(curved_magnetic_scenario):
    """On a 7x7 grid with a non-uniform weight, and on one node (no active
    axis, so no node density and width 0): each row of a stack of states,
    one of them zero in the middle of the stack, matches its own sums, and
    the zero state's row is zeros with no division warning."""
    rng = np.random.default_rng(5)
    seven_by_seven = ((-0.8, 0.8, 7), (-0.7, 0.9, 7), (0.0, 0.0, 1))
    one_node = ((0.6, 0.6, 1), (-0.3, -0.3, 1), (0.0, 0.0, 1))
    for axes in (seven_by_seven, one_node):
        spec = GridSpec(axes, 0.0)
        geom = GridGeometry(curved_magnetic_scenario.qd, spec)
        assert np.ptp(geom.sqrtg) > 0.01 or np.max(np.abs(geom.sqrtg - 1.0)) > 0.01  # a weight other than 1
        stack = rng.standard_normal((4,) + spec.shape + (2,)) + 1j * rng.standard_normal((4,) + spec.shape + (2,))
        stack[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = quantum._observables(geom, stack)
        assert rows.shape == (5, 4)
        assert rows[:, 2].tolist() == [0.0] * 5
        for k in (0, 1, 3):
            grid = SpinorGrid(spec, stack[k])
            norm, *sigma, width = rows[:, k]
            nn, want = oracle_spin_expectations(geom, grid)
            assert abs(norm - np.sqrt(nn)) <= 1e-14 * np.sqrt(nn)
            assert np.max(np.abs(np.array(sigma) - want)) <= 1e-14
            assert min(map(abs, want)) > 1e-3  # each component, sigma_2's sign included, is tested
            assert abs(width - oracle_width(geom, grid)) <= 1e-14 * width
            assert (width == 0.0) == (not spec.active)


def test_trajectory_rows_are_the_observables_of_each_state():
    """free_packet's 383 nodes make blocks of 21 states, so 30 steps are a
    full block and a partial one of 10: every row equals _observables of
    its own state bit for bit.  A 0-step run records psi0 alone."""
    sc = load_scenario(SCENARIO_DIR / "free_packet.json")
    geom = GridGeometry(sc.qd, sc.grid)
    psi0 = sc.initial_grid()
    assert quantum.OBSERVABLE_BLOCK // psi0.psi.size == 21
    traj = evolve_pauli(sc.qd, psi0, 0.004, 30, geom=geom, snapshot_every=1)
    rows = np.stack([traj.norms, traj.sx, traj.sy, traj.sz, traj.widths])
    assert rows.shape == (5, 31)
    for step, snap in traj.snapshots:
        np.testing.assert_array_equal(rows[:, step], quantum._observables(geom, snap.psi[None])[:, 0])
    np.testing.assert_array_equal(traj.steps, np.arange(31))
    np.testing.assert_array_equal(traj.times, 0.004 * np.arange(31))
    still = evolve_pauli(sc.qd, psi0, 0.004, 0, geom=geom)
    assert len(still.steps) == len(still.norms) == len(still.widths) == 1
    np.testing.assert_array_equal(still.final.psi, psi0.psi)
    assert (still.norms[0], still.widths[0]) == (traj.norms[0], traj.widths[0])


def test_nonstatic_metric_rejected():
    # g = (1 + 0.1 x0) delta, whose derived time slots K^i_{0i} = (1/2) d0 g / g
    # keep it metric: a valid background, but not static
    scn = scenario_dict("flat")
    scn["metric"] = [["1+0.1*x0", "0", "0"], ["0", "1+0.1*x0", "0"], ["0", "0", "1+0.1*x0"]]
    sc = load_scenario(scn)
    rep = sc.background.validate((0.2, 0.1, 0.3, -0.2))
    assert rep["metricity"] < 1e-12
    spec = GridSpec(((-1, 1, 5), (-1, 1, 5), (-1, 1, 5)), 0.0)
    geom = GridGeometry(sc.qd, spec)
    with pytest.raises(NonStaticMetric):
        pauli_generator(geom)


def test_measure_frequency_plain_cosine():
    dt = 0.05
    t = np.arange(4000) * dt
    sig = np.cos(0.7318 * t)
    assert measure_frequency(sig, dt) == pytest.approx(0.7318, rel=1e-4)


def test_snapshot_round_trip(tmp_path, flat_scenario):
    spec = GridSpec(((-2, 2, 5), (-1, 1, 3), (0, 0, 1)), 0.25)
    rng = np.random.default_rng(3)
    grid = SpinorGrid(spec, rng.standard_normal(spec.shape + (2,)) + 1j * rng.standard_normal(spec.shape + (2,)))
    path = tmp_path / "snap.bin"
    write_snapshot(path, grid)
    back = read_snapshot(path)
    assert back.spec == spec
    assert np.array_equal(back.psi, grid.psi)
    # header layout: 3 int64 + 7 f64 = 80 bytes, then 16 bytes per node pair
    assert path.stat().st_size == 80 + 5 * 3 * 1 * 2 * 16


def test_geometry_rejects_foreign_quantum_data(flat_scenario, flat_magnetic_scenario):
    spec = GridSpec(((-1, 1, 3), (-1, 1, 3), (-1, 1, 3)), 0.0)
    geom = GridGeometry(flat_scenario.qd, spec)
    with pytest.raises(GridMismatch):
        prequantum(flat_magnetic_scenario.qd, geom, flat_magnetic_scenario.function("x1"))


# -- batched node evaluation: the per-point scalar path is the oracle --------


@pytest.fixture(params=[None, 10], ids=["one_chunk", "chunks_of_10"])
def node_chunk(request, monkeypatch):
    """Run a test with the default chunk and with 10-node chunks, so that a
    7x7 grid is split across five chunks."""
    if request.param is not None:
        monkeypatch.setattr(quantum, "NODE_CHUNK", request.param)
    return request.param


def curved_7x7(sc, x3=0.0):
    spec = GridSpec(((-2, 2, 7), (-1.5, 2.5, 7), (x3, x3, 1)), 0.3)
    return GridGeometry(sc.qd, spec)


def node_points(geom):
    return [tuple(float(m[idx]) for m in geom.mesh4) for idx in np.ndindex(geom.spec.shape)]


def test_geometry_spin_coefficients_match_points(curved_magnetic_scenario, node_chunk):
    sc = curved_magnetic_scenario
    geom = curved_7x7(sc)
    want = np.array([sc.qd.spin.coeff_values(p) for p in node_points(geom)])
    assert geom.c_coeffs.shape == geom.spec.shape + (4, 3)
    np.testing.assert_allclose(geom.c_coeffs.reshape(-1, 4, 3), want, rtol=0, atol=1e-14)


def reference_geometry(sc, point):
    """sqrt|g|, d_lam sqrt|g|, g^-1, d_lam g^-1, A and d_i A_j at one node from
    numpy det/inv of the metric values and symbolic derivatives."""
    bg = sc.background

    def d(fld, lam):
        return eval_float(derive_expr(fld.expr, lam), point, fld.consts)

    g = np.array([[bg.g[i][j](point) for j in range(3)] for i in range(3)])
    dg = np.array([[[d(bg.g[i][j], lam) for j in range(3)] for i in range(3)] for lam in range(4)])
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.linalg.det(g))
    dsqrtg = np.array([0.5 * sqrtg * np.trace(ginv @ dg[lam]) for lam in range(4)])
    dginv = np.array([-ginv @ dg[lam] @ ginv for lam in range(4)])
    a = np.array([f(point) for f in sc.qd.a_fields])
    da = np.array([[d(sc.qd.a_fields[j + 1], i + 1) for j in range(3)] for i in range(3)])
    return sqrtg, dsqrtg, ginv, dginv, a, da


@pytest.mark.parametrize("name, x3", [("curved_magnetic", 0.0), ("anisotropic", 0.4)])
def test_geometry_arrays_match_points(name, x3, node_chunk, monkeypatch):
    """The one-pass geometry against the per-node det/inv oracle.  The
    anisotropic metric depends on x3, which the grid leaves inactive at
    x3 = 0.4, so its derivative slots there must read zero."""
    sc = load_scenario(scenario_dict(name))
    built = []
    original = BackgroundJets.__init__

    def counting(self, bg, point):
        built.append(np.shape(point))
        original(self, bg, point)

    monkeypatch.setattr(BackgroundJets, "__init__", counting)
    geom = curved_7x7(sc, x3)
    nodes = int(np.prod(geom.spec.shape))
    assert len(built) == -(-nodes // quantum.NODE_CHUNK)
    active = geom.spec.active
    assert active == [0, 1]
    close = dict(rtol=0, atol=1e-13)
    for idx, point in zip(np.ndindex(geom.spec.shape), node_points(geom)):
        sqrtg, dsqrtg, ginv, dginv, a, da = reference_geometry(sc, point)
        np.testing.assert_allclose(geom.sqrtg[idx], sqrtg, **close)
        np.testing.assert_allclose(geom.d0sqrtg[idx], dsqrtg[0], **close)
        np.testing.assert_allclose(geom.dsqrtg[idx][active], dsqrtg[1:][active], **close)
        np.testing.assert_allclose(geom.ginv[idx], ginv, **close)
        np.testing.assert_allclose(geom.dginv[idx][active], dginv[1:][active], **close)
        np.testing.assert_allclose([geom.a[k][idx] for k in range(4)], a, **close)
        np.testing.assert_allclose(geom.da[idx], da, **close)
        assert geom.dsqrtg[idx][2] == 0.0 and not geom.dginv[idx][2].any()
    if name == "anisotropic":
        assert np.abs(reference_geometry(sc, node_points(geom)[0])[3][3]).max() > 1e-3


def test_bracket_arrays_match_points(curved_magnetic_scenario, node_chunk):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fi=("0.4*x2", "x2*x1", "0.1"), fbrev="x1*x2*x0",
                     phi=("x1", "0.2*x2*x2", "x2"), name="F")
    g = make_special(consts, fi=("x1*x1", "0.3", "x1*x2"), fbrev="0.5*x2",
                     phi=("0.1", "x1*x2", "-x1"), name="G")
    br = bracket_as_function(f, g, sc)
    geom = curved_7x7(sc)
    vals, dfi = quantum._component_arrays(br, geom)
    points = node_points(geom)
    want = np.array([extended_bracket(f, g, sc.background, p).as_array() for p in points])
    got = np.stack([v.reshape(-1) for v in vals], axis=-1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert sorted(dfi) == geom.spec.active == [0, 1]
    at_points = [component_jets(br, p, 1) for p in points]
    for i, arr in dfi.items():
        want_d = [c.fi[i].derive(i + 1).value for c in at_points]
        np.testing.assert_allclose(arr.reshape(-1), want_d, rtol=0, atol=1e-13)


def test_bracket_grid_pass_builds_one_bundle_per_chunk(curved_magnetic_scenario, monkeypatch):
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fi=("x2", "x1", "0"), fbrev="x1", name="F")
    g = make_special(consts, fi=("0", "x1*x2", "0"), phi=("x2", "0", "0"), name="G")
    geom = curved_7x7(sc)
    monkeypatch.setattr(quantum, "NODE_CHUNK", 10)
    built = []
    original = BackgroundJets.__init__

    def counting(self, bg, point):
        built.append(np.shape(point))
        original(self, bg, point)

    monkeypatch.setattr(BackgroundJets, "__init__", counting)
    # H0prime's three spin components share one bundle as well
    for func in (bracket_as_function(f, g, sc), sc.function("H0prime")):
        built.clear()
        quantum._component_arrays(func, geom)
        assert built == [(4, 10)] * 4 + [(4, 9)]


def full_order_1_arrays(func, geom):
    """The grid arrays of _component_arrays read off one full order-1
    evaluation per chunk: every part of a derived function at order 1."""
    active = geom.spec.active

    def evaluate(cloud):
        cj = component_jets(func, cloud, 1)
        jets = [cj.f0, *cj.fi, cj.fbrev, *cj.phi] + [cj.fi[i].derive(i + 1) for i in active]
        return value_array(jets, cloud.shape[1:])

    return quantum.node_map(geom.mesh4, evaluate)


@pytest.mark.parametrize("which", ["bracket", "H0prime"])
def test_grid_pass_reads_derived_parts_at_order_0(curved_magnetic_scenario, node_chunk, monkeypatch, which):
    """A grid pass reads f^i at order 1 and every value at order 0, so a
    bracket builds rho and the frame below order 3 and H0prime its magnetic
    field at order 0, with the arrays of a full order-1 evaluation."""
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fi=("0.4*x2", "x2*x1", "0.1"), fbrev="x1*x2*x0",
                     phi=("x1", "0.2*x2*x2", "x2"), name="F")
    g = make_special(consts, fi=("x1*x1", "0.3", "x1*x2"), fbrev="0.5*x2",
                     phi=("0.1", "x1*x2", "-x1"), name="G")
    if which == "bracket":
        func = bracket_as_function(f, g, sc)
        unread, read = [("rho", "moment", 1), ("frame", 3)], ("rho", "moment", 0)
    else:
        func = sc.function("H0prime")
        unread, read = [("B", 1)], ("B", 0)
    geom = curved_7x7(sc)
    want = full_order_1_arrays(func, geom)
    bundles = []
    orders = collections.Counter()
    original_init, original_mul = BackgroundJets.__init__, Jet.__mul__

    def recording(self, bg, point):
        bundles.append(self)
        original_init(self, bg, point)

    def counting(self, other):
        out = original_mul(self, other)
        if isinstance(out, Jet):
            orders[out.order] += 1
        return out

    monkeypatch.setattr(BackgroundJets, "__init__", recording)
    monkeypatch.setattr(Jet, "__mul__", counting)
    vals, dfi = quantum._component_arrays(func, geom)
    monkeypatch.setattr(Jet, "__mul__", original_mul)
    assert len(bundles) == (1 if node_chunk is None else 5)
    assert not [key for b in bundles for key in unread if key in b._cache]
    assert orders[3] == 0 and orders[0] > 0
    assert all(read in b._cache for b in bundles)
    assert np.array_equal(np.stack(vals + [dfi[i] for i in geom.spec.active]), want)


def test_derived_functions_have_no_component_fields(curved_magnetic_scenario, flat_magnetic_scenario):
    """A bracket and H0prime are evaluated by their one evaluator only; a
    constant background's H0prime is derived too."""
    sc = curved_magnetic_scenario
    consts = sc.background.constants.table()
    f = make_special(consts, fi=("x2", "x1", "0"), fbrev="x1", name="F")
    g = make_special(consts, fi=("0", "x1*x2", "0"), phi=("x2", "0", "0"), name="G")
    for func in (bracket_as_function(f, g, sc), sc.function("H0prime"), flat_magnetic_scenario.function("H0prime")):
        assert (func.f0, func.fi, func.fbrev, func.phi) == (None, (), None, ())
        assert component_jets(func, (0.1, 0.2, 0.3, 0.0), 1).order == 1


@pytest.mark.parametrize("name", ["flat_magnetic", "larmor"])
def test_h0prime_on_a_constant_background_is_the_constant_field_operator(name):
    """The derived H0prime's operator equals, bit for bit, the operator of
    H0prime written with constant spin fields phi_a = -u0 mu B^a, B read off
    `magnetic_field` at the origin."""
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    bg = sc.background
    consts = bg.constants.table()
    w = -bg.constants.u0.value * bg.constants.mu.value
    b = [s.value for s in bg.magnetic_field((0.0, 0.0, 0.0, 0.0))]
    zero = fl.zero_field()
    neg_a0 = FieldDef("-A0", DIMLESS, fl.Unary("neg", sc.qd.a_fields[0].expr), consts)
    phi = tuple(FieldDef(f"phiB{a}", DIMLESS, fl.Const(w * b[a]), consts) for a in range(3))
    fields = SpecialFunction(FieldDef("1", DIMLESS, "1", consts), (zero, zero, zero), neg_a0, phi, name="H0prime")
    assert np.count_nonzero(b) == 1
    geom = GridGeometry(sc.qd, sc.grid)
    x1, x2, x3 = geom.mesh4[1:]
    envelope = np.exp(-0.1 * (x1**2 + x2**2 + x3**2))
    probe = np.stack([envelope * (1.0 + 0.3 * x1 + 0.2j * x2), envelope * (0.5 - 0.1j * x3)], axis=-1)
    want = prequantum(sc.qd, geom, fields).apply_fn(probe)
    got = prequantum(sc.qd, geom, sc.function("H0prime")).apply_fn(probe)
    assert np.array_equal(got, want)
    assert np.max(np.abs(want)) > 0.1


def test_constant_background_geometry_work_does_not_grow_with_the_grid(monkeypatch):
    """flat_magnetic with A = 0: GridGeometry makes as many jet products on
    24^3 nodes (54 chunks) as on 8^3 (2 chunks), as the chunks' background
    bundles share one cache."""
    original = Jet.__mul__
    counts = []
    for n in (8, 24):
        scn = scenario_dict("flat_magnetic")
        scn["A"] = ["0", "0", "0", "0"]
        sc = load_scenario(scn)
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Jet, "__mul__", counting)
        GridGeometry(sc.qd, GridSpec(((-3.0, 3.0, n),) * 3, 0.0))
        monkeypatch.setattr(Jet, "__mul__", original)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_operators_suite_builds_one_geometry_per_distinct_grid(monkeypatch):
    """On curved_magnetic the scenario grid (15x15x1 on [-3, 3]^2) is the
    coarse level of both step-halving sweeps, and their fine levels agree.
    Without a grid, the probe box is the symmetry sweep's coarse level."""
    built = []
    original = GridGeometry.__init__

    def counting(self, qd, spec):
        built.append(spec.shape)
        original(self, qd, spec)

    monkeypatch.setattr(GridGeometry, "__init__", counting)
    run_suites(load_scenario(SCENARIO_DIR / "curved_magnetic.json"), ["operators"])
    assert built == [(15, 15, 1), (29, 29, 1)]
    built.clear()
    run_suites(load_scenario(scenario_dict("curved_magnetic")), ["operators"])
    assert built == [(16, 16, 16), (31, 31, 31), (15, 15, 1), (29, 29, 1)]


def test_cloud_with_one_bad_point_is_not_positive_definite():
    scn = scenario_dict("flat")
    scn["metric"] = [["1 - x1*x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bg = load_scenario(scn).background
    cloud = np.zeros((4, 5))
    cloud[1] = [0.0, 0.5, 1.5, -0.5, 0.2]
    for build in (lambda b: b.frame(1), lambda b: b.sqrt_det(1), lambda b: b.metric_inv(0)):
        with pytest.raises(NotPositiveDefinite, match=r"1\.5"):
            build(bg.jets(cloud))
    cloud[1, 2] = 0.9
    bg.jets(cloud).frame(1)


# -- stencils: the per-apply composition from shifted copies is the oracle ---


def oracle_d2(geom, arr, axis):
    h = geom.spec.spacing(axis)
    return (quantum._shift(arr, axis, 1) - 2.0 * arr + quantum._shift(arr, axis, -1)) / (h * h)


def oracle_d_cross(geom, arr, ax1, ax2):
    h1, h2 = geom.spec.spacing(ax1), geom.spec.spacing(ax2)
    pp = quantum._shift(quantum._shift(arr, ax1, 1), ax2, 1)
    pm = quantum._shift(quantum._shift(arr, ax1, 1), ax2, -1)
    mp = quantum._shift(quantum._shift(arr, ax1, -1), ax2, 1)
    mm = quantum._shift(quantum._shift(arr, ax1, -1), ax2, -1)
    return (pp - pm - mp + mm) / (4.0 * h1 * h2)


def oracle_laplacian(geom, psi):
    """Delta0 psi term by term: g^{ij} times second and mixed differences,
    -2i g^{ij} A_j d_i, -i g^{ij} d_i A_j - g^{ij} A_i A_j, and the divergence
    vector w_h times (d_h - i A_h)."""
    active = geom.spec.active
    ginv = geom.ginv
    a_sp = [geom.a[i + 1] for i in range(3)]
    da_term = np.zeros(geom.spec.shape)
    aa_term = np.zeros(geom.spec.shape)
    w = np.zeros(geom.spec.shape + (3,))
    for i in active:
        for j in active:
            da_term += ginv[..., i, j] * geom.da[..., i, j]
            aa_term += ginv[..., i, j] * a_sp[i] * a_sp[j]
        for h in active:
            w[..., h] += geom.dginv[..., i, i, h] + ginv[..., i, h] * geom.dsqrtg[..., i] / geom.sqrtg
    out = np.zeros_like(psi)
    grads = {i: geom.d1(psi, i) for i in active}
    for i in active:
        out += ginv[..., i, i, None] * oracle_d2(geom, psi, i)
        for j in active:
            if j != i:
                out += ginv[..., i, j, None] * oracle_d_cross(geom, psi, i, j)
    for i in active:
        coef = np.zeros(psi.shape[:-1])
        for j in active:
            coef += 2.0 * ginv[..., i, j] * a_sp[j]
        out += -1j * coef[..., None] * grads[i]
    out += (-1j * da_term - aa_term)[..., None] * psi
    for h in active:
        out += w[..., h, None] * (grads[h] - 1j * a_sp[h][..., None] * psi)
    return geom.kinetic * out


def oracle_generator(geom, psi):
    hmat = sum(geom.c_coeffs[..., 0, a, None, None] * (1j * XI_ALL[a + 1]) for a in range(3))  # i C_0^a xi_a
    out = -0.5 * oracle_laplacian(geom, psi) - geom.a[0][..., None] * psi
    return out + np.einsum("...ab,...b->...a", hmat, psi)


def oracle_prequantum(geom, f, psi):
    """i (Y.psi - f0 P psi) with Y.psi = -f^i d_i psi - Y psi and
    P psi = (-i A0 + d0 sqrt|g| / 2 sqrt|g|) psi - i/2 Delta0 psi - C_0^a xi_a psi."""
    vals, dfi = quantum._component_arrays(f, geom)
    f0, fi, fbrev, phi = vals[0], vals[1:4], vals[4], vals[5:8]
    y0 = f0 * geom.a[0] + fbrev - sum(fi[j] * geom.a[j + 1] for j in range(3))
    ya = [phi[a] + f0 * geom.c_coeffs[..., 0, a] - sum(fi[j] * geom.c_coeffs[..., j + 1, a] for j in range(3))
          for a in range(3)]
    div = f0 * geom.d0sqrtg / geom.sqrtg
    for i in geom.spec.active:
        div += -dfi[i] - fi[i] * geom.dsqrtg[..., i] / geom.sqrtg
    ymat = sum(c[..., None, None] * XI_ALL[nu] for nu, c in enumerate([y0, *ya]))
    ymat = ymat + (-0.5 * div)[..., None, None] * np.eye(2)
    c0mat = sum(geom.c_coeffs[..., 0, a, None, None] * XI_ALL[a + 1] for a in range(3))
    ypsi = -np.einsum("...ab,...b->...a", ymat, psi)
    for i in geom.spec.active:
        ypsi -= fi[i][..., None] * geom.d1(psi, i)
    ppsi = (-1j * geom.a[0] + geom.d0sqrtg / (2.0 * geom.sqrtg))[..., None] * psi
    ppsi += -0.5j * oracle_laplacian(geom, psi)
    ppsi -= np.einsum("...ab,...b->...a", c0mat, psi)
    return 1j * (ypsi - f0[..., None] * ppsi)


def flat_magnetic_along_e1():
    """flat_magnetic with B along e1: C_0 is a multiple of xi_1, so the
    generator's centre has off-diagonal entries."""
    scn = scenario_dict("flat_magnetic")
    scn["F"] = {"23": "b"}
    scn["A"] = ["0", "0", "0", "q*b/hbar*x2"]
    return load_scenario(scn)


STENCIL_GRIDS = {
    "anisotropic_6x7x8": (lambda: load_scenario(scenario_dict("anisotropic")),
                          GridSpec(((-0.8, 0.8, 6), (-0.7, 0.9, 7), (-0.6, 0.8, 8)), 0.0)),
    "curved_magnetic_15x15x1": (lambda: load_scenario(SCENARIO_DIR / "curved_magnetic.json"), None),
    "flat_magnetic_8^3": (lambda: load_scenario(SCENARIO_DIR / "flat_magnetic.json"),
                          GridSpec(((-3, 3, 8),) * 3, 0.0)),
    "flat_magnetic_along_e1_8^3": (flat_magnetic_along_e1, GridSpec(((-3, 3, 8),) * 3, 0.0)),
    "larmor_one_node": (lambda: load_scenario(SCENARIO_DIR / "larmor.json"), None),
    "free_packet_1d": (lambda: load_scenario(SCENARIO_DIR / "free_packet.json"), None),
}


@pytest.mark.parametrize("name", sorted(STENCIL_GRIDS))
def test_stencil_operators_match_shifted_copy_oracle(name):
    make, spec = STENCIL_GRIDS[name]
    sc = make()
    spec = spec or sc.grid
    geom = GridGeometry(sc.qd, spec)
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(spec.shape + (2,)) + 1j * rng.standard_normal(spec.shape + (2,))
    consts = sc.background.constants.table()
    f = make_special(consts, f0="0.3+0.1*x1", fi=("0.4*x2", "x2*x1", "0.1"), fbrev="x1*x2",
                     phi=("x1", "0.2*x2", "x2"), name="F")
    g = make_special(consts, fi=("x1*x1", "0.3", "x1*x2"), fbrev="0.5*x2",
                     phi=("0.1", "x1*x2", "-x1"), name="G")
    pairs = [(observed_laplacian(geom), oracle_laplacian(geom, psi)),
             (pauli_generator(geom), oracle_generator(geom, psi))]
    for func in (sc.function("P1"), sc.function("H0prime"), bracket_as_function(f, g, sc)):
        pairs.append((prequantum(sc.qd, geom, func), oracle_prequantum(geom, func, psi)))
    for op, want in pairs:
        got = op.apply_fn(psi)
        assert got.shape == psi.shape
        scale = float(np.max(np.abs(want)))  # 0 for Delta0 on one node: then exact
        assert float(np.max(np.abs(got - want))) <= 1e-14 * scale, op.label


def test_stencil_drops_zero_offsets(flat_magnetic_scenario):
    """A diagonal constant metric has no mixed-derivative offsets; the
    anisotropic metric keeps all 6 axis and 12 mixed ones."""
    axis = {tuple(s if k == i else 0 for k in range(3)) for i in range(3) for s in (1, -1)}
    flat = GridGeometry(flat_magnetic_scenario.qd, GridSpec(((-3, 3, 8),) * 3, 0.0))
    assert set(quantum._laplacian_stencil(flat).live_offsets()) == axis
    aniso = GridGeometry(load_scenario(scenario_dict("anisotropic")).qd, STENCIL_GRIDS["anisotropic_6x7x8"][1])
    live = set(quantum._laplacian_stencil(aniso).live_offsets())
    assert len(live) == 18 and axis <= live
    assert all(sum(map(abs, d)) in (1, 2) and d.count(0) >= 1 for d in live)
    # an operator without f0 or f^i is its centre alone
    x1 = prequantum(flat_magnetic_scenario.qd, flat, flat_magnetic_scenario.function("x1"))
    psi = np.ones(flat.spec.shape + (2,), dtype=complex)
    np.testing.assert_array_equal(x1.apply_fn(psi), flat.mesh4[1][..., None] * psi)


def all_array_apply(stencil, psi):
    """A Stencil applied with every part as a node array: one einsum with the
    centre, then each live offset's coefficient array times the shifted psi."""
    out = np.einsum("...ab,...b->...a", stencil.centre, psi)
    for d, coef in stencil.live_offsets().items():
        dst, src = quantum._offset_slices(d)
        out[dst] += coef[dst][..., None] * psi[src]
    return out


def centre_kind(centre):
    """"full" with an off-diagonal entry, else "scalar" when the two
    diagonal entries agree at every node, else "diagonal"."""
    if np.any(centre[..., 0, 1]) or np.any(centre[..., 1, 0]):
        return "full"
    return "scalar" if np.array_equal(centre[..., 0, 0], centre[..., 1, 1]) else "diagonal"


def constant_parts(stencil):
    """(centre kind, live offsets whose applied coefficients are the same at
    every node, live offsets)."""
    live = stencil.live_offsets()
    applied = [coef[quantum._offset_slices(d)[0]] for d, coef in live.items()]
    return centre_kind(stencil.centre), sum(bool(np.all(a == a.flat[0])) for a in applied), len(live)


def test_spinor_factor_is_a_number_or_a_contiguous_full_array():
    """A node factor of (..., 2) spinors comes back as a Python number when
    it holds one number at every node and component, else as a C-contiguous
    array of the full (..., 2) shape with the same entries."""
    rng = np.random.default_rng(3)
    column = rng.standard_normal((4, 3, 1)) + 1j * rng.standard_normal((4, 3, 1))
    row = np.broadcast_to(np.array([0.5 - 1j, 2.0 + 0j]), (4, 3, 2))
    full = rng.standard_normal((4, 3, 2)) + 0j
    for arr in (column, row, full, full[::2, :, :]):
        got = quantum._spinor_factor(arr)
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert got.shape == arr.shape[:-1] + (2,)
        np.testing.assert_array_equal(got, np.broadcast_to(arr, got.shape))
    for arr in (np.full((4, 3, 1), 1.5 - 2j), np.full((4, 3, 2), 0.25 + 0j), np.full((1, 1, 1, 2), -3j)):
        got = quantum._spinor_factor(arr)
        assert type(got) is complex and got == arr.flat[0]


# the benchmark's 3-D packet grid: the factors are applied as they are at scale
NUMBER_PARTS_GRIDS = {**STENCIL_GRIDS, "flat_magnetic_24^3": (
    lambda: load_scenario(SCENARIO_DIR / "flat_magnetic.json"), GridSpec(((-4, 4, 24),) * 3, 0.0))}


@pytest.mark.parametrize("name, generator_parts", [
    ("free_packet_1d", ("scalar", 2, 2)),
    ("flat_magnetic_8^3", ("diagonal", 4, 6)),
    ("curved_magnetic_15x15x1", ("diagonal", 0, 4)),
    ("larmor_one_node", ("diagonal", 0, 0)),
    ("flat_magnetic_along_e1_8^3", ("full", 4, 6)),
    ("flat_magnetic_24^3", ("diagonal", 4, 6)),
])
def test_constant_stencil_parts_apply_as_numbers(name, generator_parts, monkeypatch):
    """The generator and prequantum(P1), whose parts that are the same at
    every node are applied as numbers, whose diagonal centres multiply psi
    elementwise and whose other centres take the einsum, equal an all-array
    apply of the same Stencil bit for bit."""
    make, spec = NUMBER_PARTS_GRIDS[name]
    sc = make()
    geom = GridGeometry(sc.qd, spec or sc.grid)
    stencils = []
    original = quantum.Stencil.operator
    monkeypatch.setattr(quantum.Stencil, "operator",
                        lambda self, label, symmetric: stencils.append(self) or original(self, label, symmetric))
    ops = [pauli_generator(geom), prequantum(sc.qd, geom, sc.function("P1"))]
    assert constant_parts(stencils[0]) == generator_parts
    # f^1 = 1: constant first differences along x1, when that axis is active
    p1_offsets = 2 if 0 in geom.spec.active else 0
    assert constant_parts(stencils[1]) == ("scalar", p1_offsets, p1_offsets)
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(geom.spec.shape + (2,)) + 1j * rng.standard_normal(geom.spec.shape + (2,))
    for op, stencil in zip(ops, stencils):
        np.testing.assert_array_equal(op.apply_fn(psi), all_array_apply(stencil, psi), err_msg=op.label)
