import collections
import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from cqm import fieldlang as fl, quantum, verify
from cqm.background import BackgroundJets, NotPositiveDefinite
from cqm.fieldlang import FieldDef, eval_float
from cqm.hermitian import SpinorSection, from_special
from cqm.jets import Jet
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
from cqm.verify import _metricity_residual, _smooth_grid, bracket_as_function, run_suites

from conftest import SCENARIO_DIR, derive_expr, make_special, scenario_dict
from oracles import act_on_section, cayley_coefficient, certifying_terms, d1, grid_norm, read_snapshot, shift


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


def test_crank_nicolson_keeps_the_norm_on_a_curved_metric():
    """With the flux-form generator, self-adjoint on a curved metric, 30
    Crank-Nicolson steps of dt 0.01 on curved_magnetic's box at 29^2 nodes
    keep the norm to 1e-13 each step."""
    sc = load_scenario(SCENARIO_DIR / "curved_magnetic.json")
    geom = GridGeometry(sc.qd, GridSpec(((-3.0, 3.0, 29), (-3.0, 3.0, 29), (0.0, 0.0, 1)), 0.0))
    traj = evolve_pauli(sc.qd, spinor_packet(geom), 0.01, 30, geom=geom)
    assert np.max(np.abs(np.diff(traj.norms))) <= 1e-13


def test_step_guard(flat_scenario, monkeypatch):
    """A dt at which the fixed-point updates grow fails at step 1 after a
    few generator applies, before anything overflows."""
    spec = GridSpec(((-2, 2, 65), (0, 0, 1), (0, 0, 1)), 0.0)
    packet = gaussian_1d(spec, sigma=0.4)
    applies = counted_generator(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverDivergence, match="at step 1;"):
            evolve_pauli(flat_scenario.qd, packet, 1.0, 2)
    assert 1 <= len(applies) <= 5


def assert_steps_certified(sc, geom, psi0, dt, steps=10):
    """Every step, at every place in its block of steps, solves
    (1 + i tau H) x = (1 - i tau H) psi to 1e-13 |b|, and keeps the norm, as
    the generator is self-adjoint."""
    traj = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom, snapshot_every=1)
    assert [step for step, _ in traj.snapshots] == list(range(steps + 1))
    h_apply = pauli_generator(geom).apply_fn
    tau = 0.5 * dt
    for (_, before), (_, after) in zip(traj.snapshots, traj.snapshots[1:]):
        b = before.psi - 1j * tau * h_apply(before.psi)
        residual = after.psi + 1j * tau * h_apply(after.psi) - b
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)
    assert np.all(np.abs(np.diff(traj.norms)) <= 1e-13)


def counted_generator(monkeypatch):
    """A list that gains one entry per apply of every generator that
    pauli_generator returns from now on.  The wrapper is built as
    perfbench/spans.py builds its counter: an apply_fn of one positional
    argument around the generator's own, so evolve_pauli must reach the
    generator only through apply_fn(psi) for either to count its applies."""
    applies = []
    original = quantum.pauli_generator

    def counting(geom):
        op = original(geom)
        inner = op.apply_fn

        def apply_fn(psi):
            applies.append(1)
            return inner(psi)

        return quantum.GridOperator(op.label, apply_fn, op.symmetric)

    monkeypatch.setattr(quantum, "pauli_generator", counting)
    return applies


def series_lengths(monkeypatch):
    """A list that gains, per Neumann series that evolve_pauli runs from now
    on, the number of steps the series was asked for."""
    lengths = []
    original = quantum._cayley_block

    def spy(h_apply, psi, tau, n, ring, flat_ring, out):
        lengths.append(len(out))
        return original(h_apply, psi, tau, n, ring, flat_ring, out)

    monkeypatch.setattr(quantum, "_cayley_block", spy)
    return lengths


def test_cayley_residual_certifies_each_step(monkeypatch):
    """free_packet at dt 0.006, beyond what a dt |H| <= 1.5 rule admits, over
    10 steps (a first block of 7, then single steps), 2 steps (one partial
    first block) and none.  Its terms shrink only about 2x each there, so
    the first series certifies its steps at m_s = 16, 40, 68, ...: a block
    takes more generator applies per step than single steps, and the later
    blocks are single steps.  Every step still evolves certified."""
    sc = load_scenario(SCENARIO_DIR / "free_packet.json")
    geom = GridGeometry(sc.qd, sc.grid)
    lengths = series_lengths(monkeypatch)
    for steps, blocks in ((10, [7, 1, 1, 1]), (2, [2]), (0, [])):
        lengths.clear()
        assert_steps_certified(sc, geom, sc.initial_grid(), 0.006, steps)
        assert lengths == blocks


def test_cayley_block_at_the_term_limit():
    """On one node with H = (r / tau) 1 the terms shrink by r each, so after
    500 terms |t_500| = r^500 |psi|.  With r^500 = 1e-16 the first step's
    residual bound 2 |t_500| is below 1e-14 |b| and the second's
    (c_{2,500} + c_{1,500}) |t_500| = 2002 |t_500| is not: the block returns
    the first step alone, the Cayley map (1 - i r)/(1 + i r) of psi.  With
    r^500 = 1e-13 no step is certified and the block raises."""
    psi = np.array([[[[0.6, 0.8j]]]])
    tau = 0.05
    ring = np.empty((2,) + psi.shape, complex)
    states = np.empty((3,) + psi.shape, complex)
    views = ring.reshape(2, -1).view(float), states.reshape(3, -1).view(float)
    r = 10.0 ** (-16 / 500)
    ms = quantum._cayley_block(lambda v: (r / tau) * v, psi, tau, 7, ring, *views)
    assert ms == certifying_terms((r, r), psi, 3) == [443]  # t_443 certified step 1 first
    np.testing.assert_allclose(states[0], (1 - 1j * r) / (1 + 1j * r) * psi, rtol=0, atol=1e-14)
    r = 10.0 ** (-13 / 500)
    with pytest.raises(SolverDivergence, match="stalled at step 7"):
        quantum._cayley_block(lambda v: (r / tau) * v, psi, tau, 7, ring, *views)


# one node, H = diag(rates) / tau, psi: the terms certifying steps 1..7 of
# the first series, and the block length the rule picks from them.  A
# uniform shrink certifies each further step within a few terms, so it
# picks the cap; a tail 1e-15 of psi that shrinks only 0.7x a term, like
# free_packet's cut at the box edge, makes long blocks dear; 3e-14 of a
# 0.5x tail puts blocks of 5 and 6 at 4 terms a step, and the tie goes to 5.
ORACLE_CASES = [((0.3, 0.3), (0.6, 0.8j), [28, 31, 34, 37, 40, 42, 45], 7),
                ((0.1, 0.7), (1.0, 1e-15), [15, 16, 18, 23, 35, 46, 57], 4),
                ((0.1, 0.5), (1.0, 3e-14), [15, 16, 18, 19, 20, 24, 29], 5)]


@pytest.mark.parametrize("rates, amplitudes, ms, pick", ORACLE_CASES)
def test_block_length_follows_the_first_series(rates, amplitudes, ms, pick, monkeypatch):
    """On one node with H = diag(rates) / tau the terms have closed-form
    norms, so the m_s of the first series and the k minimising m_k / k
    (the shorter on a tie) have closed forms (oracles.certifying_terms).
    _cayley_block returns those m_s, and evolve_pauli runs 7 steps, then
    blocks of the picked k and the rest.  With one rate r every block's
    terms shrink as the first's, so the run's applies are m_7 for the first
    block and m_k for each later one, and psi turns by (1 - i r)/(1 + i r)
    a step.  (With two, a block leaves the slow tail only certified
    against |b|, not against itself, so later series see another tail.)"""
    psi = np.array(amplitudes, dtype=complex).reshape(1, 1, 1, 2)
    rates = np.array(rates)
    tau = 0.05
    assert certifying_terms(rates, psi, 7) == ms
    assert min(range(1, 8), key=lambda k: ms[k - 1] * 420 // k) == pick  # 420 = lcm(1..7): exact ratios
    ring = np.empty((64,) + psi.shape, complex)
    states = np.empty((7,) + psi.shape, complex)
    views = ring.reshape(64, -1).view(float), states.reshape(7, -1).view(float)
    assert quantum._cayley_block(lambda v: v * (rates / tau), psi, tau, 1, ring, *views) == ms

    sc = load_scenario(SCENARIO_DIR / "larmor.json")
    geom = GridGeometry(sc.qd, sc.grid)
    monkeypatch.setattr(quantum, "pauli_generator",
                        lambda geom: quantum.GridOperator("H", lambda v: v * (rates / tau), True))
    applies = counted_generator(monkeypatch)
    lengths = series_lengths(monkeypatch)
    steps = 30
    traj = evolve_pauli(sc.qd, SpinorGrid(geom.spec, psi), 2.0 * tau, steps, geom=geom)
    later, rest = divmod(steps - 7, pick)
    assert lengths == [7] + [pick] * later + [rest] * (rest > 0)
    if rates[0] == rates[1]:
        assert len(applies) == ms[6] + later * ms[pick - 1] + (ms[rest - 1] if rest else 0)
        turn = ((1 - 1j * rates) / (1 + 1j * rates)) ** steps
        np.testing.assert_allclose(traj.final.psi, turn * psi, rtol=0, atol=1e-13)


def test_block_coefficients_are_exact_up_to_the_cap():
    """The c_{s,j} of the longest block, s <= MAX_STEP_BLOCK = 7, j <= 500,
    are the integers of (1 + w)^s (1 - w)^-s exactly, and so are the sums
    c_{s,j} + c_{s-1,j} of the residual weights; at s = 8 that sum passes
    2^53, where float64 stops holding every integer."""
    assert quantum.MAX_STEP_BLOCK == 7
    c, _ = quantum._block_coefficients(7)
    assert c.tolist() == [[cayley_coefficient(s, j) for j in range(501)] for s in range(1, 8)]
    top = cayley_coefficient(7, 500) + cayley_coefficient(6, 500)
    assert top < 2**53 < cayley_coefficient(8, 500) + cayley_coefficient(7, 500)


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
    x3 are the same at every node, those along x2 carry A_2 = q b x1 / hbar.
    curved_magnetic's 15^2 grid: every part varies, and the flux-form
    generator is still self-adjoint for the grid's weight, so its steps keep
    the norm; each is certified against the |b| of its own system, though a
    block's stopping rule scales all its steps by the |b| of the first."""
    sc = load_scenario(SCENARIO_DIR / "larmor.json")
    geom = GridGeometry(sc.qd, sc.grid)
    assert_steps_certified(sc, geom, sc.initial_grid(), 2.0)
    sc = load_scenario(SCENARIO_DIR / "flat_magnetic.json")
    geom = GridGeometry(sc.qd, GridSpec(((-3, 3, 8),) * 3, 0.0))
    assert_steps_certified(sc, geom, spinor_packet(geom), 0.1)
    sc = load_scenario(SCENARIO_DIR / "curved_magnetic.json")
    geom = GridGeometry(sc.qd, sc.grid)
    assert geom.spec.shape == (15, 15, 1)
    assert_steps_certified(sc, geom, spinor_packet(geom), 0.02)


# (grid, or None for the scenario's own, dt, steps, the block length that the
# first series picks, generator applies of the run in blocks and of the run in
# single steps); the 8^3 grid carries a spinor packet
BLOCK_CASES = {"larmor": (None, 0.1, 200, 7, 260, 1400), "free_packet": (None, 0.004, 100, 4, 519, 642),
               "flat_magnetic": (GridSpec(((-3, 3, 8),) * 3, 0.0), 0.05, 40, 7, 147, 600)}


def block_case(name):
    """The scenario, geometry, psi0, dt and steps of BLOCK_CASES[name]."""
    spec, dt, steps = BLOCK_CASES[name][:3]
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    geom = GridGeometry(sc.qd, spec or sc.grid)
    psi0 = spinor_packet(geom) if spec else sc.initial_grid()
    return sc, geom, psi0, dt, steps


def assert_same_trajectory(a, b, tol=1e-13):
    for row in ("norms", "sx", "sy", "sz", "widths"):
        assert np.max(np.abs(getattr(a, row) - getattr(b, row))) <= tol, row
    assert np.max(np.abs(a.final.psi - b.final.psi)) <= tol


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_step_blocks_follow_single_steps(name, monkeypatch):
    """Blocks of steps from one series give the trajectory of one series per
    step (the cap MAX_STEP_BLOCK set to 1) to 1e-13, in every observable and
    in the final state, with fewer generator applies.  The first series
    serves 7 steps and every later block, but the last, has the length
    picked from it: 7 on Larmor's node and on the 8^3 packet, 4 on
    free_packet at dt 0.004, whose cut Gaussian makes long blocks dear.
    Each run's apply count is pinned: it follows from the terms, the
    stopping rule and the length rule alone, not from the way the terms are
    summed into the states."""
    pick, block_applies, single_applies = BLOCK_CASES[name][3:]
    sc, geom, psi0, dt, steps = block_case(name)
    applies = counted_generator(monkeypatch)
    lengths = series_lengths(monkeypatch)
    assert quantum.MAX_STEP_BLOCK == 7
    blocks = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom)
    assert len(applies) == block_applies
    assert lengths[0] == 7 and set(lengths[1:-1]) == {pick} and sum(lengths) == steps
    monkeypatch.setattr(quantum, "MAX_STEP_BLOCK", 1)
    single = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom)
    assert len(applies) - block_applies == single_applies
    assert set(lengths[len(lengths) - steps:]) == {1}
    assert_same_trajectory(blocks, single)


@pytest.mark.parametrize("name", ["free_packet", "larmor"])
def test_a_ring_of_two_slots_gives_the_default_trajectory(name, monkeypatch):
    """With RING_VALUES = 1 the term ring has two slots, so each series is
    folded into its states two terms at a time, and the last ring of a
    series is often partial.  The trajectory is the default ring's (501
    slots on Larmor's node, one per term the series may take; 42 on
    free_packet's 383 nodes) to 1e-13, with the same applies."""
    sc, geom, psi0, dt, steps = block_case(name)
    applies = counted_generator(monkeypatch)
    default = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom)
    assert len(applies) == BLOCK_CASES[name][4]
    monkeypatch.setattr(quantum, "RING_VALUES", 1)
    two = evolve_pauli(sc.qd, psi0, dt, steps, geom=geom)
    assert len(applies) == 2 * BLOCK_CASES[name][4]
    assert_same_trajectory(default, two)


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
    """On a 7x7 and a 97x97 grid with a non-uniform weight, and on one node
    (no active axis, so no node density and width 0): each row of a stack
    of states, one of them zero in the middle of the stack, matches its own
    sums, and the zero state's row is zeros with no division warning.  The
    97x97 grid's 9,409 nodes are more than an einsum reduces unbuffered;
    there random spins average out, and the tilt psi_down += t psi_up keeps
    each <sigma_k> away from 0."""
    rng = np.random.default_rng(5)
    seven_by_seven = ((-0.8, 0.8, 7), (-0.7, 0.9, 7), (0.0, 0.0, 1))
    one_node = ((0.6, 0.6, 1), (-0.3, -0.3, 1), (0.0, 0.0, 1))
    large = ((-0.8, 0.8, 97), (-0.7, 0.9, 97), (0.0, 0.0, 1))
    for axes, tilt in ((seven_by_seven, 0.0), (one_node, 0.0), (large, 0.5 - 0.5j)):
        spec = GridSpec(axes, 0.0)
        geom = GridGeometry(curved_magnetic_scenario.qd, spec)
        assert np.ptp(geom.sqrtg) > 0.01 or np.max(np.abs(geom.sqrtg - 1.0)) > 0.01  # a weight other than 1
        stack = rng.standard_normal((4,) + spec.shape + (2,)) + 1j * rng.standard_normal((4,) + spec.shape + (2,))
        stack[..., 1] += tilt * stack[..., 0]
        stack[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = quantum._observables(geom, stack)
        assert rows.shape == (5, 4)
        assert rows[:, 2].tolist() == [0.0] * 5
        for k in range(4):  # a state's row does not depend on the stack around it
            np.testing.assert_array_equal(rows[:, k], quantum._observables(geom, stack[k][None])[:, 0])
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
    assert _metricity_residual(sc.background.jets((0.2, 0.1, 0.3, -0.2))) < 1e-12
    spec = GridSpec(((-1, 1, 5), (-1, 1, 5), (-1, 1, 5)), 0.0)
    geom = GridGeometry(sc.qd, spec)
    with pytest.raises(NonStaticMetric):
        pauli_generator(geom)


@pytest.mark.parametrize("changes, field", [
    ({"metric": [["1", "0", "0"], ["0", "1+0.01*x0*x0", "0"], ["0", "0", "1"]]}, "g22"),
    ({"Kgrav": {"3_00": "0.01*x0"}}, "K3_00"),
    ({"F": {"12": "b*(1+0.1*x0)"}}, "F12"),
    ({"A": ["0.1*x0", "0", "q*b/hbar*x1", "0"]}, "A0"),
], ids=["metric", "kgrav", "F", "A"])
def test_evolution_rejects_a_background_that_references_x0(changes, field):
    """evolve_pauli raises before its first step when the metric, a Kgrav
    slot, F or A references x0; A_0 = 0.1 x0 is a gauge choice, but the
    generator would still be frozen at the grid's time."""
    scn = json.loads((SCENARIO_DIR / "larmor.json").read_text())
    scn.update(changes)
    sc = load_scenario(scn)
    with pytest.raises(NonStaticMetric, match=f"^{field} references x0"):
        evolve_pauli(sc.qd, sc.initial_grid(), 0.1, 5)


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


def filled(geom, quantity):
    """A stored quantity, or a nested list of them, filled out to the grid:
    the list's axes first, then the grid shape."""
    if isinstance(quantity, list):
        return np.stack([filled(geom, q) for q in quantity])
    return np.broadcast_to(quantity, geom.spec.shape)


def test_geometry_spin_coefficients_match_points(curved_magnetic_scenario, node_chunk):
    sc = curved_magnetic_scenario
    geom = curved_7x7(sc)
    want = np.array([sc.qd.spin.coeff_values(p) for p in node_points(geom)])
    got = np.moveaxis(filled(geom, geom.c_coeffs), (0, 1), (-2, -1))
    assert got.shape == geom.spec.shape + (4, 3)
    np.testing.assert_allclose(got.reshape(-1, 4, 3), want, rtol=0, atol=1e-14)


def reference_geometry(sc, point):
    """sqrt|g|, d_lam sqrt|g|, g^-1, d_lam g^-1, A and d_i A_j from numpy
    det/inv of the metric values and symbolic derivatives: at one node, or
    at every node of a mesh (point = the coordinates x0..x3 as broadcast
    arrays), with the mesh's axes first."""
    if np.ndim(point[0]) == 0:
        def value(fld, expr):
            return eval_float(expr, point, fld.consts)
    else:
        def value(fld, expr):
            return fl.eval_array(expr, point, fld.consts)

    def fields(rows, lam=None):
        """The values, or the d_lam, of a nested list of fields, with the mesh's axes first."""
        out = np.array([[value(f, f.expr if lam is None else derive_expr(f.expr, lam)) for f in row] for row in rows])
        return np.moveaxis(out, (0, 1), (-2, -1))

    g = fields(sc.background.g)
    dg = np.stack([fields(sc.background.g, lam) for lam in range(4)], axis=-3)  # [..., lam, i, j]
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.linalg.det(g))
    dsqrtg = 0.5 * sqrtg[..., None] * np.einsum("...ij,...lji->...l", ginv, dg)
    dginv = -ginv[..., None, :, :] @ dg @ ginv[..., None, :, :]
    a = fields([sc.qd.a_fields])[..., 0, :]
    da = np.stack([fields([sc.qd.a_fields[1:]], i + 1)[..., 0, :] for i in range(3)], axis=-2)  # [..., i, j]
    return sqrtg, dsqrtg, ginv, dginv, a, da


@pytest.mark.parametrize("name, x3", [("curved_magnetic", 0.0), ("anisotropic", 0.4)])
def test_geometry_arrays_match_points(name, x3, node_chunk, monkeypatch):
    """The one-pass geometry against the per-node det/inv oracle.  The
    anisotropic metric depends on x3, which the grid leaves inactive at
    x3 = 0.4, so its d_3 sqrt|g| there must read zero."""
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
    assert geom.spec.active == [0, 1]
    assert_geometry_matches_points(sc, geom)
    if name == "anisotropic":
        assert abs(reference_geometry(sc, node_points(geom)[0])[1][3]) > 1e-3


def assert_geometry_matches_points(sc, geom):
    """Every stored quantity of geom, filled out to the grid, against the
    per-node det/inv oracle; d_i sqrt|g| along an inactive axis reads zero."""
    active = geom.spec.active
    inactive = [ax for ax in range(3) if ax not in active]
    sqrtg_n, d0sqrtg_n = filled(geom, geom.sqrtg), filled(geom, geom.d0sqrtg)
    dsqrtg_n = np.moveaxis(filled(geom, geom.dsqrtg), 0, -1)  # [..., i]
    ginv_n = np.moveaxis(filled(geom, geom.ginv), (0, 1), (-2, -1))  # [..., i, j]
    a_n = np.moveaxis(filled(geom, geom.a), 0, -1)  # [..., lam]
    close = dict(rtol=0, atol=1e-13)
    for idx, point in zip(np.ndindex(geom.spec.shape), node_points(geom)):
        sqrtg, dsqrtg, ginv, _, a, _ = reference_geometry(sc, point)
        np.testing.assert_allclose(sqrtg_n[idx], sqrtg, **close)
        np.testing.assert_allclose(d0sqrtg_n[idx], dsqrtg[0], **close)
        np.testing.assert_allclose(dsqrtg_n[idx][active], dsqrtg[1:][active], **close)
        np.testing.assert_allclose(ginv_n[idx], ginv, **close)
        np.testing.assert_allclose(a_n[idx], a, **close)
    for ax in inactive:
        assert not dsqrtg_n[..., ax].any()


GEOMETRY_SCENARIOS = [path.stem for path in sorted(SCENARIO_DIR.glob("*.json"))] + ["anisotropic", "breathing"]


@pytest.mark.parametrize("name", GEOMETRY_SCENARIOS)
def test_stored_geometry_matches_points_on_every_scenario(name, node_chunk):
    """Each shipped scenario and the anisotropic and breathing fixtures on a
    7x7 grid at x0 = 0.3: the quantities kept as numbers and those kept as
    grid arrays give the per-node values once filled out to the grid."""
    path = SCENARIO_DIR / f"{name}.json"
    sc = load_scenario(path if path.exists() else scenario_dict(name))
    assert_geometry_matches_points(sc, curved_7x7(sc))


def test_mesh4_is_read_only_views_of_the_axis_coordinates():
    """x0 broadcasts the grid's time and x_i its axis's coords(), with zero
    strides along every other axis: the values of a full meshgrid, with no
    grid memory, and no entry can be written."""
    spec = GridSpec(((-1.0, 1.0, 5), (0.0, 0.0, 1), (2.0, 3.0, 4)), 0.7)
    mesh = spec.mesh4()
    want = [np.full(spec.shape, 0.7), *np.meshgrid(*spec.coords(), indexing="ij")]
    for k, (got, full) in enumerate(zip(mesh, want)):
        np.testing.assert_array_equal(got, full)
        assert got.shape == spec.shape and not got.flags.writeable
        assert all(stride == 0 for ax, stride in enumerate(got.strides) if ax != k - 1), k
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0


def named_quantities(prefix, quantity):
    """(name, quantity) for a stored quantity or each of a nested list."""
    if isinstance(quantity, list):
        for k, item in enumerate(quantity):
            yield from named_quantities(f"{prefix}[{k}]", item)
    else:
        yield prefix, quantity


def test_constant_quantities_are_stored_once():
    """flat_magnetic at 24^3: A_2 = q b x1 / hbar is its one quantity that
    varies, so its value is the only grid data; every other quantity is one
    number that cannot be written to, and no derivative of g^{ij} or of A is
    kept.  The geometry keeps at most 0.3 MB (one grid array takes 0.11 MB,
    one for each of its 27 node rows would take 3.0 MB)."""
    sc = load_scenario(SCENARIO_DIR / "flat_magnetic.json")
    spec = GridSpec(((-4.0, 4.0, 24),) * 3, 0.0)
    GridGeometry(sc.qd, spec)  # the background's shared cache is filled once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        geom = GridGeometry(sc.qd, spec)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 0.3e6
    assert not {"dginv", "da", "d2"} & set(dir(geom))
    stored = [pair for name in ("sqrtg", "d0sqrtg", "dsqrtg", "ginv", "a", "c_coeffs")
              for pair in named_quantities(name, getattr(geom, name))]
    assert len(stored) == 1 + 1 + 3 + 9 + 4 + 12
    for name, q in stored:
        if name == "a[2]":
            assert isinstance(q, np.ndarray) and q.shape == spec.shape and q.strides[-1] == 8, name
        else:
            assert np.ndim(q) == 0 and np.size(q) == 1, name
            with pytest.raises((TypeError, ValueError)):
                q[...] = 0.0


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
    got = np.stack([filled(geom, v).reshape(-1) for v in vals], axis=-1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert sorted(dfi) == geom.spec.active == [0, 1]
    at_points = [component_jets(br, p, 1) for p in points]
    for i, arr in dfi.items():
        want_d = [c.fi[i].derive(i + 1).value for c in at_points]
        np.testing.assert_allclose(filled(geom, arr).reshape(-1), want_d, rtol=0, atol=1e-13)


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
        return [cj.f0, *cj.fi, cj.fbrev, *cj.phi] + [cj.fi[i].derive(i + 1) for i in active]

    return filled(geom, [q[0] for q in quantum.node_map(geom.mesh4, evaluate)])


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
    assert np.array_equal(filled(geom, vals + [dfi[i] for i in geom.spec.active]), want)


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
    """Both step-halving sweeps run on the one pair of levels 15x15x1 and
    29x29x1 on [-3, 3]^2.  On curved_magnetic the scenario grid is the
    coarse level; flat's 16^3 grid, like the probe box of a scenario
    without a grid, is built for the named displays alone."""
    built = []
    original = GridGeometry.__init__

    def counting(self, qd, spec):
        built.append(spec.shape)
        original(self, qd, spec)

    monkeypatch.setattr(GridGeometry, "__init__", counting)
    run_suites(load_scenario(SCENARIO_DIR / "curved_magnetic.json"), ["operators"])
    assert built == [(15, 15, 1), (29, 29, 1)]
    for sc in (load_scenario(scenario_dict("curved_magnetic")), load_scenario(SCENARIO_DIR / "flat.json")):
        built.clear()
        run_suites(sc, ["operators"])
        assert built == [(16, 16, 16), (15, 15, 1), (29, 29, 1)]


def test_named_display_probe_is_nonzero_on_a_grid_with_a_two_node_axis(monkeypatch):
    """The probe's window (1 - u^2)^8 vanishes at both nodes of a 2-node
    axis, so on such a scenario grid the named displays and the generator
    lock would compare zeros; the suite probes the box grid instead."""
    probes = []
    original = verify._smooth_grid

    def recording(spec, rng):
        probes.append(original(spec, rng))
        return probes[-1]

    monkeypatch.setattr(verify, "_smooth_grid", recording)
    scn = scenario_dict("flat")
    scn["grid"] = {"axes": [[-4.0, 4.0, 15], [-4.0, 4.0, 2], [0.0, 0.0, 1]], "time": 0.0}
    checks = {c.name: c for c in run_suites(load_scenario(scn), ["operators"])}
    assert np.any(probes[0].psi != 0)
    assert checks["operators.named_displays"].passed and checks["operators.generator_lock"].passed


@pytest.mark.parametrize("axes", [(9, 1, 1), (7, 6, 1), (5, 4, 6)], ids=["1_active", "2_active", "3_active"])
def test_verify_padded_d1_equals_the_shifted_copy_difference(axes):
    """The reference route's central difference from a zero-padded copy is
    the shifted-copy difference bit for bit, along every active axis."""
    spec = GridSpec(tuple((-1.0, 2.0, n) for n in axes), 0.0)
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(spec.shape + (2,)) + 1j * rng.standard_normal(spec.shape + (2,))
    for axis in spec.active:
        got, want = verify._d1(spec, arr, axis), d1(spec, arr, axis)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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
    return (shift(arr, axis, 1) - 2.0 * arr + shift(arr, axis, -1)) / (h * h)


def oracle_d_cross(geom, arr, ax1, ax2):
    h1, h2 = geom.spec.spacing(ax1), geom.spec.spacing(ax2)
    pp = shift(shift(arr, ax1, 1), ax2, 1)
    pm = shift(shift(arr, ax1, 1), ax2, -1)
    mp = shift(shift(arr, ax1, -1), ax2, 1)
    mm = shift(shift(arr, ax1, -1), ax2, -1)
    return (pp - pm - mp + mm) / (4.0 * h1 * h2)


def node_arrays(geom):
    """The geometry's quantities filled out to the grid, node axes first:
    sqrtg, d0sqrtg, dsqrtg[..., i], ginv[..., i, j], a[lam] and
    c_coeffs[..., lam, a]."""
    return types.SimpleNamespace(
        sqrtg=filled(geom, geom.sqrtg), d0sqrtg=filled(geom, geom.d0sqrtg),
        dsqrtg=np.moveaxis(filled(geom, geom.dsqrtg), 0, -1),
        ginv=np.moveaxis(filled(geom, geom.ginv), (0, 1), (-2, -1)),
        a=list(filled(geom, geom.a)),
        c_coeffs=np.moveaxis(filled(geom, geom.c_coeffs), (0, 1), (-2, -1)))


def oracle_flux_laplacian(geom, psi):
    """Delta0 psi in flux form, term by term from shifted copies, with
    G^{ij} = sqrt|g| g^{ij} and V^i = G^{ij} A_j: the face fluxes
    G^{ii}_{k+-1/2} (psi_{k+-1} - psi_k) / h^2, each face the mean of its
    nodes and the node's own value on the edge; per corner of the mixed
    pair i < j, (G^{ij} at k + s_i e_i + G^{ij} at k + s_j e_j) s_i s_j / (4 h_i h_j);
    -i (d_i (V^i psi) + V^i d_i psi) by central differences; and -A_i V^i;
    all over sqrt|g|."""
    active = geom.spec.active
    g = node_arrays(geom)
    big = g.sqrtg[..., None, None] * g.ginv
    a_sp = [g.a[i + 1] for i in range(3)]
    v = {i: sum(big[..., i, j] * a_sp[j] for j in active) for i in active}
    out = -sum(a_sp[i] * v[i] for i in active)[..., None] * psi if active else np.zeros_like(psi)
    for i in active:
        h = geom.spec.spacing(i)
        for s in (1, -1):
            edge = shift(np.ones(geom.spec.shape), i, s) == 0
            face = np.where(edge, big[..., i, i], 0.5 * (big[..., i, i] + shift(big[..., i, i], i, s)))
            out += face[..., None] * (shift(psi, i, s) - psi) / h**2
        out += -1j * (d1(geom.spec, v[i][..., None] * psi, i) + v[i][..., None] * d1(geom.spec, psi, i))
        for j in active:
            if j > i:
                for si in (1, -1):
                    for sj in (1, -1):
                        inner = shift(big[..., i, j], i, si) + shift(big[..., i, j], j, sj)
                        corner = shift(shift(psi, i, si), j, sj)
                        out += (si * sj * inner / (4.0 * h * geom.spec.spacing(j)))[..., None] * corner
    return geom.kinetic * out / g.sqrtg[..., None]


def oracle_laplacian(sc, geom, psi):
    """Delta0 psi in the expanded form, term by term, with the exact
    derivatives of reference_geometry: g^{ij} times second and mixed
    differences, -2i g^{ij} A_j d_i, -i g^{ij} d_i A_j - g^{ij} A_i A_j, and
    the divergence vector w_h = d_i g^{ih} + g^{ih} d_i sqrt|g| / sqrt|g|
    times (d_h - i A_h)."""
    active = geom.spec.active
    sqrtg, dsqrtg, ginv, dginv, a, da = reference_geometry(sc, geom.mesh4)
    a_sp = [a[..., i + 1] for i in range(3)]
    out = np.zeros_like(psi)
    for i in active:
        grad = d1(geom.spec, psi, i)
        out += ginv[..., i, i, None] * oracle_d2(geom, psi, i)
        w = np.zeros(geom.spec.shape)
        coef = np.zeros(geom.spec.shape)
        for j in active:
            if j != i:
                out += ginv[..., i, j, None] * oracle_d_cross(geom, psi, i, j)
            coef += 2.0 * ginv[..., i, j] * a_sp[j]
            w += dginv[..., j + 1, j, i] + ginv[..., j, i] * dsqrtg[..., j + 1] / sqrtg
            out -= (1j * ginv[..., i, j] * da[..., i, j] + ginv[..., i, j] * a_sp[i] * a_sp[j])[..., None] * psi
        out += -1j * coef[..., None] * grad + w[..., None] * (grad - 1j * a_sp[i][..., None] * psi)
    return geom.kinetic * out


def oracle_generator(geom, psi):
    g = node_arrays(geom)
    hmat = sum(g.c_coeffs[..., 0, a, None, None] * (1j * XI_ALL[a + 1]) for a in range(3))  # i C_0^a xi_a
    out = -0.5 * oracle_flux_laplacian(geom, psi) - g.a[0][..., None] * psi
    return out + np.einsum("...ab,...b->...a", hmat, psi)


def oracle_prequantum(geom, f, psi):
    """i (Y.psi - f0 P psi) with Y.psi = -f^i d_i psi - Y psi and
    P psi = (-i A0 + d0 sqrt|g| / 2 sqrt|g|) psi - i/2 Delta0 psi - C_0^a xi_a psi."""
    g = node_arrays(geom)
    vals, dfi = quantum._component_arrays(f, geom)
    vals = list(filled(geom, vals))
    dfi = {i: filled(geom, arr) for i, arr in dfi.items()}
    f0, fi, fbrev, phi = vals[0], vals[1:4], vals[4], vals[5:8]
    y0 = f0 * g.a[0] + fbrev - sum(fi[j] * g.a[j + 1] for j in range(3))
    ya = [phi[a] + f0 * g.c_coeffs[..., 0, a] - sum(fi[j] * g.c_coeffs[..., j + 1, a] for j in range(3))
          for a in range(3)]
    div = f0 * g.d0sqrtg / g.sqrtg
    for i in geom.spec.active:
        div += -dfi[i] - fi[i] * g.dsqrtg[..., i] / g.sqrtg
    ymat = sum(c[..., None, None] * XI_ALL[nu] for nu, c in enumerate([y0, *ya]))
    ymat = ymat + (-0.5 * div)[..., None, None] * np.eye(2)
    c0mat = sum(g.c_coeffs[..., 0, a, None, None] * XI_ALL[a + 1] for a in range(3))
    ypsi = -np.einsum("...ab,...b->...a", ymat, psi)
    for i in geom.spec.active:
        ypsi -= fi[i][..., None] * d1(geom.spec, psi, i)
    ppsi = (-1j * g.a[0] + g.d0sqrtg / (2.0 * g.sqrtg))[..., None] * psi
    ppsi += -0.5j * oracle_flux_laplacian(geom, psi)
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
    pairs = [(observed_laplacian(geom), oracle_flux_laplacian(geom, psi)),
             (pauli_generator(geom), oracle_generator(geom, psi))]
    for func in (sc.function("P1"), sc.function("H0prime"), bracket_as_function(f, g, sc)):
        pairs.append((prequantum(sc.qd, geom, func), oracle_prequantum(geom, func, psi)))
    for op, want in pairs:
        got = op.apply_fn(psi)
        assert got.shape == psi.shape
        scale = float(np.max(np.abs(want)))  # 0 for Delta0 on one node: then exact
        assert float(np.max(np.abs(got - want))) <= 1e-14 * scale, op.label


@pytest.mark.parametrize("name, box", [
    ("curved_magnetic", ((-3.0, 3.0), (-3.0, 3.0), 0.0)),
    ("anisotropic", ((-0.8, 0.8), (-0.7, 0.9), 0.4)),
])
def test_flux_form_is_the_expanded_laplacian_to_second_order(name, box):
    """The flux-form Delta0 and the expanded form, with the exact
    derivatives of g^{ij}, sqrt|g| and A, differ by O(h^2) on a smooth
    interior-supported psi: the difference shrinks at least 3.5x from 33 to
    65 nodes per axis (x3 inactive; on the anisotropic metric g^{12} != 0,
    so the mixed terms enter)."""
    sc = load_scenario(scenario_dict(name))
    (x_lo, x_hi), (y_lo, y_hi), x3 = box
    diffs = []
    for n in (33, 65):
        spec = GridSpec(((x_lo, x_hi, n), (y_lo, y_hi, n), (x3, x3, 1)), 0.0)
        geom = GridGeometry(sc.qd, spec)
        psi = _smooth_grid(spec, np.random.default_rng(12)).psi
        want = oracle_laplacian(sc, geom, psi)
        got = observed_laplacian(geom).apply_fn(psi)
        diffs.append(float(np.max(np.abs(got - want))) / float(np.max(np.abs(want))))
    assert diffs[0] < 1e-2 and diffs[0] / diffs[1] >= 3.5, diffs


SELF_ADJOINT_GRIDS = {
    "curved_magnetic_15^2": STENCIL_GRIDS["curved_magnetic_15x15x1"],
    "curved_magnetic_29^2": (STENCIL_GRIDS["curved_magnetic_15x15x1"][0],
                             GridSpec(((-3.0, 3.0, 29), (-3.0, 3.0, 29), (0.0, 0.0, 1)), 0.0)),
    "anisotropic_6x7x8": STENCIL_GRIDS["anisotropic_6x7x8"],
}


@pytest.mark.parametrize("name", sorted(SELF_ADJOINT_GRIDS))
def test_operators_flagged_symmetric_are_self_adjoint(name):
    """Delta0 and the Pauli generator are flagged symmetric, prequantum is
    not (its xi^i part is symmetric to O(h^2) only); every operator flagged
    symmetric has <a, O b> = <O a, b> to 1e-13 relative for the sqrt|g|
    weight on random spinors."""
    make, spec = SELF_ADJOINT_GRIDS[name]
    sc = make()
    spec = spec or sc.grid
    geom = GridGeometry(sc.qd, spec)
    ops = [observed_laplacian(geom), pauli_generator(geom), prequantum(sc.qd, geom, sc.function("P1"))]
    assert [op.symmetric for op in ops] == [True, True, False]
    rng = np.random.default_rng(21)
    a, b = (SpinorGrid(spec, rng.standard_normal(spec.shape + (2,)) + 1j * rng.standard_normal(spec.shape + (2,)))
            for _ in range(2))
    for op in (op for op in ops if op.symmetric):
        lhs = inner_product(geom, a, op(b))
        assert abs(lhs - inner_product(geom, op(a), b)) <= 1e-13 * abs(lhs), op.label


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
    out = np.einsum("...ab,...b->...a", np.broadcast_to(stencil.centre, psi.shape + (2,)), psi)
    for d, coef in stencil.live_offsets().items():
        dst, src = quantum._offset_slices(d)
        out[dst] += np.broadcast_to(coef, psi.shape[:-1])[dst][..., None] * psi[src]
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
    applied = [np.broadcast_to(coef, stencil.shape)[quantum._offset_slices(d)[0]] for d, coef in live.items()]
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


@pytest.mark.parametrize("name", sorted(NUMBER_PARTS_GRIDS))
def test_zero_products_are_left_out_with_the_same_parts(name, monkeypatch):
    """The generator's and prequantum(H0prime)'s stencils, whose products
    with an exact-zero number are left out (quantum._times), have the centre
    and offsets, value for value, of the stencils with every product
    formed, and apply as they do bit for bit.  On flat_magnetic,
    g^12 = g^32 = 0 keeps A_2 = q b x1 / hbar out of the generator's offsets
    along x1 and x3, which are numbers."""
    make, spec = NUMBER_PARTS_GRIDS[name]
    sc = make()
    geom = GridGeometry(sc.qd, spec or sc.grid)
    built = []
    original = quantum.Stencil.operator

    def recording(self, label, symmetric):
        op = original(self, label, symmetric)
        built.append((self, op))
        return op

    monkeypatch.setattr(quantum.Stencil, "operator", recording)
    pauli_generator(geom)
    prequantum(sc.qd, geom, sc.function("H0prime"))
    monkeypatch.setattr(quantum, "_times", lambda a, b, over=None: a * b if over is None else a * b / over)
    pauli_generator(geom)
    prequantum(sc.qd, geom, sc.function("H0prime"))
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(geom.spec.shape + (2,)) + 1j * rng.standard_normal(geom.spec.shape + (2,))
    shape = geom.spec.shape
    for (skipped, skipped_op), (formed, formed_op) in zip(built[:2], built[2:]):
        np.testing.assert_array_equal(np.broadcast_to(skipped.centre, shape + (2, 2)),
                                      np.broadcast_to(formed.centre, shape + (2, 2)))
        assert skipped.offsets.keys() == formed.offsets.keys()
        for d, coef in skipped.offsets.items():
            np.testing.assert_array_equal(np.broadcast_to(coef, shape), np.broadcast_to(formed.offsets[d], shape))
        np.testing.assert_array_equal(skipped_op.apply_fn(psi), formed_op.apply_fn(psi))
    if name.startswith("flat_magnetic") and "along" not in name:
        generator = built[0][0]
        for d in [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)]:
            assert np.ndim(generator.offsets[d]) == 0 and np.ndim(built[2][0].offsets[d]) == 3, d
