"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with -s to see them; the test name plus
PASSED/FAILED in -v output carries the same information).

Closed-form operator displays are coded here independently of the package's
operator assembly so the named-operator checks are a genuine dual route.
"""

import time

import numpy as np
import pytest

from cqm.background import Observer
from cqm.fieldlang import FieldDef, eval_float, eval_jet, parse, to_source
from cqm.hermitian import (
    HermitianField,
    invariant_combination,
    lie_bracket_y,
    pair_bracket,
    vertical_projection,
)
from cqm.jets import MULTI_INDICES, SIZES, value_array
from cqm.pauli import EPS, SIGMA, XI, XI_ALL
from cqm.quantum import (
    GridGeometry,
    GridSpec,
    evolve_pauli,
    inner_product,
    measure_frequency,
    observed_laplacian,
    pauli_generator,
    prequantum,
)
from cqm.scenario import load_scenario
from cqm.special import jacobi_residual
from cqm.units import DIMLESS
from cqm.verify import (
    _smooth_grid,
    assemble_pair,
    main_theorem_residual,
    random_raw_pair,
    random_special_function,
)

from conftest import SCENARIO_DIR, make_special, scenario_dict
from oracles import ad, extract, frame_curvature, gtilde
from test_fieldlang import CORPUS


def report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} failed ({detail})"


@pytest.fixture(scope="module")
def flat_sc():
    return load_scenario(scenario_dict("flat"))


@pytest.fixture(scope="module")
def flatb_sc():
    return load_scenario(scenario_dict("flat_magnetic"))


@pytest.fixture(scope="module")
def curved_sc():
    return load_scenario(scenario_dict("curved_magnetic"))


def test_criterion_01_pauli_algebra_lock():
    t0 = time.monotonic()
    worst = 0.0
    for a in range(3):
        for b in range(3):
            lhs = SIGMA[a] @ SIGMA[b]
            rhs = (1.0 if a == b else 0.0) * np.eye(2) + 1j * sum(EPS[a, b, c] * SIGMA[c] for c in range(3))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            comm = XI[a] @ XI[b] - XI[b] @ XI[a]
            structure = sum(EPS[a, b, c] * XI[c] for c in range(3))
            worst = max(worst, float(np.max(np.abs(comm - structure))))
            worst = max(worst, abs(gtilde(XI[a], XI[b]) - (1.0 if a == b else 0.0)))
    elapsed = time.monotonic() - t0
    report(1, "Pauli algebra lock", worst <= 1e-15 and elapsed < 1.0,
           f"max residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_jacobi_identity(flat_sc, curved_sc):
    t0 = time.monotonic()
    worst = 0.0
    for sc in (flat_sc, curved_sc):
        rng = np.random.default_rng([sc.seed, 2])
        consts = sc.background.constants.table()
        funcs = [random_special_function(rng, consts, name=f"J{i}") for i in range(3)]
        points = sc.sample_points(rng, 100)
        worst = max(worst, float(np.max(jacobi_residual(*funcs, sc.background, points.T))))
    elapsed = time.monotonic() - t0
    report(2, "Jacobi identity of the extended bracket", worst < 1e-8 and elapsed < 30.0,
           f"max cyclic residual {worst:.2e} over flat+curved, {elapsed:.1f}s")


def test_criterion_03_main_theorem(curved_sc, flatb_sc):
    t0 = time.monotonic()
    worst = 0.0
    n_pairs = 0
    n_evals = 0
    for sc in (flatb_sc, curved_sc):
        rng = np.random.default_rng([sc.seed, 3])
        consts = sc.background.constants.table()
        points = sc.sample_points(rng, 100)
        for t in range(10):
            f = random_special_function(rng, consts, name=f"A{t}")
            fp = random_special_function(rng, consts, name=f"B{t}")
            n_pairs += 1
            vec_res, mat_res = main_theorem_residual(f, fp, sc, points.T)
            worst = max(worst, float(np.max(vec_res)), float(np.max(mat_res)))
            n_evals += len(points)
    elapsed = time.monotonic() - t0
    report(3, "main theorem: from_special is a Lie-algebra isomorphism",
           worst < 1e-9 and n_pairs >= 20 and elapsed < 60.0,
           f"max componentwise residual {worst:.2e}, {n_pairs} pairs x 100 points, {elapsed:.1f}s")


def test_criterion_04_observer_independence(curved_sc):
    sc = curved_sc
    rng = np.random.default_rng([sc.seed, 4])
    consts = sc.background.constants.table()
    observers = [Observer.reference()]
    for t in range(5):
        observers.append(Observer(tuple(
            FieldDef(f"o{t}{i}", DIMLESS,
                     f"{rng.uniform(-0.4, 0.4):.6f} + {rng.uniform(-0.3, 0.3):.6f}*x{i + 1}",
                     consts)
            for i in range(3)
        )))
    funcs = [random_special_function(rng, consts, name=f"O{t}") for t in range(3)]
    points = sc.sample_points(rng, 100)
    worst = 0.0
    for f in funcs:
        vals = np.array([invariant_combination(f, sc.qd, o, points.T) for o in observers])
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
        worst = max(worst, float(np.max((np.max(vals, axis=0) - np.min(vals, axis=0)) / scale)))
    report(4, "observer independence of the invariant combination", worst < 1e-11,
           f"max spread {worst:.2e} across 6 observers x 100 points")


def test_criterion_05_curvature_identity(curved_sc):
    sc = curved_sc
    rng = np.random.default_rng([sc.seed, 5])
    points = sc.sample_points(rng, 100)
    b = sc.background.jets(points.T)
    rho = value_array(b.rho("moment", 0), (len(points),))  # [lam, mu, k, point]
    ad_rho = np.array([[ad(rho[lam, mu]) for mu in range(4)] for lam in range(4)])
    worst = float(np.max(np.abs(ad_rho - frame_curvature(b))))
    report(5, "curvature identity ad(rho) = frame curvature of Ktilde", worst < 1e-10,
           f"|ad(rho) - R[Ktilde]| {worst:.2e} at 100 curved points")


def test_criterion_06_isomorphism_machinery(curved_sc):
    sc = curved_sc
    qd = sc.qd
    rng = np.random.default_rng([sc.seed, 6])
    consts = sc.background.constants.table()
    ref = Observer.reference()
    p1 = random_raw_pair(rng, consts, "a")
    p2 = random_raw_pair(rng, consts, "b")
    y1 = assemble_pair(qd, p1[0], p1[1], ref)
    y2 = assemble_pair(qd, p2[0], p2[1], ref)
    points = sc.sample_points(rng, 100)
    cloud = points.T
    batch = cloud.shape[1:]
    back = vertical_projection(y1, qd, ref, cloud)
    worst_round = float(np.max(np.abs(back.values(batch) - p1[1](cloud, 0).values(batch))))
    xb, _ = lie_bracket_y(y1, y2, cloud)
    xp, mp = pair_bracket(p1, p2, qd, ref, cloud)
    worst_dual = float(np.max(np.abs(value_array(xb, batch) - value_array(xp, batch))))
    y_br = HermitianField(lambda p, n: lie_bracket_y(y1, y2, p, n)[0],
                          lambda p, n: lie_bracket_y(y1, y2, p, n)[1], False)
    proj = vertical_projection(y_br, qd, ref, cloud)
    worst_dual = max(worst_dual, float(np.max(np.abs(proj.values(batch) - mp.values(batch)))))
    report(6, "h[c]/j[c] inverses and pair-bracket dual route",
           worst_round < 1e-10 and worst_dual < 1e-10,
           f"round-trip {worst_round:.2e}, dual-route {worst_dual:.2e} at 100 points")


# --- independently coded closed forms for criterion 7 ------------------------


def closed_form_x(geom, lam):
    coord = geom.mesh4[lam]

    def apply_fn(psi):
        return coord[..., None] * psi

    return apply_fn


def closed_form_p1(geom, c_coeffs):
    dlog = np.asarray(geom.dsqrtg[0] / (2.0 * geom.sqrtg))
    cmat = np.zeros(geom.spec.shape + (2, 2), dtype=complex)
    for a in range(3):
        cmat += np.asarray(c_coeffs[1][a])[..., None, None] * XI_ALL[1 + a]

    def apply_fn(psi):
        h = geom.spec.spacing(0)
        d1 = np.zeros_like(psi)
        d1[:-1] += psi[1:]
        d1[1:] -= psi[:-1]
        d1 /= 2.0 * h
        return -1j * (d1 - np.einsum("...ab,...b->...a", cmat, psi) + dlog[..., None] * psi)

    return apply_fn


def closed_form_h0prime(geom, sc):
    lap = observed_laplacian(geom)
    a0 = geom.a[0]
    c = sc.background.constants
    b_vals = np.array([s.value for s in sc.background.magnetic_field((0, 0, 0, 0))])
    smat = sum(0.5 * c.u0.value * c.mu.value * b_vals[a] * SIGMA[a] for a in range(3))

    def apply_fn(psi):
        out = -0.5 * lap.apply_fn(psi) - np.asarray(a0)[..., None] * psi
        return out + np.einsum("ab,...b->...a", smat, psi)

    return apply_fn


def closed_form_spin_n(n_vec):
    smat = sum(0.5 * n_vec[a] * SIGMA[a] for a in range(3))

    def apply_fn(psi):
        return np.einsum("ab,...b->...a", smat, psi)

    return apply_fn


def test_criterion_07_named_operators(flatb_sc):
    sc = flatb_sc
    qd = sc.qd
    spec = GridSpec(((-4.0, 4.0, 32), (-4.0, 4.0, 32), (-4.0, 4.0, 32)), 0.0)
    geom = GridGeometry(qd, spec)
    probe = _smooth_grid(spec, np.random.default_rng(7))
    n_vec = np.array([0.6, 0.0, 0.8])
    spin_f = make_special(sc.background.constants.table(),
                          phi=tuple(str(-v) for v in n_vec), name="spin_n")
    cases = {
        "x1": (sc.function("x1"), closed_form_x(geom, 1)),
        "x0": (sc.function("x0"), closed_form_x(geom, 0)),
        "P1": (sc.function("P1"), closed_form_p1(geom, geom.c_coeffs)),
        "H0prime": (sc.function("H0prime"), closed_form_h0prime(geom, sc)),
        "spin_n": (spin_f, closed_form_spin_n(n_vec)),
    }
    worst = 0.0
    for name, (f, closed) in cases.items():
        got = prequantum(qd, geom, f).apply_fn(probe.psi)
        want = closed(probe.psi)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    gen = pauli_generator(geom)
    oph = prequantum(qd, geom, sc.function("H0prime"))
    lock = float(np.max(np.abs(gen.apply_fn(probe.psi) - oph.apply_fn(probe.psi))))
    lock /= max(1.0, float(np.max(np.abs(probe.psi))))
    report(7, "named operators match displays; generator lock",
           worst < 1e-10 and lock < 1e-10,
           f"named {worst:.2e}, lock {lock:.2e} on a 32^3 flat grid")


def test_criterion_08_symmetry_h_sweep(curved_sc):
    sc = curved_sc
    qd = sc.qd

    def defect(n, name, seed):
        spec = GridSpec(((-3.0, 3.0, n), (-3.0, 3.0, n), (0.0, 0.0, 1)), 0.0)
        geom = GridGeometry(qd, spec)
        rng = np.random.default_rng(seed)
        a = _smooth_grid(spec, rng)
        b = _smooth_grid(spec, rng)
        op = prequantum(qd, geom, sc.function(name))
        return abs(inner_product(geom, a, op(b)) - inner_product(geom, op(a), b))

    ratios = {}
    for name in ("P1", "H0prime"):
        d1 = defect(17, name, 88)
        d2 = defect(33, name, 88)
        ratios[name] = float("inf") if max(d1, d2) < 1e-14 else d1 / d2
    ok = all(r >= 3.5 for r in ratios.values())
    report(8, "pre-quantum operators symmetric to O(h^2)", ok,
           f"h-sweep ratios P1 {ratios['P1']:.2f}, H0prime {ratios['H0prime']:.2f}")


def test_criterion_09_larmor_precession():
    t0 = time.monotonic()
    sc = load_scenario(SCENARIO_DIR / "larmor.json")
    grid = sc.initial_grid()
    c = sc.background.constants
    omega = c.u0.value * c.mu.value * 0.4
    dt = 0.1
    periods = 21
    steps = int(np.ceil(periods * 2 * np.pi / omega / dt))
    traj = evolve_pauli(sc.qd, grid, dt, steps)
    measured = measure_frequency(traj.sx, dt)
    drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
    elapsed = time.monotonic() - t0
    rel = abs(measured - omega) / omega
    profile = float(np.max(np.abs(traj.sx - np.cos(omega * traj.times))))
    report(9, "Larmor precession frequency",
           rel < 1e-3 and drift < 1e-12 and profile < 0.02 and elapsed < 10.0,
           f"rel err {rel:.2e} over {periods} periods, |sx - cos| {profile:.1e}, "
           f"norm drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_10_free_packet_dispersion():
    sc = load_scenario(SCENARIO_DIR / "free_packet.json")
    grid = sc.initial_grid()
    c = sc.background.constants
    diffusivity = c.u0.value * c.hbar.value / (2.0 * c.m.value)
    dt, steps = 0.004, 3600
    traj = evolve_pauli(sc.qd, grid, dt, steps)
    sigma0 = traj.widths[0]
    box_width = 32.0
    worst = 0.0
    for k in range(0, len(traj.times), 100):
        sigma = traj.widths[k]
        if sigma >= box_width / 4:
            break
        t = traj.times[k]
        analytic = sigma0 * np.sqrt(1.0 + (diffusivity * t / sigma0**2) ** 2)
        worst = max(worst, abs(sigma - analytic) / analytic)
    drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
    grew = traj.widths[-1] > 2.5 * sigma0
    report(10, "free-packet dispersion law", worst < 0.01 and drift < 1e-12 and grew,
           f"max width deviation {worst:.2%}, growth x{traj.widths[-1] / sigma0:.1f}, drift {drift:.1e}")


def test_criterion_11_jet_kernel_fd_convergence():
    corpus = CORPUS[:20]
    rng = np.random.default_rng(11)
    slots = 0
    agree_worst = 0.0
    checked = 0
    converged = 0
    for src in corpus:
        ast = parse(src)
        point = rng.uniform(0.25, 0.75, 4)
        try:
            j = eval_jet(ast, point, 3, {})
        except Exception:
            continue

        def f(p):
            return eval_float(ast, p, {})

        for alpha in MULTI_INDICES[1:SIZES[3]]:
            exact = extract(j, alpha)
            errs = []
            for h in (2e-2, 1e-2):
                fd = _fd(f, point, alpha, h)
                errs.append(abs(fd - exact))
            slots += 1
            agree_worst = max(agree_worst, errs[1] / (1.0 + abs(exact)))
            floor = 1e-9 * (1.0 + abs(exact))
            if errs[0] < floor:
                # FD is exact here (low-degree polynomial slot): agreement
                # already at roundoff, nothing to converge
                continue
            checked += 1
            if errs[1] <= errs[0] / 3.0 or errs[1] < floor:
                converged += 1
    ok = slots >= 600 and agree_worst < 2e-2 and checked >= 30 and converged == checked
    report(11, "jet kernel matches FD oracles with O(h^2) convergence", ok,
           f"{slots} slots agree to {agree_worst:.1e}; {converged}/{checked} non-exact slots converged")


def _fd(f, point, alpha, h):
    point = np.asarray(point, dtype=float)
    vars_ = [v for v in range(4) for _ in range(alpha[v])]

    def rec(fn, vs):
        if not vs:
            return fn
        v, rest = vs[0], vs[1:]

        def dfn(p):
            pp, pm = p.copy(), p.copy()
            pp[v] += h
            pm[v] -= h
            return (rec(fn, rest)(pp) - rec(fn, rest)(pm)) / (2 * h)

        return dfn

    return rec(f, vars_)(point)


def test_criterion_12_parser_corpus():
    rng = np.random.default_rng(12)
    assert len(CORPUS) >= 50
    worst = 0.0
    for src in CORPUS:
        ast = parse(src)
        assert parse(to_source(ast)) == ast
        for _ in range(4):
            point = rng.uniform(0.15, 0.85, 4)
            try:
                direct = eval_float(ast, point, {})
            except Exception:
                continue
            via = eval_jet(ast, point, 0, {}).value
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(via - direct) / scale)
    report(12, "parser round-trip and evaluation oracle", worst <= 1e-15,
           f"50-expression corpus, max relative deviation {worst:.1e}")
