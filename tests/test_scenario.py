import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cqm.background import PhasePoint
from cqm.quantum import GridGeometry, SpinorGrid
from cqm.scenario import ScenarioError, load_scenario
from cqm.special import component_jets, eval_special
from cqm.verify import SUITES, TOLERANCES, run_suites

from conftest import SCENARIO_DIR, scenario_dict
from oracles import grid_norm


def test_load_from_file():
    sc = load_scenario(SCENARIO_DIR / "flat.json")
    assert sc.samples == 100
    assert sc.background.constants.m.value == 1.0
    assert "reference" in sc.observers and "drift" in sc.observers


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario.json")


def test_invalid_json_string():
    with pytest.raises(ScenarioError):
        load_scenario("{not json")


def test_defaults():
    sc = load_scenario({})
    pt = (0.1, 0.2, 0.3, 0.4)
    b = sc.background.jets(pt)
    assert b.metric(0)[0][0].value == 1.0
    assert b.metric(0)[0][1].value == 0.0
    assert sc.background.fields_constant


def test_bad_metric_symmetry():
    scn = scenario_dict("flat")
    scn["metric"] = [["1", "x1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(ScenarioError) as err:
        load_scenario(scn)
    assert "symmetric" in str(err.value)


@pytest.mark.parametrize("diagonal, message", [
    (("1e200", "1e200", "1e200"), "det g = inf is not a positive finite number"),
    (("1e-200", "1e-200", "1e-200"), "det g = 0.0 is not a positive finite number"),
    (("-1", "1", "1"), "det g = -1.0 is not a positive finite number"),
    (("1e200", "1e200", "1e-200"), "g^-1 is not finite (det g = 1e+200)"),  # cofactor g11 g22 overflows
], ids=["det_overflows", "det_underflows", "det_negative", "inverse_overflows"])
def test_constant_metric_with_unusable_volume_is_rejected(diagonal, message):
    scn = scenario_dict("flat")
    scn["metric"] = [[diagonal[i] if i == j else "0" for j in range(3)] for i in range(3)]
    with pytest.raises(ScenarioError) as err:
        load_scenario(scn)
    assert str(err.value) == "metric: " + message


def test_bad_kgrav_key():
    scn = scenario_dict("flat")
    scn["Kgrav"] = {"4_00": "1"}
    with pytest.raises(ScenarioError) as err:
        load_scenario(scn)
    assert "Kgrav" in str(err.value)


def test_two_kgrav_keys_for_one_slot_are_rejected():
    """K^1_{02} and K^1_{20} are one symmetric slot: a second key for it
    would silently replace the first."""
    with pytest.raises(ScenarioError, match="Kgrav keys '1_02' and '1_20'"):
        load_scenario({"Kgrav": {"1_02": "0.3", "1_20": "0.7"}})


def test_bad_f_key():
    scn = scenario_dict("flat")
    scn["F"] = {"21": "1"}
    with pytest.raises(ScenarioError) as err:
        load_scenario(scn)
    assert "F key" in str(err.value)


def test_parse_error_location_reported():
    scn = scenario_dict("flat")
    scn["A"] = ["0", "x1 + * 2", "0", "0"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(scn)
    assert "A[1]" in str(err.value)


def test_unknown_constant_in_field():
    scn = scenario_dict("flat")
    scn["metric"] = [["1+nope", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(ScenarioError):
        load_scenario(scn)


def test_builtin_momentum_includes_potential(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    # P2 builtin: fbrev = A_2 = (q b / hbar) x1
    p = PhasePoint((0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    val = eval_special(sc.function("P2"), sc.background, p)
    assert val == pytest.approx(0.4 * 0.5)


def test_builtin_h0prime_spin_term(flat_magnetic_scenario):
    sc = flat_magnetic_scenario
    c = sc.background.constants
    f = sc.function("H0prime")
    # phi = -u0 mu B_flat: with B = (0, 0, 0.4)
    p = PhasePoint((0, 0, 0, 0), (0, 0, 0), (0, 0, 1.0))
    val = eval_special(f, sc.background, p)
    assert val == pytest.approx(-c.u0.value * c.mu.value * 0.4)


def test_builtin_h0prime_curved_spin_term(curved_magnetic_scenario):
    sc = curved_magnetic_scenario
    f = sc.function("H0prime")
    c = sc.background.constants
    pt = (0.0, 0.5, 0.2, -0.1)
    b = [s.value for s in sc.background.magnetic_field(pt)]
    cj = component_jets(f, pt, 1)
    for a in range(3):
        assert cj.phi[a].value == pytest.approx(-c.u0.value * c.mu.value * b[a])
    assert cj.f0.value == 1.0 and [j.value for j in cj.fi] == [0.0, 0.0, 0.0]
    assert cj.fbrev.value == pytest.approx(-sc.qd.a_fields[0](pt))


def test_spin_n_function_entry(flat_scenario):
    scn = scenario_dict("flat")
    scn["functions"] = {"sz": {"builtin": "spin_n", "n": ["0", "0", "1"]}}
    sc = load_scenario(scn)
    f = sc.function("sz")
    assert [c((0, 0, 0, 0)) for c in f.phi] == [0.0, 0.0, -1.0]
    with pytest.raises(ScenarioError):
        load_scenario({"functions": {"bad": {"builtin": "nope"}}})


def test_custom_function_entry():
    scn = scenario_dict("flat")
    scn["functions"] = {"mine": {"f0": "0.2", "fi": ["x1", "0", "0"], "fbrev": "x2",
                                 "phi": ["0", "0.1", "0"]}}
    sc = load_scenario(scn)
    f = sc.function("mine")
    assert f.f0((0, 0, 0, 0)) == 0.2
    assert f.fi[0]((0, 1.5, 0, 0)) == 1.5
    with pytest.raises(ScenarioError):
        sc.function("absent")


def test_initial_grid_normalized():
    """psi0 over its norm under the geometry's sqrt|g| weight, bit for bit,
    on a flat and two curved metrics: initial_grid reads sqrt|g| off an
    order-0 pass of its own, which is the value slot of the geometry's
    order-1 pass."""
    anisotropic = scenario_dict("anisotropic")
    anisotropic["grid"] = {"axes": [[-1, 1, 7], [-1.5, 1, 6], [-1, 1.5, 5]], "time": 0.3}
    for scn in (json.loads((SCENARIO_DIR / "free_packet.json").read_text()),
                json.loads((SCENARIO_DIR / "curved_magnetic.json").read_text()), anisotropic):
        scn["grid"].setdefault("psi0", [["exp(-x1*x1-0.5*x2*x2)", "0.3*x1"], ["0.5", "x2*exp(-x1*x1)"]])
        sc = load_scenario(scn)
        grid = sc.initial_grid()
        geom = GridGeometry(sc.qd, sc.grid)
        raw = np.stack([real.eval_array(geom.mesh4) + 1j * imag.eval_array(geom.mesh4)
                        for real, imag in sc.psi0.components], axis=-1)
        assert np.array_equal(grid.psi, raw / grid_norm(geom, SpinorGrid(sc.grid, raw)))
        assert grid_norm(geom, grid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("expr", ["log(x1-5)", "1/x1", "exp(1000*x1)"],
                         ids=["log_domain", "division_by_zero", "overflow"])
def test_initial_grid_rejects_nonfinite_psi0(expr):
    scn = scenario_dict("flat")
    scn["grid"] = {"axes": [[-1, 1, 5], [-0.5, 0.5, 1], [-0.5, 0.5, 1]], "psi0": [[expr, "0"], ["1", "0"]]}
    sc = load_scenario(scn)
    with pytest.raises(ScenarioError, match="psi0 is not finite on the grid"):
        sc.initial_grid()


@pytest.mark.parametrize("samples", [0, -1])
def test_suite_samples_below_one_rejected(samples):
    scn = scenario_dict("flat")
    scn["suite"]["samples"] = samples
    with pytest.raises(ScenarioError, match="suite.samples must be a positive integer"):
        load_scenario(scn)


def test_sample_points_deterministic():
    sc1 = load_scenario(scenario_dict("flat"))
    sc2 = load_scenario(scenario_dict("flat"))
    rng1 = np.random.default_rng(sc1.seed)
    rng2 = np.random.default_rng(sc2.seed)
    assert np.array_equal(sc1.sample_points(rng1), sc2.sample_points(rng2))


def test_shipped_scenarios_load():
    """Every shipped scenario loads and passes the five point suites (the
    operators suite is left out for time)."""
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        checks = run_suites(load_scenario(path), [s for s in SUITES if s != "operators"])
        failed = [(c.name, c.max_residual) for c in checks if not c.passed]
        assert checks and not failed, (path.name, failed)


def test_every_check_reads_its_bound_from_the_table():
    """All suites together emit each name of TOLERANCES once and no other,
    and exactly the convergence (`*_ratio`) checks compare with >=."""
    sc = load_scenario(SCENARIO_DIR / "curved_magnetic.json")
    sc.samples = 5
    checks = run_suites(sc)
    assert sorted(c.name for c in checks) == sorted(TOLERANCES)
    assert {c.name for c in checks if c.comparator == "ge"} == {n for n in TOLERANCES if n.endswith("_ratio")}
    assert all(c.to_json()["tolerance"] == TOLERANCES[c.name] for c in checks)


def test_json_list_text_is_a_shape_error():
    with pytest.raises(ScenarioError, match="the scenario must be a mapping"):
        load_scenario("[1, 2]")


@pytest.mark.parametrize("section", [
    {"constants": 3}, {"constants": {"m": [1]}}, {"constants": {"b": {"value": [1]}}},
    {"constants": {"b": {"value": 1, "dim": {"l": "1"}}}}, {"metric": [["1"], ["1"], ["1"]]},
    {"Kgrav": [1]}, {"F": [1]}, {"observers": 5}, {"functions": {"f": {"fi": ["1"]}}},
    {"functions": {"f": {"builtin": "spin_n", "n": 5}}}, {"grid": 5},
    {"grid": {"axes": [[0, 1, 2]] * 3, "time": [1]}}, {"grid": {"axes": [[0, 1, 2]] * 3, "psi0": [1, 2]}},
    {"suite": 3}, {"suite": {"box": {}}}, {"suite": {"seed": {}}},
])
def test_malformed_section_is_a_scenario_error(section):
    with pytest.raises(ScenarioError):
        load_scenario(section)


@pytest.mark.parametrize("section, where", [
    ({"F": {"12": "exp(1000)"}}, "F[12]"),
    ({"A": ["0", "1e200*1e200", "0", "0"]}, "A[1]"),
    ({"functions": {"f": {"f0": "log(0)"}}}, "functions[f].f0"),
    ({"observers": {"o": ["sin(1e308*10)", "0", "0"]}}, "observers[o]"),
])
def test_constant_that_is_not_a_finite_number_is_a_scenario_error(section, where):
    with pytest.raises(ScenarioError, match=re.escape(f"{where}: the constant ") + ".* is not a finite number"):
        load_scenario(section)


def test_negative_seed_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="suite.seed must be a nonnegative integer, got -1"):
        load_scenario({"suite": {"seed": -1}})
    assert load_scenario({"suite": {"seed": 0}}).seed == 0


def test_grid_axes_must_be_finite_whole_node_counts():
    for axis in ([0, 1, 2.5], [0, float("nan"), 3], [0, 1, "3"]):
        with pytest.raises(ValueError, match="bad axis"):
            load_scenario({"grid": {"axes": [axis, [0, 1, 2], [0, 1, 2]]}})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_SECTIONS = ("constants", "metric", "Kgrav", "F", "observers", "A", "functions", "grid", "suite")
_SCENARIO = st.fixed_dictionaries({}, optional={
    **{name: _JSON for name in _SECTIONS},
    "grid": _JSON | st.fixed_dictionaries({}, optional={key: _JSON for key in ("axes", "time", "psi0")}),
    "suite": _JSON | st.fixed_dictionaries({}, optional={key: _JSON for key in ("samples", "seed", "box")}),
})


@settings(max_examples=100, deadline=None)
@given(scn=_SCENARIO)
@example(scn={"suite": {"samples": math.inf}})
@example(scn={"constants": {"b": {"value": 1, "dim": {"l": math.inf, "t": 0, "m": 0}}}})
@example(scn={"metric": [["log(0)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
@example(scn={"F": {"12": "1/0"}})
def test_loader_raises_only_scenario_errors(scn):
    """Any JSON value in any section either loads or is a ScenarioError (a
    ValueError); never a TypeError, KeyError, AttributeError or IndexError."""
    try:
        load_scenario(scn)
    except ValueError:
        pass
