import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SCENARIO_DIR, scenario_dict
from oracles import read_snapshot

CLI = [sys.executable, "-m", "cqm.cli"]
SRC = str(SCENARIO_DIR.parent / "src")


def run_cli(*args, env=None):
    """Run the CLI in a child process that imports cqm from this checkout's
    src (pytest's own pythonpath setting does not reach the child)."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, full_env.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=full_env)


def test_verify_flat_quick_suites(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", str(SCENARIO_DIR / "flat.json"), "--suite", "background",
                  "--suite", "observer", "--samples", "25", "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["samples"] == 25
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("background.") for n in names)


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = run_cli("verify", str(SCENARIO_DIR / "flat.json"), "--suite", "curvature",
                      "--samples", "20", "--seed", "99", "--out", str(path))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_verify_corrupted_metricity_fails(tmp_path):
    scn = scenario_dict("curved_magnetic")
    scn["Kgrav"] = {"1_01": "0.3*x1"}  # a symmetric time slot the metric does not have
    scn_path = tmp_path / "broken.json"
    scn_path.write_text(json.dumps(scn))
    res = run_cli("verify", str(scn_path), "--suite", "background", "--samples", "10",
                  "--out", str(tmp_path / "rep.json"))
    assert res.returncode == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "background.metricity" in failing


@pytest.mark.parametrize("argv", [["bracket", "x1", "P1", "--at", "0,0,0,0"], ["verify", "--suite", "jacobi"]],
                         ids=["bracket", "verify_jacobi"])
def test_non_metric_connection_is_a_load_error_for_the_spin_part(tmp_path, argv):
    """The spin curvature goes through the spin connection, so a K whose
    frame coefficients are not antisymmetric stops both commands with one
    error line, as `verify --suite curvature` does."""
    scn = json.loads((SCENARIO_DIR / "flat_magnetic.json").read_text())
    scn["Kgrav"] = {"1_01": "0.4"}
    scn_path = tmp_path / "nonmetric.json"
    scn_path.write_text(json.dumps(scn))
    res = run_cli(argv[0], str(scn_path), *argv[1:])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: frame coefficients not antisymmetric at lambda=0 (which=moment)"]


# the Levi-Civita slots that scenarios/curved_magnetic.json once listed by hand
_W = "0.1*x1/(1+0.1*x1*x1)"
_HAND_SLOTS = {"1_11": _W, "1_22": f"-({_W})", "1_33": f"-({_W})", "2_12": _W, "3_13": _W}


@pytest.mark.parametrize("kgrav, message", [
    (_HAND_SLOTS, "Kgrav key '1_11': the metric fixes the spatial slots; only i_00 and i_0j are free"),
    ("auto", "Kgrav must be a mapping, got 'auto'"),
], ids=["spatial_keys", "auto"])
def test_kgrav_slots_the_metric_fixes_are_a_load_error(kgrav, message):
    """The bundle derives the slots the metric fixes: a scenario that sets
    them, or asks for them by "auto", is one `error:` line at load."""
    scn = json.loads((SCENARIO_DIR / "curved_magnetic.json").read_text())
    scn["Kgrav"] = kgrav
    rc, out, err = _main("verify", json.dumps(scn), "--suite", "background")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("section", [{"Kgrav": {"4_00": "1"}}, {"F": {"05": "1"}}], ids=["kgrav", "f"])
def test_out_of_range_key_is_a_load_error_under_python_O(section):
    """Key checks survive `python -O`, which strips asserts: an index out of
    range is one `error:` line and exit 2, not an IndexError."""
    res = run_cli("verify", json.dumps(section), "--suite", "background", env={"PYTHONOPTIMIZE": "1"})
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: bad ")
    assert len(res.stderr.splitlines()) == 1, res.stderr


def test_verify_usage_errors():
    res = run_cli("verify", "missing_scenario.json")
    assert res.returncode == 2
    assert "error" in res.stderr
    res2 = run_cli("verify", str(SCENARIO_DIR / "flat.json"), "--suite", "bogus")
    assert res2.returncode == 2


def test_bracket_command():
    res = run_cli("bracket", str(SCENARIO_DIR / "flat.json"), "x1", "P1", "--at", "0,0,0,0")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["fbrev"]["value"] == pytest.approx(1.0)
    assert out["fbrev"]["dim"] == {"l": "0", "t": "0", "m": "0"}
    assert out["fi"]["value"] == [0.0, 0.0, 0.0]
    # antisymmetry: [F, F] = 0
    res2 = run_cli("bracket", str(SCENARIO_DIR / "flat.json"), "P1", "P1", "--at", "0.3,0.1,0.2,0.5")
    vals = json.loads(res2.stdout)
    assert vals["fbrev"]["value"] == 0.0


def test_bracket_unknown_name():
    res = run_cli("bracket", str(SCENARIO_DIR / "flat.json"), "x1", "nope", "--at", "0,0,0,0")
    assert res.returncode == 2


def test_evolve_larmor(tmp_path):
    out_dir = tmp_path / "larmor"
    # ~6 precession periods; the frequency estimate needs a few of them
    res = run_cli("evolve", str(SCENARIO_DIR / "larmor.json"), "--steps", "1400",
                  "--dt", "0.1", "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["norm_drift"] < 1e-12
    assert summary["measured_frequency"] == pytest.approx(summary["expected_frequency"], rel=1e-3)
    lines = (out_dir / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,norm,sx,sy,sz,width"
    assert len(lines) == 1402
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(1.0)  # sx(0) = 1 for (1,1)/sqrt(2)


def test_evolve_snapshots(tmp_path):
    """Snapshots at steps 0, 5 and 10 of dt 0.1, each header with its step's
    time (CONVENTIONS.md, "Snapshot files")."""
    out_dir = tmp_path / "snaps"
    res = run_cli("evolve", str(SCENARIO_DIR / "larmor.json"), "--steps", "10",
                  "--dt", "0.1", "--out", str(out_dir), "--snapshot-every", "5")
    assert res.returncode == 0, res.stderr
    snaps = sorted(out_dir.glob("snapshot_*.bin"))
    assert [s.name for s in snaps] == ["snapshot_000000.bin", "snapshot_000005.bin",
                                       "snapshot_000010.bin"]
    assert [read_snapshot(s).spec.time for s in snaps] == [0.0, 0.5, 1.0]
    grid = read_snapshot(snaps[0])
    assert grid.psi.shape == (1, 1, 1, 2)
    assert abs(np.linalg.norm(grid.psi.ravel()) - 1.0) < 1e-12


def test_evolve_missing_grid(tmp_path):
    scn = scenario_dict("flat")
    path = tmp_path / "nogrid.json"
    path.write_text(json.dumps(scn))
    res = run_cli("evolve", str(path), "--steps", "5", "--dt", "0.1",
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_evolve_too_large_dt_exits_1_with_error_line(tmp_path):
    """A step at which the Cayley iteration does not contract is a solver
    failure: exit 1, one error line, before any overflow, and no output
    directory."""
    out = tmp_path / "out"
    res = run_cli("evolve", str(SCENARIO_DIR / "free_packet.json"), "--dt", "0.008", "--steps", "2",
                  "--out", str(out))
    assert res.returncode == 1, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "reduce dt" in lines[0], res.stderr
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("steps, message", [
    (10**10, "error: out of memory: "),  # 373 GiB of observables
    (10**20, "error: Maximum allowed dimension exceeded"),
])
def test_evolve_steps_too_many_to_record_is_a_load_error(tmp_path, steps, message):
    """A --steps whose observable record cannot be allocated: exit 2 with one
    error line and no output directory."""
    out = tmp_path / "out"
    rc, stdout, stderr = _main("evolve", str(SCENARIO_DIR / "larmor.json"), "--steps", str(steps),
                               "--dt", "0.1", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith(message), stderr
    assert not out.exists()


def _scenario_file(tmp_path, name, **changes):
    scn = json.loads((SCENARIO_DIR / "larmor.json").read_text())
    scn.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(scn))
    return str(path)


@pytest.mark.parametrize("case", ["bracket_nan_point", "bracket_far_point", "evolve_negative_steps",
                                  "evolve_nan_dt", "evolve_metric_not_positive", "evolve_nonfinite_psi0",
                                  "verify_zero_samples", "verify_negative_samples",
                                  "verify_out_in_missing_dir", "evolve_out_is_a_file", "verify_directory",
                                  "verify_short_metric_row", "verify_observer_not_a_list",
                                  "verify_function_not_a_mapping", "verify_a_not_a_list",
                                  "verify_grid_axis_not_a_number", "bracket_grid_axis_not_a_number",
                                  "verify_top_level_list", "verify_list_text", "verify_nonfinite_box",
                                  "evolve_nonfinite_time"])
def test_bad_input_exits_2_with_error_line(tmp_path, case):
    larmor = str(SCENARIO_DIR / "larmor.json")
    out = ["--out", str(tmp_path / "out")]
    (tmp_path / "a_file").write_text("")
    (tmp_path / "list.json").write_text("[1, 2]")
    bad_axes = {"axes": [[0, 1, "x"], [0, 1, 2], [0, 1, 2]]}

    def verify_bad(name, **changes):
        return ["verify", _scenario_file(tmp_path, name, **changes), "--suite", "jacobi"]

    args = {
        "bracket_nan_point": ["bracket", str(SCENARIO_DIR / "flat.json"), "x1", "P1", "--at", "0,0,nan,0"],
        # the curved metric overflows there, so the bracket is not finite
        "bracket_far_point": ["bracket", str(SCENARIO_DIR / "curved_magnetic.json"), "P1", "x1",
                              "--at", "0,1e300,0,0"],
        "evolve_negative_steps": ["evolve", larmor, "--steps", "-3", "--dt", "0.1", *out],
        "evolve_nan_dt": ["evolve", larmor, "--steps", "5", "--dt", "nan", *out],
        "evolve_metric_not_positive": [
            "evolve", _scenario_file(tmp_path, "bad_metric.json",
                                     metric=[["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
            "--steps", "5", "--dt", "0.1", *out],
        "evolve_nonfinite_psi0": [
            "evolve", _scenario_file(tmp_path, "bad_psi0.json",
                                     grid={"axes": [[-0.5, 0.5, 1]] * 3, "psi0": [["log(x1-5)", "0"], ["1", "0"]]}),
            "--steps", "5", "--dt", "0.1", *out],
        "verify_zero_samples": ["verify", str(SCENARIO_DIR / "flat.json"), "--suite", "jacobi", "--samples", "0"],
        "verify_negative_samples": ["verify", str(SCENARIO_DIR / "flat.json"), "--suite", "jacobi",
                                    "--samples", "-1"],
        "verify_out_in_missing_dir": ["verify", str(SCENARIO_DIR / "flat.json"), "--suite", "jacobi",
                                      "--out", str(tmp_path / "missing" / "r.json")],
        "evolve_out_is_a_file": ["evolve", larmor, "--steps", "2", "--dt", "0.1",
                                 "--out", str(tmp_path / "a_file")],
        "verify_directory": ["verify", str(SCENARIO_DIR)],
        "verify_short_metric_row": verify_bad("short_row.json", metric=[["1"]]),
        "verify_observer_not_a_list": verify_bad("observer.json", observers={"a": 5}),
        "verify_function_not_a_mapping": verify_bad("function.json", functions={"f": 3}),
        "verify_a_not_a_list": verify_bad("a.json", A=5),
        "verify_grid_axis_not_a_number": verify_bad("axes.json", grid=bad_axes),
        "bracket_grid_axis_not_a_number": ["bracket", _scenario_file(tmp_path, "axes.json", grid=bad_axes),
                                           "x1", "P1", "--at", "0,0,0,0"],
        "verify_top_level_list": ["verify", str(tmp_path / "list.json")],
        "verify_list_text": ["verify", "[1, 2]"],
        "verify_nonfinite_box": verify_bad("box.json", suite={"box": [[-0.5, 0.5], [0, math.nan], [0, 1], [0, 1]]}),
        "evolve_nonfinite_time": [
            "evolve", _scenario_file(tmp_path, "time.json", grid={"axes": [[-0.5, 0.5, 1]] * 3, "time": math.nan,
                                                                   "psi0": [["1", "0"], ["1", "0"]]}),
            "--steps", "5", "--dt", "0.1", *out],
    }[case]
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert "Traceback" not in res.stderr


_COORD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324]),
)
_AT = st.one_of(
    st.lists(_COORD, min_size=4, max_size=4).map(lambda xs: ",".join(repr(x) for x in xs)),
    st.lists(st.sampled_from(["0.5", "-1", "nan", "1e", "", " ", "0x1", "--", "1;2", "٣"]),
             max_size=6).map(",".join),
    st.text(max_size=20),
)


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, float) else []


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite_point(at):
    """True when --at names four finite floats, as the CLI parses them."""
    try:
        xs = [float(v) for v in at.split(",")]
    except ValueError:
        return False
    return len(xs) == 4 and all(math.isfinite(x) for x in xs)


def _main(*argv):
    """cli.main in this process, with RuntimeWarnings as errors: (exit code,
    stdout, stderr)."""
    from cqm import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(at=_AT)
@example(at="-1,0,0,0")
@example(at="-.5,0,0,0")
@example(at="-1e-3,0.2,-0.4,0")
@example(at="0,1e300,0,0")
@example(at="--")
def test_bracket_at_any_point_keeps_the_exit_contract(at):
    """Exit 0 with finite JSON or exit 2 with one `error:` line, for --at as
    its own token and after '='."""
    for argv in (["--at", at], [f"--at={at}"]):
        rc, out, err = _main("bracket", str(SCENARIO_DIR / "curved_magnetic.json"), "P1", "x1", *argv)
        assert rc in (0, 2)
        if rc == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            # four finite coordinates are always a point: the only way to
            # fail there is a bracket that overflows far out
            if _finite_point(at):
                assert "is not finite" in lines[0], err
        else:
            report = json.loads(out, parse_constant=_reject_constant)
            assert all(math.isfinite(x) for x in _numbers(report))


def test_verify_report_is_strict_json_on_every_suite():
    """On flat every suite runs and the symmetry ratio is decided by the
    roundoff floor (inf): the report writes it as null and parses as strict
    JSON."""
    rc, out, err = _main("verify", str(SCENARIO_DIR / "flat.json"))
    assert rc == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["suites"] == ["background", "curvature", "isomorphism", "jacobi", "observer", "operators"]
    nulls = {c["name"] for c in report["checks"] if c["max_residual"] is None}
    assert "operators.symmetry_ratio" in nulls
    assert all(c["passed"] and c["comparator"] == "ge" for c in report["checks"] if c["name"] in nulls)


@pytest.mark.parametrize("defects", [(1.0, float("nan")), (float("nan"), float("nan"))],
                         ids=["fine_nan", "both_nan"])
def test_a_nan_defect_fails_its_convergence_check(monkeypatch, defects):
    """A step-halving ratio whose defect is NaN at the fine level, or at
    both, is NaN: the check fails and the strict-JSON report writes null."""
    from cqm import verify

    levels = iter(defects)
    monkeypatch.setattr(verify, "_symmetry_defect", lambda sc, geom, rng: next(levels))
    rc, out, err = _main("verify", str(SCENARIO_DIR / "flat.json"), "--suite", "operators")
    assert rc == 1, err
    report = json.loads(out, parse_constant=_reject_constant)
    (check,) = [c for c in report["checks"] if c["name"] == "operators.symmetry_ratio"]
    assert check["max_residual"] is None and check["passed"] is False
    assert report["passed"] is False


@pytest.mark.parametrize("at", ["-1,0,0,0", "-.5,0,0,0", "-1e-3,0,0,0"])
def test_bracket_at_negative_first_coordinate(at):
    """A point that starts with a minus sign is the value of --at, whether it
    follows as its own token or after '='."""
    flat = str(SCENARIO_DIR / "flat.json")
    rc, out, err = _main("bracket", flat, "x1", "P1", "--at", at)
    assert rc == 0, err
    assert (rc, out, err) == _main("bracket", flat, "x1", "P1", f"--at={at}")
    assert json.loads(out)["at"] == [float(v) for v in at.split(",")]


@pytest.mark.parametrize("argv, option", [
    (["bracket", "flat.json", "x1", "P1", "--a", "-1,0,0,0"], "--a"),
    (["verify", "flat.json", "--sam", "3"], "--sam"),
])
def test_abbreviated_options_are_unrecognized(argv, option):
    """Options are spelled in full: an abbreviation is reported as itself,
    not taken for the option it begins."""
    argv = [str(SCENARIO_DIR / a) if a.endswith(".json") else a for a in argv]
    rc, out, err = _main(*argv)
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unrecognized arguments: "), err
    assert option in lines[0].split(), err


@pytest.mark.parametrize("changes, where", [
    ({"F": {"12": "exp(1000)"}}, "F[12]"),
    ({"metric": [["exp(1000)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "metric[0][0]"),
])
def test_overflowing_constant_is_a_load_error(tmp_path, changes, where):
    """A constant field expression that overflows is one `error:` line at
    load, with no numpy warning before it and no report after it."""
    scn = json.loads((SCENARIO_DIR / "flat_magnetic.json").read_text())
    scn.update(changes)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(scn))
    rc, out, err = _main("verify", str(path), "--suite", "jacobi")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {where}: the constant 'exp(1000)' is not a finite number")
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("diagonal, det", [("1e200", "inf"), ("1e-200", "0.0")])
def test_constant_metric_whose_volume_overflows_is_a_load_error(diagonal, det):
    """A constant metric whose det g overflows or underflows, though each
    entry is a finite number, is one `error:` line at load naming the
    metric, with no numpy warning before it and no report after it."""
    metric = [[diagonal if i == j else "0" for j in range(3)] for i in range(3)]
    rc, out, err = _main("verify", json.dumps({"metric": metric}), "--suite", "jacobi")
    assert (rc, out, err) == (2, "", f"error: metric: det g = {det} is not a positive finite number\n")


@pytest.mark.parametrize("entry", ["1e-80", "1e-100", "1e-300"])
def test_tiny_constant_metric_entry_verifies_without_warnings(entry):
    """A constant metric entry this small has a finite det g and inverse, so
    it loads; every jet composed of it is a constant, whose Taylor factors
    (powers of 1/entry that overflow) are never formed, so no warning is
    raised and no residual is NaN.  A null residual is an inf or a NaN
    ratio, and a NaN ratio fails, so a null may stand only for a passed
    `ge` check.  operators.symmetry_ratio, which reads absolute residuals,
    may still fail on it."""
    metric = [[entry if i == j == 0 else str(float(i == j)) for j in range(3)] for i in range(3)]
    rc, out, err = _main("verify", json.dumps({"metric": metric}))
    assert err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert all(c["passed"] and c["comparator"] == "ge" for c in report["checks"] if c["max_residual"] is None)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing <= {"operators.symmetry_ratio"}
    assert rc == (1 if failing else 0)


def test_neutral_spin_particle_verifies():
    """q = 0 with a magnetic moment (a neutron) is a valid particle: the
    coupling slots are compared cross-multiplied, not through q."""
    rc, out, err = _main("verify", json.dumps({"constants": {"q": 0}, "F": {"12": "1"}}))
    assert (rc, err) == (0, "")
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["passed"] and all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("scenario, argv, source", [
    (str(SCENARIO_DIR / "flat.json"), ["--seed", "-1"], "--seed"),
    (json.dumps({"suite": {"seed": -3}}), [], "suite.seed"),
])
def test_negative_seed_is_a_usage_error_naming_its_source(scenario, argv, source):
    rc, out, err = _main("verify", scenario, "--suite", "jacobi", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {source} must be a nonnegative integer, got -"), err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("scenario, message", [
    ({"constants": {"hbar": -1}}, "constants.hbar must be a positive normal number, got -1.0"),
    ({"constants": {"m": 1e-320}}, "constants.m must be a positive normal number, got 1e-320"),
    ({"constants": {"m": 0}}, "constants.m must be a positive normal number, got 0.0"),
    ({"constants": {"m": 1e300, "hbar": 1e-10}}, "constants: m / (hbar u0) = inf is not a finite nonzero number"),
    ({"suite": {"samples": 2.7}}, "suite.samples must be a positive integer, got 2.7"),
    ({"suite": {"seed": True}}, "suite.seed must be a nonnegative integer, got True"),
    ({"grid": {"axes": [[0, 1, True], [0, 1, 2], [0, 1, 2]]}}, "bad axis (0, 1, True): expected finite (lo, hi, n)"),
])
def test_unusable_constant_or_count_is_a_load_error(scenario, message):
    """One `error:` line naming the value and exit 2, with no numpy warning
    before it.  Unchecked, hbar = -1 passes every check, m = 1e-320 gives NaN
    residuals, m = 0 a bare division error and 2.7 samples load as 2."""
    assert _main("verify", json.dumps(scenario), "--suite", "jacobi") == (2, "", f"error: {message}\n")


def test_evolve_overflowing_first_term_is_a_solver_failure(tmp_path):
    """A dt at which the first term of the Cayley series overflows (a rough
    psi0 on a fine grid) fails like any dt at which the series diverges:
    exit 1 with one `error:` line and no overflow warning."""
    scn = {"grid": {"axes": [[-1, 1, 201], [0, 0, 1], [0, 0, 1]], "psi0": [["1", "0"], ["0", "0"]]}}
    rc, out, err = _main("evolve", json.dumps(scn), "--steps", "2", "--dt", "1e306", "--out", str(tmp_path / "out"))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "reduce dt" in err and len(err.splitlines()) == 1, err


def _assert_exit_contract(rc, out, err):
    """Exit 0 with finite JSON on stdout, or exit 1 or 2 with one `error:`
    line on stderr (in process, so a traceback would fail the test)."""
    assert rc in (0, 1, 2)
    if rc == 0:
        assert all(math.isfinite(x) for x in _numbers(json.loads(out, parse_constant=_reject_constant)))
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


_TEXT_ARG = st.text(max_size=4)
_DT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.sampled_from(["5e-324", "1e-310", "2.2250738585072014e-308", "14.28", "14.29", "1e300", "0"]),
    _TEXT_ARG,
)


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(-1, 5).map(str) | _TEXT_ARG, dt=_DT,
       every=st.none() | st.integers(-1, 6).map(str) | _TEXT_ARG)
@example(steps="3", dt="5e-324", every=None)
@example(steps="2", dt="1e300", every="1")
def test_evolve_arguments_keep_the_exit_contract(steps, dt, every):
    """--steps, --dt and --snapshot-every on larmor.json (one node, where
    dt >= 14.29 makes the Cayley series diverge)."""
    argv = ["--steps", steps, "--dt", dt] + ([] if every is None else ["--snapshot-every", every])
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_contract(*_main("evolve", str(SCENARIO_DIR / "larmor.json"), *argv, "--out", tmp))


@settings(max_examples=40, deadline=None)
@given(samples=st.none() | st.integers(-1, 3).map(str) | _TEXT_ARG,
       seed=st.none() | st.integers(-2**70, 2**70).map(str) | _TEXT_ARG)
def test_verify_sample_and_seed_arguments_keep_the_exit_contract(samples, seed):
    argv = ([] if samples is None else ["--samples", samples]) + ([] if seed is None else ["--seed", seed])
    _assert_exit_contract(*_main("verify", str(SCENARIO_DIR / "flat.json"), "--suite", "curvature", *argv))


def test_bracket_without_at_is_a_usage_error():
    rc, out, err = _main("bracket", str(SCENARIO_DIR / "flat.json"), "x1", "P1")
    assert (rc, out, err) == (2, "", "error: the following arguments are required: --at\n")


@pytest.mark.parametrize("command", ["bracket", "verify", "verify_table", "evolve"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command):
    """Output into a pipe whose reader has gone (`cqm ... | head -1`): exit 1,
    no traceback and no 'Exception ignored' report at interpreter exit."""
    args = {
        "bracket": ["bracket", str(SCENARIO_DIR / "flat.json"), "x1", "P1", "--at", "0,0,0,0"],
        "verify": ["verify", str(SCENARIO_DIR / "flat.json"), "--suite", "curvature", "--samples", "5"],
        "verify_table": ["verify", str(SCENARIO_DIR / "flat.json"), "--suite", "curvature", "--samples", "5",
                         "--table"],
        "evolve": ["evolve", str(SCENARIO_DIR / "larmor.json"), "--steps", "3", "--dt", "0.1",
                   "--out", str(tmp_path / "out")],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(CLI + args, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr, res.stderr


@pytest.mark.parametrize("command", ["verify", "evolve", "bracket"])
def test_metric_with_positive_det_but_no_frame_is_a_load_error(tmp_path, command):
    """diag(-1, -1, 1) has det g = 1 but is not positive definite: every
    command exits 2 with the frame's one error line, and evolve makes no
    output directory."""
    path = _scenario_file(tmp_path, "no_frame.json", metric=[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]])
    out = tmp_path / "out"
    argv = {"verify": ["verify", path, "--suite", "jacobi"],
            "evolve": ["evolve", path, "--steps", "5", "--dt", "0.1", "--out", str(out)],
            "bracket": ["bracket", path, "x1", "P1", "--at", "0,0,0,0"]}[command]
    assert _main(*argv) == (2, "", "error: g00 = -1.0 at [0.0, 0.0, 0.0, 0.0]\n")
    assert not out.exists()


def test_evolve_builds_one_geometry(tmp_path, monkeypatch):
    from cqm import cli, quantum

    builds = []
    original = quantum.GridGeometry.__init__

    def counting(self, qd, spec):
        builds.append(spec)
        original(self, qd, spec)

    monkeypatch.setattr(quantum.GridGeometry, "__init__", counting)
    rc = cli.main(["evolve", str(SCENARIO_DIR / "larmor.json"), "--steps", "20", "--dt", "0.1",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(builds) == 1


@pytest.mark.parametrize("changes, field", [
    ({"F": {"12": "b*cos(0.28*x0)"}, "A": ["0", "0", "q*b/hbar*x1*cos(0.28*x0)", "0"]}, "F12"),
    ({"metric": scenario_dict("breathing")["metric"]}, "g11"),
], ids=["oscillating_field", "breathing_metric"])
def test_evolve_on_a_time_dependent_background_is_a_load_error(tmp_path, changes, field):
    """The generator is built once, at the grid's time: a background that
    references x0 exits 2 with one error line, before --out exists, instead
    of evolving under the field frozen at that time."""
    path = _scenario_file(tmp_path, "moving.json", **changes)
    out = tmp_path / "out"
    rc, stdout, stderr = _main("evolve", path, "--steps", "200", "--dt", "0.1", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert stderr == f"error: {field} references x0: evolution on a time-dependent background is unsupported\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_grid_too_large_for_memory_is_a_load_error(tmp_path, command):
    """A grid of 10^5 nodes per axis (7.11 PiB per node array, which numpy
    refuses before touching any memory): one error line, exit 2, and no
    output directory."""
    grid = {"axes": [[-1, 1, 100000]] * 3, "time": 0.0}
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", json.dumps({"grid": grid}), "--suite", "operators"]
    else:
        grid["psi0"] = [["1", "0"], ["0", "0"]]
        argv = ["evolve", json.dumps({"grid": grid}), "--steps", "2", "--dt", "0.1", "--out", str(out)]
    rc, stdout, stderr = _main(*argv)
    assert (rc, stdout) == (2, "")
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "PiB" in lines[0], stderr
    assert not out.exists()


def test_long_inline_scenario_is_reported_as_inline():
    """Inline JSON longer than a file name may be (255 bytes) is JSON text,
    not a path to look up."""
    scenario = json.dumps({"constants": {f"c{k}": 1.0 for k in range(40)}})
    assert len(scenario) > 255
    rc, out, err = _main("verify", scenario, "--suite", "jacobi")
    assert (rc, err) == (0, "")
    assert json.loads(out)["scenario"] == "<inline>"


def test_repeated_suite_runs_once(tmp_path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    flat = str(SCENARIO_DIR / "flat.json")
    assert _main("verify", flat, "--suite", "jacobi", "--out", str(once)) == (0, "", "")
    assert _main("verify", flat, "--suite", "jacobi", "--suite", "jacobi", "--out", str(twice)) == (0, "", "")
    assert twice.read_bytes() == once.read_bytes()
