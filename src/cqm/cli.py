"""Command-line driver.

    cqm verify  <scenario.json> [--suite S ...] [--samples N] [--seed S]
                [--out FILE] [--table]
    cqm evolve  <scenario.json> --steps N --dt T --out DIR
                [--snapshot-every K]
    cqm bracket <scenario.json> F G --at x0,x1,x2,x3

Exit codes: 0 all checks pass / success, 1 check or run failure (or stdout
closed before the output was written), 2 load or usage error, an --out path
that cannot be written among them (an `error:` line on stderr, no
traceback).  Options are spelled in full: an abbreviation
such as `--a` is an unrecognized argument.  Reports are JSON-first; --table
renders the same data as text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .quantum import (
    GridGeometry,
    NonStaticMetric,
    SolverDivergence,
    evolve_pauli,
    measure_frequency,
    write_snapshot,
)
from .scenario import ScenarioError, load_scenario
from .special import extended_bracket
from .units import DIMLESS
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    """Usage errors are one `error:` line on stderr and exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqm", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run property suites against a scenario", allow_abbrev=False)
    p_verify.add_argument("scenario")
    p_verify.add_argument("--suite", action="append", choices=SUITES, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--table", action="store_true", help="print a text table instead of JSON")

    p_evolve = sub.add_parser("evolve", help="Crank-Nicolson Pauli evolution", allow_abbrev=False)
    p_evolve.add_argument("scenario")
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--dt", type=float, required=True)
    p_evolve.add_argument("--out", required=True)
    p_evolve.add_argument("--snapshot-every", type=int, default=0)

    p_bracket = sub.add_parser("bracket", help="extended bracket of two named functions", allow_abbrev=False)
    p_bracket.add_argument("scenario")
    p_bracket.add_argument("f")
    p_bracket.add_argument("g")
    # required, but checked in cmd_bracket: argparse would report a missing
    # --at before an unrecognized option such as `--a`
    p_bracket.add_argument("--at", help="comma-separated x0,x1,x2,x3 (required)")
    return parser


def _strict_json(check) -> dict:
    """A check's report entry as strict JSON: a residual that is not finite
    (a convergence ratio decided by the roundoff floor) is null."""
    entry = check.to_json()
    if not math.isfinite(entry["max_residual"]):
        entry["max_residual"] = None
    return entry


def cmd_verify(args) -> int:
    try:
        if args.samples is not None and args.samples < 1:
            raise ScenarioError(f"--samples must be a positive integer, got {args.samples}")
        if args.seed is not None and args.seed < 0:
            raise ScenarioError(f"--seed must be a nonnegative integer, got {args.seed}")
        sc = load_scenario(args.scenario)
        if args.samples is not None:
            sc.samples = args.samples
        if args.seed is not None:
            sc.seed = args.seed
        checks = run_suites(sc, args.suite)
    except (ScenarioError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "scenario": str(args.scenario) if Path(str(args.scenario)).exists() else "<inline>",
        "seed": sc.seed,
        "samples": sc.samples,
        "suites": sorted(args.suite) if args.suite else list(SUITES),
        "checks": [_strict_json(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.table:
        width = max(len(c.name) for c in checks)
        for c in checks:
            mark = "pass" if c.passed else "FAIL"
            rel = "<=" if c.comparator == "le" else ">="
            print(f"{c.name:<{width}}  {c.max_residual:12.3e} {rel} {c.tolerance:8.1e}  [{mark}]")
        print("overall:", "pass" if report["passed"] else "FAIL")
    elif not args.out:
        print(text)
    return 0 if report["passed"] else 1


def cmd_evolve(args) -> int:
    try:
        if args.steps < 1:
            raise ScenarioError(f"--steps must be a positive integer, got {args.steps}")
        # a subnormal dt would make the frequencies of the summary overflow
        if not (math.isfinite(args.dt) and args.dt >= sys.float_info.min):
            raise ScenarioError(f"--dt must be a finite number of at least {sys.float_info.min!r}, got {args.dt}")
        if args.snapshot_every < 0:
            raise ScenarioError(f"--snapshot-every must be nonnegative, got {args.snapshot_every}")
        sc = load_scenario(args.scenario)
        grid = sc.initial_grid()
        # built here so that a node where g is not positive definite is a load error
        geom = GridGeometry(sc.qd, sc.grid)
    except (ScenarioError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        traj = evolve_pauli(sc.qd, grid, args.dt, args.steps, geom=geom,
                            snapshot_every=args.snapshot_every)
    except (NonStaticMetric, SolverDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_path = out_dir / "trajectory.csv"
    with open(csv_path, "w") as fh:
        fh.write("step,time,norm,sx,sy,sz,width\n")
        for k in range(len(traj.steps)):
            row = [int(traj.steps[k])] + [
                float(col[k]) for col in (traj.times, traj.norms, traj.sx, traj.sy, traj.sz, traj.widths)
            ]
            fh.write(",".join(repr(v) for v in row) + "\n")
    for step, snap in traj.snapshots:
        write_snapshot(out_dir / f"snapshot_{step:06d}.bin", snap)
    summary = {
        "steps": int(args.steps),
        "dt": args.dt,
        "norm_initial": float(traj.norms[0]),
        "norm_final": float(traj.norms[-1]),
        "norm_drift": float(np.max(np.abs(traj.norms - traj.norms[0]))),
        "width_initial": float(traj.widths[0]),
        "width_final": float(traj.widths[-1]),
    }
    bg = sc.background
    if bg.fields_constant:  # in a uniform magnetic field the spin precesses at u0 mu |B|
        b_norm = float(np.linalg.norm([s.value for s in bg.magnetic_field((0, 0, 0, 0))]))
        if b_norm > 0.0:
            c = bg.constants
            summary["measured_frequency"] = measure_frequency(traj.sx, args.dt)
            summary["expected_frequency"] = c.u0.value * c.mu.value * b_norm
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_bracket(args) -> int:
    try:
        if args.at is None:
            raise ScenarioError("the following arguments are required: --at")
        sc = load_scenario(args.scenario)
        f = sc.function(args.f)
        g = sc.function(args.g)
        at = args.at if isinstance(args.at, str) else ""  # argparse reads `--at=--` as []
        point = [float(v) for v in at.split(",")]
        if len(point) != 4 or not all(math.isfinite(v) for v in point):
            raise ScenarioError("--at needs 4 comma-separated finite coordinates")
        # overflow at a far point is reported as a non-finite bracket below
        with np.errstate(all="ignore"):
            val = extended_bracket(f, g, sc.background, point)
        if not np.all(np.isfinite(val.as_array())):
            raise ScenarioError(f"the bracket of {args.f} and {args.g} is not finite at {point}")
    except (ScenarioError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dimless = DIMLESS.to_json()
    out = {
        "f": args.f,
        "g": args.g,
        "at": point,
        "f0": {"value": val.f0, "dim": dimless},
        "fi": {"value": val.fi.tolist(), "dim": dimless},
        "fbrev": {"value": val.fbrev, "dim": dimless},
        "phi": {"value": val.phi.tolist(), "dim": dimless, "frame": "orthonormal"},
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _join_at(argv: list) -> list:
    """`--at V` as `--at=V`, so that a point such as -1,0,0,0 is read as the
    option's value and not as an option of its own ("--" still ends the
    options)."""
    out, k = [], 0
    while k < len(argv):
        if argv[k] == "--at" and k + 1 < len(argv) and argv[k + 1] != "--":
            out.append(f"--at={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_at(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "evolve": cmd_evolve, "bracket": cmd_bracket}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`cqm ... | head -1`); point stdout
        # at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # --out names a path that cannot be written: a usage error
        name = f": {exc.filename}" if exc.filename else ""
        print(f"error: cannot write output{name}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
