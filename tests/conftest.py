import copy
from pathlib import Path

import numpy as np
import pytest

from cqm.fieldlang import Binary, Const, FieldDef, PowInt, Unary, UnitConst, Var
from cqm.scenario import load_scenario
from cqm.special import SpecialFunction
from cqm.units import DIMLESS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FLAT = {
    "constants": {"m": 1.0, "q": 1.0, "hbar": 1.0, "mu": 1.0, "u0": 1.0},
    "observers": {"drift": ["0.2", "-0.1", "0.15"]},
    "A": ["0", "0", "0", "0"],
    "suite": {"samples": 40, "seed": 11, "box": [[-0.8, 0.8]] * 4},
}

FLAT_MAGNETIC = {
    "constants": {
        "m": 1.0, "q": 1.0, "hbar": 1.0, "mu": 0.7, "u0": 1.0,
        "b": {"value": 0.4, "dim": {"l": "1/2", "t": "0", "m": "1/2"}},
    },
    "F": {"12": "b"},
    "A": ["0", "0", "q*b/hbar*x1", "0"],
    "suite": {"samples": 40, "seed": 12, "box": [[-0.8, 0.8]] * 4},
}

CURVED_MAGNETIC = {
    "constants": {
        "m": 1.3, "q": 0.8, "hbar": 1.1, "mu": 0.7, "u0": 0.9,
        "b": {"value": 0.4, "dim": {"l": "1/2", "t": "0", "m": "1/2"}},
    },
    "metric": [
        ["1+0.1*x1*x1", "0", "0"],
        ["0", "1+0.1*x1*x1", "0"],
        ["0", "0", "1+0.1*x1*x1"],
    ],
    "F": {"12": "b"},
    "observers": {"drift": ["0.2", "-0.1", "0.15"], "shear": ["0.1*x2", "-0.05*x1", "0.08*x3"]},
    "A": ["0", "0", "q*b/hbar*x1", "0"],
    "suite": {"samples": 40, "seed": 13, "box": [[-0.8, 0.8]] * 4},
}


# fully anisotropic metric with off-diagonal entries: exercises the Cholesky
# triad, the frame coefficients and every index contraction nontrivially
ANISOTROPIC = {
    "constants": {
        "m": 1.1, "q": 0.9, "hbar": 1.2, "mu": 0.6, "u0": 0.85,
        "b": {"value": 0.3, "dim": {"l": "1/2", "t": "0", "m": "1/2"}},
    },
    "metric": [
        ["1+0.1*x1*x1", "0.05*x2*x2", "0"],
        ["0.05*x2*x2", "1+0.1*x3*x3", "0.03*x1"],
        ["0", "0.03*x1", "1.1+0.05*x2*x2"],
    ],
    "F": {"12": "b*(1+0.2*x1)"},
    "observers": {"drift": ["0.1*x2", "-0.08", "0.05*x1"]},
    "A": ["0", "0", "q*b/hbar*(x1+0.1*x1*x1)", "0"],
    "suite": {"samples": 30, "seed": 17, "box": [[-0.8, 0.8]] * 4},
}


# a breathing metric: curved_magnetic's conformal factor times (1 + 0.1 x0)
BREATHING = {**CURVED_MAGNETIC, "metric": [
    ["(1+0.1*x1*x1)*(1+0.1*x0)", "0", "0"],
    ["0", "(1+0.1*x1*x1)*(1+0.1*x0)", "0"],
    ["0", "0", "(1+0.1*x1*x1)*(1+0.1*x0)"],
]}


def scenario_dict(name: str) -> dict:
    return copy.deepcopy({"flat": FLAT, "flat_magnetic": FLAT_MAGNETIC,
                          "curved_magnetic": CURVED_MAGNETIC,
                          "anisotropic": ANISOTROPIC, "breathing": BREATHING}[name])


@pytest.fixture(scope="session")
def flat_scenario():
    return load_scenario(FLAT)


@pytest.fixture(scope="session")
def flat_magnetic_scenario():
    return load_scenario(FLAT_MAGNETIC)


@pytest.fixture(scope="session")
def curved_magnetic_scenario():
    return load_scenario(CURVED_MAGNETIC)


def make_special(consts, f0="0", fi=("0", "0", "0"), fbrev="0", phi=("0", "0", "0"), name="f"):
    return SpecialFunction(
        FieldDef(f"{name}.f0", DIMLESS, f0, consts),
        tuple(FieldDef(f"{name}.f{i}", DIMLESS, fi[i], consts) for i in range(3)),
        FieldDef(f"{name}.fb", DIMLESS, fbrev, consts),
        tuple(FieldDef(f"{name}.phi{a}", DIMLESS, phi[a], consts) for a in range(3)),
        name=name,
    )


def sample_box(rng: np.random.Generator, n: int, half: float = 0.8) -> np.ndarray:
    return rng.uniform(-half, half, (n, 4))


# -- symbolic derivative: an oracle for the jet kernel ------------------------

_ZERO, _ONE = Const(0.0), Const(1.0)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else Binary("add", a, b)


def _sub(a, b):
    return a if b == _ZERO else Unary("neg", b) if a == _ZERO else Binary("sub", a, b)


def _mul(a, b):
    if _ZERO in (a, b):
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Binary("mul", a, b)


def _div(a, b):
    return _ZERO if a == _ZERO else a if b == _ONE else Binary("div", a, b)


def derive_expr(expr, var: int):
    """Symbolic partial derivative of a field-language AST with respect to
    chart variable `var`, with zero and one folded away."""
    if isinstance(expr, (Const, UnitConst)):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.index == var else _ZERO
    if isinstance(expr, Unary):
        u, du = expr.arg, derive_expr(expr.arg, var)
        return {
            "neg": lambda: _sub(_ZERO, du),
            "sqrt": lambda: _div(du, _mul(Const(2.0), Unary("sqrt", u))),
            "exp": lambda: _mul(Unary("exp", u), du),
            "log": lambda: _div(du, u),
            "sin": lambda: _mul(Unary("cos", u), du),
            "cos": lambda: _mul(Unary("neg", Unary("sin", u)), du),
        }[expr.op]()
    if isinstance(expr, Binary):
        a, b = expr.left, expr.right
        da, db = derive_expr(a, var), derive_expr(b, var)
        return {
            "add": lambda: _add(da, db),
            "sub": lambda: _sub(da, db),
            "mul": lambda: _add(_mul(da, b), _mul(a, db)),
            "div": lambda: _div(_sub(_mul(da, b), _mul(a, db)), PowInt(b, 2)),
        }[expr.op]()
    if isinstance(expr, PowInt):
        if expr.exponent == 0:
            return _ZERO
        return _mul(_mul(Const(float(expr.exponent)), PowInt(expr.base, expr.exponent - 1)),
                    derive_expr(expr.base, var))
    raise TypeError(f"not an expression node: {expr!r}")
