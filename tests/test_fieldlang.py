import gc
import math
import weakref

import numpy as np
import pytest

from cqm.fieldlang import (
    Binary,
    Const,
    FieldDef,
    ParseError,
    PowInt,
    Unary,
    UnknownIdentifier,
    Var,
    eval_array,
    eval_float,
    eval_jet,
    infer_dim,
    parse,
    to_source,
    variables,
)
from cqm.units import DIMLESS, LENGTH, METRIC_DIM, Dim, DimensionMismatch, ScaledReal

from conftest import derive_expr
from oracles import extract

# the 50-expression corpus used for round-trip and oracle checks
CORPUS = [
    "1 + x1*x1",
    "sin(x1) * exp(-x2)",
    "x0",
    "x3^2 - 2*x3 + 1",
    "1/(1+x1*x1)",
    "sqrt(1 + x2*x2)",
    "cos(x0)*cos(x0) + sin(x0)*sin(x0)",
    "-x1",
    "-(x1 + x2)",
    "2.5e-1 * x3",
    "x1/x2/x3",
    "x1 - x2 - x3",
    "(x1 - x2) * (x1 + x2)",
    "exp(x0 - x1)",
    "log(2 + x1^2)",
    "x0^3",
    "x1^-1",
    "1e2 + x2",
    "0.5*(x1 + x3)^2",
    "sin(cos(x2))",
    "sqrt(exp(x1))",
    "x1 * (x2 + x3 * (x0 + 1))",
    "3/(x1 - 5)",
    "(1 + x1)^4",
    "x2^2 * x3^2",
    "sin(x1)/cos(x1)",
    "exp(0 - x1*x1)",
    "1 - 1/(1 + x0)",
    "x1*x2*x3*x0",
    "(x0 + x1 + x2 + x3)^2",
    "sqrt(4 + x3)",
    "log(exp(x2) + 1)",
    "cos(x1 - x2)",
    "2*x1 + 3*x2 - 4*x3",
    "x0/(1 + x0^2)",
    "(x1 + 2)*(x1 - 2)",
    "sin(0.5*x3)^2",
    "1.5",
    "x2",
    "exp(x1)*exp(-x1)",
    "sqrt(1 + x1^2 + x2^2)",
    "x3*(1 - x3)",
    "cos(x0)^3",
    "(x1 - x2)^3",
    "1/(2 + sin(x1))",
    "log(10 + x0*x0)",
    "x1^2/(1 + x1^2)",
    "-(0 - x2)",
    "0.1*x1 + 0.01*x1^2 + 0.001*x1^3",
    "exp(sin(x0) + cos(x3))",
]


def test_parse_structure():
    ast = parse("1 + x1*x1")
    assert ast == Binary("add", Const(1.0), Binary("mul", Var(1), Var(1)))


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + * 2")
    assert err.value.line == 1
    assert err.value.col == 6


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("sin + 1")
    with pytest.raises(ParseError):
        parse("(x1")
    with pytest.raises(ParseError):
        parse("x1 2")
    with pytest.raises(ParseError):
        parse("foo(x1)")
    with pytest.raises(ParseError):
        parse("x1 ^ x2")


def test_grammar_pow_binds_to_base():
    # per the frozen grammar, "-x1^2" is (-x1)^2
    assert parse("-x1^2") == PowInt(Unary("neg", Var(1)), 2)
    assert eval_float(parse("-x1^2"), (0, 3, 0, 0), {}) == 9.0


def test_scientific_notation():
    assert parse("2.5e-1") == Const(0.25)
    assert parse("1E3") == Const(1000.0)


def test_eval_example():
    ast = parse("sin(x1) * exp(-x2)")
    assert eval_float(ast, (0.0, math.pi / 2, 0.0, 0.0), {}) == pytest.approx(1.0)


def test_round_trip_and_eval_oracle():
    rng = np.random.default_rng(42)
    assert len(CORPUS) >= 50
    for src in CORPUS:
        ast = parse(src)
        assert parse(to_source(ast)) == ast
        for _ in range(3):
            point = rng.uniform(0.1, 0.9, 4)
            try:
                direct = eval_float(ast, point, {})
            except Exception:
                continue
            viajet = eval_jet(ast, point, 0, {}).value
            assert viajet == pytest.approx(direct, rel=1e-15, abs=1e-15)


def test_eval_field_jet_orders():
    f = FieldDef("f", DIMLESS, "x1*x1")
    j = f.eval_jet((0, 2, 0, 0), 2)
    assert j.value == 4.0
    assert extract(j, (0, 1, 0, 0)) == 4.0
    assert extract(j, (0, 2, 0, 0)) == 2.0


def test_eval_field_hand_derivative():
    f = FieldDef("f", DIMLESS, "1/(1+x1*x1)")
    j = f.eval_jet((0, 1, 0, 0), 1)
    assert extract(j, (0, 1, 0, 0)) == pytest.approx(-0.5)


def test_constant_field_all_orders():
    f = FieldDef("c", DIMLESS, "3.5")
    j = f.eval_jet((1, 2, 3, 4), 3)
    assert j.value == 3.5
    assert np.max(np.abs(j.c[1:])) == 0.0


def test_eval_jet_frees_its_cloud_on_return():
    """The recursive walk holds the cloud and its coordinate seeds; they are
    freed when eval_jet returns or raises, not left in a reference cycle
    for the collector (5 MiB of a 24^3 set-up's psi0 clouds were)."""
    gc.collect()
    gc.disable()
    try:
        for src in ("x1*x2 + sin(x3)", "x1 + nope"):
            cloud = np.random.default_rng(4).uniform(0.1, 0.9, (4, 50))
            freed = weakref.ref(cloud)
            try:
                eval_jet(parse(src), cloud, 1, {})
            except UnknownIdentifier:
                assert src.endswith("nope")
            del cloud
            assert freed() is None, src
            assert gc.collect() == 0, src
    finally:
        gc.enable()


def test_symbolic_derivative_matches_jets():
    rng = np.random.default_rng(3)
    for src in CORPUS[:25]:
        ast = parse(src)
        for var in range(4):
            d_ast = derive_expr(ast, var)
            point = rng.uniform(0.2, 0.8, 4)
            try:
                sym = eval_float(d_ast, point, {})
            except Exception:
                continue
            alpha = tuple(1 if v == var else 0 for v in range(4))
            jet = extract(eval_jet(ast, point, 1, {}), alpha)
            assert sym == pytest.approx(jet, rel=1e-10, abs=1e-10)


def test_variables_are_the_chart_variables_referenced():
    assert variables(parse("sin(x1)*2 + (x3 - 1)^2 - x1")) == {1, 3}
    assert variables(parse("-(2*3)/sqrt(3)")) == frozenset()
    assert FieldDef("k", DIMLESS, "exp(1)*2").constant
    assert not FieldDef("k", DIMLESS, "x0/2").constant


def test_eval_array_matches_pointwise():
    ast = parse("sin(x1)*x2 + x0^2")
    xs = [np.linspace(0.1, 1.0, 5) for _ in range(4)]
    arr = eval_array(ast, xs, {})
    for k in range(5):
        point = [xs[v][k] for v in range(4)]
        assert arr[k] == pytest.approx(eval_float(ast, point, {}))


def test_unit_constants_and_dims():
    consts = {"m": ScaledReal(2.0, Dim(m=1)), "c_len": ScaledReal(3.0, LENGTH)}
    ast = parse("m*c_len")
    assert infer_dim(ast, consts) == Dim(l=1, m=1)
    assert eval_float(ast, (0, 0, 0, 0), consts) == 6.0
    with pytest.raises(UnknownIdentifier):
        eval_float(parse("nope*2"), (0, 0, 0, 0), consts)


def test_dim_inference_rules():
    consts = {"ell": ScaledReal(2.0, LENGTH), "t": ScaledReal(1.0, Dim(t=1))}
    assert infer_dim(parse("1 + x1"), consts) is None
    assert infer_dim(parse("ell*ell"), consts) == METRIC_DIM
    assert infer_dim(parse("sqrt(ell*ell)"), consts) == LENGTH
    # bare literals are neutral and adopt the dimensioned side in add/sub
    assert infer_dim(parse("ell + x1"), consts) == LENGTH
    with pytest.raises(DimensionMismatch):
        infer_dim(parse("ell + t"), consts)


def test_dim_mismatch_in_function():
    consts = {"ell": ScaledReal(2.0, LENGTH)}
    with pytest.raises(DimensionMismatch):
        infer_dim(parse("sin(ell)"), consts)


def test_field_declared_dim_check():
    consts = {"ell": ScaledReal(2.0, LENGTH)}
    FieldDef("ok", METRIC_DIM, "ell*ell", consts)
    FieldDef("neutral", METRIC_DIM, "1 + x1*x1", consts)  # neutral adopts declared
    with pytest.raises(DimensionMismatch):
        FieldDef("bad", METRIC_DIM, "ell", consts)
