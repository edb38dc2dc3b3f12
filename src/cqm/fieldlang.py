"""Expression language for scalar component fields.

Grammar (frozen):

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := base ("^" int_literal)? ;
    base   := real | ident | ident "(" expr ")" | "(" expr ")" | "-" base ;

ident is a chart variable (x0..x3), a constant name from the scenario table,
or a function name from {sqrt, exp, log, sin, cos}.  Identifiers are
case-sensitive, whitespace is insignificant, literals are reals (scientific
notation allowed).  Note that per the grammar "^" applies to a whole base,
so "-x1^2" parses as (-x1)^2.

Expressions evaluate to jets (exact derivatives at a point or on a cloud of
points; arrays over a mesh are order-0 jets on one cloud) or, through the
independent oracle eval_float, to plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .jets import DomainError, Jet, value_array
from .units import DIMLESS, Dim, DimensionMismatch, ScaledReal


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownIdentifier(KeyError):
    """An identifier does not resolve against the scenario constant table."""


FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
VAR_NAMES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class UnitConst:
    name: str


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PowInt:
    base: "Expr"
    exponent: int


Expr = Union[Const, UnitConst, Var, Unary, Binary, PowInt]


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass
class _Token:
    kind: str  # "num" | "ident" | one of + - * / ^ ( ) | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", line, col)
            tokens.append(_Token("num", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.parse_term()
            node = Binary("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in "*/":
            op = self.next().kind
            rhs = self.parse_factor()
            node = Binary("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            tok = self.expect("num")
            if not tok.text.isdigit():
                raise ParseError(f"exponent must be an integer literal, found {tok.text!r}", tok.line, tok.col)
            node = PowInt(node, sign * int(tok.text))
        return node

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Unary("neg", self.parse_base())
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.line, tok.col)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return Unary(name, arg)
            if name in FUNCTIONS:
                raise ParseError(f"function {name!r} requires an argument list", tok.line, tok.col)
            if name in VAR_NAMES:
                return Var(VAR_NAMES[name])
            return UnitConst(name)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse(source: str) -> Expr:
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# printer (fully parenthesized; reparses to an identical tree)

_VAR_SYMS = {v: k for k, v in VAR_NAMES.items()}


def to_source(expr: Expr) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, UnitConst):
        return expr.name
    if isinstance(expr, Var):
        return _VAR_SYMS[expr.index]
    if isinstance(expr, Unary):
        if expr.op == "neg":
            return f"(-{to_source(expr.arg)})"
        return f"{expr.op}({to_source(expr.arg)})"
    if isinstance(expr, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[expr.op]
        return f"({to_source(expr.left)} {sym} {to_source(expr.right)})"
    if isinstance(expr, PowInt):
        return f"{to_source(expr.base)}^{expr.exponent}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# chart variables


def variables(expr: Expr) -> frozenset:
    """The chart variables (indices 0..3) that the expression references."""
    if isinstance(expr, Var):
        return frozenset((expr.index,))
    if isinstance(expr, (Const, UnitConst)):
        return frozenset()
    if isinstance(expr, Unary):
        return variables(expr.arg)
    if isinstance(expr, Binary):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, PowInt):
        return variables(expr.base)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# dimension inference

ConstTable = Mapping[str, ScaledReal]


def infer_dim(expr: Expr, consts: ConstTable) -> Dim | None:
    """Dimension of an expression, or None when it only combines bare literals
    and chart variables (such expressions adopt the field's declared dim)."""
    if isinstance(expr, Const) or isinstance(expr, Var):
        return None
    if isinstance(expr, UnitConst):
        if expr.name not in consts:
            raise UnknownIdentifier(expr.name)
        return consts[expr.name].dim
    if isinstance(expr, Unary):
        d = infer_dim(expr.arg, consts)
        if expr.op == "neg":
            return d
        if expr.op == "sqrt":
            return None if d is None else d ** "1/2"
        # exp/log/sin/cos require dimensionless arguments
        if d is not None and not d.is_dimensionless:
            raise DimensionMismatch(f"{expr.op} of a quantity with dimension {d}")
        return DIMLESS if d is not None else None
    if isinstance(expr, Binary):
        dl = infer_dim(expr.left, consts)
        dr = infer_dim(expr.right, consts)
        if expr.op in ("add", "sub"):
            if dl is None:
                return dr
            if dr is None:
                return dl
            if dl != dr:
                raise DimensionMismatch(f"cannot {expr.op} {dl} and {dr}")
            return dl
        if dl is None and dr is None:
            return None
        dl = dl if dl is not None else DIMLESS
        dr = dr if dr is not None else DIMLESS
        return dl * dr if expr.op == "mul" else dl / dr
    if isinstance(expr, PowInt):
        d = infer_dim(expr.base, consts)
        return None if d is None else d ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_jet(expr: Expr, point: Sequence[float], order: int, consts: ConstTable) -> Jet:
    seeds = {}  # coordinate jets, seeded when the walk first reaches each Var

    def ev(node: Expr) -> Jet:
        if isinstance(node, Const):
            return Jet.const(node.value, order)
        if isinstance(node, UnitConst):
            try:
                return Jet.const(consts[node.name].value, order)
            except KeyError:
                raise UnknownIdentifier(node.name) from None
        if isinstance(node, Var):
            if node.index not in seeds:
                seeds[node.index] = Jet.seed(point, node.index, order)
            return seeds[node.index]
        if isinstance(node, Unary):
            u = ev(node.arg)
            if node.op == "neg":
                return -u
            return getattr(u, node.op)()
        if isinstance(node, Binary):
            a, b = ev(node.left), ev(node.right)
            if node.op == "add":
                return a + b
            if node.op == "sub":
                return a - b
            if node.op == "mul":
                return a * b
            return a / b
        if isinstance(node, PowInt):
            return ev(node.base).powi(node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return ev(expr)
    finally:
        del ev  # ev reaches itself through its closure: free it, and the cloud it holds, now


def eval_float(expr: Expr, point: Sequence[float], consts: ConstTable) -> float:
    """Direct recursive evaluation over plain floats (the order-0 oracle)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, UnitConst):
        try:
            return consts[expr.name].value
        except KeyError:
            raise UnknownIdentifier(expr.name) from None
    if isinstance(expr, Var):
        return float(point[expr.index])
    if isinstance(expr, Unary):
        u = eval_float(expr.arg, point, consts)
        if expr.op == "neg":
            return -u
        if expr.op == "sqrt":
            if u <= 0.0:
                raise DomainError(f"sqrt of nonpositive {u}")
            return math.sqrt(u)
        if expr.op == "exp":
            return math.exp(u)
        if expr.op == "log":
            if u <= 0.0:
                raise DomainError(f"log of nonpositive {u}")
            return math.log(u)
        return getattr(math, expr.op)(u)
    if isinstance(expr, Binary):
        a = eval_float(expr.left, point, consts)
        b = eval_float(expr.right, point, consts)
        if expr.op == "add":
            return a + b
        if expr.op == "sub":
            return a - b
        if expr.op == "mul":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if isinstance(expr, PowInt):
        u = eval_float(expr.base, point, consts)
        if expr.exponent < 0 and u == 0.0:
            raise DomainError("zero raised to a negative power")
        return u ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def eval_array(expr: Expr, coords: Sequence[np.ndarray], consts: ConstTable) -> np.ndarray:
    """Values over coordinate meshes (coords = X0..X3, broadcast together):
    an order-0 jet evaluation with every mesh node in one cloud."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    cloud = np.stack([np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in coords])
    return np.array(value_array(eval_jet(expr, cloud, 0, consts), cloud.shape[1:])).reshape(shape)


# ---------------------------------------------------------------------------
# field definitions


class FieldDef:
    """A named scalar component field: declared dimension plus expression.

    The dimension check runs once at construction: if the expression combines
    unit constants into a definite dimension it must match the declared one;
    bare numeric expressions adopt the declared dimension.
    """

    __slots__ = ("name", "dim", "expr", "consts")

    def __init__(self, name: str, dim: Dim, expr: Expr | str, consts: ConstTable | None = None):
        self.name = name
        self.dim = dim
        self.expr = parse(expr) if isinstance(expr, str) else expr
        self.consts = dict(consts) if consts else {}
        inferred = infer_dim(self.expr, self.consts)
        if inferred is not None and inferred != dim:
            raise DimensionMismatch(
                f"field {name!r}: declared dimension {dim} but expression has {inferred}"
            )

    def eval_jet(self, point: Sequence[float], order: int) -> Jet:
        return eval_jet(self.expr, point, order, self.consts)

    def eval_array(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        return eval_array(self.expr, coords, self.consts)

    def __call__(self, point: Sequence[float]) -> float:
        return eval_float(self.expr, point, self.consts)

    @property
    def constant(self) -> bool:
        return not variables(self.expr)

    def __repr__(self):
        return f"FieldDef({self.name!r}, {self.dim}, {to_source(self.expr)!r})"


def zero_field(name: str = "0", dim: Dim = DIMLESS) -> FieldDef:
    return FieldDef(name, dim, Const(0.0))
