"""Scenario files: JSON descriptions of a background, observers, potential,
special-function table, grid and verification-suite parameters.

Schema (all field values are expression strings in the field language):

    {
      "constants": {"m": 1.0, "q": 1.0, "hbar": 1.0, "mu": 1.0, "u0": 1.0,
                    "b": {"value": 0.4, "dim": {"l": "1/2", "t": "0", "m": "1/2"}}},
      "metric":    [["1","0","0"],["0","1","0"],["0","0","1"]],
      "Kgrav":     {"1_00": "...", "1_02": "...", ...},  # free slots: keys i_00, i_0j
      "F":         {"12": "b", ...},                      # keys lm with l < m
      "observers": {"name": ["o1","o2","o3"], ...},
      "A":         ["A0","A1","A2","A3"],
      "functions": {"name": {"f0": "...", "fi": [...], "fbrev": "...", "phi": [...]}
                    | {"builtin": "spin_n", "n": ["...","...","..."]}},
      "grid":      {"axes": [[lo,hi,n],[lo,hi,n],[lo,hi,n]], "time": 0.0,
                    "psi0": [["re","im"],["re","im"]]},
      "suite":     {"samples": 100, "seed": 1234, "box": [[lo,hi] x4]}
    }

Missing metric defaults to the identity, missing connection/F entries to "0".
The metric fixes the spatial slots of Kgrav and the symmetric part of its
K^i_0j (the background bundle derives them); Kgrav holds the free slots,
K^i_00 and the g-antisymmetric part of K^i_0j.  A section of another shape
(a list where a mapping belongs, a list of the wrong length, a non-number
where a number belongs, a non-finite grid time or box) is a ScenarioError,
and so are a spatial Kgrav key ('1_11'), two Kgrav keys for one slot
('1_02' and '1_20'), a constant field expression that is not a finite
number (exp(1000), log(0)), a constant metric whose det g =
sqrt|g| sqrt|g| from its Cholesky frame is not a positive finite number
(1e200 or 1e-200 on the diagonal) or whose g^-1 is not finite, an m, hbar
or u0 that is not a positive normal number, a u0 hbar / m or m / (hbar u0)
that is not finite and nonzero, and a suite.samples or suite.seed that is
not an integer (2.7, true) or is below 1 or 0.  A constant metric that is
not positive definite is a NotPositiveDefinite at the first Cholesky pivot
that is not positive (g00 = -1.0 for diag(-1, 1, 1)); diag(1e200, 1e200,
1e-200), whose det g and g^-1 are finite, loads.  Unknown keys are ignored.  psi0 is normalised on the
grid.  The check bounds of `cqm verify` are constants (verify.TOLERANCES).
The builtins x0..x3, P1..P3, H0 and H0prime are always registered; H0prime
includes the spin term phi = -u0 mu B_flat.  On every background H0prime is
a derived function whose one evaluator reads phi off the background
bundle's magnetic field.
spin_n(n) is the spin observable along the unit covector n (phi = -n), so
its pre-quantum operator is (1/2) n^i sigma_i.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import fieldlang as fl
from .background import Background, Constants, Observer
from .fieldlang import FieldDef
from .hermitian import QuantumData, SpinorSection
from .jets import DomainError, value_array
from .quantum import GridSpec, SpinorGrid, node_map
from .special import ComponentJets, SpecialFunction
from .units import (
    CHARGE_DIM,
    DIMLESS,
    EM_FIELD_DIM,
    HBAR_DIM,
    MASS,
    METRIC_DIM,
    MOMENT_DIM,
    TIME,
    Dim,
    ScaledReal,
)

_CANONICAL_DIMS = {"m": MASS, "q": CHARGE_DIM, "hbar": HBAR_DIM, "mu": MOMENT_DIM, "u0": TIME}


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    background: Background
    observers: dict
    qd: QuantumData
    functions: dict
    grid: GridSpec | None
    psi0: SpinorSection | None
    samples: int
    seed: int
    box: np.ndarray

    def function(self, name: str) -> SpecialFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise ScenarioError(f"unknown special function {name!r}") from None

    def sample_points(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        n = n if n is not None else self.samples
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + (hi - lo) * rng.random((n, 4))

    def initial_grid(self) -> SpinorGrid:
        """psi0 on the scenario grid, normalised with the weight sqrt|g| of
        `inner_product`, read off one order-0 jet pass over the nodes."""
        if self.grid is None or self.psi0 is None:
            raise ScenarioError("scenario has no grid/psi0 section")
        coords = self.grid.mesh4()
        psi = np.zeros(self.grid.shape + (2,), dtype=complex)
        # a domain error (log(0), 1/0) and an overflow are reported as the same
        # error, not as warnings
        try:
            with np.errstate(all="ignore"):
                for comp in range(2):
                    re_f, im_f = self.psi0.components[comp]
                    psi[..., comp] = re_f.eval_array(coords) + 1j * im_f.eval_array(coords)
            finite = np.all(np.isfinite(psi))
        except DomainError:
            finite = False
        if not finite:
            raise ScenarioError("psi0 is not finite on the grid")
        bg = self.background
        sqrtg = node_map(coords, lambda cloud: [bg.jets(cloud).sqrt_det(0)])[0][0]
        dens = np.einsum("...s,...s->...", psi.conj(), psi)
        nrm = math.sqrt(complex(np.sum(dens * sqrtg) * self.grid.dvol).real)
        if nrm == 0.0:
            raise ScenarioError("psi0 is identically zero")
        return SpinorGrid(self.grid, psi / nrm)


def _shaped(obj, kind, where: str, length: int | None = None):
    """`obj` when it is a mapping (kind Mapping) or a list (kind list) of
    `length` entries, else a ScenarioError naming `where`."""
    ok = isinstance(obj, Mapping) if kind is Mapping else isinstance(obj, (list, tuple))
    if not ok or (length is not None and len(obj) != length):
        what = "a mapping" if kind is Mapping else f"a list of {length}" if length else "a list"
        raise ScenarioError(f"{where} must be {what}, got {obj!r}")
    return obj


def _count(raw, where: str, least: int, what: str) -> int:
    """`raw` when it is an integer of at least `least` (not a bool, nor a
    float such as 2.7), else a ScenarioError saying that `where` must be
    `what`."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral) or raw < least:
        raise ScenarioError(f"{where} must be {what}, got {raw!r}")
    return int(raw)


def _converted(raw, kind, where: str, what: str = "a number"):
    """`raw` converted by `kind` (float, int, Dim.from_json, ...), or a
    ScenarioError saying that `where` must be `what`."""
    try:
        return kind(raw)
    except (TypeError, ValueError, KeyError, ArithmeticError):
        raise ScenarioError(f"{where} must be {what}, got {raw!r}") from None


def _parse_constants(obj: Mapping) -> Constants:
    table = {}
    extras = {}
    for name, dim in _CANONICAL_DIMS.items():
        raw = obj.get(name, 1.0)
        if isinstance(raw, Mapping):
            raw = raw.get("value", 1.0)
        table[name] = ScaledReal(_converted(raw, float, f"constants.{name}"), dim)
    for name, raw in obj.items():
        if name in _CANONICAL_DIMS:
            continue
        if isinstance(raw, Mapping):
            dim = _converted(raw.get("dim", {"l": "0", "t": "0", "m": "0"}), Dim.from_json,
                             f"constants.{name}.dim", 'a mapping of "l", "t", "m" to rationals')
            extras[name] = ScaledReal(_converted(raw.get("value"), float, f"constants.{name}.value"), dim)
        else:
            extras[name] = ScaledReal(_converted(raw, float, f"constants.{name}"), DIMLESS)
    for name in ("m", "hbar", "u0"):
        if not table[name].value >= sys.float_info.min:
            raise ScenarioError(f"constants.{name} must be a positive normal number, got {table[name].value!r}")
    m, hbar, u0 = (table[name].value for name in ("m", "hbar", "u0"))
    for what, value in (("u0 hbar / m", u0 * hbar / m), ("m / (hbar u0)", m / (hbar * u0))):
        if not 0.0 < value < math.inf:
            raise ScenarioError(f"constants: {what} = {value!r} is not a finite nonzero number")
    return Constants(extras=extras, **table)


def _fdef(name: str, dim: Dim, source: str, consts, where: str) -> FieldDef:
    """The field of `source`; a constant one must be a finite number."""
    try:
        field = FieldDef(name, dim, source, consts)
    except Exception as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    if field.constant:
        try:
            value = field((0.0, 0.0, 0.0, 0.0))
        except (ArithmeticError, ValueError) as exc:  # exp(1000), log(0), sin(1e400)
            raise ScenarioError(f"{where}: the constant {source!r} is not a finite number ({exc})") from None
        if not math.isfinite(value):  # 1e200*1e200
            raise ScenarioError(f"{where}: the constant {source!r} is not a finite number ({value})")
    return field


def _parse_metric(obj, consts) -> list:
    if obj is None:
        obj = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    obj = _shaped(obj, list, "metric", 3)
    rows = []
    for i in range(3):
        row = _shaped(obj[i], list, f"metric[{i}]", 3)
        rows.append([_fdef(f"g{i + 1}{j + 1}", METRIC_DIM, str(row[j]), consts, f"metric[{i}][{j}]")
                     for j in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            if rows[i][j].expr != rows[j][i].expr:
                raise ScenarioError(f"metric is not symmetric at ({i},{j})")
    return rows


def _check_constant_metric(bg: Background):
    """A constant metric must have a Cholesky frame (NotPositiveDefinite
    names the first pivot that is not positive, g00 = -1.0 for
    diag(-1, 1, 1)), a det g = sqrt|g| sqrt|g| that is a positive finite
    number and a finite g^-1, both read off that frame at the origin.  A
    product reads inf where det g overflows; diag(1e200, 1e200, 1e-200),
    whose det g and g^-1 are finite, loads."""
    b = bg.jets(np.zeros(4))
    with np.errstate(all="ignore"):
        sqrtg = b.sqrt_det(0).value
        det = sqrtg * sqrtg
        if not (math.isfinite(det) and det > 0.0):
            raise ScenarioError(f"metric: det g = {det!r} is not a positive finite number")
        if not np.all(np.isfinite(value_array(b.metric_inv(0)))):
            raise ScenarioError(f"metric: g^-1 is not finite (det g = {det!r})")


def _parse_kgrav(obj, consts) -> dict:
    """The free slots of the gravitational connection, K^i_00 (key 'i_00')
    and K^i_0j (key 'i_0j' or 'i_j0'), keyed (i, 0, mu); the metric fixes
    the spatial slots and the symmetric part of K^i_0j."""
    out = {}
    set_by = {}
    for key, source in _shaped({} if obj is None else obj, Mapping, "Kgrav").items():
        m = re.fullmatch(r"([1-3])_([0-3])([0-3])", str(key))
        if m is None:
            raise ScenarioError(f"bad Kgrav key {key!r} (expected e.g. '1_02')")
        i, lam, mu = (int(d) for d in m.groups())
        if min(lam, mu) != 0:
            raise ScenarioError(f"Kgrav key {key!r}: the metric fixes the spatial slots; only i_00 and i_0j are free")
        slot = (i, 0, max(lam, mu))
        if slot in set_by:
            raise ScenarioError(f"Kgrav keys {set_by[slot]!r} and {key!r} set the same symmetric slot")
        set_by[slot] = key
        out[slot] = _fdef(f"K{key}", DIMLESS, str(source), consts, f"Kgrav[{key}]")
    return out


def _parse_f(obj, consts) -> dict:
    out = {}
    for key, source in _shaped(obj or {}, Mapping, "F").items():
        m = re.fullmatch(r"([0-3])([0-3])", str(key))
        if m is None or m[1] >= m[2]:
            raise ScenarioError(f"bad F key {key!r} (expected e.g. '12' with l < m)")
        out[(int(m[1]), int(m[2]))] = _fdef(f"F{key}", EM_FIELD_DIM, str(source), consts, f"F[{key}]")
    return out


def _builtin_functions(bg: Background, a_exprs, consts) -> dict:
    zero = fl.zero_field()
    one = FieldDef("1", DIMLESS, "1", consts)
    funcs = {}
    for lam, sym in enumerate(("x0", "x1", "x2", "x3")):
        funcs[sym] = SpecialFunction.scalar(zero, (zero, zero, zero), FieldDef(sym, DIMLESS, sym, consts), name=sym)
    for i in range(3):
        fi = tuple(one if j == i else zero for j in range(3))
        fbrev = FieldDef(f"A{i + 1}", DIMLESS, a_exprs[i + 1], consts)
        funcs[f"P{i + 1}"] = SpecialFunction.scalar(zero, fi, fbrev, name=f"P{i + 1}")
    neg_a0 = FieldDef("-A0", DIMLESS, fl.Unary("neg", fl.parse(a_exprs[0])), consts)
    funcs["H0"] = SpecialFunction.scalar(one, (zero, zero, zero), neg_a0, name="H0")
    c = bg.constants
    w = -c.u0.value * c.mu.value

    def jets_fn(where, order):  # one bundle gives all three spin components, at the order read
        bundle = bg.jets(where)
        point = bundle.point
        return ComponentJets(one.eval_jet(point, order), [zero.eval_jet(point, order) for _ in range(3)],
                             neg_a0.eval_jet(point, order), lambda n: [b * w for b in bundle.magnetic(n)], order)

    funcs["H0prime"] = SpecialFunction(name="H0prime", jets_fn=jets_fn)
    return funcs


def _parse_function(name: str, obj: Mapping, consts) -> SpecialFunction:
    zero = fl.zero_field()
    if "builtin" in obj:
        kind = obj["builtin"]
        if kind != "spin_n":
            raise ScenarioError(f"functions[{name}]: unknown builtin {kind!r}")
        n_exprs = _shaped(obj.get("n"), list, f"functions[{name}].n", 3)
        phi = tuple(
            _fdef(f"{name}.phi{a}", DIMLESS, f"-({n_exprs[a]})", consts, f"functions[{name}]")
            for a in range(3)
        )
        return SpecialFunction(zero, (zero, zero, zero), zero, phi, name=name)
    def get(field_name, default="0"):
        return str(obj.get(field_name, default))

    fi = _shaped(obj.get("fi", ["0", "0", "0"]), list, f"functions[{name}].fi", 3)
    phi = _shaped(obj.get("phi", ["0", "0", "0"]), list, f"functions[{name}].phi", 3)
    return SpecialFunction(
        _fdef(f"{name}.f0", DIMLESS, get("f0"), consts, f"functions[{name}].f0"),
        tuple(_fdef(f"{name}.f{i + 1}", DIMLESS, str(fi[i]), consts, f"functions[{name}].fi") for i in range(3)),
        _fdef(f"{name}.fbrev", DIMLESS, get("fbrev"), consts, f"functions[{name}].fbrev"),
        tuple(_fdef(f"{name}.phi{a}", DIMLESS, str(phi[a]), consts, f"functions[{name}].phi") for a in range(3)),
        name=name,
    )


def is_json_text(source) -> bool:
    """A string that starts with `{` or `[` is JSON text; any other string
    is a path."""
    return isinstance(source, str) and source.lstrip().startswith(("{", "["))


def load_scenario(source) -> Scenario:
    """Load a scenario from a path, JSON string (`is_json_text`), or parsed
    mapping."""
    if isinstance(source, (str, Path)) and not is_json_text(source):
        path = Path(source)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {source}")
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {source}: {exc.strerror or exc}") from exc
    elif isinstance(source, str):
        text = source
    else:
        text = None
    if text is not None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
    else:
        data = source
    data = _shaped(data, Mapping, "the scenario")
    constants = _parse_constants(_shaped(data.get("constants", {}), Mapping, "constants"))
    consts = constants.table()
    g = _parse_metric(data.get("metric"), consts)
    kgrav = _parse_kgrav(data.get("Kgrav"), consts)
    f_em = _parse_f(data.get("F"), consts)
    bg = Background(g, kgrav, f_em, constants)
    if all(f.constant for row in g for f in row):
        _check_constant_metric(bg)

    observers = {"reference": Observer.reference()}
    for name, comps in _shaped(data.get("observers") or {}, Mapping, "observers").items():
        _shaped(comps, list, f"observers[{name}]", 3)
        observers[name] = Observer(
            tuple(_fdef(f"{name}.o{i + 1}", DIMLESS, str(comps[i]), consts, f"observers[{name}]") for i in range(3))
        )

    a_exprs = tuple(str(e) for e in _shaped(data.get("A", ["0", "0", "0", "0"]), list, "A", 4))
    a_fields = tuple(_fdef(f"A{lam}", DIMLESS, a_exprs[lam], consts, f"A[{lam}]") for lam in range(4))
    qd = QuantumData.standard(bg, a_fields)

    functions = _builtin_functions(bg, a_exprs, consts)
    for name, obj in _shaped(data.get("functions") or {}, Mapping, "functions").items():
        functions[name] = _parse_function(name, _shaped(obj, Mapping, f"functions[{name}]"), consts)

    grid_obj = data.get("grid")
    grid = None
    psi0 = None
    if grid_obj:
        axes = _shaped(_shaped(grid_obj, Mapping, "grid").get("axes"), list, "grid.axes", 3)
        axes = tuple(tuple(_shaped(ax, list, f"grid.axes[{k}]", 3)) for k, ax in enumerate(axes))
        time = _converted(grid_obj.get("time", 0.0), float, "grid.time")
        if not np.isfinite(time):
            raise ScenarioError(f"grid.time must be finite, got {time}")
        grid = GridSpec(axes, time)
        if "psi0" in grid_obj:
            comps = _shaped(grid_obj["psi0"], list, "grid.psi0", 2)
            for a in range(2):
                _shaped(comps[a], list, f"grid.psi0[{a}]", 2)
            psi0 = SpinorSection(
                tuple(
                    (
                        _fdef(f"psi0_{a}re", DIMLESS, str(comps[a][0]), consts, "grid.psi0"),
                        _fdef(f"psi0_{a}im", DIMLESS, str(comps[a][1]), consts, "grid.psi0"),
                    )
                    for a in range(2)
                )
            )

    suite = _shaped(data.get("suite", {}), Mapping, "suite")
    box = _converted(suite.get("box", [[-1.0, 1.0]] * 4), lambda v: np.array(v, dtype=float), "suite.box",
                     "4 [lo, hi] pairs")
    if box.shape != (4, 2):
        raise ScenarioError("suite.box must be 4 [lo, hi] pairs")
    if not np.all(np.isfinite(box)):
        raise ScenarioError(f"suite.box must be finite, got {box.tolist()}")
    samples = _count(suite.get("samples", 100), "suite.samples", 1, "a positive integer")
    seed = _count(suite.get("seed", 20240101), "suite.seed", 0, "a nonnegative integer")
    return Scenario(
        background=bg,
        observers=observers,
        qd=qd,
        functions=functions,
        grid=grid,
        psi0=psi0,
        samples=samples,
        seed=seed,
        box=box,
    )
