"""A residual evaluates each special function once, at the highest order it
reads, and hands truncations of that one evaluation to every reader
(special.evaluated).

The truncations must equal the evaluations at the lower orders bit for bit,
signs of zero included, and the point suites must evaluate each field of
their random functions exactly once.
"""

import collections

import numpy as np
import pytest

from cqm import verify
from cqm.fieldlang import FieldDef
from cqm.scenario import load_scenario
from cqm.special import component_jets, evaluated, stack_functions
from cqm.verify import _rng_for, bracket_as_function, random_special_function

from conftest import SCENARIO_DIR, sample_box, scenario_dict

# the highest order each kind can be evaluated at with all eight components
# read: a bracket reads its operands one order up, and its spin part rho
# two metric derivatives past its own order
MAX_ORDER = {"field": 3, "derived": 1}


@pytest.fixture(scope="module")
def sc():
    return load_scenario(scenario_dict("curved_magnetic"))


def _bits(jet):
    return np.ascontiguousarray(jet.c, dtype=float).view(np.uint64)


def _components(c):
    return [c.f0, *c.fi, c.fbrev, *c.phi]


def _case(sc, where, kind):
    """(function, bundle): one draw at a point or on a 7-point cloud, or a
    stack of three draws on the cloud; a field-built draw or a bracket."""
    rng = np.random.default_rng(41)
    consts = sc.background.constants.table()
    count = 3 if where == "stack" else 1
    draws = [[random_special_function(rng, consts, name=f"E{t}{s}") for t in range(count)] for s in "ab"]
    fa, fb = (stack_functions(d) if where == "stack" else d[0] for d in draws)
    f = fa if kind == "field" else bracket_as_function(fa, fb, sc)
    points = sample_box(rng, 7)
    return f, sc.background.jets(points[0] if where == "point" else points.T)


@pytest.mark.parametrize("kind", ["field", "derived"])
@pytest.mark.parametrize("where", ["point", "cloud", "stack"])
def test_truncations_of_one_evaluation_are_the_lower_evaluations(sc, where, kind):
    f, bundle = _case(sc, where, kind)
    batch = {"point": (), "cloud": (7,), "stack": (3, 7)}[where]
    for n in range(MAX_ORDER[kind] + 1):
        once = evaluated(f, bundle, n)
        for k in range(n, -1, -1):  # the top order first, so its parts are read before they are truncated
            got, want = component_jets(once, bundle, k), component_jets(f, bundle, k)
            assert got.order == want.order == k
            for g, w in zip(_components(got), _components(want)):
                assert g.order == w.order == k
                assert g.batch == w.batch == batch
                assert np.array_equal(_bits(g), _bits(w))


def test_an_evaluation_serves_only_its_bundle_and_orders(sc):
    f, bundle = _case(sc, "cloud", "field")
    once = evaluated(f, bundle, 1)
    with pytest.raises(ValueError, match="another bundle"):
        component_jets(once, sc.background.jets(bundle.point), 0)
    with pytest.raises(ValueError, match="another bundle"):
        component_jets(once, bundle.point, 0)
    with pytest.raises(ValueError, match="order 1, not 2"):
        component_jets(once, bundle, 2)


def _field_evaluations(monkeypatch, suite):
    """The orders at which suite evaluates each field of its random special
    functions, on curved_magnetic at seed 1, and the number of functions."""
    fields, orders = [], collections.defaultdict(list)
    draw = verify.random_special_function
    eval_jet = FieldDef.eval_jet

    def recording_draw(*args, **kwargs):
        f = draw(*args, **kwargs)
        fields.extend((f.f0, *f.fi, f.fbrev, *f.phi))
        return f

    def counting_eval_jet(self, point, order):
        orders[id(self)].append(order)
        return eval_jet(self, point, order)

    monkeypatch.setattr(verify, "random_special_function", recording_draw)
    monkeypatch.setattr(FieldDef, "eval_jet", counting_eval_jet)
    sc = load_scenario(SCENARIO_DIR / "curved_magnetic.json")
    sc.seed = 1
    getattr(verify, f"suite_{suite}")(sc, _rng_for(sc, suite))
    return [orders[id(field)] for field in fields], len(fields) // 8


@pytest.mark.parametrize("suite, functions, order", [("isomorphism", 8, 2), ("observer", 3, 0)])
def test_a_point_suite_evaluates_each_random_field_once(monkeypatch, suite, functions, order):
    per_field, count = _field_evaluations(monkeypatch, suite)
    assert count == functions
    assert per_field == [[order]] * (8 * functions)
