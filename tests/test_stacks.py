"""The point suites pass their random special functions through the bracket
engine as one stack; stacking must change no result.

The per-draw loops kept here are the oracle: each function (and each cyclic
term of a Jacobi triple) evaluated on its own on the suite's cloud.  The
stacked calls must give the same arrays, bit for bit, signs of zero included.
"""

import numpy as np
import pytest

from cqm.background import Observer
from cqm.hermitian import from_special, hermiticity_residual, invariant_combination
from cqm.jets import max_abs
from cqm.scenario import load_scenario
from cqm.special import component_jets, extended_bracket_jets, jacobi_residual, stack_functions
from cqm.verify import _rng_for, _sample, main_theorem_residual, random_special_function

from conftest import SCENARIO_DIR, make_special


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.fixture(scope="module", params=[("curved_magnetic", 1), ("curved_magnetic", 16), ("flat", 1), ("flat", 16)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def sc(request):
    name, seed = request.param
    out = load_scenario(SCENARIO_DIR / f"{name}.json")
    out.seed = seed
    return out


def _draws(sc, suite, count, prefix):
    """The suite's cloud bundle and `count` random functions from its stream."""
    rng = _rng_for(sc, suite)
    bundle, _ = _sample(sc, rng)
    consts = sc.background.constants.table()
    return bundle, [random_special_function(rng, consts, name=f"{prefix}{t}") for t in range(count)]


def _jacobi_term_by_term(f1, f2, f3, bg, where):
    """jacobi_residual with each cyclic term evaluated on its own."""
    b = bg.jets(where)
    batch = b.point.shape[1:]
    comps = [component_jets(f, b, 2) for f in (f1, f2, f3)]
    total = np.zeros((8,) + batch)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = extended_bracket_jets(comps[j], comps[k], b, 1)
        outer = extended_bracket_jets(comps[i].truncate(1), inner, b, 0)
        total += outer.values(batch).as_array()
    return max_abs(total, batch)


def test_jacobi_residual_matches_its_terms_one_at_a_time(sc):
    bundle, funcs = _draws(sc, "jacobi", 3, "J")
    got = jacobi_residual(*funcs, sc.background, bundle)
    assert got.shape == bundle.point.shape[1:]
    _assert_same(got, _jacobi_term_by_term(*funcs, sc.background, bundle))


def test_main_theorem_residual_of_stacks_matches_each_pair(sc):
    bundle, funcs = _draws(sc, "isomorphism", 8, "I")
    firsts, seconds = funcs[0::2], funcs[1::2]
    vec, mat = main_theorem_residual(stack_functions(firsts), stack_functions(seconds), sc, bundle)
    assert vec.shape == mat.shape == (4,) + bundle.point.shape[1:]
    for t, (f, fp) in enumerate(zip(firsts, seconds)):
        want_vec, want_mat = main_theorem_residual(f, fp, sc, bundle)
        _assert_same(vec[t], want_vec)
        _assert_same(mat[t], want_mat)


def test_hermiticity_residual_of_a_stack_matches_each_function(sc):
    bundle, funcs = _draws(sc, "isomorphism", 4, "H")
    got = hermiticity_residual(from_special(stack_functions(funcs), sc.qd), sc.qd, bundle)
    assert got.shape == (4,) + bundle.point.shape[1:]
    for t, f in enumerate(funcs):
        _assert_same(got[t], hermiticity_residual(from_special(f, sc.qd), sc.qd, bundle))


def test_invariant_combination_of_a_stack_matches_each_function(sc):
    bundle, funcs = _draws(sc, "observer", 3, "O")
    consts = sc.background.constants.table()
    moving = Observer(tuple(random_special_function(np.random.default_rng(5), consts).fi))
    for o in (Observer.reference(), moving):
        got = invariant_combination(stack_functions(funcs), sc.qd, o, bundle)
        assert got.shape == (3,) + bundle.point.shape[1:]
        for t, f in enumerate(funcs):
            _assert_same(got[t], invariant_combination(f, sc.qd, o, bundle))


def test_a_stack_of_constant_functions_on_a_cloud_keeps_the_cloud_axis(sc):
    """Point-shaped components are broadcast to the cloud before they are
    stacked, so a stack's leading axis never meets the cloud's."""
    bundle, funcs = _draws(sc, "observer", 1, "O")
    consts = sc.background.constants.table()
    constant = make_special(consts, f0="0.5", fi=("0.1", "0", "-0.2"), fbrev="1", phi=("0", "0.3", "0"))
    got = invariant_combination(stack_functions([constant, funcs[0]]), sc.qd, Observer.reference(), bundle)
    assert got.shape == (2,) + bundle.point.shape[1:]
    _assert_same(got[1], invariant_combination(funcs[0], sc.qd, Observer.reference(), bundle))
    _assert_same(got[0], np.broadcast_to(invariant_combination(constant, sc.qd, Observer.reference(), bundle),
                                         bundle.point.shape[1:]))
