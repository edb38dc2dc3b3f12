import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqm import jets as jets_module
from cqm.jets import INDEX_OF, MULTI_INDICES, SIZES, DomainError, Jet, batch_shape, jet_stack, max_abs, value_array

from oracles import extract


def fd_partial(f, point, alpha, h):
    """Central-difference partial derivative for a multi-index alpha."""
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


def test_layout_sizes():
    assert SIZES == (1, 5, 15, 35)
    assert len(MULTI_INDICES) == 35
    # graded order with degree-1 block ordered x0, x1, x2, x3
    assert MULTI_INDICES[1:5] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_seed_basics():
    j = Jet.seed((0.0, 1.0, 2.0, 3.0), 2, 1)
    assert j.value == 2.0
    assert extract(j, (0, 0, 1, 0)) == 1.0
    assert extract(j, (0, 1, 0, 0)) == 0.0
    j0 = Jet.seed((0.5, 0, 0, 0), 0, 0)
    assert j0.order == 0 and j0.value == 0.5


def test_seed_second_derivative_zero():
    j = Jet.seed((0, 1, 2, 3), 1, 2)
    assert extract(j, (0, 2, 0, 0)) == 0.0


def test_seed_order_out_of_range():
    with pytest.raises(ValueError):
        Jet.seed((0, 0, 0, 0), 1, 4)


def test_square_of_coordinate():
    j = Jet.seed((0, 3, 0, 0), 1, 2)
    p = j * j
    assert p.value == 9.0
    assert extract(p, (0, 1, 0, 0)) == 6.0
    # Taylor coefficient is 1, derivative is 2
    assert p.c[[i for i, a in enumerate(MULTI_INDICES) if a == (0, 2, 0, 0)][0]] == 1.0
    assert extract(p, (0, 2, 0, 0)) == 2.0


def test_cube_extract_factorial():
    j = Jet.seed((0, 2, 0, 0), 1, 3)
    p = j * j * j
    assert extract(p, (0, 3, 0, 0)) == pytest.approx(6.0)


def test_mixed_product_extract():
    x1 = Jet.seed((0, 0.7, -0.3, 0), 1, 2)
    x2 = Jet.seed((0, 0.7, -0.3, 0), 2, 2)
    assert extract(x1 * x2, (0, 1, 1, 0)) == pytest.approx(1.0)


def test_exp_of_zero_constant():
    j = Jet.const(0.0, 0).exp()
    assert j.order == 0 and j.value == 1.0


def test_sin_matches_fd_with_h_sweep():
    point = (0.7, 0.0, 0.0, 0.0)
    j = Jet.seed(point, 0, 3).sin()

    def f(p):
        return math.sin(p[0])

    for alpha in ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)):
        errs = []
        for h in (1e-2, 5e-3):
            errs.append(abs(extract(j, alpha) - fd_partial(f, point, alpha, h)))
        # O(h^2): halving h shrinks the error ~4x (allow slack for roundoff)
        assert errs[1] < errs[0] / 3.0 or errs[0] < 1e-11


def test_rational_function_matches_fd():
    point = (0.2, 0.5, -0.4, 0.9)

    def build(p):
        x = [Jet.seed(p, v, 3) for v in range(4)]
        return (x[1] * x[2] + 1.0) / (x[0] * x[0] + 2.0) + (x[3] * 0.5).sin()

    def f(p):
        return (p[1] * p[2] + 1.0) / (p[0] ** 2 + 2.0) + math.sin(0.5 * p[3])

    j = build(point)
    for alpha in ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2), (1, 1, 0, 1)):
        fd = fd_partial(f, point, alpha, 1e-3)
        assert extract(j, alpha) == pytest.approx(fd, abs=1e-5)


coeff_arrays = st.lists(st.floats(-2.0, 2.0), min_size=35, max_size=35)


@settings(max_examples=60, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_product_rule(ca, cb):
    f = Jet(3, np.array(ca))
    g = Jet(3, np.array(cb))
    p = f * g
    for v in range(4):
        alpha = tuple(1 if k == v else 0 for k in range(4))
        lhs = extract(p, alpha)
        rhs = extract(f, alpha) * g.value + f.value * extract(g, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_division_chain(ca, cb):
    f = Jet(3, np.array(ca))
    g = Jet(3, np.array(cb))
    # keep g well conditioned
    g.c[0] = 2.0 + abs(g.c[0])
    q = (f / g) * g
    assert np.allclose(q.c, f.c, rtol=1e-12, atol=1e-12)


def test_mixed_partials_structural():
    # coefficients are stored by unordered multi-index: d1 d2 and d2 d1 read
    # the same slot by construction
    from cqm.jets import INDEX_OF

    assert INDEX_OF[(0, 1, 1, 0)] == INDEX_OF[tuple((0, 1, 1, 0))]
    j = Jet.seed((0, 0.3, 0.4, 0), 1, 2) * Jet.seed((0, 0.3, 0.4, 0), 2, 2)
    assert extract(j, (0, 1, 1, 0)) == extract(j, (0, 1, 1, 0))


def test_derive_drops_order():
    j = Jet.seed((0, 0.5, 0, 0), 1, 3).sin()
    d = j.derive(1)
    assert d.order == 2
    assert d.value == pytest.approx(math.cos(0.5))
    assert extract(d, (0, 1, 0, 0)) == pytest.approx(-math.sin(0.5))
    with pytest.raises(ValueError):
        Jet.const(1.0, 0).derive(0)


def test_domain_errors():
    with pytest.raises(DomainError):
        Jet.const(-1.0, 2).sqrt()
    with pytest.raises(DomainError):
        Jet.const(0.0, 2).log()
    with pytest.raises(DomainError):
        Jet.const(1.0, 2) / Jet.const(0.0, 2)


def test_powi():
    j = Jet.seed((0, 1.5, 0, 0), 1, 3)
    assert (j ** 4).value == pytest.approx(1.5 ** 4)
    assert extract(j ** 4, (0, 1, 0, 0)) == pytest.approx(4 * 1.5 ** 3)
    assert (j ** -2).value == pytest.approx(1.5 ** -2)
    assert (j ** 0).value == 1.0


def test_extract_order_exceeded():
    j = Jet.seed((0, 1, 0, 0), 1, 1)
    with pytest.raises(ValueError):
        extract(j, (0, 2, 0, 0))


def test_binary_ops_truncate_to_lower_order():
    a = Jet.seed((0, 1, 0, 0), 1, 3)
    b = Jet.seed((0, 1, 0, 0), 1, 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_jets_are_real():
    """A jet holds a real field: a complex number, a numpy complex scalar or
    array among them, is no jet and combines with none."""
    x = Jet.seed((0.3, 0.4, 0, 0), 0, 2)
    for op in (lambda: Jet.const(1j, 1), lambda: Jet.const(np.complex128(2 + 1j), 0),
               lambda: Jet.const(np.full(3, 2 + 1j), 1), lambda: Jet.const(2 + 0j, 0),
               lambda: x * 1j, lambda: x + 1j, lambda: 1j * x, lambda: x - 1j):
        with pytest.raises(TypeError):
            op()
    for op in (lambda j: j + 1.0, lambda j: j * 2, lambda j: j / 3.0, lambda j: 1.0 - j,
               lambda j: j * j, Jet.exp, Jet.recip):
        assert op(x).c.dtype == np.float64


# -- clouds: a (N, size) jet must equal the N stacked point jets ------------

def _stacked(op, *clouds):
    """op applied point by point to the rows of the cloud operands."""
    rows = [op(*(Jet(c.order, c.c[k].copy()) for c in clouds)) for k in range(clouds[0].c.shape[0])]
    return np.stack([r.c for r in rows])


def _assert_ulps(got, want, ulps=8):
    # a few ulps of the largest coefficient
    scale = max(1.0, float(np.max(np.abs(want))))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= ulps * np.finfo(float).eps * scale


_UNARY_OPS = {
    "neg": lambda a: -a,
    "recip": Jet.recip,
    "sqrt": Jet.sqrt,
    "exp": Jet.exp,
    "log": Jet.log,
    "sin": Jet.sin,
    "cos": Jet.cos,
    "powi3": lambda a: a.powi(3),
    "powi-2": lambda a: a.powi(-2),
    "scale": lambda a: a * 0.7,
    "div_number": lambda a: a / 1.3,
}
_BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}
@st.composite
def clouds(draw):
    """Two clouds of one order: coefficients in [-2, 2], value slots in
    [0.5, 2.5] so that every domain-restricted operation is defined."""
    order = draw(st.integers(0, 3))
    n = draw(st.sampled_from([1, 7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        c = rng.uniform(-2.0, 2.0, (n, SIZES[order]))
        c[:, 0] = rng.uniform(0.5, 2.5, n)
        out.append(Jet(order, c))
    return out


@settings(max_examples=40, deadline=None)
@given(clouds())
def test_cloud_operations_match_stacked_points(pair):
    a, b = pair
    for op in _UNARY_OPS.values():
        _assert_ulps(op(a).c, _stacked(op, a))
    for op in _BINARY_OPS.values():
        _assert_ulps(op(a, b).c, _stacked(op, a, b))
    for v in range(4):
        if a.order > 0:
            _assert_ulps(a.derive(v).c, _stacked(lambda j: j.derive(v), a))
    for order in range(a.order + 1):
        _assert_ulps(a.truncate(order).c, _stacked(lambda j: j.truncate(order), a))


@settings(max_examples=20, deadline=None)
@given(clouds())
def test_point_jets_broadcast_against_clouds(pair):
    a, b = pair
    point = Jet(b.order, b.c[0].copy())
    for op in _BINARY_OPS.values():
        _assert_ulps(op(a, point).c, _stacked(lambda j: op(j, point), a))
        _assert_ulps(op(point, a).c, _stacked(lambda j: op(point, j), a))


def test_cloud_seeds_value_and_extract():
    cloud = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [-1.0, 0.0, 1.0], [0.5, 0.5, 0.5]])
    x1 = Jet.seed(cloud, 1, 2)
    assert x1.c.shape == (3, 15)
    assert np.array_equal(x1.value, [1.0, 2.0, 3.0])
    sq = x1 * x1
    assert np.array_equal(extract(sq, (0, 1, 0, 0)), [2.0, 4.0, 6.0])
    assert np.array_equal(extract(sq, (0, 2, 0, 0)), [2.0, 2.0, 2.0])
    for k in range(3):
        point = Jet.seed(cloud[:, k], 1, 2) * Jet.seed(cloud[:, k], 1, 2)
        assert np.array_equal(sq.c[k], point.c)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("point", [(0.3, 0.7, -0.2, 0.5), [[0.3, -0.4], [0.7, 1.4], [-0.2, 0.6], [0.5, -0.9]]],
                         ids=["point", "cloud"])
def test_sqrt_of_a_huge_jet_scales_without_overflow(point, order):
    """sqrt(1e200 f) = 1e100 sqrt(f): no Taylor factor forms a power of the
    value slot that overflows (v^2.5 does past v ~ 1e123).  At order 3, f is
    constant, as the volume of a constant metric is: the cube of a
    1e200-sized derivative part would overflow in any formula."""
    x = [Jet.seed(np.array(point, dtype=float), v, order) for v in range(4)]
    f = (x[0] + 2.0) * (x[1] * x[2] + 1.5) + x[3] * x[3]
    if order == 3:
        f = Jet.const(f.value, order)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        big, ref = (f * 1e200).sqrt(), f.sqrt()
    np.testing.assert_allclose(big.c, 1e100 * ref.c, rtol=1e-15, atol=0)


@pytest.mark.parametrize("op", ["recip", "sqrt", "exp", "log", "sin", "cos"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["point", "cloud"])
def test_a_constant_composes_to_the_constant_of_its_value(op, shape):
    """g of a constant is the constant g(value), with no Taylor factor
    formed: 1/v^4 of a 1e-300 constant would overflow, and 0 * inf in its
    zero slots would give NaN."""
    v = np.full(shape, 1e-300)
    with np.errstate(all="raise"):
        got = getattr(Jet.const(v, 3), op)()
        want = getattr(np, {"recip": "reciprocal"}.get(op, op))(v)
    assert np.array_equal(got.c, Jet.const(want, 3).c)


@pytest.mark.parametrize("op", ["sqrt", "log"])
def test_composition_forms_only_the_factors_its_order_uses(op):
    """At order 1, sqrt and log of a field whose value is 1e-300 form no
    1/v^2 (which overflows) and give the exact first derivative."""
    x = Jet.seed((1e-300, 0, 0, 0), 0, 1)
    with np.errstate(all="raise"):
        got = getattr(x, op)()
    first = 0.5 / math.sqrt(1e-300) if op == "sqrt" else 1.0 / 1e-300
    assert extract(got, (1, 0, 0, 0)) == first


@pytest.mark.parametrize("op", [Jet.sqrt, Jet.log, Jet.recip, lambda j: Jet.const(1.0, 2) / j])
def test_cloud_with_one_bad_point_raises(op):
    c = np.zeros((5, SIZES[2]))
    c[:, 0] = [1.0, 2.0, 0.0, 3.0, 4.0]
    with pytest.raises(DomainError):
        op(Jet(2, c))
    c[2, 0] = 0.5
    op(Jet(2, c))


# -- a constant at a point times a cloud: scaled by its number --------------

def _same_bits(got, want):
    """Equal values and equal signs of zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("value", [0.0, -0.0, -1.75])
@pytest.mark.parametrize("const_order", [0, 1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64], ids=["real"])
def test_point_constant_times_cloud_matches_table_path(value, const_order, dtype):
    """A constant at a point times a cloud gives the bits of the same constant
    repeated as a cloud, which goes through the product table, in both operand
    orders and with the constant's order above, equal to and below the
    cloud's; a zero constant stays point-shaped."""
    rng = np.random.default_rng(11)
    cloud_order, n = 2, 6
    c = rng.uniform(-2.0, 2.0, (n, SIZES[cloud_order])).astype(dtype)
    c[:, 3], c[:, 4], c[2, 0] = -0.0, 0.0, -0.0  # signs of zero to keep
    cloud = Jet(cloud_order, c)
    point, repeated = Jet.const(value, const_order), Jet.const(np.full(n, value), const_order)
    for got, want in ((point * cloud, repeated * cloud), (cloud * point, cloud * repeated)):
        assert got.order == want.order == min(const_order, cloud_order)
        if value == 0:
            assert got.c.shape == (SIZES[got.order],)
            _same_bits(np.broadcast_to(got.c, want.c.shape), want.c)
        else:
            _same_bits(got.c, want.c)


def test_point_zero_times_infinite_cloud_is_zero():
    """The one place the constant path and the table part ways: an exact
    zero at a point times a cloud holding inf is 0, where the table's 0 * inf
    terms give NaN.  Scenario data that is not finite is rejected at load."""
    c = np.ones((3, SIZES[1]))
    c[1, 2] = np.inf
    cloud = Jet(1, c)
    got = Jet.const(0.0, 1) * cloud
    assert got.c.shape == (SIZES[1],) and not got.c.any()
    with np.errstate(invalid="ignore"):
        table = Jet.const(np.zeros(3), 1) * cloud
    assert np.isnan(table.c[1, 2]) and not table.c[[0, 2]].any()


def test_point_zero_with_a_derivative_slot_keeps_the_table_path():
    """Only a point whose slots past the value are zero is a constant, even
    when its value is zero."""
    cloud = Jet.seed(np.array([[0.1, 0.2], [1.0, -1.0], [0.3, 0.4], [0.5, 0.6]]), 1, 2)
    x2 = Jet.seed((0.0, 0.0, 0.0, 0.0), 2, 1)  # value 0, d/dx2 = 1
    got = x2 * cloud
    assert got.c.shape == (2, SIZES[1])
    assert np.array_equal(got.c[:, INDEX_OF[0, 0, 1, 0]], [1.0, -1.0])


@pytest.mark.parametrize("op", ["recip", "sqrt", "exp", "log", "sin", "cos"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["point", "cloud"])
def test_composition_commutes_with_truncation_bit_for_bit(op, shape):
    """g(f) at order n is g(f) at order 3 truncated to n, signs of zero
    included, for an f with exact zero slots (a field of x1 alone): a cached
    jet then serves every lower order."""
    x = np.array([0.3, 1.2, -0.4, 0.7])
    point = x if not shape else np.stack([x, x + 0.1, x - 0.2], axis=1)
    f = Jet.seed(point, 1, 3) * Jet.seed(point, 1, 3) * 0.5 + 1.25
    top = getattr(f, op)()
    for n in range(3):
        _same_bits(getattr(f.truncate(n), op)().c, np.ascontiguousarray(top.truncate(n).c))


# -- stacks: an (m, N, size) jet must equal its m (N, size) blocks, bit for bit

_M, _N = 3, 5


def _bits(a):
    """The float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def _random_stack(rng, order, shape):
    """A jet of batch shape `shape` with coefficients in [-2, 2], value slots
    in [0.5, 2.5], and exact zeros of both signs in its derivative slots."""
    c = rng.uniform(-2.0, 2.0, shape + (SIZES[order],))
    c[..., 0] = rng.uniform(0.5, 2.5, shape)
    if order > 0:
        c[..., 1] = -0.0
        c[..., -1] = 0.0
    return Jet(order, c)


def _block(j, t):
    """Draw t of a stack as an (N,) jet; a point or a cloud is every draw's."""
    return Jet(j.order, j.c[t].copy()) if j.c.ndim == 3 else j


def _assert_blocks(got, want_of):
    """got is the stack of want_of(t) for each draw t, bit for bit; a result
    with no stack axis must equal every draw's."""
    for t in range(_M):
        want = want_of(t)
        assert got.order == want.order
        row = got.c[t] if got.c.ndim == 3 else got.c
        assert row.shape == want.c.shape
        assert np.array_equal(_bits(row), _bits(want.c))


@pytest.mark.parametrize("other", ["stack", "cloud", "point", "constant"])
@pytest.mark.parametrize("order_b", [0, 1, 2, 3])
@pytest.mark.parametrize("order_a", [0, 1, 2, 3])
def test_stack_products_match_their_blocks(order_a, order_b, other):
    """Products of a stack with a stack, a cloud, a point or a constant at a
    point, in both operand orders and at every pair of orders, are the
    products of its draws; sums and differences too."""
    rng = np.random.default_rng([order_a, order_b, len(other)])
    a = _random_stack(rng, order_a, (_M, _N))
    shapes = {"stack": (_M, _N), "cloud": (_N,), "point": ()}
    b = Jet.const(-1.25, order_b) if other == "constant" else _random_stack(rng, order_b, shapes[other])
    for op in (_BINARY_OPS["mul"], _BINARY_OPS["add"], _BINARY_OPS["sub"]):
        _assert_blocks(op(a, b), lambda t: op(_block(a, t), _block(b, t)))
        _assert_blocks(op(b, a), lambda t: op(_block(b, t), _block(a, t)))


def test_stack_times_a_zero_constant_stays_a_point():
    stack = _random_stack(np.random.default_rng(3), 2, (_M, _N))
    got = Jet.const(0.0, 2) * stack
    assert got.c.shape == (SIZES[2],) and not got.c.any()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stack_unary_operations_match_their_blocks(order):
    """Negation, scaling, derive, truncate and every composition of a stack
    are those of its draws."""
    stack = _random_stack(np.random.default_rng(order), order, (_M, _N))
    ops = dict(_UNARY_OPS)
    ops.update({f"truncate{n}": (lambda j, n=n: j.truncate(n)) for n in range(order + 1)})
    if order > 0:
        ops.update({f"derive{v}": (lambda j, v=v: j.derive(v)) for v in range(4)})
    for op in ops.values():
        _assert_blocks(op(stack), lambda t: op(_block(stack, t)))


@pytest.mark.parametrize("op", ["mul", "recip", "sqrt", "exp", "log", "sin", "cos"])
def test_truncation_commutes_with_operations_on_a_stack(op):
    """An operation on a stack at order 3, truncated to n, is the operation
    on the stack truncated to n, bit for bit."""
    rng = np.random.default_rng(5)
    a, b = _random_stack(rng, 3, (_M, _N)), _random_stack(rng, 3, (_N,))
    fn = (lambda j, k: j * k) if op == "mul" else (lambda j, k: getattr(j, op)())
    top = fn(a, b)
    for n in range(3):
        assert np.array_equal(_bits(fn(a.truncate(n), b.truncate(n)).c), _bits(top.truncate(n).c))


def test_stack_values_and_max_abs_match_their_blocks():
    """value_array widens a cloud's batch to the stack's, broadcasting points
    and clouds; max_abs over a stack's batch gives each draw's row."""
    rng = np.random.default_rng(7)
    stack, cloud, point = (_random_stack(rng, 1, shape) for shape in ((_M, _N), (_N,), ()))
    assert stack.batch == (_M, _N) and np.array_equal(stack.value, stack.c[..., 0])
    values = value_array([[stack, cloud], [point, stack * cloud]], (_N,))
    assert values.shape == (2, 2, _M, _N)
    worst = max_abs(values, (_M, _N))
    for t in range(_M):
        rows = value_array([[_block(stack, t), cloud], [point, _block(stack, t) * cloud]], (_N,))
        assert np.array_equal(_bits(values[..., t, :]), _bits(rows))
        assert np.array_equal(_bits(worst[t]), _bits(max_abs(rows, (_N,))))
    assert batch_shape([point, [cloud]]) == (_N,) and batch_shape(point, (_N,)) == (_N,)


def test_jet_stack_puts_draw_t_at_index_t():
    rng = np.random.default_rng(9)
    draws = [_random_stack(rng, 2, (_N,)), Jet.const(0.5, 2), _random_stack(rng, 2, (_N,))]
    stack = jet_stack(draws, (_N,))
    assert stack.batch == (_M, _N)
    _assert_blocks(stack, lambda t: Jet(2, np.broadcast_to(draws[t].c, (_N, SIZES[2]))))
    with pytest.raises(ValueError):
        jet_stack([draws[0], draws[0].truncate(1)])


def test_scatter_bins_stay_within_their_byte_bound():
    """The product kernel keeps bins for the batch sizes in use, up to
    _BINS_BYTES, dropping the least recently used: four order-3 clouds of
    300 to 1,200 points would need 4.0 MB."""
    rng = np.random.default_rng(13)
    for n in (300, 600, 900, 1200):
        a = _random_stack(rng, 3, (n,))
        a * a
    assert sum(b.nbytes for b in jets_module._bins.values()) <= jets_module._BINS_BYTES
    assert (3, 1200) in jets_module._bins and (3, 300) not in jets_module._bins
