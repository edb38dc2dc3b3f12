import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqm.jets import INDEX_OF, MULTI_INDICES, SIZES, DomainError, Jet


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
    assert j.extract((0, 0, 1, 0)) == 1.0
    assert j.extract((0, 1, 0, 0)) == 0.0
    j0 = Jet.seed((0.5, 0, 0, 0), 0, 0)
    assert j0.order == 0 and j0.value == 0.5


def test_seed_second_derivative_zero():
    j = Jet.seed((0, 1, 2, 3), 1, 2)
    assert j.extract((0, 2, 0, 0)) == 0.0


def test_seed_order_out_of_range():
    with pytest.raises(ValueError):
        Jet.seed((0, 0, 0, 0), 1, 4)


def test_square_of_coordinate():
    j = Jet.seed((0, 3, 0, 0), 1, 2)
    p = j * j
    assert p.value == 9.0
    assert p.extract((0, 1, 0, 0)) == 6.0
    # Taylor coefficient is 1, derivative is 2
    assert p.c[[i for i, a in enumerate(MULTI_INDICES) if a == (0, 2, 0, 0)][0]] == 1.0
    assert p.extract((0, 2, 0, 0)) == 2.0


def test_cube_extract_factorial():
    j = Jet.seed((0, 2, 0, 0), 1, 3)
    p = j * j * j
    assert p.extract((0, 3, 0, 0)) == pytest.approx(6.0)


def test_mixed_product_extract():
    x1 = Jet.seed((0, 0.7, -0.3, 0), 1, 2)
    x2 = Jet.seed((0, 0.7, -0.3, 0), 2, 2)
    assert (x1 * x2).extract((0, 1, 1, 0)) == pytest.approx(1.0)


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
            errs.append(abs(j.extract(alpha) - fd_partial(f, point, alpha, h)))
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
        assert j.extract(alpha) == pytest.approx(fd, abs=1e-5)


coeff_arrays = st.lists(st.floats(-2.0, 2.0), min_size=35, max_size=35)


@settings(max_examples=60, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_product_rule(ca, cb):
    f = Jet(3, np.array(ca))
    g = Jet(3, np.array(cb))
    p = f * g
    for v in range(4):
        alpha = tuple(1 if k == v else 0 for k in range(4))
        lhs = p.extract(alpha)
        rhs = f.extract(alpha) * g.value + f.value * g.extract(alpha)
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
    assert j.extract((0, 1, 1, 0)) == j.extract((0, 1, 1, 0))


def test_derive_drops_order():
    j = Jet.seed((0, 0.5, 0, 0), 1, 3).sin()
    d = j.derive(1)
    assert d.order == 2
    assert d.value == pytest.approx(math.cos(0.5))
    assert d.extract((0, 1, 0, 0)) == pytest.approx(-math.sin(0.5))
    with pytest.raises(ValueError):
        Jet.const(1.0, 0).derive(0)


def test_domain_errors():
    with pytest.raises(DomainError):
        Jet.const(-1.0, 2).sqrt()
    with pytest.raises(DomainError):
        Jet.const(0.0, 2).log()
    with pytest.raises(DomainError):
        Jet.const(1.0, 2) / Jet.const(0.0, 2)


@pytest.mark.parametrize("re", [0.5, -0.5])
@pytest.mark.parametrize("name", ["sqrt", "log"])
def test_sqrt_and_log_reject_complex_jets(name, re):
    """No branch is picked and no complex value is ordered against zero."""
    z = Jet.seed((re, 0, 0, 0), 0, 1) + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="real jet"):
            getattr(z, name)()
        with pytest.raises(TypeError, match="real jet"):
            getattr(Jet(1, np.repeat(z.c[None], 3, axis=0)), name)()


def test_powi():
    j = Jet.seed((0, 1.5, 0, 0), 1, 3)
    assert (j ** 4).value == pytest.approx(1.5 ** 4)
    assert (j ** 4).extract((0, 1, 0, 0)) == pytest.approx(4 * 1.5 ** 3)
    assert (j ** -2).value == pytest.approx(1.5 ** -2)
    assert (j ** 0).value == 1.0


def test_extract_order_exceeded():
    j = Jet.seed((0, 1, 0, 0), 1, 1)
    with pytest.raises(ValueError):
        j.extract((0, 2, 0, 0))


def test_binary_ops_truncate_to_lower_order():
    a = Jet.seed((0, 1, 0, 0), 1, 3)
    b = Jet.seed((0, 1, 0, 0), 1, 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_complex_jet_arithmetic():
    x = Jet.seed((0.3, 0.4, 0, 0), 0, 2)
    y = Jet.seed((0.3, 0.4, 0, 0), 1, 2)
    z = x + y * 1j
    assert z.c.dtype == np.complex128 and x.c.dtype == np.float64
    w = z * z.conj()
    assert w.value == pytest.approx(abs(complex(0.3, 0.4)) ** 2)
    assert w.value.imag == pytest.approx(0.0)
    # d/dx0 |z|^2 = 2 x0, d/dx1 |z|^2 = 2 x1
    assert w.extract((1, 0, 0, 0)) == pytest.approx(0.6)
    assert w.extract((0, 1, 0, 0)) == pytest.approx(0.8)
    q = z / z
    assert q.value == pytest.approx(1.0)
    assert (z * 1j).value == pytest.approx(complex(-0.4, 0.3))
    assert isinstance(z.value, complex) and isinstance(x.value, float)


def test_complex_jet_exp():
    x = Jet.seed((0.2, 1.1, 0, 0), 0, 2)
    y = Jet.seed((0.2, 1.1, 0, 0), 1, 2)
    e = (x + y * 1j).exp()
    expected = np.exp(complex(0.2, 1.1))
    assert e.value == pytest.approx(expected)
    # d/dx0 exp(x0 + i x1) = exp, d/dx1 = i exp
    assert e.extract((1, 0, 0, 0)) == pytest.approx(expected)
    assert e.extract((0, 1, 0, 0)) == pytest.approx(1j * expected)
    assert Jet.const(1j, 0).exp().value == pytest.approx(np.exp(1j))


def test_const_is_complex_only_for_complex_values():
    assert Jet.const(1.0, 2).c.dtype == np.float64
    assert Jet.const(2, 2).c.dtype == np.float64
    assert Jet.const(np.ones(3), 1).c.dtype == np.float64
    assert Jet.const(0j, 2).c.dtype == np.complex128
    assert Jet.const(np.full(3, 1j), 1).c.dtype == np.complex128
    real = Jet.seed((0.1, 0.2, 0.3, 0.4), 1, 2)
    for op in (lambda j: j + 1.0, lambda j: j * 2, lambda j: j / 3.0, lambda j: 1.0 - j,
               lambda j: j * j, Jet.exp, Jet.recip, Jet.conj):
        assert op(real).c.dtype == np.float64


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
_COMPLEX_OPS = {
    "add": lambda z, w: z + w,
    "sub": lambda z, w: z - w,
    "mul": lambda z, w: z * w,
    "div": lambda z, w: z / w,
    "exp": lambda z, w: z.exp(),
    "conj": lambda z, w: z.conj(),
    "conj_mul": lambda z, w: z.conj() * w,
    "recip": lambda z, w: z.recip(),
    "powi3": lambda z, w: z.powi(3),
    "add_number": lambda z, w: z + (0.5 - 0.25j),
    "div_number": lambda z, w: z / (1.3 + 0.4j),
}
# a real jet a and a complex jet z in either order, and complex numbers with
# real jets
_MIXED_OPS = {
    "real_mul_complex": lambda a, z: a * z,
    "complex_mul_real": lambda a, z: z * a,
    "real_add_complex": lambda a, z: a + z,
    "real_sub_complex": lambda a, z: a - z,
    "complex_div_real": lambda a, z: z / a,
    "real_div_complex": lambda a, z: a / z,
    "number_mul_real": lambda a, z: (0.3 - 1.2j) * a,
    "real_mul_number": lambda a, z: a * (0.3 - 1.2j),
    "number_sub_real": lambda a, z: (0.3 - 1.2j) - a,
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
    z, w = a + b * 1j, b + a * 0.5j
    for op in _COMPLEX_OPS.values():
        got = op(z, w)
        assert got.c.dtype == np.complex128
        _assert_ulps(got.c, _stacked(op, z, w))
    for op in _MIXED_OPS.values():
        got = op(a, z)
        assert got.c.dtype == np.complex128
        _assert_ulps(got.c, _stacked(op, a, z))


def _pair(z):
    """The real and imaginary parts of a complex jet as two real jets."""
    return Jet(z.order, z.c.real.copy()), Jet(z.order, z.c.imag.copy())


def _size(*factors):
    """The product of the factors' |coefficients|: slot by slot, the sum of
    the sizes of the terms that the product of the factors sums there."""
    out = Jet(factors[0].order, np.abs(factors[0].c))
    for f in factors[1:]:
        out = out * Jet(f.order, np.abs(f.c))
    return out.c


@settings(max_examples=40, deadline=None)
@given(clouds())
def test_complex_jets_match_real_pairs(pair):
    """Complex arithmetic against the same field written as pairs of real
    jets: (x + iy)(u + iv) = (xu - yv) + i(xv + yu), exp(x + iy) =
    e^x (cos y + i sin y).  mul, div and exp round differently in the two
    forms, so they agree to 32 ulps of the size of the terms each slot sums
    (the real-pair products on |coefficients|); the complex division goes
    through 1/w, whose rounding grows with |1/w|, so its sizes are scaled by
    the draw's max |1/w| as well.  The rest must agree to 8 ulps of the
    largest coefficient."""
    a, b = pair
    z, w = a + b * 1j, b + a * 0.5j
    (x, y), (u, v) = _pair(z), _pair(w)
    den = (u * u + v * v).recip()
    ex, cy, sy = x.exp(), y.cos(), y.sin()
    inv_w = max(1.0, float(np.max(1.0 / np.abs(w.value))))
    sizes = {
        "mul": _size(x, u) + _size(y, v) + _size(x, v) + _size(y, u),
        "div": (_size(x, u, den) + _size(y, v, den) + _size(y, u, den) + _size(x, v, den)) * inv_w,
        "exp": _size(ex, cy) + _size(ex, sy),
    }
    oracles = {
        "add": (z + w, (x + u, y + v)),
        "sub": (z - w, (x - u, y - v)),
        "mul": (z * w, (x * u - y * v, x * v + y * u)),
        "div": (z / w, ((x * u + y * v) * den, (y * u - x * v) * den)),
        "exp": (z.exp(), (ex * cy, ex * sy)),
        "conj": (z.conj(), (x, -y)),
        "real_times": (a * w, (a * u, a * v)),
        "number_times": ((0.3 - 1.2j) * a, (a * 0.3, a * -1.2)),
    }
    for name, (got, (re, im)) in oracles.items():
        want = re.c + im.c * 1j
        if name in sizes:
            assert got.c.shape == want.shape
            assert np.all(np.abs(got.c - want) <= 32 * np.finfo(float).eps * sizes[name])
        else:
            _assert_ulps(got.c, want)


@settings(max_examples=20, deadline=None)
@given(clouds())
def test_point_jets_broadcast_against_clouds(pair):
    a, b = pair
    point = Jet(b.order, b.c[0].copy())
    for op in _BINARY_OPS.values():
        _assert_ulps(op(a, point).c, _stacked(lambda j: op(j, point), a))
        _assert_ulps(op(point, a).c, _stacked(lambda j: op(point, j), a))
    # complex points against real and complex clouds
    zpoint = point * (1.0 - 0.5j)
    for cloud in (a, a + b * 1j):
        for op in _BINARY_OPS.values():
            _assert_ulps(op(cloud, zpoint).c, _stacked(lambda j: op(j, zpoint), cloud))
            _assert_ulps(op(zpoint, cloud).c, _stacked(lambda j: op(zpoint, j), cloud))


def test_cloud_seeds_value_and_extract():
    cloud = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [-1.0, 0.0, 1.0], [0.5, 0.5, 0.5]])
    x1 = Jet.seed(cloud, 1, 2)
    assert x1.c.shape == (3, 15)
    assert np.array_equal(x1.value, [1.0, 2.0, 3.0])
    sq = x1 * x1
    assert np.array_equal(sq.extract((0, 1, 0, 0)), [2.0, 4.0, 6.0])
    assert np.array_equal(sq.extract((0, 2, 0, 0)), [2.0, 2.0, 2.0])
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
    """Equal values and equal signs of zero, part by part for complex."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    got, want = (np.ascontiguousarray(c).view(float) for c in (got, want))
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("value", [0.0, -0.0, -1.75, 0.6 - 1.3j])
@pytest.mark.parametrize("const_order", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_cloud", [False, True], ids=["real", "complex"])
def test_point_constant_times_cloud_matches_table_path(value, const_order, complex_cloud):
    """A constant at a point times a cloud gives the bits of the same constant
    repeated as a cloud, which goes through the product table, in both operand
    orders and with the constant's order above, equal to and below the
    cloud's; a zero constant stays point-shaped."""
    rng = np.random.default_rng(11)
    cloud_order, n = 2, 6
    c = rng.uniform(-2.0, 2.0, (n, SIZES[cloud_order]))
    c[:, 3], c[:, 4], c[2, 0] = -0.0, 0.0, -0.0  # signs of zero to keep
    cloud = Jet(cloud_order, c)
    if complex_cloud:
        cloud = cloud * (0.5 + 2.0j) - 1.0j
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
