from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cqm.units import (
    BFIELD_FRAME_DIM,
    CHARGE_DIM,
    DIMLESS,
    EM_FIELD_DIM,
    HBAR_DIM,
    LENGTH,
    MASS,
    METRIC_DIM,
    MOMENT_DIM,
    TIME,
    Dim,
    ScaledReal,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
dims = st.builds(Dim, rationals, rationals, rationals)


def test_hbar_dimension_from_product():
    # M * (L^2 T^-1) is the dimension of hbar
    assert MASS * (LENGTH**2 / TIME) == HBAR_DIM
    assert HBAR_DIM == Dim(l=2, t=-1, m=1)


def test_product_with_dimensionless_is_identity():
    d = Dim(l=Fraction(3, 2), t=-1, m=Fraction(-1, 2))
    assert d * DIMLESS == d


def test_moment_times_bfield_dimension():
    # mu in T^-1 L^{3/2} M^{-1/2}; B frame components carry L^{-5/2} M^{1/2}
    # at the abstract-vector level: the product lands in L^-1 T^-1.
    mu = Dim(l=Fraction(3, 2), t=-1, m=Fraction(-1, 2))
    b = Dim(l=Fraction(-5, 2), t=0, m=Fraction(1, 2))
    assert mu * b == Dim(l=-1, t=-1, m=0)
    assert mu == MOMENT_DIM


def test_sqrt_of_length_squared():
    assert Dim(l=2) ** Fraction(1, 2) == LENGTH
    assert Dim(l=1, m=1) ** Fraction(1, 2) == Dim(l=Fraction(1, 2), m=Fraction(1, 2))
    assert Dim(l=1, m=1) ** Fraction(1, 2) == EM_FIELD_DIM


def test_pow_zero_is_dimensionless():
    assert CHARGE_DIM ** 0 == DIMLESS


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        ScaledReal(float("nan"), LENGTH)
    with pytest.raises(ValueError):
        ScaledReal(float("inf"))


def test_json_round_trip():
    d = Dim(l=Fraction(3, 2), t=Fraction(-1), m=Fraction(-1, 2))
    assert Dim.from_json(d.to_json()) == d
    assert d.to_json() == {"l": "3/2", "t": "-1", "m": "-1/2"}


@given(dims, dims, dims)
def test_product_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * b) / b == a


@given(dims, rationals, rationals)
def test_pow_composition(d, p, q):
    assert (d ** p) ** q == d ** (p * q)


def test_coupling_combinations_are_dimensionless():
    """The dimensions that Constants enforces for m, q, hbar, mu and u0 make
    every coupling the background forms dimensionless: q u0 F / m, mu u0 F,
    the velocity-form weight m / (hbar u0) against the metric, and mu u0 B."""
    for combo in (
        CHARGE_DIM * TIME / MASS * EM_FIELD_DIM / METRIC_DIM,
        MOMENT_DIM * TIME * EM_FIELD_DIM / METRIC_DIM,
        MASS / (HBAR_DIM * TIME) * METRIC_DIM,
        MOMENT_DIM * TIME * BFIELD_FRAME_DIM,
    ):
        assert combo.is_dimensionless, combo
