"""Dimensions as rational powers of length, time and mass, and finite reals
tagged with one.

Dimensions are exact rational exponent triples with their own algebra
(product, quotient, rational power), which field expressions use to infer
and check their dimension at runtime, so that fields assembled from config
data stay dimension-aware.  Values are plain floats, the numerics in the
base units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


class DimensionMismatch(ValueError):
    """Raised when quantities of unequal dimension meet: a sum of field
    expressions, or a field or constant of the wrong dimension."""


def _frac(x: RationalLike) -> Fraction:
    f = Fraction(x)
    return f


@dataclass(frozen=True)
class Dim:
    """Rational exponents of the length, time and mass unit spaces."""

    l: Fraction = Fraction(0)
    t: Fraction = Fraction(0)
    m: Fraction = Fraction(0)

    def __post_init__(self):
        # Fraction is always reduced with positive denominator; coerce inputs.
        object.__setattr__(self, "l", _frac(self.l))
        object.__setattr__(self, "t", _frac(self.t))
        object.__setattr__(self, "m", _frac(self.m))

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(self.l + other.l, self.t + other.t, self.m + other.m)

    def __truediv__(self, other: "Dim") -> "Dim":
        return Dim(self.l - other.l, self.t - other.t, self.m - other.m)

    def __pow__(self, r: RationalLike) -> "Dim":
        r = _frac(r)
        return Dim(self.l * r, self.t * r, self.m * r)

    @property
    def is_dimensionless(self) -> bool:
        return self.l == 0 and self.t == 0 and self.m == 0

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "1"
        parts = []
        for sym, e in (("L", self.l), ("T", self.t), ("M", self.m)):
            if e != 0:
                parts.append(f"{sym}^{e}" if e != 1 else sym)
        return "*".join(parts)

    def to_json(self) -> dict:
        return {"l": str(self.l), "t": str(self.t), "m": str(self.m)}

    @classmethod
    def from_json(cls, obj: dict) -> "Dim":
        return cls(Fraction(obj["l"]), Fraction(obj["t"]), Fraction(obj["m"]))


DIMLESS = Dim()
LENGTH = Dim(l=1)
TIME = Dim(t=1)
MASS = Dim(m=1)

# Dimensions of the coupling constants and fields the theory uses.  Chart
# coordinates are dimensionless reals, which forces connection coefficients
# and the rescaled potential A to be dimensionless as well.
HBAR_DIM = MASS * LENGTH ** 2 / TIME                     # M L^2 T^-1
CHARGE_DIM = (MASS * LENGTH ** 3) ** Fraction(1, 2) / TIME  # consistent with q F u0 / m dimensionless
MOMENT_DIM = LENGTH ** Fraction(3, 2) / (TIME * MASS ** Fraction(1, 2))
EM_FIELD_DIM = (MASS * LENGTH) ** Fraction(1, 2)
METRIC_DIM = LENGTH ** 2
BFIELD_FRAME_DIM = MASS ** Fraction(1, 2) / LENGTH ** Fraction(3, 2)


def _check_finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} rejected")
    return value


@dataclass(frozen=True)
class ScaledReal:
    """A finite real tagged with a dimension."""

    value: float
    dim: Dim = DIMLESS

    def __post_init__(self):
        object.__setattr__(self, "value", _check_finite(self.value))
