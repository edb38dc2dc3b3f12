"""Forward-mode truncated Taylor (jet) arithmetic in 4 chart variables.

A ``Jet`` of order n stores the Taylor coefficients c_alpha = (d^alpha f)/alpha!
of a real scalar field at a base point, for all multi-indices
|alpha| <= n <= 3.
Arithmetic is closed at fixed order (higher terms are truncated); binary
operations between jets of different orders truncate to the lower order.
Every operation commutes with truncation bit for bit, signs of zero
included, so a jet computed at a higher order serves every lower one.
A composition with a univariate function forms only the Taylor factors its
order uses, and a jet whose slots past the value are all zero (a constant)
at every point of its batch composes to the constant of g(value) with none
formed, so a constant as small as 1e-300 composes without overflow.  (A
stack that mixes constant and varying draws forms the factors for all of
them, so a constant draw there may get -0.0 in a slot past its value.)
Jets do not store their base point; mixing jets from different points is the
caller's responsibility.

Points, clouds and stacks
-------------------------
A jet's coefficients have shape batch + (size,): the batch shape is () at
one point, (N,) on a cloud of N base points and (m, N) on a stack of m draws
on one cloud, with the layout below along the last axis.  Base points are
passed as (4,) arrays and clouds as coordinate-major (4, N) arrays, so
point[k] is coordinate k in both cases.  Operands broadcast on their
trailing batch axes, as numpy arrays do: a point-shaped jet (a constant,
say) against a cloud or a stack, a cloud (a background quantity) against a
stack of draws on its points, so code written for one point runs unchanged
on a cloud, and code written for one draw runs unchanged on a stack.  Of two
operands, the one with more batch axes carries the result's batch shape.
Every operation acts on each point of each draw alone, with the arithmetic
it does at a point, so a stack's results are those of its draws, bit for
bit.
A product of a point-shaped constant (every slot past the value zero) and a
batch scales the batch by that number, and a zero constant gives a zero at
a point, so the structural zeros of a computation stay points.  The terms
left out are exact zeros, so the results are those of the product table,
bit for bit, save that 0 times inf is 0.  On a batch, value returns an
array of the batch shape, and a domain error is raised if any point fails.
Coefficients are stored coefficient-major (the C-contiguous
(size,) + batch array, viewed with its first axis moved last), so products
gather whole rows of points.

Coefficient layout
------------------
Coefficients are stored densely in a fixed global order: multi-indices
(a0, a1, a2, a3) sorted by total degree, ties broken by descending
lexicographic comparison of the exponent tuple.  Degree blocks have sizes
1, 4, 10, 20, so orders 0..3 use array lengths 1, 5, 15, 35 and an order-k
jet's coefficients are a prefix of the order-3 layout.  This layout is fixed
so that coefficient dumps are bit-comparable across implementations.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

import numpy as np

N_VARS = 4
MAX_ORDER = 3


class DomainError(ArithmeticError):
    """sqrt/log of a nonpositive value slot, or division by a zero value slot."""


def _build_layout():
    indices = []
    for deg in range(MAX_ORDER + 1):
        block = [a for a in itertools.product(range(deg + 1), repeat=N_VARS) if sum(a) == deg]
        block.sort(reverse=True)
        indices.extend(block)
    return indices


MULTI_INDICES = _build_layout()
INDEX_OF = {a: i for i, a in enumerate(MULTI_INDICES)}
# slot of the first-order coefficient d/dx_v
_UNIT_SLOT = tuple(INDEX_OF[tuple(int(k == v) for k in range(N_VARS))] for v in range(N_VARS))
SIZES = (1, 5, 15, 35)


def _build_mul_tables():
    tables = []
    for order in range(MAX_ORDER + 1):
        size = SIZES[order]
        ii, jj, kk = [], [], []
        for i, a in enumerate(MULTI_INDICES[:size]):
            for j, b in enumerate(MULTI_INDICES[:size]):
                if sum(a) + sum(b) > order:
                    continue
                c = tuple(x + y for x, y in zip(a, b))
                ii.append(i)
                jj.append(j)
                kk.append(INDEX_OF[c])
        tables.append((np.asarray(ii), np.asarray(jj), np.asarray(kk)))
    return tables


_MUL_TABLES = _build_mul_tables()


def _build_deriv_tables():
    # For result position p (multi-index alpha), source is alpha + e_v with
    # factor alpha_v + 1: d/dx_v sum c_a (x-p)^a has Taylor coefficient
    # (alpha_v+1) c_{alpha+e_v} at alpha.
    src = np.zeros((N_VARS, SIZES[MAX_ORDER - 1]), dtype=np.intp)
    fac = np.zeros((N_VARS, SIZES[MAX_ORDER - 1]))
    for v in range(N_VARS):
        for p, a in enumerate(MULTI_INDICES[: SIZES[MAX_ORDER - 1]]):
            shifted = tuple(x + (1 if k == v else 0) for k, x in enumerate(a))
            src[v, p] = INDEX_OF[shifted]
            fac[v, p] = a[v] + 1
    return src, fac


_DERIV_SRC, _DERIV_FAC = _build_deriv_tables()

_NUMBER = (int, float, np.integer, np.floating)


# Bytes of scatter bins kept for reuse.  One entry takes terms x npoints
# int64 (0.53 MB at order 3 and 400 points), so the cache holds the few
# batch sizes in use and drops the least recently used beyond this.
_BINS_BYTES = 2**21
_bins: dict = {}


def _scatter_bins(order: int, npoints: int) -> np.ndarray:
    """Bincount bins that sum a (terms, npoints) product array of the order's
    table into a flat (size, npoints) coefficient-major result."""
    key = (order, npoints)
    bins = _bins.pop(key, None)
    if bins is None:
        kk = _MUL_TABLES[order][2]
        bins = (kk[:, None] * npoints + np.arange(npoints)).ravel()
        bins.flags.writeable = False  # shared by every caller through the cache
        while _bins and sum(b.nbytes for b in _bins.values()) + bins.nbytes > _BINS_BYTES:
            del _bins[next(iter(_bins))]
    _bins[key] = bins  # the most recently used last
    return bins


def _coeff_major(c: np.ndarray) -> np.ndarray:
    """A view of batch + (size,) coefficients as (size,) + batch."""
    return c.T if c.ndim <= 2 else c.transpose((c.ndim - 1, *range(c.ndim - 1)))


def _batch_major(a: np.ndarray) -> np.ndarray:
    """A view of (size,) + batch coefficients as batch + (size,), the
    inverse of _coeff_major."""
    return a.T if a.ndim <= 2 else a.transpose((*range(1, a.ndim), 0))


def _first_failure(values, failed):
    """The first value slot for which `failed` holds, as a float."""
    return float(np.ravel(values)[np.argmax(np.ravel(failed))])


class Jet:
    """Truncated multivariate Taylor expansion of a real scalar field, at one
    point (coefficients of shape (size,)), on a cloud of N points (N, size)
    or on a stack of m draws on one (m, N, size)."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.c = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value, order: int) -> "Jet":
        """Constant jet: of a real number at a point, of an array of values
        on a batch of that shape.  TypeError for a complex value, a numpy one
        included, which the float slots would otherwise cast to its real
        part."""
        dtype = getattr(value, "dtype", None)
        if isinstance(value, complex) or (dtype is not None and dtype.kind == "c"):
            raise TypeError(f"a jet is real; got the complex value {value!r}")
        c = np.zeros((SIZES[order],) + getattr(value, "shape", ()))  # coefficient-major
        c[0] = value
        return Jet(order, _batch_major(c))

    @staticmethod
    def seed(point: Sequence[float], var_index: int, order: int) -> "Jet":
        """Jet of the coordinate function x^var_index at a point (4,) or on a
        coordinate-major cloud (4, N)."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} out of range 0..{MAX_ORDER}")
        if not 0 <= var_index < N_VARS:
            raise ValueError(f"var_index {var_index} out of range")
        x = np.asarray(point[var_index], dtype=float)
        c = np.zeros((SIZES[order],) + x.shape)  # coefficient-major
        c[0] = x
        if order >= 1:
            c[_UNIT_SLOT[var_index]] = 1.0
        return Jet(order, _batch_major(c))

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        """The value slot: a float at a point, an array of the batch shape
        on a cloud or a stack."""
        c = self.c
        return c[0].item() if c.ndim == 1 else c[..., 0]

    @property
    def batch(self) -> tuple:
        """The batch shape: () at a point, (N,) on a cloud, (m, N) on a stack."""
        return self.c.shape[:-1]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        if order == self.order:
            return self
        return Jet(order, self.c[..., : SIZES[order]])

    def derive(self, var: int) -> "Jet":
        """Exact partial derivative; drops one order."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        n = self.order - 1
        size = SIZES[n]
        src = _DERIV_SRC[var, :size]
        c = self.c
        rows = c.T[src].T if c.ndim <= 2 else _batch_major(_coeff_major(c)[src])
        return Jet(n, rows * _DERIV_FAC[var, :size])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, _NUMBER):
            return Jet.const(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return Jet(self.order, self.c + o.c)
        n = min(self.order, o.order)
        return Jet(n, self.c[..., : SIZES[n]] + o.c[..., : SIZES[n]])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return Jet(self.order, self.c - o.c)
        n = min(self.order, o.order)
        return Jet(n, self.c[..., : SIZES[n]] - o.c[..., : SIZES[n]])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet(self.order, -self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, _NUMBER):
                return Jet(self.order, self.c * other)
            return NotImplemented
        n = self.order if self.order <= other.order else other.order
        ii, jj, kk = _MUL_TABLES[n]
        # big: the operand with more batch axes, which carries the result's
        # batch shape; the table's index arrays go with their operands
        big, small = self.c, other.c
        if big.ndim < small.ndim:
            big, small, ii, jj = small, big, jj, ii
        if big.ndim != small.ndim and small.ndim == 1:
            # A constant at a point times a batch: the table terms of its zero
            # slots are exact zeros, so the batch is scaled by its number,
            # and adding 0.0 keeps bincount's sign of zero.  A zero constant
            # stays a point.
            size = SIZES[n]
            if not small[1:size].any():
                if small[0] == 0:
                    return Jet(n, np.zeros(size))
                return Jet(n, small[0] * big[..., :size] + 0.0)
        if n == 0:
            # One table term: the scatter below would give 0.0 + a*b, and
            # adding 0.0 keeps its sign of zero.
            return Jet(0, big[..., :1] * small[..., :1] + 0.0)
        # Gather the coefficient pairs of every table term, multiply in place
        # (a product of floats does not depend on the operands' order), and
        # scatter-add each product into its result slot.  The work runs
        # coefficient-major, so the batch rides along in the trailing axes
        # and the smaller operand broadcasts against them.
        big = big.T if big.ndim <= 2 else _coeff_major(big)
        small = small.T if small.ndim <= 2 else _coeff_major(small)
        if small.ndim != big.ndim:
            small = small.reshape((len(small),) + (1,) * (big.ndim - small.ndim) + small.shape[1:])
        prod = big[ii]
        prod *= small[jj]
        if prod.ndim == 1:
            return Jet(n, np.bincount(kk, weights=prod, minlength=SIZES[n]))
        npoints = prod.size // len(kk)
        out = np.bincount(_scatter_bins(n, npoints), weights=prod.ravel(), minlength=SIZES[n] * npoints)
        out = out.reshape((SIZES[n],) + prod.shape[1:])
        return Jet(n, out.T if out.ndim == 2 else _batch_major(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            if other == 0:
                raise DomainError("division by zero")
            return Jet(self.order, self.c / other)
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other.recip()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.recip()

    def __pow__(self, k: int):
        return self.powi(k)

    # -- composition with univariate functions ------------------------------

    def _compose(self, value, factors) -> "Jet":
        """g(f) for univariate g from its value g(f0) and its Taylor factors
        g^(k)(f0) / k!, k = 1, 2, 3, at the value slot f0 (scalars at a
        point, arrays of the batch shape otherwise); exact at the stored
        order since (f - f0) is nilpotent.  `factors` is iterated only as
        far as the order needs, and not at all for a constant, whose g(f) is
        the constant g(f0)."""
        if not self.c[..., 1:].any():
            return Jet.const(value, self.order)
        factors = iter(factors)
        nil = Jet(self.order, self.c.copy())
        nil.c[..., 0] = 0.0
        # coefficient-major products, so a factor of the batch shape scales
        # each point
        c = _batch_major(_coeff_major(nil.c) * next(factors))
        c[..., 0] = value
        power = nil
        for k in range(2, self.order + 1):
            # (f - f0)^k starts at degree k: adding its exact zeros below
            # would turn a -0.0 there into +0.0 at some orders only
            power = power * nil
            start = SIZES[k - 1]
            c[..., start:] += _batch_major(_coeff_major(power.c[..., start:]) * next(factors))
        return Jet(self.order, c)

    def recip(self) -> "Jet":
        v = self.c[..., 0]
        if (v == 0.0).any():
            raise DomainError("division by a jet with zero value slot")
        r = 1.0 / v

        def factors():
            r2 = r * r
            yield -r2
            yield r2 * r
            yield -(r2 * r2)

        return self._compose(r, factors())

    def sqrt(self) -> "Jet":
        v = self.c[..., 0]
        bad = v <= 0.0
        if bad.any():
            raise DomainError(f"sqrt of nonpositive value slot {_first_failure(v, bad)}")
        s = np.sqrt(v)

        def factors():
            h = 0.5 / s
            yield h
            r = 1.0 / v
            yield -0.25 * h * r
            yield 0.125 * h * r * r

        return self._compose(s, factors())

    def exp(self) -> "Jet":
        e = np.exp(self.c[..., 0])
        return self._compose(e, (e, 0.5 * e, e / 6.0))

    def log(self) -> "Jet":
        v = self.c[..., 0]
        bad = v <= 0.0
        if bad.any():
            raise DomainError(f"log of nonpositive value slot {_first_failure(v, bad)}")

        def factors():
            r = 1.0 / v
            yield r
            yield -0.5 * r * r
            yield r * r * r / 3.0

        return self._compose(np.log(v), factors())

    def sin(self) -> "Jet":
        v = self.c[..., 0]
        s, c = np.sin(v), np.cos(v)
        return self._compose(s, (c, -0.5 * s, -c / 6.0))

    def cos(self) -> "Jet":
        v = self.c[..., 0]
        s, c = np.sin(v), np.cos(v)
        return self._compose(c, (-s, -0.5 * c, s / 6.0))

    def powi(self, k: int) -> "Jet":
        k = int(k)
        if k < 0:
            return self.recip().powi(-k)
        out = Jet.const(1.0, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if self.c.ndim == 1:
            return f"Jet(order={self.order}, value={self.value!r})"
        return f"Jet(order={self.order}, batch={self.batch})"


def jet_sum(terms) -> Jet:
    """The jets of `terms` added left to right."""
    return functools.reduce(operator.add, terms)


def jet_stack(jets, batch: tuple = ()) -> Jet:
    """m jets of one order as one stack of batch shape (m,) + the broadcast
    of `batch` (the cloud's (N,)) and their batch shapes, draw t at index t
    of the leading axis; a point-shaped jet is broadcast to the cloud."""
    order = jets[0].order
    size = SIZES[order]
    batch = batch_shape(jets, batch)
    c = np.empty((size, len(jets)) + batch)  # coefficient-major
    for t, j in enumerate(jets):
        a = _coeff_major(j.c)
        c[:, t] = a.reshape((size,) + (1,) * (len(batch) - a.ndim + 1) + a.shape[1:])
    return Jet(order, _batch_major(c))


def _batches(jets, out: set):
    if isinstance(jets, Jet):
        out.add(jets.batch)
    else:
        for j in jets:
            _batches(j, out)


def batch_shape(jets, batch: tuple = ()) -> tuple:
    """The broadcast of `batch` and the batch shapes of a jet or a nested
    list of jets: (N,) for a cloud's jets, (m, N) when a stack is among
    them."""
    shapes = {batch}
    _batches(jets, shapes)
    shapes.discard(())
    if len(shapes) <= 1:
        return shapes.pop() if shapes else ()
    return np.broadcast_shapes(*shapes)


def max_abs(values, batch: tuple = ()):
    """max |values| over every axis but the trailing batch axes: a float at a
    point (batch ()), an array of the batch shape otherwise, as Jet.value."""
    worst = np.max(np.abs(np.asarray(values)).reshape((-1,) + batch), axis=0)
    return worst if batch else float(worst)


def _values(jets, batch: tuple) -> np.ndarray:
    if isinstance(jets, Jet):
        return np.broadcast_to(jets.c[..., 0], batch)
    return np.array([_values(j, batch) for j in jets])


def value_array(jets, batch: tuple = ()) -> np.ndarray:
    """Value slots of a jet or a nested list of jets as one array, with the
    batch axes last.  The batch is `batch` (the cloud's (N,), () at a
    point) broadcast with the jets' own (batch_shape), so point-shaped jets
    (constants) are broadcast to a cloud and a stack of draws widens it to
    (m, N)."""
    return _values(jets, batch_shape(jets, batch))
