"""Pauli algebra, the vector/endomorphism dictionary, and the spin connection.

Conventions (see CONVENTIONS.md):
  sigma_1 = [[0,1],[1,0]], sigma_2 = [[0,-i],[i,0]], sigma_3 = [[1,0],[0,-1]];
  xi_0 = i*1, xi_i = -(i/2) sigma_i, so [xi_i, xi_j] = eps_ijk xi_k with
  eps_123 = +1 and the form -2 Tr(AB) makes (xi_i) orthonormal.
The spin dictionary links the xi_a, spatial vectors with the cross product,
and antisymmetric frame endomorphisms: it is written once, here, as
`xi_combination` (the xi-sum), `cross` and `axis_vector` (a = ad(w) -> w),
each on jets, floats or arrays alike.  The vector map Sigma sends
orthonormal-frame components v^a to v^a xi_a and intertwines the cross
product with the commutator.  The spin connection C_lam is the axial vector
of Ktilde_lam, formed and cached by the background bundle
(`BackgroundJets.spin`); `SpinConnection.coeffs` and `coeff_values` read it
off `bg.jets(where)`, so they take a point, a (4, N) cloud or a bundle,
which they share with the caller.  The curvature of C is written once,
`spin_curvature_jets`, which the bundle caches as `rho`.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, value_array

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)

XI0 = 1j * SIGMA0
XI = tuple(-0.5j * s for s in SIGMA)  # xi_1, xi_2, xi_3
XI_ALL = (XI0,) + XI


def _build_eps() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


EPS = _build_eps()


class InconsistentSystem(ValueError):
    """Frame coefficients are not antisymmetric within tolerance."""


def xi_combination(values, batch: tuple = ()) -> np.ndarray:
    """sum_nu values[nu] xi_nu for four coefficient values (floats, or arrays
    of batch shape `batch`): a (2, 2) matrix at a point, (2, 2) + batch
    arrays otherwise."""
    shape = (2, 2) + (1,) * len(batch)
    return sum(values[nu] * XI_ALL[nu].reshape(shape) for nu in range(4))


def pauli_map(v) -> np.ndarray:
    """Sigma(v) = v^a xi_a for orthonormal-frame components v."""
    return xi_combination([0.0, *np.asarray(v, dtype=float)])


def axis_vector(a) -> list:
    """Vector w with a = ad(w), i.e. a(v) = w x v, for antisymmetric a:
    w_k = -1/2 a^{ij} eps_ijk.  The 3x3 entries may be jets, floats or
    arrays; only the antisymmetric part of a enters."""
    return [(a[1][2] - a[2][1]) * -0.5, (a[2][0] - a[0][2]) * -0.5, (a[0][1] - a[1][0]) * -0.5]


def cross(a, b) -> list:
    """The cross product a x b of two 3-vectors of jets, floats or arrays."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


class SpinConnection:
    """Trace-free Hermitian spin connection induced by a spacetime connection.

    Coefficients C_lambda^i are real; C_lambda^0 = 0 (the gauge in which the
    induced determinant-line connection is flat).  The matrix coefficients are
    C_lambda^i xi_i, anti-Hermitian by construction.
    """

    def __init__(self, bg, which: str):
        self.bg = bg
        self.which = which

    def coeffs(self, where, order: int) -> list:
        """C_lambda^a jets, shape [4][3], at the given order, at a point, on a
        (4, N) cloud or on a background bundle's points: the bundle's
        `spin`, so InconsistentSystem if Ktilde is not antisymmetric."""
        return self.bg.jets(where).spin(self.which, order)

    def coeff_values(self, where) -> np.ndarray:
        """C_lambda^a values: (4, 3) at a point, (4, 3, N) on a (4, N) cloud
        or on a bundle of N points."""
        bundle = self.bg.jets(where)
        return value_array(self.coeffs(bundle, 0), bundle.point.shape[1:])


def spin_connection_from(bg, which: str) -> SpinConnection:
    if which not in ("charge", "moment", "grav"):
        raise ValueError(f"unknown coupling {which!r}")
    return SpinConnection(bg, which)


def spin_curvature_jets(cjets, order: int) -> list:
    """Curvature of the spin connection, R_{lam mu}^k as [4][4][3] jets at
    `order`, from the C_lam^k jets at order+1:
      R^k = -d_lam C_mu^k + d_mu C_lam^k + (C_lam x C_mu)^k.
    Its xi_0 part vanishes in the trace-free gauge.  This is the one place
    the sign of the spin curvature is written; the background bundle's `rho`
    caches it."""
    zero = Jet.const(0.0, order)
    r = [[[zero] * 3 for _ in range(4)] for _ in range(4)]
    for lam in range(4):
        for mu in range(lam + 1, 4):
            quad = cross([c.truncate(order) for c in cjets[lam]], [c.truncate(order) for c in cjets[mu]])
            for k in range(3):
                acc = -cjets[mu][k].derive(lam) + cjets[lam][k].derive(mu) + quad[k]
                r[lam][mu][k] = acc
                r[mu][lam][k] = -acc
    return r
