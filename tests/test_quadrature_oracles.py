"""Deterministic quadrature oracles for the two-vertex Laplace transforms.

Tensor Gauss rules with the exact weight functions of the integrands:
generalized Laguerre nodes absorb the diagonal powers and exponential tilts,
Jacobi nodes absorb the correlation factor ``(1 - rho^2)^a`` after the
substitution ``x12 = rho sqrt(x11 x22)``.  Spectrally accurate and entirely
independent of the samplers and of the library's closed forms.
"""

import numpy as np
import pytest
from scipy.special import roots_genlaguerre, roots_jacobi

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym
from chainwishart.power_functions import ShapeParams, log_delta_M, log_Delta_M, log_phi


def riesz_q_mass_quadrature(y: TridiagSym, s1: float, s2: float, order: int = 80) -> float:
    """``integral over Q of exp(-<y, x>) delta_s^(2)(x) phi(x) dx`` for n = 2.

    The integrand reduces to ``x11^{s1-1} x22^{s2-1} (1-rho^2)^{s1-3/2}``
    times the exponential tilts.
    """
    y11, y22, y12 = float(y.diag[0]), float(y.diag[1]), float(y.off[0])
    t1, w1 = roots_genlaguerre(order, s1 - 1.0)
    t2, w2 = roots_genlaguerre(order, s2 - 1.0)
    r, wr = roots_jacobi(order, s1 - 1.5, s1 - 1.5)
    x1 = t1 / y11
    x2 = t2 / y22
    root = np.sqrt(np.outer(x1, x2))
    coupling = np.exp(-2.0 * y12 * r[None, None, :] * root[:, :, None])
    total = np.einsum("i,j,k,ijk->", w1, w2, wr, coupling)
    return float(total * y11 ** (-s1) * y22 ** (-s2))


def riesz_p_mass_quadrature(x: IncompleteSym, s1: float, s2: float, order: int = 80) -> float:
    """``integral over P of exp(-<x, y>) Delta_s^(2)(y) dy`` for n = 2."""
    x11, x22, x12 = float(x.diag[0]), float(x.diag[1]), float(x.off[0])
    t1, w1 = roots_genlaguerre(order, s1 + 0.5)
    t2, w2 = roots_genlaguerre(order, s2 + 0.5)
    r, wr = roots_jacobi(order, s2, s2)
    y1 = t1 / x11
    y2 = t2 / x22
    root = np.sqrt(np.outer(y1, y2))
    coupling = np.exp(-2.0 * x12 * r[None, None, :] * root[:, :, None])
    total = np.einsum("i,j,k,ijk->", w1, w2, wr, coupling)
    return float(total * x11 ** (-s1 - 1.5) * x22 ** (-s2 - 1.5))


@pytest.mark.parametrize("s", [(1.4, 1.1), (0.8, 2.3), (2.0, 0.6), (0.55, 0.05)])
def test_dual_cone_laplace_matches_quadrature(s):
    s1, s2 = s
    y = TridiagSym(2, [1.2, 0.9], [0.3])
    p = ShapeParams(2, [s1, s2])
    closed = np.exp(-wq.log_norm_constant(p) + log_Delta_M(ShapeParams(2, -p.s), y))
    quad = riesz_q_mass_quadrature(y, s1, s2)
    assert quad == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("s", [(0.3, -0.4), (-0.9, 1.2), (1.1, 0.0), (-1.2, -0.5)])
def test_concentration_cone_laplace_matches_quadrature(s):
    s1, s2 = s
    x = IncompleteSym(2, [1.0, 1.3], [-0.25])
    p = ShapeParams(2, [s1, s2])
    neg = ShapeParams(2, -p.s)
    closed = np.exp(-wp.log_norm_constant(p) + log_delta_M(neg, x) + log_phi(x))
    quad = riesz_p_mass_quadrature(x, s1, s2)
    assert quad == pytest.approx(closed, rel=1e-10)


def test_family_laplace_matches_quadrature_ratio():
    # the tilted family's transform is the ratio of two Riesz masses
    y = TridiagSym(2, [1.0, 1.1], [0.2])
    z = TridiagSym(2, [0.5, 0.3], [-0.1])
    s1, s2 = 1.6, 0.9
    w = wq.WishartQ(ShapeParams(2, [s1, s2]), y)
    closed = np.exp(wq.log_laplace(w, z))
    shifted = z + y
    quad = riesz_q_mass_quadrature(shifted, s1, s2) / riesz_q_mass_quadrature(y, s1, s2)
    assert quad == pytest.approx(closed, rel=1e-10)
    x = IncompleteSym(2, [1.0, 1.2], [0.3])
    theta = IncompleteSym(2, [0.4, 0.2], [0.05])
    sp1, sp2 = 0.4, -0.6
    wfam = wp.WishartP(ShapeParams(2, [sp1, sp2]), x)
    closed_p = np.exp(wp.log_laplace(wfam, theta))
    quad_p = riesz_p_mass_quadrature(theta + x, sp1, sp2) / riesz_p_mass_quadrature(x, sp1, sp2)
    assert quad_p == pytest.approx(closed_p, rel=1e-10)
