"""Corner-peeling bijections between chain cones of adjacent sizes.

A positive definite banded matrix on ``n`` vertices is equivalent to a
positive pivot ``a``, a regression coefficient ``b``, and a positive definite
banded matrix on ``n - 1`` vertices:

    y = phi(a, b, z):   y_11 = a,  y_12 = a b,  y_22 = a b^2 + z_22,
                        all other entries copied from z,

and mirrored at vertex ``n`` by ``phi_tilde`` (the same map on the reversed
chain).  The dual cone peels the same way:

    eta = psi(alpha, beta, x):  eta_11 = alpha + beta^2 x_22,
                                eta_12 = beta x_22, rest copied from x,

with ``psi_tilde`` its mirror.  The coordinate changes have Jacobian ``a``
(for ``phi``/``phi_tilde``) and ``x_22`` resp. ``x_{n-1,n-1}`` (for
``psi``/``psi_tilde``), and they split the trace pairing as

    tr(y eta) = a alpha + a x_22 (b + beta)^2 + tr(z x).

These four maps are the engine behind the closed-form Laplace transforms and
the exact samplers: integrating a power function over the cone reduces, one
vertex at a time, to a gamma integral in ``a`` (or ``alpha``) and a Gaussian
integral in ``b`` (or ``beta``).

Each public map checks its input cone; the inverse maps read their step off
the peel kernel ``matrix_spaces._peel_core``, whose sweep is the test on
``P``.  The samplers, the ``LU(M)`` factor and the closed forms call that
kernel directly: one sweep per element gives every peel in O(n), with the
same floating-point operations as the maps, and each family keeps the plan
of its natural parameter once formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _mirror,
    _peel_core,
    _same_size,
    assert_in_P,
    assert_in_Q,
    pairing,
)

__all__ = [
    "PeelTriple",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "phi_tilde",
    "phi_tilde_inv",
    "psi_tilde",
    "psi_tilde_inv",
    "jacobian_phi",
    "jacobian_psi",
    "jacobian_phi_tilde",
    "jacobian_psi_tilde",
    "trace_decomposition_check",
    "trace_decomposition_check_tilde",
]


@dataclass(frozen=True)
class PeelTriple:
    """Coordinates ``(a, b, rest)`` of a peeled cone element."""

    a: float
    b: float
    rest: Union[TridiagSym, IncompleteSym]


def _require_positive(a: float, name: str) -> None:
    if not a > 0:
        raise ValueError(f"{name} must be positive, got {a}")


def phi(a: float, b: float, z: TridiagSym) -> TridiagSym:
    """Attach vertex 1 with pivot ``a`` and regression ``b`` to ``z`` in ``P``."""
    _require_positive(a, "a")
    assert_in_P(z, "z")
    return TridiagSym(z.n + 1, np.r_[a, a * b * b + z.diag[0], z.diag[1:]], np.r_[a * b, z.off])


def phi_inv(y: TridiagSym) -> PeelTriple:
    """Peel vertex 1: ``a = y_11``, ``b = y_12 / y_11``, ``z_22 = y_22 - y_12^2 / y_11``.

    ``a`` and ``z_22`` are the first two pivots of the LDL sweep, the cone test of ``y``.
    """
    if y.n < 2:
        raise ValueError("cannot peel a single-vertex matrix")
    a, b = _peel_core(y.diag, y.off, y.n)
    return PeelTriple(float(a[0]), float(b[0]), TridiagSym(y.n - 1, np.r_[a[1], y.diag[2:]], y.off[1:]))


def psi(alpha: float, beta: float, x: IncompleteSym) -> IncompleteSym:
    """Attach vertex 1 to ``x`` in the dual cone."""
    _require_positive(alpha, "alpha")
    assert_in_Q(x)
    x22 = x.diag[0]
    return IncompleteSym(x.n + 1, np.r_[alpha + beta * beta * x22, x.diag], np.r_[beta * x22, x.off])


def psi_inv(eta: IncompleteSym) -> PeelTriple:
    """Peel vertex 1 on the dual side: ``beta = eta_12 / eta_22``, ``alpha = eta_11 - eta_12^2 / eta_22``."""
    if eta.n < 2:
        raise ValueError("cannot peel a single-vertex matrix")
    assert_in_Q(eta)
    alpha, beta = _peel_core(eta.diag[:2], eta.off[:1], 2, dual=True)
    return PeelTriple(float(alpha[0]), float(beta[0]), IncompleteSym(eta.n - 1, eta.diag[1:], eta.off[1:]))


def phi_tilde(a: float, b: float, z: TridiagSym) -> TridiagSym:
    """Mirror of :func:`phi`: attach vertex ``n`` with pivot ``a``."""
    return _mirror(phi(a, b, _mirror(z)))


def phi_tilde_inv(y: TridiagSym) -> PeelTriple:
    """Peel vertex ``n``: :func:`phi_inv` on the reversed chain."""
    t = phi_inv(_mirror(y))
    return PeelTriple(t.a, t.b, _mirror(t.rest))


def psi_tilde(alpha: float, beta: float, x: IncompleteSym) -> IncompleteSym:
    """Mirror of :func:`psi`: attach vertex ``n`` on the dual side."""
    return _mirror(psi(alpha, beta, _mirror(x)))


def psi_tilde_inv(eta: IncompleteSym) -> PeelTriple:
    """Peel vertex ``n`` on the dual side: :func:`psi_inv` on the reversed chain."""
    t = psi_inv(_mirror(eta))
    return PeelTriple(t.a, t.b, _mirror(t.rest))


# ---------------------------------------------------------------------------
# Jacobians of the coordinate changes
# ---------------------------------------------------------------------------


def jacobian_phi(a: float, b: float, z: TridiagSym) -> float:
    """Jacobian determinant of ``(a, b, z) -> y`` in canonical coordinates."""
    return float(a)


def jacobian_phi_tilde(a: float, b: float, z: TridiagSym) -> float:
    return float(a)


def jacobian_psi(alpha: float, beta: float, x: IncompleteSym) -> float:
    """Jacobian determinant of ``(alpha, beta, x) -> eta``; equals ``x_22``."""
    return float(x.diag[0])


def jacobian_psi_tilde(alpha: float, beta: float, x: IncompleteSym) -> float:
    return float(x.diag[-1])


# ---------------------------------------------------------------------------
# trace decomposition
# ---------------------------------------------------------------------------


def trace_decomposition_check(y: TridiagSym, eta: IncompleteSym) -> tuple[float, float]:
    """Both sides of ``tr(y eta) = a alpha + a x_22 (b + beta)^2 + tr(z x)``."""
    _same_size(y.n, eta.n)
    if y.n < 2:
        raise ValueError("decomposition needs n >= 2")
    lhs = pairing(y, eta)
    py = phi_inv(y)
    pe = psi_inv(eta)
    x22 = pe.rest.diag[0]
    rhs = py.a * pe.a + py.a * x22 * (py.b + pe.b) ** 2 + pairing(py.rest, pe.rest)
    return lhs, rhs


def trace_decomposition_check_tilde(y: TridiagSym, eta: IncompleteSym) -> tuple[float, float]:
    """Mirrored identity through the vertex-``n`` peel: the plain one on the reversed chain."""
    return trace_decomposition_check(_mirror(y), _mirror(eta))
