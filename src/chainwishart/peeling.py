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

Each public map checks its input cone.  The samplers, the ``LU(M)`` factor
and the closed forms on ``Q`` instead use one peel plan per element: a single
cone check, then every peel read off plain arrays in O(n) with the same
floating-point operations as the maps (``_peel_plan``, ``_peel_core``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _mirror,
    _unit_scaled,
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
    n = z.n + 1
    diag = np.empty(n)
    off = np.empty(n - 1)
    diag[0] = a
    diag[1] = a * b * b + z.diag[0]
    diag[2:] = z.diag[1:]
    off[0] = a * b
    off[1:] = z.off
    return TridiagSym(n, diag, off)


def phi_inv(y: TridiagSym) -> PeelTriple:
    """Peel vertex 1: ``a = y_11``, ``b = y_12 / y_11``, ``z_22 = y_22 - y_12^2 / y_11``."""
    if y.n < 2:
        raise ValueError("cannot peel a single-vertex matrix")
    assert_in_P(y)
    a = float(y.diag[0])
    b = float(y.off[0] / a)
    diag = y.diag[1:].copy()
    diag[0] -= y.off[0] ** 2 / a
    return PeelTriple(a, b, TridiagSym(y.n - 1, diag, y.off[1:].copy()))


def psi(alpha: float, beta: float, x: IncompleteSym) -> IncompleteSym:
    """Attach vertex 1 to ``x`` in the dual cone."""
    _require_positive(alpha, "alpha")
    assert_in_Q(x)
    n = x.n + 1
    diag = np.empty(n)
    off = np.empty(n - 1)
    x22 = x.diag[0]
    diag[0] = alpha + beta * beta * x22
    diag[1:] = x.diag
    off[0] = beta * x22
    off[1:] = x.off
    return IncompleteSym(n, diag, off)


def psi_inv(eta: IncompleteSym) -> PeelTriple:
    """Peel vertex 1 on the dual side: ``beta = eta_12 / eta_22``, ``alpha = eta_11 - eta_12^2 / eta_22``."""
    if eta.n < 2:
        raise ValueError("cannot peel a single-vertex matrix")
    assert_in_Q(eta)
    x22 = float(eta.diag[1])
    beta = float(eta.off[0] / x22)
    alpha = float(eta.diag[0] - eta.off[0] ** 2 / x22)
    rest = IncompleteSym(eta.n - 1, eta.diag[1:].copy(), eta.off[1:].copy())
    return PeelTriple(alpha, beta, rest)


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


def _peel_order(n: int, M: int) -> list[tuple[int, int]]:
    """Peeled vertices ``(i, j)`` in peeling order, ``j`` the neighbour toward the pivot.

    Vertex 1 is peeled while the pivot lies to the right, then vertex ``n``;
    indices are 0-based.  Reversed, this is the outward order from the pivot
    in which the inductive constructions rebuild an element.
    """
    return [(i, i + 1) for i in range(M - 1)] + [(i, i - 1) for i in range(n - 1, M - 1, -1)]


def _rows(v: NDArray) -> list:
    # Python scalars for one element (fast, and ``**`` rounds as on numpy
    # scalars); rows of the trailing batch axes otherwise.
    return v.tolist() if v.ndim == 1 else list(v)


def _peel_core(
    diag: NDArray, off: NDArray, M: int, dual: bool
) -> tuple[NDArray, NDArray]:
    """Peel coordinates ``(a, b)`` of banded data, indexed by vertex; no cone check.

    Repeats the floating-point operations of ``phi_inv``/``phi_tilde_inv``
    (``dual=False``) or ``psi_inv``/``psi_tilde_inv`` (``dual=True``) step by
    step, in O(n).  ``a[M-1]`` holds the one-vertex remainder at the pivot and
    ``b[M-1]`` is zero.  Entries may be complex and may carry trailing batch
    axes (``diag`` of shape ``(n, ...)``, ``off`` of shape ``(n-1, ...)``).
    One element's data (1-D) whose largest entry lies far from unit size is
    first scaled to it by a power of two (``_unit_scaled``), which is exact.
    """
    d, o, scale = _unit_scaled(diag, off) if diag.ndim == 1 else (_rows(diag), _rows(off), 0)
    n = len(d)
    a = [0 * d[M - 1]] * n
    b = [0 * d[M - 1]] * n
    for i, j in _peel_order(n, M):
        e = min(i, j)
        if dual:
            b[i] = o[e] / d[j]
            a[i] = d[i] - o[e] ** 2 / d[j]
        else:
            a[i] = d[i]
            b[i] = o[e] / d[i]
            d[j] = d[j] - o[e] ** 2 / d[i]
    a[M - 1] = d[M - 1]
    return np.ldexp(a, scale) if scale else np.array(a), np.array(b)


def _peel_plan(elem: Union[TridiagSym, IncompleteSym], M: int) -> tuple[NDArray, NDArray]:
    """Peel ``elem`` down to its pivot vertex ``M`` after a single cone check.

    Checks membership in ``P`` (or ``Q``) once, then reads every peel off the
    arrays in O(n) with the same floating-point operations as the inverse
    maps, so seeded samplers and factors are unchanged.  Returns ``(a, b)``
    indexed by vertex: vertex ``i`` was peeled with pivot ``a[i]`` and
    regression ``b[i]`` toward its neighbour ``j`` on the pivot's side (see
    :func:`_peel_order`), and ``a[M-1]`` is the one-vertex remainder.
    """
    dual = isinstance(elem, IncompleteSym)
    (assert_in_Q if dual else assert_in_P)(elem)
    if not 1 <= M <= elem.n:
        raise ValueError(f"pivot M={M} out of range 1..{elem.n}")
    return _peel_core(elem.diag, elem.off, M, dual)


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
    if y.n != eta.n:
        raise ValueError("size mismatch")
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
