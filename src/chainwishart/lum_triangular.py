"""Pivot-adapted triangular factorizations with the chain zero pattern.

A matrix is *LU(M) triangular* when its rows up to ``M`` form a lower
triangle and its rows from ``M`` on form an upper triangle (so LU(n) is
plain lower triangular and LU(1) plain upper triangular).  Such matrices
form a group under multiplication.  Restricted to the chain pattern
(``T_ij = 0`` unless ``|i - j| <= 1``) an LU(M) matrix carries only a
positive diagonal, subdiagonal entries below the pivot and superdiagonal
entries from the pivot on -- ``O(n)`` data (the dense group operations
live in the dense test oracle under ``tests/``).

Every positive definite banded ``y`` factors as ``y = T T'`` with ``T`` of
this shape, for every pivot ``M``; the factor is read off the peel plan of
``y``, which peels vertex 1 while the pivot lies to the right and vertex
``n`` once it is reached, the same plan both exact samplers walk.  The
factorization turns the mean map into a diagonal congruence, which is what
makes the closed-form variance function work: with ``y`` the preimage of
``m`` under the mean map, the hat completion is

    hat(m) = T^{-T} diag(s) T^{-1}.

Its band, which is the mean ``m`` itself, is read off the peel plan in one
O(n) outward sweep from the pivot (:func:`_hat_band`); the mean on ``Q``,
``pi(y^{-1})`` and the whole hat run on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import DenseSym, IncompleteSym, TridiagSym, _from_unit, _hat_fill, _peel_order, _peel_unit
from .peeling import _peel_plan
from .power_functions import ShapeParams

__all__ = ["LUMMatrix", "decompose", "hat_via_T"]


@dataclass(eq=False)
class LUMMatrix:
    """Chain-patterned LU(M) triangular matrix.

    ``sub`` carries the subdiagonal entries ``T_{i+1,i}`` for ``i = 1..M-1``
    (rows below the pivot), ``sup`` the superdiagonal entries ``T_{i,i+1}``
    for ``i = M..n-1`` (rows from the pivot on); the diagonal is positive.
    """

    n: int
    M: int
    diag: NDArray[np.float64]
    sub: NDArray[np.float64]
    sup: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.diag = np.asarray(self.diag, dtype=float).reshape(-1)
        self.sub = np.asarray(self.sub, dtype=float).reshape(-1)
        self.sup = np.asarray(self.sup, dtype=float).reshape(-1)
        if not 1 <= self.M <= self.n:
            raise ValueError(f"pivot M={self.M} out of range 1..{self.n}")
        if self.diag.shape != (self.n,):
            raise ValueError("diag must have length n")
        if self.sub.shape != (self.M - 1,):
            raise ValueError("sub must have length M-1")
        if self.sup.shape != (self.n - self.M,):
            raise ValueError("sup must have length n-M")
        if not np.all(self.diag > 0):
            raise ValueError("diagonal of the factor must be positive")

    def to_dense(self) -> DenseSym:
        t = np.diag(self.diag).astype(float)
        for i in range(1, self.M):  # T_{i+1,i}
            t[i, i - 1] = self.sub[i - 1]
        for i in range(self.M, self.n):  # T_{i,i+1}
            t[i - 1, i] = self.sup[i - self.M]
        return t


def decompose(y: TridiagSym, M: int) -> LUMMatrix:
    """LU(M) factor ``T`` with ``y = T T'``, read off the peel plan of ``y``.

    Each vertex peeled with pivot ``a`` and regression ``b`` contributes
    ``T_ii = sqrt(a)`` and ``sqrt(a) b`` on the side facing the pivot; the
    pivot vertex contributes the square root of the remainder.
    """
    a, b = _peel_plan(y, M)
    diag = np.sqrt(a)
    return LUMMatrix(y.n, M, diag, diag[: M - 1] * b[: M - 1], diag[M:] * b[M:])


def _hat_band(s: NDArray, M: int, a: NDArray, b: NDArray) -> NDArray:
    """Band of ``T^{-T} diag(s) T^{-1}`` from the peel plan of ``y = T T'``, diag then off in one array.

    One outward sweep from the pivot, O(n): ``hd_M = s_M / a_M``, then for
    each peeled vertex ``i`` with neighbour ``j`` toward the pivot

        hd_i = s_i / a_i + b_i^2 hd_j,    ho_{ij} = -b_i hd_j.

    ``s`` is any real vector and ``(a, b)`` one element's plan.  At ``s = 1`` this is ``pi(y^{-1})``.
    """
    n = len(a)
    s, a, b = s.tolist(), a.tolist(), b.tolist()
    hd, ho = [0.0] * n, [0.0] * (n - 1)
    hd[M - 1] = s[M - 1] / a[M - 1]
    for i, j in reversed(_peel_order(n, M)):
        hd[i] = s[i] / a[i] + b[i] ** 2 * hd[j]
        ho[min(i, j)] = -b[i] * hd[j]
    return np.array(hd + ho)


def _hat_element(s: NDArray, M: int, y: TridiagSym, what: str) -> IncompleteSym:
    """:func:`_hat_band` of ``y`` in ``P`` (peeled toward ``M``) as an element of ``I``.

    The band has degree -1 in ``y``.  It is formed at the unit scale of the
    peel (exact powers of two) and scaled back by :func:`_from_unit`, which
    calls it ``what``.
    """
    a, b, e = _peel_unit(y.diag, y.off, M)
    band = _from_unit(_hat_band(s, M, a, b), -e, what, -1, "y")
    return IncompleteSym._trusted(y.n, band[: y.n], band[y.n :])


def hat_via_T(p: ShapeParams, m: IncompleteSym) -> DenseSym:
    """Hat completion of ``m`` through the factorized preimage of the mean map.

    With ``y`` the inverse mean of ``m`` at shape ``(M, s)`` and ``y = T T'``:

        hat(m) = T^{-T} diag(s) T^{-1}.

    Its inverse ``T diag(1/s) T'`` is tridiagonal, so it is filled in from
    its band (:func:`_hat_band`).  At ``s = (1, ..., 1)`` this is the plain
    positive definite completion.
    """
    from .wishart_q import inverse_mean  # deferred: avoids a module cycle

    band = _hat_band(p.s, p.M, *_peel_plan(inverse_mean(p, m), p.M))
    return _hat_fill(band[: m.n], band[m.n :])
