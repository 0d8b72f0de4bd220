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
O(n) outward sweep from the pivot, ``matrix_spaces._hat_element`` beside the
peel kernel; the mean on ``Q``, ``pi(y^{-1})`` and :func:`hat_via_T` run on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import DenseSym, IncompleteSym, TridiagSym, _as_vector, _hat_element, _hat_fill, _integral, _peel_core, _peel_unit, _pivot
from .power_functions import ShapeParams
from .wishart_q import inverse_mean

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
        self.n = _integral(self.n, "n")
        self.M = _pivot(self.M, self.n)
        self.diag = _as_vector(self.diag, self.n, "diag")
        self.sub = _as_vector(self.sub, self.M - 1, "sub")
        self.sup = _as_vector(self.sup, self.n - self.M, "sup")
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
    M = _pivot(M, y.n)
    a, b = _peel_core(y.diag, y.off, M)
    diag = np.sqrt(a)
    return LUMMatrix(y.n, M, diag, diag[: M - 1] * b[: M - 1], diag[M:] * b[M:])


def hat_via_T(p: ShapeParams, m: IncompleteSym) -> DenseSym:
    """Hat completion of ``m`` through the factorized preimage of the mean map.

    With ``y`` the inverse mean of ``m`` at shape ``(M, s)`` and ``y = T T'``:

        hat(m) = T^{-T} diag(s) T^{-1}.

    Its inverse ``T diag(1/s) T'`` is tridiagonal, so it is filled in from
    its band (``matrix_spaces._hat_element``).  At ``s = (1, ..., 1)`` this
    is the plain positive definite completion.
    """
    y = inverse_mean(p, m)
    band = _hat_element(p.s, p.M, _peel_unit(y.diag, y.off, p.M), "the hat completion")
    return _hat_fill(band.diag, band.off)
