"""Dense reference forms of the closed-form mean, covariance and variance on ``Q``.

A test oracle, not a public path: ``chainwishart.verification`` and the tests
compare the O(n) banded evaluations of :mod:`chainwishart.wishart_q` against
these.  They build padded dense inverses of nested principal submatrices
(``wishart_q._mean_blocks``) and of interval blocks of the Lauritzen image,
as the paper's formulas read, and cost O(n^4) per call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import (
    DenseSym,
    IncompleteSym,
    TridiagSym,
    assert_in_P,
    hat_completion,
    lauritzen_map,
    project_pi,
)
from .power_functions import ShapeParams
from .wishart_q import WishartQ, _mean_blocks, operator_matrix


def mean_formula(p: ShapeParams, y: TridiagSym) -> IncompleteSym:
    """The mean-map expression, evaluated for any real shape vector."""
    assert_in_P(y)
    n = p.n
    acc = np.zeros((n, n))
    for coeff, a, _ in _mean_blocks(p, y):
        acc += coeff * a
    return project_pi(acc)


def covariance_apply(w: WishartQ, u: TridiagSym) -> IncompleteSym:
    """Covariance operator applied to ``u``: sum of ``pi(A u A)`` over the blocks."""
    if u.n != w.n:
        raise ValueError("size mismatch")
    ud = u.to_dense()
    n = w.n
    acc = np.zeros((n, n))
    for coeff, a, _ in _mean_blocks(w.params, w.y):
        acc += coeff * (a @ ud @ a)
    return project_pi(acc)


def covariance_matrix(w: WishartQ) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis (columns are images of e_k)."""
    return operator_matrix(lambda u: covariance_apply(w, u), w.n)


def _m_sets(k: DenseSym, n: int) -> Callable[[int, int], DenseSym]:
    """``M_I = [((hat^{-1})_I)^{-1}]^0`` for interval index sets, from ``K = hat^{-1}``."""

    def m_interval(lo: int, hi: int) -> DenseSym:
        a = np.zeros((n, n))
        a[lo - 1 : hi, lo - 1 : hi] = np.linalg.inv(k[lo - 1 : hi, lo - 1 : hi])
        return a

    return m_interval


def _quad(a: DenseSym, ud: DenseSym) -> DenseSym:
    return a @ ud @ a


def variance_apply_nice(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Compact variance formula

        V(m)u = (1/s_1 + 1/s_n - 1/s_M) P(hat)u
                + sum_{i<M} (1/s_{i+1} - 1/s_i) P(hat - M_{1:i})u
                + sum_{i>M} (1/s_{i-1} - 1/s_i) P(hat - M_{i:n})u

    with ``P(A)u = pi(A u A)`` and ``M_I`` the padded interval inverses of
    the Lauritzen image of ``m``.
    """
    if not (p.n == m.n == u.n):
        raise ValueError("size mismatch")
    n, M, s = p.n, p.M, p.s
    mhat = hat_completion(m)
    k = lauritzen_map(m).to_dense()
    m_of = _m_sets(k, n)
    ud = u.to_dense()
    acc = (1.0 / s[0] + 1.0 / s[n - 1] - 1.0 / s[M - 1]) * _quad(mhat, ud)
    for i in range(1, M):
        acc += (1.0 / s[i] - 1.0 / s[i - 1]) * _quad(mhat - m_of(1, i), ud)
    for i in range(M + 1, n + 1):
        acc += (1.0 / s[i - 2] - 1.0 / s[i - 1]) * _quad(mhat - m_of(i, n), ud)
    return project_pi(acc)


def variance_apply_expanded(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Expanded three-sum variance formula; algebraically equal to the compact one."""
    if not (p.n == m.n == u.n):
        raise ValueError("size mismatch")
    n, M, s = p.n, p.M, p.s
    mhat = hat_completion(m)
    k = lauritzen_map(m).to_dense()
    m_of = _m_sets(k, n)
    ud = u.to_dense()
    acc = np.zeros((n, n))
    for i in range(1, M):
        b = m_of(1, i) / s[i - 1]
        for j in range(1, i):
            b += (1.0 / s[j - 1] - 1.0 / s[j]) * m_of(1, j)
        acc += (s[i - 1] - s[i]) * _quad(b, ud)
    c = mhat / s[M - 1]
    for j in range(1, M):
        c += (1.0 / s[j - 1] - 1.0 / s[j]) * m_of(1, j)
    for kk in range(M + 1, n + 1):
        c += (1.0 / s[kk - 1] - 1.0 / s[kk - 2]) * m_of(kk, n)
    acc += s[M - 1] * _quad(c, ud)
    for i in range(M + 1, n + 1):
        d = m_of(i, n) / s[i - 1]
        for j in range(i + 1, n + 1):
            d += (1.0 / s[j - 1] - 1.0 / s[j - 2]) * m_of(j, n)
        acc += (s[i - 1] - s[i - 2]) * _quad(d, ud)
    return project_pi(acc)
