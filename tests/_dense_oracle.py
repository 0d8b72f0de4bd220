"""Dense reference forms: closed forms, LU(M) algebra, the Gram sampler and order enumeration.

A test oracle, not a public path: the tests compare the O(n) banded
evaluations of :mod:`chainwishart.wishart_q`, :mod:`chainwishart.wishart_p`
and :mod:`chainwishart.lum_triangular` against these.  On ``Q`` they build
padded dense inverses of nested principal submatrices (:func:`_mean_blocks`),
as the paper's formulas read, and cost O(n^4) per call.  The higher moments
on both cones are the paper's permutation-cycle expansions, N! cycle products
each.  The LU(M) group operations act on dense factors, the
quadratic-construction sampler draws each interval through a dense Cholesky
factor of ``(2 y_I)^{-1}``, on the same random stream as the banded sampler,
and the eliminating orders of a chain are found by filtering all n!
permutations.  The paper's compact and expanded variance formulas and the
dense hat completion live in :mod:`chainwishart.verification`, whose
``variance`` suite checks the banded variance against them.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from chainwishart.chain_graph import ChainGraph, is_eliminating
from chainwishart.matrix_spaces import (
    DenseSym,
    IncompleteSym,
    TridiagSym,
    _clique_inverses,
    assert_in_P,
    project_pi,
)
from chainwishart.lum_triangular import LUMMatrix
from chainwishart.power_functions import _MOMENT_CAP, ShapeParams
from chainwishart.wishart_p import WishartP, riesz_p_exponents
from chainwishart.wishart_q import MomentSpec, WishartQ, operator_matrix


def _mean_blocks(p: ShapeParams, y: TridiagSym) -> list[tuple[float, DenseSym, tuple[int, int]]]:
    """Weighted padded inverses of the nested principal submatrices of ``y``.

    Returns ``(coeff, A, (lo, hi))`` triples with ``A = [(y_{lo:hi})^{-1}]^0``
    and coefficients ``s_i - s_{i+1}`` (prefixes), ``s_M`` (full),
    ``s_i - s_{i-1}`` (suffixes).  The mean is ``pi`` of their sum and the
    covariance applied to ``u`` is ``pi`` of the weighted ``A u A``; the
    moment expansion and the dense oracle use these triples.
    """
    n, M, s = p.n, p.M, p.s
    yd = y.to_dense()
    blocks: list[tuple[float, DenseSym, tuple[int, int]]] = []
    for i in range(1, M):
        a = np.zeros((n, n))
        a[:i, :i] = np.linalg.inv(yd[:i, :i])
        blocks.append((float(s[i - 1] - s[i]), a, (1, i)))
    blocks.append((float(s[M - 1]), np.linalg.inv(yd), (1, n)))
    for i in range(M + 1, n + 1):
        a = np.zeros((n, n))
        a[i - 1 :, i - 1 :] = np.linalg.inv(yd[i - 1 :, i - 1 :])
        blocks.append((float(s[i - 1] - s[i - 2]), a, (i, n)))
    return blocks


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


# ---------------------------------------------------------------------------
# higher moments by the permutation-cycle expansions
# ---------------------------------------------------------------------------


def _cycle_expansion(n_items: int, cycle_value: Callable[[list[int]], float]) -> float:
    """Sum over all permutations of ``range(n_items)`` of their cycle products.

    Each permutation contributes the product of ``cycle_value`` over its
    cycles, taken in order of their smallest element; this is the shape of
    the higher-moment formulas of both Wishart families.
    """
    total = 0.0
    for perm in permutations(range(n_items)):
        seen = [False] * n_items
        val = 1.0
        for start in range(n_items):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = perm[j]
            val *= cycle_value(cyc)
        total += val
    return total


def moment(w: WishartQ, spec: MomentSpec) -> float:
    """``E[ <X, z_1> ... <X, z_N> ]`` by the permutation-cycle expansion.

    Each cycle contributes the weighted sum over the construction's interval
    blocks of the trace of the cyclic product of ``(y_I)^{-1} z_I`` factors;
    the moment is the sum of the cycle products over all permutations.
    """
    n_dirs = len(spec.z_list)
    if n_dirs > _MOMENT_CAP:
        raise ValueError(f"moment order {n_dirs} above cap {_MOMENT_CAP}")
    if spec.z_list[0].n != w.n:
        raise ValueError("size mismatch")
    blocks = _mean_blocks(w.params, w.y)
    zds = [z.to_dense() for z in spec.z_list]
    # padded (y_I)^{-1} z_j per block: traces of restricted products match
    gs = [[a @ zd for zd in zds] for _, a, _ in blocks]
    coeffs = [c for c, _, _ in blocks]

    def cycle_value(cyc: list[int]) -> float:
        total = 0.0
        for coeff, g in zip(coeffs, gs):
            prod = g[cyc[0]]
            for j in cyc[1:]:
                prod = prod @ g[j]
            total += coeff * float(np.trace(prod))
        return total

    return _cycle_expansion(n_dirs, cycle_value)


def _blocks(d0: NDArray, d1: NDArray, o: NDArray) -> NDArray[np.float64]:
    """Stack of symmetric 2x2 blocks ``[[d0, o], [o, d1]]``, shape ``(len(o), 2, 2)``."""
    out = np.empty((o.size, 2, 2))
    out[:, 0, 0], out[:, 1, 1] = d0, d1
    out[:, 0, 1] = out[:, 1, 0] = o
    return out


def moment_p(w: WishartP, x_list: Sequence[IncompleteSym]) -> float:
    """``E[ <Y, x_1> ... <Y, x_N> ]`` by the permutation-cycle expansion.

    Cycle factors sum clique-block traces with weights ``s + 3/2`` and
    scalar powers ``theta_jj^{-|c|}`` with the separator weights; both sets
    of weights are the negated log-Laplace exponents, so endpoint pivots are
    covered by the same expression.
    """
    n_dirs = len(x_list)
    if n_dirs > _MOMENT_CAP:
        raise ValueError(f"moment order {n_dirs} above cap {_MOMENT_CAP}")
    if any(x.n != w.n for x in x_list):
        raise ValueError("size mismatch")
    theta = w.x
    cliq_e, diag_e = riesz_p_exponents(w.params.s, w.params.M)
    # gs[j, b] = (theta_b)^{-1} x_b^{(j)}, one 2x2 product per clique block b
    binv = _blocks(*_clique_inverses(theta))
    gs = np.stack([binv @ _blocks(x.diag[:-1], x.diag[1:], x.off) for x in x_list])
    ratios = np.stack([x.diag / theta.diag for x in x_list])

    def cycle_value(cyc: list[int]) -> float:
        prod = gs[cyc[0]]
        for j in cyc[1:]:
            prod = prod @ gs[j]
        traces = prod[:, 0, 0] + prod[:, 1, 1]
        return float(-cliq_e @ traces - diag_e @ np.prod(ratios[cyc], axis=0))

    return _cycle_expansion(n_dirs, cycle_value)


# ---------------------------------------------------------------------------
# LU(M) group operations on dense factors
# ---------------------------------------------------------------------------


def multiply(s: LUMMatrix, t: LUMMatrix) -> DenseSym:
    """Dense product of two factors with the same pivot; stays LU(M) shaped."""
    if (s.n, s.M) != (t.n, t.M):
        raise ValueError("factors must share size and pivot")
    return s.to_dense() @ t.to_dense()


def invert(t: LUMMatrix) -> DenseSym:
    """Dense inverse of the factor; again LU(M) triangular (not chain patterned)."""
    return np.linalg.inv(t.to_dense())


def is_lum_pattern(a: DenseSym, M: int, atol: float = 1e-10) -> bool:
    """Check the LU(M) zero pattern of a dense matrix up to ``atol``."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < M and j > i and abs(a[i - 1, j - 1]) > atol:
                return False
            if i > M and i > j and abs(a[i - 1, j - 1]) > atol:
                return False
    return True


# ---------------------------------------------------------------------------
# quadratic construction by dense Cholesky factors
# ---------------------------------------------------------------------------


def sample_gram_many(
    index_sets: Sequence[tuple[int, int, int]],
    y: TridiagSym,
    rng: np.random.Generator,
    size: int,
) -> NDArray[np.float64]:
    """Tilted Gram sampler over arbitrary interval index sets.

    Each set ``I`` contributes ``multiplicity`` independent terms
    ``pi(v v')`` with ``v`` supported on ``I`` and ``v_I ~ N(0, (2 y_I)^{-1})``.
    Mixed patterns outside the basic family are allowed; their laws have no
    closed-form density here (sampler-only mode).
    """
    assert_in_P(y)
    n = y.n
    yd = y.to_dense()
    diag = np.zeros((size, n))
    off = np.zeros((size, n - 1))
    for lo, hi, mult in index_sets:
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"invalid interval ({lo}, {hi})")
        k = hi - lo + 1
        cov = np.linalg.inv(2.0 * yd[lo - 1 : hi, lo - 1 : hi])
        chol = np.linalg.cholesky(cov)
        v = rng.standard_normal((size, mult, k)) @ chol.T
        diag[:, lo - 1 : hi] += np.sum(v**2, axis=1)
        if k >= 2:
            off[:, lo - 1 : hi - 1] += np.sum(v[:, :, :-1] * v[:, :, 1:], axis=1)
    return np.hstack([diag, off])


# ---------------------------------------------------------------------------
# eliminating orders by exhaustive filtering
# ---------------------------------------------------------------------------


def enumerate_all_eliminating_orders_bruteforce(g: ChainGraph) -> list[tuple[int, ...]]:
    """Exhaustive filter over all n! permutations; cross-check for small n."""
    return [p for p in permutations(range(1, g.n + 1)) if is_eliminating(g, p)]
