"""The Wishart natural exponential family on the dual cone ``Q``.

The generating measure with shape ``(M, s)`` has density proportional to
``delta_s^(M)(x) * phi(x)`` on ``Q`` and normalizing constant

    C_s^{-1} = pi^{(n-1)/2} * prod_{i != M} Gamma(s_i - 1/2) * Gamma(s_M),

finite exactly when ``s_i > 1/2`` off the pivot and ``s_M > 0``.  Its Laplace
transform at ``y`` in ``P`` is ``Delta_{-s}^(M)(y)``, so the exponentially
tilted family has density

    C_s * exp(-<y, x>) * Delta_s^(M)(y) * delta_s^(M)(x) * phi(x)

and Laplace transform ``Delta_{-s}(z + y) / Delta_{-s}(y)``.

This module provides, all in closed form: the mean map and its explicit
inverse (a family of generalized Lauritzen bijections), the covariance as an
operator, two equivalent variance-function formulas, the intertwining of the
inverse mean map with the reciprocal-shape mean map, higher moments through a
permutation-cycle expansion, and two exact samplers:

* a peeling sampler that walks the peel plan of ``y`` one vertex at a time,
  drawing a gamma pivot and a conditionally Gaussian regression coefficient,
  exactly inverting the integration steps behind the Laplace transform;
* a quadratic-construction sampler that sums projected Gaussian outer
  products over prefix/suffix index sets, with multiplicities ``sigma`` tied
  to the shape by ``sigma_i/2 = s_i - s_{i+1}`` (left of the pivot),
  ``sigma_M/2 = s_M``, ``sigma_i/2 = s_i - s_{i-1}`` (right of the pivot).

The tilt ``exp(-<y, pi(v v')>) = exp(-v' y_I v)`` makes each Gaussian factor
``N(0, (2 y_I)^{-1})``; the factor 2 comes from the quadratic form having no
1/2 and is the convention every moment identity here is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln

from .chain_graph import _cycle_expansion
from .matrix_spaces import (
    DenseSym,
    IncompleteSym,
    TridiagSym,
    assert_in_P,
    assert_in_Q,
    hat_completion,
    inverse_image,
    is_in_Q,
    lauritzen_map,
    pairing,
    project_pi,
    zg_basis,
)
from .peeling import _peel_plan
from .power_functions import (
    ShapeParams,
    delta_exponents,
    log_delta_M,
    log_Delta_M,
    log_phi,
)

__all__ = [
    "WishartQ",
    "MomentSpec",
    "log_norm_constant",
    "log_density",
    "log_laplace",
    "mean",
    "mean_formula",
    "pairing_with_parameter",
    "covariance_apply",
    "covariance_matrix",
    "covariance_bilinear_form",
    "operator_matrix",
    "inverse_mean",
    "variance_apply_nice",
    "variance_apply_expanded",
    "intertwining_check",
    "sample",
    "sample_many",
    "sigma_to_shape",
    "shape_to_sigma",
    "basic_index_sets",
    "sample_gram_many",
    "sample_quadratic",
    "sample_quadratic_many",
    "moment",
]


@dataclass(frozen=True)
class WishartQ:
    """Wishart family member on ``Q``: shape ``(M, s)`` and natural parameter ``y``."""

    params: ShapeParams
    y: TridiagSym

    def __post_init__(self) -> None:
        if self.params.n != self.y.n:
            raise ValueError("shape vector and natural parameter size disagree")
        if not self.params.in_q_domain():
            raise ValueError(
                "shape out of domain: need s_i > 1/2 off the pivot and s_M > 0"
            )
        assert_in_P(self.y)

    @property
    def n(self) -> int:
        return self.params.n


@dataclass(frozen=True)
class MomentSpec:
    """Test directions for a higher moment; the cap bounds the N! expansion."""

    z_list: Sequence[TridiagSym]
    cap: int = 6

    def __post_init__(self) -> None:
        if len(self.z_list) == 0:
            raise ValueError("need at least one test direction")
        sizes = {z.n for z in self.z_list}
        if len(sizes) != 1:
            raise ValueError("test directions must share a size")


def log_norm_constant(p: ShapeParams) -> float:
    """Log of ``C_s``; raises when the shape is outside the integrability domain."""
    if not p.in_q_domain():
        raise ValueError("shape out of domain: need s_i > 1/2 off the pivot and s_M > 0")
    s, M, n = p.s, p.M, p.n
    log_inv = 0.5 * (n - 1) * np.log(np.pi) + gammaln(s[M - 1])
    for i in range(n):
        if i != M - 1:
            log_inv += gammaln(s[i] - 0.5)
    return float(-log_inv)


def log_density(w: WishartQ, x: IncompleteSym) -> float:
    """Log density at ``x``; ``-inf`` outside the cone."""
    if x.n != w.n:
        raise ValueError("size mismatch")
    if not is_in_Q(x):
        return float("-inf")
    p, y = w.params, w.y
    return (
        log_norm_constant(p)
        - pairing(y, x)
        + log_Delta_M(p, y)
        + log_delta_M(p, x)
        + log_phi(x)
    )


def log_laplace(w: WishartQ, z: TridiagSym) -> float:
    """``log E exp(-<z, X>) = log Delta_{-s}(z + y) - log Delta_{-s}(y)``."""
    if z.n != w.n:
        raise ValueError("size mismatch")
    shifted = z + w.y
    assert_in_P(shifted, "z + y")
    neg = ShapeParams(w.params.M, -w.params.s)
    return log_Delta_M(neg, shifted) - log_Delta_M(neg, w.y)


# ---------------------------------------------------------------------------
# mean, covariance, higher moments
# ---------------------------------------------------------------------------


def _mean_blocks(p: ShapeParams, y: TridiagSym) -> list[tuple[float, DenseSym, tuple[int, int]]]:
    """Weighted padded inverses of the nested principal submatrices of ``y``.

    Returns ``(coeff, A, (lo, hi))`` triples with ``A = [(y_{lo:hi})^{-1}]^0``
    and coefficients ``s_i - s_{i+1}`` (prefixes), ``s_M`` (full),
    ``s_i - s_{i-1}`` (suffixes).  The mean is ``pi`` of their sum; the
    covariance and the moment expansion reuse the same triples.
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


def mean(w: WishartQ) -> IncompleteSym:
    """Mean of the family; lies in ``Q``.  At ``s = 1`` this is ``pi(y^{-1})``."""
    return mean_formula(w.params, w.y)


def pairing_with_parameter(w: WishartQ) -> float:
    """``<m(y), y>``; independent of ``y`` and equal to the homogeneity degree."""
    return pairing(w.y, mean(w))


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


def operator_matrix(fn: Callable[[TridiagSym], IncompleteSym], n: int) -> NDArray[np.float64]:
    """Materialize a linear map on the (2n-1)-dim coordinate space column by column."""
    cols = [fn(zg_basis(n, k)).coords() for k in range(2 * n - 1)]
    return np.column_stack(cols)


def covariance_matrix(w: WishartQ) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis (columns are images of e_k)."""
    return operator_matrix(lambda u: covariance_apply(w, u), w.n)


def covariance_bilinear_form(w: WishartQ) -> NDArray[np.float64]:
    """Matrix of ``Cov(<X, e_j>, <X, e_k>)`` over the canonical basis of ``Z``.

    Off-diagonal coordinates enter the pairing with weight 2, so this equals
    ``W V`` with ``V`` = :func:`covariance_matrix` and ``W = diag(1,..,1,2,..,2)``.
    """
    n = w.n
    weights = np.concatenate([np.ones(n), 2.0 * np.ones(n - 1)])
    return weights[:, None] * covariance_matrix(w)


def inverse_mean(p: ShapeParams, m: IncompleteSym) -> TridiagSym:
    """Explicit inverse of the mean map: the gradient of ``log delta_s^(M)``.

        psi_s^(M)(m) = sum_b e_b (block_b(m)^{-1})^0 + sum_j d_j (1/m_jj) E_jj

    with ``(e, d)`` the clique/diagonal exponents of ``delta_s^(M)``.  At
    ``s = (1, ..., 1)`` this reduces to the Lauritzen bijection.
    """
    if p.n != m.n:
        raise ValueError("size mismatch")
    assert_in_Q(m)
    cliq_e, diag_e = delta_exponents(p.s, p.M)
    n = m.n
    diag = diag_e / m.diag
    off = np.zeros(n - 1)
    for b in range(n - 1):
        binv = np.linalg.inv(m.clique_block(b + 1))
        diag[b] += cliq_e[b] * binv[0, 0]
        diag[b + 1] += cliq_e[b] * binv[1, 1]
        off[b] += cliq_e[b] * binv[0, 1]
    return TridiagSym(n, diag, off)


# ---------------------------------------------------------------------------
# variance function in mean coordinates
# ---------------------------------------------------------------------------


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


def intertwining_check(p: ShapeParams, m: IncompleteSym) -> tuple[IncompleteSym, IncompleteSym]:
    """Both sides of ``pi(psi_s(m)^{-1}) = m_{1/s}(hat(m)^{-1})``.

    The right-hand mean is evaluated as a formula; ``1/s`` need not lie in
    the integrability domain for the identity to hold.
    """
    if np.any(p.s == 0):
        raise ValueError("intertwining needs all s_i nonzero")
    lhs = inverse_image(inverse_mean(p, m))
    recip = ShapeParams(p.M, 1.0 / p.s)
    rhs = mean_formula(recip, lauritzen_map(m))
    return lhs, rhs


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------


def sample_many(w: WishartQ, rng: np.random.Generator, size: int) -> NDArray[np.float64]:
    """``size`` exact draws as rows of canonical coordinates (diag then off).

    Walks the peel plan of ``y`` innermost first: the pivot coordinate is a
    gamma draw, and each peeled vertex adds a regression coefficient that is
    Gaussian given its already drawn neighbour and an independent gamma
    pivot coordinate, exactly inverting the integration steps behind the
    Laplace transform.
    """
    n, M, s = w.n, w.params.M, w.params.s
    steps, last = _peel_plan(w.y, M)
    out = np.empty((size, 2 * n - 1))
    diag, off = out[:, :n], out[:, n:]
    diag[:, M - 1] = rng.gamma(shape=s[M - 1], scale=1.0 / last, size=size)
    for i, a, b, _ in reversed(steps):
        j = i + 1 if i < M - 1 else i - 1
        xjj = diag[:, j]
        beta = rng.normal(loc=-b, scale=np.sqrt(1.0 / (2.0 * a * xjj)))
        alpha = rng.gamma(shape=s[i] - 0.5, scale=1.0 / a, size=size)
        diag[:, i] = alpha + beta**2 * xjj
        off[:, min(i, j)] = beta * xjj
    return out


def sample(w: WishartQ, rng: np.random.Generator) -> IncompleteSym:
    """One exact draw from the family."""
    return IncompleteSym.from_coords(sample_many(w, rng, 1)[0])


# -- quadratic construction -------------------------------------------------


def sigma_to_shape(sigma: Iterable[int], M: int) -> ShapeParams:
    """Shape vector solving the multiplicity relations for pivot ``M``."""
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    n = sigma.size
    if not 1 <= M <= n:
        raise ValueError(f"pivot M={M} out of range 1..{n}")
    s = np.empty(n)
    s[M - 1] = sigma[M - 1] / 2.0
    for i in range(M - 1, 0, -1):  # s_i = s_{i+1} + sigma_i / 2
        s[i - 1] = s[i] + sigma[i - 1] / 2.0
    for i in range(M + 1, n + 1):  # s_i = s_{i-1} + sigma_i / 2
        s[i - 1] = s[i - 2] + sigma[i - 1] / 2.0
    return ShapeParams(M, s)


def shape_to_sigma(p: ShapeParams) -> NDArray[np.float64]:
    """Multiplicity vector of the shape; integral entries mean a true construction."""
    n, M, s = p.n, p.M, p.s
    sigma = np.empty(n)
    sigma[M - 1] = 2.0 * s[M - 1]
    for i in range(1, M):
        sigma[i - 1] = 2.0 * (s[i - 1] - s[i])
    for i in range(M + 1, n + 1):
        sigma[i - 1] = 2.0 * (s[i - 1] - s[i - 2])
    return sigma


def basic_index_sets(sigma: Iterable[int], M: int, n: int) -> list[tuple[int, int, int]]:
    """Interval index sets ``(lo, hi, multiplicity)`` of the construction at pivot ``M``.

    Prefixes ``{1..i}`` for ``i < M``, the full set for the pivot slot, and
    suffixes ``{i..n}`` for ``i > M``.
    """
    sigma = np.asarray(sigma)
    if sigma.size != n:
        raise ValueError("sigma must have one entry per vertex")
    if np.any(sigma < 0) or np.any(sigma != np.floor(sigma)):
        raise ValueError("sigma must be a vector of nonnegative integers")
    if not np.any(sigma > 0):
        raise ValueError("sigma must have at least one positive entry")
    sets = []
    for i in range(1, M):
        if sigma[i - 1] > 0:
            sets.append((1, i, int(sigma[i - 1])))
    if sigma[M - 1] > 0:
        sets.append((1, n, int(sigma[M - 1])))
    for i in range(M + 1, n + 1):
        if sigma[i - 1] > 0:
            sets.append((i, n, int(sigma[i - 1])))
    return sets


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


def sample_quadratic_many(
    sigma: Iterable[int],
    M: int,
    y: TridiagSym,
    rng: np.random.Generator,
    size: int,
) -> NDArray[np.float64]:
    """Draws from the quadratic construction at pivot ``M`` (coordinate rows).

    When the shape solving the multiplicity relations lies in the
    integrability domain, the law coincides with the recursive sampler's.
    """
    sigma = np.asarray(sigma)
    sets = basic_index_sets(sigma, M, y.n)
    return sample_gram_many(sets, y, rng, size)


def sample_quadratic(
    sigma: Iterable[int], M: int, y: TridiagSym, rng: np.random.Generator
) -> IncompleteSym:
    """One draw from the quadratic construction."""
    return IncompleteSym.from_coords(sample_quadratic_many(sigma, M, y, rng, 1)[0])


# ---------------------------------------------------------------------------
# higher moments
# ---------------------------------------------------------------------------


def moment(w: WishartQ, spec: MomentSpec) -> float:
    """``E[ <X, z_1> ... <X, z_N> ]`` by the permutation-cycle expansion.

    Each cycle contributes the weighted sum over the construction's interval
    blocks of the trace of the cyclic product of ``(y_I)^{-1} z_I`` factors;
    the moment is the sum of the cycle products over all permutations.
    """
    n_dirs = len(spec.z_list)
    if n_dirs > spec.cap:
        raise ValueError(f"moment order {n_dirs} above cap {spec.cap}")
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
