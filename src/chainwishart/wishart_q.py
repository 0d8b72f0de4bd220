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
operator, the variance function, the intertwining of the inverse mean map
with the reciprocal-shape mean map, higher moments, and two exact samplers.

The mean, covariance and variance run in O(n) per evaluation without a dense
inverse.  With ``y = T T'`` the LU(M) factor, the mean is the band of
``T^{-T} diag(s) T^{-1}``, read off the peel plan of ``y`` in one outward
sweep from the pivot (``lum_triangular._hat_band``).  The covariance is minus
the derivative of that sweep, taken by complex step, and the variance
function is the covariance at the inverse mean.  The paper's dense formulas
(padded inverses of nested submatrices, and the compact and expanded
variance formulas) live on as the test oracle ``chainwishart._dense_oracle``.

The moment ``E[<X, z_1> ... <X, z_N>]`` is the coefficient of ``e_1 ... e_N``
in the Laplace transform at ``y - sum_j e_j z_j``, with nilpotent ``e_j``:
the same peel pivots that give ``log Delta_s`` run on 2^N-coefficient jets,
in O(n 3^N).  The paper's permutation-cycle expansion (N! cycle products of
dense inverses) is the oracle for it.

The samplers:

* a peeling sampler that walks the peel plan of ``y`` one vertex at a time,
  drawing a gamma pivot and a conditionally Gaussian regression coefficient,
  exactly inverting the integration steps behind the Laplace transform;
* a quadratic-construction sampler that sums projected Gaussian outer
  products over prefix/suffix index sets, with multiplicities ``sigma`` tied
  to the shape by ``sigma_i/2 = s_i - s_{i+1}`` (left of the pivot),
  ``sigma_M/2 = s_M``, ``sigma_i/2 = s_i - s_{i-1}`` (right of the pivot),
  each set's Gaussians drawn off its own peel plan.

The tilt ``exp(-<y, pi(v v')>) = exp(-v' y_I v)`` makes each Gaussian factor
``N(0, (2 y_I)^{-1})``; the factor 2 comes from the quadratic form having no
1/2 and is the convention every moment identity here is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .lum_triangular import _hat_band
from .matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _clique_assembly,
    _peel_core,
    _peel_order,
    assert_in_P,
    assert_in_Q,
    inverse_image,
    is_in_Q,
    lauritzen_map,
    pairing,
    zg_basis,
)
from .peeling import _peel_plan
from .power_functions import (
    ShapeParams,
    _jet_moment,
    _log_Delta_jet,
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
    """Test directions for a higher moment; the cap bounds the order N (O(3^N) jet products)."""

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
    from scipy.special import gammaln  # deferred: keeps scipy off the CLI import path

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
    neg = ShapeParams(w.params.M, -w.params.s)
    return log_Delta_M(neg, z + w.y, "z + y") - log_Delta_M(neg, w.y)


# ---------------------------------------------------------------------------
# mean, covariance, higher moments
# ---------------------------------------------------------------------------


def mean_formula(p: ShapeParams, y: TridiagSym) -> IncompleteSym:
    """The mean-map expression, evaluated for any real shape vector.

    With ``y = T T'`` the LU(M) factor, the mean is the band of
    ``T^{-T} diag(s) T^{-1}``, read off the peel plan of ``y`` in one O(n)
    outward sweep (no dense inverse).
    """
    a, b = _peel_plan(y, p.M)
    return IncompleteSym(p.n, *_hat_band(p.s, p.M, a, b))


def mean(w: WishartQ) -> IncompleteSym:
    """Mean of the family; lies in ``Q``.  At ``s = 1`` this is ``pi(y^{-1})``."""
    return mean_formula(w.params, w.y)


def pairing_with_parameter(w: WishartQ) -> float:
    """``<m(y), y>``; independent of ``y`` and equal to the homogeneity degree."""
    return pairing(w.y, mean(w))


#: Complex step, relative to ``y`` scaled to unit size: far below the square
#: root of the rounding unit, far above underflow.
_STEP = 1e-20


def _covariance_coords(
    p: ShapeParams, y: TridiagSym, u_diag: NDArray, u_off: NDArray
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``-d/dt mean_formula(p, y + t u)`` at ``t = 0`` by complex step, O(n) per direction.

    The mean sweep is rational in ``y``, so ``Im mean(y + i h u) / h`` is its
    derivative up to ``O(h^2)``, with no cancellation.  ``y`` is first scaled
    by a power of two to unit size (exact; the covariance is homogeneous of
    degree -2).  ``u`` arrays may carry a trailing batch axis of directions.
    """
    assert_in_P(y)
    unit = np.ldexp(1.0, -int(np.frexp(np.max(np.abs(y.coords())))[1]))
    u_max = max(np.max(np.abs(u_diag)), np.max(np.abs(u_off), initial=0.0))
    if u_max == 0.0:
        return np.zeros(u_diag.shape), np.zeros(u_off.shape)
    h = _STEP / u_max
    pad = (slice(None),) + (None,) * (u_diag.ndim - 1)
    a, b = _peel_core(unit * y.diag[pad] + 1j * h * u_diag, unit * y.off[pad] + 1j * h * u_off, p.M)
    hd, ho = _hat_band(p.s, p.M, a, b)
    return -hd.imag / h * unit * unit, -ho.imag / h * unit * unit


def covariance_apply(w: WishartQ, u: TridiagSym) -> IncompleteSym:
    """Covariance operator applied to ``u``: minus the derivative of the mean along ``u``."""
    if u.n != w.n:
        raise ValueError("size mismatch")
    return IncompleteSym(w.n, *_covariance_coords(w.params, w.y, u.diag, u.off))


def operator_matrix(fn: Callable[[TridiagSym], IncompleteSym], n: int) -> NDArray[np.float64]:
    """Materialize a linear map on the (2n-1)-dim coordinate space column by column."""
    cols = [fn(zg_basis(n, k)).coords() for k in range(2 * n - 1)]
    return np.column_stack(cols)


#: Basis directions per batched sweep in :func:`covariance_matrix`.
COV_BLOCK = 128


def covariance_matrix(w: WishartQ) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis (columns are images of e_k).

    The ``2n - 1`` basis directions run as batched sweeps of ``COV_BLOCK``
    columns, O(n^2) in all.  Each block's columns are written into the
    result, so memory stays at the output plus one block's sweep.
    """
    n, k = w.n, 2 * w.n - 1
    out = np.empty((k, k))
    for lo in range(0, k, COV_BLOCK):
        hi = min(lo + COV_BLOCK, k)
        e = np.eye(k, hi - lo, -lo)  # columns lo..hi-1 of the identity
        out[:n, lo:hi], out[n:, lo:hi] = _covariance_coords(w.params, w.y, e[:n], e[n:])
    return out


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
    return _clique_assembly(m, cliq_e, diag_e)


# ---------------------------------------------------------------------------
# variance function in mean coordinates
# ---------------------------------------------------------------------------


def variance_apply_nice(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Variance function ``V(m)u``: the covariance at the natural parameter with mean ``m``.

    Evaluated as the banded covariance at ``y = inverse_mean(p, m)``, in O(n).
    It equals the paper's compact formula

        V(m)u = (1/s_1 + 1/s_n - 1/s_M) P(hat)u
                + sum_{i<M} (1/s_{i+1} - 1/s_i) P(hat - M_{1:i})u
                + sum_{i>M} (1/s_{i-1} - 1/s_i) P(hat - M_{i:n})u

    with ``P(A)u = pi(A u A)`` and ``M_I`` the padded interval inverses of
    the Lauritzen image of ``m``, and its expanded three-sum form; both stay
    as dense oracles in ``chainwishart._dense_oracle``.
    """
    if not (p.n == m.n == u.n):
        raise ValueError("size mismatch")
    return IncompleteSym(p.n, *_covariance_coords(p, inverse_mean(p, m), u.diag, u.off))


#: The expanded three-sum formula is algebraically the compact one.
variance_apply_expanded = variance_apply_nice


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
    a, b = _peel_plan(w.y, M)
    out = np.empty((size, 2 * n - 1))
    diag, off = out[:, :n], out[:, n:]
    diag[:, M - 1] = rng.gamma(shape=s[M - 1], scale=1.0 / a[M - 1], size=size)
    for i, j in reversed(_peel_order(n, M)):
        xjj = diag[:, j]
        beta = rng.normal(loc=-b[i], scale=np.sqrt(1.0 / (2.0 * a[i] * xjj)))
        alpha = rng.gamma(shape=s[i] - 0.5, scale=1.0 / a[i], size=size)
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

    The peel plan of ``y_I`` toward its first vertex gives ``y_I = U U'``,
    ``U`` upper bidiagonal with ``U_ii = sqrt(a_i)``, ``U_{i-1,i} = sqrt(a_i) b_i``;
    ``v_I = U^{-T} g / sqrt(2)`` by forward substitution, where ``U^{-T} / sqrt(2)``
    is the Cholesky factor of ``(2 y_I)^{-1}``.
    """
    assert_in_P(y)
    n = y.n
    diag = np.zeros((size, n))
    off = np.zeros((size, n - 1))
    for lo, hi, mult in index_sets:
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"invalid interval ({lo}, {hi})")
        k = hi - lo + 1
        a, b = _peel_core(y.diag[lo - 1 : hi], y.off[lo - 1 : hi - 1], 1, name=f"y_{{{lo}..{hi}}}")
        v = rng.standard_normal((size, mult, k)) / np.sqrt(2.0 * a)
        for i in range(1, k):
            v[..., i] -= b[i] * v[..., i - 1]
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
    """``E[ <X, z_1> ... <X, z_N> ]`` as a Taylor coefficient of the Laplace transform.

    The moment is the coefficient of ``e_1 ... e_N`` in
    ``Delta_{-s}(y - sum_j e_j z_j) / Delta_{-s}(y)`` with nilpotent
    ``e_j``; ``log Delta_{-s}`` is ``-sum_i s_i log a_i`` over the peel
    pivots, which run on 2^N-coefficient jets in O(n 3^N).
    """
    n_dirs = len(spec.z_list)
    if n_dirs > spec.cap:
        raise ValueError(f"moment order {n_dirs} above cap {spec.cap}")
    if spec.z_list[0].n != w.n:
        raise ValueError("size mismatch")
    return _jet_moment(w.y, spec.z_list, lambda d, o: -_log_Delta_jet(w.params, d, o))
