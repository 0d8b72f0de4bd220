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
with the reciprocal-shape mean map, higher moments, two exact samplers, and
the statistic of monotone missing data that the quadratic one describes.

The mean, covariance and variance run in O(n) per evaluation without a dense
inverse.  With ``y = T T'`` the LU(M) factor, the mean is the band of
``T^{-T} diag(s) T^{-1}``, read off the peel plan of ``y`` in one outward
sweep from the pivot (``matrix_spaces._hat_element``); the family forms that
plan once, and its peeling sampler reads it too.  The variance function
inverts the banded derivative of the inverse mean, one banded solve, and the
covariance is the variance function at the mean.  The paper's dense mean and
covariance live on in the dense test oracle under ``tests/``, its compact
and expanded variance formulas in :mod:`chainwishart.verification`.

The moment ``E[<X, z_1> ... <X, z_N>]`` is the coefficient of ``e_1 ... e_N``
in the Laplace transform at ``y - sum_j e_j z_j``, with nilpotent ``e_j``:
the same peel pivots that give ``log Delta_s`` run on 2^N-coefficient jets,
in O(n 3^N).  The paper's permutation-cycle expansion (N! cycle products of
dense inverses) is the oracle for it.

The samplers:

* a peeling sampler that walks the peel plan of ``y`` outward from the
  pivot, giving each vertex a gamma pivot and a conditionally Gaussian
  regression coefficient, exactly inverting the integration steps behind
  the Laplace transform;
* a quadratic-construction sampler that sums projected Gaussian outer
  products over prefix/suffix index sets, with multiplicities ``sigma`` tied
  to the shape by ``sigma_i/2 = s_i - s_{i+1}`` (left of the pivot),
  ``sigma_M/2 = s_M``, ``sigma_i/2 = s_i - s_{i-1}`` (right of the pivot),
  each set's Gaussians drawn off its own peel plan (the sets that end at
  ``n`` read the tails of one shared peel).

Neither loops over draws.  The peeling sampler draws every variate of a
call first, in stream order, then steps along both arms of the chain at
once, each step on all ``size`` draws; the quadratic one works a set at a
time.  A draw costs O(n) on the peeling sampler and
O(sum over the sets of ``|I| * multiplicity``) on the quadratic one.

The tilt ``exp(-<y, pi(v v')>) = exp(-v' y_I v)`` makes each Gaussian factor
``N(0, (2 y_I)^{-1})``; the factor 2 comes from the quadratic form having no
1/2 and is the convention every moment identity here is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from ._formats import MissingDataset
from .matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    _clique_assembly,
    _covariance_coords,
    _from_unit,
    _hat_element,
    _peel_core,
    _peel_order,
    _peel_unit,
    _pivot,
    _q_gaps,
    _same_size,
    inverse_image,
    lauritzen_map,
    pairing,
    zg_basis,
)
from .power_functions import (
    ShapeParams,
    _jet_moment,
    _log_atoms,
    _log_Delta,
    _log_Delta_jet,
    _log_gamma_normalizer,
    _log_power,
    delta_exponents,
    phi_exponents,
)

__all__ = [
    "Point",
    "Parameter",
    "WishartQ",
    "log_norm_constant",
    "log_density",
    "log_laplace",
    "mean",
    "mean_formula",
    "pairing_with_parameter",
    "covariance_apply",
    "covariance_matrix",
    "operator_matrix",
    "inverse_mean",
    "variance_apply_nice",
    "variance_apply_expanded",
    "intertwining_check",
    "sample_many",
    "sigma_to_shape",
    "shape_to_sigma",
    "basic_index_sets",
    "sample_gram_many",
    "sample_quadratic_many",
    "moment",
]

#: The sample space ``Q`` and the natural parameter space ``P``, as ``wishart_p`` names its own.
Point, Parameter = IncompleteSym, TridiagSym


@dataclass(frozen=True)
class WishartQ:
    """Wishart family member on ``Q``: shape ``(M, s)`` and natural parameter ``y``.

    Construction forms the normalizer by :func:`log_norm_constant`, the
    family's one test of the shape's domain, and ``_plan``, the tested
    unit-scale peel of ``y`` toward ``M`` (``matrix_spaces._peel_unit``):
    the family's one decision of ``y``'s cone, which within ``PD_RTOL`` of
    the boundary follows the peel toward the pivot, as ``log_Delta_M``,
    :func:`mean_formula` and the LU(M) factor do.  The mean and covariance
    read the plan; the other constants that depend only on the family
    (``log Delta_s(y)`` and the sampler's walk off the plan, the exponent
    vectors) are computed once each, on first use, and kept: a family peels
    ``y`` once in its lifetime.  To keep them true, construction marks
    ``y.diag`` and ``y.off`` read-only, and the element's fields cannot be
    rebound: an in-place edit of ``y`` raises ``ValueError``.
    """

    params: ShapeParams
    y: TridiagSym

    def __post_init__(self) -> None:
        _same_size(self.params.n, self.y.n)
        object.__setattr__(self, "_log_norm", log_norm_constant(self.params))
        object.__setattr__(self, "_plan", _peel_unit(self.y.diag, self.y.off, self.params.M))
        self.y.diag.flags.writeable = self.y.off.flags.writeable = False

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def _walk(self) -> tuple[float, list, NDArray, NDArray, list, NDArray]:
        """The peeling sampler's constants, read off ``_plan`` (see :func:`sample_many`).

        The sampler keeps its rows in walk order: the pivot, then a pair per
        step (the shorter arm's vertex, then the longer arm's), then the
        rest of the longer arm.  The normal of walk row ``k`` sits in row
        ``n + k - 1``, and its ``2a`` and ``b`` in rows ``k - 1`` and
        ``n + k - 2`` of the scratch.  So every step reads and writes whole
        contiguous blocks, and a vertex's parent is two rows back in the
        pairs and one row back after them.  Returns ``(pivot shape, draws,
        scales, constants, steps, coords)``: the pivot's gamma shape; per
        peeled vertex in stream order its row, its normal's row and its
        gamma shape; the gamma scales ``1/a`` in walk order; ``2a`` then
        ``b`` of the peeled vertices in walk order; per step the slices of
        its rows, normals, parents and constants; and the output coordinate
        of every row.
        """
        n, M, s = self.n, self.params.M, self.params.s.tolist()
        a, b, e = self._plan
        a, b = _from_unit(a.copy(), e, "the peel pivots", 1, "y").tolist(), b.tolist()
        short, long = sorted((list(range(M - 2, -1, -1)), list(range(M, n))), key=len)  # the arms, outward
        m = len(short)
        walk = [M - 1] + [v for pair in zip(short, long) for v in pair] + long[m:]
        row = {v: k for k, v in enumerate(walk)}
        draws = [(row[i], n + row[i] - 1, s[i] - 0.5) for i, _ in reversed(_peel_order(n, M))]
        # (first walk row, width, parents): a pair's parents are the pair before it, or the pivot
        spans = [(k, 2, slice(k - 2, k) if k > 1 else slice(0, 1)) for k in range(1, 2 * m, 2)]
        spans += [(k, 1, slice(k - 1, k)) for k in range(2 * m + 1, n)]
        steps = [(slice(k, k + w), slice(n + k - 1, n + k - 1 + w), parents,
                  slice(k - 1, k - 1 + w), slice(n + k - 2, n + k - 2 + w)) for k, w, parents in spans]
        peeled = walk[1:]
        scales = np.array([1.0 / a[v] for v in walk])[:, None]
        constants = np.array([2.0 * a[v] for v in peeled] + [b[v] for v in peeled])[:, None]
        coords = walk + [n + min(v, v + 1 if v < M - 1 else v - 1) for v in peeled]
        return s[M - 1], draws, scales, constants, steps, np.array(coords)

    @cached_property
    def _log_Delta_y(self) -> float:
        """``log Delta_s^(M)(y) = sum_i s_i log a_i`` over the pivots of ``_plan``, scaled back."""
        a, _, e = self._plan
        return float(self.params.s @ np.log(_from_unit(a.copy(), e, "the peel pivots", 1, "y")))

    @cached_property
    def _delta_exps(self) -> tuple[NDArray, NDArray]:
        return delta_exponents(self.params.s, self.params.M)

    @cached_property
    def _phi_exps(self) -> tuple[NDArray, NDArray]:
        return phi_exponents(self.n)


def log_norm_constant(p: ShapeParams) -> float:
    """Log of ``C_s``; raises outside the integrability domain, the one test of it that a family makes."""
    if not p.in_q_domain():
        raise ValueError("shape out of domain: need s_i > 1/2 off the pivot and s_M > 0")
    args = p.s - 0.5
    args[p.M - 1] = p.s[p.M - 1]
    return _log_gamma_normalizer(args, p.M)


def log_density(w: WishartQ, point: IncompleteSym) -> float:
    """Log density at ``point``; ``-inf`` outside the cone.

    ``delta_s^(M)`` and ``phi`` are read off one set of atoms of ``point``,
    whose sweep is its cone test.
    """
    _same_size(point.n, w.n)
    try:
        atoms = _log_atoms(point)
    except ConeError:
        return float("-inf")
    return (
        w._log_norm
        - pairing(w.y, point)
        + w._log_Delta_y
        + _log_power(w._delta_exps, atoms)
        + _log_power(w._phi_exps, atoms)
    )


def log_laplace(w: WishartQ, theta: TridiagSym) -> float:
    """``log E exp(-<theta, X>) = log Delta_{-s}(theta + y) - log Delta_{-s}(y)``.

    The last term is ``+ log Delta_s(y)``; a cone error names ``theta + y``
    by the paper's letter, ``z + y``.
    """
    _same_size(theta.n, w.n)
    return _log_Delta(-w.params.s, w.params.M, theta + w.y, "z + y") + w._log_Delta_y


# ---------------------------------------------------------------------------
# mean, covariance, higher moments
# ---------------------------------------------------------------------------


def mean_formula(p: ShapeParams, parameter: TridiagSym) -> IncompleteSym:
    """The mean-map expression, evaluated for any real shape vector.

    With ``y = T T'`` the LU(M) factor, the mean is the band of
    ``T^{-T} diag(s) T^{-1}``, read off the peel plan of ``y`` in one O(n)
    outward sweep (no dense inverse).  It has degree -1 in ``y``, the
    ``parameter``; a mean past the largest double is a ``ValueError``.
    """
    _same_size(p.n, parameter.n)
    return _hat_element(p.s, p.M, _peel_unit(parameter.diag, parameter.off, p.M), "the mean")


def mean(w: WishartQ) -> IncompleteSym:
    """Mean of the family; lies in ``Q``.  At ``s = 1`` this is ``pi(y^{-1})``.  Read off the family's plan."""
    return _hat_element(w.params.s, w.params.M, w._plan, "the mean")


def pairing_with_parameter(w: WishartQ) -> float:
    """``<m(y), y>``; independent of ``y`` and equal to the homogeneity degree."""
    return pairing(w.y, mean(w))


def covariance_apply(w: WishartQ, u: TridiagSym) -> IncompleteSym:
    """Covariance operator applied to ``u``: the variance function at the mean, ``V(mean(w)) u``.

    ``V(m) u = -D^{-1} u`` with ``D`` the clique form of :func:`inverse_mean` at ``m``.
    """
    _same_size(u.n, w.n)
    return IncompleteSym.from_coords(_covariance_coords(mean(w), w._delta_exps, u.coords(), True, "y"))


def operator_matrix(fn: Callable[[TridiagSym], IncompleteSym], n: int) -> NDArray[np.float64]:
    """Materialize a linear map on the (2n-1)-dim coordinate space column by column."""
    cols = [fn(zg_basis(n, k)).coords() for k in range(2 * n - 1)]
    return np.column_stack(cols)


def covariance_matrix(w: WishartQ) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis: ``V(mean(w))`` solved in place on the identity."""
    return _covariance_coords(mean(w), w._delta_exps, np.eye(2 * w.n - 1), True, "y")


def inverse_mean(p: ShapeParams, m: IncompleteSym) -> TridiagSym:
    """Explicit inverse of the mean map: the gradient of ``log delta_s^(M)``.

        psi_s^(M)(m) = sum_b e_b (block_b(m)^{-1})^0 + sum_j d_j (1/m_jj) E_jj

    with ``(e, d)`` the clique/diagonal exponents of ``delta_s^(M)``.  At
    ``s = (1, ..., 1)`` this reduces to the Lauritzen bijection.
    """
    _same_size(p.n, m.n)
    return _clique_assembly(m, *delta_exponents(p.s, p.M), "the inverse mean")


# ---------------------------------------------------------------------------
# variance function in mean coordinates
# ---------------------------------------------------------------------------


def variance_apply_nice(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Variance function ``V(m)u``: the covariance at the natural parameter with mean ``m``.

    Evaluated straight from ``m`` in ``Q`` by one banded solve, O(n).  It
    equals the paper's compact formula

        V(m)u = (1/s_1 + 1/s_n - 1/s_M) P(hat)u
                + sum_{i<M} (1/s_{i+1} - 1/s_i) P(hat - M_{1:i})u
                + sum_{i>M} (1/s_{i-1} - 1/s_i) P(hat - M_{i:n})u

    with ``P(A)u = pi(A u A)`` and ``M_I`` the padded interval inverses of
    the Lauritzen image of ``m``, and its expanded three-sum form; both stay
    as dense oracles, ``verification._variance_apply_nice`` and
    ``verification._variance_apply_expanded``.
    """
    _same_size(p.n, m.n, u.n)
    exps = delta_exponents(p.s, p.M)
    return IncompleteSym.from_coords(_covariance_coords(m, exps, u.coords(), True, "y", _q_gaps(m)))


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

    Walks the peel plan of ``y`` outward from the pivot: the pivot
    coordinate is a gamma draw, and each peeled vertex adds a regression
    coefficient that is Gaussian given its already drawn neighbour and an
    independent gamma pivot coordinate, exactly inverting the integration
    steps behind the Laplace transform.

    The variates never depend on earlier draws, so all of them are drawn
    first, in stream order (the pivot's gamma, then per vertex of the right
    arm and then of the left arm, outward, ``size`` normals and ``size``
    gammas), into the rows of one vertex-major array laid out in walk order
    (``WishartQ._walk``); ``gamma(k, 1/a)`` is ``(1/a) * standard_gamma(k)``
    bit for bit, so the scales take one pass.  The recurrence
    ``x_i = alpha_i + beta_i^2 x_j`` then advances both arms at once, one
    step on two contiguous rows per vertex of the shorter arm, then the
    rest of the longer arm a row at a time.  The Gaussian is
    ``standard_normal * scale - b``, which rounds exactly as
    ``rng.normal(-b, scale)``.  The rows are scattered into the C-ordered
    output once, whose buffer holds the step temporaries until then, so the
    peak stays near twice the output.  O(n) per draw;
    ``tests/test_peel_plan.py`` pins seeded draws by digest.
    """
    n = w.n
    pivot_shape, draws, scales, constants, steps, coords = w._walk
    rows = np.empty((2 * n - 1, size))
    rng.standard_gamma(pivot_shape, out=rows[0])
    for k, r, shape in draws:
        rng.standard_normal(out=rows[r])
        rng.standard_gamma(shape, out=rows[k])
    rows[:n] *= scales
    out = np.empty((size, 2 * n - 1))
    scratch = out.reshape(2 * n - 1, size)[: 2 * n - 2]
    np.copyto(scratch, constants)  # whole rows, so that no step broadcasts
    for xs, bs, js, ts, us in steps:
        xi, bi, xj, t, u = rows[xs], rows[bs], rows[js], scratch[ts], scratch[us]
        t *= xj  # 2a x_j
        np.divide(1.0, t, out=t)
        np.sqrt(t, out=t)
        bi *= t
        bi -= u  # beta = z sqrt(1 / (2a x_j)) - b
        np.multiply(bi, bi, out=u)
        u *= xj
        xi += u  # x_i = alpha_i + beta^2 x_j
        bi *= xj  # off = beta x_j
    out.T[coords] = rows
    return out


# -- quadratic construction -------------------------------------------------


def sigma_to_shape(sigma: Iterable[int], M: int) -> ShapeParams:
    """Shape vector solving the multiplicity relations for pivot ``M``."""
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    n = sigma.size
    M = _pivot(M, n)
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
    sigma = np.asarray(sigma).reshape(-1).tolist()
    if len(sigma) != n:
        raise ValueError("sigma must have one entry per vertex")
    if not all(v >= 0 and v % 1 == 0 for v in sigma):
        raise ValueError("sigma must be a vector of nonnegative integers")
    if not any(v > 0 for v in sigma):
        raise ValueError("sigma must have at least one positive entry")
    M = _pivot(M, n)
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


class PivotError(ValueError):
    """A monotone missing-data pattern that no pivot ``M`` separates."""


def missing_statistic(ds: MissingDataset) -> tuple[IncompleteSym, NDArray, int]:
    """Band-projected Gram statistic, multiplicity vector and inferred pivot.

    ``T = sum_rows pi(v v')`` with ``v`` the zero-padded observation.  The
    pivot must separate prefixes from suffixes strictly: every prefix length
    below it, every suffix start above it; full rows count in the pivot slot.
    When a range of pivots is consistent the smallest is chosen (the law of
    ``T`` does not depend on the choice); when none is, :class:`PivotError`.
    A square or product of the data past the double range is a ``ValueError``.

    Under per-row Gaussians with covariance ``(2 y_I)^{-1}`` on the observed
    interval ``I`` (the tilted-construction convention; see README), ``T`` is
    an exact draw from the quadratic construction at ``(sigma, M, y)``: the
    inverse of :func:`basic_index_sets`.
    """
    n = ds.n
    prefix_lens, suffix_starts, n_full = [], [], 0
    for r in ds.rows:
        if r.lo == 1 and r.hi == n:
            n_full += 1
        elif r.lo == 1:
            prefix_lens.append(r.hi)
        else:
            suffix_starts.append(r.lo)
    lo_m = max(prefix_lens) + 1 if prefix_lens else 1
    hi_m = min(suffix_starts) - 1 if suffix_starts else n
    if lo_m > hi_m:
        raise PivotError(f"no consistent pivot: prefixes force M >= {lo_m} but suffixes force M <= {hi_m}")
    m = lo_m if prefix_lens else hi_m  # hi_m is n when there are no suffixes either
    sigma = np.zeros(n, dtype=int)
    sigma[m - 1] = n_full
    for i in prefix_lens + suffix_starts:
        sigma[i - 1] += 1
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    try:
        with np.errstate(over="raise"):
            for r in ds.rows:
                v = np.asarray(r.values)
                diag[r.lo - 1 : r.hi] += v**2
                if v.size >= 2:
                    off[r.lo - 1 : r.hi - 1] += v[:-1] * v[1:]
    except FloatingPointError:
        raise ValueError(
            "the statistic T is not a finite double: a square or product of the data overflows") from None
    return IncompleteSym(n, diag, off), sigma, m


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
    closed-form density here (sampler-only mode).  Bounds are 1-based and
    inclusive; bounds and multiplicities must be integers, multiplicities
    nonnegative.

    The peel plan of ``y_I`` toward its first vertex gives ``y_I = U U'``,
    ``U`` upper bidiagonal with ``U_ii = sqrt(a_i)``, ``U_{i-1,i} = sqrt(a_i) b_i``;
    ``v_I = U^{-T} g / sqrt(2)`` by forward substitution, where ``U^{-T} / sqrt(2)``
    is the Cholesky factor of ``(2 y_I)^{-1}``.  The tested peel of the whole
    chain toward vertex 1, before any draw, is the call's one decision of
    ``y``'s cone (within ``PD_RTOL`` of the boundary it follows that peel).
    Vertex ``i``'s pivot depends only on ``i..n``, so the sets that end at
    ``n`` read its tails, bit for bit as their own peels (the power-of-two
    scaling of :func:`matrix_spaces._peel_core` is exact); every other set
    peels its own interval, whose pivots are at least the whole chain's, so
    that peel passes too.  Each set costs one normal draw of
    ``size * multiplicity * |I|`` values, in the order of ``index_sets``,
    and one in-place update per vertex of ``I``, on all draws and terms at once.
    """
    n = y.n
    ints = (int, np.integer)
    for lo, hi, mult in index_sets:
        if not (isinstance(lo, ints) and isinstance(hi, ints) and 1 <= lo <= hi <= n):
            raise ValueError(f"invalid interval ({lo}, {hi})")
        if not (isinstance(mult, ints) and mult >= 0):
            raise ValueError(f"multiplicity {mult!r} of interval ({lo}, {hi}) is not a nonnegative integer")
    a, tail_b = _peel_core(y.diag, y.off, 1)
    tail_root = np.sqrt(2.0 * a)
    out = np.zeros((size, 2 * n - 1))
    diag, off = out[:, :n], out[:, n:]
    for lo, hi, mult in index_sets:
        k = hi - lo + 1
        if hi == n:
            root, b = tail_root[lo - 1 :], tail_b[lo - 1 :]
        else:
            a, b = _peel_core(y.diag[lo - 1 : hi], y.off[lo - 1 : hi - 1], 1, name=f"y_{{{lo}..{hi}}}")
            root = np.sqrt(2.0 * a)
        v = rng.standard_normal((size, mult, k)) / root
        vt, b = v.reshape(-1, k).T, b.tolist()  # vt[i]: vertex i of every draw and term
        for i in range(1, k):
            vt[i] -= b[i] * vt[i - 1]
        # summed over the terms on the (size, mult, k) layout: numpy's order
        # of addition depends on the layout, and the seeded draws on the order
        diag[:, lo - 1 : hi] += (v**2).sum(axis=1)
        if k >= 2:
            off[:, lo - 1 : hi - 1] += (v[:, :, :-1] * v[:, :, 1:]).sum(axis=1)
    return out


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
    return sample_gram_many(basic_index_sets(sigma, M, y.n), y, rng, size)


# ---------------------------------------------------------------------------
# higher moments
# ---------------------------------------------------------------------------


def moment(w: WishartQ, directions: Sequence[TridiagSym]) -> float:
    """``E[ <X, z_1> ... <X, z_N> ]`` as a Taylor coefficient of the Laplace transform.

    The moment is the coefficient of ``e_1 ... e_N`` in
    ``Delta_{-s}(y - sum_j e_j z_j) / Delta_{-s}(y)`` with nilpotent
    ``e_j``; ``log Delta_{-s}`` is ``-sum_i s_i log a_i`` over the peel
    pivots, which run on 2^N-coefficient jets in O(n 3^N).  The directions
    are checked by ``power_functions._jet_moment``, as on ``P``.
    """
    return _jet_moment(w.y, directions, lambda d, o: -_log_Delta_jet(w.params, d, o), "y")


# The old moment argument, still built by the benchmark harness under
# perfbench/ as ``MomentSpec([z, ...])``: a tuple of the directions.  It goes
# when the harness moves to plain directions.  Left out of ``__all__``.
MomentSpec = tuple
