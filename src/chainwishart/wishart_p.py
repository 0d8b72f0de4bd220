"""The Wishart natural exponential family on the concentration cone ``P``.

The generating measure with shape ``(M, s)`` has density proportional to
``Delta_s^(M)(y)`` on ``P``, normalizing constant

    C_s^{-1} = pi^{(n-1)/2} * prod_{i != M} Gamma(s_i + 3/2) * Gamma(s_M + 1),

finite exactly when ``s_i > -3/2`` off the pivot and ``s_M > -1``, and
Laplace transform ``delta_{-s}^(M)(x) * phi(x)`` at ``x`` in the dual cone
(the characteristic function of the dual cone differs from ``phi`` by the
constant ``(pi^2/4)^{(n-1)/2}``, which cancels in every family ratio).

All closed-form objects on this side flow from the exponent bookkeeping of
``log(delta_{-s} * phi)`` over the atomic quantities ``|x_{i,i+1}|`` and
``x_jj``: the mean, the covariance operator, the quadratic-construction
parameters ``(alpha, beta)``, and the higher moments (Taylor coefficients
of that log-Laplace exponent in nilpotent directions) all read off the same
two exponent vectors, so chain-endpoint pivots (where the separator product
has one extra factor) are handled uniformly.

The covariance is the banded clique form of the mean map, applied in O(n);
the inverse mean is found by Newton steps, each one solve of that form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    _clique_assembly,
    _covariance_coords,
    _covariance_matrix,
    _from_unit,
    _peel_core,
    _peel_order,
    _pivot,
    _q_gaps,
    _same_size,
    _to_unit,
    assert_in_P,
    pairing,
)
from .power_functions import (
    ShapeParams,
    _jet_log,
    _jet_moment,
    _jet_mul,
    _log_atoms,
    _log_gamma_normalizer,
    _log_power,
    delta_exponents,
    log_Delta_M,
    log_phi,
    phi_exponents,
)

__all__ = [
    "WishartP",
    "riesz_p_exponents",
    "log_norm_constant_p",
    "log_density_p",
    "log_laplace_p",
    "mean_p",
    "mean_p_formula",
    "covariance_p_apply",
    "covariance_p_matrix",
    "sample_p",
    "sample_p_many",
    "quadratic_params_p",
    "quadratic_params_p_inverse",
    "integer_feasibility_p",
    "moment_p",
    "canonical_measure_check",
    "newton_inverse_mean_p",
]


@dataclass(frozen=True)
class WishartP:
    """Family member on ``P``: shape ``(M, s)`` and natural parameter ``x`` in ``Q``.

    Construction forms the normalizer by :func:`log_norm_constant_p`, the
    family's one test of the shape's domain, and tests ``x``'s membership of
    ``Q`` once; nothing tests them again.  The clique gaps of that cone test
    are kept for every later reading of ``x`` but the sampler's walk, which
    reads ``x`` once more through its dual peel.  The other constants that
    depend only on the family (``log(delta_{-s} phi)(x)``, the exponent
    vectors, the walk) are computed once each, on first use, and kept.  So
    that they stay true, construction marks ``x.diag`` and ``x.off``
    read-only, and the element's fields cannot be rebound: an in-place edit
    of ``x`` raises ``ValueError``.
    """

    params: ShapeParams
    x: IncompleteSym

    def __post_init__(self) -> None:
        _same_size(self.params.n, self.x.n)
        object.__setattr__(self, "_log_norm", log_norm_constant_p(self.params))
        object.__setattr__(self, "_x_gaps", _q_gaps(self.x))
        self.x.diag.flags.writeable = self.x.off.flags.writeable = False

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def _delta_exps(self) -> tuple[NDArray, NDArray]:
        return delta_exponents(-self.params.s, self.params.M)

    @cached_property
    def _phi_exps(self) -> tuple[NDArray, NDArray]:
        return phi_exponents(self.n)

    @cached_property
    def _riesz_exps(self) -> tuple[NDArray, NDArray]:
        return riesz_p_exponents(self.params.s, self.params.M)

    @cached_property
    def _walk(self) -> tuple[float, list, NDArray, NDArray, NDArray]:
        """The peeling sampler's constants, off the dual peel of ``x`` toward ``M`` (see :func:`sample_p_many`).

        ``(pivot shape, draws, scales, neighbours, b)``: the pivot's gamma
        shape; per peeled vertex in stream order its row, its normal's row
        and its gamma shape; the gamma scales of every vertex; and per peeled
        vertex in off-coordinate order the diagonal of ``x`` at its neighbour
        toward the pivot and its regression ``b``.
        """
        n, M, s = self.n, self.params.M, self.params.s.tolist()
        alpha, beta = _peel_core(self.x.diag, self.x.off, M, dual=True)
        draws = [(i, n + min(i, j), s[i] + 1.5) for i, j in reversed(_peel_order(n, M))]
        peeled, toward = np.r_[: M - 1, M:n], np.r_[1:M, M - 1 : n - 1]
        xd = self.x.diag[toward, None]
        scales = np.array([1.0 / v for v in alpha.tolist()])[:, None]
        return s[M - 1] + 1.0, draws, scales, xd, beta[peeled, None]

    @cached_property
    def _log_laplace_x(self) -> float:
        atoms = _log_atoms(self.x, g=self._x_gaps)
        return _log_laplace_exponent(self._delta_exps, self._phi_exps, atoms)


def riesz_p_exponents(s: Iterable[float], M: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exponent vectors of ``delta_{-s}^(M) * phi`` over clique and diagonal atoms.

    This is the log-Laplace transform of the generating measure up to an
    additive constant; its negated gradient coefficients are the mean, and
    ``-2`` times it gives the quadratic-construction parameters.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    cliq_d, diag_d = delta_exponents(-s, M)
    cliq_p, diag_p = phi_exponents(s.size)
    return cliq_d + cliq_p, diag_d + diag_p


def log_norm_constant_p(p: ShapeParams) -> float:
    """Log of the Riesz normalizer; raises outside the integrability domain, the one test of it that a family makes."""
    if not p.in_p_domain():
        raise ValueError("shape out of domain: need s_i > -3/2 off the pivot and s_M > -1")
    args = p.s + 1.5
    args[p.M - 1] = p.s[p.M - 1] + 1.0
    return _log_gamma_normalizer(args, p.M)


def _log_laplace_exponent(
    delta_e: tuple[NDArray, NDArray], phi_e: tuple[NDArray, NDArray], atoms: tuple[NDArray, NDArray]
) -> float:
    """``log delta_{-s}^(M) + log phi`` off one set of atoms, each factor its own dot product."""
    return _log_power(delta_e, atoms) + _log_power(phi_e, atoms)


def log_density_p(w: WishartP, y: TridiagSym) -> float:
    """Log density at ``y``; ``-inf`` outside the cone."""
    _same_size(y.n, w.n)
    try:
        log_power = log_Delta_M(w.params, y)  # its pivot sweep is the cone test
    except ConeError:
        return float("-inf")
    return w._log_norm + log_power - pairing(y, w.x) - w._log_laplace_x


def log_laplace_p(w: WishartP, theta: IncompleteSym) -> float:
    """``log E exp(-<theta, Y>)`` as a ratio of dual power functions."""
    _same_size(theta.n, w.n)
    shifted = _log_atoms(theta + w.x, "theta + x")
    return _log_laplace_exponent(w._delta_exps, w._phi_exps, shifted) - w._log_laplace_x


# ---------------------------------------------------------------------------
# mean and covariance
# ---------------------------------------------------------------------------


def mean_p_formula(p: ShapeParams, x: IncompleteSym) -> TridiagSym:
    """Mean-map expression on ``P``; the negated gradient of the log-Laplace.

    Clique blocks enter with weights ``s + 3/2`` and separator entries with
    weights ``-(s + 1)``-type coefficients; both are read off
    :func:`riesz_p_exponents`, which also fixes the endpoint-pivot variant.
    """
    _same_size(p.n, x.n)
    cliq_e, diag_e = riesz_p_exponents(p.s, p.M)
    return _clique_assembly(x, -cliq_e, -diag_e, "the mean")


def mean_p(w: WishartP) -> TridiagSym:
    """Mean of the family; lies in ``P``.  :func:`mean_p_formula` off the family's constants."""
    cliq_e, diag_e = w._riesz_exps
    return _clique_assembly(w.x, -cliq_e, -diag_e, "the mean", w._x_gaps)


def covariance_p_apply(w: WishartP, u: IncompleteSym) -> TridiagSym:
    """Covariance operator ``I -> Z`` applied to ``u``: minus the mean Jacobian, a banded clique form."""
    _same_size(u.n, w.n)
    return TridiagSym.from_coords(_covariance_coords(w.x, w._riesz_exps, u.coords(), False, "x", w._x_gaps))


def covariance_p_matrix(w: WishartP) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis: :func:`covariance_p_apply` on the identity, written out."""
    return _covariance_matrix(w.x, w._riesz_exps, w._x_gaps)


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------


def sample_p_many(w: WishartP, rng: np.random.Generator, size: int) -> NDArray[np.float64]:
    """``size`` exact draws as coordinate rows (diag then off); all land in ``P``.

    Walks the peel plan of ``x`` outward from the pivot: the pivot
    coordinate is a gamma draw, and each peeled vertex gets a Gamma(s_i + 3/2)
    pivot with rate its peeled dual pivot and a regression coefficient that
    is Gaussian given it, whose ``a b^2`` adds onto the neighbour's diagonal.

    As in ``wishart_q.sample_many``, every variate is drawn first, in stream
    order (the pivot's gamma, then per vertex of the right arm and then of
    the left arm, outward, ``size`` gammas and ``size`` normals), into the
    rows of one vertex-major array.  Past the draws nothing couples the
    vertices but ``diag_j += a b^2``, so the rest is a dozen whole-array
    passes, the right arm's terms added before the left arm's as the walk
    adds them.  The Gaussian ``standard_normal * scale - b`` rounds exactly
    as ``rng.normal(-b, scale)``; the output's buffer holds the temporaries
    until the rows are transposed into it.  O(n) per draw.
    """
    n, M = w.n, w.params.M
    pivot_shape, draws, scales, xd, b = w._walk
    rows = np.empty((2 * n - 1, size))
    rng.standard_gamma(pivot_shape, out=rows[M - 1])
    for v, r, shape in draws:
        rng.standard_gamma(shape, out=rows[v])
        rng.standard_normal(out=rows[r])
    a, ab = rows[:n], rows[n:]  # off rows: the normals, then beta, then a b
    a *= scales
    out = np.empty((size, 2 * n - 1))
    t = out.reshape(2 * n - 1, size)[: n - 1]
    left, right = a[: M - 1], a[M:]  # the peeled vertices' pivots, in off-coordinate order
    np.multiply(left, 2.0, out=t[: M - 1])
    np.multiply(right, 2.0, out=t[M - 1 :])
    t *= xd
    np.divide(1.0, t, out=t)
    np.sqrt(t, out=t)
    ab *= t
    ab -= b
    np.multiply(ab, ab, out=t)
    t[: M - 1] *= left  # a b^2
    t[M - 1 :] *= right
    ab[: M - 1] *= left  # a b
    ab[M - 1 :] *= right
    a[M - 1 : n - 1] += t[M - 1 :]  # the right arm onto its neighbours toward the pivot
    a[1:M] += t[: M - 1]  # then the left arm
    np.copyto(out, rows.T)
    return out


def sample_p(w: WishartP, rng: np.random.Generator) -> TridiagSym:
    """One exact draw from the family."""
    return TridiagSym.from_coords(sample_p_many(w, rng, 1)[0])


# ---------------------------------------------------------------------------
# quadratic construction bookkeeping
# ---------------------------------------------------------------------------


def quadratic_params_p(p: ShapeParams) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Quadratic-construction parameters ``(alpha, beta)`` of the shape.

    ``alpha`` has one entry per clique (two-dimensional Gaussian pieces),
    ``beta`` one entry per vertex (one-dimensional pieces); both equal ``-2``
    times the corresponding log-Laplace exponents, so for an interior pivot

        alpha_i/2 = s_i + 3/2 (i <= M-1),   alpha_i/2 = s_{i+1} + 3/2 (i >= M),
        beta_1 = beta_n = 0,
        beta_i/2 = -s_{i-1} - 1 (1 < i < M),  beta_i/2 = -s_{i+1} - 1 (M < i < n),
        beta_M/2 = -s_{M-1} + s_M - s_{M+1} - 1,

    and for an endpoint pivot the ``beta`` entry at the pivot follows the
    same exponent rule with its structural zero suppressed.
    """
    cliq_e, diag_e = riesz_p_exponents(p.s, p.M)
    return -2.0 * cliq_e, -2.0 * diag_e


def quadratic_params_p_inverse(
    alpha: Iterable[float], beta: Iterable[float], M: int
) -> ShapeParams:
    """Shape recovered from quadratic parameters at pivot ``M``."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    n = beta.size
    if alpha.size != n - 1:
        raise ValueError("alpha must have one entry per clique")
    M = _pivot(M, n)
    s = np.empty(n)
    for i in range(1, n + 1):
        if i < M:
            s[i - 1] = alpha[i - 1] / 2.0 - 1.5
        elif i > M:
            s[i - 1] = alpha[i - 2] / 2.0 - 1.5
    if n == 1:
        s[0] = beta[0] / 2.0 - 1.0
    else:
        left = s[M - 2] if M >= 2 else 0.0
        right = s[M] if M <= n - 1 else 0.0
        interior = 1.0 if 1 < M < n else 0.0
        s[M - 1] = beta[M - 1] / 2.0 + left + right + interior
    return ShapeParams(M, s)


def integer_feasibility_p(
    n: int, max_entry: int = 20, require_positive: bool = True
) -> tuple[bool, Optional[dict]]:
    """Decide whether a true (integer-multiplicity) quadratic construction exists.

    Integer ``(alpha, beta)`` with entries at most ``max_entry`` must satisfy
    the quadratic-construction relations for some pivot and in-domain shape.
    With ``require_positive=True`` (default) every clique piece and every
    non-structural one-dimensional piece is present (multiplicity >= 1), so
    a vertex two or more steps from the pivot would need ``s_j >= -1``
    (clique side) and ``s_j <= -3/2`` (vertex side) at once: a construction
    exists exactly for ``n <= 3``.  With ``require_positive=False`` the
    boundary construction ``s_j = -1`` (``alpha_j = 1``, ``beta_j = 0``)
    exists for every ``n``; see README, "Known discrepancies".

    The witness is ``s = -1`` except ``s_M = -1/2``, with ``M = 2`` when
    ``require_positive`` and ``n = 3``, else ``M = 1``.  Its entries are 0
    and 1, so every ``max_entry >= 1`` gives the same answer and a smaller
    one gives none.  Returns ``(feasible, witness)``, the witness holding
    ``M``, ``s``, ``alpha`` and ``beta``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    n, max_entry = operator.index(n), operator.index(max_entry)
    if max_entry < 1 or (require_positive and n >= 4):
        return False, None
    M = 2 if require_positive and n == 3 else 1
    s = np.full(n, -1.0)
    s[M - 1] = -0.5
    alpha, beta = quadratic_params_p(ShapeParams(M, s))
    return True, {
        "M": M,
        "s": s.tolist(),
        "alpha": np.round(alpha).astype(int).tolist(),
        "beta": np.round(beta).astype(int).tolist(),
    }


# ---------------------------------------------------------------------------
# higher moments
# ---------------------------------------------------------------------------


def moment_p(w: WishartP, x_list: Sequence[IncompleteSym]) -> float:
    """``E[ <Y, x_1> ... <Y, x_N> ]`` as a Taylor coefficient of the Laplace transform.

    The moment is the coefficient of ``e_1 ... e_N`` in
    ``exp(F(x - sum_j e_j x_j) - F(x))`` with nilpotent ``e_j`` and
    ``F = cliq_e . log |x_b| + diag_e . log x_jj`` the log-Laplace exponent
    (:func:`riesz_p_exponents`), evaluated on 2^N-coefficient jets for all
    cliques at once; endpoint pivots need no special case.  The directions
    are checked by ``power_functions._jet_moment``, as on ``Q``.
    """
    cliq_e, diag_e = w._riesz_exps
    k = w.n - 1

    def log_laplace(d: NDArray, o: NDArray) -> NDArray:
        dets = _jet_mul(d[:-1], d[1:]) - _jet_mul(o, o)
        logs = _jet_log(np.concatenate([dets, d]))
        return cliq_e @ logs[:k] + diag_e @ logs[k:]

    return _jet_moment(w.x, x_list, log_laplace, "x")


# ---------------------------------------------------------------------------
# canonical measure and numerical inverse mean
# ---------------------------------------------------------------------------


def canonical_measure_check(x: IncompleteSym) -> tuple[float, float]:
    """Two routes to the log Laplace transform of Lebesgue measure on ``P``.

    Left: the zero-shape closed form ``(n-1)/2 log pi + (n-1) log Gamma(3/2)
    + log phi(x)``.  Right: ``log phi(x) + (n-1)/2 log(pi^2/4)``, the
    characteristic-function normalization.  They agree identically.
    """
    n = x.n
    lp = log_phi(x)  # its atom sweep is the cone test
    lhs = 0.5 * (n - 1) * np.log(np.pi) + (n - 1) * math.lgamma(1.5) + lp
    rhs = lp + 0.5 * (n - 1) * np.log(np.pi**2 / 4.0)
    return float(lhs), float(rhs)


def newton_inverse_mean_p(p: ShapeParams, target: TridiagSym) -> IncompleteSym:
    """Invert the mean map on ``P`` by damped Newton steps, each one banded solve in O(n).

    From the identity, at most 100 steps, stopping at 1e-10 relative, at the
    target scaled to unit size, as ``mean_p(c x) = mean_p(x) / c``; the
    answer, of degree -1 in the target, is scaled back by :func:`_from_unit`.
    The shape, the target's size and the target's cone are checked once.
    Each trial point's clique gaps are its cone test in the line search, and
    the accepted iterate's mean and Newton step both read them.
    """
    log_norm_constant_p(p)  # raises outside the shape's domain
    _same_size(p.n, target.n)
    assert_in_P(target, "target")
    target_c, e = _to_unit(target.coords())
    x, exps = IncompleteSym(p.n, np.ones(p.n)), riesz_p_exponents(p.s, p.M)
    g = _q_gaps(x)
    for _ in range(100):
        resid = _clique_assembly(x, -exps[0], -exps[1], "the mean", g).coords() - target_c
        if np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(target_c)):
            return IncompleteSym.from_coords(_from_unit(x.coords(), -e, "the inverse mean", -1, "y"))
        step = _covariance_coords(x, exps, resid, True, "x", g)  # jacobian^{-1} resid
        t = 1.0
        while t > 1e-8:
            trial = IncompleteSym.from_coords(x.coords() - t * step)
            try:
                g, x = _q_gaps(trial), trial
                break
            except ConeError:
                t /= 2.0
        else:
            raise RuntimeError("line search failed to stay inside the cone")
    raise RuntimeError("Newton inversion did not converge")
