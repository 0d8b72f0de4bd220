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

No closed-form inverse mean map exists on this cone; a numerical Newton
inversion is provided as a convenience utility only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    _clique_assembly,
    _clique_inverses,
    _peel_order,
    assert_in_Q,
    ig_basis,
    is_in_Q,
    pairing,
)
from .peeling import _peel_plan
from .power_functions import (
    ShapeParams,
    _jet_log,
    _jet_moment,
    _jet_mul,
    delta_exponents,
    log_delta_M,
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
    """Family member on ``P``: shape ``(M, s)`` and natural parameter ``x`` in ``Q``."""

    params: ShapeParams
    x: IncompleteSym

    def __post_init__(self) -> None:
        if self.params.n != self.x.n:
            raise ValueError("shape vector and natural parameter size disagree")
        if not self.params.in_p_domain():
            raise ValueError(
                "shape out of domain: need s_i > -3/2 off the pivot and s_M > -1"
            )
        assert_in_Q(self.x)

    @property
    def n(self) -> int:
        return self.params.n


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
    """Log of the Riesz normalizer; raises outside the integrability domain."""
    if not p.in_p_domain():
        raise ValueError("shape out of domain: need s_i > -3/2 off the pivot and s_M > -1")
    from scipy.special import gammaln  # deferred: keeps scipy off the CLI import path

    s, M, n = p.s, p.M, p.n
    log_inv = 0.5 * (n - 1) * np.log(np.pi) + gammaln(s[M - 1] + 1.0)
    for i in range(n):
        if i != M - 1:
            log_inv += gammaln(s[i] + 1.5)
    return float(-log_inv)


def log_density_p(w: WishartP, y: TridiagSym) -> float:
    """Log density at ``y``; ``-inf`` outside the cone."""
    if y.n != w.n:
        raise ValueError("size mismatch")
    p, x = w.params, w.x
    try:
        log_power = log_Delta_M(p, y)  # its pivot sweep is the cone test
    except ConeError:
        return float("-inf")
    neg = ShapeParams(p.M, -p.s)
    return (
        log_norm_constant_p(p)
        + log_power
        - pairing(y, x)
        - (log_delta_M(neg, x) + log_phi(x))
    )


def log_laplace_p(w: WishartP, theta: IncompleteSym) -> float:
    """``log E exp(-<theta, Y>)`` as a ratio of dual power functions."""
    if theta.n != w.n:
        raise ValueError("size mismatch")
    shifted = theta + w.x
    assert_in_Q(shifted, "theta + x")
    neg = ShapeParams(w.params.M, -w.params.s)
    return (log_delta_M(neg, shifted) + log_phi(shifted)) - (
        log_delta_M(neg, w.x) + log_phi(w.x)
    )


# ---------------------------------------------------------------------------
# mean and covariance
# ---------------------------------------------------------------------------


def mean_p_formula(p: ShapeParams, x: IncompleteSym) -> TridiagSym:
    """Mean-map expression on ``P``; the negated gradient of the log-Laplace.

    Clique blocks enter with weights ``s + 3/2`` and separator entries with
    weights ``-(s + 1)``-type coefficients; both are read off
    :func:`riesz_p_exponents`, which also fixes the endpoint-pivot variant.
    """
    if p.n != x.n:
        raise ValueError("size mismatch")
    assert_in_Q(x)
    cliq_e, diag_e = riesz_p_exponents(p.s, p.M)
    return _clique_assembly(x, -cliq_e, -diag_e)


def mean_p(w: WishartP) -> TridiagSym:
    """Mean of the family; lies in ``P``."""
    return mean_p_formula(w.params, w.x)


def covariance_p_apply(w: WishartP, u: IncompleteSym) -> TridiagSym:
    """Covariance operator ``I -> Z`` applied to ``u`` (negated mean Jacobian)."""
    if u.n != w.n:
        raise ValueError("size mismatch")
    x = w.x
    cliq_e, diag_e = riesz_p_exponents(w.params.s, w.params.M)
    # B u_b B per clique block, with B = [[i00, i01], [i01, i11]] its inverse
    i00, i11, i01 = _clique_inverses(x)
    u0, u1, uo = u.diag[:-1], u.diag[1:], u.off
    diag = -diag_e * u.diag / x.diag / x.diag
    diag[:-1] -= cliq_e * (i00 * i00 * u0 + 2.0 * i00 * i01 * uo + i01 * i01 * u1)
    diag[1:] -= cliq_e * (i01 * i01 * u0 + 2.0 * i01 * i11 * uo + i11 * i11 * u1)
    off = -cliq_e * (i00 * i01 * u0 + (i00 * i11 + i01 * i01) * uo + i01 * i11 * u1)
    return TridiagSym(x.n, diag, off)


def covariance_p_matrix(w: WishartP) -> NDArray[np.float64]:
    """Covariance operator in the canonical basis."""
    n = w.n
    cols = [covariance_p_apply(w, ig_basis(n, k)).coords() for k in range(2 * n - 1)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------


def sample_p_many(w: WishartP, rng: np.random.Generator, size: int) -> NDArray[np.float64]:
    """``size`` exact draws as coordinate rows (diag then off); all land in ``P``.

    Walks the peel plan of ``x`` innermost first: the pivot coordinate is a
    gamma draw, and each peeled vertex gets a Gamma(s_i + 3/2) pivot with
    rate its peeled dual pivot and a regression coefficient that is Gaussian
    given it, whose ``a b^2`` adds onto the neighbour's diagonal.
    """
    n, M, s = w.n, w.params.M, w.params.s
    alpha, beta = _peel_plan(w.x, M)
    xd = w.x.diag
    out = np.empty((size, 2 * n - 1))
    diag, off = out[:, :n], out[:, n:]
    diag[:, M - 1] = rng.gamma(shape=s[M - 1] + 1.0, scale=1.0 / alpha[M - 1], size=size)
    for i, j in reversed(_peel_order(n, M)):
        a = rng.gamma(shape=s[i] + 1.5, scale=1.0 / alpha[i], size=size)
        b = rng.normal(loc=-beta[i], scale=np.sqrt(1.0 / (2.0 * a * xd[j])))
        diag[:, i] = a
        diag[:, j] += a * b**2
        off[:, min(i, j)] = a * b
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
    if alpha.size != n - 1 and n > 1:
        raise ValueError("alpha must have one entry per clique")
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
    """Search for a true (integer-multiplicity) quadratic parameterization.

    Looks for integer ``(alpha, beta)`` with entries at most ``max_entry``
    satisfying the quadratic-construction relations for some pivot and an
    in-domain shape.  With ``require_positive=True`` (default) every
    constituent piece must be genuinely present -- multiplicity at least 1
    for each clique piece and each non-structural one-dimensional piece --
    which is the reading under which no solution exists for ``n >= 4``: the
    doubly constrained positions would need ``s_j >= -1`` (clique side) and
    ``s_j <= -3/2`` (diagonal side) at once.

    With ``require_positive=False`` zero multiplicities are allowed and the
    boundary solution ``s_j = -1`` (``alpha_j = 1``, ``beta = 0``) makes
    every ``n`` feasible; see README, "Known discrepancies".

    Returns ``(feasible, witness)`` with the witness holding ``M``, ``s``,
    ``alpha`` and ``beta``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lo_beta = 1 if require_positive else 0
    hi = max_entry
    alpha_lo = 1  # alpha = 0 would put the shape on the excluded boundary -3/2

    for M in range(1, n + 1):
        # twice the shape values: t_i = 2 s_i, integer by the alpha grid
        cand: dict[int, list[int]] = {}
        ok = True
        for i in range(1, n + 1):
            if i == M:
                continue
            ts = set(range(alpha_lo - 3, hi - 3 + 1))  # t = alpha - 3 > -3
            ts = {t for t in ts if t > -3}
            if i <= M - 2 or i >= M + 2:
                ts &= {-2 - b for b in range(lo_beta, hi + 1)}
            if not ts:
                ok = False
                break
            cand[i] = sorted(ts)
        if not ok:
            continue

        def build(t: dict[int, int], t_m: float) -> dict:
            s = np.array(
                [t_m / 2.0 if i == M else t[i] / 2.0 for i in range(1, n + 1)]
            )
            p = ShapeParams(M, s)
            alpha, beta = quadratic_params_p(p)
            return {
                "M": M,
                "s": s.tolist(),
                "alpha": np.round(alpha).astype(int).tolist(),
                "beta": np.round(beta).astype(int).tolist(),
            }

        if n == 1:
            for beta1 in range(max(lo_beta, 1), hi + 1):
                s1 = beta1 / 2.0 - 1.0
                if s1 > -1.0:
                    return True, build({}, 2.0 * s1)
            continue
        left_opts = cand[M - 1] if M >= 2 else [0]
        right_opts = cand[M + 1] if M <= n - 1 else [0]
        found = None
        for tl in left_opts:
            for tr in right_opts:
                # pivot-slot equation: beta_M = t_M - tl - tr - 2*interior
                shift = tl + tr + (2 if 1 < M < n else 0)
                for beta_m in range(lo_beta, hi + 1):
                    t_m = beta_m + shift
                    if t_m > -2.0:  # s_M > -1
                        tvals = {i: (cand[i][0] if i not in (M - 1, M + 1) else 0) for i in cand}
                        if M >= 2:
                            tvals[M - 1] = tl
                        if M <= n - 1:
                            tvals[M + 1] = tr
                        found = build(tvals, float(t_m))
                        break
                if found:
                    break
            if found:
                break
        if found:
            return True, found
    return False, None


# ---------------------------------------------------------------------------
# higher moments
# ---------------------------------------------------------------------------


def moment_p(w: WishartP, x_list: Sequence[IncompleteSym], cap: int = 6) -> float:
    """``E[ <Y, x_1> ... <Y, x_N> ]`` as a Taylor coefficient of the Laplace transform.

    The moment is the coefficient of ``e_1 ... e_N`` in
    ``exp(F(x - sum_j e_j x_j) - F(x))`` with nilpotent ``e_j`` and
    ``F = cliq_e . log |x_b| + diag_e . log x_jj`` the log-Laplace exponent
    (:func:`riesz_p_exponents`), evaluated on 2^N-coefficient jets for all
    cliques at once; endpoint pivots need no special case.
    """
    n_dirs = len(x_list)
    if n_dirs == 0:
        raise ValueError("need at least one test direction")
    if n_dirs > cap:
        raise ValueError(f"moment order {n_dirs} above cap {cap}")
    if any(x.n != w.n for x in x_list):
        raise ValueError("size mismatch")
    cliq_e, diag_e = riesz_p_exponents(w.params.s, w.params.M)

    def log_laplace(d: NDArray, o: NDArray) -> NDArray:
        dets = _jet_mul(d[:-1], d[1:]) - _jet_mul(o, o)
        return cliq_e @ _jet_log(dets) + diag_e @ _jet_log(d)

    return _jet_moment(w.x, x_list, log_laplace)


# ---------------------------------------------------------------------------
# canonical measure and numerical inverse mean
# ---------------------------------------------------------------------------


def canonical_measure_check(x: IncompleteSym) -> tuple[float, float]:
    """Two routes to the log Laplace transform of Lebesgue measure on ``P``.

    Left: the zero-shape closed form ``(n-1)/2 log pi + (n-1) log Gamma(3/2)
    + log phi(x)``.  Right: ``log phi(x) + (n-1)/2 log(pi^2/4)``, the
    characteristic-function normalization.  They agree identically.
    """
    from scipy.special import gammaln  # deferred: keeps scipy off the CLI import path

    assert_in_Q(x)
    n = x.n
    lp = log_phi(x)
    lhs = 0.5 * (n - 1) * np.log(np.pi) + (n - 1) * float(gammaln(1.5)) + lp
    rhs = lp + 0.5 * (n - 1) * np.log(np.pi**2 / 4.0)
    return float(lhs), float(rhs)


def newton_inverse_mean_p(
    p: ShapeParams,
    target: TridiagSym,
    x0: Optional[IncompleteSym] = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> IncompleteSym:
    """Numerically invert the mean map on ``P``.

    No closed form exists on this cone; this is a damped Newton iteration on
    the coordinate space (a convenience utility, not a family formula), run
    to ``tol`` relative at the target scaled to unit size, as ``mean_p(c x) = mean_p(x) / c``.
    """
    n = p.n
    target_c = target.coords()
    e = int(np.frexp(np.max(np.abs(target_c)))[1])
    target_c = np.ldexp(target_c, -e)
    x = np.ldexp(x0.coords(), e) if x0 is not None else np.r_[np.ones(n), np.zeros(n - 1)]
    x = IncompleteSym.from_coords(x)
    for _ in range(max_iter):
        w = WishartP(p, x)
        resid = mean_p(w).coords() - target_c
        if np.max(np.abs(resid)) <= tol * np.max(np.abs(target_c)):
            return IncompleteSym.from_coords(np.ldexp(x.coords(), -e))
        jac = -covariance_p_matrix(w)  # d mean / d x
        step = np.linalg.solve(jac, resid)
        t = 1.0
        while t > 1e-8:
            trial = IncompleteSym.from_coords(x.coords() - t * step)
            if is_in_Q(trial):
                x = trial
                break
            t /= 2.0
        else:
            raise RuntimeError("line search failed to stay inside the cone")
    raise RuntimeError("Newton inversion did not converge")
