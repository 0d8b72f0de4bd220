"""Monte-Carlo and brute-force oracles backing the acceptance checks.

The ``variance`` suite also holds the paper's compact and expanded variance
formulas, on dense padded inverses, as the oracle of the banded variance.

Tolerance policy, by error class:

* deterministic identities: relative 1e-9 .. 1e-12,
* finite-difference derivative checks: relative 1e-5,
* Monte-Carlo estimates: 4 standard errors per reported quantity
  (multi-coordinate reports are many simultaneous 4-sigma checks; with the
  fixed seeds used by the suites each run is bit-reproducible, so a passing
  configuration stays passing).

Randomness follows a counter-based contract: ``stream_rng(seed, k)`` yields
the ``k``-th independent deterministic stream of a root seed, so every
estimate is reproducible.

The five suites are built from a few private pieces, each check keeping
its name, stream, seed, sample count and threshold:

* ``_CONES`` keys each cone by its module, and ``_family(cone, ...)`` draws
  a random family on it (the natural parameter, then the shape);
* ``_z_check`` turns Monte-Carlo reports into one check on the worst
  ``|z|``, every ``z`` coming from ``_make_report``, and ``_sample_check``
  runs ``mc_mean_cov`` into it;
* ``_rel_check`` compares matrices by relative error, with
  ``_fd_covariance`` giving the finite-difference covariance of a mean map;
* ``laplace``, ``mean``, ``moments`` and the ``samplers`` base cases run one
  loop body over ``_CONES``, in its order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import wishart_p, wishart_q
from .matrix_spaces import DenseSym, IncompleteSym, TridiagSym, _same_size, lauritzen_map, pairing, project_pi
from .power_functions import ShapeParams

__all__ = [
    "MCReport",
    "CheckResult",
    "stream_rng",
    "coordinate_weights",
    "cov_coords_from_operator",
    "mc_laplace",
    "mc_mean_cov",
    "fd_jacobian",
    "ks_test_gamma",
    "run_suites",
    "SUITES",
    "format_report",
    "report_json",
]


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); streams are independent."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


@dataclass
class MCReport:
    """One Monte-Carlo estimate against its closed-form value."""

    estimate: float
    stderr: float
    theory: float
    z_score: float
    n_samples: int
    seed: int
    name: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.z_score) < 4.0


def _make_report(
    estimate: float, stderr: float, theory: float, n_samples: int, seed: int, name: str
) -> MCReport:
    if stderr > 0:
        z = (estimate - theory) / stderr
    else:
        z = 0.0 if estimate == theory else float("inf")
    return MCReport(float(estimate), float(stderr), float(theory), float(z), n_samples, seed, name)


@dataclass
class CheckResult:
    """One named deterministic-or-statistical check of a suite.

    ``statistic`` is the number the check compares with ``threshold``: a
    KS p-value passes above its threshold, any other statistic (``|z|``, a
    relative error) passes below it.
    """

    name: str
    passed: bool
    detail: str = ""
    statistic: Optional[float] = None
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        self.passed = bool(self.passed)


def coordinate_weights(n: int) -> NDArray[np.float64]:
    """Pairing weights of the canonical coordinates: 1 on diag, 2 off."""
    return np.concatenate([np.ones(n), 2.0 * np.ones(n - 1)])


def cov_coords_from_operator(v: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    """Coordinate covariance implied by a covariance operator matrix.

    With ``V`` the operator in the canonical basis, ``Cov(c_j, c_k) =
    V_jk / w_k`` (the pairing carries weight 2 on off-diagonal coordinates).
    """
    return v / coordinate_weights(n)[None, :]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _mean_se(vals: NDArray[np.float64]) -> tuple[float, float]:
    # jackknife stderr of a sample mean reduces to std(ddof=1)/sqrt(n)
    n = vals.size
    se = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(vals)), se


def mc_laplace(cone: ModuleType, w, theta, n_samples: int = 100_000, seed: int = 0) -> MCReport:
    """Estimate ``E exp(-<theta, draw>)`` on ``cone`` by exact sampling, as report ``laplace_q`` or ``laplace_p``."""
    name = f"laplace_{_CONES[cone].label}"
    theory = float(np.exp(cone.log_laplace(w, theta)))
    coords = cone.sample_many(w, stream_rng(seed), n_samples)
    t = coords @ (coordinate_weights(w.n) * theta.coords())
    est, se = _mean_se(np.exp(-t))
    return _make_report(est, se, theory, n_samples, seed, name)


def mc_mean_cov(
    draw: Callable[[np.random.Generator, int], NDArray[np.float64]],
    theory_mean: NDArray[np.float64],
    theory_cov: Optional[NDArray[np.float64]],
    n_samples: int = 100_000,
    seed: int = 0,
    name: str = "",
) -> list[MCReport]:
    """Per-coordinate mean reports and per-entry covariance reports.

    Covariance entries use the means of 50 batches for their standard errors.
    """
    rng = stream_rng(seed)
    coords = draw(rng, n_samples)
    d = coords.shape[1]
    reports = []
    for j in range(d):
        est, se = _mean_se(coords[:, j])
        reports.append(
            _make_report(est, se, float(theory_mean[j]), n_samples, seed, f"{name}.mean[{j}]")
        )
    if theory_cov is not None:
        batches = np.array_split(coords, 50, axis=0)
        covs = np.stack([np.atleast_2d(np.cov(b, rowvar=False)) for b in batches])
        for j in range(d):
            for k in range(j, d):
                vals = covs[:, j, k]
                est = float(np.mean(vals))
                se = float(np.std(vals, ddof=1) / np.sqrt(len(batches)))
                reports.append(
                    _make_report(
                        est, se, float(theory_cov[j, k]), n_samples, seed, f"{name}.cov[{j},{k}]"
                    )
                )
    return reports


def fd_jacobian(
    fn: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    point: NDArray[np.float64],
    step: float = 1e-5,
) -> NDArray[np.float64]:
    """Central-difference Jacobian of a coordinate map.

    Steps scale with the coordinate magnitude; cone errors from probing past
    a boundary propagate to the caller.
    """
    point = np.asarray(point, dtype=float)
    d = point.size
    cols = []
    for k in range(d):
        h = step * max(1.0, abs(point[k]))
        ep = point.copy()
        em = point.copy()
        ep[k] += h
        em[k] -= h
        cols.append((fn(ep) - fn(em)) / (2.0 * h))
    return np.column_stack(cols)


_GAMMA_EPS = np.finfo(float).eps
_GAMMA_TINY = 1e-300
_GAMMA_MAX_TERMS = 10_000


def _gamma_series(x: NDArray[np.float64], a: float) -> NDArray[np.float64]:
    # P(a, x) = x^a e^-x / Gamma(a) * sum_k x^k / (a (a+1) ... (a+k)), for x < a + 1
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    ap = a
    for _ in range(_GAMMA_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if np.all(term < total * _GAMMA_EPS):
            return total * np.exp(a * np.log(x) - x - math.lgamma(a))
    raise ValueError(f"incomplete gamma series did not converge at shape {a}")


def _gamma_contfrac(x: NDArray[np.float64], a: float) -> NDArray[np.float64]:
    # Q(a, x) by the modified Lentz method on its continued fraction, for x >= a + 1
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _GAMMA_TINY)
    d = 1.0 / b
    h = d.copy()
    # an entry stops at its first step within eps of 1; later steps only wobble in the last bit
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, _GAMMA_MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _GAMMA_TINY] = _GAMMA_TINY
        c = b + an / c
        c[np.abs(c) < _GAMMA_TINY] = _GAMMA_TINY
        d = 1.0 / d
        step = d * c
        h[~done] *= step[~done]
        done |= np.abs(step - 1.0) <= _GAMMA_EPS
        if np.all(done):
            return h * np.exp(a * np.log(x) - x - math.lgamma(a))
    raise ValueError(f"incomplete gamma continued fraction did not converge at shape {a}")


def _gamma_cdf(x: NDArray[np.float64], a: float) -> NDArray[np.float64]:
    """Regularized lower incomplete gamma ``P(a, x)``, elementwise in ``x``.

    The series for ``x < a + 1`` and the Lentz continued fraction for the
    upper tail otherwise (Numerical Recipes, 3rd ed., section 6.2), with the
    prefactor ``x^a e^-x / Gamma(a)`` taken in log scale. ``P = 0`` for
    ``x <= 0``.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    series = (x > 0) & (x < a + 1.0)
    upper = x >= a + 1.0
    out[series] = _gamma_series(x[series], a)
    out[upper] = 1.0 - _gamma_contfrac(x[upper], a)
    return out


def _ks_sf(n: int, d: float) -> float:
    """Two-sided Kolmogorov-Smirnov p-value ``P(D_n >= d)``; see ``ks_test_gamma``."""
    if d >= 1.0:
        return 0.0
    if n * d * d >= 2.2:
        # Birnbaum-Tingey: P(D_n^+ >= d) = d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)
        j = np.arange(math.floor(n * (1.0 - d)) + 1)
        t = d + j / n
        j = j[t < 1.0]
        t = t[t < 1.0]
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        log_terms = (
            log_fact[n]
            - log_fact[j]
            - log_fact[n - j]
            + (n - j) * np.log1p(-t)
            + (j - 1) * np.log(t)
        )
        top = float(np.max(log_terms))
        log_one_sided = math.log(d) + top + math.log(float(np.sum(np.exp(log_terms - top))))
        return min(1.0, 2.0 * math.exp(log_one_sided))
    x = math.sqrt(n) * d
    lam = x + 1.0 / (6.0 * math.sqrt(n)) + (x - 1.0) / (4.0 * n)
    if lam < 1.0:
        # theta-function form of the Kolmogorov CDF converges fast for small lambda
        k = np.arange(1, 9)
        cdf = math.sqrt(2.0 * math.pi) / lam * float(
            np.sum(np.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam * lam)))
        )
        return 1.0 - cdf
    k = np.arange(1, 11)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)))


def ks_test_gamma(draws: NDArray[np.float64], shape: float, rate: float) -> float:
    """Kolmogorov-Smirnov p-value of draws against Gamma(shape, rate).

    ``D = max(D+, D-)`` over the sorted draws, against the Gamma CDF
    ``P(shape, rate * x)`` (``_gamma_cdf``, within about 5e-15 absolute of
    the regularized incomplete gamma). The two-sided p-value takes one of
    two branches:

    * ``n D^2 >= 2.2`` (every p below about 0.03): ``min(1, 2 S)`` with
      ``S`` the exact one-sided tail of Birnbaum and Tingey (1951), summed in
      log space. This is Miller's (1956) approximation, the branch
      ``scipy.stats.kstest`` also takes here for ``n > 140``. It exceeds the
      exact two-sided p-value by the chance that both one-sided statistics
      reach ``D``: a relative 1e-6 at ``n D^2 = 2.2``, less beyond it.
    * otherwise: the Kolmogorov limit law at ``lambda = x + 1/(6 sqrt(n)) +
      (x - 1)/(4n)``, ``x = sqrt(n) D`` (Vrbik 2018), within 2e-4 absolute
      of the exact p-value for ``n >= 100`` and 3e-6 at ``n = 10^4``.
      Stephens' (1970) ``lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) D`` is
      off by up to 0.012 at ``n = 100``, near p = 0.76.

    Raises ``ValueError`` for no draws, non-finite draws, or a shape or
    rate that is not finite and positive.
    """
    draws = np.asarray(draws, dtype=float).reshape(-1)
    if draws.size == 0:
        raise ValueError("no draws")
    if not np.all(np.isfinite(draws)):
        raise ValueError("draws must be finite")
    if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
        raise ValueError(f"shape and rate must be finite and positive, got {shape}, {rate}")
    n = draws.size
    cdf = _gamma_cdf(rate * np.sort(draws), shape)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
    return _ks_sf(n, d)


# ---------------------------------------------------------------------------
# named suites (drive the CLI `verify` command)
# ---------------------------------------------------------------------------


def _random_pd(rng: np.random.Generator, n: int) -> TridiagSym:
    # T T' with a positive bidiagonal factor: always PD, modest conditioning
    d = rng.uniform(0.7, 1.5, size=n)
    sub = rng.uniform(-0.6, 0.6, size=n - 1)
    diag = d**2
    diag[1:] += sub**2
    off = sub * d[:-1]
    return TridiagSym(n, diag, off)


def _random_q(rng: np.random.Generator, n: int) -> IncompleteSym:
    d = rng.uniform(0.5, 2.0, size=n)
    rho = rng.uniform(-0.7, 0.7, size=n - 1)
    off = rho * np.sqrt(d[:-1] * d[1:])
    return IncompleteSym(n, d, off)


# What the suites draw on one cone: its label, family class, natural-parameter generator and shape range.
class _ConeDraws(NamedTuple):
    label: str
    family: type
    natural: Callable[[np.random.Generator, int], TridiagSym | IncompleteSym]
    shape_range: tuple[float, float]


#: The cones by module (``mc_laplace``'s ``cone``), in the order each suite checks them.
_CONES = {
    wishart_q: _ConeDraws("q", wishart_q.WishartQ, _random_pd, (0.8, 2.5)),
    wishart_p: _ConeDraws("p", wishart_p.WishartP, _random_q, (-0.7, 1.5)),
}


def _family(cone: ModuleType, rng: np.random.Generator, n: int, M: int):
    """A family on ``cone``: the natural parameter, then a shape in the cone's domain, drawn in that order."""
    c = _CONES[cone]
    natural = c.natural(rng, n)
    return c.family(ShapeParams(M, rng.uniform(*c.shape_range, size=n)), natural)


def _mean(cone: ModuleType, w, mutations: frozenset) -> IncompleteSym | TridiagSym:
    """``cone.mean(w)``; ``mean-sign`` deliberately flips the sign of the ``Q`` mean's off-diagonal assembly."""
    m = cone.mean(w)
    if cone is wishart_q and "mean-sign" in mutations:
        return IncompleteSym(m.n, m.diag, -m.off)
    return m


def _z_check(name: str, reports: Sequence[MCReport], fmt: str = "|z| = {:.2f}") -> CheckResult:
    """Monte-Carlo check that passes within 4 standard errors, ``|z| < 4``, on its worst report.

    ``fmt`` receives the worst ``|z|`` (a non-finite one first) and that report's name.
    """
    worst = max(reports, key=lambda r: abs(r.z_score) if np.isfinite(r.z_score) else np.inf)
    z = abs(worst.z_score)
    return CheckResult(name, z < 4.0, fmt.format(z, worst.name), z, 4.0)


def _sample_check(
    name: str, prefix: str, draw: Callable, mean: IncompleteSym | TridiagSym, cov: Optional[NDArray], seed: int
) -> CheckResult:
    """Worst ``|z|`` of 100,000 draws' coordinate means (and, given the operator ``cov``, covariances).

    ``prefix`` starts the name of each report, as in ``mc_mean_cov``.
    """
    theory_cov = None if cov is None else cov_coords_from_operator(cov, mean.n)
    reports = mc_mean_cov(draw, mean.coords(), theory_cov, n_samples=100_000, seed=seed, name=prefix)
    return _z_check(name, reports, "worst |z| = {:.2f} at {}")


def _rel_check(name: str, got: NDArray, wants: Sequence[NDArray], ref: NDArray, tol: float) -> CheckResult:
    """Largest ``|got - want|`` over ``wants``, relative to the largest ``|ref|``, below ``tol``."""
    err = float(max(np.max(np.abs(got - want)) for want in wants) / np.max(np.abs(ref)))
    return CheckResult(name, err < tol, f"rel err = {err:.2e}", err, tol)


def _fd_covariance(mean_formula: Callable, p: ShapeParams, x: IncompleteSym | TridiagSym) -> NDArray:
    """Minus the finite-difference Jacobian of the mean map ``mean_formula(p, .)`` at ``x``."""
    return -fd_jacobian(lambda c: mean_formula(p, type(x).from_coords(c)).coords(), x.coords())


def suite_laplace(seed: int, mutations: frozenset = frozenset()) -> list[CheckResult]:
    """Monte-Carlo checks of both closed-form Laplace transforms (n = 2, 3)."""
    out = []
    k = 0
    for (cone, c), stream in zip(_CONES.items(), (100, 200)):
        for n in (2, 3):
            for M in range(1, n + 1):
                rng = stream_rng(seed, stream + k)
                w = _family(cone, rng, n, M)
                rep = mc_laplace(cone, w, 0.3 * c.natural(rng, n), n_samples=100_000, seed=seed * 1000 + k)
                out.append(_z_check(f"{rep.name}[n={n},M={M}]", [rep]))
                k += 1
    return out


def _quadratic_family(rng: np.random.Generator) -> tuple[wishart_q.WishartQ, Callable]:
    """The ``Q`` family of multiplicities ``(2, 2, 1)`` at pivot 2, ``y`` from ``rng``, and its quadratic draw."""
    sigma, M, y = np.array([2, 2, 1]), 2, _random_pd(rng, 3)
    w = wishart_q.WishartQ(wishart_q.sigma_to_shape(sigma, M), y)
    return w, lambda r, size: wishart_q.sample_quadratic_many(sigma, M, y, r, size)


def suite_mean(seed: int, mutations: frozenset = frozenset()) -> list[CheckResult]:
    """Empirical means of all three samplers against the closed forms."""
    out = []
    # per cone: the chain size, the pivots, the stream and the seed offset
    for (cone, c), (n, pivots, stream, offset) in zip(_CONES.items(), ((4, (1, 2, 4), 300, 0), (3, (1, 3), 320, 10))):
        for M in pivots:
            w = _family(cone, stream_rng(seed, stream + M), n, M)
            draw, mean = partial(cone.sample_many, w), _mean(cone, w, mutations)
            label = f"{c.label}[n={n},M={M}]"
            out.append(_sample_check(f"mean_{label}", label, draw, mean, None, seed * 100 + offset + M))
    # quadratic construction, integer multiplicities
    w, draw = _quadratic_family(stream_rng(seed, 340))
    mean = _mean(wishart_q, w, mutations)
    out.append(_sample_check("mean_quadratic[n=3,M=2]", "quad[n=3,M=2]", draw, mean, None, seed * 100 + 40))
    return out


def _hat_completion(x: IncompleteSym) -> DenseSym:
    """Positive definite completion of ``x`` whose inverse is banded.

    Computed as the dense inverse of the Lauritzen image; satisfies
    ``pi(hat) = x`` and ``hat^{-1} in Z``.
    """
    return np.linalg.inv(lauritzen_map(x).to_dense())


def _m_sets(k: DenseSym, n: int) -> Callable[[int, int], DenseSym]:
    """``M_I = [((hat^{-1})_I)^{-1}]^0`` for interval index sets, from ``K = hat^{-1}``."""

    def m_interval(lo: int, hi: int) -> DenseSym:
        a = np.zeros((n, n))
        a[lo - 1 : hi, lo - 1 : hi] = np.linalg.inv(k[lo - 1 : hi, lo - 1 : hi])
        return a

    return m_interval


def _quad(a: DenseSym, ud: DenseSym) -> DenseSym:
    return a @ ud @ a


def _dense_terms(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> tuple:
    """``n``, ``M``, ``s``, the completion ``hat`` of ``m``, its ``M_I`` and dense ``u``: the formulas' inputs."""
    _same_size(p.n, m.n, u.n)
    return p.n, p.M, p.s, _hat_completion(m), _m_sets(lauritzen_map(m).to_dense(), p.n), u.to_dense()


def _variance_apply_nice(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Compact variance formula

        V(m)u = (1/s_1 + 1/s_n - 1/s_M) P(hat)u
                + sum_{i<M} (1/s_{i+1} - 1/s_i) P(hat - M_{1:i})u
                + sum_{i>M} (1/s_{i-1} - 1/s_i) P(hat - M_{i:n})u

    with ``P(A)u = pi(A u A)`` and ``M_I`` the padded interval inverses of
    the Lauritzen image of ``m``.
    """
    n, M, s, mhat, m_of, ud = _dense_terms(p, m, u)
    acc = (1.0 / s[0] + 1.0 / s[n - 1] - 1.0 / s[M - 1]) * _quad(mhat, ud)
    for i in range(1, M):
        acc += (1.0 / s[i] - 1.0 / s[i - 1]) * _quad(mhat - m_of(1, i), ud)
    for i in range(M + 1, n + 1):
        acc += (1.0 / s[i - 2] - 1.0 / s[i - 1]) * _quad(mhat - m_of(i, n), ud)
    return project_pi(acc)


def _variance_apply_expanded(p: ShapeParams, m: IncompleteSym, u: TridiagSym) -> IncompleteSym:
    """Expanded three-sum variance formula; algebraically equal to the compact one."""
    n, M, s, mhat, m_of, ud = _dense_terms(p, m, u)
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


def suite_variance(seed: int, mutations: frozenset = frozenset()) -> list[CheckResult]:
    """Variance formulas against finite differences, the dense oracle, and sampling."""
    w = _family(wishart_q, stream_rng(seed, 400), 5, 3)
    v = wishart_q.covariance_matrix(w)
    fd = _fd_covariance(wishart_q.mean_formula, w.params, w.y)
    out = [_rel_check("covariance_q_vs_fd[n=5]", v, [fd], v, 1e-5)]

    # the banded variance operator against the paper's two dense formulas
    m = wishart_q.mean(w)
    v_band, v_nice, v_exp = (
        wishart_q.operator_matrix(lambda u: apply(w.params, m, u), 5)
        for apply in (wishart_q.variance_apply_nice, _variance_apply_nice, _variance_apply_expanded)
    )
    out.append(_rel_check("variance_triple_agreement[n=5]", v_band, [v_nice, v_exp, v], v, 1e-8))

    wp = _family(wishart_p, stream_rng(seed, 410), 3, 2)
    v_p = wishart_p.covariance_matrix(wp)
    fd_p = _fd_covariance(wishart_p.mean_formula, wp.params, wp.x)
    out.append(_rel_check("covariance_p_vs_fd[n=3]", v_p, [fd_p], v_p, 1e-5))

    # empirical coordinate covariance, both families
    w3 = _family(wishart_q, stream_rng(seed, 420), 3, 2)
    draw, mean = partial(wishart_q.sample_many, w3), _mean(wishart_q, w3, mutations)
    cov = wishart_q.covariance_matrix(w3)
    out.append(_sample_check("cov_empirical_q[n=3,M=2]", "q_cov[n=3,M=2]", draw, mean, cov, seed * 100 + 42))
    draw, mean = partial(wishart_p.sample_many, wp), wishart_p.mean(wp)
    out.append(_sample_check("cov_empirical_p[n=3,M=2]", "p_cov[n=3,M=2]", draw, mean, v_p, seed * 100 + 43))
    return out


def _exact_moment_check(name: str, got: float, exact: float) -> CheckResult:
    """``got`` against an exact value, to 1e-9 relative to ``max(1, |exact|)``."""
    diff = abs(got - exact)
    scale = max(1.0, abs(exact))
    return CheckResult(name, diff <= 1e-9 * scale, f"diff = {diff:.2e}", diff / scale, 1e-9)


def suite_moments(seed: int, mutations: frozenset = frozenset()) -> list[CheckResult]:
    """Taylor-coefficient moments: exact at orders 1-2, Monte-Carlo at order 3.

    Orders 1 and 2 are checked against the mean and covariance, order 3
    against 100,000 draws of each exact sampler.  ``pairing`` gives the same
    bits with its arguments in either order, so one body serves both cones.
    """
    out = []
    for (cone, c), stream in zip(_CONES.items(), (500, 510)):
        rng = stream_rng(seed, stream)
        w = _family(cone, rng, 3, 2)
        dirs = [cone.Parameter.from_coords(rng.uniform(-1, 1, size=5)) for _ in range(3)]
        m = cone.mean(w)
        exact1 = pairing(m, dirs[0])
        exact2 = pairing(cone.covariance_apply(w, dirs[0]), dirs[1]) + exact1 * pairing(m, dirs[1])
        out.append(_exact_moment_check(f"moment_{c.label}_order1", cone.moment(w, dirs[:1]), exact1))
        out.append(_exact_moment_check(f"moment_{c.label}_order2", cone.moment(w, dirs[:2]), exact2))
        coords = cone.sample_many(w, stream_rng(seed, stream + 1), 100_000)
        prods = np.prod([coords @ (coordinate_weights(3) * u.coords()) for u in dirs], axis=0)
        rep = _make_report(*_mean_se(prods), cone.moment(w, dirs), 100_000, seed, "")
        out.append(_z_check(f"moment_{c.label}_order3_mc", [rep]))
    return out


def suite_samplers(seed: int, mutations: frozenset = frozenset()) -> list[CheckResult]:
    """Base-case distribution tests and recursive/quadratic cross-checks."""
    out = []
    # gamma base cases on one vertex, parameter 1: (shape parameter, its Gamma shape, label) per cone
    cases = (((1.0, 1.0, "exp1"), (0.75, 0.75, "gamma075")), ((0.0, 1.0, "exp1"),))
    for (cone, c), stream, base_cases in zip(_CONES.items(), (600, 601), cases):
        for s, shape, label in base_cases:
            w = c.family(ShapeParams(1, [s]), cone.Parameter(1, [1.0], []))
            draws = cone.sample_many(w, stream_rng(seed, stream), 10_000)[:, 0]
            pval = ks_test_gamma(draws, shape, 1.0)
            out.append(CheckResult(f"ks_{c.label}_base[{label}]", pval > 0.01, f"p = {pval:.4f}", pval, 0.01))

    # recursive vs quadratic: same law, so means must agree within joint error
    w, draw = _quadratic_family(stream_rng(seed, 610))
    a = wishart_q.sample_many(w, stream_rng(seed, 611), 100_000)
    b = draw(stream_rng(seed, 612), 100_000)
    reports = []
    for j in range(a.shape[1]):
        (ma, sa), (mb, sb) = _mean_se(a[:, j]), _mean_se(b[:, j])
        reports.append(_make_report(ma, np.hypot(sa, sb), mb, 100_000, seed, ""))
    out.append(_z_check("recursive_vs_quadratic_mean", reports, "worst |z| = {:.2f}"))
    return out


SUITES: dict[str, Callable[[int, frozenset], list[CheckResult]]] = {
    "laplace": suite_laplace,
    "mean": suite_mean,
    "variance": suite_variance,
    "moments": suite_moments,
    "samplers": suite_samplers,
}


def run_suites(
    which: str = "all", seed: int = 0, mutations: frozenset = frozenset()
) -> tuple[list[CheckResult], bool]:
    """Run one named suite or all of them; returns results and overall pass."""
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r}; choose from {['all', *SUITES]}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](seed, mutations))
    return results, all(r.passed for r in results)


def format_report(results: Sequence[CheckResult]) -> str:
    """Human-readable pass/fail table."""
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  status  detail", "-" * (width + 30)]
    for r in results:
        lines.append(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL':<6}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append("-" * (width + 30))
    lines.append(f"{len(results)} checks, {n_fail} failed")
    return "\n".join(lines)


def report_json(results: Sequence[CheckResult]) -> str:
    return json.dumps([asdict(r) for r in results], indent=2)
