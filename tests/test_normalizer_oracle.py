"""The normalizing constants against a 50-digit ``mpmath.loggamma`` oracle.

The oracle sums the same Gamma terms in high precision from the same
floating-point shapes, so it checks ``math.lgamma`` and the float summation
together, including shapes next to the edges of the integrability domains
(``s_i -> 1/2+`` on ``Q``, ``s_i -> -3/2+`` on ``P``) and shapes up to 1e4.
Over the grid of ``tests/test_closed_form_pins.py`` the worst relative error
is 1.8e-14 (5.7e-15 with the ``scipy.special.gammaln`` the package used
before), far inside the 1e-12 policy.
"""

import mpmath
import numpy as np
import pytest

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import TridiagSym
from chainwishart.power_functions import ShapeParams, log_phi

from _gen import random_q_elem

TOL = 1e-12
EPS = 2.0**-40


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mpmath.workdps(50):
        yield


def _oracle_log_norm(p: ShapeParams, pivot_shift: float, other_shift: float) -> mpmath.mpf:
    """``-((n-1)/2 log pi + log Gamma(s_M + a) + sum_{i != M} log Gamma(s_i + b))``."""
    total = (p.n - 1) * mpmath.log(mpmath.pi) / 2
    for i, s in enumerate(p.s.tolist()):
        shift = pivot_shift if i == p.M - 1 else other_shift
        total += mpmath.loggamma(mpmath.mpf(s) + mpmath.mpf(shift))
    return -total


def _assert_rel(got: float, want: mpmath.mpf) -> None:
    assert abs(mpmath.mpf(got) - want) <= TOL * abs(want)


Q_SHAPES = [
    (1, [EPS]),
    (1, [1e4]),
    (2, [0.5 + EPS, 1.0]),
    (2, [0.5 + 1e-9, 1e-7, 0.5 + 2.0**-30]),
    (2, [1.5 + EPS, 2.5 - 1e-9, 0.5 + 1e-12, 1e4]),
    (4, [1e4, 7.25, 0.5 + EPS, 1e4 - 0.5, 3.0, 0.5 + 1e-3]),
]

P_SHAPES = [
    (1, [-1.0 + EPS]),
    (1, [1e4]),
    (2, [-1.5 + EPS, 0.0]),
    (3, [-1.5 + 1e-9, -0.5, -1.0 + 1e-7]),
    (2, [-0.5 + EPS, 0.5 - 1e-9, -1.5 + 1e-12, 1e4]),
    (5, [1e4, 7.25, -1.5 + EPS, 1e4 - 0.5, -1.0 + EPS, -1.5 + 1e-3]),
]


@pytest.mark.parametrize("M, s", Q_SHAPES)
def test_log_norm_constant_q_against_mpmath(M, s):
    p = ShapeParams(M, s)
    _assert_rel(wq.log_norm_constant(p), _oracle_log_norm(p, 0.0, -0.5))


@pytest.mark.parametrize("M, s", P_SHAPES)
def test_log_norm_constant_p_against_mpmath(M, s):
    p = ShapeParams(M, s)
    _assert_rel(wp.log_norm_constant(p), _oracle_log_norm(p, 1.0, 1.5))


@pytest.mark.parametrize("n", [2, 3, 8, 200])
def test_log_norm_constants_at_random_shapes_against_mpmath(n):
    rng = np.random.default_rng([n, 44])
    M = int(rng.integers(1, n + 1))
    # log-uniform distances to the domain edge, from 1e-12 up to 1e4
    gap = 10.0 ** rng.uniform(-12.0, 4.0, n)
    q = ShapeParams(M, np.where(np.arange(n) == M - 1, 0.0, 0.5) + gap)
    p = ShapeParams(M, np.where(np.arange(n) == M - 1, -1.0, -1.5) + gap)
    _assert_rel(wq.log_norm_constant(q), _oracle_log_norm(q, 0.0, -0.5))
    _assert_rel(wp.log_norm_constant(p), _oracle_log_norm(p, 1.0, 1.5))


@pytest.mark.parametrize("n", [2, 3, 8, 200])
def test_canonical_measure_check_against_mpmath(n):
    x = random_q_elem(np.random.default_rng([n, 45]), n)
    lp = mpmath.mpf(log_phi(x))
    want_lhs = (n - 1) * mpmath.log(mpmath.pi) / 2 + (n - 1) * mpmath.loggamma(1.5) + lp
    want_rhs = lp + (n - 1) * mpmath.log(mpmath.pi**2 / 4) / 2
    lhs, rhs = wp.canonical_measure_check(x)
    _assert_rel(lhs, want_lhs)
    _assert_rel(rhs, want_rhs)


@pytest.mark.parametrize("norm", [wq.log_norm_constant, wp.log_norm_constant])
def test_a_log_gamma_term_past_the_largest_double_gives_minus_inf(norm):
    # log Gamma(1e306) is about 7e308: the normalizer is -inf, with no exception
    assert norm(ShapeParams(2, [1e306, 1e306, 1e306])) == float("-inf")


def test_a_family_computes_its_normalizer_once(monkeypatch):
    from chainwishart import power_functions

    rng = np.random.default_rng(47)
    n, M = 4, 2
    runs = []
    kernel = power_functions._log_gamma_normalizer

    def counted(args, M):
        runs.append(args)
        return kernel(args, M)

    for mod in (wq, wp):
        monkeypatch.setattr(mod, "_log_gamma_normalizer", counted)
    w = wq.WishartQ(ShapeParams(M, rng.uniform(0.8, 2.5, n)), TridiagSym(n, np.full(n, 2.0), np.full(n - 1, 0.3)))
    assert len(runs) == 1
    wpp = wp.WishartP(ShapeParams(M, rng.uniform(0.0, 1.5, n)), random_q_elem(rng, n))
    assert len(runs) == 2
    xs = [random_q_elem(rng, n) for _ in range(3)]
    assert len({wq.log_density(w, x) for x in xs}) == 3
    assert len(runs) == 2
    for _ in range(3):
        wp.log_density(wpp, TridiagSym(n, np.full(n, 2.0), np.full(n - 1, 0.3)))
    assert len(runs) == 2
