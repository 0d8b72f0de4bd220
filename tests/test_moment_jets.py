"""Higher moments as Taylor coefficients of the Laplace transform.

``wishart_q.moment`` and ``wishart_p.moment`` read the coefficient of
``e_1 ... e_N`` off 2^N-coefficient jets.  They are checked against the
paper's permutation-cycle expansions kept in ``tests/_dense_oracle.py``,
against the Gamma law of ``<X, y>``, which needs no oracle, and against
degree ``-N`` homogeneity.
"""

from math import prod

import numpy as np
import pytest

from chainwishart import power_functions
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym

import _dense_oracle as dense
from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

CASES = [
    (n, M, N)
    for n in (1, 2, 3, 5, 13)
    for M in sorted({1, (n + 1) // 2, n})
    for N in range(1, 7)
] + [(50, M, N) for M in (1, 25, 50) for N in (1, 2, 3)]
TOL = 1e-12


def _families(n, M, seed):
    rng = np.random.default_rng(seed)
    w = wq.WishartQ(random_shape_q(rng, n, M), random_pd_tridiag(rng, n))
    wpp = wp.WishartP(random_shape_p(rng, n, M), random_q_elem(rng, n))
    return rng, w, wpp


def _directions(rng, n, N):
    # signed directions, not cone members: the expansions carry cancellation
    zs = [TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(N)]
    xs = [IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(N)]
    return zs, xs


@pytest.mark.parametrize("n, M, N", CASES)
def test_moments_match_the_cycle_expansions(n, M, N):
    rng, w, wpp = _families(n, M, 1000 * n + 10 * M + N)
    zs, xs = _directions(rng, n, N)
    want = dense.moment(w, zs)
    assert abs(wq.moment(w, zs) - want) <= TOL * abs(want)
    want = dense.moment_on_p(wpp, xs)
    assert abs(wp.moment(wpp, xs) - want) <= TOL * abs(want)


def test_pairing_with_the_parameter_is_gamma_at_n_1000():
    # <X, y> ~ Gamma(k, 1) with k the degree of Delta_s; on P, k is minus the
    # degree of the Laplace exponent: E<., .>^N = k (k+1) ... (k+N-1)
    n, N = 1000, 6
    _, w, wpp = _families(n, 400, 7)
    k = float(np.sum(w.params.s))
    got = wq.moment(w, [w.y] * N)
    assert got == pytest.approx(prod(k + i for i in range(N)), rel=TOL)
    cliq_e, diag_e = wp.riesz_p_exponents(wpp.params.s, wpp.params.M)
    k = -(2.0 * float(np.sum(cliq_e)) + float(np.sum(diag_e)))
    got = wp.moment(wpp, [wpp.x] * N)
    assert got == pytest.approx(prod(k + i for i in range(N)), rel=TOL)


# c^-N stays a normal double at 1e+-150 for N = 2: the inputs are scaled to
# unit size by powers of two before the jets run
@pytest.mark.parametrize("c, N", [(1e-12, 4), (1e12, 4), (1e-150, 2), (1e150, 2)])
@pytest.mark.parametrize("n, M", [(1, 1), (5, 1), (5, 3), (13, 13)])
def test_moments_are_homogeneous_of_degree_minus_n(n, M, c, N):
    rng, w, wpp = _families(n, M, 31 * n + M)
    zs, xs = _directions(rng, n, N)
    scaled = wq.WishartQ(w.params, TridiagSym(n, c * w.y.diag, c * w.y.off))
    assert wq.moment(scaled, zs) == pytest.approx(wq.moment(w, zs) / c**N, rel=TOL)
    scaled_p = wp.WishartP(wpp.params, IncompleteSym(n, c * wpp.x.diag, c * wpp.x.off))
    assert wp.moment(scaled_p, xs) == pytest.approx(wp.moment(wpp, xs) / c**N, rel=TOL)


def test_moment_p_rejects_an_empty_direction_list():
    _, _, wpp = _families(3, 2, 5)
    with pytest.raises(ValueError, match="need at least one test direction"):
        wp.moment(wpp, [])


def test_chunked_jet_product_matches_one_pass(monkeypatch):
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 50, 1 << 4))
    whole = power_functions._jet_mul(a, b)
    monkeypatch.setattr(power_functions, "_JET_CHUNK", 3 * 81)  # three rows per chunk
    assert np.array_equal(power_functions._jet_mul(a, b), whole)
    # e_1 e_2 coefficient of (1 + e_1)(1 + e_2) and nilpotency of e_1
    one_plus = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    assert power_functions._jet_mul(one_plus[0], one_plus[1]).tolist() == [1.0, 1.0, 1.0, 1.0]
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert not np.any(power_functions._jet_mul(e1, e1))


def test_chunked_jet_log_matches_one_pass(monkeypatch):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 1 << 4))
    x[:, 0] = rng.uniform(0.5, 2.0, 50)
    whole = power_functions._jet_log(x)
    monkeypatch.setattr(power_functions, "_JET_CHUNK", 3 * 16)  # three rows per chunk: 16 pairs at size 3
    assert np.array_equal(power_functions._jet_log(x), whole)


@pytest.mark.parametrize("N", range(1, 7))
def test_jet_quotient_times_its_divisor_is_the_dividend(N):
    rng = np.random.default_rng([53, N])
    c, a = rng.uniform(-1.0, 1.0, (2, 1 << N))
    a[0] = 1.5  # a unit constant term, as the peel pivots have at unit scale
    q = power_functions._jet_div(c.tolist(), a.tolist())
    got = power_functions._jet_mul(np.array(q), a)
    assert np.max(np.abs(got - c)) <= 1e-14 * np.max(np.abs(c))


@pytest.mark.parametrize("N", range(1, 7))
def test_partition_sum_is_the_top_coefficient_of_the_exp_series(N):
    # exp(g) = sum_k g^k / k!, which stops at k = N for a g with zero constant term
    rng = np.random.default_rng([59, N])
    g = rng.uniform(-1.0, 1.0, 1 << N)
    g[0] = 0.0
    series, power = np.zeros_like(g), np.zeros_like(g)
    power[0] = 1.0
    for k in range(1, N + 1):
        power = power_functions._jet_mul(power, g) / k
        series += power
    top = power_functions._exp_top(g)
    assert abs(top - series[-1]) <= 1e-14 * abs(series[-1])


@pytest.mark.parametrize("N", range(1, 7))
def test_jet_log_inverts_the_partition_sum(N):
    # exp(log x - log x_0) = x / x_0, so its top coefficient is x's over x_0
    rng = np.random.default_rng([61, N])
    x = rng.uniform(-1.0, 1.0, (40, 1 << N))
    x[:, 0] = rng.uniform(0.1, 2.0, 40)
    g = power_functions._jet_log(x)
    assert not np.any(g[:, 0])
    e = x / x[:, :1]
    for row, want in zip(g, e):
        # the top coefficient sums products of up to N entries of e
        assert abs(power_functions._exp_top(row) - want[-1]) <= 1e-13 * max(1.0, np.max(np.abs(want))) ** N
