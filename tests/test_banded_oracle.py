"""The O(n) banded closed forms against their dense and per-clique oracles.

The mean, covariance and variance on ``Q``, the quadratic sampler and both
hat completions are read off the peel plan of ``y``;
``tests/_dense_oracle.py`` keeps the paper's dense mean and covariance and
the dense Cholesky sampler, and ``chainwishart.verification`` the paper's
two dense variance formulas and the dense hat.  The clique assemblies on
both cones are vectorized; the loop versions below invert each 2x2 block
with ``np.linalg.inv``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.lum_triangular import LUMMatrix, decompose, hat_via_T
from chainwishart.matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _clique_form,
    _form_apply,
    _form_solve,
    hat_completion,
    inverse_image,
    is_in_P,
    is_in_Q,
    lauritzen_map,
    pairing,
    project_pi,
)
from chainwishart.peeling import (
    phi_inv,
    phi_tilde_inv,
    psi_inv,
    psi_tilde_inv,
    trace_decomposition_check,
    trace_decomposition_check_tilde,
)
from chainwishart.power_functions import (
    ShapeParams,
    delta_exponents,
    log_delta_M,
    log_Delta_M,
    log_phi,
    phi_exponents,
)
from chainwishart.verification import _hat_completion, _variance_apply_expanded, _variance_apply_nice

import _dense_oracle as dense
from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

CASES = [(n, M) for n in (1, 2, 3, 5, 13, 50) for M in sorted({1, (n + 1) // 2, n})]
TOL = 1e-12


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= TOL * np.max(np.abs(want), initial=0.0)


def _case(n, M):
    rng = np.random.default_rng([n, M])
    y = random_pd_tridiag(rng, n)
    w = wq.WishartQ(random_shape_q(rng, n, M), y)
    u = TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    return rng, y, w, u


@pytest.mark.parametrize("n, M", CASES)
def test_mean_formula_any_real_shape(n, M):
    rng, y, _, _ = _case(n, M)
    s = rng.uniform(-2.0, 2.0, n)
    s[rng.integers(n)] = 0.0
    p = ShapeParams(M, s)
    assert_close(wq.mean_formula(p, y).coords(), dense.mean_formula(p, y).coords())


@pytest.mark.parametrize("n, M", CASES)
def test_covariance_apply_and_matrix(n, M):
    _, _, w, u = _case(n, M)
    assert_close(wq.covariance_apply(w, u).coords(), dense.covariance_apply(w, u).coords())
    if n <= 13:  # the dense operator matrix is O(n^5)
        assert_close(wq.covariance_matrix(w), dense.covariance_matrix(w))


def test_covariance_matrix_peak_memory_stays_near_its_output():
    _, _, w, _ = _case(1000, 400)
    tracemalloc.start()
    try:
        out = wq.covariance_matrix(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1999, 1999)
    assert peak < 3 * out.nbytes


@pytest.mark.parametrize("n, M", CASES)
def test_variance_against_both_paper_formulas(n, M):
    _, _, w, u = _case(n, M)
    p, m = w.params, wq.mean(w)
    got = wq.variance_apply_nice(p, m, u).coords()
    assert_close(got, _variance_apply_nice(p, m, u).coords())
    assert_close(got, _variance_apply_expanded(p, m, u).coords())


@pytest.mark.parametrize("n, M", CASES)
def test_inverse_image(n, M):
    _, y, _, _ = _case(n, M)
    assert_close(inverse_image(y).coords(), project_pi(np.linalg.inv(y.to_dense())).coords())


# -- quadratic sampler and hat completions ------------------------------------

GRAM_CASES = [(n, M) for n in (1, 2, 3, 5, 13, 50, 300) for M in sorted({1, (n + 1) // 2, n})]
MIXED_SETS = [(1, 3, 2), (2, 9, 1), (4, 6, 3), (7, 7, 1), (1, 9, 1)]


@pytest.mark.parametrize("n, M", GRAM_CASES)
def test_gram_sampler_matches_dense_cholesky_on_the_same_stream(n, M):
    rng = np.random.default_rng([n, M, 3])
    y = random_pd_tridiag(rng, n)
    sigma = rng.integers(0, 3, n)
    sigma[M - 1] += 1
    sets = wq.basic_index_sets(sigma, M, n)
    got = wq.sample_gram_many(sets, y, np.random.default_rng(n), 3)
    assert_close(got, dense.sample_gram_many(sets, y, np.random.default_rng(n), 3))


@pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
def test_gram_sampler_on_mixed_intervals_matches_dense_cholesky(c):
    y = c * random_pd_tridiag(np.random.default_rng(4), 9)
    got = wq.sample_gram_many(MIXED_SETS, y, np.random.default_rng(5), 4)
    assert_close(got, dense.sample_gram_many(MIXED_SETS, y, np.random.default_rng(5), 4))


HAT_CASES = [(n, M) for n in (1, 2, 3, 5, 13, 50, 200) for M in sorted({1, (n + 1) // 2, n})]


@pytest.mark.parametrize("n, M", HAT_CASES)
def test_hat_completions_match_their_dense_forms(n, M):
    rng = np.random.default_rng([n, M, 2])
    m, p = random_q_elem(rng, n), random_shape_q(rng, n, M)
    assert_close(hat_completion(m), _hat_completion(m))
    tinv = dense.invert(decompose(wq.inverse_mean(p, m), M))
    assert_close(hat_via_T(p, m), tinv.T @ np.diag(p.s) @ tinv)


# -- per-clique loop versions of the vectorized assemblies -------------------


def lauritzen_map_loop(x):
    n = x.n
    if n == 1:
        return TridiagSym(1, [1.0 / x.diag[0]], [])
    diag, off = np.zeros(n), np.zeros(n - 1)
    for i in range(n - 1):
        b = np.linalg.inv(x.clique_block(i + 1))
        diag[i] += b[0, 0]
        diag[i + 1] += b[1, 1]
        off[i] += b[0, 1]
    diag[1 : n - 1] -= 1.0 / x.diag[1 : n - 1]
    return TridiagSym(n, diag, off)


def clique_sum_loop(x, cliq_e, diag_e):
    n = x.n
    diag, off = diag_e / x.diag, np.zeros(n - 1)
    for b in range(n - 1):
        binv = np.linalg.inv(x.clique_block(b + 1))
        diag[b] += cliq_e[b] * binv[0, 0]
        diag[b + 1] += cliq_e[b] * binv[1, 1]
        off[b] += cliq_e[b] * binv[0, 1]
    return TridiagSym(n, diag, off)


def covariance_apply_loop_p(w, u):
    x = w.x
    cliq_e, diag_e = wp.riesz_p_exponents(w.params.s, w.params.M)
    diag, off = -diag_e * u.diag / x.diag**2, np.zeros(x.n - 1)
    for b in range(x.n - 1):
        binv = np.linalg.inv(x.clique_block(b + 1))
        ub = np.array([[u.diag[b], u.off[b]], [u.off[b], u.diag[b + 1]]])
        q = binv @ ub @ binv
        diag[b] -= cliq_e[b] * q[0, 0]
        diag[b + 1] -= cliq_e[b] * q[1, 1]
        off[b] -= cliq_e[b] * q[0, 1]
    return TridiagSym(x.n, diag, off)


@pytest.mark.parametrize("n, M", CASES)
def test_clique_functions_match_their_loop_versions(n, M):
    rng = np.random.default_rng([n, M, 1])
    x = random_q_elem(rng, n)
    pq, pp = random_shape_q(rng, n, M), random_shape_p(rng, n, M)
    assert_close(lauritzen_map(x).coords(), lauritzen_map_loop(x).coords())
    assert_close(wq.inverse_mean(pq, x).coords(), clique_sum_loop(x, *delta_exponents(pq.s, M)).coords())
    cliq_e, diag_e = wp.riesz_p_exponents(pp.s, M)
    assert_close(wp.mean_formula(pp, x).coords(), clique_sum_loop(x, -cliq_e, -diag_e).coords())
    u = IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    w = wp.WishartP(pp, x)
    assert_close(wp.covariance_apply(w, u).coords(), covariance_apply_loop_p(w, u).coords())


@pytest.mark.parametrize("n", [1, 2, 3, 13, 1000])
@pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
def test_clique_form_solve_inverts_apply_on_both_cones(n, c):
    rng = np.random.default_rng([n, 3])
    x = c * random_q_elem(rng, n)
    for M in sorted({1, (n + 1) // 2, n}):
        for exps in (wp.riesz_p_exponents(random_shape_p(rng, n, M).s, M),
                     delta_exponents(random_shape_q(rng, n, M).s, M)):
            form = _clique_form(x, exps)
            for r in (rng.normal(size=2 * n - 1), rng.normal(size=(2 * n - 1, 3))):
                assert_close(_form_apply(form, _form_solve(form, r.copy())), r)


def test_a_form_pivot_that_is_zero_or_of_the_wrong_sign_is_a_value_error():
    # n = 2 with smallest eigenvalue 1e-10: the Q covariance form's last Schur pivot rounds to 0
    w = wq.WishartQ(ShapeParams(1, [3.0, 3.0]), TridiagSym(2, [1.0 + 1e-10] * 2, [-1.0]))
    zero = "the clique form is not definite in double precision: its pivot at vertex 2 is 0, not a finite negative"
    with pytest.raises(ValueError, match=zero):
        wq.covariance_apply(w, TridiagSym(2, [1.0, 0.0], [0.0]))
    with pytest.raises(ValueError, match=zero):
        wq.covariance_matrix(w)
    # n = 3 with clique gaps 1e-8: a Newton step's form on P gets a negative pivot
    p = ShapeParams(2, [0.4, 0.4, 0.4])
    x = IncompleteSym(3, [1.0] * 3, [math.sqrt(1.0 - 1e-8)] * 2)
    with pytest.raises(ValueError, match="its pivot at vertex 3 is .*, not a finite positive number"):
        wp.inverse_mean(p, wp.mean(wp.WishartP(p, x)))


# -- scale invariance ---------------------------------------------------------


SCALES = [1e-300, 1e-160, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e160, 1e300]


@pytest.mark.parametrize("c", SCALES)
def test_cones_and_closed_forms_are_scale_invariant(c):
    rng = np.random.default_rng(17)
    n, M = 9, 4
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    bad_y = TridiagSym(n, y.diag, 3.0 * y.off)  # not positive definite
    bad_x = IncompleteSym(n, x.diag, 1.5 * np.sqrt(x.diag[:-1] * x.diag[1:]))
    assert is_in_P(c * y) and is_in_Q(c * x)
    assert not is_in_P(c * bad_y) and not is_in_Q(c * bad_x)
    p = random_shape_q(rng, n, M)
    yc = c * y
    back = wq.inverse_mean(p, wq.mean(wq.WishartQ(p, yc)))
    assert np.max(np.abs(back.coords() - yc.coords())) <= 1e-12 * np.max(np.abs(yc.coords()))
    u = TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    v1 = wq.covariance_apply(wq.WishartQ(p, y), u).coords()
    # the covariance has degree -2: checked where c^-2 |v| is a normal double
    log_vc = math.log(np.max(np.abs(v1))) - 2.0 * math.log(c)
    if math.log(np.finfo(float).tiny) < log_vc < math.log(np.finfo(float).max):
        vc = wq.covariance_apply(wq.WishartQ(p, yc), u).coords()
        assert np.max(np.abs(vc * c * c - v1)) <= 1e-12 * np.max(np.abs(v1))
    # the covariance on P has degree -2 in x alike
    pp, v = random_shape_p(rng, n, M), IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    v1 = wp.covariance_apply(wp.WishartP(pp, x), v).coords()
    log_vc = math.log(np.max(np.abs(v1))) - 2.0 * math.log(c)
    if math.log(np.finfo(float).tiny) < log_vc < math.log(np.finfo(float).max):
        vc = wp.covariance_apply(wp.WishartP(pp, c * x), v).coords()
        assert np.max(np.abs(vc * c * c - v1)) <= 1e-12 * np.max(np.abs(v1))


def test_covariance_past_the_double_range_is_a_domain_error():
    # degree -2: with y scaled by 1e-200 the covariance is near 1e400; the
    # error says so, and no numpy overflow warning escapes (pytest turns a
    # RuntimeWarning into an error here)
    rng = np.random.default_rng(17)
    n, M = 9, 4
    w = wq.WishartQ(random_shape_q(rng, n, M), 1e-200 * random_pd_tridiag(rng, n))
    u = TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    m = wq.mean(w)
    wpp = wp.WishartP(random_shape_p(rng, n, M), 1e-200 * random_q_elem(rng, n))
    v = IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
    for call in (lambda: wq.covariance_apply(w, u), lambda: wq.covariance_matrix(w),
                 lambda: wq.variance_apply_nice(w.params, m, u),
                 lambda: wp.covariance_apply(wpp, v), lambda: wp.covariance_matrix(wpp)):
        with pytest.raises(ValueError, match="outside the double range"):
            call()


def _degree_minus_one_outputs(rng, n, M, c):
    """The closed forms of degree -1 in their argument, at arguments scaled by ``c``, by name."""
    p, pp = random_shape_q(rng, n, M), random_shape_p(rng, n, M)
    x, y = c * random_q_elem(rng, n), c * random_pd_tridiag(rng, n)
    return {
        "inverse_mean": lambda: wq.inverse_mean(p, x),
        "lauritzen_map": lambda: lauritzen_map(x),
        "mean_p": lambda: wp.mean(wp.WishartP(pp, x)),
        "mean": lambda: wq.mean(wq.WishartQ(p, y)),
        "inverse_image": lambda: inverse_image(y),
    }


@pytest.mark.parametrize("name", ["inverse_mean", "lauritzen_map", "mean_p", "mean", "inverse_image"])
def test_degree_minus_one_outputs_past_the_double_range_are_domain_errors(name):
    # at 1e-310 the argument is subnormal and the output near 1e310: the
    # error says so, and no numpy overflow warning escapes (pytest turns a
    # RuntimeWarning into an error here)
    call = _degree_minus_one_outputs(np.random.default_rng(29), 9, 4, 1e-310)[name]
    with pytest.raises(ValueError, match="outside the double range: it has degree -1 in [xy]$"):
        call()


def _moments_and_newton_past_the_double_range():
    """The moments (degree -3) at parameters scaled by 1e-200 and the Newton inverse mean at a 1e-310 target."""
    p, pp = ShapeParams(2, [1.2, 0.8]), ShapeParams(1, [0.2, -0.3])
    y, x = TridiagSym(2, [1e-200, 1e-200], [2e-201]), IncompleteSym(2, [1e-200, 1.3e-200], [-2e-201])
    z, x_unit = TridiagSym(2, [0.5, -0.2], [0.1]), IncompleteSym(2, [1.0, 1.3], [-0.2])
    target = 1e-310 * wp.mean(wp.WishartP(pp, x_unit))
    return {
        "moment": lambda: wq.moment(wq.WishartQ(p, y), [z] * 3),
        "moment_p": lambda: wp.moment(wp.WishartP(pp, x), [x_unit] * 3),
        "newton_inverse_mean_p": lambda: wp.inverse_mean(pp, target),
    }


@pytest.mark.parametrize("name", ["moment", "moment_p", "newton_inverse_mean_p"])
def test_moments_and_newton_past_the_double_range_are_domain_errors(name):
    # the one range error, not an OverflowError or a numpy overflow warning (pytest makes it an error here)
    with pytest.raises(ValueError, match="outside the double range: it has degree -[13] in [xy]$"):
        _moments_and_newton_past_the_double_range()[name]()


@pytest.mark.parametrize("family", ["q", "p"])
def test_moments_at_huge_directions_blame_no_input(family):
    # unit-size parameters and directions near 1e200: the moment is past the
    # largest double because of the directions, so the error must not call
    # the parameter too small
    big = [1e200, 1e200], [1e199]
    if family == "q":
        w = wq.WishartQ(ShapeParams(1, [1.5, 1.5]), TridiagSym(2, [1.0, 1.0], [0.2]))
        call = lambda: wq.moment(w, [TridiagSym(2, *big)] * 3)
    else:
        w = wp.WishartP(ShapeParams(1, [0.2, -0.3]), IncompleteSym(2, [1.0, 1.3], [-0.2]))
        call = lambda: wp.moment(w, [IncompleteSym(2, *big)] * 3)
    with pytest.raises(ValueError, match="^the moment is outside the double range: it has degree -3 in [xy]$"):
        call()


@pytest.mark.parametrize("name", ["inverse_mean", "lauritzen_map", "mean_p", "mean", "inverse_image"])
def test_degree_minus_one_outputs_scale_exactly_by_powers_of_two(name):
    # formed at unit scale and scaled back: 2^-1000 in, exactly 2^1000 out
    unit = _degree_minus_one_outputs(np.random.default_rng(37), 9, 4, 1.0)[name]()
    tiny = _degree_minus_one_outputs(np.random.default_rng(37), 9, 4, 2.0**-1000)[name]()
    assert np.array_equal(tiny.coords(), np.ldexp(unit.coords(), 1000))


@pytest.mark.parametrize("c", SCALES)
def test_factors_power_functions_and_samplers_are_scale_invariant(c):
    rng = np.random.default_rng(19)
    n, M = 9, 4
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    p, pp = random_shape_q(rng, n, M), random_shape_p(rng, n, M)
    assert not is_in_P(TridiagSym(3, np.ones(3), [1e200, 0.5]))  # squares overflow a double
    t1, tc = decompose(y, M), decompose(c * y, M)
    for part in ("diag", "sub", "sup"):
        assert_close(getattr(tc, part), math.sqrt(c) * getattr(t1, part))

    def degree(cliq_e, diag_e):  # homogeneity degree of a clique/diagonal power product
        return 2.0 * np.sum(cliq_e) + np.sum(diag_e)

    log_c = math.log(c)
    assert log_Delta_M(p, c * y) == pytest.approx(log_Delta_M(p, y) + np.sum(p.s) * log_c, rel=TOL)
    d_kappa, phi_kappa = degree(*delta_exponents(p.s, M)), degree(*phi_exponents(n))
    assert log_delta_M(p, c * x) == pytest.approx(log_delta_M(p, x) + d_kappa * log_c, rel=TOL)
    assert log_phi(c * x) == pytest.approx(log_phi(x) + phi_kappa * log_c, rel=TOL)
    # every draw has degree -1 in the natural parameter; the streams are the same
    draws = [
        lambda c: wq.sample_many(wq.WishartQ(p, c * y), np.random.default_rng(1), 5),
        lambda c: wp.sample_many(wp.WishartP(pp, c * x), np.random.default_rng(2), 5),
        lambda c: wq.sample_gram_many(MIXED_SETS, c * y, np.random.default_rng(3), 5),
    ]
    for draw in draws:
        assert_close(c * draw(c), draw(1.0))


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
def test_peel_maps_and_trace_checks_are_scale_invariant(c):
    y = TridiagSym(3, [2.0, 3.0, 2.5], [0.5, -0.75])
    x = IncompleteSym(3, [2.0, 3.0, 2.5], [0.5, -0.75])
    for peel, elem in ((phi_inv, y), (phi_tilde_inv, y), (psi_inv, x), (psi_tilde_inv, x)):
        t1, tc = peel(elem), peel(c * elem)
        assert tc.a == pytest.approx(c * t1.a, rel=1e-15)
        assert tc.b == pytest.approx(t1.b, rel=1e-15)
        np.testing.assert_allclose(tc.rest.coords(), c * t1.rest.coords(), rtol=1e-15)
    for check in (trace_decomposition_check, trace_decomposition_check_tilde):
        np.testing.assert_allclose(check(c * y, (1.0 / c) * x), check(y, x), rtol=1e-15)


@pytest.mark.parametrize("c", [1e160, 1e300])
def test_pairing_and_densities_overflow_to_signed_infinities(c):
    rng = np.random.default_rng(29)
    n, M = 5, 3
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    assert pairing(c * y, c * x) == math.inf
    assert pairing(c * y, -(c * x)) == -math.inf
    assert wq.log_density(wq.WishartQ(random_shape_q(rng, n, M), c * y), c * x) == -math.inf
    assert wp.log_density(wp.WishartP(random_shape_p(rng, n, M), c * x), c * y) == -math.inf
    # only a partial sum overflows: the pairing is exact
    assert pairing(TridiagSym(2, [1e308, 1e308], [0.0]), IncompleteSym(2, [10.0, -10.0], [0.0])) == 0.0


# -- no dense algebra on the public path -------------------------------------


def test_closed_forms_run_without_dense_algebra(monkeypatch):
    n, M = 2000, 700
    rng = np.random.default_rng(23)
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    w = wq.WishartQ(random_shape_q(rng, n, M), y)
    wpp = wp.WishartP(random_shape_p(rng, n, M), x)
    u, v = random_pd_tridiag(rng, n), random_q_elem(rng, n)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense algebra on the banded path")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(TridiagSym, "to_dense", forbidden)
    monkeypatch.setattr(LUMMatrix, "to_dense", forbidden)
    m = wq.mean(w)
    assert m.n == n
    assert wq.covariance_apply(w, u).n == n
    assert wq.variance_apply_nice(w.params, m, u).n == n
    assert inverse_image(y).n == n
    assert wq.inverse_mean(w.params, m).n == n
    assert lauritzen_map(x).n == n
    assert wp.mean(wpp).n == n
    assert wp.covariance_apply(wpp, v).n == n
    assert np.isfinite(wq.moment(w, [u, u, u]))
    assert np.isfinite(wp.moment(wpp, [v, v, v]))
    sigma = np.zeros(n, dtype=int)
    sigma[[0, M - 1, n - 1]] = (1, 2, 1)
    assert wq.sample_quadratic_many(sigma, M, y, rng, 2).shape == (2, 2 * n - 1)
    sets = [(1, 40, 2), (300, 1700, 1), (n - 9, n, 3), (900, 900, 1)]
    assert wq.sample_gram_many(sets, y, rng, 2).shape == (2, 2 * n - 1)
    assert np.array_equal(np.diag(hat_completion(m)), m.diag)
    assert hat_via_T(w.params, m).shape == (n, n)
    back = wp.inverse_mean(wpp.params, wp.mean(wpp))
    assert np.max(np.abs(back.coords() - x.coords())) <= 1e-8 * np.max(np.abs(x.coords()))
    # the operator matrices are O(n^2) in size: a shorter chain
    k = 150
    w_k = wq.WishartQ(random_shape_q(rng, k, k // 3), random_pd_tridiag(rng, k))
    wp_k = wp.WishartP(random_shape_p(rng, k, k // 3), random_q_elem(rng, k))
    assert wq.covariance_matrix(w_k).shape == wp.covariance_matrix(wp_k).shape == (2 * k - 1, 2 * k - 1)


# -- one dual-cone sweep per element -----------------------------------------


def test_dual_cone_closed_forms_sweep_each_element_once(monkeypatch):
    """A call sweeps each element of ``Q`` it reads at most once, and a family its own ``x`` once in its lifetime.

    The gap kernel is wrapped wherever a module holds it, so a second cone
    test, atom sweep or clique-inverse sweep of the same element counts.
    Both families are built under the wrap, so the cone test of their
    construction counts too, and each closed form runs twice on them: the
    family's own ``x`` is swept by that test alone.
    """
    from chainwishart import matrix_spaces, power_functions

    n, M = 6, 3
    rng = np.random.default_rng(31)
    x, theta, x_fam = random_q_elem(rng, n), random_q_elem(rng, n), random_q_elem(rng, n)
    sweeps = []
    kernel = matrix_spaces._clique_gaps

    def counted(elem):
        sweeps.append(elem)
        return kernel(elem)

    for mod in (matrix_spaces, power_functions, wq, wp):
        if hasattr(mod, "_clique_gaps"):
            monkeypatch.setattr(mod, "_clique_gaps", counted)
    w = wq.WishartQ(random_shape_q(rng, n, M), random_pd_tridiag(rng, n))
    wpp = wp.WishartP(random_shape_p(rng, n, M), x_fam)
    assert len(sweeps) == 1 and sweeps[0] is x_fam
    # the number of elements of Q each call sweeps: none of the family's own
    calls = {
        "log_density": (lambda: wq.log_density(w, x), 1),
        "log_density_p": (lambda: wp.log_density(wpp, random_pd_tridiag(rng, n)), 0),
        "log_laplace_p": (lambda: wp.log_laplace(wpp, theta), 1),  # theta + x
        "canonical_measure_check": (lambda: wp.canonical_measure_check(x), 1),
        "inverse_mean": (lambda: wq.inverse_mean(w.params, x), 1),
        "mean_p": (lambda: wp.mean(wpp), 0),
        "moment_p": (lambda: wp.moment(wpp, [theta, x]), 0),
        "lauritzen_map": (lambda: lauritzen_map(x), 1),
        "covariance_p_apply": (lambda: wp.covariance_apply(wpp, theta), 0),
        "covariance_p_matrix": (lambda: wp.covariance_matrix(wpp), 0),
    }
    for name, (call, expected) in calls.items():
        for _ in range(2):
            sweeps.clear()
            call()
            assert len(sweeps) == expected, name
            assert len({id(e) for e in sweeps}) == len(sweeps), name
            assert not any(e is x_fam for e in sweeps), name


def test_kernel_outputs_skip_the_validating_constructor(monkeypatch):
    # the means, inverse means and Lauritzen map are stored as the kernels
    # form them, finite by construction: no copy, reshape or finite check
    from chainwishart import matrix_spaces

    n, M = 6, 3
    rng = np.random.default_rng(41)
    w = wq.WishartQ(random_shape_q(rng, n, M), random_pd_tridiag(rng, n))
    wpp = wp.WishartP(random_shape_p(rng, n, M), random_q_elem(rng, n))
    x = random_q_elem(rng, n)
    validated = []
    kernel = matrix_spaces._as_vector

    def counted(*args):
        validated.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(matrix_spaces, "_as_vector", counted)
    for call in (lambda: wq.mean(w), lambda: wp.mean(wpp), lambda: wq.inverse_mean(w.params, x),
                 lambda: lauritzen_map(x)):
        out = call()
        assert np.all(np.isfinite(out.coords()))
    assert validated == []
