import re

import numpy as np
import pytest

from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    _peel_core,
    hat_completion,
    inverse_image,
    is_in_P,
    is_in_Q,
    pairing,
    project_pi,
)
from chainwishart.power_functions import ShapeParams, homogeneity_degree
from chainwishart.verification import (
    coordinate_weights,
    cov_coords_from_operator,
    ks_test_gamma,
    stream_rng,
)

from _gen import (
    importance_mass,
    random_pd_tridiag,
    random_q_elem,
    random_shape_q,
    reference_q_draws,
    scalar_moment3_closed_form,
)


def test_family_validates_domain_and_cone():
    y = TridiagSym(2, [1, 1], [0])
    with pytest.raises(ValueError):
        wq.WishartQ(ShapeParams(2, [0.4, 1.0]), y)
    with pytest.raises(ConeError):
        wq.WishartQ(ShapeParams(2, [1.0, 1.0]), TridiagSym(2, [1, 1], [2]))


def test_a_family_decides_the_cone_of_y_by_its_peel_toward_the_pivot():
    # y passes the LDL test (pivots toward n), but its peel toward M = 2 meets a
    # determinant pivot of 5e-13, inside the 1e-12 margin: the family is refused
    # at construction, not by its first mean or draw
    y = TridiagSym(3, [1, 1, 1], [0.999, np.sqrt(1 - 0.999 * 0.999 - 5e-13)])
    assert is_in_P(y)
    with pytest.raises(ConeError, match=re.escape(
            "y is not positive definite: the determinant (pivot 5e-13) is not positive")):
        wq.WishartQ(ShapeParams(2, [1, 1, 1]), y)


def test_log_norm_constant_examples():
    assert wq.log_norm_constant(ShapeParams(1, [1.0])) == pytest.approx(0.0)
    assert wq.log_norm_constant(ShapeParams(2, [1.0, 1.0])) == pytest.approx(-np.log(np.pi))
    with pytest.raises(ValueError):
        wq.log_norm_constant(ShapeParams(2, [0.5, 1.0]))


def test_density_normalizes_by_independent_importance_sampling():
    w = wq.WishartQ(ShapeParams(2, [1.4, 1.1]), TridiagSym(2, [1.2, 0.9], [0.3]))
    rng = stream_rng(42)
    d, off, log_ref = reference_q_draws(rng, 2, 40_000)
    vals = np.array(
        [wq.log_density(w, IncompleteSym(2, d[i], off[i])) for i in range(d.shape[0])]
    )
    est, se = importance_mass(vals, log_ref)
    assert abs(est - 1.0) < 4.0 * se


def test_log_density_examples():
    w = wq.WishartQ(ShapeParams(1, [1.0]), TridiagSym(1, [1.0], []))
    # one-vertex unit-shape family is Exponential(1)
    for xv in (0.2, 1.0, 3.7):
        assert wq.log_density(w, IncompleteSym(1, [xv], [])) == pytest.approx(-xv)
    assert wq.log_density(w, IncompleteSym(1, [-1.0], [])) == -np.inf
    # n = 2 grid check against the directly assembled formula
    w2 = wq.WishartQ(ShapeParams(2, [1.5, 0.8]), TridiagSym(2, [1.0, 1.5], [0.4]))
    from chainwishart.power_functions import log_delta_M, log_Delta_M, log_phi

    for d1 in (0.5, 1.0):
        for d2 in (0.7, 2.0):
            for o in (-0.3, 0.2):
                x = IncompleteSym(2, [d1, d2], [o])
                expect = (
                    wq.log_norm_constant(w2.params)
                    - pairing(w2.y, x)
                    + log_Delta_M(w2.params, w2.y)
                    + log_delta_M(w2.params, x)
                    + log_phi(x)
                )
                assert wq.log_density(w2, x) == pytest.approx(expect)


def test_log_laplace_examples():
    w = wq.WishartQ(ShapeParams(1, [1.0]), TridiagSym(1, [1.0], []))
    assert wq.log_laplace(w, TridiagSym(1, [0.0], [])) == pytest.approx(0.0)
    assert wq.log_laplace(w, TridiagSym(1, [1.0], [])) == pytest.approx(np.log(0.5))
    w2 = wq.WishartQ(ShapeParams(2, [1.0, 1.0]), TridiagSym(2, [1, 1], [0]))
    with pytest.raises(ConeError):
        wq.log_laplace(w2, TridiagSym(2, [-2.0, 0.0], [0.0]))


def test_mean_examples():
    rng = np.random.default_rng(40)
    for n in (1, 3, 6):
        y = random_pd_tridiag(rng, n)
        for m in (1, n):
            w = wq.WishartQ(ShapeParams(m, np.ones(n)), y)
            assert np.allclose(wq.mean(w).coords(), inverse_image(y).coords(), rtol=1e-10)
    w = wq.WishartQ(ShapeParams(2, [1.7, 0.9]), TridiagSym(2, [1, 1], [0]))
    assert wq.mean(w).allclose(IncompleteSym(2, [1.7, 0.9], [0.0]))
    # the mean lands inside the dual cone
    rng2 = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng2.integers(1, 7))
        m = int(rng2.integers(1, n + 1))
        w = wq.WishartQ(random_shape_q(rng2, n, m), random_pd_tridiag(rng2, n))
        assert is_in_Q(wq.mean(w))


def test_pairing_with_parameter():
    rng = np.random.default_rng(42)
    for n in (1, 2, 5):
        for m in range(1, n + 1):
            p = random_shape_q(rng, n, m)
            k1 = wq.pairing_with_parameter(wq.WishartQ(p, random_pd_tridiag(rng, n)))
            k2 = wq.pairing_with_parameter(wq.WishartQ(p, random_pd_tridiag(rng, n)))
            assert abs(k1 - k2) <= 1e-9 * max(1.0, abs(k1))
            assert k1 == pytest.approx(homogeneity_degree(p), rel=1e-9)
            if np.allclose(p.s, 1.0):
                assert k1 == pytest.approx(n)


def test_covariance_scalar_case_and_fd():
    # one vertex: v(y) u = s u / y^2
    w = wq.WishartQ(ShapeParams(1, [1.3]), TridiagSym(1, [2.0], []))
    u = TridiagSym(1, [0.7], [])
    assert wq.covariance_apply(w, u).diag[0] == pytest.approx(1.3 * 0.7 / 4.0)
    # finite differences of the mean map
    from chainwishart.verification import fd_jacobian

    rng = np.random.default_rng(43)
    n, m = 4, 3
    y = random_pd_tridiag(rng, n)
    p = random_shape_q(rng, n, m)
    w = wq.WishartQ(p, y)

    def mean_map(c):
        return wq.mean_formula(p, TridiagSym.from_coords(c)).coords()

    jac = fd_jacobian(mean_map, y.coords())
    v = wq.covariance_matrix(w)
    assert np.max(np.abs(v + jac)) <= 1e-5 * np.max(np.abs(v))


def test_inverse_mean_examples_and_round_trips():
    rng = np.random.default_rng(44)
    # unit shape reduces to the Lauritzen bijection
    for n in (1, 2, 5):
        x = random_q_elem(rng, n)
        from chainwishart.matrix_spaces import lauritzen_map

        for m in range(1, n + 1):
            got = wq.inverse_mean(ShapeParams(m, np.ones(n)), x)
            assert got.allclose(lauritzen_map(x), rtol=1e-10, atol=1e-10)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        p = random_shape_q(rng, n, m)
        y = random_pd_tridiag(rng, n)
        w = wq.WishartQ(p, y)
        mn = wq.mean(w)
        back = wq.inverse_mean(p, mn)
        assert np.allclose(back.coords(), y.coords(), rtol=1e-8, atol=1e-10)
        fwd = wq.mean_formula(p, back)
        assert np.allclose(fwd.coords(), mn.coords(), rtol=1e-8, atol=1e-10)


def test_shape_identity_for_mean_composition():
    # log delta_s(m(y)) = sum_i s_i log s_i + log Delta_{-s}(y)
    from chainwishart.power_functions import log_delta_M, log_Delta_M

    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, n + 1))
        p = random_shape_q(rng, n, m)
        y = random_pd_tridiag(rng, n)
        w = wq.WishartQ(p, y)
        lhs = log_delta_M(p, wq.mean(w))
        rhs = float(np.sum(p.s * np.log(p.s))) + log_Delta_M(ShapeParams(m, -p.s), y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_variance_formulas():
    rng = np.random.default_rng(46)
    # scalar shape collapses to (1/p) P(hat)
    n = 4
    m_elem = random_q_elem(rng, n)
    pval = 1.7
    p = ShapeParams(2, pval * np.ones(n))
    h = hat_completion(m_elem)
    for _ in range(5):
        u = TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1))
        got = wq.variance_apply_nice(p, m_elem, u)
        expect = project_pi(h @ u.to_dense() @ h)
        assert np.allclose(got.coords(), expect.coords() / pval, rtol=1e-10, atol=1e-12)
        got2 = wq.variance_apply_expanded(p, m_elem, u)
        assert np.allclose(got2.coords(), got.coords(), rtol=1e-10, atol=1e-12)
    # identity pattern at unit shape: V(m)u = pi(u)
    eye = IncompleteSym(3, np.ones(3), np.zeros(2))
    p1 = ShapeParams(2, np.ones(3))
    u = TridiagSym(3, [0.3, -0.2, 1.1], [0.4, -0.6])
    assert wq.variance_apply_nice(p1, eye, u).coords() == pytest.approx(u.coords())
    # one vertex: V(m)u = u m^2 / s
    p0 = ShapeParams(1, [2.2])
    got = wq.variance_apply_expanded(p0, IncompleteSym(1, [1.5], []), TridiagSym(1, [1.0], []))
    assert got.diag[0] == pytest.approx(1.5**2 / 2.2)


def test_variance_three_way_agreement():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        p = random_shape_q(rng, n, m)
        y = random_pd_tridiag(rng, n)
        w = wq.WishartQ(p, y)
        mn = wq.mean(w)
        v = wq.covariance_matrix(w)
        v_nice = wq.operator_matrix(lambda u: wq.variance_apply_nice(p, mn, u), n)
        v_exp = wq.operator_matrix(lambda u: wq.variance_apply_expanded(p, mn, u), n)
        scale = np.max(np.abs(v))
        assert np.max(np.abs(v_nice - v)) <= 1e-8 * scale
        assert np.max(np.abs(v_exp - v)) <= 1e-8 * scale


def test_intertwining():
    rng = np.random.default_rng(48)
    # unit shape: both sides recover m itself
    m_elem = random_q_elem(rng, 4)
    lhs, rhs = wq.intertwining_check(ShapeParams(2, np.ones(4)), m_elem)
    assert np.allclose(lhs.coords(), m_elem.coords(), rtol=1e-10)
    assert np.allclose(rhs.coords(), m_elem.coords(), rtol=1e-10)
    # the quoted four-vertex case
    p = ShapeParams(2, [2.0, 3.0, 1.0, 2.0])
    m4 = random_q_elem(rng, 4)
    lhs, rhs = wq.intertwining_check(p, m4)
    assert np.max(np.abs(lhs.coords() - rhs.coords())) < 1e-9
    # one vertex scalar algebra: psi(m) = s/m, both sides m/s
    lhs, rhs = wq.intertwining_check(ShapeParams(1, [2.0]), IncompleteSym(1, [0.5], []))
    assert lhs.diag[0] == pytest.approx(0.25)
    assert rhs.diag[0] == pytest.approx(0.25)


def test_sampler_base_cases_ks():
    w = wq.WishartQ(ShapeParams(1, [1.0]), TridiagSym(1, [1.0], []))
    draws = wq.sample_many(w, stream_rng(7), 10_000)[:, 0]
    assert ks_test_gamma(draws, 1.0, 1.0) > 0.01
    # power: the wrong rate must be detected decisively
    assert ks_test_gamma(draws, 1.0, 2.0) < 1e-6
    w2 = wq.WishartQ(ShapeParams(1, [0.75]), TridiagSym(1, [1.0], []))
    draws2 = wq.sample_many(w2, stream_rng(8), 10_000)[:, 0]
    assert ks_test_gamma(draws2, 0.75, 1.0) > 0.01


def test_sampler_matches_mean_small():
    rng = np.random.default_rng(49)
    n = 3
    for m in (1, 2, 3):
        y = random_pd_tridiag(rng, n)
        p = random_shape_q(rng, n, m)
        w = wq.WishartQ(p, y)
        draws = wq.sample_many(w, stream_rng(50 + m), 40_000)
        th = wq.mean(w).coords()
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.max(np.abs(draws.mean(axis=0) - th) / se) < 4.0
        # draws stay in the cone
        assert all(is_in_Q(IncompleteSym.from_coords(c)) for c in draws[:500])


def test_sample_single_draw_and_determinism():
    w = wq.WishartQ(ShapeParams(2, [1.0, 1.0]), TridiagSym(2, [1, 1], [0]))
    a = wq.Point.from_coords(wq.sample_many(w, stream_rng(99), 1)[0])
    b = wq.Point.from_coords(wq.sample_many(w, stream_rng(99), 1)[0])
    assert np.array_equal(a.coords(), b.coords())
    assert is_in_Q(a)


def test_sample_is_the_row_of_a_one_draw_sample_many():
    w = wq.WishartQ(ShapeParams(2, [1.2, 0.9, 1.6]), TridiagSym(3, [2.0, 2.5, 1.8], [0.3, -0.4]))
    one = wq.Point.from_coords(wq.sample_many(w, stream_rng(41), 1)[0])
    assert type(one) is IncompleteSym
    assert np.array_equal(one.coords(), wq.sample_many(w, stream_rng(41), 1)[0])


def test_sample_quadratic_is_the_row_of_a_one_draw_sample_quadratic_many():
    y = TridiagSym(3, [2.0, 2.5, 1.8], [0.3, -0.4])
    one = wq.Point.from_coords(wq.sample_quadratic_many([2, 2, 1], 2, y, stream_rng(43), 1)[0])
    assert type(one) is IncompleteSym
    assert np.array_equal(one.coords(), wq.sample_quadratic_many([2, 2, 1], 2, y, stream_rng(43), 1)[0])


def test_sigma_shape_link():
    p = wq.sigma_to_shape([0, 0, 2], 3)
    assert p.s == pytest.approx([1.0, 1.0, 1.0])
    sigma = wq.shape_to_sigma(wq.sigma_to_shape([2, 2, 1], 2))
    assert sigma == pytest.approx([2, 2, 1])
    for bad in ([0, 0, 0], [1, -1, 0], [1, 1]):
        with pytest.raises(ValueError):
            wq.basic_index_sets(bad, 2, 3)
    for bad in ([1, 1.5, 0], [1, np.nan, 0], [1, np.inf, 0]):
        with pytest.raises(TypeError, match="sigma must be an integral number"):
            wq.basic_index_sets(bad, 2, 3)
    assert wq.basic_index_sets(np.array([2.0, 0.0, 1.0]), 2, 3) == [(1, 1, 2), (3, 3, 1)]


GRAM_Y = TridiagSym(3, [2.0, 2.0, 2.0], [0.5, 0.5])


@pytest.mark.parametrize("mult, error, text", [
    (-1, ValueError, r"multiplicity -1 of interval \(1, 2\) is not a nonnegative integer"),
    (1.5, TypeError, "multiplicity must be an integral number, got 1.5"),
    ("2", TypeError, "multiplicity must be an integral number, got '2'"),
    (None, TypeError, "multiplicity must be an integral number, got None"),
], ids=["-1", "1.5", "2", "None"])
def test_gram_sampler_rejects_a_multiplicity_that_is_no_nonnegative_integer(mult, error, text):
    with pytest.raises(error, match=text):
        wq.sample_gram_many([(1, 2, mult)], GRAM_Y, np.random.default_rng(0), 4)


@pytest.mark.parametrize("interval", [(0, 0), (4, 4), (2, 1), (0, 2), (1, 4)])
def test_gram_sampler_rejects_an_interval_outside_the_chain(interval):
    with pytest.raises(ValueError, match="invalid interval"):
        wq.sample_gram_many([(*interval, 1)], GRAM_Y, np.random.default_rng(0), 4)


@pytest.mark.parametrize("lo, hi", [(1.5, 2), (1, "2")])
def test_gram_sampler_rejects_a_bound_that_is_no_integral_number(lo, hi):
    with pytest.raises(TypeError, match="must be an integral number"):
        wq.sample_gram_many([(lo, hi, 1)], GRAM_Y, np.random.default_rng(0), 4)


def test_gram_sampler_reads_integral_float_bounds_and_multiplicities_as_integers():
    want = wq.sample_gram_many([(1, 2, 2)], GRAM_Y, np.random.default_rng(0), 4)
    got = wq.sample_gram_many([(1.0, np.float64(2.0), 2.0)], GRAM_Y, np.random.default_rng(0), 4)
    assert np.array_equal(got, want)


def test_the_quadratic_sampler_decides_the_cone_of_y_by_one_peel_before_any_draw():
    # y passes the LDL test (pivots toward n), but the whole chain's peel toward
    # vertex 1 meets a determinant pivot of 5.01e-13, inside the 1e-12 margin
    y = TridiagSym(3, [1, 1, 1], [0.999, np.sqrt(1 - 0.999 * 0.999 - 5e-13)])
    assert is_in_P(y)
    rng = stream_rng(59)
    state = rng.bit_generator.state
    with pytest.raises(ConeError, match=re.escape(
            "y is not positive definite: the determinant (pivot 5.01044e-13) is not positive")):
        wq.sample_quadratic_many([1, 2, 1], 2, y, rng, 4)
    assert rng.bit_generator.state == state


def near_boundary_p(rng, n, scale):
    """``scale`` times a tridiagonal element built from its peel toward vertex 1, about 30% of its pivots tiny."""
    a = np.where(rng.random(n) < 0.3, 10.0 ** rng.uniform(-13, -11, n), rng.uniform(0.01, 1, n))
    off = rng.uniform(-1, 1, n - 1) * np.sqrt(a[1:])
    diag = a.copy()
    diag[:-1] += off**2 / a[1:]
    return TridiagSym(n, scale * diag, scale * off)


def test_every_interval_peel_passes_once_the_whole_chains_peel_has():
    # an interval's pivots toward its first vertex are at least the whole chain's,
    # so the sampler's only cone decision is the peel of the whole chain
    rng = np.random.default_rng(20261020)
    accepted = 0
    for case in range(2000):
        n = int(rng.integers(2, 11))
        y = near_boundary_p(rng, n, (1e-200, 1.0, 1e200)[case % 3])
        try:
            _peel_core(y.diag, y.off, 1)
        except ConeError:
            continue
        accepted += 1
        intervals = [(lo, hi, 1) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        wq.sample_gram_many(intervals, y, rng, 1)
    assert 500 < accepted < 1500  # members on both sides of the margin


def test_quadratic_sampler_saturated_case():
    # sigma = (0, .., 0, 2) at pivot n gives the unit-shape family: mean pi(y^{-1})
    rng = np.random.default_rng(51)
    n = 3
    y = random_pd_tridiag(rng, n)
    draws = wq.sample_quadratic_many([0, 0, 2], n, y, stream_rng(52), 60_000)
    th = inverse_image(y).coords()
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.max(np.abs(draws.mean(axis=0) - th) / se) < 4.0


def test_quadratic_single_term_expectation():
    # one interval piece has mean (1/2) pi([(y_I)^{-1}]^0)
    rng = np.random.default_rng(53)
    y = random_pd_tridiag(rng, 4)
    draws = wq.sample_gram_many([(2, 4, 1)], y, stream_rng(54), 60_000)
    yd = y.to_dense()
    a = np.zeros((4, 4))
    a[1:, 1:] = np.linalg.inv(yd[1:, 1:])
    th = 0.5 * project_pi(a).coords()
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    se[se == 0] = 1.0
    assert np.max(np.abs(draws.mean(axis=0) - th) / se) < 4.0


def test_quadratic_vs_recursive_cross_oracle():
    rng = np.random.default_rng(55)
    y = random_pd_tridiag(rng, 3)
    sigma, m = np.array([2, 2, 1]), 2
    p = wq.sigma_to_shape(sigma, m)
    w = wq.WishartQ(p, y)
    a = wq.sample_many(w, stream_rng(56), 80_000)
    b = wq.sample_quadratic_many(sigma, m, y, stream_rng(57), 80_000)
    for j in range(a.shape[1]):
        sa = a[:, j].std(ddof=1) / np.sqrt(a.shape[0])
        sb = b[:, j].std(ddof=1) / np.sqrt(b.shape[0])
        z = (a[:, j].mean() - b[:, j].mean()) / np.hypot(sa, sb)
        assert abs(z) < 4.0


def test_moment_low_orders_and_cap():
    rng = np.random.default_rng(58)
    n, m = 3, 2
    y = random_pd_tridiag(rng, n)
    p = random_shape_q(rng, n, m)
    w = wq.WishartQ(p, y)
    zs = [TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    mn = wq.mean(w)
    m1 = wq.moment(w, zs[:1])
    assert m1 == pytest.approx(pairing(zs[0], mn), rel=1e-12)
    m2 = wq.moment(w, zs[:2])
    expect2 = pairing(zs[1], wq.covariance_apply(w, zs[0])) + pairing(zs[0], mn) * pairing(
        zs[1], mn
    )
    assert m2 == pytest.approx(expect2, rel=1e-12)
    with pytest.raises(ValueError, match="moment order 7 above cap 6"):
        wq.moment(w, zs * 2 + zs[:1])


def test_moment_scalar_shape_closed_form():
    rng = np.random.default_rng(59)
    n = 4
    y = random_pd_tridiag(rng, n)
    zs = [TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    for sval in (0.9, 1.6):
        w = wq.WishartQ(ShapeParams(3, sval * np.ones(n)), y)
        got = wq.moment(w, zs)
        assert got == pytest.approx(scalar_moment3_closed_form(sval, y, zs), rel=1e-9)


def test_moment_vs_mc():
    rng = np.random.default_rng(60)
    n, m = 3, 2
    y = random_pd_tridiag(rng, n)
    p = random_shape_q(rng, n, m)
    w = wq.WishartQ(p, y)
    zs = [TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    theory = wq.moment(w, zs)
    draws = wq.sample_many(w, stream_rng(61), 100_000)
    wts = coordinate_weights(n)
    prods = np.prod([draws @ (wts * z.coords()) for z in zs], axis=0)
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    assert abs(prods.mean() - theory) < 4.0 * se


def test_covariance_matches_empirical():
    rng = np.random.default_rng(62)
    n, m = 3, 2
    y = random_pd_tridiag(rng, n)
    w = wq.WishartQ(random_shape_q(rng, n, m), y)
    draws = wq.sample_many(w, stream_rng(63), 100_000)
    th = cov_coords_from_operator(wq.covariance_matrix(w), n)
    emp = np.cov(draws, rowvar=False)
    # crude 4-SE envelope via batch spread
    batches = np.array_split(draws, 50)
    covs = np.stack([np.cov(b, rowvar=False) for b in batches])
    se = covs.std(axis=0, ddof=1) / np.sqrt(50)
    assert np.max(np.abs(emp - th) / se) < 4.0


def test_moment_order2_matches_covariance_matrix_entries():
    # on basis pairs, the order-2 moment minus the mean product reproduces the
    # materialized covariance operator entry for entry
    from chainwishart.matrix_spaces import zg_basis

    rng = np.random.default_rng(64)
    n, m = 3, 2
    y = random_pd_tridiag(rng, n)
    w = wq.WishartQ(random_shape_q(rng, n, m), y)
    mn = wq.mean(w)
    v = wq.covariance_matrix(w)
    wts = coordinate_weights(n)
    for j in range(2 * n - 1):
        for k in range(2 * n - 1):
            ej, ek = zg_basis(n, j), zg_basis(n, k)
            m2 = wq.moment(w, [ej, ek])
            cov_jk = m2 - pairing(ej, mn) * pairing(ek, mn)
            # <v(e_j), e_k> corresponds to w_k * V[k, j] in coordinates
            assert cov_jk == pytest.approx(wts[k] * v[k, j], rel=1e-9, abs=1e-12)


def test_all_q_draws_land_in_dual_cone():
    rng = np.random.default_rng(65)
    y = random_pd_tridiag(rng, 4)
    w = wq.WishartQ(random_shape_q(rng, 4, 3), y)
    coords = wq.sample_many(w, stream_rng(66), 100_000)
    d = coords[:, :4]
    o = coords[:, 4:]
    assert np.all(d > 0)
    assert np.all(d[:, :-1] * d[:, 1:] - o**2 > 0)


def test_moment_high_orders_reduce_to_gamma_raw_moments():
    # one vertex: the cycle expansion over S_5 and S_6 must reproduce the
    # Gamma(s, rate) raw moments s(s+1)...(s+N-1)/rate^N exactly
    from math import prod

    w = wq.WishartQ(ShapeParams(1, [1.5]), TridiagSym(1, [2.0], []))
    z = TridiagSym(1, [1.0], [])
    for order in (4, 5, 6):
        got = wq.moment(w, [z] * order)
        exact = prod(1.5 + k for k in range(order)) / 2.0**order
        assert got == pytest.approx(exact, rel=1e-12)
