import hashlib

import numpy as np
import pytest

from chainwishart import wishart_p as wp
from chainwishart.matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    is_in_P,
    pairing,
)
from chainwishart.power_functions import ShapeParams
from chainwishart.verification import (
    coordinate_weights,
    cov_coords_from_operator,
    fd_jacobian,
    ks_test_gamma,
    stream_rng,
)

from _gen import importance_mass, random_q_elem, random_shape_p


def test_family_validates_domain_and_cone():
    x = IncompleteSym(2, [1, 1], [0])
    with pytest.raises(ValueError):
        wp.WishartP(ShapeParams(2, [-1.6, 0.0]), x)
    with pytest.raises(ValueError):
        wp.WishartP(ShapeParams(2, [0.0, -1.0]), x)
    with pytest.raises(ConeError):
        wp.WishartP(ShapeParams(2, [0.0, 0.0]), IncompleteSym(2, [1, 1], [2]))


def test_log_norm_constant_p_examples():
    assert wp.log_norm_constant_p(ShapeParams(1, [0.0])) == pytest.approx(0.0)
    assert wp.log_norm_constant_p(ShapeParams(2, [0.0, 0.0])) == pytest.approx(
        -np.log(np.pi / 2.0)
    )


def test_density_p_normalizes_by_independent_importance_sampling():
    w = wp.WishartP(ShapeParams(1, [0.2, -0.3]), IncompleteSym(2, [1.0, 1.3], [-0.2]))
    rng = stream_rng(44)
    from _gen import reference_q_draws  # P in n=2 has the same support geometry

    d, off, log_ref = reference_q_draws(rng, 2, 40_000)
    vals = np.array(
        [wp.log_density_p(w, TridiagSym(2, d[i], off[i])) for i in range(d.shape[0])]
    )
    est, se = importance_mass(vals, log_ref)
    assert abs(est - 1.0) < 4.0 * se


def test_log_density_p_examples():
    w = wp.WishartP(ShapeParams(1, [0.0]), IncompleteSym(1, [1.0], []))
    for yv in (0.1, 1.0, 2.5):
        assert wp.log_density_p(w, TridiagSym(1, [yv], [])) == pytest.approx(-yv)
    assert wp.log_density_p(w, TridiagSym(1, [-0.5], [])) == -np.inf
    # n = 2 grid check against the directly assembled formula
    from chainwishart.power_functions import log_delta_M, log_Delta_M, log_phi

    w2 = wp.WishartP(ShapeParams(2, [0.4, -0.2]), IncompleteSym(2, [1.0, 1.5], [0.4]))
    neg = ShapeParams(2, -w2.params.s)
    for d1 in (0.5, 1.2):
        for o in (-0.2, 0.3):
            y = TridiagSym(2, [d1, 1.1], [o])
            expect = (
                wp.log_norm_constant_p(w2.params)
                + log_Delta_M(w2.params, y)
                - pairing(y, w2.x)
                - (log_delta_M(neg, w2.x) + log_phi(w2.x))
            )
            assert wp.log_density_p(w2, y) == pytest.approx(expect)


def test_log_laplace_p_examples():
    w = wp.WishartP(ShapeParams(1, [0.7]), IncompleteSym(1, [1.0], []))
    assert wp.log_laplace_p(w, IncompleteSym(1, [0.0], [])) == pytest.approx(0.0)
    # Gamma(s+1, x) transform: theta = x = 1 gives (s+1) log(1/2)
    assert wp.log_laplace_p(w, IncompleteSym(1, [1.0], [])) == pytest.approx(1.7 * np.log(0.5))
    w2 = wp.WishartP(ShapeParams(1, [0.0, 0.0]), IncompleteSym(2, [1, 1], [0]))
    with pytest.raises(ConeError):
        wp.log_laplace_p(w2, IncompleteSym(2, [-2.0, 0.0], [0.0]))


def test_mean_p_examples():
    # one vertex: Gamma(s+1, x) mean
    w = wp.WishartP(ShapeParams(1, [0.3]), IncompleteSym(1, [2.0], []))
    assert wp.mean_p(w).diag[0] == pytest.approx(1.3 / 2.0)
    # two vertices at zero shape, identity-pattern parameter
    w2 = wp.WishartP(ShapeParams(2, [0.0, 0.0]), IncompleteSym(2, [1, 1], [0]))
    assert wp.mean_p(w2).allclose(TridiagSym(2, [1.5, 1.5], [0.0]))
    # mean lands inside the cone
    rng = np.random.default_rng(70)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        w3 = wp.WishartP(random_shape_p(rng, n, m), random_q_elem(rng, n))
        assert is_in_P(wp.mean_p(w3))


def test_covariance_p_scalar_and_fd():
    w = wp.WishartP(ShapeParams(1, [0.5]), IncompleteSym(1, [2.0], []))
    u = IncompleteSym(1, [0.6], [])
    assert wp.covariance_p_apply(w, u).diag[0] == pytest.approx(1.5 * 0.6 / 4.0)
    rng = np.random.default_rng(71)
    for n, m in ((3, 2), (4, 1), (4, 4)):
        x = random_q_elem(rng, n)
        p = random_shape_p(rng, n, m)
        w = wp.WishartP(p, x)

        def mean_map(c):
            return wp.mean_p_formula(p, IncompleteSym.from_coords(c)).coords()

        jac = fd_jacobian(mean_map, x.coords())
        v = wp.covariance_p_matrix(w)
        assert np.max(np.abs(v + jac)) <= 1e-5 * np.max(np.abs(v))


def test_sampler_p_base_case_and_cone():
    w = wp.WishartP(ShapeParams(1, [0.0]), IncompleteSym(1, [1.0], []))
    draws = wp.sample_p_many(w, stream_rng(72), 10_000)[:, 0]
    assert ks_test_gamma(draws, 1.0, 1.0) > 0.01
    rng = np.random.default_rng(73)
    for m in (1, 2, 3):
        x = random_q_elem(rng, 3)
        p = random_shape_p(rng, 3, m)
        w = wp.WishartP(p, x)
        coords = wp.sample_p_many(w, stream_rng(74 + m), 20_000)
        assert all(is_in_P(TridiagSym.from_coords(c)) for c in coords[:2000])
        th = wp.mean_p(w).coords()
        se = coords.std(axis=0, ddof=1) / np.sqrt(coords.shape[0])
        assert np.max(np.abs(coords.mean(axis=0) - th) / se) < 4.0


def test_sample_p_is_the_row_of_a_one_draw_sample_p_many():
    w = wp.WishartP(ShapeParams(2, [0.3, -0.2, 0.8]), IncompleteSym(3, [1.0, 1.5, 0.8], [0.2, -0.3]))
    one = wp.sample_p(w, stream_rng(47))
    assert type(one) is TridiagSym
    assert np.array_equal(one.coords(), wp.sample_p_many(w, stream_rng(47), 1)[0])


def test_covariance_p_matches_empirical():
    rng = np.random.default_rng(75)
    x = random_q_elem(rng, 3)
    w = wp.WishartP(random_shape_p(rng, 3, 2), x)
    draws = wp.sample_p_many(w, stream_rng(76), 100_000)
    th = cov_coords_from_operator(wp.covariance_p_matrix(w), 3)
    batches = np.array_split(draws, 50)
    covs = np.stack([np.cov(b, rowvar=False) for b in batches])
    emp = covs.mean(axis=0)
    se = covs.std(axis=0, ddof=1) / np.sqrt(50)
    assert np.max(np.abs(emp - th) / se) < 4.0


def test_quadratic_params_examples():
    alpha, beta = wp.quadratic_params_p(ShapeParams(2, [0.0, 0.0, 0.0]))
    assert alpha == pytest.approx([3.0, 3.0])
    assert beta == pytest.approx([0.0, -2.0, 0.0])
    # structural zeros at the chain ends for interior pivots
    rng = np.random.default_rng(77)
    for n in (3, 4, 6):
        for m in range(2, n):
            p = random_shape_p(rng, n, m)
            _, beta = wp.quadratic_params_p(p)
            assert beta[0] == 0.0 and beta[-1] == 0.0
    # round trip through the shape-solving direction
    for n in (1, 2, 3, 5):
        for m in range(1, n + 1):
            p = random_shape_p(rng, n, m)
            alpha, beta = wp.quadratic_params_p(p)
            back = wp.quadratic_params_p_inverse(alpha, beta, m)
            assert np.allclose(back.s, p.s, rtol=1e-10, atol=1e-12)


def test_integer_feasibility():
    # no true quadratic parameterization for four or more vertices
    for n in (4, 5, 6):
        feasible, witness = wp.integer_feasibility_p(n, max_entry=20)
        assert not feasible and witness is None
    # small chains do admit one; report the witness shape
    for n in (1, 2, 3):
        feasible, witness = wp.integer_feasibility_p(n, max_entry=20)
        assert feasible
        p = ShapeParams(witness["M"], witness["s"])
        assert p.in_p_domain()
        alpha, beta = wp.quadratic_params_p(p)
        assert np.allclose(alpha, witness["alpha"]) and np.allclose(beta, witness["beta"])
        assert all(int(a) == a and a >= 0 for a in witness["alpha"])
        assert all(int(b) == b and b >= 0 for b in witness["beta"])


def test_integer_feasibility_pin():
    # sha256 of the repr of every answer over n in 1..10, max_entry in
    # {-1, 0, 1, 2, 3, 20} and both flags, recorded from the nested search
    # over pivots, twice-shapes and multiplicities that the closed
    # construction replaced
    grid = [wp.integer_feasibility_p(n, max_entry=m, require_positive=r)
            for n in range(1, 11) for m in (-1, 0, 1, 2, 3, 20) for r in (True, False)]
    digest = hashlib.sha256(repr(grid).encode()).hexdigest()
    assert digest == "affdaaa48236ab364c9429d981ada51bafac60c0990ced3a07a5c2a04eb48307"
    for n in (0, -1):
        with pytest.raises(ValueError):
            wp.integer_feasibility_p(n)
    with pytest.raises(TypeError):
        wp.integer_feasibility_p(2.5)
    with pytest.raises(TypeError):
        wp.integer_feasibility_p(3, max_entry=2.0)


def test_integer_feasibility_boundary_convention():
    # allowing zero multiplicities admits the boundary solution s_j = -1
    # (alpha_j = 1 with the compensating one-dimensional piece absent), so the
    # infeasibility statement holds only for genuinely present pieces
    feasible, witness = wp.integer_feasibility_p(4, require_positive=False)
    assert feasible
    p = ShapeParams(witness["M"], witness["s"])
    assert p.in_p_domain()
    alpha, beta = wp.quadratic_params_p(p)
    assert np.allclose(alpha, witness["alpha"]) and np.allclose(beta, witness["beta"])
    assert min(witness["alpha"]) >= 1
    assert min(witness["beta"]) == 0


def test_quadratic_witness_samples_correctly():
    # the zero-allowed witness is a genuine construction: simulate it and
    # compare against the closed-form mean of the matching family
    feasible, witness = wp.integer_feasibility_p(4, require_positive=False)
    assert feasible
    p = ShapeParams(witness["M"], witness["s"])
    rng = np.random.default_rng(78)
    x = random_q_elem(rng, 4)
    w = wp.WishartP(p, x)
    sets = []
    for b, a in enumerate(witness["alpha"], start=1):
        if a > 0:
            sets.append((b, b + 1, int(a)))
    for j, bb in enumerate(witness["beta"], start=1):
        if bb > 0:
            sets.append((j, j, int(bb)))
    # Gram pieces tilted by x live on the dual side of the P-family:
    # v_I ~ N(0, (2 x_I)^{-1}) summed over pieces gives a draw of Y
    xd_diag = x.diag
    draws = np.zeros((60_000, 7))
    for lo, hi, mult in sets:
        k = hi - lo + 1
        if k == 1:
            cov = 1.0 / (2.0 * xd_diag[lo - 1])
            v = stream_rng(79, lo).normal(0.0, np.sqrt(cov), size=(60_000, mult))
            draws[:, lo - 1] += np.sum(v**2, axis=1)
        else:
            blk = np.array(
                [[x.diag[lo - 1], x.off[lo - 1]], [x.off[lo - 1], x.diag[lo]]]
            )
            chol = np.linalg.cholesky(np.linalg.inv(2.0 * blk))
            v = stream_rng(79, 10 + lo).standard_normal((60_000, mult, 2)) @ chol.T
            draws[:, lo - 1 : hi] += np.sum(v**2, axis=1)
            draws[:, 4 + lo - 1] += np.sum(v[:, :, 0] * v[:, :, 1], axis=1)
    th = wp.mean_p(w).coords()
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.max(np.abs(draws.mean(axis=0) - th) / se) < 4.0


def test_moment_p_low_orders():
    rng = np.random.default_rng(80)
    n, m = 3, 2
    x = random_q_elem(rng, n)
    p = random_shape_p(rng, n, m)
    w = wp.WishartP(p, x)
    xs = [IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    mp = wp.mean_p(w)
    m1 = wp.moment_p(w, xs[:1])
    assert m1 == pytest.approx(pairing(mp, xs[0]), rel=1e-12)
    m2 = wp.moment_p(w, xs[:2])
    expect2 = pairing(wp.covariance_p_apply(w, xs[0]), xs[1]) + pairing(mp, xs[0]) * pairing(
        mp, xs[1]
    )
    assert m2 == pytest.approx(expect2, rel=1e-12)
    with pytest.raises(ValueError, match="moment order 7 above cap 6"):
        wp.moment_p(w, xs * 2 + xs[:1])


def test_moment_p_vs_mc_including_endpoints():
    # endpoint pivots exercise the convention for the pivot-slot coefficient
    rng = np.random.default_rng(81)
    n = 3
    x = random_q_elem(rng, n)
    xs = [IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    wts = coordinate_weights(n)
    for m in (1, 2, 3):
        p = random_shape_p(rng, n, m)
        w = wp.WishartP(p, x)
        theory = wp.moment_p(w, xs)
        draws = wp.sample_p_many(w, stream_rng(82, m), 100_000)
        prods = np.prod([draws @ (wts * xx.coords()) for xx in xs], axis=0)
        se = prods.std(ddof=1) / np.sqrt(prods.size)
        assert abs(prods.mean() - theory) < 4.0 * se


def test_canonical_measure_identity():
    rng = np.random.default_rng(83)
    x1 = IncompleteSym(1, [2.0], [])
    lhs, rhs = wp.canonical_measure_check(x1)
    assert lhs == pytest.approx(-np.log(2.0)) and rhs == pytest.approx(-np.log(2.0))
    for n in range(2, 11):
        x = random_q_elem(rng, n)
        lhs, rhs = wp.canonical_measure_check(x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # n = 2 gamma-algebra spot check of the constant factor
    eye = IncompleteSym(2, [1.0, 1.0], [0.0])
    lhs, rhs = wp.canonical_measure_check(eye)
    assert lhs == pytest.approx(0.5 * np.log(np.pi**2 / 4.0))


def test_newton_inverse_mean_p():
    rng = np.random.default_rng(84)
    x = random_q_elem(rng, 3)
    p = random_shape_p(rng, 3, 2)
    target = wp.mean_p(wp.WishartP(p, x))
    back = wp.newton_inverse_mean_p(p, target)
    assert np.allclose(back.coords(), x.coords(), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("c", [1e-150, 1e-12, 1e12, 1e150])
@pytest.mark.parametrize("n, M", [(1, 1), (3, 2), (6, 1), (6, 4), (6, 6), (1000, 500)])
def test_newton_inverse_mean_p_is_scale_equivariant(n, M, c):
    rng = np.random.default_rng([n, M, 86])
    x = c * random_q_elem(rng, n)
    p = random_shape_p(rng, n, M)
    back = wp.newton_inverse_mean_p(p, wp.mean_p(wp.WishartP(p, x)))
    assert np.max(np.abs(back.coords() - x.coords())) <= 1e-8 * np.max(np.abs(x.coords()))


def test_mean_p_is_negated_log_laplace_gradient():
    # the mean must equal minus the FD gradient of x -> log(delta_{-s} phi)(x)
    from chainwishart.power_functions import log_delta_M, log_phi
    from chainwishart.verification import fd_jacobian

    rng = np.random.default_rng(85)
    for n, m in ((1, 1), (3, 2), (4, 1), (4, 4)):
        x = random_q_elem(rng, n)
        p = random_shape_p(rng, n, m)
        neg = ShapeParams(m, -p.s)

        def log_lap(c):
            xx = IncompleteSym.from_coords(c)
            return np.array([log_delta_M(neg, xx) + log_phi(xx)])

        grad = fd_jacobian(log_lap, x.coords())[0]
        # pairing weights: the gradient in coordinates doubles off entries
        wts = coordinate_weights(n)
        got = wp.mean_p_formula(p, x).coords() * wts
        assert np.allclose(got, -grad, rtol=1e-5, atol=1e-7)


def _pivots_batch(coords, n):
    d = coords[:, :n]
    o = coords[:, n:]
    piv = np.empty_like(d)
    piv[:, 0] = d[:, 0]
    ok = piv[:, 0] > 0
    for i in range(1, n):
        piv[:, i] = d[:, i] - o[:, i - 1] ** 2 / np.where(ok, piv[:, i - 1], np.inf)
        ok &= piv[:, i] > 0
    return ok


def test_all_draws_land_in_cone():
    rng = np.random.default_rng(86)
    x = random_q_elem(rng, 4)
    p = random_shape_p(rng, 4, 2)
    w = wp.WishartP(p, x)
    coords = wp.sample_p_many(w, stream_rng(87), 100_000)
    assert np.all(_pivots_batch(coords, 4))
