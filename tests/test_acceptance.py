"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stochastic criteria use fixed seeds and 4-standard-error envelopes;
deterministic identities use the stated absolute/relative tolerances.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.chain_graph import (
    build_chain,
    enumerate_eliminating_orders,
    enumerate_perfect_clique_orders,
)
from chainwishart.letac_massam import LMParams, a_p_pivot, gamma1_constant, lm_to_sM, sM_to_lm
from chainwishart.lum_triangular import decompose
from chainwishart.matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    hat_completion,
    inverse_image,
    pairing,
    project_pi,
)
from chainwishart.power_functions import (
    ShapeParams,
    homogeneity_degree,
    log_delta_M,
    log_delta_order,
    log_Delta_M,
    log_Delta_order,
)
from chainwishart.verification import (
    coordinate_weights,
    cov_coords_from_operator,
    fd_jacobian,
    ks_test_gamma,
    mc_laplace_p,
    mc_laplace_q,
    stream_rng,
)

from _dense_oracle import enumerate_all_eliminating_orders_bruteforce, invert, is_lum_pattern, multiply
from _gen import (
    random_pd_tridiag,
    random_q_elem,
    random_shape_p,
    random_shape_q,
    scalar_moment3_closed_form,
)

SEED = 20260810


def _report(num: int, name: str, detail: str = "") -> None:
    print(f"criterion {num:2d} ({name}): PASS {detail}")


def test_criterion_01_duality_identity():
    rng = stream_rng(SEED, 1)
    t0 = time.time()
    worst = 0.0
    for n in range(2, 11):
        for _ in range(200):
            y = random_pd_tridiag(rng, n)
            m = int(rng.integers(1, n + 1))
            s = rng.uniform(-2.0, 2.0, n)
            lhs = log_delta_M(ShapeParams(m, s), inverse_image(y))
            rhs = log_Delta_M(ShapeParams(m, -s), y)
            err = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, err)
            assert err < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, "duality identity", f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_order_collapse():
    rng = stream_rng(SEED, 2)
    worst = 0.0
    for n in range(1, 8):
        y = random_pd_tridiag(rng, n)
        x = inverse_image(y)
        s = rng.uniform(-2.0, 2.0, n)
        for o in enumerate_eliminating_orders(build_chain(n)):
            m = o.max_vertex
            d1 = abs(log_delta_order(s, o, x) - log_delta_M(ShapeParams(m, s), x))
            d2 = abs(log_Delta_order(s, o, y) - log_Delta_M(ShapeParams(m, s), y))
            worst = max(worst, d1, d2)
            assert d1 <= 1e-12 and d2 <= 1e-12
    _report(2, "order collapse", f"worst abs diff {worst:.2e}")


def test_criterion_03_counting():
    for n in range(1, 13):
        orders = enumerate_eliminating_orders(build_chain(n))
        assert len(orders) == 2 ** (n - 1)
        assert len({o.sequence for o in orders}) == len(orders)
        if n >= 2:
            assert len(enumerate_perfect_clique_orders(build_chain(n))) == 2 ** (n - 2)
    for n in range(1, 8):
        fast = {o.sequence for o in enumerate_eliminating_orders(build_chain(n))}
        slow = set(enumerate_all_eliminating_orders_bruteforce(build_chain(n)))
        assert fast == slow
    _report(3, "order counting", "2^(n-1) and 2^(n-2), exhaustive to n=7")


def test_criterion_04_laplace_transforms_mc():
    t0 = time.time()
    worst = 0.0
    k = 0
    for n in (2, 3):
        for m in range(1, n + 1):
            rng = stream_rng(SEED, 40 + k)
            y = random_pd_tridiag(rng, n)
            w = wq.WishartQ(random_shape_q(rng, n, m), y)
            z = 0.3 * random_pd_tridiag(rng, n)
            rep = mc_laplace_q(w, z, n_samples=100_000, seed=SEED + k)
            assert abs(rep.z_score) < 4.0
            worst = max(worst, abs(rep.z_score))
            x = random_q_elem(rng, n)
            w2 = wp.WishartP(random_shape_p(rng, n, m), x)
            theta = 0.3 * random_q_elem(rng, n)
            rep2 = mc_laplace_p(w2, theta, n_samples=100_000, seed=SEED + 100 + k)
            assert abs(rep2.z_score) < 4.0
            worst = max(worst, abs(rep2.z_score))
            k += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, "Laplace transforms vs MC", f"worst |z| {worst:.2f}, {elapsed:.1f}s")


def test_criterion_05_canonical_measure():
    rng = stream_rng(SEED, 5)
    worst = 0.0
    for n in range(1, 11):
        for _ in range(10):
            x = random_q_elem(rng, n)
            lhs, rhs = wp.canonical_measure_check(x)
            err = abs(lhs - rhs)
            worst = max(worst, err)
            assert err <= 1e-10 * max(1.0, abs(lhs))
    _report(5, "canonical measure", f"worst abs diff {worst:.2e}")


def test_criterion_06_mean_inverse_mean_round_trips():
    rng = stream_rng(SEED, 6)
    worst = 0.0
    for n in range(1, 9):
        for m in range(1, n + 1):
            for _ in range(100):
                y = random_pd_tridiag(rng, n)
                p = random_shape_q(rng, n, m)
                mn = wq.mean_formula(p, y)
                back = wq.inverse_mean(p, mn)
                err = np.max(np.abs(back.coords() - y.coords())) / max(
                    1.0, np.max(np.abs(y.coords()))
                )
                worst = max(worst, err)
                assert err < 1e-8
                fwd = wq.mean_formula(p, back)
                err2 = np.max(np.abs(fwd.coords() - mn.coords())) / max(
                    1.0, np.max(np.abs(mn.coords()))
                )
                worst = max(worst, err2)
                assert err2 < 1e-8
    _report(6, "mean/inverse-mean round trips", f"worst rel err {worst:.2e}")


def test_criterion_07_shape_product_identity():
    rng = stream_rng(SEED, 7)
    worst = 0.0
    for n in range(1, 9):
        for m in range(1, n + 1):
            y = random_pd_tridiag(rng, n)
            p = random_shape_q(rng, n, m)
            lhs = log_delta_M(p, wq.mean_formula(p, y))
            rhs = float(np.sum(p.s * np.log(p.s))) + log_Delta_M(ShapeParams(m, -p.s), y)
            err = abs(lhs - rhs)
            worst = max(worst, err)
            assert err <= 1e-9 * max(1.0, abs(rhs))
    _report(7, "mean-composition identity", f"worst abs diff {worst:.2e}")


def test_criterion_08_kappa_identity():
    rng = stream_rng(SEED, 8)
    printed_matches = 0
    cases = 0
    for n in (2, 4, 7):
        for m in range(1, n + 1):
            p = random_shape_q(rng, n, m)
            w1 = wq.WishartQ(p, random_pd_tridiag(rng, n))
            w2 = wq.WishartQ(p, random_pd_tridiag(rng, n))
            k1 = wq.pairing_with_parameter(w1)
            k2 = wq.pairing_with_parameter(w2)
            assert abs(k1 - k2) <= 1e-9 * max(1.0, abs(k1))
            kappa = homogeneity_degree(p)
            assert abs(k1 - kappa) <= 1e-9 * max(1.0, abs(kappa))
            # the scaling-oracle value, directly
            y = w1.y
            c = 2.0
            oracle = (log_Delta_M(p, c * y) - log_Delta_M(p, y)) / np.log(c)
            assert abs(kappa - oracle) <= 1e-9 * max(1.0, abs(kappa))
            # report: the alternative printed constant sum(s) - (n - M) s_M
            alt = float(np.sum(p.s) - (n - m) * p.s[m - 1])
            cases += 1
            if abs(alt - kappa) <= 1e-9:
                printed_matches += 1
    _report(
        8,
        "pairing-with-parameter equals scaling degree",
        f"(published variant sum(s)-(n-M)s_M agreed in {printed_matches}/{cases} cases, "
        "only where M = n; the scaling oracle is asserted)",
    )


def test_criterion_09_variance_triple_agreement():
    rng = stream_rng(SEED, 9)
    worst_pair = 0.0
    worst_fd = 0.0
    for n in range(1, 7):
        for m in range(1, n + 1):
            y = random_pd_tridiag(rng, n)
            p = random_shape_q(rng, n, m)
            w = wq.WishartQ(p, y)
            mn = wq.mean(w)
            v = wq.covariance_matrix(w)
            v_nice = wq.operator_matrix(lambda u: wq.variance_apply_nice(p, mn, u), n)
            v_exp = wq.operator_matrix(lambda u: wq.variance_apply_expanded(p, mn, u), n)
            scale = np.max(np.abs(v))
            err = max(np.max(np.abs(v_nice - v_exp)), np.max(np.abs(v_nice - v))) / scale
            worst_pair = max(worst_pair, err)
            assert err < 1e-8

            def mean_map(c):
                return wq.mean_formula(p, TridiagSym.from_coords(c)).coords()

            jac = fd_jacobian(mean_map, y.coords())
            err_fd = np.max(np.abs(v + jac)) / scale
            worst_fd = max(worst_fd, err_fd)
            assert err_fd < 1e-5
    # scalar shape collapses to (1/p) P(hat)
    rng2 = stream_rng(SEED, 90)
    melem = random_q_elem(rng2, 5)
    h = hat_completion(melem)
    pval = 2.3
    for _ in range(5):
        u = TridiagSym.from_coords(rng2.uniform(-1, 1, 9))
        got = wq.variance_apply_nice(ShapeParams(3, pval * np.ones(5)), melem, u)
        expect = project_pi(h @ u.to_dense() @ h)
        assert np.allclose(got.coords(), expect.coords() / pval, rtol=1e-9, atol=1e-12)
    _report(
        9,
        "variance triple agreement",
        f"worst operator rel {worst_pair:.2e}, worst FD rel {worst_fd:.2e}",
    )


def test_criterion_10_intertwining():
    rng = stream_rng(SEED, 10)
    worst = 0.0
    for n in range(1, 7):
        for m in range(1, n + 1):
            p = random_shape_q(rng, n, m)
            melem = random_q_elem(rng, n)
            lhs, rhs = wq.intertwining_check(p, melem)
            err = np.max(np.abs(lhs.coords() - rhs.coords()))
            worst = max(worst, err)
            assert err < 1e-9
    _report(10, "inverse-mean intertwining", f"worst abs diff {worst:.2e}")


def test_criterion_11_samplers():
    t0 = time.time()
    # base cases
    w = wq.WishartQ(ShapeParams(1, [1.0]), TridiagSym(1, [1.0], []))
    draws = wq.sample_many(w, stream_rng(SEED, 110), 10_000)[:, 0]
    assert ks_test_gamma(draws, 1.0, 1.0) > 0.01
    w2 = wq.WishartQ(ShapeParams(1, [0.75]), TridiagSym(1, [1.0], []))
    draws = wq.sample_many(w2, stream_rng(SEED, 111), 10_000)[:, 0]
    assert ks_test_gamma(draws, 0.75, 1.0) > 0.01
    wpp = wp.WishartP(ShapeParams(1, [0.0]), IncompleteSym(1, [1.0], []))
    draws = wp.sample_many(wpp, stream_rng(SEED, 112), 10_000)[:, 0]
    assert ks_test_gamma(draws, 1.0, 1.0) > 0.01

    def worst_z(coords, th_mean, th_cov):
        z1 = np.max(
            np.abs(coords.mean(axis=0) - th_mean)
            / (coords.std(axis=0, ddof=1) / np.sqrt(coords.shape[0]))
        )
        batches = np.array_split(coords, 50)
        covs = np.stack([np.cov(b, rowvar=False) for b in batches])
        se = covs.std(axis=0, ddof=1) / np.sqrt(50)
        z2 = np.max(np.abs(covs.mean(axis=0) - th_cov) / se)
        return max(z1, z2)

    worst = 0.0
    # recursive sampler on the dual cone, every pivot
    rng = stream_rng(SEED, 113)
    for m in range(1, 5):
        y = random_pd_tridiag(rng, 4)
        p = random_shape_q(rng, 4, m)
        fam = wq.WishartQ(p, y)
        coords = wq.sample_many(fam, stream_rng(SEED, 114 + m), 100_000)
        worst = max(
            worst,
            worst_z(
                coords, wq.mean(fam).coords(), cov_coords_from_operator(wq.covariance_matrix(fam), 4)
            ),
        )
    # concentration-cone sampler, every pivot
    for m in range(1, 4):
        x = random_q_elem(rng, 3)
        p = random_shape_p(rng, 3, m)
        fam = wp.WishartP(p, x)
        coords = wp.sample_many(fam, stream_rng(SEED, 120 + m), 100_000)
        worst = max(
            worst,
            worst_z(
                coords,
                wp.mean(fam).coords(),
                cov_coords_from_operator(wp.covariance_matrix(fam), 3),
            ),
        )
    # quadratic sampler and the multiplicity link
    y = random_pd_tridiag(rng, 3)
    sigma, m = np.array([2, 2, 1]), 2
    p = wq.sigma_to_shape(sigma, m)
    fam = wq.WishartQ(p, y)
    coords_q = wq.sample_quadratic_many(sigma, m, y, stream_rng(SEED, 130), 100_000)
    worst = max(
        worst,
        worst_z(
            coords_q, wq.mean(fam).coords(), cov_coords_from_operator(wq.covariance_matrix(fam), 3)
        ),
    )
    coords_r = wq.sample_many(fam, stream_rng(SEED, 131), 100_000)
    for j in range(coords_r.shape[1]):
        sa = coords_r[:, j].std(ddof=1) / np.sqrt(coords_r.shape[0])
        sb = coords_q[:, j].std(ddof=1) / np.sqrt(coords_q.shape[0])
        z = abs(coords_r[:, j].mean() - coords_q[:, j].mean()) / np.hypot(sa, sb)
        worst = max(worst, z)
        assert z < 4.0
    assert worst < 4.0
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(11, "exact samplers", f"worst |z| {worst:.2f}, {elapsed:.1f}s")


def test_criterion_12_moments():
    rng = stream_rng(SEED, 12)
    n, m = 3, 2
    y = random_pd_tridiag(rng, n)
    p = random_shape_q(rng, n, m)
    w = wq.WishartQ(p, y)
    zs = [TridiagSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    mn = wq.mean(w)
    m1 = wq.moment(w, zs[:1])
    e1 = pairing(zs[0], mn)
    assert abs(m1 - e1) <= 1e-9 * max(1.0, abs(e1))
    m2 = wq.moment(w, zs[:2])
    e2 = pairing(zs[1], wq.covariance_apply(w, zs[0])) + e1 * pairing(zs[1], mn)
    assert abs(m2 - e2) <= 1e-9 * max(1.0, abs(e2))
    theory3 = wq.moment(w, zs)
    coords = wq.sample_many(w, stream_rng(SEED, 121), 100_000)
    wts = coordinate_weights(n)
    prods = np.prod([coords @ (wts * z.coords()) for z in zs], axis=0)
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    z3 = abs(prods.mean() - theory3) / se
    assert z3 < 4.0
    # scalar shape third moment against the explicit closed form
    for sval in (0.8, 1.5):
        fam = wq.WishartQ(ShapeParams(1, sval * np.ones(n)), y)
        got = wq.moment(fam, zs)
        expect = scalar_moment3_closed_form(sval, y, zs)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))
    # concentration-cone side
    x = random_q_elem(rng, n)
    pp = random_shape_p(rng, n, m)
    fam_p = wp.WishartP(pp, x)
    xs = [IncompleteSym.from_coords(rng.uniform(-1, 1, 2 * n - 1)) for _ in range(3)]
    mp = wp.mean(fam_p)
    q1 = wp.moment(fam_p, xs[:1])
    f1 = pairing(mp, xs[0])
    assert abs(q1 - f1) <= 1e-9 * max(1.0, abs(f1))
    q2 = wp.moment(fam_p, xs[:2])
    f2 = pairing(wp.covariance_apply(fam_p, xs[0]), xs[1]) + f1 * pairing(mp, xs[1])
    assert abs(q2 - f2) <= 1e-9 * max(1.0, abs(f2))
    theory3p = wp.moment(fam_p, xs)
    coords = wp.sample_many(fam_p, stream_rng(SEED, 122), 100_000)
    prods = np.prod([coords @ (wts * xx.coords()) for xx in xs], axis=0)
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    z3p = abs(prods.mean() - theory3p) / se
    assert z3p < 4.0
    _report(12, "cycle-expansion moments", f"order-3 |z| = {z3:.2f} (dual), {z3p:.2f} (conc.)")


def test_criterion_13_peel_jacobians_vs_fd():
    from chainwishart.peeling import (
        jacobian_phi,
        jacobian_phi_tilde,
        jacobian_psi,
        jacobian_psi_tilde,
        phi,
        phi_tilde,
        psi,
        psi_tilde,
    )

    rng = stream_rng(SEED, 13)
    worst = 0.0
    for n in (2, 3, 5):
        z = random_pd_tridiag(rng, n - 1)
        a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
        x = random_q_elem(rng, n - 1)
        cases = [
            (lambda t: phi(t[0], t[1], TridiagSym.from_coords(t[2:])).coords(),
             np.concatenate([[a, b], z.coords()]), jacobian_phi(a, b, z)),
            (lambda t: phi_tilde(t[0], t[1], TridiagSym.from_coords(t[2:])).coords(),
             np.concatenate([[a, b], z.coords()]), jacobian_phi_tilde(a, b, z)),
            (lambda t: psi(t[0], t[1], IncompleteSym.from_coords(t[2:])).coords(),
             np.concatenate([[a, b], x.coords()]), jacobian_psi(a, b, x)),
            (lambda t: psi_tilde(t[0], t[1], IncompleteSym.from_coords(t[2:])).coords(),
             np.concatenate([[a, b], x.coords()]), jacobian_psi_tilde(a, b, x)),
        ]
        for fn, point, analytic in cases:
            det = abs(np.linalg.det(fd_jacobian(fn, point)))
            err = abs(det - analytic) / abs(analytic)
            worst = max(worst, err)
            assert err < 1e-6
    _report(13, "peel-map Jacobians vs FD", f"worst rel err {worst:.2e}")


def test_criterion_14_clique_separator_correspondence():
    rng = stream_rng(SEED, 14)
    # pointwise equality under conversion
    for n in (3, 4, 6):
        for m in range(2, n):
            s = rng.uniform(-2, 2, n)
            p = ShapeParams(m, s)
            lm = sM_to_lm(p)
            for _ in range(5):
                x = random_q_elem(rng, n)
                from chainwishart.letac_massam import log_H

                assert abs(log_H(lm, x) - log_delta_M(p, x)) <= 1e-12 * max(
                    1.0, abs(log_delta_M(p, x))
                )
    # the Laplace constant equals the gamma-product normalizer exactly
    for n in (3, 5):
        for m in range(2, n):
            p = ShapeParams(m, rng.uniform(0.8, 2.5, n))
            lm = sM_to_lm(p)
            g1 = gamma1_constant(lm)
            g2 = -wq.log_norm_constant(p)
            assert abs(g1 - g2) <= 1e-12 * max(1.0, abs(g2))
    # conversions never produce endpoint pivots
    for _ in range(200):
        n = int(rng.integers(3, 7))
        alpha = rng.uniform(-2, 2, n - 1)
        beta = rng.uniform(-2, 2, n - 2)
        got = lm_to_sM(LMParams(alpha, beta))
        if got is not None:
            assert 2 <= got.M <= n - 1
    # four vertices: 4 perfect orders, exactly 2 distinct admissible sets
    orders = enumerate_perfect_clique_orders(build_chain(4))
    assert len(orders) == 4
    assert len({a_p_pivot(o) for o in orders}) == 2
    _report(14, "clique/separator correspondence", "")


def test_criterion_15_integer_infeasibility():
    t0 = time.time()
    for n in (4, 5, 6):
        feasible, witness = wp.integer_feasibility_p(n, max_entry=20)
        assert not feasible and witness is None
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(15, "no true quadratic construction for n >= 4", f"{elapsed:.2f}s")


def test_criterion_16_lum_properties():
    rng = stream_rng(SEED, 16)
    worst = 0.0
    for n in range(1, 11):
        for m in range(1, n + 1):
            y = random_pd_tridiag(rng, n)
            t = decompose(y, m)
            td = t.to_dense()
            resid = np.max(np.abs(td @ td.T - y.to_dense())) / max(
                1e-300, np.max(np.abs(y.to_dense()))
            )
            worst = max(worst, resid)
            assert resid <= 1e-10
            assert is_lum_pattern(td, m)
    # group closure and submatrix identities on random factors
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        from chainwishart.lum_triangular import LUMMatrix

        s = LUMMatrix(n, m, rng.uniform(0.5, 2, n), rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - m))
        t = LUMMatrix(n, m, rng.uniform(0.5, 2, n), rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - m))
        assert is_lum_pattern(multiply(s, t), m)
        tinv = invert(t)
        assert is_lum_pattern(tinv, m)
        for k in range(1, m):
            td = t.to_dense()
            assert np.allclose(np.linalg.inv(td[:k, :k]), tinv[:k, :k], atol=1e-9)
    # triangular prefix-product identity (pure lower/upper specializations)
    n = 6
    low = np.tril(rng.uniform(-1, 1, (n, n)))
    up = np.triu(rng.uniform(-1, 1, (n, n)))
    amat = rng.uniform(-1, 1, (n, n))
    prod = low @ amat @ up
    for i in range(1, n + 1):
        assert np.allclose(prod[:i, :i], low[:i, :i] @ amat[:i, :i] @ up[:i, :i], atol=1e-12)
    _report(16, "pivot-adapted factorization", f"worst residual {worst:.2e}")


def test_criterion_17_cli_end_to_end():
    t0 = time.time()
    clean = subprocess.run(
        [sys.executable, "-m", "chainwishart.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    elapsed = time.time() - t0
    assert elapsed < 300.0
    mutated = subprocess.run(
        [
            sys.executable,
            "-m",
            "chainwishart.cli",
            "verify",
            "--suite",
            "all",
            "--inject-bug",
            "mean-sign",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert mutated.returncode == 1, mutated.stdout + mutated.stderr
    _report(17, "CLI verify end-to-end", f"clean exit 0 in {elapsed:.1f}s, mutated exit 1")
