import ast
import hashlib
import importlib
import inspect
import json
import math
import pathlib
import pkgutil
from dataclasses import asdict

import numpy as np
import pytest
from scipy import special, stats  # oracles only: the package computes KS tests without scipy

import chainwishart
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import TridiagSym
from chainwishart.power_functions import ShapeParams
from chainwishart.verification import (
    _CONES,
    _family,
    _gamma_cdf,
    CheckResult,
    fd_jacobian,
    format_report,
    ks_test_gamma,
    mc_laplace,
    mc_mean_cov,
    report_json,
    run_suites,
    stream_rng,
    SUITES,
)

from _gen import random_pd_tridiag, random_shape_q


def test_stream_rng_determinism_and_independence():
    a = stream_rng(5, 0).standard_normal(4)
    b = stream_rng(5, 0).standard_normal(4)
    c = stream_rng(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_laplace_zero_direction():
    w = wq.WishartQ(ShapeParams(2, [1.0, 1.0]), TridiagSym(2, [1, 1], [0]))
    rep = mc_laplace(wq, w, TridiagSym(2, [0.0, 0.0], [0.0]), n_samples=500, seed=1)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0
    assert rep.z_score == 0.0
    assert rep.passed


def test_mc_laplace_deterministic_under_seed():
    rng = np.random.default_rng(100)
    w = wq.WishartQ(random_shape_q(rng, 3, 2), random_pd_tridiag(rng, 3))
    z = 0.3 * random_pd_tridiag(rng, 3)
    r1 = mc_laplace(wq, w, z, n_samples=5000, seed=7)
    r2 = mc_laplace(wq, w, z, n_samples=5000, seed=7)
    assert r1.estimate == r2.estimate and r1.stderr == r2.stderr
    assert abs(r1.z_score) < 4.0


#: sha256 of the JSON report fields of ``mc_laplace`` on three seeded families per cone, 2,000 draws each.
MC_LAPLACE_DIGESTS = {
    "q": "66c2732de0fabbd6769a580e91786e82527a4050bcfe2cebe7507a72a328be75",
    "p": "949c63480e603cd5aa61189fb7738c21182650cbd8052f8dc992141ce10737a2",
}


@pytest.mark.parametrize("cone", [wq, wp], ids=["q", "p"])
def test_mc_laplace_reports_are_pinned_on_both_cones(cone):
    reports = []
    for k in range(3):
        rng = stream_rng(7, k)
        w = _family(cone, rng, 3, k + 1)
        reports.append(asdict(mc_laplace(cone, w, 0.3 * _CONES[cone].natural(rng, 3), n_samples=2000, seed=k)))
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == MC_LAPLACE_DIGESTS[_CONES[cone].label]


def test_mc_mean_cov_reports():
    w = wq.WishartQ(ShapeParams(1, [1.0]), TridiagSym(1, [1.0], []))
    reports = mc_mean_cov(
        lambda r, sz: wq.sample_many(w, r, sz),
        np.array([1.0]),
        np.array([[1.0]]),
        n_samples=20_000,
        seed=3,
        name="exp",
    )
    assert len(reports) == 2  # one mean coordinate, one covariance entry
    assert all(r.passed for r in reports)
    assert reports[0].n_samples == 20_000


def test_fd_jacobian_scalar_cases():
    # d/dy (s / y) = -s / y^2
    s = 1.7
    jac = fd_jacobian(lambda t: np.array([s / t[0]]), np.array([2.0]))
    assert jac[0, 0] == pytest.approx(-s / 4.0, rel=1e-7)
    # inverse-mean Jacobian is the inverse of the mean Jacobian (duality)
    rng = np.random.default_rng(101)
    n, m = 3, 2
    p = random_shape_q(rng, n, m)
    y = random_pd_tridiag(rng, n)
    mn = wq.mean_formula(p, y)

    def fwd(c):
        return wq.mean_formula(p, TridiagSym.from_coords(c)).coords()

    def bwd(c):
        from chainwishart.matrix_spaces import IncompleteSym

        return wq.inverse_mean(p, IncompleteSym.from_coords(c)).coords()

    j_fwd = fd_jacobian(fwd, y.coords())
    j_bwd = fd_jacobian(bwd, mn.coords())
    assert np.allclose(j_bwd, np.linalg.inv(j_fwd), rtol=1e-4, atol=1e-6)


def test_ks_gamma_power():
    draws = stream_rng(9).gamma(shape=1.0, scale=1.0, size=10_000)
    assert ks_test_gamma(draws, 1.0, 1.0) > 0.01
    assert ks_test_gamma(draws, 1.0, 2.0) < 1e-6
    with pytest.raises(ValueError):
        ks_test_gamma(np.array([]), 1.0, 1.0)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.7, 5.0, 10.0])
def test_gamma_cdf_matches_gammainc(a):
    x = np.concatenate([np.geomspace(1e-12, 1e3, 2000), np.linspace(0.0, 30.0, 3001)[1:]])
    assert np.max(np.abs(_gamma_cdf(x, a) - special.gammainc(a, x))) < 1e-13
    assert np.array_equal(_gamma_cdf(np.array([-1.0, 0.0]), a), [0.0, 0.0])


def test_gamma_cdf_gives_up_on_a_shape_too_large_to_converge():
    with pytest.raises(ValueError, match="series"):
        _gamma_cdf(np.array([1e12]), 1e12)
    with pytest.raises(ValueError, match="continued fraction"):
        _gamma_cdf(np.array([1e12 + 1.0]), 1e12)


def test_ks_test_gamma_matches_scipy_kstest():
    one_sided = 0
    for i in range(200):
        rng = stream_rng(31, i)
        shape = (0.75, 1.0, 2.0)[i % 3]
        n = int(round(10 ** rng.uniform(2.0, 4.0)))
        rate = 1.0 + rng.uniform(0.0, 0.05)  # the draws have rate 1
        draws = rng.gamma(shape, 1.0, size=n)
        p = ks_test_gamma(draws, shape, rate)
        ref = stats.kstest(draws, stats.gamma(a=shape, scale=1.0 / rate).cdf)
        q, nd2 = ref.pvalue, n * ref.statistic**2
        assert (p > 0.01) == (q > 0.01) and (p > 0.05) == (q > 0.05)
        if nd2 >= 2.2 and (n > 140 or nd2 >= 4.0):
            # both take twice the exact one-sided tail
            assert p == pytest.approx(q, rel=1e-8, abs=0.0)
        elif nd2 >= 2.2:
            # scipy's exact two-sided CDF (Pomeranz) against twice the one-sided tail
            assert p == pytest.approx(q, rel=2e-6, abs=0.0)
        else:
            assert abs(p - q) < 1e-3
        one_sided += nd2 >= 2.2
    assert 10 <= one_sided <= 190  # both branches are exercised
    below_support = np.array([-2.0, -1.0])  # D = 1
    assert ks_test_gamma(below_support, 1.0, 1.0) == 0.0
    assert stats.kstest(below_support, stats.gamma(a=1.0).cdf).pvalue == 0.0


@pytest.mark.parametrize(
    "draws, shape, rate",
    [
        ([1.0, 2.0], 0.0, 1.0),
        ([1.0, 2.0], -1.0, 1.0),
        ([1.0, 2.0], math.nan, 1.0),
        ([1.0, 2.0], math.inf, 1.0),
        ([1.0, 2.0], 1.0, 0.0),
        ([1.0, 2.0], 1.0, -2.0),
        ([1.0, 2.0], 1.0, math.nan),
        ([1.0, math.nan], 1.0, 1.0),
        ([1.0, math.inf], 1.0, 1.0),
        ([], 1.0, 1.0),
    ],
)
def test_ks_test_gamma_rejects_bad_inputs(draws, shape, rate):
    with pytest.raises(ValueError):
        ks_test_gamma(np.array(draws), shape, rate)


def test_checks_carry_statistics_consistent_with_their_outcome():
    results, ok = run_suites("all", seed=20260810)
    mutated, _ = run_suites("mean", seed=20260810, mutations=frozenset({"mean-sign"}))
    assert ok and any(not r.passed for r in mutated)
    for r in results + mutated:
        assert math.isfinite(r.statistic) and math.isfinite(r.threshold), r.name
        if r.name.startswith("ks_"):
            assert r.threshold == 0.01 and r.passed == (r.statistic > r.threshold), r.name
        else:
            assert r.passed == (r.statistic < r.threshold), r.name
    payload = json.loads(report_json(results))
    assert isinstance(payload, list) and len(payload) == 31
    assert payload[0].keys() == {"name", "passed", "detail", "statistic", "threshold"}
    assert [e["statistic"] for e in payload] == [r.statistic for r in results]


def test_single_suite_runs_and_is_deterministic():
    r1, ok1 = run_suites("samplers", seed=20260810)
    r2, ok2 = run_suites("samplers", seed=20260810)
    assert ok1 and ok2
    assert [ (r.name, r.passed, r.detail) for r in r1 ] == [
        (r.name, r.passed, r.detail) for r in r2
    ]
    with pytest.raises(ValueError):
        run_suites("bogus", seed=1)
    assert set(SUITES) == {"laplace", "mean", "variance", "moments", "samplers"}


def test_mutation_fails_mean_suite():
    results, ok = run_suites("mean", seed=20260810, mutations=frozenset({"mean-sign"}))
    assert not ok
    assert any(not r.passed for r in results)


def test_report_formats():
    results = [CheckResult("a", True, "fine"), CheckResult("b", False, "bad")]
    text = format_report(results)
    assert "PASS" in text and "FAIL" in text and "1 failed" in text
    payload = json.loads(report_json(results))
    assert payload[1]["passed"] is False


def test_fd_jacobian_propagates_cone_boundary():
    from chainwishart.matrix_spaces import ConeError

    p = ShapeParams(1, [1.0])
    # the step around a near-singular point leaves the cone
    y_edge = TridiagSym(1, [5e-6], [])

    def mean_map(c):
        return wq.mean_formula(p, TridiagSym.from_coords(c)).coords()

    with pytest.raises(ConeError):
        fd_jacobian(mean_map, y_edge.coords(), step=1e-5)


def test_the_package_ships_no_dense_oracle():
    # the dense reference forms are a test oracle under tests/, not part of the package
    names = [m.name for m in pkgutil.iter_modules(chainwishart.__path__)]
    assert names and "_dense_oracle" not in names
    for name in names:
        source = inspect.getsource(importlib.import_module(f"chainwishart.{name}"))
        assert "_dense_oracle" not in source, name


def test_only_the_verification_oracle_names_dense_linear_algebra():
    # the paper's two dense variance formulas in verification are the one use
    # of np.linalg the package keeps; every other module runs banded
    names = [m.name for m in pkgutil.iter_modules(chainwishart.__path__)]
    assert "verification" in names
    for name in names:
        source = inspect.getsource(importlib.import_module(f"chainwishart.{name}"))
        assert ("np.linalg" in source) == (name == "verification"), name


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only: the KS and quadrature oracles use it
    for path in pathlib.Path(chainwishart.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "scipy" not in roots, (path.name, node.lineno)


def test_only_matrix_spaces_names_the_clique_form():
    # the layout and unit scaling of the banded clique form live in one module
    names = [m.name for m in pkgutil.iter_modules(chainwishart.__path__)]
    assert "matrix_spaces" in names
    for name in names:
        source = inspect.getsource(importlib.import_module(f"chainwishart.{name}"))
        for kernel in ("_clique_inverses", "_clique_form", "_form_apply", "_form_solve"):
            assert (kernel in source) == (name == "matrix_spaces"), (name, kernel)


def test_only_matrix_spaces_decides_the_double_range_and_the_q_cone():
    # unit scaling and the range error live in matrix_spaces alone, and _q_gaps is the one Q cone test
    for name in (m.name for m in pkgutil.iter_modules(chainwishart.__path__)):
        source = inspect.getsource(importlib.import_module(f"chainwishart.{name}"))
        for word in ("ldexp", "frexp", "_out_of_range"):
            assert name == "matrix_spaces" or word not in source, (name, word)
        for gone in ("_dual_gaps", "_bad_diagonal"):
            assert gone not in source, (name, gone)
