import numpy as np
import pytest

from chainwishart.chain_graph import build_chain, enumerate_perfect_clique_orders
from chainwishart.letac_massam import (
    LMParams,
    a_p_pivot,
    gamma1_constant,
    in_A0,
    lm_to_sM,
    log_H,
    matches_pattern,
    sM_to_lm,
)
from chainwishart.matrix_spaces import IncompleteSym, inverse_image, pairing
from chainwishart.power_functions import ShapeParams, delta_exponents, log_delta_M, log_phi
from chainwishart.wishart_q import log_norm_constant
from chainwishart.verification import stream_rng

from _gen import importance_mass, random_pd_tridiag, random_q_elem, reference_q_draws


def test_lm_params_validation():
    with pytest.raises(ValueError):
        LMParams([1.0, 2.0], [0.5, 0.5])  # beta must have n-2 entries
    lm = LMParams([1.0, 2.0, 3.0], [0.1, 0.2])
    assert lm.n == 4
    assert lm.beta_at(2) == 0.1 and lm.beta_at(3) == 0.2
    with pytest.raises(ValueError):
        lm.beta_at(4)


def test_lm_params_compare_and_hash_by_value():
    a, b = LMParams([1.0, 2.0, 3.0], [0.1, 0.2]), LMParams(np.array([1.0, 2.0, 3.0]), (0.1, 0.2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != LMParams([1.0, 2.0, 3.0], [0.1, 0.3])
    assert a != LMParams([1.0, 2.5, 3.0], [0.1, 0.2])
    assert a != LMParams([1.0, 2.0], [0.1])


def test_lm_params_hash_cannot_change_after_construction():
    lm = LMParams([1.0, 2.0, 3.0], [0.1, 0.2])
    h = hash(lm)
    with pytest.raises(ValueError):
        lm.alpha[0] = 5.0
    with pytest.raises(ValueError):
        lm.beta[1] = 5.0
    assert hash(lm) == h


def test_log_H_examples():
    eye = IncompleteSym(3, np.ones(3), np.zeros(2))
    assert log_H(LMParams([1.0, 1.0], [1.0]), eye) == pytest.approx(0.0)
    x = IncompleteSym(3, [1, 1, 1], [0.5, 0.5])
    assert log_H(LMParams([1.0, 1.0], [1.0]), x) == pytest.approx(2 * np.log(0.75))


def test_lm_to_sM_vacuous_pattern_at_three_vertices():
    lm = LMParams([1.3, 0.4], [2.0])
    p = lm_to_sM(lm)
    assert p is not None and p.M == 2
    assert p.s == pytest.approx([1.3, 1.3 + 0.4 - 2.0, 0.4])


def test_lm_to_sM_no_match():
    # n = 4: pivot 2 needs alpha_3 = beta_3, pivot 3 needs alpha_1 = beta_2
    lm = LMParams([1.0, 2.0, 3.0], [5.0, 4.0])
    assert lm_to_sM(lm) is None
    # flipping one entry restores the pivot-2 pattern
    lm2 = LMParams([1.0, 2.0, 3.0], [5.0, 3.0])
    p = lm_to_sM(lm2)
    assert p is not None and p.M == 2
    assert p.s == pytest.approx([1.0, 1.0 + 2.0 - 5.0, 2.0, 3.0])


def test_H_equals_pivot_power_function():
    rng = np.random.default_rng(90)
    for n in (3, 4, 6):
        for m in range(2, n):
            s = rng.uniform(-2, 2, n)
            p = ShapeParams(m, s)
            lm = sM_to_lm(p)
            assert matches_pattern(lm, m)
            for _ in range(5):
                x = random_q_elem(rng, n)
                assert log_H(lm, x) == pytest.approx(log_delta_M(p, x), abs=1e-12, rel=1e-12)
            back = lm_to_sM(lm)
            assert back is not None
            # the recovered pivot form is the same function
            x = random_q_elem(rng, n)
            assert log_delta_M(back, x) == pytest.approx(log_delta_M(p, x), abs=1e-12)


def test_sM_to_lm_rejects_endpoints():
    for m in (1, 4):
        with pytest.raises(ValueError, match="diagonal exponents"):
            sM_to_lm(ShapeParams(m, [1.0, 2.0, 1.0, 0.5]))


def test_endpoint_power_functions_have_no_H_preimage():
    # generic-shape endpoint functions exponentiate n-1 diagonal entries while
    # any H (hence any interior pivot form) uses at most n-2, so the exponent
    # patterns cannot coincide
    n = 5
    s = np.array([1.1, 2.3, 0.7, -0.4, 1.9])
    for m in (1, n):
        _, diag_e = delta_exponents(s, m)
        assert np.count_nonzero(diag_e) == n - 1
        assert diag_e[0 if m == 1 else n - 1] != 0.0
    _, diag_int = delta_exponents(s, 3)
    assert np.count_nonzero(diag_int) == n - 2
    assert diag_int[0] == 0.0 and diag_int[n - 1] == 0.0


def test_in_A0():
    assert not in_A0(LMParams([0.0, 0.0], [0.0]))
    # image of an integrable interior-pivot shape is admissible
    rng = np.random.default_rng(91)
    for n in (3, 5):
        for m in range(2, n):
            s = rng.uniform(0.8, 2.5, n)
            assert in_A0(sM_to_lm(ShapeParams(m, s)))
    # pattern holds but the pivot-shape positivity fails
    lm = LMParams([1.0, 1.0], [3.0])  # s_M = -1
    assert lm_to_sM(lm) is not None
    assert not in_A0(lm)


def test_admissible_set_depends_only_on_first_separator():
    for n in range(3, 7):
        orders = enumerate_perfect_clique_orders(build_chain(n))
        pivots = {}
        for o in orders:
            piv = a_p_pivot(o)
            assert 2 <= piv <= n - 1
            pivots.setdefault(piv, []).append(o)
        # every interior separator occurs; orders sharing it share the predicate
        assert set(pivots) == set(range(2, n))
    # four vertices: four perfect orders but exactly two distinct admissible sets
    orders4 = enumerate_perfect_clique_orders(build_chain(4))
    assert len(orders4) == 4
    assert len({a_p_pivot(o) for o in orders4}) == 2


def test_reference_measure_is_characteristic_function():
    rng = np.random.default_rng(92)
    for n in (2, 3, 5):
        lm = LMParams(-1.5 * np.ones(n - 1), -1.0 * np.ones(n - 2))
        for _ in range(5):
            x = random_q_elem(rng, n)
            assert log_H(lm, x) == pytest.approx(log_phi(x), abs=1e-12, rel=1e-12)


def test_gamma1_examples():
    lm = LMParams([1.0, 1.0], [0.0])
    assert np.exp(gamma1_constant(lm)) == pytest.approx(np.pi**2, rel=1e-12)
    # equals the gamma-product normalizer of the converted family
    p = lm_to_sM(lm)
    assert gamma1_constant(lm) == pytest.approx(-log_norm_constant(p), rel=1e-14)
    with pytest.raises(ValueError):
        gamma1_constant(LMParams([0.1, 0.1], [0.0]))


def test_gamma1_mc_consistency():
    # integral of exp(-<y,x>) H(x) phi(x) over the cone = Gamma1 * H(pi(y^{-1}))
    lm = LMParams([1.0, 1.0], [0.0])
    rng = np.random.default_rng(93)
    y = random_pd_tridiag(rng, 3)
    d, off, log_ref = reference_q_draws(stream_rng(94), 3, 60_000)
    vals = np.empty(d.shape[0])
    for i in range(d.shape[0]):
        x = IncompleteSym(3, d[i], off[i])
        vals[i] = -pairing(y, x) + log_H(lm, x) + log_phi(x)
    est, se = importance_mass(vals, log_ref)
    theory = float(np.exp(gamma1_constant(lm) + log_H(lm, inverse_image(y))))
    assert abs(est - theory) < 4.0 * se
