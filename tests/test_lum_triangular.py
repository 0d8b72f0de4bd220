import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwishart.lum_triangular import LUMMatrix, decompose, hat_via_T
from chainwishart.matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    hat_completion,
)
from chainwishart.power_functions import ShapeParams
from chainwishart.wishart_q import WishartQ, mean

from _dense_oracle import invert, is_lum_pattern, multiply
from _gen import random_pd_tridiag, random_q_elem


def _random_lum(rng, n, m):
    return LUMMatrix(
        n,
        m,
        rng.uniform(0.5, 2.0, n),
        rng.uniform(-1, 1, m - 1),
        rng.uniform(-1, 1, n - m),
    )


def test_decompose_identity_any_pivot():
    eye = TridiagSym(4, np.ones(4), np.zeros(3))
    for m in range(1, 5):
        t = decompose(eye, m)
        assert np.allclose(t.to_dense(), np.eye(4))


def test_decompose_pivot_n_is_cholesky():
    rng = np.random.default_rng(30)
    y = random_pd_tridiag(rng, 5)
    t = decompose(y, 5)
    assert np.allclose(t.to_dense(), np.linalg.cholesky(y.to_dense()), rtol=1e-12, atol=1e-12)


def test_decompose_hand_example():
    y = TridiagSym(2, [2, 1], [1])
    t = decompose(y, 2)
    expect = np.array([[np.sqrt(2), 0], [1 / np.sqrt(2), np.sqrt(0.5)]])
    assert np.allclose(t.to_dense(), expect)


def test_decompose_rejects_non_pd():
    with pytest.raises(ConeError):
        decompose(TridiagSym(2, [1, 1], [2]), 1)


@st.composite
def pd_and_pivot(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    d = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    sub = np.array(draw(st.lists(st.floats(-0.8, 0.8), min_size=n - 1, max_size=n - 1)))
    diag = d**2
    diag[1:] += sub**2
    m = draw(st.integers(min_value=1, max_value=n))
    return TridiagSym(n, diag, sub * d[:-1]), m


@settings(deadline=None, max_examples=50)
@given(pd_and_pivot())
def test_decomposition_residual_and_pattern(arg):
    y, m = arg
    t = decompose(y, m)
    td = t.to_dense()
    resid = np.max(np.abs(td @ td.T - y.to_dense()))
    assert resid <= 1e-10 * max(1.0, np.max(np.abs(y.to_dense())))
    assert is_lum_pattern(td, m)
    # chain pattern: nothing beyond the first off-diagonals
    assert np.max(np.abs(np.triu(td, 2))) == 0.0
    assert np.max(np.abs(np.tril(td, -2))) == 0.0
    assert np.all(t.diag > 0)


def test_group_closure_under_product_and_inverse():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        s = _random_lum(rng, n, m)
        t = _random_lum(rng, n, m)
        assert is_lum_pattern(multiply(s, t), m)
        assert is_lum_pattern(invert(t), m)
        assert np.allclose(invert(t) @ t.to_dense(), np.eye(n), atol=1e-10)


def test_submatrix_inverse_lemma():
    # (T_{1:k})^{-1} = (T^{-1})_{1:k} for k <= M-1, and the suffix mirror
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        t = _random_lum(rng, n, m).to_dense()
        tinv = np.linalg.inv(t)
        for k in range(1, m):
            assert np.allclose(np.linalg.inv(t[:k, :k]), tinv[:k, :k], atol=1e-9)
        for k in range(m + 1, n + 1):
            assert np.allclose(
                np.linalg.inv(t[k - 1 :, k - 1 :]), tinv[k - 1 :, k - 1 :], atol=1e-9
            )


def test_padded_congruence_lemma():
    # S' K^0 T = (S'_{1:k} K T_{1:k})^0 for k <= M-1; mirrored for suffixes
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        s = _random_lum(rng, n, m).to_dense()
        t = _random_lum(rng, n, m).to_dense()
        for k in range(1, m):
            kmat = rng.uniform(-1, 1, (k, k))
            a = np.zeros((n, n))
            a[:k, :k] = kmat
            lhs = s.T @ a @ t
            rhs = np.zeros((n, n))
            rhs[:k, :k] = s[:k, :k].T @ kmat @ t[:k, :k]
            assert np.allclose(lhs, rhs, atol=1e-12)
        for k in range(m + 1, n + 1):
            kk = n - k + 1
            kmat = rng.uniform(-1, 1, (kk, kk))
            a = np.zeros((n, n))
            a[k - 1 :, k - 1 :] = kmat
            lhs = s.T @ a @ t
            rhs = np.zeros((n, n))
            rhs[k - 1 :, k - 1 :] = s[k - 1 :, k - 1 :].T @ kmat @ t[k - 1 :, k - 1 :]
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_triangular_prefix_product_identity():
    # (L A U)_{1:i} = L_{1:i} A_{1:i} U_{1:i} for lower L, upper U (pure cases)
    rng = np.random.default_rng(34)
    n = 6
    low = np.tril(rng.uniform(-1, 1, (n, n)))
    up = np.triu(rng.uniform(-1, 1, (n, n)))
    a = rng.uniform(-1, 1, (n, n))
    prod = low @ a @ up
    for i in range(1, n + 1):
        assert np.allclose(prod[:i, :i], low[:i, :i] @ a[:i, :i] @ up[:i, :i], atol=1e-12)
    prod2 = up @ a @ low
    for i in range(1, n + 1):
        assert np.allclose(
            prod2[i - 1 :, i - 1 :],
            up[i - 1 :, i - 1 :] @ a[i - 1 :, i - 1 :] @ low[i - 1 :, i - 1 :],
            atol=1e-12,
        )


def test_hat_via_T_reduces_to_completion_at_unit_shape():
    rng = np.random.default_rng(35)
    for n in (1, 2, 4, 6):
        m = random_q_elem(rng, n)
        for piv in (1, max(1, n // 2), n):
            p = ShapeParams(piv, np.ones(n))
            assert np.allclose(hat_via_T(p, m), hat_completion(m), rtol=1e-9, atol=1e-10)
    eye = IncompleteSym(3, np.ones(3), np.zeros(2))
    assert np.allclose(hat_via_T(ShapeParams(2, np.ones(3)), eye), np.eye(3))


def test_hat_via_T_matches_mean_parameterization():
    # hat built from T at shape s completes the mean of the family at y
    rng = np.random.default_rng(36)
    n, piv = 4, 2
    y = random_pd_tridiag(rng, n)
    p = ShapeParams(piv, rng.uniform(0.8, 2.5, n))
    m = mean(WishartQ(p, y))
    h = hat_via_T(p, m)
    assert np.allclose(np.diag(h), m.diag, rtol=1e-8)
    assert np.allclose(np.diag(h, 1), m.off, rtol=1e-8)
    k = np.linalg.inv(h)
    assert np.max(np.abs(np.triu(k, 2))) < 1e-9 * np.max(np.abs(k))
