import dataclasses

import numpy as np
import pytest

from chainwishart.chain_graph import EliminatingOrder, build_chain, enumerate_eliminating_orders
from chainwishart.matrix_spaces import ConeError, IncompleteSym, TridiagSym, inverse_image
from chainwishart.power_functions import (
    ShapeParams,
    homogeneity_degree,
    log_delta_M,
    log_delta_order,
    log_Delta_M,
    log_Delta_order,
    log_phi,
)

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq

from _gen import random_pd_tridiag, random_shape_any


def test_shape_params_validation_and_domains():
    p = ShapeParams(2, [1.0, 2.0, 1.0])
    assert p.n == 3
    assert p.in_q_domain() and p.in_p_domain()
    assert not ShapeParams(2, [0.4, 2.0, 1.0]).in_q_domain()
    assert ShapeParams(2, [0.6, 0.1, 0.6]).in_q_domain()  # pivot only needs > 0
    assert not ShapeParams(1, [-1.1, 0.0]).in_p_domain()
    assert ShapeParams(1, [-0.9, -1.2]).in_p_domain()
    with pytest.raises(ValueError):
        ShapeParams(4, [1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        ShapeParams(0, [1.0])


@pytest.mark.parametrize("pivot", [2.5, True, "2"])
def test_shape_params_pivot_must_be_an_integral_number(pivot):
    with pytest.raises(TypeError):
        ShapeParams(pivot, [1.0, 2.0, 1.0])
    with pytest.raises(TypeError):
        ShapeParams.from_json_dict({"M": pivot, "s": [1.0, 2.0, 1.0]})


@pytest.mark.parametrize("pivot", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_shape_params_takes_an_integral_pivot_of_any_numeric_type(pivot):
    p = ShapeParams(pivot, [1.0, 2.0, 1.0])
    assert p.M == 2 and type(p.M) is int
    assert ShapeParams.from_json_dict({"M": pivot, "s": [1.0, 2.0, 1.0]}) == p


def test_shape_params_and_families_compare_and_hash_by_value():
    a, b = ShapeParams(2, [1.0, 1.0, 1.0]), ShapeParams(np.int64(2), np.ones(3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ShapeParams(1, [1.0, 1.0, 1.0])
    assert a != ShapeParams(2, [1.0, 1.0, 1.5])
    assert a != ShapeParams(2, [1.0, 1.0])
    y = TridiagSym(3, [1.0, 1.0, 1.0], [0.1, 0.2])
    assert wq.WishartQ(a, y) == wq.WishartQ(b, y)
    assert wq.WishartQ(a, y) != wq.WishartQ(ShapeParams(3, [1.0, 1.0, 1.0]), y)
    x = IncompleteSym(3, [1.0, 1.0, 1.0], [0.1, 0.2])
    assert wp.WishartP(a, x) == wp.WishartP(b, x)


def test_shape_hash_cannot_change_after_construction():
    s = np.array([1.0, 1.0, 1.0])
    p = ShapeParams(2, s)
    h = hash(p)
    s[0] = 5.0  # the caller's array is copied, not kept
    with pytest.raises(ValueError):
        p.s[0] = 5.0
    with pytest.raises(ValueError):
        p.s += 1.0
    assert hash(p) == h and p == ShapeParams(2, [1.0, 1.0, 1.0])


def test_families_freeze_their_natural_parameter():
    # a family keeps constants read off its parameter (log power, peel
    # plan, clique gaps), so an in-place edit must fail, not leave them
    # stale
    y = TridiagSym(3, [1.0, 1.0, 1.0], [0.1, 0.2])
    w = wq.WishartQ(ShapeParams(2, [1.0, 1.0, 1.0]), y)
    m = wq.mean(w)
    with pytest.raises(ValueError):
        y.diag[:] = 1.0
    with pytest.raises(ValueError):
        y.off[:] = 2.0
    assert np.array_equal(wq.mean(w).coords(), m.coords())
    x = IncompleteSym(3, [1.0, 1.0, 1.0], [0.1, 0.2])
    wp.WishartP(ShapeParams(2, [1.0, 1.0, 1.0]), x)
    with pytest.raises(ValueError):
        x.diag[0] = -1.0
    with pytest.raises(ValueError):
        x.off *= 10.0
    # a failed construction leaves the caller's element writable
    z = TridiagSym(2, [1.0, 1.0], [2.0])
    with pytest.raises(ConeError):
        wq.WishartQ(ShapeParams(2, [1.0, 1.0]), z)
    z.off[0] = 0.5


def test_banded_elements_cannot_rebind_their_fields():
    # rebinding a field would bypass the read-only arrays above and leave a
    # family's cached constants (mean, sampler walk) reading the old element
    y = TridiagSym(3, [1.0, 1.0, 1.0], [0.1, 0.2])
    w = wq.WishartQ(ShapeParams(2, [1.0, 1.0, 1.0]), y)
    m = wq.mean(w)
    for elem in (y, IncompleteSym(3, [1.0, 1.0, 1.0], [0.1, 0.2]), TridiagSym.from_coords([1.0, 2.0, 0.5])):
        for name, value in (("off", np.array([2.0, 2.0])), ("diag", np.ones(3)), ("n", 4)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(elem, name, value)
    assert np.array_equal(wq.mean(w).coords(), m.coords())
    assert wq.log_laplace(w, TridiagSym(3, [1.0, 1.0, 1.0], [0.0, 0.0])) <= 0.0


def test_log_Delta_M_examples():
    eye = TridiagSym(4, np.ones(4), np.zeros(3))
    for m in range(1, 5):
        assert log_Delta_M(ShapeParams(m, [1.3, -0.2, 2.0, 0.7]), eye) == pytest.approx(0.0)
    y = TridiagSym(2, [2, 1], [1])
    assert log_Delta_M(ShapeParams(2, [1, 2]), y) == pytest.approx(-np.log(2))
    with pytest.raises(ConeError):
        log_Delta_M(ShapeParams(1, [1, 1]), TridiagSym(2, [1, 1], [2]))


def test_log_delta_M_examples():
    eye = IncompleteSym(3, np.ones(3), np.zeros(2))
    for m in range(1, 4):
        assert log_delta_M(ShapeParams(m, [0.5, 1.5, -1.0]), eye) == pytest.approx(0.0)
    x = IncompleteSym(2, [1, 2], [-1])
    assert log_delta_M(ShapeParams(2, [1, 2]), x) == pytest.approx(np.log(2))
    # one-vertex convention: delta_s(x) = x^s
    assert log_delta_M(ShapeParams(1, [1.7]), IncompleteSym(1, [2.0], [])) == pytest.approx(
        1.7 * np.log(2.0)
    )


def test_scaling_homogeneity():
    rng = np.random.default_rng(10)
    for n in (1, 2, 4, 6):
        for M in range(1, n + 1):
            y = random_pd_tridiag(rng, n)
            p = random_shape_any(rng, n, M)
            kappa = homogeneity_degree(p)
            base = log_Delta_M(p, y)
            for c in (0.5, 2.0, 10.0):
                scaled = log_Delta_M(p, c * y)
                assert scaled - base == pytest.approx(kappa * np.log(c), rel=1e-9, abs=1e-9)


def test_homogeneity_degree_examples():
    assert homogeneity_degree(ShapeParams(2, [1, 1, 1])) == pytest.approx(3)
    assert homogeneity_degree(ShapeParams(2, [1, 2])) == pytest.approx(3)  # 1(1-2) + 2*2
    rng = np.random.default_rng(11)
    for n in (1, 3, 5):
        for M in range(1, n + 1):
            p = random_shape_any(rng, n, M)
            # the bookkeeping telescopes to the plain sum of shapes
            assert homogeneity_degree(p) == pytest.approx(float(np.sum(p.s)), rel=1e-12)


def test_duality_identity():
    rng = np.random.default_rng(12)
    for n in range(1, 11):
        for _ in range(20):
            y = random_pd_tridiag(rng, n)
            M = int(rng.integers(1, n + 1))
            s = rng.uniform(-2, 2, n)
            lhs = log_delta_M(ShapeParams(M, s), inverse_image(y))
            rhs = log_Delta_M(ShapeParams(M, -s), y)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_order_indexed_equal_pivot_indexed():
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        y = random_pd_tridiag(rng, n)
        x = inverse_image(y)
        s = rng.uniform(-2, 2, n)
        values = {}
        for o in enumerate_eliminating_orders(build_chain(n)):
            m = o.max_vertex
            a = log_delta_order(s, o, x)
            assert a == pytest.approx(log_delta_M(ShapeParams(m, s), x), abs=1e-12, rel=1e-12)
            b = log_Delta_order(s, o, y)
            assert b == pytest.approx(log_Delta_M(ShapeParams(m, s), y), abs=1e-12, rel=1e-12)
            values.setdefault(m, b)
            assert values[m] == pytest.approx(b, abs=1e-12)
        # one distinct value per possible maximum
        assert len(values) == n


def test_order_functions_trivial_on_identity():
    x = IncompleteSym(3, np.ones(3), np.zeros(2))
    y = TridiagSym(3, np.ones(3), np.zeros(2))
    o = EliminatingOrder((1, 3, 2))
    assert log_delta_order([1.0, 2.0, 3.0], o, x) == pytest.approx(0.0)
    assert log_Delta_order([1.0, 2.0, 3.0], o, y) == pytest.approx(0.0)


def test_log_phi_examples():
    assert log_phi(IncompleteSym(1, [2.0], [])) == pytest.approx(-np.log(2.0))
    assert log_phi(IncompleteSym(2, [1, 2], [-1])) == pytest.approx(0.0)
    # n = 3 hand evaluation: det blocks 0.75, separator 1.0
    x = IncompleteSym(3, [1, 1, 1], [0.5, 0.5])
    assert log_phi(x) == pytest.approx(-3.0 * np.log(0.75))
