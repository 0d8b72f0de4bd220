"""The shared peel plan behind both exact samplers and the LU(M) factor.

The pinned values were recorded from the recursive implementation that the
plan replaced; seeded draws and factors must stay bit-identical to them.

The sha256 digests pin the draw stream of ``sample_many``, ``sample_p_many``
and ``sample_gram_many`` across chain lengths, pivots and draw counts.  They
were recorded from the samplers as they stood before their inner loops were
rewritten for speed (vertex rows read as Python floats, ``standard_normal``
scaled and shifted by hand), so any change in a seeded draw, down to its
last bit, fails them.
"""

import hashlib
import importlib
import pkgutil
import sys
import tracemalloc

import numpy as np
import pytest

import chainwishart
from chainwishart import matrix_spaces
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.lum_triangular import decompose
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym, is_in_P, is_in_Q
from chainwishart.power_functions import ShapeParams

from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

Y = TridiagSym(4, [2.0, 2.5, 1.8, 2.2], [0.3, -0.4, 0.5])
X = IncompleteSym(4, [1.0, 1.5, 0.8, 1.2], [0.2, -0.3, 0.4])
S_Q = [1.2, 0.9, 1.6, 1.1]
S_P = [0.3, -0.2, 0.8, 0.1]

# pivot -> two draws with default_rng(pivot)
PINNED_Q = {
    1: [[0.6266443191075012, 0.4518896350701108, 0.305785788716885, 0.6484321333790928, 0.24860941622554214, -0.16238305140497195, -0.2756253561550247],
        [0.6176148581792533, 0.24444999672533588, 0.4763812481939636, 0.21742562106516233, 0.08290906186099332, 0.01412442665499418, -0.19289544741160194]],
    3: [[0.1645511030046696, 0.23870909187933945, 3.227167647915764, 0.7633261990089495, 0.19816386065194247, 0.29776655029203597, -1.1211029790442535],
        [0.10516999949594599, 0.03441394898766847, 1.108997000677458, 0.2121712588374178, -0.023694735837607696, -0.13679874210330903, -0.3602833038937279]],
    4: [[0.4812276511288773, 0.13007812902242963, 1.1879209988689428, 0.1585001451490293, -0.07900389119014707, 0.3093288148355333, -0.39650274738486274],
        [0.7982755141827031, 1.9685248427260689, 0.16281395455013667, 1.6250204634030234, -0.9130704367453172, 0.3134460086111991, -0.471913260702198]],
}
PINNED_P = {
    1: [[1.3480208536892555, 1.4806721498376676, 3.032529305470002, 1.3119004348111123, 0.017798413746038334, 0.08399297189588192, -0.6485774391287679],
        [1.336977872090319, 0.7104885284787736, 1.8483826104235495, 0.5747197440799595, 0.052726825267831415, 0.7207351714347665, -0.45253774098421173]],
    3: [[2.1895672121390746, 0.9028455659497524, 8.512074669526665, 0.8224717808301082, -0.27121696163844505, -0.4517575919695484, -1.0315670352025452],
        [3.040279642213127, 0.9513717888238205, 8.712602634747025, 0.08212413054371125, 1.150793149062025, -0.028467688569563603, 0.7117831232002118]],
    4: [[1.1325141910455536, 0.8831768353762205, 1.3566871189383454, 1.9896026903698196, 0.08259166043937002, -0.7766000769120864, -1.072181231796453],
        [0.8288952660469122, 0.9802235402408827, 6.427186994055204, 2.870511041741078, -0.16837072738209097, 2.086965732252814, -0.39702270167591897]],
}
# pivot -> (diag, sub, sup) of the LU(M) factor of Y
PINNED_T = {
    1: ([1.400921071947414, 1.5508453481248667, 1.2986006454501848, 1.4832396974191326], [],
        [0.19344288607676532, -0.308023872775246, 0.337099931231621]),
    3: ([1.4142135623730951, 1.5668439615992398, 1.27325980077674, 1.4832396974191326],
        [0.21213203435596426, -0.25529025850904113], [0.337099931231621]),
    4: ([1.4142135623730951, 1.5668439615992398, 1.3171282716236816, 1.4338386946261044],
        [0.21213203435596426, -0.25529025850904113, 0.3796137481610869], []),
}


@pytest.mark.parametrize("M", [1, 3, 4])
def test_seeded_draws_and_factor_are_pinned(M):
    q = wq.sample_many(wq.WishartQ(ShapeParams(M, S_Q), Y), np.random.default_rng(M), 2)
    p = wp.sample_p_many(wp.WishartP(ShapeParams(M, S_P), X), np.random.default_rng(M), 2)
    t = decompose(Y, M)
    assert np.array_equal(q, np.array(PINNED_Q[M]))
    assert np.array_equal(p, np.array(PINNED_P[M]))
    diag, sub, sup = PINNED_T[M]
    assert np.array_equal(t.diag, diag)
    assert np.array_equal(t.sub, sub)
    assert np.array_equal(t.sup, sup)


def test_chains_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    M = n // 3
    rng = np.random.default_rng(12)
    y = random_pd_tridiag(rng, n)
    x = random_q_elem(rng, n)
    q = wq.sample_many(wq.WishartQ(ShapeParams(M, np.full(n, 1.5)), y), rng, 4)
    p = wp.sample_p_many(wp.WishartP(ShapeParams(M, np.full(n, 0.5)), x), rng, 4)
    assert q.shape == p.shape == (4, 2 * n - 1)
    assert all(is_in_Q(IncompleteSym.from_coords(row)) for row in q)
    assert all(is_in_P(TridiagSym.from_coords(row)) for row in p)
    t = decompose(y, M).to_dense()
    assert np.allclose(t @ t.T, y.to_dense(), rtol=0.0, atol=1e-12)


# (sampler, n) -> sha256 over every pivot in {1, (n+1)//2, n} and every draw
# count of _digest_sizes, in that order (see _draw_digest)
DIGESTS = {
    ("q", 1): "eab546d6687de36983530df32443bbf20120258db280e6992e289c67e2906849",
    ("q", 2): "02705b29d70efafc7d28e132230ceca0ad4894edf4e0b35fcbf3e9e5035276ba",
    ("q", 13): "9ac3cd39664460da6f617180035bed8695a025aef35906672b2c027ce93f222b",
    ("q", 300): "893c2a17d5998ef972d133460fd4565c9e6c60f7727c4e846e60f7f8dcfa97c6",
    ("q", 1500): "c14fbc810443b62edeab8dbe7638b260da04930d908a62781b3e141ded59178b",
    ("p", 1): "29c1aa0b7a5c4cf8e2ea41388731c67254cda7622c49af3f2218b0019225cdf6",
    ("p", 2): "6b261d8fc76c6ccc68196ffe4fbc5dd363c3bee72e882de3442f3c202d27c731",
    ("p", 13): "39d6eb946944370f3ebd057eef6e0b6e44c5d130ebfdad00f4e1ca5efb79f07f",
    ("p", 300): "369f05c8a27c6b7e71094e4e40d73edd3c4f2fed4b0b72297f39b51212a7d82f",
    ("p", 1500): "61c2d3be2700e0512ea681e9d040586c9899910916c568fda0b40f6e28fe441a",
    ("gram", 1): "d44e7b00712133970e16e0b16d540512e301a54f5d3f91be0757f1192ab0b9c8",
    ("gram", 2): "38633374b4c6e63c52d19894cd3d5ee499b9c6cadf0ef2b62479bb5a29641361",
    ("gram", 13): "0f6d502acf0ad0526d047cb65f6537dd32c7859e38da29580b765a1c60154d6c",
    ("gram", 300): "4964249a454dc9c15b7a26b798d83c082ad696bc07017f7a314e9e1b5dcca41e",
}


def _digest_sizes(kind, n):
    # the quadratic construction draws O(n^2) normals per draw, so it is
    # capped at 16 draws for n = 300 and skipped at n = 1500
    return [1, 16] if kind == "gram" and n >= 300 else [1, 16, 500]


def _draw_digest(kind, n):
    h = hashlib.sha256()
    rng = np.random.default_rng(n)
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    # multiplicities 0 to 3, and 9: numpy adds 9 or more contiguous terms in another order
    sigma = [(i + 1) % 4 for i in range(n - 1)] + [9]
    for M in sorted({1, (n + 1) // 2, n}):
        s_q, s_p = random_shape_q(rng, n, M), random_shape_p(rng, n, M)
        for size in _digest_sizes(kind, n):
            draw = np.random.default_rng([n, M, size])
            if kind == "q":
                out = wq.sample_many(wq.WishartQ(s_q, y), draw, size)
            elif kind == "p":
                out = wp.sample_p_many(wp.WishartP(s_p, x), draw, size)
            else:
                out = wq.sample_gram_many(wq.basic_index_sets(sigma, M, n), y, draw, size)
            assert out.shape == (size, 2 * n - 1) and out.dtype == np.float64
            h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, n", list(DIGESTS), ids=[f"{k}-{n}" for k, n in DIGESTS])
def test_seeded_draw_stream_is_pinned_by_digest(kind, n):
    assert _draw_digest(kind, n) == DIGESTS[kind, n]


def test_each_family_forms_its_peel_plan_once(monkeypatch):
    # every module's binding of the peel kernel and of the Q cone test, wrapped to count its calls
    calls = {"_peel_unit": 0, "_q_gaps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rng = np.random.default_rng(10)
    n = 10
    w_q = wq.WishartQ(random_shape_q(rng, n, 4), random_pd_tridiag(rng, n))
    w_p = wp.WishartP(random_shape_p(rng, n, 7), random_q_elem(rng, n))
    u = random_pd_tridiag(rng, n)
    originals = {name: getattr(matrix_spaces, name) for name in calls}
    for info in pkgutil.iter_modules(chainwishart.__path__):
        mod = importlib.import_module(f"chainwishart.{info.name}")
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    for _ in range(100):
        wq.sample_many(w_q, rng, 3)
        wq.mean(w_q)
        wq.covariance_apply(w_q, u)
    assert calls == {"_peel_unit": 0, "_q_gaps": 0}  # w_q formed its plan at construction
    for _ in range(100):
        wp.sample_p_many(w_p, rng, 3)
    assert calls == {"_peel_unit": 1, "_q_gaps": 0}


def test_a_q_family_peels_y_once_in_its_lifetime(monkeypatch):
    # every module's binding of the peel kernel, wrapped to count the sweeps of y itself
    rng = np.random.default_rng(11)
    n = 10
    p, y = random_shape_q(rng, n, 4), random_pd_tridiag(rng, n)
    x, z, u = random_q_elem(rng, n), 0.3 * random_pd_tridiag(rng, n), random_pd_tridiag(rng, n)
    sweeps = []
    original = matrix_spaces._peel_unit

    def counted(diag, *args, **kwargs):
        sweeps.append(diag is y.diag)
        return original(diag, *args, **kwargs)

    for info in pkgutil.iter_modules(chainwishart.__path__):
        mod = importlib.import_module(f"chainwishart.{info.name}")
        if getattr(mod, "_peel_unit", None) is original:
            monkeypatch.setattr(mod, "_peel_unit", counted)
    w = wq.WishartQ(p, y)
    for _ in range(100):
        wq.mean(w)
        wq.sample_many(w, rng, 3)
        wq.covariance_apply(w, u)
        wq.log_density(w, x)
        wq.log_laplace(w, z)
    assert sweeps.count(True) == 1


# (sampler, n, M) -> sha256 over the draw counts of ARM_SIZES, in that order
# (see _arm_digest).  Each pivot leaves arms of unequal length on its two
# sides, so the right arm (drawn first) and the left arm end at different
# steps.  Recorded from the samplers as they stood before they drew every
# variate ahead of the arithmetic.
ARM_SIZES = (0, 1, 16, 500)
ARM_DIGESTS = {
    ("q", 13, 4): "dd277d8c1fa6e241d9e0d7f10b65115984a87a2bd93aad8469256a20729de9a1",
    ("q", 13, 11): "e640403de28bc33dc483a46f90a967361c62037ee8f5dc2e4c1e133b47b832b1",
    ("q", 300, 75): "e5f0d58cdf5617dacaa9791c8208dd074a36e63528c153433db6133f9f71d35b",
    ("p", 13, 4): "4e2ca6168878ba9626ffd836503ce621e4f072df126f5725dcf4704c20454e01",
    ("p", 13, 11): "eabac61c13920df6353ee4f215cad6083d5df7b412ac6660d54ec700da44e37b",
    ("p", 300, 75): "ed1c7bffd9f1dc33a99d8fae89e3b5365f61e3b0e265b6f66dc6aa26d41d6841",
    ("gram", 13, 4): "beec39e0c90dabda0a3a0016aec972e0b6c3a8a7312314cba4a069f0f1042363",
    ("gram", 13, 11): "256685b12846ed1d3513d3db2a76d58f038e9af34a2ff57d5e44087f51f3edea",
    ("gram", 300, 75): "162068bd3d1910222298423875ea129573ce06dbda835f5f60c7c418176938ea",
}


def _arm_digest(kind, n, M):
    h = hashlib.sha256()
    rng = np.random.default_rng([n, M, 7])
    y, x = random_pd_tridiag(rng, n), random_q_elem(rng, n)
    w_q, w_p = wq.WishartQ(random_shape_q(rng, n, M), y), wp.WishartP(random_shape_p(rng, n, M), x)
    # a few sets on each side of the pivot; 9 terms on the full set and on {n}
    sigma = np.zeros(n, dtype=int)
    for v, mult in ((1, 1), (2, 2), (M - 1, 3), (M, 9), (M + 1, 2), (n - 1, 1), (n, 9)):
        sigma[v - 1] = mult
    for size in ARM_SIZES:
        draw = np.random.default_rng([n, M, size])
        if kind == "q":
            out = wq.sample_many(w_q, draw, size)
        elif kind == "p":
            out = wp.sample_p_many(w_p, draw, size)
        else:
            out = wq.sample_quadratic_many(sigma, M, y, draw, size)
        assert out.shape == (size, 2 * n - 1) and out.dtype == np.float64
        assert out.flags.c_contiguous
        h.update(out.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, n, M", list(ARM_DIGESTS), ids=[f"{k}-{n}-M{M}" for k, n, M in ARM_DIGESTS])
def test_seeded_draws_on_unequal_arms_are_pinned_by_digest(kind, n, M):
    assert _arm_digest(kind, n, M) == ARM_DIGESTS[kind, n, M]


@pytest.mark.parametrize("kind", ["q", "p"])
@pytest.mark.parametrize("n, size", [(3, 100_000), (300, 500), (1500, 16)])
def test_sampler_peak_memory_stays_near_its_output(kind, n, size):
    rng = np.random.default_rng([n, 8])
    if kind == "q":
        w = wq.WishartQ(random_shape_q(rng, n, n // 3 + 1), random_pd_tridiag(rng, n))
        sampler = wq.sample_many
    else:
        w = wp.WishartP(random_shape_p(rng, n, n // 3 + 1), random_q_elem(rng, n))
        sampler = wp.sample_p_many
    sampler(w, rng, 1)  # a family forms its sampler constants once, on its first draw
    tracemalloc.start()
    try:
        out = sampler(w, rng, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (size, 2 * n - 1)
    assert peak <= 2.5 * out.nbytes
