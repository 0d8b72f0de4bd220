"""Bit-level pins of the closed forms on both cones.

Each sha256 digest covers the float64 bytes one function returns over
n in {1, 2, 3, 13, 10^4}, pivots M in {1, (n+1)//2, n} and elements scaled by
c in {1e-150, 1, 1e150}, in that order (see ``_digest``).  The digests were
recorded from the implementation as it stood before the dual-cone closed
forms were rewritten to read each element in one sweep, so any change in a
returned value, down to its last bit, fails them.  The exceptions:
``covariance_apply`` and ``variance_apply_nice`` were recorded later;
``covariance_p_apply`` was re-recorded when it became the clique form applied
at unit scale (its values moved by at most 2.7e-16 of the largest entry); and
``log_norm_constant``, ``log_norm_constant_p``, ``log_density`` and
``log_density_p`` were re-recorded when the normalizer moved from
``scipy.special.gammaln`` to ``math.lgamma`` with the same order of additions
(the normalizers moved by at most 1.9e-14 relative; against a 50-digit
``mpmath`` sum their worst error went from 5.7e-15 to 1.8e-14, see
``tests/test_normalizer_oracle.py``).

``covariance_p_matrix`` is compared with ``np.array_equal`` against the
stacked ``covariance_p_apply`` columns instead: it is the same clique-form
operator, applied to the identity in place of one basis element at a time.
"""

import hashlib

import numpy as np
import pytest

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import ConeError, IncompleteSym, TridiagSym, assert_in_Q, ig_basis, lauritzen_map
from chainwishart.power_functions import ShapeParams, delta_exponents, log_phi

from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

SIZES = (1, 2, 3, 13, 10_000)
SCALES = (1e-150, 1.0, 1e150)


def _cases(sizes=SIZES):
    """``(n, M, c, data)`` over ``sizes``, every pivot and scale, with one seeded draw of data per size."""
    for n in sizes:
        rng = np.random.default_rng([20261018, n])
        y, z, x, theta = (random_pd_tridiag(rng, n), random_pd_tridiag(rng, n),
                          random_q_elem(rng, n), random_q_elem(rng, n))
        u, v = TridiagSym.from_coords(rng.normal(size=2 * n - 1)), IncompleteSym.from_coords(rng.normal(size=2 * n - 1))
        for M in sorted({1, (n + 1) // 2, n}):
            s_q, s_p = random_shape_q(rng, n, M), random_shape_p(rng, n, M)
            for c in SCALES:
                yield n, M, c, dict(c=c, s_q=s_q, s_p=s_p, y=c * y, z=c * z, x=c * x, theta=c * theta,
                                    u=c * u, v=c * v, wq=wq.WishartQ(s_q, c * y), wp=wp.WishartP(s_p, c * x))


def _off_cone(d):
    """A point of ``I`` outside ``Q`` and one of ``Z`` outside ``P``, at the scale of ``d``."""
    x, y = d["x"], d["y"]
    return IncompleteSym(x.n, x.diag, 2.0 * x.diag[:-1] + x.off), TridiagSym(y.n, y.diag, 2.0 * y.diag[:-1] + y.off)


def _values(name, d):
    if name == "log_density":
        bad = _off_cone(d)[0]
        return [wq.log_density(d["wq"], d["x"])] + ([wq.log_density(d["wq"], bad)] if d["x"].n > 1 else [])
    if name == "log_laplace":
        return [wq.log_laplace(d["wq"], d["z"])]
    if name == "log_density_p":
        bad = _off_cone(d)[1]
        return [wp.log_density_p(d["wp"], d["y"])] + ([wp.log_density_p(d["wp"], bad)] if d["y"].n > 1 else [])
    if name == "log_laplace_p":
        return [wp.log_laplace_p(d["wp"], d["theta"])]
    if name == "log_norm_constant":
        return [wq.log_norm_constant(d["s_q"])]
    if name == "log_norm_constant_p":
        return [wp.log_norm_constant_p(d["s_p"])]
    if name == "delta_exponents":
        return np.concatenate(delta_exponents(d["s_q"].s, d["s_q"].M))
    if name == "riesz_p_exponents":
        return np.concatenate(wp.riesz_p_exponents(d["s_p"].s, d["s_p"].M))
    if name == "inverse_mean":
        return wq.inverse_mean(d["s_q"], d["x"]).coords()
    if name == "mean_p":
        return wp.mean_p(d["wp"]).coords()
    if name == "lauritzen_map":
        return lauritzen_map(d["x"]).coords()
    if name == "covariance_p_apply":
        return wp.covariance_p_apply(d["wp"], d["v"]).coords()
    if name == "covariance_apply":
        return wq.covariance_apply(d["wq"], d["u"]).coords()
    if name == "variance_apply_nice":  # degree 2 in m: u at unit scale keeps the value in range
        return wq.variance_apply_nice(d["s_q"], d["x"], (1.0 / d["c"]) * d["u"]).coords()
    raise KeyError(name)


def _digest(name):
    h = hashlib.sha256()
    for *_, d in _cases():
        h.update(np.asarray(_values(name, d), dtype=np.float64).tobytes())
    return h.hexdigest()


DIGESTS = {
    "log_density": "d28b1baa8a87519d32741f12a93be57f863ad67d27ac871f8f187003d5bddce2",
    "log_laplace": "70d006a98657d9abc45dbc29774b0d2278ff3964ae36ce7e619094feeaf72914",
    "log_density_p": "ceb788e112cbac3928e2688d33fe5508a14291309fd66739349c4b794460ae57",
    "log_laplace_p": "6a577d9c30ed813e24c05de9cd901c8148dfa450a5d270b17ccb7d728e18998c",
    "log_norm_constant": "92f2473a8ef424bfb798b6deca0c95a306bbc848a09238406b911ba382b17dc5",
    "log_norm_constant_p": "e444652b0b09abdddf4928164bc2a53fd9412715be6ec0c644760d58a85d5c50",
    "delta_exponents": "17ff835233fac3b24ea331028a56a42de5ba825741daa428a325c7c81c96cc2e",
    "riesz_p_exponents": "34da96547405b6f169e19cc82163130753799e23a1d25a9165dbbd66154a972a",
    "inverse_mean": "84d63a0539aa44fdcfbf251be49cb1b37d11c9825533cdb34b81624d160c3f9a",
    "mean_p": "45d69f92a84e3f03fc73b63f83cfdbbbe826095ffe1569617c723acd02e57c1a",
    "lauritzen_map": "090a8805cdef5db61c0ad666eff5f619bea7bc78eb4fa57e42d910d4c00bc907",
    "covariance_p_apply": "d822e46670020035c3283ffa2d77ed945025c523dc7a8aff996a55a9fea2f503",
    "covariance_apply": "b9bf59c53b05542b3762054e87663c751fa0af542313d9e42fc4aa2499b1bdea",
    "variance_apply_nice": "dd6b9ae62eafbb3c63530f9dcc4cd757957de3dc0be1f0970b2da818642f88fa",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_closed_form_values_are_pinned_by_digest(name):
    assert _digest(name) == DIGESTS[name]


# the moments at orders N = 1 and 2 (directions z, u on Q and x, v on P),
# recorded when the jet log was the series of log(1 + u); n = 10^4 is left out
MOMENT_DIGESTS = {
    "moment": "514f6b129ffe5f8b74186010a95a3667e37ff7131667c51eb9c9807bc4554744",
    "moment_p": "3b5c8f7629967f42d6fd26fa2823530298383506467a9d673c78ed7ca56372c4",
}


def _moments(name, d):
    if name == "moment":
        return [wq.moment(d["wq"], wq.MomentSpec(z)) for z in ([d["z"]], [d["z"], d["u"]])]
    return [wp.moment_p(d["wp"], x) for x in ([d["x"]], [d["x"], d["v"]])]


@pytest.mark.parametrize("name", list(MOMENT_DIGESTS))
def test_moments_of_order_one_and_two_are_pinned_by_digest(name):
    h = hashlib.sha256()
    for *_, d in _cases(SIZES[:-1]):
        h.update(np.asarray(_moments(name, d), dtype=np.float64).tobytes())
    assert h.hexdigest() == MOMENT_DIGESTS[name]


@pytest.mark.parametrize("n", [1, 2, 3, 13, 40, 200])
@pytest.mark.parametrize("c", SCALES)
def test_covariance_p_matrix_equals_its_columns(n, c):
    rng = np.random.default_rng([7, n])
    for M in sorted({1, (n + 1) // 2, n}):
        w = wp.WishartP(random_shape_p(rng, n, M), c * random_q_elem(rng, n))
        cols = [wp.covariance_p_apply(w, ig_basis(n, k)).coords() for k in range(2 * n - 1)]
        assert np.array_equal(wp.covariance_p_matrix(w), np.column_stack(cols))


# (element, name) -> the ConeError text, recorded with the digests above
CONE_ERRORS = [
    (IncompleteSym(1, [-1.0], []), "x", "x is outside the dual cone: diagonal entry 1 is not positive"),
    (IncompleteSym(3, [1.0, 0.0, 1.0], [0.0, 0.0]), "m",
     "m is outside the dual cone: diagonal entry 2 is not positive"),
    (IncompleteSym(3, [1.0, 2.0, 1.0], [-1.0, 1.5]), "x",
     "x is outside the dual cone: clique block (2,3) has non-positive determinant -0.25"),
    (IncompleteSym(3, [1e150, 2e150, 1e150], [-1e150, 1.5e150]), "theta + x",
     "theta + x is outside the dual cone: clique block (2,3) has non-positive determinant -2.5e+299"),
    # past the double range: the determinant itself overflows or underflows a double
    (IncompleteSym(3, [1e200, 2e200, 1e200], [-1e200, 1.5e200]), "x",
     "x is outside the dual cone: clique block (2,3) has non-positive determinant -2.5e+399"),
    (IncompleteSym(3, [1e-200, 2e-200, 1e-200], [-1e-200, 1.5e-200]), "x",
     "x is outside the dual cone: clique block (2,3) has non-positive determinant -2.5e-401"),
]


@pytest.mark.parametrize("x, name, text", CONE_ERRORS)
def test_dual_cone_error_texts_are_pinned(x, name, text):
    with pytest.raises(ConeError) as err:
        assert_in_Q(x, name)
    assert str(err.value) == text
    if name == "x":  # the closed forms that test their argument name it x
        ones = lambda e: ShapeParams(1, np.ones(e.n))
        for fn in (lauritzen_map, log_phi, lambda e: wq.inverse_mean(ones(e), e),
                   lambda e: wp.mean_p_formula(ones(e), e), wp.canonical_measure_check):
            with pytest.raises(ConeError) as err:
                fn(x)
            assert str(err.value) == text


def test_a_non_member_past_the_double_range_is_outside_without_warnings():
    # its clique determinant overflows; the density reads -inf and the test raises ConeError
    x = IncompleteSym(3, [1e200, 2e200, 1e200], [-1e200, 1.5e200])
    w = wq.WishartQ(ShapeParams(2, [1.0, 1.0, 1.0]), TridiagSym(3, [1.0, 1.0, 1.0], [0.0, 0.0]))
    assert wq.log_density(w, x) == float("-inf")
    with pytest.raises(ConeError, match="clique block \\(2,3\\)"):
        assert_in_Q(x)
