"""Each input rule is decided in one place.

A pivot ``M`` is checked by ``matrix_spaces._pivot`` alone, so every
function that takes one rejects a bad ``M`` with the same text and reads
``2.0`` as ``2``.  Two sized inputs are compared by
``matrix_spaces._same_size`` alone, with one text.  The directions of a
moment are checked by ``power_functions._jet_moment`` alone, for both cones,
against one fixed cap.  The guards at the end keep the decisions there.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import chainwishart
from chainwishart import letac_massam as lm
from chainwishart import lum_triangular as lum
from chainwishart import peeling
from chainwishart import power_functions as pf
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.chain_graph import build_chain, enumerate_eliminating_orders
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym, pairing

from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

PACKAGE = Path(chainwishart.__file__).parent
N = 3
Y = TridiagSym(N, [2.0, 2.0, 2.0], [0.3, -0.2])

#: Every function that takes a pivot, as a function of the pivot alone, on a chain of N vertices.
PIVOT_ENTRY_POINTS = {
    "ShapeParams": lambda M: pf.ShapeParams(M, [1.0, 1.5, 2.0]),
    "delta_exponents": lambda M: pf.delta_exponents([1.0, 1.5, 2.0], M),
    "riesz_p_exponents": lambda M: wp.riesz_p_exponents([1.0, 1.5, 2.0], M),
    "sigma_to_shape": lambda M: wq.sigma_to_shape([1, 2, 1], M),
    "basic_index_sets": lambda M: wq.basic_index_sets([1, 2, 1], M, N),
    "sample_quadratic_many": lambda M: wq.sample_quadratic_many([1, 2, 1], M, Y, np.random.default_rng(5), 4),
    "quadratic_params_p_inverse": lambda M: wp.quadratic_params_p_inverse([3.0, 4.0], [0.0, 1.0, 0.0], M),
    "LUMMatrix": lambda M: lum.LUMMatrix(N, M, [1.0, 2.0, 3.0], [0.1], [0.2]),
    "decompose": lambda M: lum.decompose(Y, M),
}


_RNG = np.random.default_rng(4)
P_Q, P_P, X = random_shape_q(_RNG, N, 2), random_shape_p(_RNG, N, 2), random_q_elem(_RNG, N)
WQ, WP = wq.WishartQ(P_Q, Y), wp.WishartP(P_P, X)
ORDER = enumerate_eliminating_orders(build_chain(N))[0]
Y2, X2 = TridiagSym(2, [1.0, 1.0], [0.0]), IncompleteSym(2, [1.0, 1.0], [0.0])

#: Every public function that takes two sized inputs, called with one of N vertices and one of 2.
SIZED_ENTRY_POINTS = {
    "pairing": lambda: pairing(Y, X2),
    "trace_decomposition_check": lambda: peeling.trace_decomposition_check(Y, X2),
    "trace_decomposition_check_tilde": lambda: peeling.trace_decomposition_check_tilde(Y, X2),
    "log_delta_M": lambda: pf.log_delta_M(P_Q, X2),
    "log_Delta_M": lambda: pf.log_Delta_M(P_Q, Y2),
    "log_delta_order": lambda: pf.log_delta_order(P_Q.s, ORDER, X2),
    "log_Delta_order": lambda: pf.log_Delta_order(P_Q.s, ORDER, Y2),
    "WishartQ": lambda: wq.WishartQ(P_Q, Y2),
    "log_density": lambda: wq.log_density(WQ, X2),
    "log_laplace": lambda: wq.log_laplace(WQ, Y2),
    "mean_formula": lambda: wq.mean_formula(P_Q, Y2),
    "covariance_apply": lambda: wq.covariance_apply(WQ, Y2),
    "inverse_mean": lambda: wq.inverse_mean(P_Q, X2),
    "variance_apply_nice": lambda: wq.variance_apply_nice(P_Q, X, Y2),
    "intertwining_check": lambda: wq.intertwining_check(P_Q, X2),
    "moment": lambda: wq.moment(WQ, [Y2]),
    "hat_via_T": lambda: lum.hat_via_T(P_Q, X2),
    "WishartP": lambda: wp.WishartP(P_P, X2),
    "log_density_p": lambda: wp.log_density(WP, Y2),
    "log_laplace_p": lambda: wp.log_laplace(WP, X2),
    "mean_p_formula": lambda: wp.mean_formula(P_P, X2),
    "covariance_p_apply": lambda: wp.covariance_apply(WP, X2),
    "moment_p": lambda: wp.moment(WP, [X2]),
    "newton_inverse_mean_p": lambda: wp.inverse_mean(P_P, Y2),
    "log_H": lambda: lm.log_H(lm.LMParams([1.0, 1.0], [1.0]), X2),
}


def _canon(v):
    """A comparable form of a result: arrays by dtype, shape and bytes, objects by their fields, scalars by type."""
    if isinstance(v, np.ndarray):
        return "array", v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (list, tuple)):
        return tuple(_canon(u) for u in v)
    if isinstance(v, (pf.ShapeParams, lum.LUMMatrix)):
        return type(v).__name__, tuple(sorted((k, _canon(u)) for k, u in vars(v).items()))
    return type(v).__name__, v


@pytest.mark.parametrize("entry", PIVOT_ENTRY_POINTS)
@pytest.mark.parametrize("M", [0, N + 1])
def test_a_pivot_out_of_range_is_one_value_error(entry, M):
    with pytest.raises(ValueError) as err:
        PIVOT_ENTRY_POINTS[entry](M)
    assert str(err.value) == f"pivot M={M} out of range 1..{N}"


@pytest.mark.parametrize("entry", PIVOT_ENTRY_POINTS)
def test_an_integral_float_pivot_gives_the_same_result(entry):
    call = PIVOT_ENTRY_POINTS[entry]
    assert _canon(call(2.0)) == _canon(call(2))


@pytest.mark.parametrize("entry", PIVOT_ENTRY_POINTS)
@pytest.mark.parametrize("M", [1.5, True])
def test_a_fraction_or_boolean_pivot_is_one_type_error(entry, M):
    with pytest.raises(TypeError) as err:
        PIVOT_ENTRY_POINTS[entry](M)
    assert str(err.value) == f"pivot M must be an integral number, got {M!r}"


@pytest.mark.parametrize("entry", SIZED_ENTRY_POINTS)
def test_inputs_of_two_sizes_are_one_value_error(entry):
    with pytest.raises(ValueError) as err:
        SIZED_ENTRY_POINTS[entry]()
    assert str(err.value) == "size mismatch"


def test_quadratic_params_p_inverse_takes_no_clique_entry_at_one_vertex():
    with pytest.raises(ValueError) as err:
        wp.quadratic_params_p_inverse([5.0, 6.0, 7.0], [1.0], 1)
    assert str(err.value) == "alpha must have one entry per clique"
    assert wp.quadratic_params_p_inverse([], [1.0], 1) == pf.ShapeParams(1, [-0.5])


def _moment_calls():
    """``(moment on a family, a direction of its size, a direction of size 2)`` for each cone."""
    rng = np.random.default_rng(3)
    w = wq.WishartQ(random_shape_q(rng, N, 2), random_pd_tridiag(rng, N))
    wpp = wp.WishartP(random_shape_p(rng, N, 2), random_q_elem(rng, N))
    return [
        (lambda zs: wq.moment(w, zs), TridiagSym(N, [0.5, -0.2, 0.1], [0.1, 0.3]),
         TridiagSym(2, [1.0, 1.0], [0.0])),
        (lambda xs: wp.moment(wpp, xs), IncompleteSym(N, [0.5, -0.2, 0.1], [0.1, 0.3]),
         IncompleteSym(2, [1.0, 1.0], [0.0])),
    ]


@pytest.mark.parametrize("count, other, text", [
    (0, 0, "need at least one test direction"),
    (7, 0, "moment order 7 above cap 6"),
    (2, 1, "size mismatch"),
])
def test_both_moments_reject_the_same_directions_with_the_same_text(count, other, text):
    for call, good, bad in _moment_calls():
        with pytest.raises(ValueError) as err:
            call([good] * count + [bad] * other)
        assert str(err.value) == text


def _sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_only_matrix_spaces_raises_a_pivot_error():
    raisers = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and "pivot M=" in str(c.value) for c in ast.walk(node)
            ):
                raisers.append(f"{module}:{node.lineno}")
    assert raisers and all(r.startswith("matrix_spaces:") for r in raisers), raisers


def test_only_matrix_spaces_raises_a_size_error():
    raisers = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and any(t in str(c.value) for t in ("size mismatch", "disagree"))
                for c in ast.walk(node)
            ):
                raisers.append(f"{module}:{node.lineno}")
    assert raisers and all(r.startswith("matrix_spaces:") for r in raisers), raisers


def test_no_function_takes_a_cap():
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                found += [f"{module}.{node.name}" for name in names if name == "cap"]
            elif isinstance(node, ast.ClassDef):  # a dataclass field is a parameter of its __init__
                found += [f"{module}.{node.name}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "cap"]
    assert found == []
