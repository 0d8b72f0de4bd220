"""Each input rule is decided in one place.

A pivot ``M`` is checked by ``matrix_spaces._pivot`` alone, so every
function that takes one rejects a bad ``M`` with the same text and reads
``2.0`` as ``2``.  Two sized inputs are compared by
``matrix_spaces._same_size`` alone, with one text.  The directions of a
moment are checked by ``power_functions._jet_moment`` alone, for both cones,
against one fixed cap.  A float vector is coerced and checked by
``matrix_spaces._as_vector`` alone: one text for a wrong length, one for a
non-finite entry.  An integral input is read by ``matrix_spaces._integral``
alone: ``2.0`` is ``2``, and a fraction or a boolean is one ``TypeError``;
each function keeps its own range text.  The guards at the end keep the
decisions there.
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
from chainwishart import verification
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.chain_graph import build_chain, enumerate_eliminating_orders, future_neighbors, predecessors
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym, _BandedSym, ig_basis, pairing, zg_basis

from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q

PACKAGE = Path(chainwishart.__file__).parent
N = 3
Y = TridiagSym(N, [2.0, 2.0, 2.0], [0.3, -0.2])
LM = lm.LMParams([1.0, 1.0], [1.0])

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
    "matches_pattern": lambda M: lm.matches_pattern(LM, M),
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
    if isinstance(v, _BandedSym):
        return type(v).__name__, _canon(v.coords())
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
    assert str(err.value) == "alpha must have length 0, got shape (3,)"
    assert wp.quadratic_params_p_inverse([], [1.0], 1) == pf.ShapeParams(1, [-0.5])


#: Every public float-vector input, keyed ``entry.name``: ``(call of that vector alone, a valid vector,
#: its length)``.  The length is None where the vector itself sets the size, so no length is wrong.
VECTOR_ENTRY_POINTS = {
    "TridiagSym.diag": (lambda v: TridiagSym(N, v, [0.3, -0.2]), [2.0, 2.0, 2.0], N),
    "TridiagSym.off": (lambda v: TridiagSym(N, [2.0, 2.0, 2.0], v), [0.3, -0.2], N - 1),
    "IncompleteSym.diag": (lambda v: IncompleteSym(N, v, [0.3, -0.2]), [2.0, 2.0, 2.0], N),
    "IncompleteSym.off": (lambda v: IncompleteSym(N, [2.0, 2.0, 2.0], v), [0.3, -0.2], N - 1),
    "from_coords.coordinate vector": (TridiagSym.from_coords, [2.0, 2.0, 2.0, 0.3, -0.2], None),
    "ShapeParams.s": (lambda v: pf.ShapeParams(2, v), [1.0, 1.5, 2.0], None),
    "delta_exponents.s": (lambda v: pf.delta_exponents(v, 2), [1.0, 1.5, 2.0], None),
    "riesz_p_exponents.s": (lambda v: wp.riesz_p_exponents(v, 2), [1.0, 1.5, 2.0], None),
    "log_delta_order.s": (lambda v: pf.log_delta_order(v, ORDER, X), [1.0, 1.5, 2.0], N),
    "log_Delta_order.s": (lambda v: pf.log_Delta_order(v, ORDER, Y), [1.0, 1.5, 2.0], N),
    "sigma_to_shape.sigma": (lambda v: wq.sigma_to_shape(v, 2), [1.0, 2.0, 1.0], None),
    "quadratic_params_p_inverse.alpha": (
        lambda v: wp.quadratic_params_p_inverse(v, [0.0, 1.0, 0.0], 2), [3.0, 4.0], N - 1),
    "quadratic_params_p_inverse.beta": (
        lambda v: wp.quadratic_params_p_inverse([3.0, 4.0], v, 2), [0.0, 1.0, 0.0], None),
    "LMParams.alpha": (lambda v: lm.LMParams(v, [1.0]), [1.0, 1.0], N - 1),
    "LMParams.beta": (lambda v: lm.LMParams([1.0, 1.0], v), [1.0], None),
    "LUMMatrix.diag": (lambda v: lum.LUMMatrix(N, 2, v, [0.1], [0.2]), [1.0, 2.0, 3.0], N),
    "LUMMatrix.sub": (lambda v: lum.LUMMatrix(N, 2, [1.0, 2.0, 3.0], v, [0.2]), [0.1], 1),
    "LUMMatrix.sup": (lambda v: lum.LUMMatrix(N, 2, [1.0, 2.0, 3.0], [0.1], v), [0.2], 1),
    "ks_test_gamma.draws": (lambda v: verification.ks_test_gamma(v, 1.0, 1.0), [0.5, 1.0, 2.0], None),
    "fd_jacobian.point": (lambda v: verification.fd_jacobian(lambda t: t, v), [1.0, 2.0], None),
}


@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_vector_entry_is_one_value_error(entry, bad):
    call, good, _ = VECTOR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as err:
        call([*good[:-1], bad])
    assert str(err.value) == f"{entry.partition('.')[2]} must be finite"


@pytest.mark.parametrize("entry", [e for e, (_, _, length) in VECTOR_ENTRY_POINTS.items() if length is not None])
def test_a_vector_of_the_wrong_length_is_one_value_error(entry):
    call, good, length = VECTOR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as err:
        call([*good, 1.0])
    assert str(err.value) == f"{entry.partition('.')[2]} must have length {length}, got shape ({length + 1},)"


def _gram(lo=1, hi=N, mult=1):
    return wq.sample_gram_many([(lo, hi, mult)], Y, np.random.default_rng(5), 4)


#: Every integral input but a pivot (``PIVOT_ENTRY_POINTS`` holds those), keyed ``entry.name``: ``(call of
#: that integer alone, a valid value, a value out of range, the function's range error)``, on a chain of N vertices.
INTEGER_ENTRY_POINTS = {
    "integer_feasibility_p.n": (wp.integer_feasibility_p, 2, 0, "n must be at least 1"),
    "basic_index_sets.n": (lambda n: wq.basic_index_sets([1, 2, 1], 2, n), 3, 4, "size mismatch"),
    "basic_index_sets.sigma": (
        lambda k: wq.basic_index_sets([1, k, 1], 2, N), 2, -1, "sigma must be a vector of nonnegative integers"),
    "sample_gram_many.lo": (lambda lo: _gram(lo=lo), 2, 0, "invalid interval (0, 3)"),
    "sample_gram_many.hi": (lambda hi: _gram(hi=hi), 2, 4, "invalid interval (1, 4)"),
    "sample_gram_many.multiplicity": (
        lambda m: _gram(mult=m), 2, -1, "multiplicity -1 of interval (1, 3) is not a nonnegative integer"),
    "zg_basis.n": (lambda n: zg_basis(n, 2), 2, 1, "basis index 2 out of range 0..0"),
    "zg_basis.k": (lambda k: zg_basis(N, k), 2, -1, "basis index -1 out of range 0..4"),
    "ig_basis.n": (lambda n: ig_basis(n, 2), 2, 1, "basis index 2 out of range 0..0"),
    "ig_basis.k": (lambda k: ig_basis(N, k), 2, 5, "basis index 5 out of range 0..4"),
    "clique_block.clique index": (Y.clique_block, 2, 3, "clique index 3 out of range 1..2"),
    "submatrix.lo": (lambda lo: Y.submatrix(lo, 3), 2, 0, "invalid interval"),
    "submatrix.hi": (lambda hi: Y.submatrix(1, hi), 2, 4, "invalid interval"),
    "phi_exponents.n": (pf.phi_exponents, 2, 0, "n must be at least 1"),
    "beta_at.separator index": (LM.beta_at, 2, 3, "separator index 3 out of range 2..2"),
    "future_neighbors.vertex": (lambda v: future_neighbors(ORDER, v), 2, 4, "unknown vertex 4"),
    "predecessors.vertex": (lambda v: predecessors(ORDER, v), 2, 0, "unknown vertex 0"),
    "adjacent.vertex": (lambda v: build_chain(N).adjacent(v, 3), 2, 4, "unknown vertex 4"),
    "position.vertex": (ORDER.position, 2, 0, "unknown vertex 0"),
    "operator_matrix.n": (
        lambda n: wq.operator_matrix(lambda u: IncompleteSym.from_coords(u.coords()), n), 2, 0, "n must be at least 1"),
    "coordinate_weights.n": (verification.coordinate_weights, 2, 0, "n must be at least 1"),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2.5, True])
def test_a_fraction_or_boolean_integer_is_one_type_error(entry, bad):
    call = INTEGER_ENTRY_POINTS[entry][0]
    with pytest.raises(TypeError) as err:
        call(bad)
    assert str(err.value) == f"{entry.partition('.')[2]} must be an integral number, got {bad!r}"


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_an_integral_float_integer_gives_the_same_result(entry):
    call, good, _, _ = INTEGER_ENTRY_POINTS[entry]
    assert _canon(call(float(good))) == _canon(call(good)) == _canon(call(np.int64(good)))


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_an_integer_out_of_range_is_the_functions_value_error(entry):
    call, _, outside, text = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as err:
        call(outside)
    assert str(err.value) == text


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


def _float_coercions_of_a_parameter(tree: ast.AST) -> list[int]:
    """Lines where ``np.asarray``/``np.array`` turns a parameter of the enclosing function into floats."""
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array") and node.args):
                continue
            arg = node.args[0]
            # a dataclass field reaches __post_init__ as ``self.<field>``
            if not (isinstance(arg, ast.Name) and arg.id in params
                    or isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "self"):
                continue
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes):
                lines.append(node.lineno)
    return lines


def test_only_matrix_spaces_coerces_a_float_parameter():
    """Every float vector goes through ``_as_vector``.

    ``_formats`` may not import ``matrix_spaces`` and coerces only the dense matrices it writes.
    """
    found = []
    for module, text in _sources().items():
        if module not in ("matrix_spaces", "_formats"):
            found += [f"{module}:{line}" for line in _float_coercions_of_a_parameter(ast.parse(text))]
    assert found == []


def test_the_coercion_guard_sees_the_old_idiom():
    old = "def f(s):\n    s = np.asarray(s, dtype=float).reshape(-1)\n"
    field = "class C:\n    def __post_init__(self):\n        self.s = np.asarray(self.s, dtype=float)\n"
    assert _float_coercions_of_a_parameter(ast.parse(old)) == [2]
    assert _float_coercions_of_a_parameter(ast.parse(field)) == [3]
    assert _float_coercions_of_a_parameter(ast.parse("def f(s):\n    t = np.asarray(s)\n")) == []


def _integrality_tests(tree: ast.AST) -> list[int]:
    """Lines that decide integrality by hand: the ``operator`` module, ``np.integer``, ``.is_integer`` or ``% 1``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "operator" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and (
            node.attr == "is_integer"
            or node.attr == "integer" and getattr(node.value, "id", None) in ("np", "numpy")
            or node.attr == "index" and getattr(node.value, "id", None) == "operator"
        ):
            lines.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and isinstance(node.right, ast.Constant) and node.right.value == 1):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_matrix_spaces_decides_integrality():
    """Every integral input goes through ``_integral``."""
    found = []
    for module, text in _sources().items():
        if module != "matrix_spaces":
            found += [f"{module}:{line}" for line in _integrality_tests(ast.parse(text))]
    assert found == []


def test_the_integrality_guard_sees_the_old_idioms():
    old = (
        "import operator\n"
        "n = operator.index(n)\n"
        "ints = (int, np.integer)\n"
        "ok = all(v % 1 == 0 for v in sigma)\n"
        "ok = float(v).is_integer()\n"
    )
    assert _integrality_tests(ast.parse(old)) == [1, 2, 3, 4, 5]
    assert _integrality_tests(ast.parse("odd = size % 2\nk = _integral(k, 'k')\n")) == []


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
