"""No public closed form escapes near the cone boundaries.

Every closed form in the ``__all__`` of ``matrix_spaces``, ``lum_triangular``,
``wishart_q`` and ``wishart_p`` runs on a grid of elements close to the
boundary of their cone: chain lengths 2, 3, 5 and 12; natural parameters
``y`` whose smallest eigenvalue, and elements ``x`` whose clique gaps, are
1e-4 to 1e-11 of their scale; scales 1e-150, 1 and 1e150; shapes 0.02 above
the domain edges and three shapes inside; every pivot class.  Each call
returns finite values or raises ``ValueError`` or ``RuntimeError``, and
emits no warning.  This asks nothing of accuracy, only that no call ends in
another exception, a non-finite value or a numpy warning; the ``eval`` CLI
cases ask the same of whole processes: exit 0 or 2 and at most one stderr
line.
"""

import itertools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chainwishart import lum_triangular as lt
from chainwishart import matrix_spaces as ms
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym
from chainwishart.power_functions import ShapeParams

SIZES = (2, 3, 5, 12)
GAPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-11)
SCALES = (1e-150, 1.0, 1e150)
# Q shapes off the pivot and at it; the P shapes are these less 3/2 off the pivot and less 1 at it
Q_SHAPES = ((0.52, 0.02), (0.55, 0.55), (1.0, 1.0), (3.0, 3.0))


def near_p(n, gap, scale):
    """``scale * tridiag(-1, 2 cos(pi / (n + 1)) + gap, -1)``: smallest eigenvalue ``gap * scale``."""
    return TridiagSym(n, np.full(n, scale * (2.0 * math.cos(math.pi / (n + 1)) + gap)), np.full(n - 1, -scale))


def near_q(n, gap, scale):
    """Unit diagonal and off-diagonal ``sqrt(1 - gap)``, times ``scale``: every clique gap is ``gap``."""
    return IncompleteSym(n, np.full(n, scale), np.full(n - 1, scale * math.sqrt(1.0 - gap)))


def shapes(n, M, off, at):
    s = np.full(n, off)
    s[M - 1] = at
    return ShapeParams(M, s), ShapeParams(M, s - 1.5 + 0.5 * (np.arange(n) == M - 1))


def covariance_by_columns(w):
    return wq.operator_matrix(lambda u: wq.covariance_apply(w, u), w.n)


# name -> the call on one grid point: y near P, x near Q, shapes p (Q side) and pp (P side)
CALLS = {
    "matrix_spaces.project_pi": lambda y, x, p, pp: ms.project_pi(y.to_dense()),
    "matrix_spaces.is_in_P": lambda y, x, p, pp: ms.is_in_P(y),
    "matrix_spaces.is_in_Q": lambda y, x, p, pp: ms.is_in_Q(x),
    "matrix_spaces.assert_in_P": lambda y, x, p, pp: ms.assert_in_P(y),
    "matrix_spaces.assert_in_Q": lambda y, x, p, pp: ms.assert_in_Q(x),
    "matrix_spaces.pairing": lambda y, x, p, pp: ms.pairing(y, x),
    "matrix_spaces.inverse_image": lambda y, x, p, pp: ms.inverse_image(y),
    "matrix_spaces.lauritzen_map": lambda y, x, p, pp: ms.lauritzen_map(x),
    "matrix_spaces.hat_completion": lambda y, x, p, pp: ms.hat_completion(x),
    "matrix_spaces.leading_log_minors": lambda y, x, p, pp: ms.leading_log_minors(y),
    "matrix_spaces.trailing_log_minors": lambda y, x, p, pp: ms.trailing_log_minors(y),
    "lum_triangular.decompose": lambda y, x, p, pp: lt.decompose(y, p.M),
    "lum_triangular.hat_via_T": lambda y, x, p, pp: lt.hat_via_T(p, x),
    "wishart_q.log_norm_constant": lambda y, x, p, pp: wq.log_norm_constant(p),
    "wishart_q.log_density": lambda y, x, p, pp: wq.log_density(wq.WishartQ(p, y), x),
    "wishart_q.log_laplace": lambda y, x, p, pp: wq.log_laplace(wq.WishartQ(p, y), y),
    "wishart_q.mean": lambda y, x, p, pp: wq.mean(wq.WishartQ(p, y)),
    "wishart_q.mean_formula": lambda y, x, p, pp: wq.mean_formula(p, y),
    "wishart_q.pairing_with_parameter": lambda y, x, p, pp: wq.pairing_with_parameter(wq.WishartQ(p, y)),
    "wishart_q.covariance_apply": lambda y, x, p, pp: wq.covariance_apply(wq.WishartQ(p, y), y),
    "wishart_q.covariance_matrix": lambda y, x, p, pp: wq.covariance_matrix(wq.WishartQ(p, y)),
    "wishart_q.operator_matrix": lambda y, x, p, pp: covariance_by_columns(wq.WishartQ(p, y)),
    "wishart_q.inverse_mean": lambda y, x, p, pp: wq.inverse_mean(p, x),
    "wishart_q.variance_apply_nice": lambda y, x, p, pp: wq.variance_apply_nice(p, x, y),
    "wishart_q.variance_apply_expanded": lambda y, x, p, pp: wq.variance_apply_expanded(p, x, y),
    "wishart_q.intertwining_check": lambda y, x, p, pp: wq.intertwining_check(p, x),
    "wishart_q.moment": lambda y, x, p, pp: wq.moment(wq.WishartQ(p, y), [y, y]),
    "wishart_p.riesz_p_exponents": lambda y, x, p, pp: wp.riesz_p_exponents(pp.s, pp.M),
    "wishart_p.log_norm_constant": lambda y, x, p, pp: wp.log_norm_constant(pp),
    "wishart_p.log_density": lambda y, x, p, pp: wp.log_density(wp.WishartP(pp, x), y),
    "wishart_p.log_laplace": lambda y, x, p, pp: wp.log_laplace(wp.WishartP(pp, x), x),
    "wishart_p.mean": lambda y, x, p, pp: wp.mean(wp.WishartP(pp, x)),
    "wishart_p.mean_formula": lambda y, x, p, pp: wp.mean_formula(pp, x),
    "wishart_p.covariance_apply": lambda y, x, p, pp: wp.covariance_apply(wp.WishartP(pp, x), x),
    "wishart_p.covariance_matrix": lambda y, x, p, pp: wp.covariance_matrix(wp.WishartP(pp, x)),
    "wishart_p.quadratic_params_p": lambda y, x, p, pp: wp.quadratic_params_p(pp),
    "wishart_p.moment": lambda y, x, p, pp: wp.moment(wp.WishartP(pp, x), [x, x]),
    "wishart_p.canonical_measure_check": lambda y, x, p, pp: wp.canonical_measure_check(x),
    "wishart_p.inverse_mean": lambda y, x, p, pp: wp.inverse_mean(
        pp, wp.mean(wp.WishartP(pp, x))),
}

# Public names that are no closed form of a cone element: types, bases, file
# I/O, samplers and shape or index bookkeeping.
NOT_CLOSED_FORMS = {
    "matrix_spaces": {"ConeError", "TridiagSym", "IncompleteSym", "DenseSym", "zg_basis", "ig_basis",
                      "dense_to_csv", "dense_from_csv"},
    "lum_triangular": {"LUMMatrix"},
    "wishart_q": {"Point", "Parameter", "WishartQ", "sample_many", "sigma_to_shape", "shape_to_sigma",
                  "basic_index_sets", "sample_gram_many", "sample_quadratic_many"},
    "wishart_p": {"Point", "Parameter", "WishartP", "sample_many", "quadratic_params_p_inverse",
                  "integer_feasibility_p"},
}


def values(result):
    """Every number a result holds, flattened."""
    if isinstance(result, tuple):
        return np.concatenate([values(r) for r in result] or [np.empty(0)])
    if isinstance(result, (TridiagSym, IncompleteSym)):
        return result.coords()
    if isinstance(result, lt.LUMMatrix):
        return np.concatenate([result.diag, result.sub, result.sup])
    if result is None:  # the assert_in_* calls
        return np.empty(0)
    return np.asarray(result, dtype=float).ravel()


def escapes(call, y, x, p, pp):
    """How the call escapes on this point, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(y, x, p, pp)
        except (ValueError, RuntimeError):
            return None
        except Exception as e:  # noqa: BLE001 - any other exception or a warning is the escape
            return f"{type(e).__name__}: {e}"
    if not np.all(np.isfinite(values(result))):
        return "a non-finite value"
    return None


def test_the_sweep_covers_every_public_closed_form():
    modules = {"matrix_spaces": ms, "lum_triangular": lt, "wishart_q": wq, "wishart_p": wp}
    public = {f"{short}.{name}" for short, mod in modules.items() for name in mod.__all__
              if name not in NOT_CLOSED_FORMS[short]}
    assert public == set(CALLS)


@pytest.mark.parametrize("n", SIZES)
def test_no_closed_form_escapes_near_the_boundary(n):
    pivots = sorted({1, (n + 1) // 2, n})
    found = []
    for k, (gap, scale, (off, at)) in enumerate(itertools.product(GAPS, SCALES, Q_SHAPES)):
        M = pivots[k % len(pivots)]  # each gap meets every pivot class at several scales and shapes
        y, x = near_p(n, gap, scale), near_q(n, gap, scale)
        p, pp = shapes(n, M, off, at)
        for name, call in CALLS.items():
            how = escapes(call, y, x, p, pp)
            if how is not None:
                found.append(f"{name} at n={n}, gap={gap:g}, scale={scale:g}, s=({off}, {at}), M={M}: {how}")
    assert not found, "\n".join(found[:20] + [f"... {len(found)} in all"])


# (what, family, n, M, shape (off, at), gap, scale, point), on points of the grid above; the point is
# none, the grid's x, two copies of it as moment directions, or the P family's mean as a Newton target
CLI_CASES = [
    ("variance", "q", 2, 1, (3.0, 3.0), 1e-10, 1.0, None),
    ("variance", "q", 3, 2, (1.0, 1.0), 1e-8, 1.0, "x"),
    ("inverse-mean", "p", 3, 2, (1.9, 1.4), 1e-8, 1.0, "target"),
    ("inverse-mean", "p", 5, 3, (1.0, 1.0), 1e-11, 1e150, "target"),
    ("mean", "q", 12, 6, (0.52, 0.02), 1e-11, 1e-150, None),
    ("moment", "p", 5, 1, (0.52, 0.02), 1e-10, 1e150, "x_list"),
]


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: f"{c[0]}-{c[1]}-n{c[2]}-gap{c[5]:g}")
def test_eval_near_the_boundary_exits_0_or_2_with_at_most_one_line(tmp_path, case):
    what, family, n, M, (off, at), gap, scale, point = case
    (p, pp), x = shapes(n, M, off, at), near_q(n, gap, scale)
    params = ({"M": M, "s": p.s.tolist(), "y": near_p(n, gap, scale).to_json_dict()} if family == "q"
              else {"M": M, "s": pp.s.tolist(), "x": x.to_json_dict()})
    points = {"x": x.to_json_dict(), "x_list": {"x_list": [x.to_json_dict()] * 2},
              "target": wp.mean(wp.WishartP(pp, x)).to_json_dict()}
    (tmp_path / "params.json").write_text(json.dumps(params))
    argv = [sys.executable, "-m", "chainwishart.cli", "eval", "--what", what, "--family", family,
            "--params", str(tmp_path / "params.json")]
    if point is not None:
        (tmp_path / "point.json").write_text(json.dumps(points[point]))
        argv += ["--point", str(tmp_path / "point.json")]
    done = subprocess.run(argv, capture_output=True, text=True)  # a fresh process: no warning filter
    assert done.returncode in (0, 2), done.stderr
    assert len(done.stderr.splitlines()) <= (done.returncode == 2), done.stderr
