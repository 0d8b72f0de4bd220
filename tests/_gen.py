"""Shared random-instance generators and independent oracles for the tests."""

from functools import partial

import numpy as np

from chainwishart import wishart_p, wishart_q
from chainwishart.matrix_spaces import TridiagSym
from chainwishart.power_functions import ShapeParams
from chainwishart.verification import _CONES


# The verification suites' generators, shared so both draw the same streams.
random_pd_tridiag = _CONES[wishart_q].natural
random_q_elem = _CONES[wishart_p].natural


def _random_shape(cone, rng: np.random.Generator, n: int, M: int) -> ShapeParams:
    """A shape in the domain of ``cone``, drawn from its range in ``verification._CONES`` as ``_family`` draws it."""
    return ShapeParams(M, rng.uniform(*_CONES[cone].shape_range, size=n))


random_shape_q = partial(_random_shape, wishart_q)
random_shape_p = partial(_random_shape, wishart_p)


def random_shape_any(rng: np.random.Generator, n: int, M: int) -> ShapeParams:
    return ShapeParams(M, rng.uniform(-2.0, 2.0, n))


def dense_subset_logdet(a: np.ndarray, idx) -> float:
    """Dense determinant of a principal submatrix (1-based index set)."""
    idx = np.asarray(list(idx)) - 1
    sign, logdet = np.linalg.slogdet(a[np.ix_(idx, idx)])
    assert sign > 0
    return float(logdet)


# ---------------------------------------------------------------------------
# reference-measure importance sampling on the n = 2 and n = 3 dual cones
# ---------------------------------------------------------------------------
# Draw diagonals from independent exponentials and each off entry uniformly
# over its clique-positivity range; the reference log density is explicit, so
# E_ref[ exp(target_logpdf - ref_logpdf) ] estimates the target's total mass.
# Independent of every closed-form constant under test.


def reference_q_draws(rng: np.random.Generator, n: int, size: int, lam: float = 1.0):
    d = rng.exponential(1.0 / lam, size=(size, n))
    log_ref = n * np.log(lam) - lam * d.sum(axis=1)
    offs = []
    for i in range(n - 1):
        half = np.sqrt(d[:, i] * d[:, i + 1])
        o = rng.uniform(-half, half)
        offs.append(o)
        log_ref -= np.log(2.0 * half)
    off = np.column_stack(offs) if offs else np.zeros((size, 0))
    return d, off, log_ref


def importance_mass(log_target_vals: np.ndarray, log_ref: np.ndarray):
    """Mean and stderr of the importance-weighted mass estimate."""
    w = np.exp(log_target_vals - log_ref)
    return float(np.mean(w)), float(np.std(w, ddof=1) / np.sqrt(w.size))


def pair_coords(z, n: int) -> np.ndarray:
    """Weights turning coordinate rows into pairing values against ``z``."""
    wts = np.concatenate([np.ones(n), 2.0 * np.ones(n - 1)])
    return wts * z.coords()


def scalar_moment3_closed_form(s: float, y: TridiagSym, zs) -> float:
    """Third moment of the scalar-shape family, written out cycle by cycle."""
    yinv = np.linalg.inv(y.to_dense())
    g = [yinv @ z.to_dense() for z in zs]
    tr = lambda a: float(np.trace(a))
    return (
        s**3 * tr(g[0]) * tr(g[1]) * tr(g[2])
        + s**2
        * (
            tr(g[0] @ g[1]) * tr(g[2])
            + tr(g[0] @ g[2]) * tr(g[1])
            + tr(g[1] @ g[2]) * tr(g[0])
        )
        + s * (tr(g[0] @ g[1] @ g[2]) + tr(g[0] @ g[2] @ g[1]))
    )
