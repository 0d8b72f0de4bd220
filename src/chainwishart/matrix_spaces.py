"""Banded symmetric matrices and the two cones of a chain graphical model.

For the chain graph ``1 - 2 - ... - n`` two linear spaces matter:

* ``Z`` -- symmetric matrices with forced zeros off the tridiagonal band
  (concentration matrices of a nearest-neighbour Gaussian model),
* ``I`` -- "incomplete" symmetric matrices in which only the band entries
  ``(i, j)`` with ``|i - j| <= 1`` are specified (partial covariance data).

Both are coordinatised by ``2n - 1`` numbers (the diagonal and the first
off-diagonal) and are dual to each other under the trace pairing

    <y, x> = sum_i y_ii x_ii + 2 sum_i y_{i,i+1} x_{i,i+1}.

The positive-definite elements of ``Z`` form the open cone ``P``; its dual
cone ``Q`` inside ``I`` consists of the incomplete matrices whose 2x2 clique
blocks ``[[x_ii, x_{i,i+1}], [x_{i,i+1}, x_{i+1,i+1}]]`` are positive
definite.  The map ``y -> pi(y^{-1})`` is a bijection from ``P`` onto ``Q``;
its inverse is the Lauritzen map, and the positive-definite completion of
``x`` in ``Q`` whose inverse is again banded is the "hat" completion.

Cone membership is tested relative to the element's own scale (pivots
against the largest diagonal entry, clique determinants against their own
diagonal product), so it does not change when an element is multiplied by a
positive constant.

Vertices are labelled ``1..n`` in the public API; arrays are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ConeError",
    "TridiagSym",
    "IncompleteSym",
    "DenseSym",
    "project_pi",
    "is_in_P",
    "is_in_Q",
    "assert_in_P",
    "assert_in_Q",
    "pairing",
    "inverse_image",
    "lauritzen_map",
    "hat_completion",
    "leading_log_minors",
    "trailing_log_minors",
    "zg_basis",
    "ig_basis",
    "dense_to_csv",
    "dense_from_csv",
]

#: Dense symmetric matrices are carried as plain float arrays.
DenseSym = NDArray[np.float64]

# Cones are open: a pivot within PD_RTOL of the element's scale counts as "outside".
PD_RTOL = 1e-12


class ConeError(ValueError):
    """A matrix failed a cone-membership test.

    The message names the violated minor so CLI diagnostics can surface it.
    """


def _as_vector(v: Iterable[float], length: int, name: str) -> NDArray[np.float64]:
    arr = np.asarray(v, dtype=float).reshape(-1).copy()
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(eq=False)
class _BandedSym:
    """Shared storage for banded symmetric data: diagonal plus off-diagonal."""

    n: int
    diag: NDArray[np.float64]
    off: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("size must be at least 1")
        self.diag = _as_vector(self.diag, self.n, "diag")
        if self.off is None:
            self.off = np.zeros(self.n - 1)
        self.off = _as_vector(self.off, self.n - 1, "off")

    # -- coordinates -------------------------------------------------------

    def coords(self) -> NDArray[np.float64]:
        """Canonical (2n-1)-vector: diagonal entries followed by off entries."""
        return np.concatenate([self.diag, self.off])

    @classmethod
    def from_coords(cls, vec: Iterable[float]):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.size % 2 == 0:
            raise ValueError("coordinate vector must have odd length 2n-1")
        n = (vec.size + 1) // 2
        return cls(n, vec[:n], vec[n:])

    def clique_dets(self) -> NDArray[np.float64]:
        """Determinants of the 2x2 clique blocks, one per edge."""
        return self.diag[:-1] * self.diag[1:] - self.off**2

    def clique_block(self, i: int) -> NDArray[np.float64]:
        """Dense 2x2 block on vertices ``{i, i+1}`` (1-based ``i``)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"clique index {i} out of range 1..{self.n - 1}")
        d0, d1, o = self.diag[i - 1], self.diag[i], self.off[i - 1]
        return np.array([[d0, o], [o, d1]])

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self) or other.n != self.n:
            return NotImplemented
        return type(self)(self.n, self.diag + other.diag, self.off + other.off)

    def __sub__(self, other):
        if type(other) is not type(self) or other.n != self.n:
            return NotImplemented
        return type(self)(self.n, self.diag - other.diag, self.off - other.off)

    def __rmul__(self, c: float):
        return type(self)(self.n, c * self.diag, c * self.off)

    def __neg__(self):
        return type(self)(self.n, -self.diag, -self.off)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "diag": self.diag.tolist(), "off": self.off.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict):
        return cls(int(d["n"]), d["diag"], d.get("off", []))

    def allclose(self, other, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        return (
            self.n == other.n
            and np.allclose(self.diag, other.diag, rtol=rtol, atol=atol)
            and np.allclose(self.off, other.off, rtol=rtol, atol=atol)
        )


class TridiagSym(_BandedSym):
    """Element of ``Z``: a symmetric matrix vanishing off the tridiagonal band."""

    def to_dense(self) -> DenseSym:
        a = np.diag(self.diag).astype(float)
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = self.off
        a[idx + 1, idx] = self.off
        return a

    @classmethod
    def from_dense(cls, a: DenseSym) -> "TridiagSym":
        """Band part of a dense symmetric matrix (off-band entries dropped)."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        return cls(n, np.diag(a).copy(), np.diag(a, 1).copy())

    def submatrix(self, lo: int, hi: int) -> "TridiagSym":
        """Principal submatrix on the contiguous vertex set ``{lo..hi}`` (1-based)."""
        if not 1 <= lo <= hi <= self.n:
            raise ValueError("invalid interval")
        return TridiagSym(hi - lo + 1, self.diag[lo - 1 : hi], self.off[lo - 1 : hi - 1])


class IncompleteSym(_BandedSym):
    """Element of ``I``: only entries with ``|i - j| <= 1`` are specified."""


def project_pi(a: DenseSym) -> IncompleteSym:
    """Project a dense symmetric matrix onto ``I`` by keeping the band entries."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return IncompleteSym(n, np.diag(a).copy(), np.diag(a, 1).copy())


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------


#: Eliminations first scale data whose largest entry lies outside this range
#: to unit size, by a power of two (exact), so that squares stay normal doubles.
_SAFE_RANGE = (2.0**-400, 2.0**400)


def _unit_scaled(diag: NDArray, off: NDArray) -> tuple[list, list, int]:
    """``(d, o, e)``: the data as Python scalars times ``2^-e``, ``e = 0`` inside ``_SAFE_RANGE``."""
    d, o = diag.tolist(), off.tolist()
    # below about 100 entries a Python max is cheaper than numpy reductions
    big = max(map(abs, d + o)) if len(d) < 100 else max(np.max(np.abs(diag)), np.max(np.abs(off)))
    if _SAFE_RANGE[0] <= big <= _SAFE_RANGE[1]:
        return d, o, 0
    e = math.frexp(big)[1]
    return [math.ldexp(v, -e) for v in d], [math.ldexp(v, -e) for v in o], e


def _bad_pivots(y: TridiagSym) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """LDL pivots of ``y`` and the indices of those not above ``PD_RTOL`` times its scale.

    The product of the first i pivots is the i-th leading minor.  The sweep
    stops at the first bad pivot and marks the rest ``-inf``.
    """
    d, o, e = _unit_scaled(y.diag, y.off)
    tol = PD_RTOL * math.ldexp(float(np.max(np.abs(y.diag))), -e)
    piv = [d[0]]
    for i in range(1, len(d)):
        if piv[-1] <= tol:
            piv += [-math.inf] * (len(d) - i)
            break
        piv.append(d[i] - o[i - 1] ** 2 / piv[-1])
    piv = np.array(piv)
    bad = np.nonzero(piv <= tol)[0]
    if e:  # scaled back, only a non-member's last pivot can overflow
        with np.errstate(over="ignore"):
            piv = np.ldexp(piv, e)
    return piv, bad


def is_in_P(y: TridiagSym) -> bool:
    """True iff ``y`` is positive definite (all leading principal minors > 0)."""
    return _bad_pivots(y)[1].size == 0


def assert_in_P(y: TridiagSym, name: str = "y") -> None:
    piv, bad = _bad_pivots(y)
    if bad.size:
        i = int(bad[0]) + 1
        raise ConeError(
            f"{name} is not positive definite: leading principal minor {i} "
            f"(pivot {piv[bad[0]]:.6g}) is not positive"
        )


def _clique_gaps(x: IncompleteSym) -> NDArray[np.float64]:
    """``det / (x_ii x_{i+1,i+1})`` per clique block, in ratio form that cannot overflow."""
    return 1.0 - (x.off / x.diag[:-1]) * (x.off / x.diag[1:])


def _bad_diagonal(x: IncompleteSym) -> NDArray[np.intp]:
    """Indices of diagonal entries not above ``PD_RTOL`` times the largest one."""
    return np.nonzero(x.diag <= PD_RTOL * float(np.max(np.abs(x.diag))))[0]


def is_in_Q(x: IncompleteSym) -> bool:
    """True iff every 2x2 clique block of ``x`` is positive definite.

    For ``n = 1`` the condition degenerates to ``x_11 > 0``.
    """
    return _bad_diagonal(x).size == 0 and bool(np.all(_clique_gaps(x) > PD_RTOL))


def assert_in_Q(x: IncompleteSym, name: str = "x") -> None:
    bad = _bad_diagonal(x)
    if bad.size:
        i = int(bad[0]) + 1
        raise ConeError(f"{name} is outside the dual cone: diagonal entry {i} is not positive")
    bad = np.nonzero(_clique_gaps(x) <= PD_RTOL)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise ConeError(
            f"{name} is outside the dual cone: clique block ({i},{i + 1}) has "
            f"non-positive determinant {x.clique_dets()[bad[0]]:.6g}"
        )


# ---------------------------------------------------------------------------
# pairing and the bijections between the cones
# ---------------------------------------------------------------------------


def pairing(y: TridiagSym, x: IncompleteSym) -> float:
    """Trace pairing ``<y, x>``; off-diagonal entries count twice."""
    if y.n != x.n:
        raise ValueError(f"size mismatch: {y.n} vs {x.n}")
    return float(y.diag @ x.diag + 2.0 * (y.off @ x.off))


def inverse_image(y: TridiagSym) -> IncompleteSym:
    """``pi(y^{-1})`` for positive definite ``y``; lands in the dual cone.

    Read off the peel plan of ``y`` by the O(n) sweep of the mean map at unit
    shape, without forming ``y^{-1}``.
    """
    from .lum_triangular import _hat_band  # deferred: both import this module
    from .peeling import _peel_plan

    a, b = _peel_plan(y, y.n)
    return IncompleteSym(y.n, *_hat_band(np.ones(y.n), y.n, a, b))


def _clique_inverses(
    x: IncompleteSym,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Entries ``(i00, i11, i01)`` of the inverse of every 2x2 clique block of ``x``.

    Closed form ``[[x_{i+1,i+1}, -x_{i,i+1}], [-x_{i,i+1}, x_ii]] / det``,
    vectorized over the blocks and written through :func:`_clique_gaps` so
    that no product of two diagonal entries is formed.
    """
    d0, d1 = x.diag[:-1], x.diag[1:]
    g = _clique_gaps(x)
    return 1.0 / (d0 * g), 1.0 / (d1 * g), -(x.off / d0) / (d1 * g)


def _clique_assembly(
    x: IncompleteSym, cliq_w: NDArray[np.float64], diag_w: NDArray[np.float64]
) -> TridiagSym:
    """``sum_b cliq_w[b] ((x_b)^{-1})^0 + sum_j diag_w[j] / x_jj E_jj`` over the cliques ``b``."""
    i00, i11, i01 = _clique_inverses(x)
    diag = diag_w / x.diag
    diag[:-1] += cliq_w * i00
    diag[1:] += cliq_w * i11
    return TridiagSym(x.n, diag, cliq_w * i01)


def lauritzen_map(x: IncompleteSym) -> TridiagSym:
    """The unique positive definite banded ``y`` with ``pi(y^{-1}) = x``.

    Assembled clique by clique:

        y = sum_i ((x_{i,i+1} block)^{-1})^0  -  sum separators (1/x_ii)^0.
    """
    assert_in_Q(x)
    n = x.n
    cliques_at = np.zeros(n)
    cliques_at[:-1] += 1.0
    cliques_at[1:] += 1.0
    return _clique_assembly(x, np.ones(n - 1), 1.0 - cliques_at)


def _hat_fill(diag: NDArray[np.float64], off: NDArray[np.float64]) -> DenseSym:
    """The symmetric matrix with band ``(diag, off)`` whose inverse is tridiagonal, in O(n^2).

    By the chain's Markov property (Dempster, 1972), ``h_ik = h_{i,i+1} h_{i+1,k} / h_{i+1,i+1}``
    for ``k > i + 1``; the rows are filled from the bottom.
    """
    n = diag.size
    h = np.diag(diag)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = off
    ratio = (off / diag[1:]).tolist()
    for i in range(n - 3, -1, -1):
        h[i, i + 2 :] = h[i + 2 :, i] = ratio[i] * h[i + 1, i + 2 :]
    return h


def hat_completion(x: IncompleteSym) -> DenseSym:
    """Positive definite completion of ``x`` whose inverse is banded (:func:`_hat_fill`).

    Satisfies ``pi(hat) = x`` and ``hat^{-1} = lauritzen_map(x)`` in ``Z``.
    """
    assert_in_Q(x)
    return _hat_fill(x.diag, x.off)


# ---------------------------------------------------------------------------
# minors of banded matrices
# ---------------------------------------------------------------------------


def leading_log_minors(y: TridiagSym, name: str = "y") -> NDArray[np.float64]:
    """``log |y_{1:i}|`` for positive definite ``y``.

    Uses LDL pivots (cumulative log products), which stay on the scale of the
    matrix entries, so minors of any magnitude are handled without overflow.
    Raises :class:`ConeError` if ``y`` is not positive definite.
    """
    piv, bad = _bad_pivots(y)
    if bad.size:
        raise ConeError(
            f"{name} is not positive definite: leading principal minor {int(bad[0]) + 1} "
            "is not positive"
        )
    return np.cumsum(np.log(piv))


def _mirror(elem: _BandedSym) -> _BandedSym:
    """``elem`` on the reversed chain ``n - ... - 1``; an exact relabelling."""
    return type(elem)(elem.n, elem.diag[::-1], elem.off[::-1])


def trailing_log_minors(y: TridiagSym, name: str = "y") -> NDArray[np.float64]:
    """``log |y_{i:n}|`` for positive definite ``y`` (index i stored 0-based)."""
    return leading_log_minors(_mirror(y), name=name)[::-1].copy()


# ---------------------------------------------------------------------------
# canonical bases of the coordinate space
# ---------------------------------------------------------------------------


#: Values formatted per write by :func:`_write_csv_rows`; bounds its memory.
CSV_BLOCK_VALUES = 1 << 16


def _write_csv_rows(f: TextIO, a: NDArray[np.float64]) -> None:
    """Write the rows of a 2-D array as CSV lines of ``%.17g`` fields.

    Seventeen significant digits round-trip every double exactly, so reading
    the file back with ``float`` gives the same array.  Whole rows are
    formatted in blocks of about ``CSV_BLOCK_VALUES`` values, one ``%``
    operation and one write per block.
    """
    a = np.asarray(a, dtype=float)
    rows, cols = a.shape
    row_fmt = ",".join(["%.17g"] * cols) + "\n"
    step = max(1, CSV_BLOCK_VALUES // max(cols, 1))
    for lo in range(0, rows, step):
        block = a[lo : lo + step]
        f.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def dense_to_csv(path: str, a: DenseSym) -> None:
    """Write a dense symmetric matrix as row-major CSV of exact ``%.17g`` fields."""
    with open(path, "w", encoding="utf-8") as f:
        _write_csv_rows(f, a)


def dense_from_csv(path: str) -> DenseSym:
    """Read a row-major CSV dense matrix."""
    with open(path, "r", encoding="utf-8") as f:
        rows = [
            [float(c) for c in line.strip().split(",")]
            for line in f
            if line.strip() and not line.startswith("#")
        ]
    return np.asarray(rows, dtype=float)


def zg_basis(n: int, k: int) -> TridiagSym:
    """k-th canonical basis element of ``Z`` (0 <= k < 2n-1): e_ii then E_{i,i+1}."""
    vec = np.zeros(2 * n - 1)
    vec[k] = 1.0
    return TridiagSym.from_coords(vec)


def ig_basis(n: int, k: int) -> IncompleteSym:
    """k-th canonical basis element of ``I`` in the same coordinates."""
    vec = np.zeros(2 * n - 1)
    vec[k] = 1.0
    return IncompleteSym.from_coords(vec)
