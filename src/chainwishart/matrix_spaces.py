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

One elimination, the peel kernel ``_peel_core``, serves the whole ``P``
side and tests each pivot as it forms it: at ``M = n`` it is the cone test
and the leading log-minors, and at any ``M`` the peel plan and peel maps.

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
# the peel kernel and cone membership
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


def _peel_order(n: int, M: int) -> list[tuple[int, int]]:
    """Peeled vertices ``(i, j)`` in peeling order, ``j`` the neighbour toward the pivot.

    Vertex 1 is peeled while the pivot lies to the right, then vertex ``n``;
    indices are 0-based.  Reversed, this is the outward order from the pivot
    in which the inductive constructions rebuild an element.
    """
    return [(i, i + 1) for i in range(M - 1)] + [(i, i - 1) for i in range(n - 1, M - 1, -1)]


def _rows(v: NDArray) -> list:
    # Python scalars for one element (fast, and ``**`` rounds as on numpy
    # scalars); rows of the trailing batch axes otherwise.
    return v.tolist() if v.ndim == 1 else list(v)


def _not_positive(name: str, i: int, M: int, n: int, pivot: float, scale: int) -> ConeError:
    """The error for a bad pivot at vertex ``i`` (0-based) of the peel toward ``M``."""
    minor = (f"leading principal minor {i + 1}" if i < M - 1 or M == n
             else f"trailing principal minor {i + 1}..{n}" if i >= M else "the determinant")
    with np.errstate(over="ignore"):  # only a non-member's pivot can overflow
        pivot = float(np.ldexp(pivot, scale))
    return ConeError(f"{name} is not positive definite: {minor} (pivot {pivot:.6g}) is not positive")


def _peel_core(
    diag: NDArray, off: NDArray, M: int, dual: bool = False, name: str = "y"
) -> tuple[NDArray, NDArray]:
    """Peel coordinates ``(a, b)`` of banded data toward the pivot ``M``, indexed by vertex.

    The steps of ``phi_inv`` (``dual=False``) or ``psi_inv`` (``dual=True``)
    and their mirrors, in O(n): vertex ``i`` is peeled with pivot ``a[i]``
    and regression ``b[i]`` toward its neighbour on the pivot's side
    (:func:`_peel_order`); ``a[M-1]`` is the remainder and ``b[M-1] = 0``.
    One element's data (1-D) is scaled by :func:`_unit_scaled` (exact).

    On one element's real data in ``Z`` the sweep is the cone test of ``P``:
    the first pivot (a ratio of leading, trailing or full minors) not above
    ``PD_RTOL`` times the largest diagonal entry raises :class:`ConeError`
    naming its minor.  At ``M = n`` these are the LDL pivots; other ``M``
    decide alike except within ``PD_RTOL`` of the boundary.  Dual, complex
    and batched data (trailing axes on ``diag`` and ``off``) go untested.
    """
    d, o, scale = _unit_scaled(diag, off) if diag.ndim == 1 else (_rows(diag), _rows(off), 0)
    n = len(d)
    if dual:
        a, b = [0.0] * n, [0.0] * n
        for i, j in _peel_order(n, M):
            e = min(i, j)
            b[i] = o[e] / d[j]
            a[i] = d[i] - o[e] ** 2 / d[j]
        a[M - 1] = d[M - 1]
        return np.ldexp(a, scale) if scale else np.array(a), np.array(b)
    test = diag.ndim == 1 and diag.dtype.kind != "c"
    if test:  # the largest |diagonal entry| of the scaled data, exactly (scaling is monotone)
        tol = PD_RTOL * (max(map(abs, d)) if n < 100 else math.ldexp(float(np.max(np.abs(diag))), -scale))
    for i in range(M - 1):
        if test and not d[i] > tol:
            raise _not_positive(name, i, M, n, d[i], scale)
        d[i + 1] = d[i + 1] - o[i] ** 2 / d[i]
    for i in range(n - 1, M - 1, -1):
        if test and not d[i] > tol:
            raise _not_positive(name, i, M, n, d[i], scale)
        d[i - 1] = d[i - 1] - o[i - 1] ** 2 / d[i]
    if test and not d[M - 1] > tol:
        raise _not_positive(name, M - 1, M, n, d[M - 1], scale)
    a, o = np.array(d), np.array(o) if scale else off
    b = np.zeros_like(a)
    b[: M - 1] = o[: M - 1] / a[: M - 1]
    b[M:] = o[M - 1 :] / a[M:]
    return np.ldexp(a, scale) if scale else a, b


def is_in_P(y: TridiagSym) -> bool:
    """True iff ``y`` is positive definite: every LDL pivot of :func:`_peel_core` at ``M = n`` passes."""
    try:
        _peel_core(y.diag, y.off, y.n)
    except ConeError:
        return False
    return True


def assert_in_P(y: TridiagSym, name: str = "y") -> None:
    _peel_core(y.diag, y.off, y.n, name=name)


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
    """Trace pairing ``<y, x>``; off-diagonal entries count twice.

    An overflowing sum is redone on operands scaled by powers of two (exact).
    """
    if y.n != x.n:
        raise ValueError(f"size mismatch: {y.n} vs {x.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(y.diag @ x.diag + 2.0 * (y.off @ x.off))
        if math.isfinite(total):
            return total
        ey, ex = (int(np.frexp(np.max(np.abs(v.coords())))[1]) for v in (y, x))
        yc, xc, n = np.ldexp(y.coords(), -ey), np.ldexp(x.coords(), -ex), y.n
        return float(np.ldexp(yc[:n] @ xc[:n] + 2.0 * (yc[n:] @ xc[n:]), ey + ex))


def inverse_image(y: TridiagSym) -> IncompleteSym:
    """``pi(y^{-1})`` for positive definite ``y``; lands in the dual cone.

    Read off the peel plan of ``y`` by the O(n) sweep of the mean map at unit
    shape, without forming ``y^{-1}``.
    """
    from .lum_triangular import _hat_band  # deferred: it imports this module

    a, b = _peel_core(y.diag, y.off, y.n)
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
    """``log |y_{1:i}|`` for positive definite ``y``, else :class:`ConeError`.

    Cumulative log LDL pivots (:func:`_peel_core` at ``M = n``), which stay on
    the scale of the entries, so minors of any magnitude cannot overflow.
    """
    return np.cumsum(np.log(_peel_core(y.diag, y.off, y.n, name=name)[0]))


def _mirror(elem: _BandedSym) -> _BandedSym:
    """``elem`` on the reversed chain ``n - ... - 1``; an exact relabelling."""
    return type(elem)(elem.n, elem.diag[::-1], elem.off[::-1])


def trailing_log_minors(y: TridiagSym, name: str = "y") -> NDArray[np.float64]:
    """``log |y_{i:n}|`` for positive definite ``y`` (i stored 0-based), off the peel toward ``M = 1``."""
    log_a = np.log(_peel_core(y.diag, y.off, 1, name=name)[0])
    return np.cumsum(log_a[::-1])[::-1].copy()


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
