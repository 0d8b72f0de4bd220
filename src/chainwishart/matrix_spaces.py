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
The outward sweep of the same plan, ``_hat_element``, gives the band of
``T^{-T} diag(s) T^{-1}`` with ``y = T T'``: the mean on ``Q``,
``pi(y^{-1})`` and the hat completion through the factor.  A family forms
the plan of its natural parameter once and keeps it.  On the ``Q`` side one
vectorized test, ``_q_gaps``, forms the ratio-form clique gaps, which the
atoms of the power functions and the clique inverses reuse, so each closed
form reads an element of ``Q`` once.  The covariance on both cones is the
banded derivative of the clique assembly, ``_clique_form``, which
``_covariance_coords`` applies or solves and ``_covariance_matrix`` writes out;
the solve checks each pivot before it divides.  Every closed form of nonzero
degree is formed at unit scale and scaled back by ``_from_unit``, the one place
that raises the range error for a result past the double range; fresh, finite
kernel outputs are stored by ``_BandedSym._trusted`` unchecked.

File formats live in :mod:`chainwishart._formats`; ``dense_to_csv`` and
``dense_from_csv`` are re-exported here.

Vertices are labelled ``1..n`` in the public API; arrays are 0-based.
Every function that takes a pivot ``M`` checks it by ``_pivot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from ._formats import dense_from_csv, dense_to_csv

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


def _integral(value, name: str) -> int:
    """``value`` as an int when it is an integral number (2, 2.0, ``np.int64(2)``).

    A fraction, a boolean or a string raises ``TypeError``, so that no
    input field is truncated silently.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise TypeError(f"{name} must be an integral number, got {value!r}")


def _same_size(n: int, *others: int) -> None:
    """The one size rule: ``ValueError("size mismatch")`` unless every size equals ``n``."""
    for k in others:
        if k != n:
            raise ValueError("size mismatch")


def _pivot(M, n: int) -> int:
    """The pivot ``M`` of a chain on ``n`` vertices, as an int by :func:`_integral`; ``ValueError`` outside ``1..n``."""
    M = _integral(M, "pivot M")
    if not 1 <= M <= n:
        raise ValueError(f"pivot M={M} out of range 1..{n}")
    return M


@dataclass(eq=False, frozen=True, init=False)
class _BandedSym:
    """Shared storage for banded symmetric data: diagonal plus off-diagonal.

    Frozen: its fields cannot be rebound, so a family that holds an element
    and keeps constants computed from it never sees it replaced.
    """

    n: int
    diag: NDArray[np.float64]
    off: NDArray[np.float64]

    def __init__(self, n: int, diag: Iterable[float], off: Iterable[float] | None = None) -> None:
        n = _integral(n, "n")
        if n < 1:
            raise ValueError("size must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diag", _as_vector(diag, n, "diag"))
        object.__setattr__(self, "off", _as_vector(np.zeros(n - 1) if off is None else off, n - 1, "off"))

    # -- coordinates -------------------------------------------------------

    def coords(self) -> NDArray[np.float64]:
        """Canonical (2n-1)-vector: diagonal entries followed by off entries."""
        return np.concatenate([self.diag, self.off])

    @classmethod
    def _trusted(cls, n: int, diag: NDArray[np.float64], off: NDArray[np.float64]):
        """An element stored without validation or copy, for kernel outputs only.

        ``diag`` and ``off`` must be fresh float arrays of lengths ``n`` and
        ``n - 1``, owned by the result and finite by construction.
        """
        elem = object.__new__(cls)
        object.__setattr__(elem, "n", n)
        object.__setattr__(elem, "diag", diag)
        object.__setattr__(elem, "off", off)
        return elem

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
        return cls(d["n"], d["diag"], d.get("off", []))

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


def _unit_exponent(big: float) -> int:
    """``e`` with ``big * 2^-e`` of unit size, or 0 when ``big`` lies inside ``_SAFE_RANGE``."""
    return 0 if _SAFE_RANGE[0] <= big <= _SAFE_RANGE[1] else math.frexp(big)[1]


def _unit_scaled(diag: NDArray, off: NDArray) -> tuple[list, list, int]:
    """``(d, o, e)``: the data as Python scalars times ``2^-e``, ``e = 0`` inside ``_SAFE_RANGE``."""
    d, o = diag.tolist(), off.tolist()
    # below about 100 entries a Python max is cheaper than numpy reductions
    e = _unit_exponent(max(map(abs, d + o)) if len(d) < 100 else max(np.max(np.abs(diag)), np.max(np.abs(off))))
    if not e:
        return d, o, 0
    return [math.ldexp(v, -e) for v in d], [math.ldexp(v, -e) for v in o], e


def _to_unit(v: NDArray, out: NDArray | None = None, axis: int | None = None) -> tuple[NDArray, NDArray]:
    """``(v * 2^-e, e)`` with the largest ``|v * 2^-e|`` (in each slice along ``axis``) in ``[1/2, 1)``, exactly."""
    keep = axis is not None
    e = np.frexp(np.maximum(v.max(axis, keepdims=keep), -v.min(axis, keepdims=keep)))[1]  # no |v| temporary
    return np.ldexp(v, -e, out=out), e


def _from_unit(v: NDArray | float, e: int, what: str, degree: int, name: str) -> NDArray | float:
    """``v * 2^e``, an array in place: a result formed at unit size, scaled back by its power of two (exact).

    A result that is not a finite double, at unit size or scaled back, is a
    ``ValueError`` calling it ``what``, of ``degree`` in the input
    ``name``.  The error names no cause: the other inputs' scale, or a point
    near the cone's boundary, can take the result out of range as well.
    """
    big = abs(v) if isinstance(v, float) else max(v.max(), -v.min())
    if not math.isfinite(big) or (big > 0 and math.frexp(big)[1] + e > 1024):
        raise ValueError(f"{what} is outside the double range: it has degree {degree} in {name}")
    if isinstance(v, float):
        return math.ldexp(v, e)
    return np.ldexp(v, e, out=v) if e else v


def _peel_order(n: int, M: int) -> list[tuple[int, int]]:
    """Peeled vertices ``(i, j)`` in peeling order, ``j`` the neighbour toward the pivot.

    Vertex 1 is peeled while the pivot lies to the right, then vertex ``n``;
    indices are 0-based.  Reversed, this is the outward order from the pivot
    in which the inductive constructions rebuild an element.
    """
    return [(i, i + 1) for i in range(M - 1)] + [(i, i - 1) for i in range(n - 1, M - 1, -1)]


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
    The data, one element's real band, are scaled by :func:`_unit_scaled` (exact).

    On data in ``Z`` the sweep is the cone test of ``P``: the first pivot (a
    ratio of leading, trailing or full minors) not above ``PD_RTOL`` times
    the largest diagonal entry raises :class:`ConeError` naming its minor.
    At ``M = n`` these are the LDL pivots; other ``M`` decide alike except
    within ``PD_RTOL`` of the boundary.  Dual data (``P`` samplers, ``psi_inv``) go untested.
    """
    a, b, scale = _peel_unit(diag, off, M, dual, name)
    return np.ldexp(a, scale) if scale else a, b


def _peel_unit(
    diag: NDArray, off: NDArray, M: int, dual: bool = False, name: str = "y"
) -> tuple[NDArray, NDArray, int]:
    """The peel of :func:`_peel_core` with the pivots left at unit scale: ``(a * 2^-e, b, e)``."""
    d, o, scale = _unit_scaled(diag, off)
    n = len(d)
    if dual:
        a, b = [0.0] * n, [0.0] * n
        for i, j in _peel_order(n, M):
            e = min(i, j)
            b[i] = o[e] / d[j]
            a[i] = d[i] - o[e] ** 2 / d[j]
        a[M - 1] = d[M - 1]
        return np.array(a), np.array(b), scale
    # the largest |diagonal entry| of the scaled data, exactly (scaling is monotone)
    tol = PD_RTOL * (max(map(abs, d)) if n < 100 else math.ldexp(float(np.max(np.abs(diag))), -scale))
    for i in range(M - 1):
        if not d[i] > tol:
            raise _not_positive(name, i, M, n, d[i], scale)
        d[i + 1] = d[i + 1] - o[i] ** 2 / d[i]
    for i in range(n - 1, M - 1, -1):
        if not d[i] > tol:
            raise _not_positive(name, i, M, n, d[i], scale)
        d[i - 1] = d[i - 1] - o[i - 1] ** 2 / d[i]
    if not d[M - 1] > tol:
        raise _not_positive(name, M - 1, M, n, d[M - 1], scale)
    a, o = np.array(d), np.array(o) if scale else off
    b = np.empty(n)
    b[M - 1] = 0.0
    if M > 1:
        np.divide(o[: M - 1], a[: M - 1], out=b[: M - 1])
    if M < n:
        np.divide(o[M - 1 :], a[M:], out=b[M:])
    return a, b, scale


def _hat_band(s: NDArray, M: int, a: NDArray, b: NDArray) -> NDArray:
    """Band of ``T^{-T} diag(s) T^{-1}`` from the peel plan of ``y = T T'``, diag then off in one array.

    One outward sweep from the pivot, O(n): ``hd_M = s_M / a_M``, then for
    each peeled vertex ``i`` with neighbour ``j`` toward the pivot

        hd_i = s_i / a_i + b_i^2 hd_j,    ho_{ij} = -b_i hd_j.

    ``s`` is any real vector and ``(a, b)`` one element's plan.  At ``s = 1`` this is ``pi(y^{-1})``.
    """
    n = len(a)
    s, a, b = s.tolist(), a.tolist(), b.tolist()
    hd, ho = [0.0] * n, [0.0] * (n - 1)
    hd[M - 1] = s[M - 1] / a[M - 1]
    for i, j in reversed(_peel_order(n, M)):
        hd[i] = s[i] / a[i] + b[i] ** 2 * hd[j]
        ho[min(i, j)] = -b[i] * hd[j]
    return np.array(hd + ho)


def _hat_element(s: NDArray, M: int, plan: tuple[NDArray, NDArray, int], what: str) -> IncompleteSym:
    """:func:`_hat_band` off the unit-scale peel ``plan`` of ``y`` toward ``M`` (:func:`_peel_unit`), in ``I``.

    The band has degree -1 in ``y``.  It is formed at the unit scale of the
    peel (exact powers of two) and scaled back by :func:`_from_unit`, which
    calls it ``what``.
    """
    a, b, e = plan
    band = _from_unit(_hat_band(s, M, a, b), -e, what, -1, "y")
    return IncompleteSym._trusted(a.size, band[: a.size], band[a.size :])


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


def _q_gaps(x: IncompleteSym, name: str = "x") -> NDArray[np.float64]:
    """The cone test of ``Q``: the ratio-form clique gaps of a member ``x``, else :class:`ConeError`.

    The one test behind :func:`is_in_Q` and :func:`assert_in_Q`; the atoms
    of the power functions and the clique inverses reuse the gaps it returns.
    The error names ``x`` as ``name`` and the first failed condition: a
    diagonal entry, else a clique block.
    """
    bad = x.diag <= PD_RTOL * float(np.abs(x.diag).max())
    if bad.any():
        raise ConeError(f"{name} is outside the dual cone: diagonal entry {int(bad.argmax()) + 1} is not positive")
    g = _clique_gaps(x)
    inside = g > PD_RTOL
    if inside.all():
        return g
    i = int(inside.argmin())
    # det = m * 2^(2e) with m that of the block scaled by 2^-e (exact), printable past the double range
    d0, d1, o = float(x.diag[i]), float(x.diag[i + 1]), float(x.off[i])
    e = math.frexp(max(d0, d1, abs(o)))[1]
    m = math.ldexp(d0, -e) * math.ldexp(d1, -e) - math.ldexp(o, -e) ** 2
    if -1021 <= math.frexp(m)[1] + 2 * e <= 1024:  # det is a normal double
        det = f"{math.ldexp(m, 2 * e):.6g}"
    else:
        from decimal import Context, Decimal  # deferred: only a determinant past the double range

        det = f"{Context(prec=6).create_decimal(Decimal(m) * Decimal(2) ** (2 * e)).normalize():g}"
    raise ConeError(
        f"{name} is outside the dual cone: clique block ({i + 1},{i + 2}) has non-positive determinant {det}"
    )


def is_in_Q(x: IncompleteSym) -> bool:
    """True iff every 2x2 clique block of ``x`` is positive definite: :func:`_q_gaps` passes.

    For ``n = 1`` the condition degenerates to ``x_11 > 0``.
    """
    try:
        _q_gaps(x)
    except ConeError:
        return False
    return True


def assert_in_Q(x: IncompleteSym, name: str = "x") -> None:
    _q_gaps(x, name)


# ---------------------------------------------------------------------------
# pairing and the bijections between the cones
# ---------------------------------------------------------------------------


def pairing(y: TridiagSym, x: IncompleteSym) -> float:
    """Trace pairing ``<y, x>``; off-diagonal entries count twice.

    An overflowing sum is redone on operands scaled by powers of two (exact).
    """
    _same_size(y.n, x.n)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(y.diag @ x.diag + 2.0 * (y.off @ x.off))
        if math.isfinite(total):
            return total
        (yc, ey), (xc, ex), n = _to_unit(y.coords()), _to_unit(x.coords()), y.n
        return float(np.ldexp(yc[:n] @ xc[:n] + 2.0 * (yc[n:] @ xc[n:]), ey + ex))


def inverse_image(y: TridiagSym) -> IncompleteSym:
    """``pi(y^{-1})`` for positive definite ``y``; lands in the dual cone.

    Read off the peel plan of ``y`` by the O(n) sweep of the mean map at unit
    shape, without forming ``y^{-1}``.
    """
    return _hat_element(np.ones(y.n), y.n, _peel_unit(y.diag, y.off, y.n), "pi(y^{-1})")


def _clique_inverses(
    x: IncompleteSym, g: NDArray[np.float64] | None = None
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Entries ``(i00, i11, i01)`` of the inverse of every 2x2 clique block of ``x``.

    Closed form ``[[x_{i+1,i+1}, -x_{i,i+1}], [-x_{i,i+1}, x_ii]] / det``,
    vectorized over the blocks and written through the ratio-form gaps ``g``
    (:func:`_clique_gaps`, formed here when not given) so that no product of
    two diagonal entries is formed.
    """
    d0, d1 = x.diag[:-1], x.diag[1:]
    g = _clique_gaps(x) if g is None else g
    return 1.0 / (d0 * g), 1.0 / (d1 * g), -(x.off / d0) / (d1 * g)


def _clique_assembly(
    x: IncompleteSym, cliq_w: NDArray[np.float64], diag_w: NDArray[np.float64], what: str,
    g: NDArray | None = None,
) -> TridiagSym:
    """``sum_b cliq_w[b] ((x_b)^{-1})^0 + sum_j diag_w[j] / x_jj E_jj`` over the cliques ``b``.

    Builds the inverses from the gaps ``g`` of the cone test of ``x``, run
    here when not given.  The result has degree -1 in ``x``: outside
    ``_SAFE_RANGE`` it is formed on ``x`` scaled to unit size by a power of
    two (exact; a member's largest entry is on its diagonal) and scaled
    back by :func:`_from_unit`, which calls it ``what``.
    """
    g = _q_gaps(x) if g is None else g
    e = _unit_exponent(float(x.diag.max()))
    unit = IncompleteSym._trusted(x.n, np.ldexp(x.diag, -e), np.ldexp(x.off, -e)) if e else x
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite band fails in _from_unit
        i00, i11, i01 = _clique_inverses(unit, g)
        diag, off = diag_w / unit.diag, cliq_w * i01
        diag[:-1] += cliq_w * i00
        diag[1:] += cliq_w * i11
    band = _from_unit(np.concatenate([diag, off]), -e, what, -1, "x")
    return TridiagSym._trusted(x.n, band[: x.n], band[x.n :])


def _clique_form(x: IncompleteSym, exps: tuple, g: NDArray | None = None) -> tuple[NDArray, ...]:
    """Nonzero entries of the derivative ``D`` of ``x -> _clique_assembly(x, *exps)``, in O(n).

    ``D[d_j,d_j]``, ``D[d_b,d_{b+1}] = D[d_{b+1},d_b]``, ``D[d_b,o_b]``, ``D[d_{b+1},o_b]``,
    ``D[o_b,o_b]``; ``D[o_b,d]`` is half of ``D[d,o_b]``, as the pairing counts ``o_b`` twice.
    """
    cliq_e, diag_e = exps
    i00, i11, i01 = _clique_inverses(x, g)
    dd = -diag_e / x.diag / x.diag
    dd[:-1] -= cliq_e * (i00 * i00)
    dd[1:] -= cliq_e * (i11 * i11)
    return (dd, -(cliq_e * (i01 * i01)), -(cliq_e * (2.0 * i00 * i01)), -(cliq_e * (2.0 * i01 * i11)),
            -cliq_e * (i00 * i11 + i01 * i01))


def _not_definite(where: str, pivot: float, sign: float) -> ValueError:
    """The error for a pivot of a clique form that is zero, not finite or not of the form's sign."""
    want = "positive" if sign > 0 else "negative"
    return ValueError(f"the clique form is not definite in double precision: its pivot at {where} is "
                      f"{pivot:.6g}, not a finite {want} number")


def _form_solve(form: tuple[NDArray, ...], r: NDArray) -> NDArray:
    """``D^{-1} r`` into ``r``, for a definite clique form; one right-hand side per column of ``r``.

    Weighted by the pairing, ``D`` is symmetric, so LDL' needs no pivoting: each ``o_b`` goes first,
    vectorized, leaving a tridiagonal system on the ``d``, one float loop each way (rows if 2-D).
    Every pivot must be finite, nonzero and of the sign of ``D``'s diagonal (negative on ``Q``,
    positive on ``P``); it is checked before it divides, and a failed one is a ``ValueError``.
    """
    dd, dd1, do0, do1, oo = form
    n = dd.size
    sign = 1.0 if dd[0] > 0 else -1.0  # a definite form has its sign on every diagonal entry and pivot
    bad = np.flatnonzero(~((sign * oo > 0) & (sign * oo < math.inf)))
    if bad.size:
        raise _not_definite(f"clique ({bad[0] + 1},{bad[0] + 2})", oo[bad[0]], sign)
    col = (slice(None),) + (None,) * (r.ndim - 1)  # per-clique factors broadcast over the columns
    h0, h1 = 0.5 * do0 / oo, 0.5 * do1 / oo  # row o_b gives z_o = r_o / oo - h0 z_b - h1 z_{b+1}
    p, t1, mult = dd.copy(), (dd1 - do0 * h1).tolist(), [0.0] * (n - 1)  # the Schur complement on the d
    p[:-1] -= do0 * h0
    p[1:] -= do1 * h1
    r[n:] /= oo[col]
    r[: n - 1] -= do0[col] * r[n:]
    r[1:n] -= do1[col] * r[n:]
    z, p = r[:n].tolist() if r.ndim == 1 else list(r[:n]), p.tolist()
    for b in range(n):
        if not 0.0 < sign * p[b] < math.inf:
            raise _not_definite(f"vertex {b + 1}", p[b], sign)
        if b < n - 1:
            mult[b] = t1[b] / p[b]
            p[b + 1] -= mult[b] * t1[b]
            z[b + 1] -= mult[b] * z[b]
        z[b] /= p[b]
    for b in range(n - 2, -1, -1):
        z[b] -= mult[b] * z[b + 1]
    if r.ndim == 1:
        r[:n] = z
    r[n:] -= h0[col] * r[: n - 1]
    r[n:] -= h1[col] * r[1:n]
    return r


def _form_apply(form: tuple[NDArray, ...], u: NDArray) -> NDArray:
    """``D u`` for a clique form; one direction per column of ``u``, as in :func:`_form_solve`."""
    dd, dd1, do0, do1, oo = form
    n = dd.size
    col = (slice(None),) + (None,) * (u.ndim - 1)
    ud, uo = u[:n], u[n:]
    out = np.empty_like(u)
    out[:n] = dd[col] * ud
    out[: n - 1] += dd1[col] * ud[1:] + do0[col] * uo
    out[1:n] += dd1[col] * ud[:-1] + do1[col] * uo
    out[n:] = 0.5 * (do0[col] * ud[:-1] + do1[col] * ud[1:]) + oo[col] * uo
    return out


def _unit_form(x: IncompleteSym, exps: tuple, g: NDArray | None) -> tuple[tuple[NDArray, ...], int]:
    """``(form, e)``: the clique form of ``x * 2^-e`` of unit size (:func:`_to_unit`) at ``exps``, gaps ``g``."""
    c, e = _to_unit(x.coords())
    return _clique_form(IncompleteSym._trusted(x.n, c[: x.n], c[x.n :]), exps, g), e


def _covariance_coords(
    x: IncompleteSym, exps: tuple, u: NDArray, inverse: bool, name: str, g: NDArray | None = None
) -> NDArray:
    """``D u``, or ``-D^{-1} u`` into ``u`` if ``inverse``, with ``D`` the clique form of ``x`` at ``exps``.

    The covariance on ``P`` (``D``), the variance function on ``Q`` and the
    Newton step on ``P`` (``-D^{-1}``).  ``D`` (degree -2 in ``x``) and
    ``u`` (one direction per column) are formed at unit size, and the
    result is scaled back by :func:`_from_unit`, naming ``x`` as ``name``.
    """
    form, e = _unit_form(x, exps, g)
    u, f = _to_unit(u, out=u)
    u = _form_solve(form, np.negative(u, out=u)) if inverse else _form_apply(form, u)
    return _from_unit(u, (2 if inverse else -2) * e + f, "the covariance", -2, name)


def _covariance_matrix(x: IncompleteSym, exps: tuple, g: NDArray) -> NDArray:
    """``D`` in the canonical basis (:func:`_covariance_coords` on the identity): its five diagonals written out."""
    (dd, dd1, do0, do1, oo), e = _unit_form(x, exps, g)
    n = dd.size
    d, b, o = np.arange(n), np.arange(n - 1), np.arange(n, 2 * n - 1)
    out = np.zeros((2 * n - 1, 2 * n - 1))
    # added onto the zeros, so that a -0 entry (do0 or do1 at a zero x_{b,b+1}) is +0, as in D e_k
    out[np.r_[d, b, b + 1, b, b + 1, o, o, o], np.r_[d, b + 1, b, o, o, b, b + 1, o]] += np.concatenate(
        [dd, dd1, dd1, do0, do1, 0.5 * do0, 0.5 * do1, oo])
    return _from_unit(out, -2 * e, "the covariance", -2, "x")


def lauritzen_map(x: IncompleteSym) -> TridiagSym:
    """The unique positive definite banded ``y`` with ``pi(y^{-1}) = x``.

    Assembled clique by clique:

        y = sum_i ((x_{i,i+1} block)^{-1})^0  -  sum separators (1/x_ii)^0.
    """
    n = x.n
    cliques_at = np.zeros(n)
    cliques_at[:-1] += 1.0
    cliques_at[1:] += 1.0
    return _clique_assembly(x, np.ones(n - 1), 1.0 - cliques_at, "the Lauritzen map")


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
