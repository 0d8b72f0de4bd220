"""Generalized power functions on the chain cones, evaluated in log scale.

On the concentration cone ``P`` the pivot-indexed power function is a product
of powers of leading, full, and trailing principal minors,

    Delta_s^(M)(y) = prod_{i<M} |y_{1:i}|^{s_i - s_{i+1}} * |y|^{s_M}
                     * prod_{i>M} |y_{i:n}|^{s_i - s_{i-1}},

while on the dual cone ``Q`` it is a ratio of clique-block determinants and
diagonal entries,

    delta_s^(M)(x) = prod_{i<M} |x_{i,i+1}|^{s_i} * prod_{i>M} |x_{i-1,i}|^{s_i}
                     / ( prod_{i=2}^{M-1} x_ii^{s_{i-1}}
                         * x_MM^{s_{M-1} - s_M + s_{M+1}}
                         * prod_{i=M+1}^{n-1} x_ii^{s_{i+1}} ),

with the boundary convention ``s_0 = s_{n+1} = 0`` baked in, so the same
expression covers pivots at the chain endpoints (where the denominator has
``n - 1`` factors instead of ``n - 2``).

Both functions also exist indexed by an eliminating order; they depend on the
order only through its maximal vertex, which the order-indexed evaluators
here make checkable.  The characteristic function of the dual cone, ``phi``,
is the special product with clique exponents ``-3/2`` and unit separator
exponents.

Everything is computed and returned in log scale: the minors grow or shrink
exponentially with ``n``, so exponentiation is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .chain_graph import EliminatingOrder
from .matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _from_unit,
    _peel_core,
    _peel_order,
    _pivot,
    _q_gaps,
    _same_size,
    _to_unit,
    leading_log_minors,
    trailing_log_minors,
)

__all__ = [
    "ShapeParams",
    "delta_exponents",
    "phi_exponents",
    "log_delta_M",
    "log_Delta_M",
    "log_delta_order",
    "log_Delta_order",
    "log_phi",
    "homogeneity_degree",
]


@dataclass(frozen=True, eq=False)
class ShapeParams:
    """Pivot vertex ``M`` (1-based) and shape vector ``s``.

    The domain flags are advisory: the power functions are defined for every
    real ``s``; only densities, normalizing constants and samplers restrict
    to the integrability domains.  Two shapes are equal, and hash alike,
    when their pivots and shape vectors are; ``s`` is a read-only copy, so
    a shape's hash cannot change.
    """

    M: int
    s: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float).reshape(-1).copy())
        if self.s.size < 1:
            raise ValueError("shape vector must be non-empty")
        if not np.all(np.isfinite(self.s)):
            raise ValueError("shape vector must be finite")
        object.__setattr__(self, "M", _pivot(self.M, self.s.size))
        self.s.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShapeParams):
            return NotImplemented
        return (self.M, tuple(self.s)) == (other.M, tuple(other.s))

    def __hash__(self) -> int:
        return hash((self.M, tuple(self.s)))

    @property
    def n(self) -> int:
        return self.s.size

    def in_q_domain(self) -> bool:
        """Integrability on ``Q``: s_i > 1/2 off the pivot and s_M > 0."""
        ok = self.s > 0.5
        ok[self.M - 1] = self.s[self.M - 1] > 0.0
        return bool(np.all(ok))

    def in_p_domain(self) -> bool:
        """Integrability on ``P``: s_i > -3/2 off the pivot and s_M > -1."""
        ok = self.s > -1.5
        ok[self.M - 1] = self.s[self.M - 1] > -1.0
        return bool(np.all(ok))

    def to_json_dict(self) -> dict:
        return {"M": self.M, "s": self.s.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShapeParams":
        return cls(d["M"], d["s"])


def delta_exponents(s: Iterable[float], M: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exponent vectors of ``delta_s^(M)`` over its atoms.

    Returns ``(clique_exps, diag_exps)`` such that

        log delta_s^(M)(x) = sum_b clique_exps[b] * log |x_{b,b+1}|
                             + sum_j diag_exps[j] * log x_jj,

    with blocks indexed ``b = 1..n-1`` (stored 0-based) and the endpoint
    convention handled uniformly.  This is the single source of truth reused
    by densities, mean formulas and quadratic-construction bookkeeping.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = s.size
    M = _pivot(M, n)
    # block {b, b+1} carries s_b left of the pivot and s_{b+1} right of it;
    # x_jj carries -s_{j-1} left of the pivot and -s_{j+1} right of it
    cliq, diag = np.empty(n - 1), np.zeros(n)
    cliq[: M - 1] = s[: M - 1]
    cliq[M - 1 :] = s[M:]
    diag[1 : M - 1] = -s[: max(M - 2, 0)]
    diag[M - 1] = -((s[M - 2] if M >= 2 else 0.0) - s[M - 1] + (s[M] if M < n else 0.0))
    diag[M : n - 1] = -s[M + 1 :]
    return cliq, diag


def phi_exponents(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exponent vectors of the characteristic function ``phi`` of the dual cone.

    For ``n >= 2``: clique exponents ``-3/2`` and separator exponents ``+1``.
    For ``n = 1`` the function is ``1/x``.
    """
    if n == 1:
        return np.zeros(0), np.array([-1.0])
    cliq = np.full(n - 1, -1.5)
    diag = np.zeros(n)
    diag[1 : n - 1] = 1.0
    return cliq, diag


def _log_atoms(
    x: IncompleteSym, name: str = "x", g: NDArray | None = None
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Logs of the clique determinants and diagonal entries of ``x`` in ``Q``.

    ``log |x_b| = log x_ii + log x_{i+1,i+1} + log gap_i`` with the ratio-form
    gaps ``g`` of the cone test, run here when not given (:class:`ConeError`
    naming ``x`` as ``name`` outside ``Q``), so no product of entries can
    overflow or underflow.
    """
    g = _q_gaps(x, name) if g is None else g
    log_diag = np.log(x.diag)
    return log_diag[:-1] + log_diag[1:] + np.log(g), log_diag


def _log_power(exps: tuple[NDArray, NDArray], atoms: tuple[NDArray, NDArray]) -> float:
    """``cliq_e . log |x_b| + diag_e . log x_jj`` for exponents ``exps`` over :func:`_log_atoms`."""
    return float(exps[0] @ atoms[0] + exps[1] @ atoms[1])


def log_delta_M(p: ShapeParams, x: IncompleteSym) -> float:
    """``log delta_s^(M)(x)`` on the dual cone."""
    _same_size(p.n, x.n)
    return _log_power(delta_exponents(p.s, p.M), _log_atoms(x))


def _log_Delta(s: NDArray, M: int, y: TridiagSym, name: str = "y") -> float:
    """``sum_i s_i log a_i`` over the peel pivots of ``y`` toward ``M``, whose sweep is its cone test."""
    a, _ = _peel_core(y.diag, y.off, M, name=name)
    return float(s @ np.log(a))


def log_Delta_M(p: ShapeParams, y: TridiagSym, name: str = "y") -> float:
    """``log Delta_s^(M)(y) = sum_i s_i log a_i`` over the peel pivots of ``y``, in O(n).

    The pivots are ratios of consecutive leading (left of ``M``) and trailing
    (right of it) minors, so the product telescopes to the minor form above;
    their sweep is the cone test of ``y`` (called ``name`` in its error).
    """
    _same_size(p.n, y.n)
    return _log_Delta(p.s, p.M, y, name)


def log_phi(x: IncompleteSym) -> float:
    """Log of the characteristic function of the dual cone."""
    return _log_power(phi_exponents(x.n), _log_atoms(x))


def _log_gamma_normalizer(args: NDArray, M: int) -> float:
    """``-log(pi^{(n-1)/2} prod_i Gamma(args_i))`` from ``math.lgamma`` of each of ``args``.

    The terms are added one at a time: ``pi``'s and the pivot's first, then
    the others by index.  A term past the largest double (shapes around
    1e306) makes the normalizer ``-inf``.
    """
    n, args = args.size, args.tolist()
    try:
        total = 0.5 * (n - 1) * math.log(math.pi) + math.lgamma(args[M - 1])
        for a in args[: M - 1] + args[M:]:
            total += math.lgamma(a)
    except OverflowError:
        return float("-inf")
    return -total


# ---------------------------------------------------------------------------
# order-indexed power functions
# ---------------------------------------------------------------------------


def log_delta_order(s: Iterable[float], order: EliminatingOrder, x: IncompleteSym) -> float:
    """Order-indexed power function on ``Q``:

        sum_v s_v * log( |x_{v union v+}| / |x_{v+}| )

    where ``v+`` is the future-neighbour set of ``v``.  Equals
    :func:`log_delta_M` at ``M = order.max_vertex``.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = x.n
    _same_size(s.size, order.n, n)
    log_cliq, log_diag = _log_atoms(x)
    pos = {v: i for i, v in enumerate(order.sequence)}
    total = 0.0
    for v in range(1, n + 1):
        fut = [w for w in (v - 1, v + 1) if 1 <= w <= n and pos[w] > pos[v]]
        if not fut:
            num, den = log_diag[v - 1], 0.0
        else:
            (w,) = fut
            num, den = log_cliq[min(v, w) - 1], log_diag[w - 1]
        total += s[v - 1] * (num - den)
    return float(total)


def _log_det_prefix_suffix(lead: NDArray, trail: NDArray, full: float, a: int, b: int, n: int) -> float:
    """``log |y_S|`` for ``S = {1..a} union {b..n}`` (a = 0 / b = n+1 mean absent).

    Disconnected intervals of a banded matrix are block diagonal, so the
    determinant factorizes exactly; touching intervals cover everything.
    """
    if a == 0 and b == n + 1:
        return 0.0
    if b == a + 1:
        return full
    out = 0.0
    if a >= 1:
        out += lead[a - 1]
    if b <= n:
        out += trail[b - 1]
    return out


def log_Delta_order(s: Iterable[float], order: EliminatingOrder, y: TridiagSym) -> float:
    """Order-indexed power function on ``P``:

        sum_v s_v * log( |y_{v union v-}| / |y_{v-}| )

    with ``v-`` the predecessor set.  For an eliminating order the
    predecessor sets are unions of a prefix and a suffix, so every minor
    factorizes over at most two intervals.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = y.n
    _same_size(s.size, order.n, n)
    lead = leading_log_minors(y)
    trail = trailing_log_minors(y)
    full = lead[n - 1]
    total = 0.0
    a, b = 0, n + 1  # consumed prefix end / suffix start
    for v in order.sequence:
        log_den = _log_det_prefix_suffix(lead, trail, full, a, b, n)
        if v == a + 1:
            a += 1
        elif v == b - 1:
            b -= 1
        else:  # unreachable for an intertwining order
            raise ValueError(f"order {order.sequence} is not an eliminating order")
        log_num = _log_det_prefix_suffix(lead, trail, full, a, b, n)
        total += s[v - 1] * (log_num - log_den)
    return float(total)


def homogeneity_degree(p: ShapeParams) -> float:
    """Exponent ``kappa`` with ``Delta_s^(M)(c y) = c^kappa Delta_s^(M)(y)``.

    Each peel pivot in ``Delta_s^(M) = prod_i a_i^{s_i}`` has degree 1, so
    ``kappa = sum_i s_i``, which is also what the minor sizes give:

        kappa = sum_{i<M} i (s_i - s_{i+1}) + n s_M
                + sum_{i>M} (n - i + 1)(s_i - s_{i-1}).

    (A published variant of this constant subtracts ``(n - M) s_M``; the
    scaling identity above is what the functions here actually satisfy, and
    the test suite checks it against a numerical scaling oracle.  See README,
    "Known discrepancies".)
    """
    return float(np.sum(p.s))


# ---------------------------------------------------------------------------
# Taylor jets in nilpotent directions ``e_j``, ``e_j^2 = 0`` (Griewank and
# Walther, *Evaluating Derivatives*, 2008, ch. 13; Fike and Alonso, 2011): the
# last axis holds 2^N coefficients, entry ``S`` (a bit mask) multiplying the
# ``e_j`` with ``j`` in ``S``.
#
# Whole arrays of jets run batched in numpy: their products (``_jet_mul``)
# and their logs (``_jet_log``, which solves the subsets of one size at a
# time).  The two sequential steps run on Python floats, subset by subset,
# off tables cached per jet size: the quotient of the peel (``_jet_div``,
# ``q a = c`` solved for ``q``) and the one coefficient of ``exp`` a moment
# needs (``_exp_top``, a sum over set partitions, which ``_jet_log`` inverts).
# ---------------------------------------------------------------------------

#: Elements of the pair-product temporary of one :func:`_jet_mul` or :func:`_jet_log` chunk.
_JET_CHUNK = 1 << 20

#: The highest moment order: a moment of order N costs O(n 3^N) jet products.
_MOMENT_CAP = 6


@lru_cache(maxsize=None)
def _subset_pairs(size: int) -> tuple[NDArray, NDArray, NDArray]:
    """Pairs ``(T, S - T)`` over the subsets ``T`` of each ``S``, grouped by ``S``; group starts."""
    masks = np.arange(size)
    s, t = np.nonzero((masks[:, None] & masks) == masks)
    return t, s ^ t, np.flatnonzero(np.diff(s, prepend=-1))


@lru_cache(maxsize=None)
def _quotient_pairs(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per mask ``S``, the pairs ``(T, S - T)`` over the proper subsets ``T`` of ``S``."""
    return tuple(tuple((t, s ^ t) for t in range(s) if t & s == t) for s in range(size))


@lru_cache(maxsize=None)
def _partition_pairs(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per mask ``S``, the pairs ``(T, S - T)`` over the subsets ``T`` of ``S`` that hold its lowest bit."""
    return tuple(tuple((t, s ^ t) for t in range(1, s + 1) if t & s == t and t & s & -s) for s in range(size))


@lru_cache(maxsize=None)
def _log_steps(size: int) -> tuple[int, tuple[tuple[NDArray, NDArray, NDArray, NDArray], ...]]:
    """The steps of :func:`_jet_log`, one per subset size from 2 up, and the most pairs in one.

    A step holds the masks ``S`` of its size, their pairs ``(T, S - T)`` in
    :func:`_partition_pairs` with each row's last, ``(S, 0)``, moved first,
    and the start of each mask's pairs.
    """
    pairs, steps = _partition_pairs(size), []
    for k in range(2, size.bit_length()):
        masks = [s for s in range(size) if s.bit_count() == k]
        t, u = np.array([p for s in masks for p in (pairs[s][-1], *pairs[s][:-1])]).T
        steps.append((np.array(masks), t, u, np.arange(0, t.size, 1 << (k - 1))))
    return max((t.size for _, t, _, _ in steps), default=1), tuple(steps)


def _jet_mul(a: NDArray, b: NDArray) -> NDArray[np.float64]:
    """Product of jets of one shape (a subset convolution), in row chunks of ``_JET_CHUNK``."""
    t, u, starts = _subset_pairs(a.shape[-1])
    k = max(1, _JET_CHUNK // t.size)
    if a.ndim == 1 or len(a) <= k:
        return np.add.reduceat(a.T[t] * b.T[u], starts).T
    return np.concatenate([_jet_mul(a[i : i + k], b[i : i + k]) for i in range(0, len(a), k)])


def _jet_div(c: list[float], a: list[float]) -> list[float]:
    """The jet ``q`` with ``q a = c``, for one jet each as Python floats (``a_0 != 0``).

    Coefficient ``S`` of ``q a`` is ``q_S a_0`` plus the products over the
    proper subsets of ``S``, all of them solved before ``S``.
    """
    a0, q = a[0], [0.0] * len(c)
    for s, pairs in enumerate(_quotient_pairs(len(c))):
        acc = c[s]
        for t, u in pairs:
            acc -= q[t] * a[u]
        q[s] = acc / a0
    return q


def _exp_top(g: NDArray) -> float:
    """Coefficient of ``e_1 ... e_N`` in ``exp(g)`` for a jet with zero constant term.

    It is the sum over the set partitions of ``{1..N}`` of the products of
    ``g`` over their blocks, built up over every subset ``S`` by splitting
    off the block that holds the lowest element of ``S``.
    """
    g = g.tolist()
    e = [1.0] * len(g)
    for s, pairs in enumerate(_partition_pairs(len(g))[1:], 1):
        acc = 0.0
        for t, u in pairs:
            acc += g[t] * e[u]
        e[s] = acc
    return e[-1]


def _jet_log(x: NDArray) -> NDArray[np.float64]:
    """``log x - log x_0``: the jet ``g`` with ``exp(g) = e = x / x_0`` and ``g_0 = 0``.

    It inverts the recurrence of :func:`_exp_top`: ``g_S = e_S`` minus the
    products ``g_T e_{S-T}`` over the proper subsets ``T`` of ``S`` that
    hold its lowest bit, all of them solved before ``S``.  While ``S`` is
    unsolved its slot holds ``e_S``, so with ``e_0 = 1`` the pair ``(S, 0)``
    gives the first term.  The subsets of one size are solved together
    (:func:`_log_steps`), coefficient-major so that each gather takes whole
    rows, for up to ``_JET_CHUNK`` pair products at a time.
    """
    widest, steps = _log_steps(x.shape[-1])
    k = max(1, _JET_CHUNK // widest)
    if x.ndim > 1 and len(x) > k:
        return np.concatenate([_jet_log(x[i : i + k]) for i in range(0, len(x), k)])
    g = x / x[..., :1]
    if steps:
        e = g.T
        gt = e.copy()
        for s, t, u, starts in steps:
            gt[s] = np.subtract.reduceat(gt[t] * e[u], starts)
        g[...] = gt.T
    g[..., 0] = 0.0
    return g


def _jet_moment(base: TridiagSym | IncompleteSym, dirs: Sequence, log_laplace, name: str) -> float:
    """Coefficient of ``e_1 ... e_N`` in ``exp(F(base - sum_j e_j dirs[j]) - F(base))``.

    ``log_laplace`` maps jet-valued (diag, off) to ``F`` minus its constant.
    Scaling a power function's argument only shifts ``F`` by a constant, so
    ``base`` and each direction are scaled to unit size by :func:`_to_unit`
    and the moment, of degree ``-N`` in ``base`` (named ``name``), back by
    :func:`_from_unit`.  The one check of the directions, for both cones:
    at least one, at most ``_MOMENT_CAP``, each of the size of ``base``.
    """
    n, k = base.n, len(dirs)
    if k == 0:
        raise ValueError("need at least one test direction")
    if k > _MOMENT_CAP:
        raise ValueError(f"moment order {k} above cap {_MOMENT_CAP}")
    _same_size(n, *(u.n for u in dirs))
    # one row per element, diagonal then off-diagonal, each scaled by its own power of two
    coords = np.concatenate([v for u in (base, *dirs) for v in (u.diag, u.off)]).reshape(k + 1, -1)
    coords, ex = _to_unit(coords, out=coords, axis=1)
    coords[1:] *= -1.0
    jets = np.zeros((2 * n - 1, 1 << k))
    jets[:, [0] + [1 << j for j in range(k)]] = coords.T
    top = _exp_top(log_laplace(jets[:n], jets[n:]))
    e0, *e = ex.ravel().tolist()
    return _from_unit(top, sum(e) - k * e0, "the moment", -k, name)


def _log_Delta_jet(p: ShapeParams, diag: NDArray, off: NDArray) -> NDArray[np.float64]:
    """``log Delta_s^(M)`` minus its constant term at jet-valued banded entries.

    The peel of :func:`log_Delta_M`, ``a_j -= o^2 / a_i``, with the quotient
    solved by :func:`_jet_div` on Python floats; the squares ``o^2`` and the
    logs of the pivots run batched.
    """
    a, o2 = diag.tolist(), _jet_mul(off, off).tolist()
    for i, j in _peel_order(p.n, p.M):
        a[j] = [v - q for v, q in zip(a[j], _jet_div(o2[min(i, j)], a[i]))]
    return p.s @ _jet_log(np.array(a))
