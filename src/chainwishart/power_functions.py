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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .chain_graph import EliminatingOrder
from .matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    _clique_gaps,
    _peel_core,
    _peel_order,
    assert_in_Q,
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


@dataclass(frozen=True)
class ShapeParams:
    """Pivot vertex ``M`` (1-based) and shape vector ``s``.

    The domain flags are advisory: the power functions are defined for every
    real ``s``; only densities, normalizing constants and samplers restrict
    to the integrability domains.
    """

    M: int
    s: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float).reshape(-1).copy())
        if self.s.size < 1:
            raise ValueError("shape vector must be non-empty")
        if not np.all(np.isfinite(self.s)):
            raise ValueError("shape vector must be finite")
        if not 1 <= self.M <= self.s.size:
            raise ValueError(f"pivot M={self.M} out of range 1..{self.s.size}")

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
        return cls(int(d["M"]), d["s"])


def _s_ext(s: NDArray[np.float64]) -> NDArray[np.float64]:
    """Shape vector padded with the convention s_0 = s_{n+1} = 0 (1-based access)."""
    return np.concatenate([[0.0], s, [0.0]])


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
    if not 1 <= M <= n:
        raise ValueError(f"pivot M={M} out of range 1..{n}")
    se = _s_ext(s)
    cliq = np.zeros(max(n - 1, 0))
    for b in range(1, n):  # block {b, b+1}
        cliq[b - 1] = se[b] if b <= M - 1 else se[b + 1]
    diag = np.zeros(n)
    for j in range(2, M):
        diag[j - 1] = -se[j - 1]
    diag[M - 1] = -(se[M - 1] - se[M] + se[M + 1])
    for j in range(M + 1, n):
        diag[j - 1] = -se[j + 1]
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


def _log_atoms(x: IncompleteSym) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Logs of the clique determinants and diagonal entries of ``x`` in ``Q``.

    ``log |x_b| = log x_ii + log x_{i+1,i+1} + log gap_i`` with the ratio-form
    gaps of the cone test, so no product of entries can overflow or underflow.
    """
    assert_in_Q(x)
    log_diag = np.log(x.diag)
    return log_diag[:-1] + log_diag[1:] + np.log(_clique_gaps(x)), log_diag


def log_delta_M(p: ShapeParams, x: IncompleteSym) -> float:
    """``log delta_s^(M)(x)`` on the dual cone."""
    if p.n != x.n:
        raise ValueError("shape vector and matrix size disagree")
    cliq_e, diag_e = delta_exponents(p.s, p.M)
    log_cliq, log_diag = _log_atoms(x)
    return float(cliq_e @ log_cliq + diag_e @ log_diag)


def log_Delta_M(p: ShapeParams, y: TridiagSym, name: str = "y") -> float:
    """``log Delta_s^(M)(y) = sum_i s_i log a_i`` over the peel pivots of ``y``, in O(n).

    The pivots are ratios of consecutive leading (left of ``M``) and trailing
    (right of it) minors, so the product telescopes to the minor form above;
    their sweep is the cone test of ``y`` (called ``name`` in its error).
    """
    if p.n != y.n:
        raise ValueError("shape vector and matrix size disagree")
    a, _ = _peel_core(y.diag, y.off, p.M, name=name)
    return float(p.s @ np.log(a))


def log_phi(x: IncompleteSym) -> float:
    """Log of the characteristic function of the dual cone."""
    cliq_e, diag_e = phi_exponents(x.n)
    log_cliq, log_diag = _log_atoms(x)
    return float(cliq_e @ log_cliq + diag_e @ log_diag)


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
    if s.size != n or order.n != n:
        raise ValueError("sizes disagree")
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
    if s.size != n or order.n != n:
        raise ValueError("sizes disagree")
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
# ---------------------------------------------------------------------------

#: Elements of the pair-product temporary of one :func:`_jet_mul` chunk.
_JET_CHUNK = 1 << 20


@lru_cache(maxsize=None)
def _subset_pairs(size: int) -> tuple[NDArray, NDArray, NDArray]:
    """Pairs ``(T, S - T)`` over the subsets ``T`` of each ``S``, grouped by ``S``; group starts."""
    masks = np.arange(size)
    s, t = np.nonzero((masks[:, None] & masks) == masks)
    return t, s ^ t, np.flatnonzero(np.diff(s, prepend=-1))


def _jet_mul(a: NDArray, b: NDArray) -> NDArray[np.float64]:
    """Product of jets of one shape (a subset convolution), in row chunks of ``_JET_CHUNK``."""
    t, u, starts = _subset_pairs(a.shape[-1])
    k = max(1, _JET_CHUNK // t.size)
    if a.ndim == 1 or len(a) <= k:
        return np.add.reduceat(a.T[t] * b.T[u], starts).T
    return np.concatenate([_jet_mul(a[i : i + k], b[i : i + k]) for i in range(0, len(a), k)])


def _jet_rel(x: NDArray) -> NDArray[np.float64]:
    """The relative part ``x / x_0 - 1`` of a jet."""
    u = x / x[..., :1]
    u[..., 0] = 0.0
    return u


def _jet_poly(u: NDArray, coef: NDArray) -> NDArray[np.float64]:
    """``sum_k coef[k-1] u^k`` for a jet with zero constant term; ``u^(N+1) = 0``."""
    out, pw = coef[0] * u, u
    for c in coef[1:]:
        pw = _jet_mul(pw, u)
        out += c * pw
    return out


def _jet_log(x: NDArray) -> NDArray[np.float64]:
    """``log x - log x_0``: the series of ``log(1 + u)``."""
    k = np.arange(1.0, x.shape[-1].bit_length())
    return _jet_poly(_jet_rel(x), -((-1.0) ** k) / k)


def _jet_moment(base: TridiagSym | IncompleteSym, dirs: Sequence, log_laplace) -> float:
    """Coefficient of ``e_1 ... e_N`` in ``exp(F(base - sum_j e_j dirs[j]) - F(base))``.

    ``log_laplace`` maps jet-valued (diag, off) to ``F`` minus its constant.
    Scaling a power function's argument only shifts ``F`` by a constant, so the
    inputs are scaled to unit size by powers of two and the result back.
    """
    coords = np.array([base.coords()] + [-u.coords() for u in dirs])
    ex = np.frexp(np.max(np.abs(coords), axis=1))[1]
    jets = np.zeros((coords.shape[1], 1 << len(dirs)))
    jets[:, np.r_[0, 1 << np.arange(len(dirs))]] = np.ldexp(coords, -ex[:, None]).T
    g = log_laplace(jets[: base.n], jets[base.n :])
    top = _jet_poly(g, 1.0 / np.cumprod(np.arange(1.0, len(dirs) + 1.0)))[-1]
    return float(np.ldexp(top, np.sum(ex[1:]) - len(dirs) * ex[0]))


def _log_Delta_jet(p: ShapeParams, diag: NDArray, off: NDArray) -> NDArray[np.float64]:
    """``log Delta_s^(M)`` minus its constant term at jet-valued banded entries.

    The peel of :func:`log_Delta_M`, ``a_j -= o^2 / a_i``, on jets: the
    reciprocal series costs ``N`` jet products per vertex, and the logs of
    the pivots run batched.
    """
    alt = (-1.0) ** np.arange(1, diag.shape[-1].bit_length())  # 1 / (1 + u) = 1 + sum_k (-u)^k
    a = list(diag)
    o2 = _jet_mul(off, off)
    for i, j in _peel_order(p.n, p.M):
        recip = _jet_poly(_jet_rel(a[i]), alt)
        recip[0] = 1.0
        a[j] = a[j] - _jet_mul(o2[min(i, j)], recip / a[i][0])
    return p.s @ _jet_log(np.array(a))
