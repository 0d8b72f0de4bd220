"""Clique/separator-indexed power functions and their pivot-form conversion.

The classical multi-shape power function on the dual cone of a chain indexes
exponents by cliques and separators:

    H(alpha, beta; x) = prod_{i=1}^{n-1} |x_{i,i+1}|^{alpha_i}
                        / prod_{i=2}^{n-1} x_ii^{beta_i},

with ``alpha`` of length ``n - 1`` and ``beta`` of length ``n - 2`` (indexed
by the separators ``2..n-1``; serialized with that offset).  ``H`` coincides
with a pivot-indexed power function ``delta_s^(M)`` exactly when the
compatibility pattern

    alpha_j = beta_{j+1}  (1 <= j <= M-2),
    alpha_j = beta_j      (M+1 <= j <= n-1)

holds for some interior pivot ``2 <= M <= n-1`` (vacuous index ranges count
as satisfied), in which case

    s_j = alpha_j (j <= M-1),   s_M = alpha_{M-1} + alpha_M - beta_M,
    s_j = alpha_{j-1} (j >= M+1).

Endpoint pivots have no such representation: their power functions carry
``n - 1`` diagonal exponents while ``H`` only has ``n - 2``.  The admissible
parameter set for a perfect clique order depends only on the order's first
separator ``{M}`` and adds the positivity conditions ``alpha_j > 1/2`` and
``alpha_{M-1} + alpha_M - beta_M > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isclose
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .chain_graph import CliqueOrder, first_separator
from .matrix_spaces import IncompleteSym, _as_vector, _integral, _pivot, _same_size
from .power_functions import ShapeParams, _log_atoms
from .wishart_q import log_norm_constant

__all__ = [
    "LMParams",
    "log_H",
    "lm_to_sM",
    "sM_to_lm",
    "matches_pattern",
    "in_A0",
    "a_p_pivot",
    "gamma1_constant",
]

_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LMParams:
    """Clique exponents ``alpha`` (length n-1) and separator exponents ``beta`` (length n-2).

    ``beta`` is read first, so a length mismatch is reported on ``alpha``.
    ``beta[k]`` is the exponent of the separator ``k + 2``; no range
    restriction applies at construction.  Two parameter sets are equal, and
    hash alike, when their exponent vectors are; both are read-only copies,
    so a parameter set's hash cannot change.
    """

    alpha: NDArray[np.float64]
    beta: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _as_vector(self.beta, None, "beta"))
        object.__setattr__(self, "alpha", _as_vector(self.alpha, self.beta.size + 1, "alpha"))
        self.alpha.flags.writeable = self.beta.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LMParams):
            return NotImplemented
        return (tuple(self.alpha), tuple(self.beta)) == (tuple(other.alpha), tuple(other.beta))

    def __hash__(self) -> int:
        return hash((tuple(self.alpha), tuple(self.beta)))

    @property
    def n(self) -> int:
        return self.alpha.size + 1

    def beta_at(self, j: int) -> float:
        """Separator exponent ``beta_j`` for a 1-based vertex ``2 <= j <= n-1``."""
        j = _integral(j, "separator index")
        if not 2 <= j <= self.n - 1:
            raise ValueError(f"separator index {j} out of range 2..{self.n - 1}")
        return float(self.beta[j - 2])

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha.tolist(), "beta": self.beta.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LMParams":
        return cls(d["alpha"], d.get("beta", []))


def log_H(lm: LMParams, x: IncompleteSym) -> float:
    """``log H(alpha, beta; x)`` on the dual cone."""
    _same_size(lm.n, x.n)
    log_cliq, log_diag = _log_atoms(x)
    return float(lm.alpha @ log_cliq - lm.beta @ log_diag[1 : x.n - 1])


def matches_pattern(lm: LMParams, M: int) -> bool:
    """Compatibility pattern at pivot ``M``: false at the end pivots 1 and ``n``; vacuous ranges are satisfied."""
    n = lm.n
    M = _pivot(M, n)
    if not 2 <= M <= n - 1:
        return False
    for j in range(1, M - 1):  # alpha_j = beta_{j+1}
        if not isclose(lm.alpha[j - 1], lm.beta[j - 1], rel_tol=_TOL, abs_tol=_TOL):
            return False
    for j in range(M + 1, n):  # alpha_j = beta_j
        if not isclose(lm.alpha[j - 1], lm.beta[j - 2], rel_tol=_TOL, abs_tol=_TOL):
            return False
    return True


def lm_to_sM(lm: LMParams) -> Optional[ShapeParams]:
    """Pivot form of ``H`` when one exists; ``None`` otherwise.

    Scans interior pivots in increasing order and returns the first match
    (scalar-shape parameters match several pivots, all giving the same
    function).
    """
    n = lm.n
    for M in range(2, n):
        if matches_pattern(lm, M):
            s = np.empty(n)
            s[: M - 1] = lm.alpha[: M - 1]
            s[M - 1] = lm.alpha[M - 2] + lm.alpha[M - 1] - lm.beta_at(M)
            s[M:] = lm.alpha[M - 1 :]
            return ShapeParams(M, s)
    return None


def sM_to_lm(p: ShapeParams) -> LMParams:
    """Clique/separator form of a pivot power function; interior pivots only.

    Endpoint pivots are rejected: their functions exponentiate ``n - 1``
    diagonal entries, one more than any ``H`` provides.
    """
    n, M, s = p.n, p.M, p.s
    if not 2 <= M <= n - 1:
        raise ValueError(
            f"the endpoint pivot {M} has no clique/separator representation: endpoint power "
            f"functions carry {n - 1} diagonal exponents, one more than H provides"
        )
    alpha = np.empty(n - 1)
    alpha[: M - 1] = s[: M - 1]
    alpha[M - 1 :] = s[M:]
    beta = np.empty(n - 2)
    for j in range(2, n):
        if j == M:
            beta[j - 2] = s[M - 2] + s[M] - s[M - 1]
        elif j < M:
            beta[j - 2] = alpha[j - 2]  # = s_{j-1}: pattern alpha_{j-1} = beta_j
        else:
            beta[j - 2] = alpha[j - 1]  # = s_{j+1}: pattern alpha_j = beta_j
    return LMParams(alpha, beta)


def in_A0(lm: LMParams) -> bool:
    """Membership in the admissible union over perfect clique orders.

    True iff some interior pivot satisfies the compatibility pattern plus
    ``alpha_j > 1/2`` for all cliques and ``alpha_{M-1}+alpha_M-beta_M > 0``.
    """
    if np.any(lm.alpha <= 0.5):
        return False
    for M in range(2, lm.n):
        if matches_pattern(lm, M):
            if lm.alpha[M - 2] + lm.alpha[M - 1] - lm.beta_at(M) > 0:
                return True
    return False


def a_p_pivot(order: CliqueOrder) -> int:
    """Pivot parameterizing the admissible set of a perfect clique order.

    The set depends on the order only through its first separator.
    """
    return first_separator(order)


def gamma1_constant(lm: LMParams) -> float:
    """Log of the Laplace-transform constant of an admissible ``H``.

    Equals the gamma-product normalizer of the pivot-form family:
    ``(n-1)/2 log pi + sum_{i != M} log Gamma(s_i - 1/2) + log Gamma(s_M)``.
    """
    if not in_A0(lm):
        raise ValueError("parameters outside the admissible set")
    p = lm_to_sM(lm)
    assert p is not None
    return -log_norm_constant(p)
