"""Chain graphs, eliminating orders of vertices, and perfect orders of cliques.

The chain on ``n`` vertices is the path ``1 - 2 - ... - n``.  Its cliques are
the edges ``{i, i+1}`` and its separators the interior singletons.  An
ordering of the vertices is *eliminating* when every vertex's future
neighbours (later neighbours in the order) form a complete set; on a chain
that means no vertex is followed by both of its neighbours.  Every such order
interleaves the two monotone runs ``1, 2, ..., M`` and ``n, n-1, ..., M``
meeting at a maximal vertex ``M``, which gives exactly ``2^(n-1)`` orders.

Orders are encoded by an ``(n-1)``-bit intertwining mask: bit ``k`` set means
the ``k``-th element is taken from the left run.  This makes enumeration
duplicate-free and the maximal vertex a popcount.

A clique ordering is *perfect* (running-intersection property) exactly when
its reversal is an eliminating order of the derived chain whose vertices are
the ``n - 1`` cliques, so there are ``2^(n-2)`` perfect clique orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ChainGraph",
    "EliminatingOrder",
    "CliqueOrder",
    "build_chain",
    "enumerate_eliminating_orders",
    "is_eliminating",
    "future_neighbors",
    "predecessors",
    "enumerate_perfect_clique_orders",
    "first_separator",
]


@dataclass(frozen=True)
class ChainGraph:
    """The path graph on vertices ``1..n``."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("chain graph needs at least one vertex")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def edges(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset({i, i + 1}) for i in range(1, self.n))

    @property
    def cliques(self) -> tuple[tuple[int, int], ...]:
        """Maximal cliques ``{i, i+1}``; the single vertex for ``n = 1``."""
        if self.n == 1:
            return ((1,),)  # type: ignore[return-value]
        return tuple((i, i + 1) for i in range(1, self.n))

    @property
    def separators(self) -> tuple[int, ...]:
        return tuple(range(2, self.n))

    def adjacent(self, v: int, w: int) -> bool:
        return abs(v - w) == 1 and 1 <= v <= self.n and 1 <= w <= self.n


@dataclass(frozen=True, slots=True)
class EliminatingOrder:
    """A vertex order in which every future-neighbour set is complete.

    Slotted: ``enumerate_eliminating_orders`` makes ``2^(n-1)`` of them, and
    an instance without a ``__dict__`` is smaller and cheaper to create.
    """

    sequence: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def max_vertex(self) -> int:
        """The order's maximal element; the meeting point of the two runs."""
        return self.sequence[-1]

    def position(self, v: int) -> int:
        return self.sequence.index(v)


@dataclass(frozen=True)
class CliqueOrder:
    """A permutation of the chain's cliques, each named by its left endpoint."""

    sequence: tuple[int, ...]

    def cliques(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + 1) for i in self.sequence)


def build_chain(n: int) -> ChainGraph:
    """Chain graph on ``n >= 1`` vertices."""
    return ChainGraph(n)


def enumerate_eliminating_orders(g: ChainGraph) -> list[EliminatingOrder]:
    """All ``2^(n-1)`` eliminating orders, one per intertwining mask, in mask order.

    Built all at once, one row per position ``k`` and one column per mask,
    in the smallest integer type that holds ``n``: with ``c`` the number of
    left-run elements among the first ``k + 1``, the ``k``-th element is
    ``c`` when bit ``k`` is set and ``n - (k - c)`` when it is clear.  Bit
    ``n - 1`` of a mask is always clear, so the last element, the maximal
    vertex, is ``c + 1``.  ``tolist`` gives the orders Python ints.
    """
    n = g.n
    k = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    left = ((np.arange(1 << (n - 1)) >> k) & 1).astype(k.dtype)
    count = left.cumsum(axis=0, dtype=k.dtype)
    cols = np.where(left, count, n - k + count)
    return [EliminatingOrder(seq) for seq in zip(*cols.tolist())]


def is_eliminating(g: ChainGraph, seq: Sequence[int]) -> bool:
    """Check the completeness of every future-neighbour set.

    Rejects sequences that are not permutations of ``1..n``.
    """
    seq = tuple(seq)
    if sorted(seq) != list(range(1, g.n + 1)):
        raise ValueError(f"not a permutation of 1..{g.n}: {seq}")
    pos = {v: i for i, v in enumerate(seq)}
    for v in range(1, g.n + 1):
        fut = [w for w in (v - 1, v + 1) if 1 <= w <= g.n and pos[w] > pos[v]]
        if len(fut) == 2:  # {v-1, v+1} is never an edge of the chain
            return False
    return True


def future_neighbors(order: EliminatingOrder, v: int) -> set[int]:
    """Neighbours of ``v`` that come later in the order; empty exactly at the max."""
    n = order.n
    if not 1 <= v <= n:
        raise ValueError(f"unknown vertex {v}")
    pos = {w: i for i, w in enumerate(order.sequence)}
    return {w for w in (v - 1, v + 1) if 1 <= w <= n and pos[w] > pos[v]}


def predecessors(order: EliminatingOrder, v: int) -> set[int]:
    """All vertices preceding ``v`` in the order."""
    if not 1 <= v <= order.n:
        raise ValueError(f"unknown vertex {v}")
    i = order.position(v)
    return set(order.sequence[:i])


def enumerate_perfect_clique_orders(g: ChainGraph) -> list[CliqueOrder]:
    """All ``2^(n-2)`` perfect orders of the cliques of an ``n >= 2`` chain.

    Obtained by reversing the eliminating orders of the derived chain whose
    vertices are the cliques.
    """
    if g.n < 2:
        raise ValueError("perfect clique orders need at least one two-vertex clique")
    derived = ChainGraph(g.n - 1)
    return [
        CliqueOrder(tuple(reversed(o.sequence)))
        for o in enumerate_eliminating_orders(derived)
    ]


def first_separator(order: CliqueOrder) -> int:
    """The single vertex shared by the first two cliques of a perfect order."""
    if len(order.sequence) < 2:
        raise ValueError("first separator needs at least two cliques")
    i, j = order.sequence[0], order.sequence[1]
    c1, c2 = {i, i + 1}, {j, j + 1}
    common = c1 & c2
    if len(common) != 1:
        raise ValueError(f"first two cliques {sorted(c1)}, {sorted(c2)} are not adjacent")
    return common.pop()
