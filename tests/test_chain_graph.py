import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwishart.chain_graph import (
    CliqueOrder,
    EliminatingOrder,
    build_chain,
    enumerate_eliminating_orders,
    enumerate_perfect_clique_orders,
    first_separator,
    future_neighbors,
    is_eliminating,
    predecessors,
)

from _dense_oracle import enumerate_all_eliminating_orders_bruteforce


def test_build_chain_basic():
    g1 = build_chain(1)
    assert g1.vertices == (1,)
    assert g1.edges == ()
    g3 = build_chain(3)
    assert set(g3.edges) == {frozenset({1, 2}), frozenset({2, 3})}
    g5 = build_chain(5)
    assert g5.cliques == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert g5.separators == (2, 3, 4)


def test_build_chain_rejects_zero():
    with pytest.raises(ValueError):
        build_chain(0)


def test_enumerate_counts():
    assert len(enumerate_eliminating_orders(build_chain(1))) == 1
    assert enumerate_eliminating_orders(build_chain(1))[0].sequence == (1,)
    assert len(enumerate_eliminating_orders(build_chain(10))) == 512


def test_enumerate_n3_explicit():
    seqs = {o.sequence for o in enumerate_eliminating_orders(build_chain(3))}
    assert seqs == {(1, 2, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2)}


def test_is_eliminating_examples():
    g = build_chain(3)
    assert is_eliminating(g, (1, 2, 3))
    assert not is_eliminating(g, (2, 1, 3))
    assert is_eliminating(g, (3, 1, 2))


def test_is_eliminating_rejects_non_permutation():
    g = build_chain(3)
    with pytest.raises(ValueError):
        is_eliminating(g, (1, 2, 2))


def test_future_neighbors_examples():
    o = EliminatingOrder((1, 2, 3))
    assert future_neighbors(o, 1) == {2}
    o2 = EliminatingOrder((1, 3, 2))
    assert future_neighbors(o2, 3) == {2}
    assert future_neighbors(o2, 2) == set()
    with pytest.raises(ValueError):
        future_neighbors(o2, 9)


def test_predecessors():
    o = EliminatingOrder((1, 3, 2))
    assert predecessors(o, 2) == {1, 3}
    assert predecessors(o, 1) == set()


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=7))
def test_enumeration_matches_bruteforce(n):
    g = build_chain(n)
    fast = {o.sequence for o in enumerate_eliminating_orders(g)}
    slow = set(enumerate_all_eliminating_orders_bruteforce(g))
    assert fast == slow
    assert len(fast) == 2 ** (n - 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0))
def test_removing_min_keeps_eliminating(n, raw):
    g = build_chain(n)
    orders = enumerate_eliminating_orders(g)
    o = orders[raw % len(orders)]
    head, tail = o.sequence[0], o.sequence[1:]
    assert head in (1, n)
    # relabel the remaining chain onto 1..n-1 and recheck
    relabel = {v: v - 1 if head == 1 else v for v in tail}
    assert is_eliminating(build_chain(n - 1), tuple(relabel[v] for v in tail))


def test_max_vertex_is_last_and_unique_sink():
    for o in enumerate_eliminating_orders(build_chain(6)):
        m = o.max_vertex
        for v in range(1, 7):
            fut = future_neighbors(o, v)
            assert len(fut) <= 1
            assert (len(fut) == 0) == (v == m)


def test_perfect_clique_orders_counts():
    assert len(enumerate_perfect_clique_orders(build_chain(2))) == 1
    assert enumerate_perfect_clique_orders(build_chain(2))[0].cliques() == ((1, 2),)
    assert len(enumerate_perfect_clique_orders(build_chain(3))) == 2
    assert len(enumerate_perfect_clique_orders(build_chain(4))) == 4
    with pytest.raises(ValueError):
        enumerate_perfect_clique_orders(build_chain(1))


def test_perfect_orders_biject_with_derived_eliminating():
    for n in range(2, 9):
        perfect = enumerate_perfect_clique_orders(build_chain(n))
        derived = enumerate_eliminating_orders(build_chain(n - 1))
        assert len(perfect) == len(derived) == 2 ** (n - 2)
        rev = {tuple(reversed(p.sequence)) for p in perfect}
        assert rev == {o.sequence for o in derived}


def test_first_separator_examples():
    assert first_separator(CliqueOrder((1, 2))) == 2  # {1,2} then {2,3}
    assert first_separator(CliqueOrder((2, 1, 3))) == 2
    assert first_separator(CliqueOrder((3, 2, 1))) == 3
    with pytest.raises(ValueError):
        first_separator(CliqueOrder((1,)))


def _mask_rule(n, mask):
    """The module docstring's rule: bit ``k`` of ``mask`` set takes the ``k``-th element from the left run."""
    left, right, seq = 1, n, []
    for k in range(n - 1):
        if (mask >> k) & 1:
            seq.append(left)
            left += 1
        else:
            seq.append(right)
            right -= 1
    return tuple(seq + [left])


@pytest.mark.parametrize("n", [*range(1, 9), 14])
def test_enumeration_lists_the_orders_in_mask_order(n):
    got = [o.sequence for o in enumerate_eliminating_orders(build_chain(n))]
    assert got == [_mask_rule(n, m) for m in range(1 << (n - 1))]
    # Python ints, not numpy scalars: the ``orders`` JSON writes them as numbers
    assert all(type(v) is int for seq in got for v in seq)


def test_enumeration_stops_at_16_vertices_before_it_allocates():
    assert len(enumerate_eliminating_orders(build_chain(16))) == 2**15
    assert len(enumerate_perfect_clique_orders(build_chain(17))) == 2**15
    for n in (17, 40, 64, 10**6):
        with pytest.raises(ValueError, match=rf"a chain of {n} vertices has 2\^{n - 1} eliminating orders"):
            enumerate_eliminating_orders(build_chain(n))


def test_eliminating_orders_are_slotted():
    orders = enumerate_eliminating_orders(build_chain(6))
    assert all(not hasattr(o, "__dict__") for o in orders)
    assert orders[0] == EliminatingOrder(orders[0].sequence)
    assert hash(orders[0]) == hash(EliminatingOrder(orders[0].sequence))
