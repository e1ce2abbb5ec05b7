from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundedl import (INT_PAT, MPT_PAT, P1, P2, Graph, LinearOrder,
                       OrderedGraph, Pattern, SearchBoundExceeded,
                       avoids_patterns, complete_graph, cycle_graph,
                       empty_graph, enumerate_avoiding_orders,
                       find_pattern_occurrences, orders_equivalent)
from conftest import all_graphs, natural


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------

def test_graph_normalizes_edges():
    g = Graph(3, frozenset({(2, 1), (1, 3)}))
    assert g.edges == frozenset({(1, 2), (1, 3)})
    assert g.has_edge(2, 1) and not g.has_edge(2, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(True)


def test_linear_order_validation():
    with pytest.raises(ValueError):
        LinearOrder((1, 1, 2))
    with pytest.raises(ValueError):
        LinearOrder((1, 3))
    assert LinearOrder((3, 1, 2)).position(3) == 1


def test_ordered_graph_length_mismatch():
    with pytest.raises(ValueError):
        OrderedGraph(Graph(3), LinearOrder((1, 2)))


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(3, frozenset({(1, 2)}), frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        Pattern(3, frozenset({(1, 4)}), frozenset())


def test_pattern_constants():
    assert P1.compulsory == {(1, 3), (2, 4)} and P1.forbidden == {(1, 2), (2, 3)}
    assert P2.compulsory == {(1, 2), (1, 4), (2, 3)} and P2.forbidden == {(1, 3)}
    assert MPT_PAT.compulsory == {(1, 3), (2, 4)} and MPT_PAT.forbidden == {(2, 3)}
    assert INT_PAT.k == 3
    assert INT_PAT.compulsory == {(1, 3)} and INT_PAT.forbidden == {(2, 3)}


# ----------------------------------------------------------------------
# pattern matching
# ----------------------------------------------------------------------

def test_p1_trivial_match():
    og = natural(Graph(4, frozenset({(1, 3), (2, 4)})))
    assert [m.positions for m in find_pattern_occurrences(og, P1)] == [(1, 2, 3, 4)]


def test_p2_match_gadget(gadget_i):
    assert [m.positions for m in find_pattern_occurrences(gadget_i, P2)] == [(1, 2, 3, 4)]


def test_c4_twisted_order_avoids_both(c4_good):
    for p in (P1, P2):
        assert find_pattern_occurrences(c4_good, p) == []
    assert avoids_patterns(c4_good, (P1, P2))


def test_c4_natural_order_contains_p2(c4_natural):
    assert not avoids_patterns(c4_natural, (P1, P2))
    assert find_pattern_occurrences(c4_natural, P2, limit=1)


def test_small_graph_trivially_avoids_order4_pattern():
    og = natural(empty_graph(3))
    assert avoids_patterns(og, (P1,))


def test_occurrences_lexicographic_and_limit():
    g = Graph(6, frozenset({(1, 3), (2, 4), (3, 5), (4, 6)}))
    og = natural(g)
    all_matches = [m.positions for m in find_pattern_occurrences(og, P1)]
    assert all_matches == sorted(all_matches)
    limited = find_pattern_occurrences(og, P1, limit=1)
    assert len(limited) == 1 and limited[0].positions == all_matches[0]


def test_avoids_iff_no_occurrence():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < 0.5)
        og = OrderedGraph(Graph(n, edges),
                          LinearOrder(tuple(rng.sample(range(1, n + 1), n))))
        for p in (P1, P2, MPT_PAT, INT_PAT):
            assert (find_pattern_occurrences(og, p) == []) == avoids_patterns(og, (p,))


def test_matching_invariant_under_order_preserving_relabel():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < 0.4)
        perm = tuple(rng.sample(range(1, n + 1), n))
        og = OrderedGraph(Graph(n, edges), LinearOrder(perm))
        relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        g2 = Graph(n, frozenset((relabel[u], relabel[v]) for u, v in edges))
        og2 = OrderedGraph(g2, LinearOrder(tuple(relabel[v] for v in perm)))
        for p in (P1, P2, MPT_PAT):
            assert ([m.positions for m in find_pattern_occurrences(og, p)]
                    == [m.positions for m in find_pattern_occurrences(og2, p)])


# ----------------------------------------------------------------------
# order equivalence
# ----------------------------------------------------------------------

def test_orders_equivalent_examples():
    assert orders_equivalent(LinearOrder((1, 2, 3)), LinearOrder((1, 2, 3)))
    assert orders_equivalent(LinearOrder((1, 2, 3, 4)), LinearOrder((4, 3, 2, 1)))
    assert not orders_equivalent(LinearOrder((1, 2, 3, 4)), LinearOrder((1, 3, 2, 4)))


def test_orders_equivalent_length_mismatch():
    with pytest.raises(ValueError):
        orders_equivalent(LinearOrder((1, 2)), LinearOrder((1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)),
                        st.permutations(range(1, n + 1)),
                        st.permutations(range(1, n + 1)))))
def test_orders_equivalent_is_equivalence_relation(perms):
    a, b, c = (LinearOrder(tuple(p)) for p in perms)
    assert orders_equivalent(a, a)
    assert orders_equivalent(a, b) == orders_equivalent(b, a)
    if orders_equivalent(a, b) and orders_equivalent(b, c):
        assert orders_equivalent(a, c)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_enumerate_c4(c4):
    perms = [o.perm for o in enumerate_avoiding_orders(c4, (P1, P2))]
    assert (1, 2, 4, 3) in perms
    assert (1, 2, 3, 4) not in perms


def test_enumerate_k4_all_orders():
    # both patterns demand a non-edge, so a complete graph avoids them
    assert len(enumerate_avoiding_orders(complete_graph(4), (P1, P2))) == 24


def test_enumerate_octahedron_empty(k222):
    assert enumerate_avoiding_orders(k222, (MPT_PAT,)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_matches_brute_force(n):
    for g in all_graphs(n):
        fast = [o.perm for o in enumerate_avoiding_orders(g, (P1, P2))]
        brute = [p for p in permutations(range(1, n + 1))
                 if avoids_patterns(OrderedGraph(g, LinearOrder(p)), (P1, P2))]
        assert fast == brute


@pytest.mark.parametrize("n,samples", [(5, 12), (6, 4)])
def test_enumerate_matches_brute_force_sampled(n, samples):
    rng = random.Random(3)
    for _ in range(samples):
        edges = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < 0.5)
        g = Graph(n, edges)
        fast = [o.perm for o in enumerate_avoiding_orders(g, (P1, P2))]
        brute = [p for p in permutations(range(1, n + 1))
                 if avoids_patterns(OrderedGraph(g, LinearOrder(p)), (P1, P2))]
        assert fast == brute


def test_enumerate_dedupe_keeps_one_per_class(c4):
    full = enumerate_avoiding_orders(c4, (P1, P2))
    deduped = enumerate_avoiding_orders(c4, (P1, P2), dedupe_equivalence=True)
    assert len(deduped) < len(full)
    for i, a in enumerate(deduped):
        for b in deduped[i + 1:]:
            assert not orders_equivalent(a, b)
    # every avoiding order is equivalent to some representative
    for o in full:
        assert any(orders_equivalent(o, r) for r in deduped)


def test_enumerate_limit(c4):
    out = enumerate_avoiding_orders(c4, (P1, P2), limit=3)
    assert len(out) == 3
    assert out == enumerate_avoiding_orders(c4, (P1, P2))[:3]
    for dedupe in (False, True):
        assert enumerate_avoiding_orders(c4, (P1, P2), limit=0,
                                         dedupe_equivalence=dedupe) == []


def test_enumerate_bound():
    with pytest.raises(SearchBoundExceeded):
        enumerate_avoiding_orders(empty_graph(11), (P1,))
    assert enumerate_avoiding_orders(empty_graph(11), (P1,), limit=1,
                                     search_bound=11)


# ----------------------------------------------------------------------
# enumeration against brute force, every shipped pattern set
# ----------------------------------------------------------------------

PATTERN_SETS = ((P1, P2), (MPT_PAT,), (INT_PAT,))
#: (limit, dedupe_equivalence) combinations checked per graph.
ENUMERATION_MODES = ((None, False), (3, False), (None, True), (2, True))


def _brute_avoiding(g, pattern_sets) -> list:
    """Per pattern set, every permutation in lexicographic order that
    avoids it, each tested as a whole."""
    out = [[] for _ in pattern_sets]
    for perm in permutations(range(1, g.n + 1)):
        og = OrderedGraph(g, LinearOrder(perm))
        for found, patterns in zip(out, pattern_sets):
            if avoids_patterns(og, patterns):
                found.append(perm)
    return out


def _expected(avoiding, limit, dedupe) -> list:
    out, seen = [], set()
    for p in avoiding:
        if dedupe:
            key = min(q[i:] + q[:i] for q in (p, p[::-1]) for i in range(len(p)))
            if key in seen:
                continue
            seen.add(key)
        out.append(p)
    return out if limit is None else out[:limit]


def _check_enumeration(g, pattern_sets=PATTERN_SETS):
    for patterns, avoiding in zip(pattern_sets, _brute_avoiding(g, pattern_sets)):
        for limit, dedupe in ENUMERATION_MODES:
            fast = [o.perm for o in enumerate_avoiding_orders(
                g, patterns, limit=limit, dedupe_equivalence=dedupe)]
            assert fast == _expected(avoiding, limit, dedupe), \
                (sorted(g.edges), [p.name for p in patterns], limit, dedupe)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_differential_all_graphs(n):
    for g in all_graphs(n):
        _check_enumeration(g)


@pytest.mark.parametrize("p", [0.3, 0.6, 0.75])
def test_enumerate_differential_sampled_n7(p):
    rng = random.Random(f"enumerate-n7-{p}")
    pairs = list(combinations(range(1, 8), 2))
    for _ in range(2):
        _check_enumeration(Graph(7, frozenset(rng.sample(pairs, round(p * len(pairs))))))


def test_enumerate_differential_custom_patterns():
    # the forbidden-next mask rule is compiled from each pattern's pairs,
    # so arbitrary patterns (orders 1..5, pairs absent, several members
    # unrelated to the last) must match the brute force as well
    rng = random.Random(59)
    for _ in range(150):
        k = rng.randint(1, 5)
        comp, forb = set(), set()
        for pair in combinations(range(1, k + 1), 2):
            roll = rng.random()
            if roll < 0.3:
                comp.add(pair)
            elif roll < 0.6:
                forb.add(pair)
        pattern = Pattern(k, frozenset(comp), frozenset(forb))
        n = rng.randint(1, 6)
        edges = frozenset(pair for pair in combinations(range(1, n + 1), 2)
                          if rng.random() < 0.5)
        _check_enumeration(Graph(n, edges), ((pattern,), (pattern, INT_PAT)))
