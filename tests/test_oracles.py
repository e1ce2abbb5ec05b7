from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from groundedl import (CLASS_GROUNDED_L, CLASS_GROUNDED_LJ, CLASS_INTERVAL,
                       CLASS_MPT, Graph, LinearOrder, OrderedGraph,
                       SearchBoundExceeded, avoids_patterns, cycle_graph,
                       empty_graph, lj_feasible, path_graph, realize_lj,
                       recognize, verify, is_one_string,
                       P1, P2)
from groundedl.ljmodel import certificate_edges, greedy_cutoffs
from conftest import all_graphs, natural


# ----------------------------------------------------------------------
# lj_feasible
# ----------------------------------------------------------------------

def test_gadget_l_only_absent(gadget_i):
    assert lj_feasible(gadget_i, ("L",)) is None


def test_gadget_lj_first_certificate(gadget_i):
    cert = lj_feasible(gadget_i, ("L", "J"))
    assert cert.types == ("L", "L", "J", "L")
    assert cert.depth_ranks == (2, 3, 1, 4)
    rep = realize_lj(cert, gadget_i)
    assert verify(rep, gadget_i).ok and is_one_string(rep)


def test_single_edge_certificate():
    og = natural(Graph(2, frozenset({(1, 2)})))
    cert = lj_feasible(og, ("L",))
    assert cert.types == ("L", "L") and cert.depth_ranks == (1, 2)


def test_lj_feasible_bound():
    with pytest.raises(SearchBoundExceeded):
        lj_feasible(natural(empty_graph(10)), ("L", "J"))


def test_lj_feasible_rejects_bad_types(gadget_i):
    with pytest.raises(ValueError):
        lj_feasible(gadget_i, ())
    with pytest.raises(ValueError):
        lj_feasible(gadget_i, ("L", "X"))


def test_c5_cyclic_order_infeasible_even_with_both_types():
    # a cycle whose anchors follow the cyclic order cannot be drawn with
    # one-bend shapes; this underpins the cycle-extension anchor layout
    og = natural(cycle_graph(5))
    assert lj_feasible(og, ("L", "J")) is None
    twisted = OrderedGraph(cycle_graph(5), LinearOrder((1, 2, 3, 5, 4)))
    assert lj_feasible(twisted, ("L", "J")) is not None


def test_l_feasible_iff_avoids_patterns_n4():
    for g in all_graphs(4):
        for perm in permutations(range(1, 5)):
            og = OrderedGraph(g, LinearOrder(perm))
            assert (lj_feasible(og, ("L",)) is not None) == \
                avoids_patterns(og, (P1, P2))


def test_certificates_realize_sampled_n6_n7():
    rng = random.Random(31)
    found = 0
    for n in (6, 7):
        for _ in range(10):
            edges = frozenset((u, v) for u in range(1, n + 1)
                              for v in range(u + 1, n + 1) if rng.random() < 0.35)
            og = natural(Graph(n, edges))
            cert = lj_feasible(og, ("L", "J"))
            if cert is None:
                continue
            found += 1
            rep = realize_lj(cert, og)
            assert verify(rep, og).ok and is_one_string(rep)
    assert found >= 5


def _brute_lj(og, allowed):
    """Reference search: type vectors in product order (L before J), rank
    vectors in permutations order; the first pair under which every edge
    has a route, with its greedy cutoffs."""
    n = og.n
    pos_edges = og.position_edges()

    def covered(types, r, i, j):
        skipped = range(i + 1, j)
        return ((types[i - 1] == "L" and r[i - 1] < r[j - 1]
                 and all(r[k - 1] < r[i - 1] for k in skipped if (i, k) not in pos_edges))
                or (types[j - 1] == "J" and r[j - 1] < r[i - 1]
                    and all(r[k - 1] < r[j - 1] for k in skipped if (k, j) not in pos_edges)))

    for types in product([t for t in "LJ" if t in allowed], repeat=n):
        if any(types[i - 1] == "J" and types[j - 1] == "L" for i, j in pos_edges):
            continue  # that edge has no route under any ranks
        for ranks in permutations(range(1, n + 1)):
            if all(covered(types, ranks, i, j) for i, j in pos_edges):
                return types, ranks, greedy_cutoffs(types, ranks, pos_edges, n)
    return None


def _check_lj(og):
    for allowed in (("L",), ("L", "J")):
        cert = lj_feasible(og, allowed)
        got = None if cert is None else (cert.types, cert.depth_ranks, cert.cutoffs)
        assert got == _brute_lj(og, allowed), (sorted(og.position_edges()), allowed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lj_feasible_differential_all_ordered_graphs(n):
    # with the natural order, every labelled graph is one ordered graph
    for g in all_graphs(n):
        _check_lj(natural(g))


@pytest.mark.parametrize("p", [0.3, 0.6, 0.85])
def test_lj_feasible_differential_sampled_n7(p):
    rng = random.Random(f"lj-n7-{p}")
    pairs = list(combinations(range(1, 8), 2))
    for _ in range(6):
        _check_lj(natural(Graph(7, frozenset(rng.sample(pairs, round(p * len(pairs)))))))


# ----------------------------------------------------------------------
# greedy-cutoff completeness
# ----------------------------------------------------------------------

def _feasible_with_any_cutoffs(types, ranks, pos_edges, n):
    """Literal exhaustive check over all cutoff vectors."""
    choice_sets = []
    for i in range(1, n + 1):
        if types[i - 1] == "L":
            choice_sets.append(range(i, n + 1))
        else:
            choice_sets.append(range(1, i + 1))
    for cuts in product(*choice_sets):
        realized = set()
        ok = True
        for i in range(1, n + 1):
            if types[i - 1] == "L":
                partners = ((i, j) for j in range(i + 1, cuts[i - 1] + 1)
                            if ranks[j - 1] > ranks[i - 1])
            else:
                partners = ((j, i) for j in range(cuts[i - 1], i)
                            if ranks[j - 1] > ranks[i - 1])
            for e in partners:
                if e not in pos_edges:
                    ok = False
                    break
                realized.add(e)
            if not ok:
                break
        if ok and realized == set(pos_edges):
            return True
    return False


def _feasible_with_greedy(types, ranks, pos_edges, n):
    cuts = greedy_cutoffs(types, ranks, pos_edges, n)
    from groundedl.ljmodel import LjCertificate
    return certificate_edges(LjCertificate(types, ranks, cuts)) == pos_edges


@pytest.mark.parametrize("n", [2, 3])
def test_greedy_cutoffs_complete_exhaustive(n):
    for g in all_graphs(n):
        og = natural(g)
        pos_edges = og.position_edges()
        for types in product("LJ", repeat=n):
            for ranks in permutations(range(1, n + 1)):
                assert _feasible_with_greedy(types, ranks, pos_edges, n) == \
                    _feasible_with_any_cutoffs(types, ranks, pos_edges, n)


def test_greedy_cutoffs_complete_sampled_n4():
    rng = random.Random(41)
    for _ in range(60):
        edges = frozenset((u, v) for u in range(1, 5)
                          for v in range(u + 1, 5) if rng.random() < 0.5)
        og = natural(Graph(4, edges))
        pos_edges = og.position_edges()
        types = tuple(rng.choice("LJ") for _ in range(4))
        ranks = tuple(rng.sample(range(1, 5), 4))
        assert _feasible_with_greedy(types, ranks, pos_edges, 4) == \
            _feasible_with_any_cutoffs(types, ranks, pos_edges, 4)


# ----------------------------------------------------------------------
# recognize
# ----------------------------------------------------------------------

def test_recognize_c4_grounded_l(c4):
    res = recognize(c4, CLASS_GROUNDED_L)
    assert res.member
    assert res.order.perm == (1, 2, 4, 3)
    assert verify(res.representation, OrderedGraph(c4, res.order)).ok


def test_recognize_c4_mpt_member_interval_nonmember(c4):
    assert recognize(c4, CLASS_MPT).member
    res = recognize(c4, CLASS_INTERVAL)
    assert not res.member and res.order is None


def test_recognize_path_interval():
    res = recognize(path_graph(4), CLASS_INTERVAL)
    assert res.member and res.representation is None


def test_recognize_octahedron_not_mpt(k222):
    assert not recognize(k222, CLASS_MPT).member


def test_recognize_unknown_class(c4):
    with pytest.raises(ValueError):
        recognize(c4, "SOMETHING")


def test_recognize_lj_budget():
    c5 = cycle_graph(5)
    full = recognize(c5, CLASS_GROUNDED_LJ)
    assert full.member and not full.budget_exhausted
    capped = recognize(c5, CLASS_GROUNDED_LJ, budget=1)
    assert not capped.member and capped.budget_exhausted


def test_recognize_lj_pruning_matches_unpruned():
    rng = random.Random(47)
    graphs = [cycle_graph(5), cycle_graph(4)]
    for _ in range(6):
        n = rng.randint(2, 5)
        edges = frozenset((u, v) for u in range(1, n + 1)
                          for v in range(u + 1, n + 1) if rng.random() < 0.5)
        graphs.append(Graph(n, edges))
    for g in graphs:
        pruned = recognize(g, CLASS_GROUNDED_LJ).member
        unpruned = any(
            lj_feasible(OrderedGraph(g, LinearOrder(p)), ("L", "J")) is not None
            for p in permutations(range(1, g.n + 1)))
        assert pruned == unpruned


def test_grounded_l_member_implies_lj_member():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 5)
        edges = frozenset((u, v) for u in range(1, n + 1)
                          for v in range(u + 1, n + 1) if rng.random() < 0.5)
        g = Graph(n, edges)
        if recognize(g, CLASS_GROUNDED_L).member:
            assert recognize(g, CLASS_GROUNDED_LJ).member
