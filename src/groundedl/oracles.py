"""Exact feasibility oracles for fixed vertex orders and class recognition.

lj_feasible decides whether an ordered graph has a grounded {L, J}
representation inducing exactly its order; the continuous question is
reduced to the finite combinatorial model in ljmodel.  Type vectors are
walked depth-first in product order while the rank inequalities that the
decided edges force are kept as a live transitive closure, so a type
prefix is cut as soon as an edge has no route or the forced inequalities
are cyclic.  The depth ranks of the first feasible vector come from a
backtracking search that re-checks only the edges touching the newly
ranked position and forward-checks half-assigned inequalities against
the unused ranks.  recognize drives the order search for a whole class;
for GROUNDED_LJ it tries the least order of each shift/reversal class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .builders import build_grounded_l, build_mpt, realize_lj
from .geometry import Representation, verify
from .ljmodel import LjCertificate, greedy_cutoffs
from .ordered import (INT_PAT, MPT_PAT, P1, P2, Graph, LinearOrder,
                      OrderedGraph, SearchBoundExceeded,
                      enumerate_avoiding_orders)

__all__ = [
    "LjCertificate",
    "RecognitionResult",
    "lj_feasible",
    "recognize",
    "CLASS_GROUNDED_L",
    "CLASS_MPT",
    "CLASS_INTERVAL",
    "CLASS_GROUNDED_LJ",
]

CLASS_GROUNDED_L = "GROUNDED_L"
CLASS_MPT = "MPT"
CLASS_INTERVAL = "INTERVAL"
CLASS_GROUNDED_LJ = "GROUNDED_LJ"

_TYPE_ORDER = {"L": 0, "J": 1}


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of class recognition; membership always carries a witness."""

    member: bool
    order: LinearOrder | None = None
    representation: Representation | None = None
    budget_exhausted: bool = False


def _edge_routes(pos_edges, n: int, allowed) -> list:
    """Per position j, the edges (i, j) with i < j and their two routes.

    A route is a tuple of (a, b) pairs meaning rank_a < rank_b.  Edge
    (i, j) can be covered by i's rightward horizontal (needs type_i = L,
    rank_i < rank_j, and every skipped non-neighbor shallower than i) or
    by j's leftward horizontal (needs type_j = J, symmetric), so which
    routes it has is known once position j has a type.  A route whose
    type is not allowed is left out as None.
    """
    by_last = [[] for _ in range(n + 1)]
    for i, j in sorted(pos_edges):
        l_route = j_route = None
        if "L" in allowed:
            l_route = ((i, j), *[(k, i) for k in range(i + 1, j)
                                 if (i, k) not in pos_edges])
        if "J" in allowed:
            j_route = ((j, i), *[(k, j) for k in range(i + 1, j)
                                 if (k, j) not in pos_edges])
        by_last[j].append((i, l_route, j_route))
    return by_last


def _force(reach: list, route) -> bool:
    """Add route's inequalities to the transitive closure reach, where
    bit b of reach[a] means rank_a < rank_b is forced; False on a cycle."""
    for a, b in route:
        if reach[b] >> a & 1:
            return False
        if not reach[a] >> b & 1:
            gain = 1 << b | reach[b]
            for x in range(1, len(reach)):
                if x == a or reach[x] >> a & 1:
                    reach[x] |= gain
    return True


def _propagate(reach: list, pending):
    """Force the only live route of each two-route edge until nothing
    changes; a route is dead once the closure reverses one of its pairs.
    Returns the edges still open (both routes live, neither forced), or
    None if some edge lost both routes."""
    changed = True
    while changed:
        changed = False
        still = []
        for routes in pending:
            live = [r for r in routes if not any(reach[b] >> a & 1 for a, b in r)]
            if not live:
                return None
            if len(live) == 1:
                if not _force(reach, live[0]):
                    return None
                changed = True
            elif not any(all(reach[a] >> b & 1 for a, b in r) for r in live):
                still.append(routes)
        pending = still
    return pending


def _routes_choosable(reach: list, pending) -> bool:
    """True iff each open edge can take a route with the forced pairs and
    all chosen pairs acyclic, i.e. some rank vector satisfies them all."""
    pending = _propagate(reach, pending)
    if pending is None:
        return False
    if not pending:
        return True
    for route in pending[0]:
        trial = reach[:]
        if _force(trial, route) and _routes_choosable(trial, pending[1:]):
            return True
    return False


def _first_types(n: int, by_last, allowed):
    """First type vector in product order (L before J) with a feasible
    rank vector, or None.

    Walks type vectors depth-first.  Giving position t its type decides
    the routes of every edge (i, t): an edge with no route prunes the
    whole subtree, an edge with one route forces its pairs into a live
    transitive closure, and unit propagation over the two-route edges
    prunes as soon as the forced pairs contain a cycle.  At a full vector
    the remaining two-route edges are decided by a route-choice search.
    """
    types = [""] * (n + 1)

    def walk(t: int, reach: list, pending) -> bool:
        if t > n:
            return _routes_choosable(reach, pending)
        for ty in allowed:
            types[t] = ty
            trial = reach[:]
            still = list(pending)
            for i, l_route, j_route in by_last[t]:
                if types[i] == "L" and ty == "J":
                    still.append((l_route, j_route))
                elif types[i] == "L" or ty == "J":
                    if not _force(trial, l_route if ty == "L" else j_route):
                        break
                else:
                    break
            else:
                still = _propagate(trial, still)
                if still is not None and walk(t + 1, trial, still):
                    return True
        return False

    if walk(1, [0] * (n + 1), []):
        return tuple(types[1:])
    return None


def _lex_min_ranks(n: int, types, by_last):
    """Lexicographically least rank vector under which every edge has a
    route; types must admit one.

    Ranks are given to positions 1, 2, ... in increasing value.  A new
    rank re-checks only the edges whose routes touch its position, and
    forward-checks their half-assigned pairs: rank_a < rank_b fails if a
    is ranked above every unused rank, or b below every unused rank.
    Both tests only cut subtrees without solutions, so the first leaf is
    the lexicographically least solution.
    """
    watch = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i, l_route, j_route in by_last[j]:
            routes = ((l_route,) if types[i - 1] == "L" else ()) + \
                ((j_route,) if types[j - 1] == "J" else ())
            touched = {p for r in routes for pair in r for p in pair}
            for p in touched:
                watch[p].append(routes)
    rank = [0] * (n + 1)  # 0 = unassigned

    def alive(routes, lo: int, hi: int) -> bool:
        for route in routes:
            for a, b in route:
                ra, rb = rank[a], rank[b]
                if ra:
                    if ra > (rb or hi):
                        break
                elif rb and rb < lo:
                    break
            else:
                return True
        return False

    def bt(pos: int, free: int) -> bool:
        if pos > n:
            return True
        cand = free
        while cand:
            low = cand & -cand
            cand ^= low
            rest = free ^ low
            rank[pos] = low.bit_length() - 1
            lo = (rest & -rest).bit_length() - 1
            hi = rest.bit_length() - 1
            for routes in watch[pos]:
                if not alive(routes, lo, hi):
                    break
            else:
                if bt(pos + 1, rest):
                    return True
        rank[pos] = 0
        return False

    if not bt(1, (1 << n + 1) - 2):
        raise AssertionError(f"type vector {types} has no rank vector")
    return tuple(rank[1:])


def lj_feasible(og: OrderedGraph, allowed=("L", "J"),
                search_bound: int = 9) -> LjCertificate | None:
    """First certificate, by (type vector, rank vector) lexicographic order
    with L before J, for a grounded {L, J} representation inducing og's
    order; None when no such representation exists.

    The type vector is found by a depth-first walk in product order that
    keeps the rank inequalities forced so far as a transitive closure and
    prunes a type prefix as soon as a decided edge has no route or the
    forced inequalities form a cycle.  Its ranks then come from a
    backtracking search that re-checks only the edges touching the newly
    ranked position and forward-checks half-assigned pairs against the
    smallest and largest unused rank.  Every cut is sound, so the result
    equals the first hit of the plain search over all type vectors and
    rank permutations.
    """
    if not allowed or set(allowed) - {"L", "J"}:
        raise ValueError("allowed types must be a nonempty subset of {L, J}")
    allowed = sorted(set(allowed), key=_TYPE_ORDER.__getitem__)
    n = og.n
    if n > search_bound:
        raise SearchBoundExceeded(f"graph order {n} exceeds bound {search_bound}")
    pos_edges = og.position_edges()
    by_last = _edge_routes(pos_edges, n, allowed)
    types = _first_types(n, by_last, allowed)
    if types is None:
        return None
    ranks = _lex_min_ranks(n, types, by_last)
    cuts = greedy_cutoffs(types, ranks, pos_edges, n)
    return LjCertificate(types, ranks, cuts)


def _dedup_orders(n: int):
    """One order per shift/reversal equivalence class, lexicographically:
    the least member of a class starts at 1 and, for n >= 3, has its
    second entry below its last."""
    for rest in permutations(range(2, n + 1)):
        if n < 3 or rest[0] < rest[-1]:
            yield (1,) + rest


def recognize(g: Graph, class_id: str, budget: int | None = None,
              search_bound: int = 9) -> RecognitionResult:
    """Decide class membership by searching vertex orders.

    Pattern-characterized classes enumerate avoiding orders and, where a
    geometric builder exists, verify the built witness.  GROUNDED_LJ runs
    the feasibility oracle on one order per equivalence class (membership
    is invariant under shifts and reversal of the induced order); budget
    caps the number of classes tried and exhaustion is reported, not
    thrown.
    """
    if class_id in (CLASS_GROUNDED_L, CLASS_MPT, CLASS_INTERVAL):
        patterns = {CLASS_GROUNDED_L: (P1, P2), CLASS_MPT: (MPT_PAT,),
                    CLASS_INTERVAL: (INT_PAT,)}[class_id]
        found = enumerate_avoiding_orders(g, patterns, limit=1,
                                          search_bound=search_bound)
        if not found:
            return RecognitionResult(member=False)
        order = found[0]
        og = OrderedGraph(g, order)
        if class_id == CLASS_INTERVAL:
            # no geometric interval builder; the avoiding order is the witness
            return RecognitionResult(member=True, order=order)
        rep = build_grounded_l(og) if class_id == CLASS_GROUNDED_L else build_mpt(og)
        report = verify(rep, og)
        if not report.ok:
            raise AssertionError(f"builder output failed verification: {report}")
        return RecognitionResult(member=True, order=order, representation=rep)

    if class_id == CLASS_GROUNDED_LJ:
        tried = 0
        for perm in _dedup_orders(g.n):
            if budget is not None and tried >= budget:
                return RecognitionResult(member=False, budget_exhausted=True)
            tried += 1
            og = OrderedGraph(g, LinearOrder(perm))
            cert = lj_feasible(og, ("L", "J"), search_bound=search_bound)
            if cert is not None:
                rep = realize_lj(cert, og)
                report = verify(rep, og)
                if not report.ok:
                    raise AssertionError(f"certificate realization failed: {report}")
                return RecognitionResult(member=True, order=og.order,
                                         representation=rep)
        return RecognitionResult(member=False)

    raise ValueError(f"unknown class id {class_id!r}")
