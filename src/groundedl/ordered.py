"""Graphs, vertex orders, and forbidden ordered-pattern machinery.

Vertices are dense integers 1..n; external names are mapped at the
interface layer.  A pattern of order k constrains an induced ordered
subgraph through a set of compulsory edges and a set of forbidden edges;
an ordered graph contains the pattern if some strictly increasing tuple
of k order positions realizes every compulsory edge and no forbidden one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "Graph",
    "LinearOrder",
    "OrderedGraph",
    "Pattern",
    "PatternMatch",
    "SearchBoundExceeded",
    "P1",
    "P2",
    "MPT_PAT",
    "INT_PAT",
    "find_pattern_occurrences",
    "avoids_patterns",
    "orders_equivalent",
    "order_transforms",
    "canonical_order_key",
    "enumerate_avoiding_orders",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "empty_graph",
    "complete_multipartite",
]


class SearchBoundExceeded(ValueError):
    """An exhaustive search was asked to exceed its configured vertex bound."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n.

    Edges are stored as a frozenset of (u, v) pairs with u < v; input
    pairs are normalized, self-loops and out-of-range endpoints rejected.
    """

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        norm = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) outside 1..{self.n}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of 1..n, listed from first (leftmost) to last."""

    perm: tuple

    def __post_init__(self) -> None:
        perm = tuple(self.perm)
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")

    def __len__(self) -> int:
        return len(self.perm)

    def position(self, v: int) -> int:
        """1-based position of vertex v."""
        return self.perm.index(v) + 1

    def positions(self) -> dict[int, int]:
        return {v: i + 1 for i, v in enumerate(self.perm)}

    def reversed(self) -> "LinearOrder":
        return LinearOrder(tuple(reversed(self.perm)))


@dataclass(frozen=True)
class OrderedGraph:
    """A graph together with a linear order on its vertices."""

    graph: Graph
    order: LinearOrder

    def __post_init__(self) -> None:
        if len(self.order) != self.graph.n:
            raise ValueError("order length differs from vertex count")

    @property
    def n(self) -> int:
        return self.graph.n

    def position_edges(self) -> frozenset:
        """Edge set rewritten in order positions, pairs (i, j) with i < j."""
        pos = self.order.positions()
        out = set()
        for u, v in self.graph.edges:
            i, j = pos[u], pos[v]
            out.add((i, j) if i < j else (j, i))
        return frozenset(out)

    def vertex_at(self, position: int) -> int:
        return self.order.perm[position - 1]


@dataclass(frozen=True)
class Pattern:
    """Ordered pattern: k positions, compulsory and forbidden edge pairs."""

    k: int
    compulsory: frozenset
    forbidden: frozenset
    name: str = ""

    def __post_init__(self) -> None:
        comp = frozenset(tuple(sorted(p)) for p in self.compulsory)
        forb = frozenset(tuple(sorted(p)) for p in self.forbidden)
        object.__setattr__(self, "compulsory", comp)
        object.__setattr__(self, "forbidden", forb)
        if self.k < 1:
            raise ValueError("pattern order must be positive")
        for a, b in comp | forb:
            if not (1 <= a < b <= self.k):
                raise ValueError(f"pair ({a}, {b}) outside 1..{self.k}")
        if comp & forb:
            raise ValueError("compulsory and forbidden sets overlap")


#: Crossing pair with two left non-neighbors of the inner-left vertex.
P1 = Pattern(4, frozenset({(1, 3), (2, 4)}), frozenset({(1, 2), (2, 3)}), name="P1")
#: Nested fan whose middle chord is missing.
P2 = Pattern(4, frozenset({(1, 2), (1, 4), (2, 3)}), frozenset({(1, 3)}), name="P2")
#: Crossing pair whose middle pair is a non-edge (max point-tolerance orders).
MPT_PAT = Pattern(4, frozenset({(1, 3), (2, 4)}), frozenset({(2, 3)}), name="MPT")
#: Right-endpoint interval condition: an edge may not jump over a later non-edge.
INT_PAT = Pattern(3, frozenset({(1, 3)}), frozenset({(2, 3)}), name="INT")


@dataclass(frozen=True)
class PatternMatch:
    """Strictly increasing order positions witnessing a pattern occurrence."""

    positions: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))


def find_pattern_occurrences(og: OrderedGraph, pattern: Pattern,
                             limit: int | None = None) -> list[PatternMatch]:
    """All (or up to limit) position tuples of og realizing the pattern.

    Output is deterministic: tuples appear in lexicographic order.
    """
    if limit is not None and limit <= 0:
        return []
    pos_edges = og.position_edges()
    out: list[PatternMatch] = []
    for combo in combinations(range(1, og.n + 1), pattern.k):
        ok = True
        for a, b in pattern.compulsory:
            if (combo[a - 1], combo[b - 1]) not in pos_edges:
                ok = False
                break
        if ok:
            for a, b in pattern.forbidden:
                if (combo[a - 1], combo[b - 1]) in pos_edges:
                    ok = False
                    break
        if ok:
            out.append(PatternMatch(combo))
            if limit is not None and len(out) >= limit:
                break
    return out


def avoids_patterns(og: OrderedGraph, patterns) -> bool:
    """True iff og contains none of the given patterns."""
    return all(not find_pattern_occurrences(og, p, limit=1) for p in patterns)


def order_transforms(perm: tuple) -> list[tuple]:
    """The 2n orders reachable from perm by cyclic shifts and reversal."""
    n = len(perm)
    rev = tuple(reversed(perm))
    out = []
    for k in range(n):
        out.append(perm[k:] + perm[:k])
        out.append(rev[k:] + rev[:k])
    return out


def canonical_order_key(perm: tuple) -> tuple:
    """Lexicographically least transform; constant on equivalence classes."""
    return min(order_transforms(tuple(perm)))


def orders_equivalent(a: LinearOrder, b: LinearOrder) -> bool:
    """True iff b arises from a by cyclic shifts and/or reversal."""
    if len(a) != len(b):
        raise ValueError("orders have different lengths")
    return b.perm in set(order_transforms(a.perm))


def _pattern_rule(p: Pattern):
    """Compile p into the steps that extend a forbidden-next mask.

    When vertex u is appended to a prefix, every occurrence of p whose
    member k-1 is u and whose members 1..k-2 lie earlier in the prefix
    forbids, as the next vertex anywhere later, each w that realizes the
    pairs (a, k).  Returns (k, link of (k-1, k), steps): one step per
    member 1..k-2, those paired with k first so their masks narrow the
    candidate w early, the others last, where only their existence
    matters.  A step is (member, nearest assigned member below, nearest
    above, links to assigned members, link to k); a link is True for a
    compulsory pair, False for a forbidden one, None for no pair.
    """
    link = dict.fromkeys(p.compulsory, True) | dict.fromkeys(p.forbidden, False)
    k = p.k
    assigned = {k - 1}
    steps = []
    for a in sorted(range(1, k - 1), key=lambda a: ((a, k) not in link, a)):
        lower = max((b for b in assigned if b < a), default=0)
        upper = min(b for b in assigned if b > a)
        links = tuple((b, link[min(a, b), max(a, b)]) for b in sorted(assigned)
                      if (min(a, b), max(a, b)) in link)
        steps.append((a, lower, upper, links, link.get((a, k))))
        assigned.add(a)
    return k, link.get((k - 1, k)), tuple(steps)


def _avoiding_perms(g: Graph, patterns, accept) -> None:
    """Pass each order of g avoiding every pattern, lexicographically, to
    accept(perm) until it returns False.

    Vertices are bits of ints.  Each prefix carries the mask of vertices
    that may come next: unplaced, and not completing an occurrence when
    appended.  Appending u narrows it once, by the vertices that complete
    an occurrence whose member k-1 is u (see _pattern_rule), so a child
    costs one bit test.  Sound and complete because a pattern constrains
    only the induced ordered subgraph of its members.
    """
    n = g.n
    if any(p.k == 1 for p in patterns):
        return  # a single vertex realizes it
    adj = [0] * (n + 1)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    rules = [_pattern_rule(p) for p in patterns]
    before = [0] * (n + 1)  # vertices placed before v, while v is placed
    x = [0] * max((p.k for p in patterns), default=1)  # members by index

    def grow(steps, i, w):
        """The part of w that completes an occurrence with members x[..]."""
        a, lower, upper, links, to_last = steps[i]
        cand = before[x[upper]]
        if lower:
            cand &= ~(before[x[lower]] | 1 << x[lower])
        for b, want in links:
            cand &= adj[x[b]] if want else ~adj[x[b]]
        last = i + 1 == len(steps)
        found = 0
        while cand:
            low = cand & -cand
            cand ^= low
            x[a] = c = low.bit_length() - 1
            if to_last is None:  # only existence matters from here on
                if last or grow(steps, i + 1, w):
                    return w
                continue
            h = w & ~found & (adj[c] if to_last else ~adj[c])
            if h:
                found |= h if last else grow(steps, i + 1, h)
        return found

    perm: list = []

    def extend(placed: int, allowed: int) -> bool:
        cand = allowed
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            before[u] = placed
            perm.append(u)
            if len(perm) == n:
                if not accept(tuple(perm)):
                    return False
            else:
                rest = allowed ^ low
                for k, to_last, steps in rules:
                    w = rest
                    if to_last is not None:
                        w &= adj[u] if to_last else ~adj[u]
                    if w and steps:
                        x[k - 1] = u
                        w = grow(steps, 0, w)
                    rest &= ~w
                if rest and not extend(placed | low, rest):
                    return False
            perm.pop()
        return True

    extend(0, (1 << n + 1) - 2)


def enumerate_avoiding_orders(g: Graph, patterns, limit: int | None = None,
                              dedupe_equivalence: bool = False,
                              search_bound: int = 10) -> list[LinearOrder]:
    """All (or up to limit) orders of g avoiding every pattern, lexicographic.

    Backtracks over prefixes with int-bitset adjacency.  Each prefix
    carries the mask of vertices that may be placed next without
    completing an occurrence; appending a vertex narrows it once, from
    the occurrences in which that vertex is the second-to-last member,
    so a child is rejected by one bit test and no prefix is rescanned.
    The rule is compiled from each pattern's compulsory and forbidden
    pairs, so custom patterns take the same path.  With
    dedupe_equivalence, keeps the lexicographically first avoiding order
    of each shift/reversal equivalence class.  A limit of 0 or less
    returns no orders.
    """
    if g.n > search_bound:
        raise SearchBoundExceeded(f"graph order {g.n} exceeds bound {search_bound}")
    out: list[LinearOrder] = []
    if limit is not None and limit <= 0:
        return out
    seen: set = set()

    def accept(perm: tuple) -> bool:
        if dedupe_equivalence:
            key = canonical_order_key(perm)
            if key in seen:
                return True
            seen.add(key)
        out.append(LinearOrder(perm))
        return limit is None or len(out) < limit

    _avoiding_perms(g, tuple(patterns), accept)
    return out


# ----------------------------------------------------------------------
# Small-graph constructors used throughout the tests and CLI examples.
# ----------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())

def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))

def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return Graph(n, frozenset(edges))

def complete_multipartite(*sizes: int) -> Graph:
    n = sum(sizes)
    part = []
    v = 1
    for s in sizes:
        part.append(list(range(v, v + s)))
        v += s
    edges = set()
    for i in range(len(part)):
        for j in range(i + 1, len(part)):
            for u in part[i]:
                for w in part[j]:
                    edges.add((u, w))
    return Graph(n, frozenset(edges))
