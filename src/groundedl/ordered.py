"""Graphs, vertex orders, and forbidden ordered-pattern machinery.

Vertices are dense integers 1..n; external names are mapped at the
interface layer.  A pattern of order k constrains an induced ordered
subgraph through a set of compulsory edges and a set of forbidden edges;
an ordered graph contains the pattern if some strictly increasing tuple
of k order positions realizes every compulsory edge and no forbidden one.

One existence matcher on int-bitset adjacency (_completer) serves both
avoids_patterns, which walks a given order, and enumerate_avoiding_orders,
which grows orders and drops every prefix that an unplaced vertex would
complete an occurrence with.  find_pattern_occurrences lists occurrences
by brute force and is the reference the matcher is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


#: One shared tuple per pair of small vertex ids, so that graphs kept in
#: bulk hold references to these instead of copies of their own.
_PAIRS = {(u, v): (u, v) for v in range(2, 17) for u in range(1, v)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected simple graph on vertices 1..n.

    Edges are stored as a frozenset of (u, v) pairs with u < v; input
    pairs are normalized; non-int (or bool) endpoints, self-loops and
    out-of-range endpoints are rejected.
    """

    n: int
    edges: frozenset = frozenset()
    _bits: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        norm = set()
        for edge in self.edges:
            u, v = edge
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) outside 1..{self.n}")
            pair = (u, v) if u < v else (v, u)
            norm.add(_PAIRS.get(pair, pair))
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

    def _adjacency_bits(self) -> tuple:
        """Entry v is the int with bit u set for each neighbour u of v;
        built on first use and kept, so repeated matching on one graph
        pays for it once."""
        if self._bits is None:
            adj = [0] * (self.n + 1)
            for u, v in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            object.__setattr__(self, "_bits", tuple(adj))
        return self._bits


@dataclass(frozen=True, slots=True)
class LinearOrder:
    """A permutation of 1..n, listed from first (leftmost) to last."""

    perm: tuple

    def __post_init__(self) -> None:
        perm = self.perm
        if type(perm) is not tuple:
            perm = tuple(perm)
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


@dataclass(frozen=True, slots=True)
class OrderedGraph:
    """A graph together with a linear order on its vertices."""

    graph: Graph
    order: LinearOrder

    def __post_init__(self) -> None:
        if len(self.order.perm) != self.graph.n:
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

    @cached_property
    def _rule(self) -> tuple:
        return _pattern_rule(self)


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
    """True iff og contains none of the given patterns.

    Walks og's order once through the existence matcher that order
    enumeration uses (see _completer); find_pattern_occurrences stays
    the brute-force reference.
    """
    perm = og.order.perm
    before = [0] * (len(perm) + 1)
    completes = _completer(og.graph._adjacency_bits(), patterns, before)
    if completes is None:
        return False
    placed = 0
    rest = (1 << len(perm) + 1) - 2
    for u in perm:
        bit = 1 << u
        before[u] = placed
        rest ^= bit
        if rest and completes(u, rest):
            return False
        placed |= bit
    return True


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
    """Compile p into the steps that look for an occurrence ending at a
    given last member.

    With member k-1 fixed to a vertex u, the steps pick members 1..k-2
    among the vertices placed before u, those paired with k first so
    their adjacency narrows the candidates for k early, the others last,
    where only their existence matters.  Returns (k, link of (k-1, k),
    steps); a step is (member, nearest assigned member below, nearest
    above, links to assigned members, link to k, whether it is the last
    step), and a link is True for a compulsory pair, False for a
    forbidden one, None for no pair.
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
        steps.append((a, lower, upper, links, link.get((a, k)), len(assigned) == k - 2))
        assigned.add(a)
    return k, link.get((k - 1, k)), tuple(steps)


def _completer(adj, patterns, before):
    """The one pattern matcher: returns completes(u, rest), which is True
    iff some vertex of the bitset rest, taken as member k, completes an
    occurrence of a pattern whose member k-1 is u; or None if a pattern
    has order 1, since a single vertex realizes it.

    Vertices are bits of ints and adj[v] is v's neighbourhood.  The
    caller places vertices one by one and sets before[v] to the set
    placed ahead of v; members 1..k-2 are drawn from before[u], in
    order.  The search stops at the first occurrence found.  Every
    occurrence has exactly one member k-1, so asking once per placed
    vertex, with rest the vertices after it, finds every occurrence.
    """
    rules = []
    size = 1
    for p in patterns:
        if p.k == 1:
            return None
        if p.k > size:
            size = p.k
        rules.append(p._rule)
    x = [0] * size  # members by index

    def hit(steps, i, w):
        """Do members i.. of steps exist, with some w as member k?"""
        a, lower, upper, links, to_last, last = steps[i]
        cand = before[x[upper]]
        if lower:
            cand &= ~(before[x[lower]] | 1 << x[lower])
        for b, want in links:
            cand &= adj[x[b]] if want else ~adj[x[b]]
        if last and to_last is None:
            return cand != 0  # w is never empty here
        while cand:
            low = cand & -cand
            cand ^= low
            x[a] = c = low.bit_length() - 1
            h = w if to_last is None else w & (adj[c] if to_last else ~adj[c])
            if h and (last or hit(steps, i + 1, h)):
                return True
        return False

    def completes(u: int, rest: int) -> bool:
        ahead = before[u].bit_count()
        for k, to_last, steps in rules:
            if ahead < k - 2:
                continue  # too few vertices ahead of u for members 1..k-2
            w = rest if to_last is None else rest & (adj[u] if to_last else ~adj[u])
            if w:
                if not steps:
                    return True
                x[k - 1] = u
                if hit(steps, 0, w):
                    return True
        return False

    return completes


def _avoiding_perms(g: Graph, patterns, accept) -> None:
    """Pass each order of g avoiding every pattern, lexicographically, to
    accept(perm) until it returns False.

    Appending u to a prefix asks the matcher whether some unplaced vertex
    completes an occurrence whose member k-1 is u.  If one does, the
    prefix is dead: a pattern constrains only the relative order of its
    members, so that vertex completes the occurrence wherever it comes
    later.  So only live prefixes are extended, every unplaced vertex is
    a valid next one, and a child costs no test of its own.
    """
    n = g.n
    before = [0] * (n + 1)  # vertices placed before v, while v is placed
    completes = _completer(g._adjacency_bits(), patterns, before)
    if completes is None:
        return
    perm: list = []

    def extend(placed: int, unplaced: int) -> bool:
        cand = unplaced
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            before[u] = placed
            perm.append(u)
            rest = unplaced ^ low
            if not rest:
                if not accept(tuple(perm)):
                    return False
            elif not completes(u, rest) and not extend(placed | low, rest):
                return False
            perm.pop()
        return True

    extend(0, (1 << n + 1) - 2)


def enumerate_avoiding_orders(g: Graph, patterns, limit: int | None = None,
                              dedupe_equivalence: bool = False,
                              search_bound: int = 10) -> list[LinearOrder]:
    """All (or up to limit) orders of g avoiding every pattern, lexicographic.

    Backtracks over prefixes with int-bitset adjacency.  Appending a
    vertex runs one existence search, for occurrences in which that
    vertex is the second-to-last member and some unplaced vertex the
    last; a prefix with one is dead and is not extended, so no prefix is
    rescanned and no child needs a test of its own.  The search is
    compiled from each pattern's compulsory and forbidden pairs, so
    custom patterns take the same path.  With
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
