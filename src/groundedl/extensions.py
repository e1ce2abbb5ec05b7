"""Cycle extensions, geometric extension of {L, J} representations,
order/representation combinators, and the separation-gadget registry.

A cycle extension of an ordered graph on n vertices attaches a cycle of
length 5n so that the i-th vertex in the order is adjacent to cycle
vertex 5i (single mode) or to 5i-1 and 5i (double mode) and to nothing
else on the cycle.  In any grounded 1-string representation of the
extension, the induced order of the original vertices is forced up to
cyclic shifts and reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .geometry import (GROUNDED_L, GROUNDED_LJ, GROUNDED_SEG,
                       GROUNDED_STRING, JShape, LShape, Representation,
                       _map_shape, induced_order, verify)
from .ordered import (MPT_PAT, P1, P2, Graph, LinearOrder, OrderedGraph,
                      avoids_patterns, find_pattern_occurrences)

__all__ = [
    "CycleExtension",
    "ConstructionFailed",
    "cycle_extension",
    "extend_lj_representation",
    "mirror_ordered",
    "concat_ordered",
    "mirror_representation",
    "concat_representations",
    "GadgetRecord",
    "Claim",
    "gadget",
    "GADGET_IDS",
    "run_gadget_checks",
    "search_completions",
]

HALF = Fraction(1, 2)


class ConstructionFailed(RuntimeError):
    """The geometric extension scheme produced an invalid representation."""


@dataclass(frozen=True)
class CycleExtension:
    """Graph H on 6n vertices: positions 1..n of the ordered core plus a
    5n-cycle with ids n+1 .. n+5n (cycle vertex j has id n+j)."""

    h: Graph
    n: int
    g_vertices: tuple
    cycle_vertices: tuple
    attachment: tuple

    def cycle_id(self, j: int) -> int:
        """Graph id of cycle vertex j (1-based along the cycle)."""
        return self.n + j


def _attachment_modes(n: int, attachment) -> tuple:
    if isinstance(attachment, str):
        modes = (attachment,) * n
    else:
        modes = tuple(attachment)
    if len(modes) != n or set(modes) - {"single", "double"}:
        raise ValueError("attachment must give 'single' or 'double' per vertex")
    return modes


def cycle_extension(og: OrderedGraph, attachment="single") -> CycleExtension:
    """Build the cycle extension of (G, <) with the given attachment modes.

    Core vertices are relabeled by order position (position i becomes
    id i), so the extension depends on the ordered graph, not on the
    original labels.
    """
    n = og.n
    modes = _attachment_modes(n, attachment)
    m = 5 * n
    edges = set(og.position_edges())
    for j in range(1, m):
        edges.add((n + j, n + j + 1))
    edges.add((n + 1, n + m))
    for i in range(1, n + 1):
        edges.add(tuple(sorted((i, n + 5 * i))))
        if modes[i - 1] == "double":
            edges.add(tuple(sorted((i, n + 5 * i - 1))))
    h = Graph(6 * n, frozenset(edges))
    return CycleExtension(h, n, tuple(range(1, n + 1)),
                          tuple(range(n + 1, 6 * n + 1)), modes)


def extend_lj_representation(rep: Representation, og: OrderedGraph,
                             ext: CycleExtension) -> Representation:
    """Extend a verified grounded L or {L, J} representation of og to a
    representation of ext.h, leaving the original shapes untouched.

    Layout, left to right: cycle vertex 3 carries the deepest vertical at
    an abscissa left of every original point; cycle vertices 4..5n form a
    chain of shallow J-shapes (depths strictly decreasing inside the band
    below the grounding line and above every original horizontal), each
    horizontal reaching just past its predecessor's anchor, with vertex
    5i anchored just right of the i-th original anchor so that its
    horizontal crosses that vertical; cycle vertices 2 and 1 sit right of
    every original point, 2 with a deep horizontal running under
    everything to cross vertical 3 (the long closing edge), 1 with the
    shallowest horizontal crossing verticals 5n and 2.  The resulting
    cycle-vertex anchor order is the cycle order with vertices 1 and 2
    moved behind 5n, which is not shift/reversal-equivalent to the plain
    cycle order; a strictly cyclic anchor order is impossible for {L, J}
    shapes (a cycle ordered cyclically admits no such representation, as
    the feasibility oracle confirms already for a 5-cycle).
    """
    n = og.n
    m = 5 * n
    if ext.n != n:
        raise ValueError("extension size differs from ordered graph")
    if set(ext.attachment) != {"single"}:
        raise ValueError("geometric extension supports single attachments only")
    if rep.kind not in (GROUNDED_L, GROUNDED_LJ):
        raise ValueError(f"cannot extend representation of kind {rep.kind}")
    if not verify(rep, og).ok:
        raise ValueError("input representation does not verify against the ordered graph")

    originals = {i: rep.shapes[og.vertex_at(i)] for i in range(1, n + 1)}
    depths = [s.depth for s in originals.values()]
    shallow_bound = min(depths)   # new chain stays strictly above this
    deep_bound = max(depths)      # new rails go strictly below this
    xs = [x for s in originals.values() for x, _ in s.polyline()]
    left_margin = min(xs) - 1     # W: strictly outside the original extent
    right_margin = max(xs)
    columns = [originals[i].anchor_x for i in range(1, n + 1)]

    # anchors of the cycle shapes, in axis order 3, 4, ..., 5n, 2, 1
    anchor: dict[int, Fraction] = {3: left_margin}
    anchor[4] = (left_margin + columns[0]) / 2
    for i in range(1, n):
        lo, hi = columns[i - 1], columns[i]
        for t in range(1, 6):
            anchor[5 * i + t - 1] = lo + (hi - lo) * Fraction(t, 6)
    anchor[m] = columns[n - 1] + HALF
    anchor[2] = right_margin + 1
    anchor[1] = right_margin + 2

    chain = list(range(4, m + 1))  # shallow J-chain, depths decreasing
    chain_depth = {j: shallow_bound * Fraction(m - 2 - (j - 3), m - 2) for j in chain}
    verticals = sorted(columns + [anchor[3]] + [anchor[j] for j in chain])

    def left_end_past(pred_x: Fraction) -> Fraction:
        """Midpoint of pred_x and the nearest vertical abscissa to its left,
        so the horizontal crosses pred's vertical and stops before the next."""
        before = [x for x in verticals if x < pred_x]
        base = max(before) if before else pred_x - HALF
        return (base + pred_x) / 2

    shapes = dict(originals)  # core ids are order positions; shapes bit-exact
    stub = left_margin + (anchor[4] - left_margin) / 4
    shapes[n + 3] = LShape(anchor[3], deep_bound + 2, stub)
    prev = 3
    for j in chain:
        shapes[n + j] = JShape(anchor[j], chain_depth[j], left_end_past(anchor[prev]))
        prev = j
    shapes[n + 2] = JShape(anchor[2], deep_bound + 1, left_margin - HALF)
    shapes[n + 1] = JShape(anchor[1], shallow_bound / (2 * (m - 2)),
                           (columns[n - 1] + anchor[m]) / 2)

    out = Representation(GROUNDED_LJ, shapes)
    target = OrderedGraph(ext.h, induced_order(out))
    report = verify(out, target)
    if not report.ok:
        raise ConstructionFailed(f"extension scheme failed verification: {report}")
    return out


# ----------------------------------------------------------------------
# Ordered-graph and representation combinators
# ----------------------------------------------------------------------

def mirror_ordered(og: OrderedGraph) -> OrderedGraph:
    """Same graph under the reversed order."""
    return OrderedGraph(og.graph, og.order.reversed())


def concat_ordered(a: OrderedGraph, b: OrderedGraph) -> OrderedGraph:
    """Disjoint union with b's vertices shifted past a's, orders appended."""
    off = a.n
    edges = set(a.graph.edges) | {(u + off, v + off) for u, v in b.graph.edges}
    graph = Graph(a.n + b.n, frozenset(edges))
    order = LinearOrder(a.order.perm + tuple(v + off for v in b.order.perm))
    return OrderedGraph(graph, order)


def _x_extent(rep: Representation) -> tuple:
    xs = [x for s in rep.shapes.values() for x, _ in s.polyline()]
    return min(xs), max(xs)


def mirror_representation(rep: Representation) -> Representation:
    """Reflect along a vertical axis; L and J swap, the induced order reverses."""
    if rep.kind == "MPT":
        raise ValueError("MPT representations cannot be mirrored (bends leave y = -x)")
    kind = GROUNDED_LJ if rep.kind in (GROUNDED_L, GROUNDED_LJ) else rep.kind
    return Representation(kind, {v: _map_shape(s, -1, 1, 0) for v, s in rep.shapes.items()})


def concat_representations(a: Representation, b: Representation) -> Representation:
    """Place b strictly right of a; vertex ids of b are shifted past a's."""
    if a.kind == "MPT" or b.kind == "MPT":
        raise ValueError("MPT representations cannot be concatenated")
    kinds = {a.kind, b.kind}
    if kinds <= {GROUNDED_L, GROUNDED_LJ}:
        kind = GROUNDED_L if kinds == {GROUNDED_L} else GROUNDED_LJ
    elif kinds == {GROUNDED_SEG}:
        kind = GROUNDED_SEG
    else:
        kind = GROUNDED_STRING
    dx = _x_extent(a)[1] + 1 - _x_extent(b)[0]
    off = a.n
    shapes = dict(a.shapes)
    for v, s in b.shapes.items():
        shapes[v + off] = _map_shape(s, 1, 1, dx)
    return Representation(kind, shapes)


# ----------------------------------------------------------------------
# Separation-gadget registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """A machine-checkable or literature-asserted property of a gadget."""

    name: str
    checked: bool


@dataclass(frozen=True)
class GadgetRecord:
    """Known data for one separation gadget.

    figure_dependent records that the full edge set comes from a drawing
    and only the listed constraints are firm; completions are recovered
    by search_completions, never shipped as fact.
    """

    id: str
    n: int
    known_edges: frozenset
    known_nonedges: frozenset
    order: LinearOrder
    claims: tuple
    figure_dependent: bool


def _record(id, n, edges, nonedges, claims, figure_dependent):
    return GadgetRecord(id, n, frozenset(edges), frozenset(nonedges),
                        LinearOrder(tuple(range(1, n + 1))), tuple(claims),
                        figure_dependent)


_REGISTRY = {
    "T3I": _record(
        "T3I", 4, {(1, 2), (2, 3), (1, 4)}, {(1, 3), (2, 4), (3, 4)},
        [Claim("contains-p2", True),
         Claim("l-only-infeasible", True),
         Claim("lj-feasible", True),
         Claim("cycle-extension-not-grounded-l", False)],
        figure_dependent=False),
    "T3II": _record(
        "T3II", 6, {(1, 6), (1, 2), (2, 6), (1, 3)}, {(2, 3), (3, 6)},
        [Claim("known-data-consistent", True),
         Claim("completion-exists", True),
         Claim("grounded-seg-representable", False),
         Claim("cycle-extension-not-grounded-lj", False)],
        figure_dependent=True),
    "T3III": _record(
        "T3III", 7, {(1, 7), (3, 7), (2, 4), (4, 6), (3, 4)}, set(),
        [Claim("known-data-consistent", True),
         Claim("completion-exists", True),
         Claim("mpt-representable", False),
         Claim("cycle-extension-not-outer-1-string", False)],
        figure_dependent=True),
}

GADGET_IDS = tuple(sorted(_REGISTRY))


def gadget(id: str) -> GadgetRecord:
    """Registry entry for a separation gadget id (T3I, T3II, T3III)."""
    try:
        return _REGISTRY[id]
    except KeyError:
        raise ValueError(f"unknown gadget id {id!r}") from None


def _flip_pair(pair, n):
    a, b = (n + 1 - pair[0], n + 1 - pair[1])
    return (a, b) if a < b else (b, a)


def _reversal_symmetric(edges, n: int) -> bool:
    return {_flip_pair(e, n) for e in edges} == set(edges)


def search_completions(record: GadgetRecord, limit: int | None = None) -> list:
    """All edge-set completions of the free pairs consistent with the
    gadget's checkable constraints, in deterministic bitmask order.

    T3II completions must be reversal-symmetric and {L, J}-infeasible
    under the natural order; T3III completions must avoid the max
    point-tolerance pattern under the natural order.  Results remain
    figure-dependent: consistency is a filter, not a reconstruction.
    """
    from .oracles import lj_feasible

    n = record.n
    all_pairs = list(combinations(range(1, n + 1), 2))
    free = [p for p in all_pairs
            if p not in record.known_edges and p not in record.known_nonedges]
    out = []
    for mask in range(1 << len(free)):
        edges = set(record.known_edges)
        edges.update(p for bit, p in enumerate(free) if mask >> bit & 1)
        if record.id == "T3II":
            if not _reversal_symmetric(edges, n):
                continue
            og = OrderedGraph(Graph(n, frozenset(edges)), record.order)
            if lj_feasible(og, ("L", "J")) is not None:
                continue
        elif record.id == "T3III":
            og = OrderedGraph(Graph(n, frozenset(edges)), record.order)
            if not avoids_patterns(og, (MPT_PAT,)):
                continue
        out.append(Graph(n, frozenset(edges)))
        if limit is not None and len(out) >= limit:
            break
    return out


def run_gadget_checks(record: GadgetRecord) -> dict:
    """Execute the gadget's checkable claims; literature-only claims are
    reported as 'asserted-by-paper'.  Returns {claim name: status}."""
    from .builders import realize_lj
    from .geometry import is_one_string
    from .oracles import lj_feasible

    og = OrderedGraph(Graph(record.n, record.known_edges), record.order)
    results = {}
    for claim in record.claims:
        if not claim.checked:
            results[claim.name] = "asserted-by-paper"
            continue
        if claim.name == "contains-p2":
            ok = bool(find_pattern_occurrences(og, P2, limit=1))
        elif claim.name == "l-only-infeasible":
            ok = lj_feasible(og, ("L",)) is None
        elif claim.name == "lj-feasible":
            cert = lj_feasible(og, ("L", "J"))
            if cert is None:
                ok = False
            else:
                rep = realize_lj(cert, og)
                ok = verify(rep, og).ok and is_one_string(rep)
        elif claim.name == "known-data-consistent":
            flipped_nonedges = {_flip_pair(e, record.n) for e in record.known_nonedges}
            ok = (not record.known_edges & record.known_nonedges
                  and not (record.known_edges & flipped_nonedges
                           if record.id == "T3II" else frozenset()))
        elif claim.name == "completion-exists":
            ok = bool(search_completions(record, limit=1))
        else:
            raise AssertionError(f"no check implemented for claim {claim.name}")
        results[claim.name] = "checked-pass" if ok else "checked-fail"
    return results
