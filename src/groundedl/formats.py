"""Text and JSON document formats.

Graph documents are line-oriented: a header "n m", then m edge lines
"u v", then optionally "order: p1 ... pn" and "names: a b c ...";
n is at most MAX_GRAPH_ORDER.
Representation documents are JSON with every coordinate serialized as an
exact rational string such as "3/2"; JSON numbers are rejected because
they are floats and exactness is non-negotiable.  A shape entry holds
its vertex, its tag and the fields of the tag's shape dataclass; the
"points" field is a list of [x, y] pairs.  A literal has at most
MAX_LITERAL_DIGITS decimal digits and a decimal exponent of at most
MAX_EXPONENT in size, since verification cost grows with the size of
the coordinates.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction

from .geometry import _SHAPE_CLASSES, KIND_TAGS, Representation
from .ordered import Graph, LinearOrder, OrderedGraph

__all__ = [
    "GraphDocument",
    "parse_graph_document",
    "emit_graph_document",
    "parse_graph",
    "emit_graph",
    "parse_representation",
    "emit_representation",
    "MAX_GRAPH_ORDER",
    "MAX_LITERAL_DIGITS",
    "MAX_EXPONENT",
]

#: Largest vertex count a graph document may declare.
MAX_GRAPH_ORDER = 10_000
#: Most decimal digits in one rational literal of a representation.
MAX_LITERAL_DIGITS = 1_000
#: Largest magnitude of a decimal exponent such as the 5 of "1e5".
MAX_EXPONENT = 1_000

_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*$")


@dataclass(frozen=True)
class GraphDocument:
    """Parsed form of the line-oriented graph format."""

    n: int
    edges: tuple
    order: tuple | None = None
    names: tuple | None = None

    def to_ordered_graph(self) -> OrderedGraph:
        """OrderedGraph with the document order, or the natural order."""
        graph = Graph(self.n, frozenset(self.edges))
        perm = self.order if self.order is not None else tuple(range(1, self.n + 1))
        return OrderedGraph(graph, LinearOrder(perm))


def parse_graph_document(text: str) -> GraphDocument:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph document")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if n > MAX_GRAPH_ORDER:
        raise ValueError(f"graph order {n} exceeds the limit {MAX_GRAPH_ORDER}")
    if len(lines) < 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"edge line must be two integers, got {ln!r}") from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) outside 1..{n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    order = None
    names = None
    for ln in lines[1 + m:]:
        if ln.startswith("order:"):
            if order is not None:
                raise ValueError("duplicate order line")
            try:
                order = tuple(int(t) for t in ln[len("order:"):].split())
            except ValueError:
                raise ValueError(f"order line must list integers, got {ln!r}") from None
            if sorted(order) != list(range(1, n + 1)):
                raise ValueError(f"order is not a permutation of 1..{n}")
        elif ln.startswith("names:"):
            if names is not None:
                raise ValueError("duplicate names line")
            names = tuple(ln[len("names:"):].split())
            if len(names) != n:
                raise ValueError(f"expected {n} names, got {len(names)}")
        else:
            raise ValueError(f"unexpected line {ln!r}")
    return GraphDocument(n, tuple(edges), order, names)


def emit_graph_document(doc: GraphDocument) -> str:
    out = [f"{doc.n} {len(doc.edges)}"]
    out += [f"{u} {v}" for u, v in doc.edges]
    if doc.order is not None:
        out.append("order: " + " ".join(str(v) for v in doc.order))
    if doc.names is not None:
        out.append("names: " + " ".join(doc.names))
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> OrderedGraph:
    """Parse the line format; a missing order line means the natural order."""
    return parse_graph_document(text).to_ordered_graph()


def emit_graph(og: OrderedGraph) -> str:
    """Canonical document for an ordered graph: edges sorted, order explicit."""
    return emit_graph_document(GraphDocument(
        og.n, tuple(og.graph.sorted_edges()), og.order.perm))


# ----------------------------------------------------------------------
# Representation documents
# ----------------------------------------------------------------------

#: Document fields of each shape tag: the shape's dataclass fields.
_FIELDS = {tag: tuple(f.name for f in fields(cls)) for tag, cls in _SHAPE_CLASSES.items()}


def _emit_field(name: str, value):
    if name == "points":
        return [[str(x), str(y)] for x, y in value]
    return str(value)


def _parse_field(name: str, value):
    if name == "points":
        if not (isinstance(value, list)
                and all(isinstance(p, list) and len(p) == 2 for p in value)):
            raise ValueError("points must be a list of [x, y] pairs")
        return tuple((_parse_rational(x), _parse_rational(y)) for x, y in value)
    return _parse_rational(value)


def _parse_rational(value) -> Fraction:
    if not isinstance(value, str):
        raise ValueError(f"coordinates must be rational strings, got {value!r}")
    if sum(ch.isdigit() for ch in value) > MAX_LITERAL_DIGITS:
        raise ValueError(f"rational literal has more than {MAX_LITERAL_DIGITS} digits")
    exponent = _EXPONENT.search(value)
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError(f"rational literal exponent {exponent.group(1)} exceeds "
                         f"the limit {MAX_EXPONENT}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {value!r}") from None


def emit_representation(rep: Representation) -> str:
    shapes = []
    for v in sorted(rep.shapes):
        shape = rep.shapes[v]
        entry = {"vertex": v, "tag": shape.tag}
        for name in _FIELDS[shape.tag]:
            entry[name] = _emit_field(name, getattr(shape, name))
        shapes.append(entry)
    return json.dumps({"kind": rep.kind, "shapes": shapes},
                      indent=2, sort_keys=True) + "\n"


def parse_representation(text: str) -> Representation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"kind", "shapes"}:
        raise ValueError("document must be an object with exactly 'kind' and 'shapes'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in KIND_TAGS:
        raise ValueError(f"unknown representation kind {kind!r}")
    if not isinstance(doc["shapes"], list):
        raise ValueError("'shapes' must be a list of shape objects")
    shapes = {}
    for entry in doc["shapes"]:
        if not isinstance(entry, dict):
            raise ValueError("each shape must be an object")
        tag = entry.get("tag")
        if not isinstance(tag, str) or tag not in _FIELDS:
            raise ValueError(f"unknown shape tag {tag!r}")
        expected = {"vertex", "tag", *_FIELDS[tag]}
        if set(entry) != expected:
            unknown = set(entry) - expected
            missing = expected - set(entry)
            what = f"unknown fields {sorted(unknown)}" if unknown else f"missing fields {sorted(missing)}"
            raise ValueError(f"shape entry has {what}")
        vertex = entry["vertex"]
        if not isinstance(vertex, int) or isinstance(vertex, bool):
            raise ValueError(f"vertex id must be an integer, got {vertex!r}")
        if vertex in shapes:
            raise ValueError(f"duplicate vertex id {vertex}")
        shapes[vertex] = _SHAPE_CLASSES[tag](
            **{name: _parse_field(name, entry[name]) for name in _FIELDS[tag]})
    return Representation(kind, shapes)
