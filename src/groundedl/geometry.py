"""Exact rational geometry for grounded intersection representations.

Shapes take and return ``fractions.Fraction`` coordinates and every
predicate is decided exactly; floats never enter a comparison.  The
segment predicates only compare, subtract and multiply, so verify,
intersection_graph and is_one_string run them on Python ints: each
representation's segments are scaled once, by the LCM of all their
denominators, which preserves every answer.  shape_crossings computes
the crossing points in Fractions and is the reference the integer path
is tested against.  Degenerate contact (touching, overlap, an endpoint
on another curve) is an error, never a silently resolved case:
general-position assumptions become validation rules here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import ClassVar

from .ordered import Graph, LinearOrder, OrderedGraph

__all__ = [
    "Coord",
    "coord",
    "DegeneracyError",
    "LShape",
    "JShape",
    "MptLShape",
    "SegmentShape",
    "PolylineShape",
    "Representation",
    "VerificationReport",
    "GROUNDED_L",
    "GROUNDED_LJ",
    "MPT",
    "GROUNDED_SEG",
    "GROUNDED_STRING",
    "KIND_TAGS",
    "shape_crossings",
    "intersection_graph",
    "induced_order",
    "verify",
    "is_one_string",
    "scale_representation",
]

Coord = Fraction


class DegeneracyError(ValueError):
    """A configuration violates the general-position rules."""


def coord(value) -> Fraction:
    """Coerce to an exact rational.

    Accepts Fraction, int, strings like "3/2" or "1.5", and floats with
    a short decimal literal (converted through their repr, so 0.4 means
    2/5 exactly).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _pt(x, y) -> tuple:
    return (coord(x), coord(y))


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LShape:
    """Vertical from (anchor_x, 0) down to (anchor_x, -depth), then
    horizontal right to (reach, -depth)."""

    anchor_x: Fraction
    depth: Fraction
    reach: Fraction
    tag: ClassVar[str] = "L"

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor_x", coord(self.anchor_x))
        object.__setattr__(self, "depth", coord(self.depth))
        object.__setattr__(self, "reach", coord(self.reach))
        if self.depth <= 0:
            raise DegeneracyError("zero-length segment: L depth must be positive")
        if self.reach <= self.anchor_x:
            raise DegeneracyError("zero-length segment: L reach must exceed anchor_x")

    @property
    def ground_x(self) -> Fraction:
        return self.anchor_x

    def segments(self) -> list:
        a, d, r = self.anchor_x, self.depth, self.reach
        return [((a, Fraction(0)), (a, -d)), ((a, -d), (r, -d))]


@dataclass(frozen=True)
class JShape:
    """Mirror of an L: the horizontal runs left, to (left_end, -depth)."""

    anchor_x: Fraction
    depth: Fraction
    left_end: Fraction
    tag: ClassVar[str] = "J"

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor_x", coord(self.anchor_x))
        object.__setattr__(self, "depth", coord(self.depth))
        object.__setattr__(self, "left_end", coord(self.left_end))
        if self.depth <= 0:
            raise DegeneracyError("zero-length segment: J depth must be positive")
        if self.left_end >= self.anchor_x:
            raise DegeneracyError("zero-length segment: J left_end must precede anchor_x")

    @property
    def ground_x(self) -> Fraction:
        return self.anchor_x

    def segments(self) -> list:
        a, d, l = self.anchor_x, self.depth, self.left_end
        return [((a, Fraction(0)), (a, -d)), ((l, -d), (a, -d))]


@dataclass(frozen=True)
class MptLShape:
    """L-shape whose bend (bend_x, -bend_x) sits on the line y = -x;
    horizontal right to (reach, -bend_x), vertical up to (bend_x, top)."""

    bend_x: Fraction
    reach: Fraction
    top: Fraction
    tag: ClassVar[str] = "MPT_L"

    def __post_init__(self) -> None:
        object.__setattr__(self, "bend_x", coord(self.bend_x))
        object.__setattr__(self, "reach", coord(self.reach))
        object.__setattr__(self, "top", coord(self.top))
        if self.reach <= self.bend_x:
            raise DegeneracyError("zero-length segment: MPT_L reach must exceed bend_x")
        if not (-self.bend_x < self.top <= 0):
            raise DegeneracyError("MPT_L top must lie strictly above the bend and not above the axis")

    @property
    def ground_x(self) -> Fraction:
        return self.bend_x

    def segments(self) -> list:
        b, r, t = self.bend_x, self.reach, self.top
        return [((b, -b), (b, t)), ((b, -b), (r, -b))]


@dataclass(frozen=True)
class SegmentShape:
    """Straight segment from (anchor_x, 0) to a tip strictly below the axis."""

    anchor_x: Fraction
    tip_x: Fraction
    tip_y: Fraction
    tag: ClassVar[str] = "SEGMENT"

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor_x", coord(self.anchor_x))
        object.__setattr__(self, "tip_x", coord(self.tip_x))
        object.__setattr__(self, "tip_y", coord(self.tip_y))
        if self.tip_y >= 0:
            raise DegeneracyError("segment tip must lie strictly below the grounding line")

    @property
    def ground_x(self) -> Fraction:
        return self.anchor_x

    def segments(self) -> list:
        return [((self.anchor_x, Fraction(0)), (self.tip_x, self.tip_y))]


@dataclass(frozen=True)
class PolylineShape:
    """Piecewise-linear string anchored on the axis, rest strictly below.

    Construction validates the per-string general-position rules: every
    constituent segment is non-degenerate and the string has no
    self-intersections or self-overlaps.
    """

    points: tuple
    tag: ClassVar[str] = "POLYLINE"

    def __post_init__(self) -> None:
        pts = tuple(_pt(x, y) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise DegeneracyError("polyline needs at least two points")
        if pts[0][1] != 0:
            raise DegeneracyError("polyline anchor must lie on the grounding line")
        for x, y in pts[1:]:
            if y >= 0:
                raise DegeneracyError("polyline interior must lie strictly below the grounding line")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise DegeneracyError("zero-length segment in polyline")
        segs = self.segments()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if j == i + 1:
                    # consecutive segments share one endpoint; reject only
                    # a collinear fold back onto the previous segment
                    (a, b), (_, c) = segs[i], segs[j]
                    if _orient(a, b, c) == 0 and _between_closed(a, b, c):
                        raise DegeneracyError("polyline folds back onto itself")
                    continue
                try:
                    hit = _crosses(segs[i], segs[j])
                except DegeneracyError:
                    raise DegeneracyError("polyline self-intersection") from None
                if hit:
                    raise DegeneracyError("polyline self-intersection")

    @property
    def ground_x(self) -> Fraction:
        return self.points[0][0]

    def segments(self) -> list:
        return list(zip(self.points, self.points[1:]))


GROUNDED_L = "GROUNDED_L"
GROUNDED_LJ = "GROUNDED_LJ"
MPT = "MPT"
GROUNDED_SEG = "GROUNDED_SEG"
GROUNDED_STRING = "GROUNDED_STRING"

KIND_TAGS = {
    GROUNDED_L: {"L"},
    GROUNDED_LJ: {"L", "J"},
    MPT: {"MPT_L"},
    GROUNDED_SEG: {"SEGMENT"},
    GROUNDED_STRING: {"L", "J", "SEGMENT", "POLYLINE"},
}


@dataclass(frozen=True)
class Representation:
    """A kind plus a map from vertex ids 1..n to grounded shapes.

    Anchor (or bend) abscissae must be pairwise distinct and every shape
    tag must be admitted by the kind.
    """

    kind: str
    shapes: dict

    def __post_init__(self) -> None:
        if self.kind not in KIND_TAGS:
            raise ValueError(f"unknown representation kind {self.kind!r}")
        shapes = dict(self.shapes)
        object.__setattr__(self, "shapes", shapes)
        n = len(shapes)
        if shapes and sorted(shapes) != list(range(1, n + 1)):
            raise ValueError("shape map must be keyed by vertices 1..n")
        allowed = KIND_TAGS[self.kind]
        seen_x: dict = {}
        for v, shape in shapes.items():
            if shape.tag not in allowed:
                raise ValueError(f"shape tag {shape.tag} not allowed in kind {self.kind}")
            gx = shape.ground_x
            if gx in seen_x:
                raise DegeneracyError(
                    f"shared anchor abscissa {gx} between vertices {seen_x[gx]} and {v}")
            seen_x[gx] = v

    @property
    def n(self) -> int:
        return len(self.shapes)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Representation)
                and self.kind == other.kind and self.shapes == other.shapes)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a representation against an ordered graph."""

    ok: bool
    missing_edges: tuple
    extra_edges: tuple
    induced: LinearOrder | None
    degeneracies: tuple


# ----------------------------------------------------------------------
# Exact segment predicates
# ----------------------------------------------------------------------

def _orient(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _between_closed(a, b, c) -> bool:
    """c (already collinear with a, b) lies within the closed box of a, b."""
    lox, hix = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    loy, hiy = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    return lox <= c[0] <= hix and loy <= c[1] <= hiy


def _crosses(s1, s2) -> bool:
    """True iff two segments cross properly, False if they are disjoint.

    Raises DegeneracyError for any touching, endpoint-on-segment, or
    collinear-overlap configuration.  Only compares, subtracts and
    multiplies coordinates, so ints and Fractions both stay exact and a
    positive scaling of both segments never changes the answer.
    """
    p, q = s1
    r, s = s2
    # fast paths for axis-parallel segments (the only kinds L/J/MPT have):
    # crossings are horizontal x vertical; parallel pairs can only be
    # disjoint or collinear-overlapping, decided by interval comparisons.
    h1 = p[1] == q[1]
    v1 = p[0] == q[0]
    h2 = r[1] == s[1]
    v2 = r[0] == s[0]
    if h1 and v2:
        return _hv_crossing(s1, s2)
    if v1 and h2:
        return _hv_crossing(s2, s1)
    if h1 and h2:
        return p[1] == r[1] and _collinear_1d(p[0], q[0], r[0], s[0])
    if v1 and v2:
        return p[0] == r[0] and _collinear_1d(p[1], q[1], r[1], s[1])

    d1 = _orient(r, s, p)
    d2 = _orient(r, s, q)
    d3 = _orient(p, q, r)
    d4 = _orient(p, q, s)
    if d1 == 0 and d2 == 0:
        # collinear supporting lines: overlap (even in a single point) is degenerate
        if _between_closed(r, s, p) or _between_closed(r, s, q) \
                or _between_closed(p, q, r) or _between_closed(p, q, s):
            raise DegeneracyError("collinear segment overlap")
        return False
    if d1 == 0 and _between_closed(r, s, p):
        raise DegeneracyError("segment endpoint lies on another segment")
    if d2 == 0 and _between_closed(r, s, q):
        raise DegeneracyError("segment endpoint lies on another segment")
    if d3 == 0 and _between_closed(p, q, r):
        raise DegeneracyError("segment endpoint lies on another segment")
    if d4 == 0 and _between_closed(p, q, s):
        raise DegeneracyError("segment endpoint lies on another segment")
    return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)


def _segment_crossing(s1, s2):
    """Exact crossing point of two Fraction segments, or None if they
    are disjoint; raises like _crosses."""
    if not _crosses(s1, s2):
        return None
    (p, q), (r, s) = s1, s2
    d1 = _orient(r, s, p)
    t = d1 / (d1 - _orient(r, s, q))
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _collinear_1d(a1, a2, b1, b2) -> bool:
    """Two collinear segments projected to one axis: any closed overlap
    is degenerate, disjoint is no crossing."""
    if a1 > a2:
        a1, a2 = a2, a1
    if b1 > b2:
        b1, b2 = b2, b1
    if a2 < b1 or b2 < a1:
        return False
    raise DegeneracyError("collinear segment overlap")


def _hv_crossing(h, v) -> bool:
    """Horizontal segment h against vertical segment v, comparisons only."""
    (hx1, hy), (hx2, _) = h
    if hx1 > hx2:
        hx1, hx2 = hx2, hx1
    (vx, vy1), (_, vy2) = v
    if vy1 > vy2:
        vy1, vy2 = vy2, vy1
    if vx < hx1 or vx > hx2 or hy < vy1 or hy > vy2:
        return False
    if hx1 < vx < hx2 and vy1 < hy < vy2:
        return True
    raise DegeneracyError("segment endpoint lies on another segment")


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

def shape_crossings(a, b) -> list:
    """Exact crossing points between two shapes, sorted by (x, y).

    Symmetric in its arguments.  Raises DegeneracyError if the pair
    touches, overlaps, or has an endpoint on the other curve.
    """
    points = []
    for sa in a.segments():
        for sb in b.segments():
            pt = _segment_crossing(sa, sb)
            if pt is not None:
                points.append(pt)
    points.sort()
    return points


def _integer_segments(rep: Representation) -> list:
    """(vertex, segments) per shape in vertex order, every coordinate
    multiplied by the LCM of all the denominators: one exact positive
    scaling to ints, under which every predicate keeps its answer."""
    segs = [(v, rep.shapes[v].segments()) for v in sorted(rep.shapes)]
    scale = lcm(*{c.denominator for _, ss in segs for seg in ss for pt in seg for c in pt})
    return [(v, [tuple((x.numerator * (scale // x.denominator),
                        y.numerator * (scale // y.denominator)) for x, y in seg)
                 for seg in ss])
            for v, ss in segs]


def _pairwise_crossings(rep: Representation):
    """Yield (u, v, crossing count, degeneracy message or None) for every
    pair of shapes, u < v; the count is None for a degenerate pair."""
    segs = _integer_segments(rep)
    for i, (u, su) in enumerate(segs):
        for v, sv in segs[i + 1:]:
            count = 0
            try:
                for a in su:
                    for b in sv:
                        if _crosses(a, b):
                            count += 1
            except DegeneracyError as exc:
                yield u, v, None, str(exc)
            else:
                yield u, v, count, None


def intersection_graph(rep: Representation) -> Graph:
    """Graph with an edge exactly where two shapes cross."""
    if not rep.shapes:
        raise ValueError("representation has no shapes")
    edges = set()
    for u, v, count, problem in _pairwise_crossings(rep):
        if problem is not None:
            raise DegeneracyError(f"shapes {u} and {v}: {problem}")
        if count:
            edges.add((u, v))
    return Graph(rep.n, frozenset(edges))


def induced_order(rep: Representation) -> LinearOrder:
    """Vertices sorted by anchor abscissa (bend abscissa for MPT shapes)."""
    if not rep.shapes:
        raise ValueError("representation has no shapes")
    return LinearOrder(tuple(sorted(rep.shapes, key=lambda v: rep.shapes[v].ground_x)))


def verify(rep: Representation, og: OrderedGraph) -> VerificationReport:
    """Check that rep realizes exactly og's edges and induces its order.

    Problems are reported, never raised: degenerate pairs are named in
    the report and excluded from the edge comparison.
    """
    if set(rep.shapes) != set(range(1, og.n + 1)):
        raise ValueError("representation and graph have different vertex sets")
    degeneracies = []
    edges = set()
    for u, v, count, problem in _pairwise_crossings(rep):
        if problem is not None:
            degeneracies.append(f"shapes {u} and {v}: {problem}")
        elif count:
            edges.add((u, v))
    missing = tuple(sorted(og.graph.edges - edges))
    extra = tuple(sorted(edges - og.graph.edges))
    induced = induced_order(rep)
    ok = not missing and not extra and not degeneracies and induced == og.order
    return VerificationReport(ok, missing, extra, induced, tuple(degeneracies))


def is_one_string(rep: Representation) -> bool:
    """True iff every pair of shapes crosses at most once."""
    for u, v, count, problem in _pairwise_crossings(rep):
        if problem is not None:
            raise DegeneracyError(f"shapes {u} and {v}: {problem}")
        if count > 1:
            return False
    return True


def _scale_shape(shape, f: Fraction):
    if isinstance(shape, LShape):
        return LShape(shape.anchor_x * f, shape.depth * f, shape.reach * f)
    if isinstance(shape, JShape):
        return JShape(shape.anchor_x * f, shape.depth * f, shape.left_end * f)
    if isinstance(shape, MptLShape):
        return MptLShape(shape.bend_x * f, shape.reach * f, shape.top * f)
    if isinstance(shape, SegmentShape):
        return SegmentShape(shape.anchor_x * f, shape.tip_x * f, shape.tip_y * f)
    if isinstance(shape, PolylineShape):
        return PolylineShape(tuple((x * f, y * f) for x, y in shape.points))
    raise TypeError(f"unknown shape {shape!r}")


def scale_representation(rep: Representation, factor) -> Representation:
    """Scale all coordinates by a positive rational; predicates are invariant."""
    f = coord(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return Representation(rep.kind, {v: _scale_shape(s, f) for v, s in rep.shapes.items()})
