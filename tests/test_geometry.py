from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groundedl import (GROUNDED_L, GROUNDED_LJ, GROUNDED_SEG, GROUNDED_STRING,
                       MPT, DegeneracyError, Graph, JShape, LinearOrder, LShape,
                       MptLShape, OrderedGraph, PolylineShape, Representation,
                       SegmentShape, build_grounded_l, coord, induced_order,
                       intersection_graph, is_one_string, scale_representation,
                       build_mpt, shape_crossings, verify)
from groundedl.geometry import _pairwise_crossings
from conftest import all_graphs, natural

F = Fraction


def gadget_witness_rep() -> Representation:
    return Representation(GROUNDED_LJ, {
        1: LShape(1, 1, "4.2"),
        2: LShape(2, 2, "2.5"),
        3: JShape(3, "0.5", "1.5"),
        4: LShape(4, 3, "4.3"),
    })


# ----------------------------------------------------------------------
# coord and shape validation
# ----------------------------------------------------------------------

def test_coord_accepts_exact_forms():
    assert coord("3/2") == F(3, 2)
    assert coord("1.5") == F(3, 2)
    assert coord(0.4) == F(2, 5)
    assert coord(7) == F(7)
    with pytest.raises(TypeError):
        coord(object())


@pytest.mark.parametrize("make", [
    lambda: LShape(1, 0, 2),
    lambda: LShape(1, 1, 1),
    lambda: JShape(1, 1, 1),
    lambda: JShape(1, 0, 0),
    lambda: SegmentShape(1, 2, 0),
    lambda: MptLShape(1, 1, 0),       # reach == bend_x
    lambda: MptLShape(2, 3, -2),      # top == -bend_x
    lambda: PolylineShape(((0, 0), (0, 0))),
    lambda: PolylineShape(((0, -1), (1, -2))),
    lambda: PolylineShape(((0, 0), (1, 0))),
])
def test_invalid_shapes_rejected(make):
    with pytest.raises(DegeneracyError):
        make()


def test_polyline_self_intersection_rejected():
    with pytest.raises(DegeneracyError, match="self-intersection"):
        PolylineShape(((0, 0), (2, -2), (2, -1), (0, -3)))


def test_polyline_fold_back_rejected():
    with pytest.raises(DegeneracyError, match="folds back"):
        PolylineShape(((0, 0), (0, -2), (0, -1)))


# ----------------------------------------------------------------------
# crossings
# ----------------------------------------------------------------------

def test_l_crossing_point():
    pts = shape_crossings(LShape(1, 1, "3.5"), LShape(2, 2, "4.5"))
    assert pts == [(F(2), F(-1))]


def test_l_no_crossing_short_reach():
    assert shape_crossings(LShape(1, 1, "3.5"), LShape(4, 3, "4.3")) == []


def test_equal_depth_touch_is_degenerate():
    with pytest.raises(DegeneracyError):
        shape_crossings(LShape(1, 1, 2), LShape(2, 1, 3))


def test_crossings_symmetric_random_shapes():
    rng = random.Random(5)
    made = 0
    while made < 60:
        a = LShape(rng.randint(0, 6), F(rng.randint(1, 12), 2), rng.randint(7, 14))
        kind = rng.random()
        if kind < 0.4:
            b = LShape(F(rng.randint(1, 13), 2), F(rng.randint(1, 11), 3),
                       rng.randint(8, 15))
        elif kind < 0.8:
            b = JShape(F(rng.randint(1, 13), 2), F(rng.randint(1, 11), 3),
                       F(-rng.randint(1, 8), 3))
        else:
            b = SegmentShape(F(rng.randint(1, 13), 4), F(rng.randint(-4, 18), 3),
                             F(-rng.randint(1, 18), 5))
        try:
            assert shape_crossings(a, b) == shape_crossings(b, a)
        except DegeneracyError:
            continue
        made += 1


# ----------------------------------------------------------------------
# representations
# ----------------------------------------------------------------------

def test_kind_tag_compatibility():
    with pytest.raises(ValueError, match="not allowed"):
        Representation(GROUNDED_L, {1: JShape(1, 1, 0)})
    with pytest.raises(ValueError, match="not allowed"):
        Representation(MPT, {1: LShape(1, 1, 2)})
    with pytest.raises(ValueError, match="unknown"):
        Representation("GROUNDED_X", {})


def test_shared_anchor_rejected():
    with pytest.raises(DegeneracyError, match="shared anchor"):
        Representation(GROUNDED_L, {1: LShape(1, 1, 2), 2: LShape(1, 2, 3)})


def test_intersection_graph_gadget_witness():
    g = intersection_graph(gadget_witness_rep())
    assert g.edges == frozenset({(1, 2), (1, 4), (2, 3)})


def test_intersection_graph_single_shape():
    g = intersection_graph(Representation(GROUNDED_L, {1: LShape(1, 1, 2)}))
    assert g.n == 1 and g.edges == frozenset()


def test_intersection_graph_c4(c4_good):
    rep = build_grounded_l(c4_good)
    assert intersection_graph(rep).edges == c4_good.graph.edges


def test_induced_order():
    rep = Representation(GROUNDED_L, {
        3: LShape(1, 1, 2), 1: LShape(2, 2, 3), 2: LShape(3, 3, 4)})
    assert induced_order(rep).perm == (3, 1, 2)
    mpt = Representation(MPT, {i: MptLShape(i, i + 1, F(-1, 2)) for i in range(1, 5)})
    assert induced_order(mpt).perm == (1, 2, 3, 4)


def test_verify_gadget_witness(gadget_i):
    report = verify(gadget_witness_rep(), gadget_i)
    assert report.ok
    wrong = OrderedGraph(gadget_i.graph, LinearOrder((1, 2, 4, 3)))
    report2 = verify(gadget_witness_rep(), wrong)
    assert not report2.ok
    assert report2.induced.perm == (1, 2, 3, 4)
    assert not report2.missing_edges and not report2.extra_edges


def test_verify_c4(c4_good):
    assert verify(build_grounded_l(c4_good), c4_good).ok


def test_verify_vertex_set_mismatch(c4_good):
    with pytest.raises(ValueError):
        verify(Representation(GROUNDED_L, {1: LShape(1, 1, 2)}), c4_good)


def test_verify_reports_degenerate_pair():
    rep = Representation(GROUNDED_L, {1: LShape(1, 1, 2), 2: LShape(2, 1, 3)})
    og = OrderedGraph(Graph(2, frozenset({(1, 2)})), LinearOrder((1, 2)))
    report = verify(rep, og)
    assert not report.ok
    assert len(report.degeneracies) == 1
    assert "shapes 1 and 2" in report.degeneracies[0]


def test_is_one_string():
    assert is_one_string(gadget_witness_rep())
    assert is_one_string(Representation(GROUNDED_L, {1: LShape(1, 1, 2)}))
    double_x = Representation(GROUNDED_STRING, {
        1: PolylineShape(((0, 0), (4, -4), (0, -6))),
        2: PolylineShape(((1, 0), (1, -8))),
    })
    assert not is_one_string(double_x)


def test_scaling_leaves_report_identical(c4_good, gadget_i):
    for rep, og in ((build_grounded_l(c4_good), c4_good),
                    (gadget_witness_rep(), gadget_i)):
        base = verify(rep, og)
        for factor in ("7/3", 2, "1/5"):
            scaled = verify(scale_representation(rep, factor), og)
            assert (scaled.ok, scaled.missing_edges, scaled.extra_edges,
                    scaled.induced, scaled.degeneracies) == \
                   (base.ok, base.missing_edges, base.extra_edges,
                    base.induced, base.degeneracies)


def test_segment_representation_verifies():
    rep = Representation(GROUNDED_SEG, {
        1: SegmentShape(1, 4, -6),
        2: SegmentShape(2, F(1, 2), -3),
        3: SegmentShape(3, F(9, 10), F(-21, 10)),
    })
    og = OrderedGraph(Graph(3, frozenset({(1, 2), (1, 3), (2, 3)})),
                      LinearOrder((1, 2, 3)))
    assert verify(rep, og).ok


# ----------------------------------------------------------------------
# the integer kernel against the Fraction reference, pair by pair
# ----------------------------------------------------------------------

def _reference_crossings(rep) -> list:
    """(u, v, crossing count or None, degeneracy message or None) per
    pair, from shape_crossings on the unscaled Fraction shapes."""
    out = []
    vertices = sorted(rep.shapes)
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            try:
                out.append((u, v, len(shape_crossings(rep.shapes[u], rep.shapes[v])), None))
            except DegeneracyError as exc:
                out.append((u, v, None, str(exc)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integer_kernel_matches_reference_on_builds(n):
    for g in all_graphs(n):
        og = natural(g)
        for rep in (build_grounded_l(og), build_mpt(og)):
            assert list(_pairwise_crossings(rep)) == _reference_crossings(rep)


#: Few values with coprime, non-dyadic denominators, and fewer depths:
#: shapes drawn from them often touch, share endpoints and depths, or
#: overlap collinearly.
GRID = sorted({F(i, d) for i in range(-4, 9) for d in (1, 3, 7)})
POSITIVE = [x for x in GRID if x > 0]
DEPTHS = [F(1, 3), F(1), F(5, 3), F(15, 7)]

anchors = st.sampled_from(GRID)
depths = st.sampled_from(DEPTHS)
l_shapes = st.builds(lambda a, d, e: LShape(a, d, a + e),
                     anchors, depths, st.sampled_from(POSITIVE))
j_shapes = st.builds(lambda a, d, e: JShape(a, d, a - e),
                     anchors, depths, st.sampled_from(POSITIVE))
segments = st.builds(lambda a, x, y: SegmentShape(a, x, -y),
                     anchors, st.sampled_from(GRID), depths)
below = st.tuples(st.sampled_from(GRID), depths.map(lambda y: -y))


@st.composite
def polylines(draw):
    pts = ((draw(anchors), 0), *draw(st.lists(below, min_size=1, max_size=3)))
    try:
        return PolylineShape(pts)
    except DegeneracyError:
        assume(False)


@st.composite
def mpt_shapes(draw):
    b = draw(st.sampled_from(POSITIVE))
    top = draw(st.sampled_from([x for x in GRID if -b < x <= 0]))
    return MptLShape(b, b + draw(st.sampled_from(POSITIVE)), top)


@st.composite
def representations(draw):
    if draw(st.booleans()):
        kind, shape = GROUNDED_STRING, st.one_of(l_shapes, j_shapes, segments, polylines())
    else:
        kind, shape = MPT, mpt_shapes()
    shapes = draw(st.lists(shape, min_size=2, max_size=5,
                           unique_by=lambda s: s.ground_x))
    return Representation(kind, dict(enumerate(shapes, start=1)))


def _strings(*shapes) -> Representation:
    return Representation(GROUNDED_STRING, dict(enumerate(shapes, start=1)))


@settings(max_examples=400, deadline=None)
@given(representations())
# collinear overlaps, which random draws rarely reach before a touch:
# horizontal, slanted, and vertical pieces, after a proper crossing
@example(_strings(PolylineShape(((1, 0), (0, -1), (5, -1))),
                  PolylineShape(((7, 0), (6, -1), (3, -1)))))
@example(_strings(SegmentShape(0, 3, -3), PolylineShape(((5, 0), (4, -4), (2, -2)))))
@example(_strings(PolylineShape(((4, 0), (1, -3), (1, F(-1, 2)))),
                  PolylineShape(((1, 0), (1, -1), (3, -2)))))
def test_integer_kernel_matches_reference_on_touching_shapes(rep):
    assert list(_pairwise_crossings(rep)) == _reference_crossings(rep)


def test_coprime_large_denominators_stay_fast():
    """120 distinct 300-digit odd denominators: one common integer scale
    would be about 120 000 bits long, so the kernel keeps the Fractions."""
    base = 10 ** 299
    shapes = {}
    for i in range(1, 41):
        e1, e2, e3 = (F(1, base + 6 * i + k) for k in (1, 3, 5))
        dx = 3 if i % 2 else -3
        shapes[i] = SegmentShape(i + e1, i + dx + e2, -1 - i % 2 - e3)
    rep = Representation(GROUNDED_SEG, shapes)
    start = time.perf_counter()
    graph = intersection_graph(rep)
    assert time.perf_counter() - start < 2.0
    assert [(u, v, count) for u, v, count, _ in _reference_crossings(rep) if count] == \
        [(u, v, 1) for u, v in sorted(graph.edges)]
