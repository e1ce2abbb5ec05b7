"""Acceptance criteria, one test per criterion, each printing a pass line.

Exhaustive sweeps over "every graph and every vertex order" are run over
all labeled graphs under the natural order: an ordered graph (G, <) is
order-isomorphic to exactly one labeled graph with the natural order, and
every property checked here (pattern containment, builder output shape,
oracle feasibility) is invariant under order-preserving relabeling, so
this covers all isomorphism classes with all automorphism-reduced orders.
The literal all-orders product is additionally run in full at n <= 4.
"""

from __future__ import annotations

import time
from itertools import permutations

import pytest

from groundedl import (CLASS_GROUNDED_L, CLASS_INTERVAL, CLASS_MPT,
                       DegeneracyError, Graph, JShape, LinearOrder, LShape,
                       MptLShape, OrderedGraph, PolylineShape, Representation,
                       SegmentShape, avoids_patterns, build_grounded_l,
                       build_mpt, cycle_extension, cycle_graph,
                       complete_multipartite,
                       extend_lj_representation, find_pattern_occurrences,
                       gadget, induced_order, is_one_string, lj_feasible,
                       realize_lj, recognize, render_svg, run_gadget_checks,
                       shape_crossings, verify, GROUNDED_L, GROUNDED_STRING,
                       MPT_PAT, P1, P2)
from groundedl.formats import (emit_graph_document, emit_representation,
                               parse_graph_document, parse_representation)
from conftest import FIXTURES, all_graphs, natural


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_grounded_l_triple_equivalence():
    """avoids {P1,P2} <=> built rep verifies <=> L-only oracle feasible."""
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            og = natural(g)
            a = avoids_patterns(og, (P1, P2))
            b = verify(build_grounded_l(og), og).ok
            c = lj_feasible(og, ("L",)) is not None
            assert a == b == c, (n, sorted(g.edges), a, b, c)
            checked += 1
    # literal all-orders product at n <= 4
    for n in range(1, 5):
        for g in all_graphs(n):
            for perm in permutations(range(1, n + 1)):
                og = OrderedGraph(g, LinearOrder(perm))
                a = avoids_patterns(og, (P1, P2))
                b = verify(build_grounded_l(og), og).ok
                c = lj_feasible(og, ("L",)) is not None
                assert a == b == c
    _report("criterion 1",
            f"triple equivalence on {checked} ordered graphs (n <= 6), "
            "zero disagreements")


def test_criterion_2_gadget_i_exact(gadget_i):
    matches = find_pattern_occurrences(gadget_i, P2)
    assert [m.positions for m in matches] == [(1, 2, 3, 4)]
    assert lj_feasible(gadget_i, ("L",)) is None
    cert = lj_feasible(gadget_i, ("L", "J"))
    assert cert is not None
    rep = realize_lj(cert, gadget_i)
    assert verify(rep, gadget_i).ok
    assert is_one_string(rep)
    _report("criterion 2",
            "gadget (i): P2 at (1,2,3,4); L-only infeasible; {L,J} certificate "
            "realizes, verifies, and is 1-string")


def test_criterion_3_mpt_equivalence():
    checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            og = natural(g)
            assert avoids_patterns(og, (MPT_PAT,)) == verify(build_mpt(og), og).ok
            checked += 1
    _report("criterion 3",
            f"MPT pattern <=> builder verification on {checked} ordered graphs "
            "(n <= 6), zero disagreements")


def test_criterion_4_class_separations():
    c4 = cycle_graph(4)
    res_l = recognize(c4, CLASS_GROUNDED_L)
    assert res_l.member and verify(res_l.representation,
                                   OrderedGraph(c4, res_l.order)).ok
    res_m = recognize(c4, CLASS_MPT)
    assert res_m.member
    assert not recognize(c4, CLASS_INTERVAL).member
    k222 = complete_multipartite(2, 2, 2)
    for perm in permutations(range(1, 7)):
        og = OrderedGraph(k222, LinearOrder(perm))
        assert find_pattern_occurrences(og, MPT_PAT, limit=1)
    assert not recognize(k222, CLASS_MPT).member
    _report("criterion 4",
            "C4 in grounded-L and MPT, not interval; K_{2,2,2}: every one of "
            "the 720 orders contains the MPT pattern, non-member")


def test_criterion_5_cycle_extension(c4_good, gadget_i):
    instances = []
    rep_c4 = build_grounded_l(c4_good)
    instances.append((rep_c4, c4_good))
    cert = lj_feasible(gadget_i, ("L", "J"))
    instances.append((realize_lj(cert, gadget_i), gadget_i))
    for rep, og in instances:
        ext = cycle_extension(og, "single")
        assert ext.h.n == 6 * og.n
        cyc = set(ext.cycle_vertices)
        cyc_edges = {e for e in ext.h.edges if e[0] in cyc and e[1] in cyc}
        assert len(cyc_edges) == 5 * og.n
        for i in range(1, og.n + 1):
            nbrs = {v for e in ext.h.edges if i in e
                    for v in e if v != i and v in cyc}
            assert nbrs == {ext.cycle_id(5 * i)}
        core = {e for e in ext.h.edges if e[0] <= og.n and e[1] <= og.n}
        assert core == set(og.position_edges())
        start = time.monotonic()
        out = extend_lj_representation(rep, og, ext)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        for i in range(1, og.n + 1):
            assert out.shapes[i] is rep.shapes[og.vertex_at(i)]
        ind = induced_order(out)
        assert tuple(v for v in ind.perm if v <= og.n) == tuple(range(1, og.n + 1))
        assert verify(out, OrderedGraph(ext.h, ind)).ok
        assert is_one_string(out)
    _report("criterion 5",
            "cycle extensions of C4 and gadget (i): 6n vertices, attachment "
            "invariants, verified extension preserving originals bit-exactly, "
            "1-string, < 1 s each")


def test_criterion_6_oracle_soundness():
    realized = 0
    checked = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            og = natural(g)
            for allowed in (("L",), ("L", "J")):
                cert = lj_feasible(og, allowed)
                checked += 1
                if cert is None:
                    if allowed == ("L",):
                        assert find_pattern_occurrences(og, P1, limit=1) or \
                            find_pattern_occurrences(og, P2, limit=1)
                else:
                    rep = realize_lj(cert, og)
                    assert verify(rep, og).ok
                    realized += 1
    _report("criterion 6",
            f"{checked} oracle calls over all graphs n <= 5, both type sets; "
            f"{realized} certificates realized and verified; every L-only "
            "refusal coincides with a P1/P2 occurrence")


DEGENERATE_CASES = [
    ("equal depths, touching horizontals",
     lambda: shape_crossings(LShape(1, 1, 2), LShape(2, 1, 3))),
    ("equal depths, overlapping horizontals",
     lambda: shape_crossings(LShape(1, 2, 5), LShape(3, 2, 6))),
    ("horizontal endpoint on a vertical",
     lambda: shape_crossings(LShape(1, 1, 3), LShape(3, 2, 4))),
    ("segment tip on another segment",
     lambda: shape_crossings(SegmentShape(1, 3, -2), SegmentShape(2, 2, -1))),
    ("collinear segment overlap",
     lambda: shape_crossings(PolylineShape(((0, 0), (4, -4))),
                             PolylineShape(((1, 0), (2, -2), (3, -3))))),
    ("shared anchor abscissa",
     lambda: Representation(GROUNDED_L, {1: LShape(1, 1, 2), 2: LShape(1, 2, 3)})),
    ("zero-length vertical",
     lambda: LShape(1, 0, 2)),
    ("zero-length horizontal",
     lambda: LShape(1, 1, 1)),
    ("zero-length polyline piece",
     lambda: PolylineShape(((0, 0), (0, 0)))),
    ("segment tip on the grounding line",
     lambda: SegmentShape(1, 2, 0)),
    ("polyline self-intersection",
     lambda: PolylineShape(((0, 0), (2, -2), (2, -1), (0, -3)))),
    ("polyline interior touching the grounding line",
     lambda: PolylineShape(((0, 0), (1, 0)))),
]


def test_criterion_7_degeneracy_rejection():
    assert len(DEGENERATE_CASES) >= 10
    for label, action in DEGENERATE_CASES:
        with pytest.raises(DegeneracyError) as err:
            action()
        assert str(err.value), label
    # the pairwise cases are also reported (not thrown) by verify
    rep = Representation(GROUNDED_L, {1: LShape(1, 1, 2), 2: LShape(2, 1, 3)})
    og = OrderedGraph(Graph(2, frozenset({(1, 2)})), LinearOrder((1, 2)))
    report = verify(rep, og)
    assert not report.ok and report.degeneracies
    assert "overlap" in report.degeneracies[0] or "endpoint" in report.degeneracies[0]
    _report("criterion 7",
            f"{len(DEGENERATE_CASES)} degenerate configurations rejected, "
            "each naming its violation; pairwise cases also surface in reports")


def test_criterion_8_determinism_and_round_trips(gadget_i):
    for name in ("c4.graph", "gadget_i.graph", "k222.graph"):
        text = (FIXTURES / name).read_text()
        doc = parse_graph_document(text)
        assert parse_graph_document(emit_graph_document(doc)) == doc
    for name in ("c4_grounded_l.json", "c4_mpt.json", "gadget_i_lj.json"):
        text = (FIXTURES / name).read_text()
        rep = parse_representation(text)
        assert emit_representation(rep) == text
    rep = realize_lj(lj_feasible(gadget_i, ("L", "J")), gadget_i)
    assert render_svg(rep, labels=True) == render_svg(rep, labels=True)
    _report("criterion 8", "fixture parse<->emit identity, byte-stable SVG")


def test_unchecked_claims_are_registered():
    expected = {
        "T3I": "cycle-extension-not-grounded-l",
        "T3II": "cycle-extension-not-grounded-lj",
        "T3III": "cycle-extension-not-outer-1-string",
    }
    for gid, claim in expected.items():
        results = run_gadget_checks(gadget(gid))
        assert results[claim] == "asserted-by-paper"
        assert "checked-fail" not in results.values()
    _report("unchecked claims",
            "non-reproducible separation conclusions are registered and "
            "reported as asserted-by-paper")
