"""Metamorphic tests for the shape transforms: scaling, mirroring and
concatenation, over every grounded-L build with n <= 5 (natural order,
so builds of orders with a forbidden pattern fail verification too) and
the {L, J} witness of gadget I."""

from __future__ import annotations

from fractions import Fraction

import pytest

from groundedl import (JShape, LShape, OrderedGraph, build_grounded_l,
                       build_mpt, concat_ordered, concat_representations,
                       lj_feasible, mirror_ordered, mirror_representation,
                       realize_lj, scale_representation, verify)
from groundedl.geometry import _map_shape
from conftest import all_graphs, natural


def _lj_witness(og: OrderedGraph):
    return realize_lj(lj_feasible(og, ("L", "J")), og)


def _cases(gadget_i):
    yield _lj_witness(gadget_i), gadget_i
    for n in range(1, 6):
        for g in all_graphs(n):
            og = natural(g)
            yield build_grounded_l(og), og


def _shifted(edges, off: int) -> tuple:
    return tuple((u + off, v + off) for u, v in edges)


def test_verify_invariant_under_scaling(gadget_i):
    for rep, og in _cases(gadget_i):
        base = verify(rep, og)
        for factor in ("7/3", "1/5"):
            assert verify(scale_representation(rep, factor), og) == base


def test_mirror_verifies_against_mirrored_order(gadget_i):
    for rep, og in _cases(gadget_i):
        base = verify(rep, og)
        mirrored = verify(mirror_representation(rep), mirror_ordered(og))
        assert (mirrored.ok, mirrored.missing_edges, mirrored.extra_edges,
                mirrored.degeneracies) == \
               (base.ok, base.missing_edges, base.extra_edges, base.degeneracies)
        assert mirrored.induced == base.induced.reversed()


def test_concat_verifies_against_concatenated_orders(gadget_i):
    witness = _lj_witness(gadget_i)
    for rep, og in _cases(gadget_i):
        base = verify(rep, og)
        left = verify(concat_representations(rep, witness),
                      concat_ordered(og, gadget_i))
        assert (left.ok, left.missing_edges, left.extra_edges, left.degeneracies) == \
               (base.ok, base.missing_edges, base.extra_edges, base.degeneracies)
        right = verify(concat_representations(witness, rep),
                       concat_ordered(gadget_i, og))
        assert right.ok == base.ok and not right.degeneracies
        assert right.missing_edges == _shifted(base.missing_edges, gadget_i.n)
        assert right.extra_edges == _shifted(base.extra_edges, gadget_i.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mirror_ordered_swaps_l_and_j(n):
    for g in all_graphs(n):
        og = natural(g)
        mog = mirror_ordered(og)
        assert (lj_feasible(og, ("L",)) is None) == (lj_feasible(mog, ("J",)) is None)
        assert (lj_feasible(og, ("J",)) is None) == (lj_feasible(mog, ("L",)) is None)
        assert (lj_feasible(og) is None) == (lj_feasible(mog) is None)


def test_map_shape_round_trips_a_mirror(gadget_i):
    swap = {LShape: JShape, JShape: LShape}
    for rep, _ in _cases(gadget_i):
        for shape in rep.shapes.values():
            mirrored = _map_shape(shape, -1, 1, 0)
            assert type(mirrored) is swap[type(shape)]
            assert mirrored.polyline() == tuple((-x, y) for x, y in shape.polyline())
            assert _map_shape(mirrored, -1, 1, 0) == shape


def test_map_shape_round_trips_a_scaling_and_a_shift(gadget_i):
    third, dx = Fraction(1, 3), Fraction(5, 2)
    for n in range(1, 6):
        for g in all_graphs(n):
            for shape in build_mpt(natural(g)).shapes.values():
                assert _map_shape(_map_shape(shape, 3, 3, 0), third, third, 0) == shape
    for shape in _lj_witness(gadget_i).shapes.values():
        assert _map_shape(_map_shape(shape, 1, 1, dx), 1, 1, -dx) == shape
