"""Grounded intersection representations of graphs.

Forbidden-pattern order machinery, exact-rational geometric shapes and
verification, constructive grounded-L / MPT builders, exhaustive {L, J}
feasibility oracles, cycle extensions, separation gadgets, document
formats, and SVG rendering.
"""

from .ordered import (Graph, LinearOrder, OrderedGraph, Pattern, PatternMatch,
                      SearchBoundExceeded, P1, P2, MPT_PAT, INT_PAT,
                      find_pattern_occurrences, avoids_patterns,
                      orders_equivalent, enumerate_avoiding_orders,
                      cycle_graph, path_graph, complete_graph, empty_graph,
                      complete_multipartite)
from .geometry import (Coord, coord, DegeneracyError, LShape, JShape,
                       MptLShape, SegmentShape, PolylineShape, Representation,
                       VerificationReport, GROUNDED_L, GROUNDED_LJ, MPT,
                       GROUNDED_SEG, GROUNDED_STRING, shape_crossings,
                       intersection_graph, induced_order, verify,
                       is_one_string, scale_representation)
from .builders import DepthLedger, build_grounded_l, build_mpt, realize_lj
from .oracles import (LjCertificate, RecognitionResult, lj_feasible, recognize,
                      CLASS_GROUNDED_L, CLASS_MPT, CLASS_INTERVAL,
                      CLASS_GROUNDED_LJ)
from .extensions import (CycleExtension, ConstructionFailed, cycle_extension,
                         extend_lj_representation, mirror_ordered,
                         concat_ordered, mirror_representation,
                         concat_representations, GadgetRecord, Claim, gadget,
                         GADGET_IDS, run_gadget_checks, search_completions)
from .formats import (GraphDocument, parse_graph_document, emit_graph_document,
                      parse_graph, emit_graph, parse_representation,
                      emit_representation)
from .svg import render_svg

__version__ = "0.1.0"
