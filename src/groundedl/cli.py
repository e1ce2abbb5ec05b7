"""Command-line interface.

Exit codes: 0 success or positive answer (member, pattern found,
verification ok, feasible), 1 negative answer (non-member, no match,
verification failed, infeasible), 2 usage or input error, 3 search
budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .extensions import (GADGET_IDS, cycle_extension, extend_lj_representation,
                         gadget, run_gadget_checks)
from .formats import (emit_representation, parse_graph, parse_representation)
from .builders import build_grounded_l, build_mpt
from .geometry import verify
from .oracles import (CLASS_GROUNDED_L, CLASS_GROUNDED_LJ, CLASS_INTERVAL,
                      CLASS_MPT, lj_feasible, recognize)
from .ordered import (INT_PAT, MPT_PAT, P1, P2, SearchBoundExceeded,
                      avoids_patterns, enumerate_avoiding_orders,
                      find_pattern_occurrences)
from .svg import render_svg

PATTERNS = {"P1": P1, "P2": P2, "MPT": MPT_PAT, "INT": INT_PAT}
CLASSES = {
    "grounded-l": CLASS_GROUNDED_L,
    "mpt": CLASS_MPT,
    "interval": CLASS_INTERVAL,
    "grounded-lj": CLASS_GROUNDED_LJ,
}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str):
    return parse_graph(_read(path))


def _dump(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_match(args) -> int:
    og = _load_graph(args.graph)
    pattern = PATTERNS[args.pattern]
    if avoids_patterns(og, (pattern,)):
        # the brute-force listing below tries every position tuple
        return 1
    limit = None if args.all else 1
    matches = find_pattern_occurrences(og, pattern, limit=limit)
    for m in matches:
        _dump({"positions": list(m.positions),
               "vertices": [og.vertex_at(p) for p in m.positions]})
    return 0 if matches else 1


def cmd_orders(args) -> int:
    og = _load_graph(args.graph)
    patterns = [PATTERNS[name] for name in args.patterns.split(",") if name]
    orders = enumerate_avoiding_orders(og.graph, patterns, limit=args.limit,
                                       dedupe_equivalence=args.dedupe)
    for order in orders:
        _dump({"order": list(order.perm)})
    return 0 if orders else 1


def cmd_recognize(args) -> int:
    og = _load_graph(args.graph)
    result = recognize(og.graph, CLASSES[args.cls], budget=args.budget)
    payload = {"member": result.member, "budget_exhausted": result.budget_exhausted}
    if result.order is not None:
        payload["order"] = list(result.order.perm)
    if result.representation is not None:
        payload["representation"] = json.loads(emit_representation(result.representation))
    _dump(payload)
    if result.budget_exhausted:
        return 3
    return 0 if result.member else 1


def cmd_build(args) -> int:
    og = _load_graph(args.graph)
    build = {"grounded-l": build_grounded_l, "mpt": build_mpt}[args.cls]
    print(emit_representation(build(og)), end="")
    return 0


def cmd_verify(args) -> int:
    og = _load_graph(args.graph)
    rep = parse_representation(_read(args.representation))
    report = verify(rep, og)
    _dump({
        "ok": report.ok,
        "missing_edges": [list(e) for e in report.missing_edges],
        "extra_edges": [list(e) for e in report.extra_edges],
        "induced": list(report.induced.perm) if report.induced else None,
        "degeneracies": list(report.degeneracies),
    })
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    og = _load_graph(args.graph)
    allowed = ("L",) if args.types == "l" else ("L", "J")
    cert = lj_feasible(og, allowed)
    if cert is None:
        print("infeasible")
        return 1
    _dump({"types": list(cert.types), "depth_ranks": list(cert.depth_ranks),
           "cutoffs": list(cert.cutoffs)})
    return 0


def cmd_extend(args) -> int:
    og = _load_graph(args.graph)
    rep = parse_representation(_read(args.representation))
    ext = cycle_extension(og, args.attachment)
    print(emit_representation(extend_lj_representation(rep, og, ext)), end="")
    return 0


def cmd_gadget(args) -> int:
    record = gadget(args.id.upper())
    payload = {
        "id": record.id,
        "n": record.n,
        "known_edges": [list(e) for e in sorted(record.known_edges)],
        "known_nonedges": [list(e) for e in sorted(record.known_nonedges)],
        "order": list(record.order.perm),
        "figure_dependent": record.figure_dependent,
        "claims": [{"name": c.name, "checked": c.checked} for c in record.claims],
    }
    code = 0
    if args.check:
        results = run_gadget_checks(record)
        payload["checks"] = results
        if any(status == "checked-fail" for status in results.values()):
            code = 1
    _dump(payload)
    return code


def cmd_render(args) -> int:
    rep = parse_representation(_read(args.representation))
    svg = render_svg(rep, width=args.width, labels=args.labels)
    Path(args.output).write_text(svg, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundedl",
        description="Grounded L/J, MPT, and segment representations: "
                    "pattern matching, builders, oracles, verification, rendering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="find pattern occurrences in an ordered graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-p", "--pattern", required=True, choices=sorted(PATTERNS))
    p.add_argument("--all", action="store_true", help="list all occurrences")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("orders", help="enumerate pattern-avoiding vertex orders")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--patterns", required=True, help="comma-separated pattern names")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--dedupe", action="store_true",
                   help="one order per shift/reversal equivalence class")
    p.set_defaults(func=cmd_orders)

    p = sub.add_parser("recognize", help="decide class membership")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--class", dest="cls", required=True, choices=sorted(CLASSES))
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("build", help="build a representation for the given order")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--class", dest="cls", required=True, choices=["grounded-l", "mpt"])
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a representation against an ordered graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-r", "--representation", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="{L,J} feasibility for the given order")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--types", required=True, choices=["l", "lj"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("extend", help="extend a representation by a grounded cycle")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-r", "--representation", required=True)
    p.add_argument("--attachment", default="single", choices=["single"])
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("gadget", help="separation gadget registry")
    p.add_argument("--id", required=True, choices=[g.lower() for g in GADGET_IDS])
    p.add_argument("--check", action="store_true", help="run the checkable claims")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("render", help="render a representation to SVG")
    p.add_argument("-r", "--representation", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
