"""In-memory span tracing of groundedl's public functions.

`install` replaces each named function, in every groundedl module that
binds it, with a wrapper that records a span (name, start, end, parent,
op id) while the tracer is active.  Only names the modules export are
wrapped and src/ is never edited; a name that a later version no longer
has is reported as absent.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

#: Wrapped public functions, as <module>.<function> of the defining module.
LAYER_FUNCS = (
    "ordered.find_pattern_occurrences",
    "ordered.avoids_patterns",
    "ordered.enumerate_avoiding_orders",
    "ljmodel.greedy_cutoffs",
    "ljmodel.certificate_edges",
    "ljmodel.cover_sets",
    "geometry.verify",
    "geometry.is_one_string",
    "builders.build_grounded_l",
    "builders.build_mpt",
    "builders.realize_lj",
    "oracles.lj_feasible",
    "oracles.recognize",
    "extensions.cycle_extension",
    "extensions.extend_lj_representation",
    "extensions.run_gadget_checks",
    "extensions.search_completions",
    "formats.parse_graph",
    "formats.parse_representation",
    "formats.emit_representation",
    "svg.render_svg",
    "cli.main",
)

#: The root span of every timed op; its self time is work outside any layer.
OP_SPAN = "bench.op"


def _text_bytes(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _observe_verify(tracer, args, result):
    n = args[0].n
    tracer.count("geometry.verify.pairs", n * (n - 1) // 2)
    tracer.count("geometry.verify.ok", bool(result.ok))


def _observe_lj(tracer, args, result):
    tracer.count("oracles.lj_feasible.feasible", result is not None)


def _observe_recognize(tracer, args, result):
    tracer.count("oracles.recognize.member", bool(result.member))
    tracer.count("oracles.recognize.budget_exhausted", bool(result.budget_exhausted))


def _observe_enumerate(tracer, args, result):
    tracer.count("ordered.enumerate_avoiding_orders.orders_out", len(result))


def _observe_input(name):
    def observe(tracer, args, result):
        tracer.count(name + ".bytes", _text_bytes(args[0] if args else None))
    return observe


def _observe_output(name):
    def observe(tracer, args, result):
        tracer.count(name + ".bytes", _text_bytes(result))
    return observe


OBSERVERS = {
    "geometry.verify": _observe_verify,
    "oracles.lj_feasible": _observe_lj,
    "oracles.recognize": _observe_recognize,
    "ordered.enumerate_avoiding_orders": _observe_enumerate,
    "formats.parse_graph": _observe_input("formats.parse_graph"),
    "formats.parse_representation": _observe_input("formats.parse_representation"),
    "formats.emit_representation": _observe_output("formats.emit_representation"),
    "svg.render_svg": _observe_output("svg.render_svg"),
}

#: Ratios reported per layer: metric name -> (numerator count, calls of).
RATIOS = {
    "geometry.verify.ok_ratio": ("geometry.verify.ok", "geometry.verify"),
    "oracles.lj_feasible.feasible_ratio": ("oracles.lj_feasible.feasible",
                                           "oracles.lj_feasible"),
    "oracles.recognize.member_ratio": ("oracles.recognize.member",
                                       "oracles.recognize"),
    "oracles.recognize.budget_exhausted_ratio": (
        "oracles.recognize.budget_exhausted", "oracles.recognize"),
}

#: Plain counts reported per layer, with their units.
COUNTS = {
    "geometry.verify.pairs": "count",
    "ordered.enumerate_avoiding_orders.orders_out": "count",
    "formats.parse_graph.bytes": "bytes",
    "formats.parse_representation.bytes": "bytes",
    "formats.emit_representation.bytes": "bytes",
    "svg.render_svg.bytes": "bytes",
}


class Tracer:
    """Spans in parallel arrays; index i is one span."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def layer_totals(self) -> dict:
        """Per span name: calls, busy (outermost spans only) and self time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                row["busy_s"] += dur
        return out

    def write(self, path) -> None:
        """All spans as tab-separated name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n")


def _wrap(tracer: Tracer, name: str, fn, observe):
    sid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every LAYER_FUNCS name that exists; return (absent, switch).

    Each original is replaced wherever an imported groundedl module or the
    package binds it, so calls between modules (oracles -> verify, cli ->
    every command's imports) open nested spans.  switch(False) puts the
    originals back and switch(True) the wrappers again.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "groundedl" or name.startswith("groundedl.")]
    tracer.intern(OP_SPAN)
    absent = []
    patched = []
    for qual in LAYER_FUNCS:
        mod_name, fn_name = qual.split(".")
        try:
            original = getattr(importlib.import_module(f"groundedl.{mod_name}"), fn_name)
        except (ImportError, AttributeError):
            original = None
        if not callable(original):
            absent.append(qual)
            continue
        wrapper = _wrap(tracer, qual, original, OBSERVERS.get(qual))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr, original, wrapper))

    def switch(on: bool) -> None:
        for module, attr, original, wrapper in patched:
            setattr(module, attr, wrapper if on else original)

    switch(True)
    return absent, switch


def layer_metrics(tracer: Tracer, wall_s: float, absent) -> dict:
    """Per-layer metrics: calls, busy_s, self_s, share per wrapped name,
    plus the ratios and counts; absent names get no entry."""
    totals = tracer.layer_totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for qual in (OP_SPAN,) + LAYER_FUNCS:
        if qual in absent:
            continue
        row = totals[qual]
        if qual != OP_SPAN:
            put(f"{qual}.calls", row["calls"], "count")
            put(f"{qual}.busy_s", row["busy_s"], "s")
        put(f"{qual}.self_s", row["self_s"], "s")
        put(f"{qual}.share", row["self_s"] / wall_s if wall_s > 0 else 0.0, "ratio")
    for name, (num, of) in RATIOS.items():
        if of in absent:
            continue
        calls = totals[of]["calls"]
        put(name, tracer.counts.get(num, 0) / calls if calls else 0.0, "ratio")
    for name, unit in COUNTS.items():
        if name.rsplit(".", 1)[0] in absent:
            continue
        put(name, tracer.counts.get(name, 0), unit)
    return metrics
