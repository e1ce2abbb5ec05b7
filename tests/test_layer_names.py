"""The benchmark's span tracer wraps public functions by name; a name
that no longer resolves silently drops that layer's metrics from the
traced results, so every listed name must stay a callable."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_funcs() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCS


def test_traced_layer_names_resolve_to_callables():
    names = _layer_funcs()
    assert names
    absent = []
    for name in names:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"groundedl.{module}"), func, None)):
            absent.append(name)
    assert absent == []
