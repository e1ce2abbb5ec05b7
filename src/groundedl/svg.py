"""Deterministic SVG rendering of grounded representations.

Each shape is drawn as one polyline element through the points of its
polyline().  Output is plain string assembly with exact-decimal
coordinate formatting (integer arithmetic only), so identical input
yields byte-identical SVG on every platform and run.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import MPT, Representation

__all__ = ["render_svg"]

_PRECISION = 10 ** 4
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _fmt(value: Fraction) -> str:
    """Exact decimal with up to 4 places, trailing zeros stripped."""
    units = round(value * _PRECISION)  # nearest integer, ties to even
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, _PRECISION)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:04d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def render_svg(rep: Representation, width: int = 640, scale=None,
               labels: bool = False) -> str:
    """Render shapes, the grounding line, and (for MPT) the bend line.

    One polyline element per shape; anchors are labeled with vertex ids
    when labels is set.  width fixes the output pixel width unless an
    explicit scale (pixels per unit) is given.
    """
    pts = [p for s in rep.shapes.values() for p in s.polyline()]
    if pts:
        min_x = min(p[0] for p in pts)
        max_x = max(p[0] for p in pts)
        min_y = min(p[1] for p in pts)
        max_y = max(Fraction(0), max(p[1] for p in pts))
    else:
        min_x, max_x, min_y, max_y = Fraction(0), Fraction(4), Fraction(-2), Fraction(0)
    pad = Fraction(1, 2)
    min_x -= pad
    max_x += pad
    min_y -= pad
    max_y += pad
    span_x = max_x - min_x
    span_y = max_y - min_y
    if scale is None:
        scale = Fraction(width) / span_x
    else:
        scale = Fraction(scale)
        width = int(span_x * scale)
    height = span_y * scale

    def X(x: Fraction) -> str:
        return _fmt((x - min_x) * scale)

    def Y(y: Fraction) -> str:
        return _fmt((max_y - y) * scale)  # flip: SVG y grows downward

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(Fraction(width))}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(Fraction(width))} {_fmt(height)}">',
        f'  <line class="axis" x1="{X(min_x)}" y1="{Y(Fraction(0))}" '
        f'x2="{X(max_x)}" y2="{Y(Fraction(0))}" stroke="#888888" stroke-width="1"/>',
    ]
    if rep.kind == MPT:
        lo = max(min_x, -max_y)
        hi = min(max_x, -min_y)
        out.append(
            f'  <line class="bend-line" x1="{X(lo)}" y1="{Y(-lo)}" '
            f'x2="{X(hi)}" y2="{Y(-hi)}" stroke="#bbbbbb" stroke-width="1" '
            f'stroke-dasharray="4 3"/>')
    for idx, v in enumerate(sorted(rep.shapes)):
        shape = rep.shapes[v]
        points = " ".join(f"{X(x)},{Y(y)}" for x, y in shape.polyline())
        color = _PALETTE[idx % len(_PALETTE)]
        out.append(f'  <polyline class="shape" data-vertex="{v}" points="{points}" '
                   f'fill="none" stroke="{color}" stroke-width="2"/>')
        if labels:
            gx = shape.ground_x
            gy = Fraction(0) if shape.tag != "MPT_L" else -gx
            out.append(f'  <text class="label" x="{X(gx)}" y="{_fmt((max_y - gy) * scale - 4)}" '
                       f'font-size="12" text-anchor="middle">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
