"""Minimal self-contained SVG renderers for the report artifacts.

Deterministic output: fixed canvas, no external resources, values formatted
with repr so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

W, H = 640, 480
MARGIN = 56


def _scale(values: Sequence[float]) -> tuple[float, float]:
    lo = min(values) if values else 0.0
    hi = max(values) if values else 1.0
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def _svg(x_label: str, y_label: str, title: str, parts: list[str]) -> str:
    """The elements in `parts` on the framed, titled and labelled canvas."""
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
            f'height="{H}" viewBox="0 0 {W} {H}">\n'
            f'<rect width="{W}" height="{H}" fill="white"/>\n'
            f'<text x="{W / 2}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>\n'
            f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle" '
            f'font-size="11">{x_label}</text>\n'
            f'<text x="14" y="{H / 2}" text-anchor="middle" '
            f'font-size="11" transform="rotate(-90 14 {H / 2})">'
            f'{y_label}</text>\n'
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{W - 2 * MARGIN}" '
            f'height="{H - 2 * MARGIN}" fill="none" stroke="black"/>\n'
            + "\n".join(parts) + "\n</svg>\n")


def _to_px(v: float, lo: float, hi: float, axis: str) -> float:
    frac = (v - lo) / (hi - lo)
    if axis == "x":
        return MARGIN + frac * (W - 2 * MARGIN)
    return H - MARGIN - frac * (H - 2 * MARGIN)


def scatter_svg(points: Sequence[tuple[float, float]], x_label: str,
                y_label: str, title: str) -> str:
    x_lo, x_hi = _scale([p[0] for p in points])
    y_lo, y_hi = _scale([p[1] for p in points])
    return _svg(x_label, y_label, title, [
        f'<circle cx="{_to_px(x, x_lo, x_hi, "x"):.2f}" '
        f'cy="{_to_px(y, y_lo, y_hi, "y"):.2f}" r="3" '
        f'fill="steelblue" fill-opacity="0.6"/>' for x, y in points])


def boxplot_svg(summaries, x_label: str, y_label: str, title: str) -> str:
    """One box per score bin from BinSummary records."""
    parts = []
    tops = [s.maximum for s in summaries if s.count]
    bots = [s.minimum for s in summaries if s.count]
    y_lo, y_hi = _scale(bots + tops)
    n = len(summaries)
    for i, s in enumerate(summaries):
        cx = MARGIN + (i + 0.5) / n * (W - 2 * MARGIN)
        half = 0.3 / n * (W - 2 * MARGIN)
        parts.append(f'<text x="{cx:.2f}" y="{H - MARGIN + 16}" '
                     f'text-anchor="middle" font-size="10">'
                     f'[{s.lo:.3g}, {s.hi:.3g}]</text>')
        if not s.count:
            continue
        y_min = _to_px(s.minimum, y_lo, y_hi, "y")
        y_max = _to_px(s.maximum, y_lo, y_hi, "y")
        y_q1 = _to_px(s.q1, y_lo, y_hi, "y")
        y_q3 = _to_px(s.q3, y_lo, y_hi, "y")
        y_med = _to_px(s.median, y_lo, y_hi, "y")
        parts += [f'<line x1="{cx:.2f}" y1="{y_min:.2f}" x2="{cx:.2f}" '
                  f'y2="{y_max:.2f}" stroke="black"/>',
                  f'<rect x="{cx - half:.2f}" y="{y_q3:.2f}" '
                  f'width="{2 * half:.2f}" height="{abs(y_q1 - y_q3):.2f}" '
                  f'fill="lightsteelblue" stroke="black"/>',
                  f'<line x1="{cx - half:.2f}" y1="{y_med:.2f}" '
                  f'x2="{cx + half:.2f}" y2="{y_med:.2f}" '
                  f'stroke="black" stroke-width="2"/>']
    return _svg(x_label, y_label, title, parts)


def hexbin_svg(cells, size: float, x_label: str, y_label: str,
               title: str) -> str:
    """Pointy-top hexagon cells shaded by mean metric (darker = higher)."""
    xs = [c.center_x for c in cells]
    ys = [c.center_y for c in cells]
    x_lo, x_hi = _scale([x - size for x in xs] + [x + size for x in xs])
    y_lo, y_hi = _scale([y - size for y in ys] + [y + size for y in ys])
    max_metric = max((c.mean_metric for c in cells), default=0.0) or 1.0
    px_per_unit = (W - 2 * MARGIN) / (x_hi - x_lo)
    r = size * px_per_unit
    parts = []
    for cell in cells:
        cx = _to_px(cell.center_x, x_lo, x_hi, "x")
        cy = _to_px(cell.center_y, y_lo, y_hi, "y")
        pts = []
        for k in range(6):
            ang = math.pi / 180.0 * (60.0 * k - 30.0)
            pts.append(f"{cx + r * math.cos(ang):.2f},"
                       f"{cy + r * math.sin(ang):.2f}")
        shade = 1.0 - 0.85 * min(cell.mean_metric / max_metric, 1.0)
        grey = int(round(255 * shade))
        parts.append(f'<polygon points="{" ".join(pts)}" '
                     f'fill="rgb({grey},{grey},{grey})" stroke="grey"/>')
    return _svg(x_label, y_label, title, parts)
