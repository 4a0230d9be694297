"""Minimal self-contained SVG line plots.

Reports must stay archivable single files, so plots are plain SVG text with
the plotted series embedded verbatim in a <desc> block; no plotting library,
no external references, no timestamps.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT, _MARGIN = 720, 440, 60


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_plot_svg(x, y, title: str, x_label: str, y_label: str) -> str:
    """Render one series as a polyline; returns the SVG document text.

    With no finite point the document keeps its frame, labels and data block
    and draws no ticks and no polyline.
    """
    pairs = [(float(a), float(b)) for a, b in zip(x, y) if math.isfinite(a) and math.isfinite(b)]
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    x_lo, x_hi = min(xs, default=0.0), max(xs, default=0.0)
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    inner_w = _WIDTH - 2 * _MARGIN
    inner_h = _HEIGHT - 2 * _MARGIN

    def sx(a: float) -> float:
        return _MARGIN + (a - x_lo) / x_span * inner_w

    def sy(b: float) -> float:
        return _HEIGHT - _MARGIN - (b - y_lo) / y_span * inner_h

    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pairs)
    data_lines = "\n".join(f"{a!r},{b!r}" for a, b in zip(x, y))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<desc>{escape(x_label)},{escape(y_label)}\n{escape(data_lines)}</desc>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{escape(title)}</text>',
    ]
    for t in _ticks(x_lo, x_hi) if pairs else ():
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_MARGIN}" x2="{px:.2f}" y2="{_HEIGHT - _MARGIN}" stroke="#ddd"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" font-size="11">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi) if pairs else ():
        py = sy(t)
        parts.append(f'<line x1="{_MARGIN}" y1="{py:.2f}" x2="{_WIDTH - _MARGIN}" y2="{py:.2f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_MARGIN - 6}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{t:.4g}</text>')
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{inner_w}" height="{inner_h}" fill="none" stroke="#333"/>'
    )
    if pairs:
        parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="13">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_HEIGHT / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_HEIGHT / 2:.0f})">{escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
