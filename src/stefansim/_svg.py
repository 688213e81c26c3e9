"""Minimal self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math
import sys

_PALETTE = ("#1f6fb2", "#d1495b", "#3aa17e", "#8d6cab", "#c98a2b", "#5b5b5b")
#: ticks per axis, at most
_TICKS = 5


def _ticks(lo: float, hi: float):
    span = hi - lo
    # a rounding slop past hi keeps a multiple of the step that lands on it
    end = hi + 1e-12 * span
    ticks = []
    # an axis whose span or end overflows, or whose tick step would be
    # subnormal, gets its two ends
    if span / _TICKS >= sys.float_info.min and end < math.inf:
        step = 10 ** math.floor(math.log10(span / _TICKS))
        for mult in (1, 2, 5, 10):
            if span / (step * mult) <= _TICKS:
                step *= mult
                break
        # integer multiples of the step, held inside [lo, hi]: on an axis a
        # few ulps wide they round outside it and onto each other
        ticks = sorted({min(max(i * step, lo), hi)
                        for i in range(math.ceil(lo / step), math.floor(end / step) + 1)})
    return ticks or [lo, hi]


def line_plot(path, series, title="", xlabel="", ylabel=""):
    """Write a line plot; series is a list of (label, xs, ys)."""
    w, h = 640, 420
    ml, mr, mt, mb = 64, 16, 32, 44
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y == y and abs(y) < 1e300]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    # a flat axis widens by 1, or by an ulp where 1 would not change it
    if x1 <= x0:
        x1 = x0 + max(1.0, math.ulp(x0))
    if y1 <= y0:
        y1 = y0 + max(1.0, math.ulp(y0))
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

    def py(y):
        return h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{h-mb}" x2="{px(t):.1f}" y2="{mt}" '
            'stroke="#e0e0e0"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{h-mb+16}" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml}" y1="{py(t):.1f}" x2="{w-mr}" y2="{py(t):.1f}" '
            'stroke="#e0e0e0"/>'
        )
        parts.append(
            f'<text x="{ml-6}" y="{py(t)+4:.1f}" text-anchor="end">{t:.4g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{w-ml-mr}" height="{h-mt-mb}" '
        'fill="none" stroke="#444"/>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if y == y and abs(y) < 1e300
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{w-mr-8}" y="{mt+16+14*i}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{w/2:.0f}" y="{h-8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{h/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {h/2:.0f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
