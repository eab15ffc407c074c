"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: output must be byte-stable for identical input so
charts can be diffed in CI, which rules out plotting libraries that embed
generated ids or timestamps.
"""

from __future__ import annotations

import math

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 160  # room for the legend
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
TICKS = 5  # per axis, both ends included
X_LABEL = "round"

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    y_label: str,
) -> str:
    """Render labeled series as one SVG line chart; NaN points are skipped.

    Raises ValueError when the values of an axis span more than the float range.
    """
    cleaned = [
        (label, [(x, y) for x, y in pts if not math.isnan(y)])
        for label, pts in series
    ]
    xs = [x for _, pts in cleaned for x, _ in pts]
    ys = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = _bounds(xs)
    y_lo, y_hi = _bounds(ys)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(
        f'<path d="M {x0} {MARGIN_TOP} L {x0} {y0} L {x0 + plot_w} {y0}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_esc(X_LABEL)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">{_esc(y_label)}</text>'
    )

    # series polylines + legend
    legend_x = WIDTH - MARGIN_RIGHT + 20
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        ly = MARGIN_TOP + 16 + 20 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_esc(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bounds(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if not math.isfinite(hi - lo):
        raise ValueError(f"values from {lo} to {hi} span more than the float range")
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


def _fmt(v: float) -> str:
    return format(v, ".4g")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
