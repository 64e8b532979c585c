"""Standalone SVG line plots for the spectral-gap curves (no plotting deps)."""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _widened(lo: float, hi: float) -> tuple:
    """A one-value axis [v, v] as [v - 0.5, v + 0.5], or, where 0.5 rounds
    away next to v, as v -+ |v| 2^-50 (at least four ulps each side)."""
    if hi != lo:
        return lo, hi
    margin = 0.5 if lo + 0.5 > lo - 0.5 else abs(lo) * 2.0 ** -50
    if hi + margin == math.inf:  # the same width, all of it below v
        return lo - 2.0 * margin, hi
    return lo - margin, hi + margin


def regime_svg(thetas, series, crossings=(), title="", scale="linear") -> str:
    """An 800x600 SVG with the given curves over theta: a linear y axis, and a
    theta axis that is linear or, with ``scale="log"``, places the points,
    ticks and markers by ln theta.

    ``series`` is a list of (label, values) pairs; ``crossings`` marks
    activities with dashed vertical lines.  A single data point renders as
    dots instead of paths.  ValueError when there is no data, or when an
    axis's span is not a positive double.
    """
    place, shown = (math.log, math.exp) if scale == "log" else (float, float)
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValueError("no data to plot")
    ys = [v for _, values in series for v in values]
    x_lo, x_hi = _widened(place(min(thetas)), place(max(thetas)))
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    y_lo, y_hi = _widened(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    for axis, lo, hi in (("theta", x_lo, x_hi), ("the curves", y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:  # else every coordinate is nan or a division by 0
            raise ValueError(f"{axis} range [{lo:.6g}, {hi:.6g}] cannot be drawn in doubles")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (place(x) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for x in map(shown, _ticks(x_lo, x_hi)):
        parts.append(
            f'<line x1="{sx(x):.2f}" y1="{_MARGIN_T + plot_h}" x2="{sx(x):.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{sx(x):.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:.3g}</text>'
        )
    for y in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{sy(y):.2f}" x2="{_MARGIN_L}" '
            f'y2="{sy(y):.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{sy(y):.2f}" text-anchor="end" dy="4" '
            f'font-family="sans-serif" font-size="11">{y:.3g}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">theta</text>'
    )
    # zero line
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{sy(0.0):.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{sy(0.0):.2f}" stroke="#888" stroke-width="1" stroke-dasharray="2,3"/>'
        )
    for x in crossings:
        parts.append(
            f'<line x1="{sx(x):.2f}" y1="{_MARGIN_T}" x2="{sx(x):.2f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#555" stroke-width="1" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{sx(x) + 4:.2f}" y="{_MARGIN_T + 14}" font-family="sans-serif" '
            f'font-size="11" fill="#555">{x:.4g}</text>'
        )
    for idx, (label, values) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        if len(thetas) == 1:
            parts.append(
                f'<circle cx="{sx(thetas[0]):.2f}" cy="{sy(values[0]):.2f}" r="4" fill="{color}"/>'
            )
        else:
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(thetas, values))
            parts.append(
                f'<path d="M {points.replace(" ", " L ")}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<rect x="{_MARGIN_L + 12}" y="{_MARGIN_T + 10 + 18 * idx}" width="14" '
            f'height="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 32}" y="{_MARGIN_T + 16 + 18 * idx}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
