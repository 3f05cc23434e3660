"""Minimal deterministic SVG line plots; no display stack required."""

from __future__ import annotations

import math
from typing import Sequence

_WIDTH, _HEIGHT = 760, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 20, 36, 56
_COLORS = ["#1f6fb2", "#d1495b", "#3f7d20", "#8d5a97", "#c07d1a", "#3b3b3b"]


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5  # about six ticks; line_plot widens a zero span first
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.6g}"


def line_plot(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a multi-series SVG line plot to ``path``; every finite (x, y) is a point."""
    finite_x = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    finite_y = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not finite_x or not finite_y:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(finite_x), max(finite_x)
    y_lo, y_hi = min(finite_y), max(finite_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f"{_esc(title)}</text>",
    ]
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">'
            f"{_fmt(xv)}</text>"
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{py:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.1f}" text-anchor="end">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>'
    )
    for si, (label, xs, ys) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(x) and math.isfinite(y))
        color = _COLORS[si % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = _MARGIN_T + 16 + 16 * si
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{_MARGIN_L + plot_w - 126}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 120}" y="{ly}">{_esc(label)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{_esc(ylabel)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
