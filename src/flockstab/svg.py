"""Tiny dependency-free SVG plot writer (lines and scatter).

Each series is mapped to pixels as a whole array, then printed in one
``%`` format with ``%.2f`` per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_WIDTH, _HEIGHT = 880, 540
_MARGIN = (64, 24, 46, 20)  # left, right, bottom, top


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    points: bool = False
    dashed: bool = False


def _limits(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def render_plot(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    width, height = _WIDTH, _HEIGHT
    left, right, bottom, top = _MARGIN
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = _limits(xs)
    y_lo, y_hi = _limits(ys)

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for t in np.linspace(x_lo, x_hi, 6):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#333"/>'
            f'<text x="{x:.1f}" y="{top + plot_h + 17}" text-anchor="middle">{t:.4g}</text>'
        )
    for t in np.linspace(y_lo, y_hi, 6):
        y = py(t)
        parts.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#333"/>'
            f'<text x="{left - 7}" y="{y + 4:.1f}" text-anchor="end">{t:.4g}</text>'
        )
    parts += [
        f'<text x="{width / 2:.0f}" y="15" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.0f})">{ylabel}</text>',
    ]

    legend_y = top + 14
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xs = px(np.asarray(s.x, dtype=float)).tolist()
        ys = py(np.asarray(s.y, dtype=float)).tolist()
        xy = [0.0] * (2 * len(xs))
        xy[::2], xy[1::2] = xs, ys
        if s.points:
            dot = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}"/>'
            parts.append((dot * len(xs)) % tuple(xy))
        else:
            coords = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"{dash}/>'
            )
        if s.label:
            parts.append(
                f'<line x1="{left + plot_w - 120}" y1="{legend_y}" '
                f'x2="{left + plot_w - 100}" y2="{legend_y}" stroke="{color}" '
                f'stroke-width="2"/>'
                f'<text x="{left + plot_w - 94}" y="{legend_y + 4}">{s.label}</text>'
            )
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)
