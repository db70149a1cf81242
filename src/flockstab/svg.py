"""Tiny dependency-free SVG plot writer (lines and scatter).

Each series is mapped to pixels as a whole array, then its coordinates are
printed array-wise, byte for byte as ``%.2f`` prints them (see
:func:`_print_points`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_WIDTH, _HEIGHT = 880, 540
_MARGIN = (64, 24, 46, 20)  # left, right, bottom, top
_POWERS = (10, 100, 1000, 10000)  # an integer part has 1 + (how many it reaches) digits


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


@functools.cache
def _tables():
    """The text of 0..10000 as 4-byte words (10000 as its last four digits)
    and of 0..99 as 2-byte words; and, by its digit count less one, the bytes
    of a number cell's leading "1" and 4-digit word that an integer part
    prints, as one 4-byte word of flags."""
    words = (np.arange(10001)[:, None] // (1000, 100, 10, 1) % 10 + 48).astype(np.uint8)
    pairs = np.ascontiguousarray(words[:100, 2:])
    shown = np.arange(4) >= 4 - np.arange(5)[:, None]
    return words.view(np.uint32)[:, 0], pairs.view(np.uint16)[:, 0], shown.view(np.uint32)[:, 0]


def _cents(v: np.ndarray) -> np.ndarray | None:
    """The integer ``%.2f`` rounds each value times 100 to, or None when a
    value is left to ``%``: one that is not finite, is negative (-0.0 too,
    which prints "-0.00"), is 1e4 or more, or lies within 1e-9 of a rounding
    tie, so no tie rule is needed here.

    The rounding is decided on the rounded product p = 100 v: below 1e6 it
    is within 5.8e-11 of the exact one, far inside that 1e-9 tie window.
    """
    if (np.signbit(v) | ~(v < 1e4)).any():
        return None
    p = v * 100.0
    whole = np.floor(p)
    frac = p - whole
    if (np.abs(frac - 0.5) < 1e-9).any():
        return None
    return whole.astype(np.int64) + (frac > 0.5)


def _print_points(x: np.ndarray, y: np.ndarray, head: str, mid: str, tail: str) -> str:
    """``head + "%.2f" + mid + "%.2f" + tail`` for each point, concatenated.

    Each point is a row of bytes: the template, with a cell "10000.00" at
    each coordinate that gets the number's 4-digit word and 2 digits.  The
    rows are cut down to the bytes ``%.2f`` prints with one boolean mask,
    which drops the leading zeros and, below 10000, the "1".  A series with
    a value :func:`_cents` leaves to ``%`` is printed with ``%``.
    """
    xy = np.stack((x, y), axis=1)
    cents = _cents(xy)
    if cents is None:
        return ((head + "%.2f" + mid + "%.2f" + tail) * len(xy)) % tuple(xy.ravel().tolist())
    words, pairs, shown = _tables()
    template = np.frombuffer(f"{head}10000.00{mid}10000.00{tail}".encode(), np.uint8)
    rows = np.empty((len(xy), len(template)), np.uint8)
    rows[:] = template
    keep = np.ones(rows.shape, bool)
    whole, part = np.divmod(cents, 100)
    for k, at in enumerate((len(head), len(head) + 8 + len(mid))):
        rows[:, at + 1:at + 5].view(np.uint32)[:, 0] = words.take(whole[:, k])
        rows[:, at + 6:at + 8].view(np.uint16)[:, 0] = pairs.take(part[:, k])
        count = np.searchsorted(_POWERS, whole[:, k], side="right")
        keep[:, at:at + 4].view(np.uint32)[:, 0] = shown.take(count)
    return rows[keep].tobytes().decode()


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
        x, y = px(np.asarray(s.x, dtype=float)), py(np.asarray(s.y, dtype=float))
        if s.points:
            parts.append(_print_points(x, y, '<circle cx="', '" cy="',
                                       f'" r="3" fill="{color}"/>'))
        else:
            coords = _print_points(x, y, "", ",", " ")[:-1]
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
