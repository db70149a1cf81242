"""Deterministic CSV/JSON/SVG emission for all analyses.

Identical inputs produce byte-identical files: every CSV goes through the
one writer :func:`write_csv`, which prints each number as ``"%.17g" % x``
does (17 significant digits, so it round-trips) but array-wise; JSON
floats round-trip exactly, and row ordering is fixed by construction.

Array-wise, each number gets a 32-byte cell, built as four little-endian
64-bit words: the separator, sign, "0.000" and leading digit; digits 2..17
with the decimal point shifted in (two words); "e" and the signed exponent.
A per-layout mask of the 32 bytes keeps those ``%.17g`` prints.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from enum import Enum
from typing import Sequence

import numpy as np

from .rootcurves import RootCurve
from .simulation import ScanResult, Trajectory
from .spectral import Spectrum
from .svg import Series, render_plot


_BLOCK = 1 << 13  # values formatted at a time: 32-byte cells and masks, about 3 MB in all
# 10**k for _POW_MIN <= k <= _POW_MAX: the k = 16 - exp that magnitudes from
# 1e-273 to 1e280 scale by, the exponent's one-off correction included
_POW_MIN, _POW_MAX = -265, 290
# a cell's first word: separator, "-", "0.000" and the leading digit's "0"
_WORD0 = np.uint64(int.from_bytes(b",-0.0000", "little"))
_ONES, _POINT = np.uint64(2 ** 64 - 1), np.uint64(ord("."))


def _layout(form, count):
    """The bytes a cell keeps for ``count`` significant digits, in fixed form
    with exponent ``form - 4`` (form 0..20) or in exponent form with a 2- or
    3-digit exponent (form 21, 22).  Byte 0 is the separator, 1 the sign, 2..6
    "0.000" and 7 the leading digit.  Bytes 8..24 hold digits 2..17 and the
    point at byte 8 + q: q is the number of integer digits - 1 in fixed form
    at or above 1, 0 in exponent form and 16 (never kept) below 1.  Byte 25
    is "e" and 26..29 the signed exponent.  The sign byte is set per value."""
    keep = np.zeros(32, bool)
    keep[0] = True  # the separator
    if form < 4:
        keep[2:7 - form] = True  # "0." and zeros, below 1 in fixed form
        keep[7:7 + count] = True
    else:
        lead = form - 3 if form <= 20 else 1  # digits before the point
        keep[7:7 + lead] = True
        keep[7 + lead] = count > lead  # the point
        keep[8 + lead:8 + count] = True
    keep[25:30] = form > 20
    keep[27] = form == 22
    return keep


@functools.cache
def _tables():
    """10**k as hi + lo and Veltkamp's halves of hi, at k - _POW_MIN; the text
    of 0..9999 as 4-byte words; for exponents -330..330, the cell's last word
    ("e" and the signed exponent), the first layout row of its form and 8q;
    the trailing zeros of 0..9999; and the layouts, form by form."""
    def dd(k):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        return hi, (num * b - a * den) / (den * b)

    hi, lo = np.array([dd(k) for k in range(_POW_MIN, _POW_MAX + 1)]).T
    c = hi * 134217729.0
    head = c - (c - hi)
    digits = list(map("{:04d}".format, range(10000)))
    exps = range(-330, 331)
    forms = [21 + (abs(k) > 99) if k < -4 or k > 16 else k + 4 for k in exps]
    return (hi, head, hi - head, lo, np.frombuffer("".join(digits).encode(), "<u4"),
            np.frombuffer("".join(map("\0e{:+04d}\0\0".format, exps)).encode(), "<u8"),
            np.array(forms) * 18,
            np.array([16 if form < 4 else form - 4 if form <= 20 else 0 for form in forms],
                     np.uint64) * 8,
            np.array([4 - len(text.rstrip("0")) for text in digits]),
            np.array([_layout(form, count) for form in range(23) for count in range(18)]))


def _scale(m, k):
    """m * 10**k as p + t, p the rounded and t the rest of Dekker's product."""
    hi, head, tail, lo = _tables()[:4]
    i = k - _POW_MIN
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    p = m * hi[i]
    return p, ((mh * head[i] - p) + mh * tail[i] + ml * head[i]) + ml * tail[i] + m * lo[i]


def _cells(x):
    """The 32-byte cell of each value of x, written as four little-endian
    64-bit words in the byte order :func:`_layout` gives, and the mask of the
    bytes that print ``"," + "%.17g" % value``; and the mask of the values
    left to ``%``: nan, inf, above 1e280, a nonzero magnitude below 1e-273,
    or within 1e-6 of a tie in the 17th digit."""
    digits, exps, rows, points, trailing, layouts = _tables()[4:]
    x = np.ravel(x).astype(float, copy=False)
    a = np.abs(x)
    zero = a == 0
    slow = ~(a <= 1e280) | (a < 1e-273) & ~zero
    m = np.where(slow | zero, 1.0, a)
    exp = np.floor(np.log10(m)).astype(np.int64)
    p, t = _scale(m, 16 - exp)
    low = (p < 1e16) | ((p == 1e16) & (t < 0))  # exp is one off: m * 10**(16 - exp)
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))  # lies outside [1e16, 1e17)
    exp += high.astype(np.int64) - low
    fix = low | high
    if fix.any():
        p[fix], t[fix] = _scale(m[fix], 16 - exp[fix])
    slow |= np.abs(t - np.floor(t) - 0.5) < 1e-6
    d = p.astype(np.int64) + np.floor(t + 0.5).astype(np.int64)  # the 17 digits
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    exp += carry

    upper, lower = (half.astype(float) for half in np.divmod(d, 10 ** 8))
    lead = np.floor(upper / 1e8)  # the leading digit
    g = np.empty((2, len(x), 2), np.intp)  # digits 2..17, 4 at a time, as A and B take them
    (g1, g2), (g3, g4) = g.transpose(0, 2, 1)
    g1[:] = np.floor(upper / 1e4) - lead * 1e4
    g2[:] = upper - np.floor(upper / 1e4) * 1e4
    g3[:] = np.floor(lower / 1e4)
    g4[:] = lower - g3 * 1e4
    (z1, z2), (z3, z4) = trailing.take(g).transpose(0, 2, 1)
    count = 17 - (z4 + (g4 == 0) * (z3 + (g3 == 0) * (z2 + (g2 == 0) * z1)))

    e = exp + 330
    keep = layouts.take(rows.take(e) + count, axis=0)
    keep[:, 1] = np.signbit(x)
    # A and B hold digits 2..9 and 10..17, a byte each.  Read as one 128-bit
    # word, digits keep their byte below bit s, move up one byte above it,
    # and the point fills byte s / 8: (A & below) | (A << 8 & above) | point.
    # Shifts by 64 or more give 0.  Byte 24 is kept only when it holds digit 17.
    A, B = digits.take(g).view("<u8")[:, :, 0]
    s = points.take(e)
    cells = np.empty((len(x), 4), "<u8")
    cells[:, 0] = np.where(zero, 0, lead).astype(np.uint64) << 56 | _WORD0
    above = _ONES << s
    cells[:, 1] = A & ~above | (A & above) << 8 | _POINT << s
    cells[:, 2] = (B & _ONES >> (128 - s) | (A >> 56 | B << 8) & _ONES << (np.maximum(s, 56) - 56)
                   | _POINT << (s - 64))  # s - 64 wraps to a shift past 64 when s < 64
    cells[:, 3] = B >> 56 | exps.take(e)
    return cells.view(np.uint8), keep, slow


def _row_cells(block):
    """A block's rows as cells of separators and text, with the mask of the
    bytes kept; and, in order, where the cell of each value left to ``%``
    starts in the rows laid end to end, and that value.  Strings are copied
    as they are; every number of the block goes through one :func:`_cells`
    call."""
    rows = len(block[0])
    numbers = [c.reshape(rows, -1) for c in block if c.dtype.kind != "U"] or [np.empty((rows, 0))]
    values = numbers[0] if len(numbers) == 1 else np.concatenate(numbers, axis=1)
    formatted = _cells(values)
    grids = [g.reshape(rows, -1, 32) for g in formatted[:2]]  # row, value, byte
    parts, starts, at, width = [], [], 0, 0
    for text, run in itertools.groupby(block, key=lambda c: c.dtype.kind == "U"):
        if text:
            for column in run:
                raw = column.astype(bytes)
                cells = np.full((rows, raw.itemsize + 1), 44, np.uint8)
                cells[:, 1:] = raw.view(np.uint8).reshape(rows, -1)
                parts.append((cells, cells != 0))
                width += cells.shape[1]
        else:  # adjacent number columns stay one slice
            count = sum(c[0].size for c in run)
            parts.append([g[:, at:at + count].reshape(rows, -1) for g in grids])
            starts.append(width + 32 * np.arange(count))
            at += count
            width += 32 * count
    cells, keep = parts[0] if len(parts) == 1 else [np.concatenate(p, axis=1) for p in zip(*parts)]
    slow = formatted[2]
    if not slow.any():  # most blocks
        return cells, keep, [], []
    row, value = np.divmod(np.flatnonzero(slow), values.shape[1])
    offsets = row * width + np.concatenate(starts)[value]
    return cells, keep, offsets.tolist(), np.ravel(values)[slow].tolist()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """The header line, then one line per row of ``columns``.

    A column is a 1-D array, or a 2-D array of adjacent columns.  Strings
    are copied as they are, and every other value is printed as a float,
    byte for byte as ``"%.17g" % x``: array-wise, in blocks of about
    ``_BLOCK`` values, except for the values :func:`_cells` leaves to ``%``,
    which are printed one by one into the cells around them.
    """
    columns = list(map(np.asarray, columns))
    step = max(1, _BLOCK // sum(math.prod(c.shape[1:]) for c in columns))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for r0 in range(0, len(columns[0]), step):
            cells, keep, offsets, slow = _row_cells([c[r0:r0 + step] for c in columns])
            cells[:, 0] = 10  # each row ends the line before it
            cells, keep = cells.ravel(), keep.ravel()
            start = 0
            for at, x in zip(offsets, slow):
                fh.write(cells[start:at + 1][keep[start:at + 1]].tobytes())  # to its separator
                fh.write(b"%.17g" % x)
                start = at + 32
            fh.write(cells[start:][keep[start:]].tobytes())
        fh.write(b"\n")


def canon(obj):
    """Plain-python copy of a result, for JSON output.

    A dataclass is written as its fields in order, an ``Enum`` as its
    value, a complex number as ``{"re", "im"}`` and a non-finite float as null.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": canon(obj.real), "im": canon(obj.imag)}
    if isinstance(obj, dict):
        return {k: canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(canon(obj), fh, indent=2)
        fh.write("\n")


# --- spectra -----------------------------------------------------------------

def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    """One row per root: m, phi, re, im, residual, each printed as ``%.17g``."""
    n, d = spectrum.eigenvalues.shape
    roots = spectrum.eigenvalues.ravel()
    write_csv(path, ("m", "phi", "re", "im", "residual"),
              [np.stack((np.repeat(np.arange(n), d), np.repeat(spectrum.phis, d), roots.real,
                         roots.imag, spectrum.residuals.ravel()), axis=1)])


# --- trajectories ------------------------------------------------------------

def write_trajectory_csv(path, traj: Trajectory) -> None:
    agents = range(1, traj.n_agents + 1)
    header = ["t", *(f"{q}_{k}" for q in "zv" for k in agents)]
    write_csv(path, header, (traj.times, traj.states))


_MAX_PLOTTED_AGENTS = 40


def trajectory_svg(traj: Trajectory) -> str:
    """Leader-relative deviations over time, one polyline per sampled vehicle:
    up to 40, evenly from the leader to the last vehicle."""
    n = traj.n_agents
    agents = np.round(np.linspace(0, n - 1, min(n, _MAX_PLOTTED_AGENTS))).astype(int)
    dev = traj.deviations(agents=agents)
    series = [Series(traj.times, column) for column in dev.T]
    return render_plot(
        series,
        title=f"leader-relative deviations (N={n}, line-type-{traj.bc.value})",
        xlabel="t",
        ylabel="z_k - z_leader",
    )


# --- scans -------------------------------------------------------------------

def _optional(values) -> list[str]:
    return ["" if value is None else "%.17g" % value for value in values]


def write_scan_csv(path, scan: ScanResult) -> None:
    points = scan.points
    write_csv(path, ("N", "magnitude", "log_abs_magnitude", "censored", "blowup_time"),
              ([p.N for p in points], _optional(p.magnitude for p in points),
               _optional(p.log_abs_magnitude for p in points), [p.censored for p in points],
               _optional(p.blowup_time for p in points)))


def scan_svg(scan: ScanResult) -> str:
    xs = np.array([p.N for p in scan.points if not p.censored], dtype=float)
    ys = np.array([p.log_abs_magnitude for p in scan.points if not p.censored])
    if len(xs) == 0:
        return render_plot(
            [Series(np.array([0.0]), np.array([0.0]), points=True)],
            title="transient magnitude vs flock size (all runs censored)",
            xlabel="N", ylabel="ln |magnitude|",
        )
    series = [Series(xs, ys, label="ln |magnitude|", points=True)]
    if np.isfinite(scan.slope):
        fit = scan.slope * xs + scan.intercept
        series.append(Series(xs, fit, label=f"fit slope {scan.slope:.4g}", dashed=True))
    return render_plot(series, title="transient magnitude vs flock size",
                       xlabel="N", ylabel="ln |magnitude|")


# --- root curves -------------------------------------------------------------

def write_rootcurves_csv(path, plus: RootCurve, minus: RootCurve) -> None:
    curves = (plus, minus)
    roots, predicted = (np.concatenate([getattr(c, name) for c in curves])
                        for name in ("roots", "predicted"))
    write_csv(path, ("t", "branch", "re", "im", "predicted_re", "predicted_im", "ratio"),
              (np.concatenate([c.t_grid for c in curves]),
               np.repeat([c.branch.name.lower() for c in curves], [len(c.roots) for c in curves]),
               np.stack((roots.real, roots.imag, predicted.real, predicted.imag,
                         np.concatenate([c.ratios for c in curves])), axis=1)))


def rootcurves_svg(plus: RootCurve, minus: RootCurve) -> str:
    series = []
    for curve, label in ((plus, "branch +"), (minus, "branch -")):
        predicted = curve.predicted
        series.append(Series(curve.roots.real, curve.roots.imag, label=label, points=True))
        series.append(Series(predicted.real, predicted.imag, dashed=True))
    return render_plot(series, title="tracked small roots vs predicted branches",
                       xlabel="Re", ylabel="Im")
