"""Deterministic CSV/JSON/SVG emission for all analyses.

Identical inputs produce byte-identical files: every CSV goes through the
one writer :func:`write_csv`, which prints each number as ``"%.17g" % x``
does (17 significant digits, so it round-trips) but array-wise; JSON
floats round-trip exactly, and row ordering is fixed by construction.
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


_BLOCK = 1 << 13  # values formatted at a time: bounds the byte grids to about 3 MB
# 10**k for _POW_MIN <= k <= _POW_MAX: the k = 16 - exp that magnitudes from
# 1e-273 to 1e280 scale by, the exponent's one-off correction included
_POW_MIN, _POW_MAX = -265, 290
# Each float gets a cell of every byte ``%.17g`` may print, of which write_csv
# keeps those it does: separator, sign, "0.000" (fixed form below 1), the 17
# digits, ".", digits 2..17 again, 2 pad bytes, "e" and the signed exponent.
_CELL = np.frombuffer(b",-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"  e+000", np.uint8)


def _layout(form, count):
    """The bytes a cell keeps for ``count`` significant digits, in fixed form
    with exponent ``form - 4`` (form 0..20) or in exponent form with a 2- or
    3-digit exponent (form 21, 22).  Its sign byte is set per value."""
    keep = np.zeros(len(_CELL), bool)
    lead = form - 3 if 4 <= form <= 20 else 1  # digits before the point
    keep[0] = True  # the separator
    keep[24] = form > 3 and count > lead  # the point, unless "0." is printed
    if form < 4:
        keep[2:7 - form] = True  # "0." and zeros, below 1 in fixed form
    keep[7:7 + lead] = True
    keep[24 + lead:24 + count] = True
    keep[43:48] = form > 20
    keep[45] = form == 22
    return keep


@functools.cache
def _tables():
    """10**k as hi + lo and Veltkamp's halves of hi, at k - _POW_MIN; the text
    of 0..9999 and of the signed exponents as 4-byte words, the trailing zeros
    of 0..9999, and the layouts."""
    def dd(k):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        return hi, (num * b - a * den) / (den * b)

    hi, lo = np.array([dd(k) for k in range(_POW_MIN, _POW_MAX + 1)]).T
    c = hi * 134217729.0
    head = c - (c - hi)
    digits = list(map("{:04d}".format, range(10000)))
    words = ["".join(digits), "".join(map("{:+04d}".format, range(-330, 331)))]
    return (hi, head, hi - head, lo, *(np.frombuffer(w.encode(), np.uint32) for w in words),
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
    """The ``_CELL`` of each value of x and the mask of the bytes that print
    ``"," + "%.17g" % value``; and the mask of the values left to ``%``:
    nan, inf, above 1e280, a nonzero magnitude below 1e-273, or within 1e-6
    of a tie in the 17th digit."""
    digits, exps, trailing, layouts = _tables()[4:]
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
    g = np.empty((len(x), 5), np.intp)  # the leading digit, then 4 digits each
    g[:, 0] = np.floor(upper / 1e8)
    g[:, 1] = np.floor(upper / 1e4) - g[:, 0] * 1e4
    g[:, 2] = upper - np.floor(upper / 1e4) * 1e4
    g[:, 3] = np.floor(lower / 1e4)
    g[:, 4] = lower - g[:, 3] * 1e4
    zeros = trailing.take(g)
    count = 17 - (zeros[:, 4] + (g[:, 4] == 0) * (
        zeros[:, 3] + (g[:, 3] == 0) * (zeros[:, 2] + (g[:, 2] == 0) * zeros[:, 1])))

    form = np.where((exp < -4) | (exp > 16), 21 + (np.abs(exp) > 99), exp + 4)
    keep = layouts.take(form * 18 + count, axis=0)
    keep[:, 1] = np.signbit(x)
    cells = np.empty(keep.shape, np.uint8)
    cells[:] = _CELL
    words = cells.view(np.uint32)
    cells[:, 7] = np.where(zero, 48, 48 + g[:, 0])
    words[:, 2:6] = digits.take(g[:, 1:])
    cells[:, 25:41] = cells[:, 8:24]
    words[:, 11] = exps.take(exp + 330)
    return cells, keep, slow


def _row_cells(block):
    """A block's rows as cells of separators and text, with the masks of the
    bytes kept and of the values left to ``%``.  Strings are copied as they
    are; every number of the block goes through one :func:`_cells` call."""
    rows = len(block[0])
    numbers = [c.reshape(rows, -1) for c in block if c.dtype.kind != "U"] or [np.empty((rows, 0))]
    formatted = _cells(numbers[0] if len(numbers) == 1 else np.concatenate(numbers, axis=1))
    grids = [g.reshape(rows, -1, *g.shape[1:]) for g in formatted]  # row, value, byte
    parts, at = [], 0
    for text, run in itertools.groupby(block, key=lambda c: c.dtype.kind == "U"):
        if text:
            for column in run:
                raw = column.astype(bytes)
                cells = np.full((rows, raw.itemsize + 1), 44, np.uint8)
                cells[:, 1:] = raw.view(np.uint8).reshape(rows, -1)
                parts.append((cells, cells != 0, np.zeros((rows, 1), bool)))
        else:  # adjacent number columns stay one slice
            width = sum(c[0].size for c in run)
            parts.append([g[:, at:at + width].reshape(rows, -1) for g in grids])
            at += width
    return parts[0] if len(parts) == 1 else [np.concatenate(p, axis=1) for p in zip(*parts)]


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """The header line, then one line per row of ``columns``.

    A column is a 1-D array, or a 2-D array of adjacent columns.  Strings
    are copied as they are, and every other value is printed as a float,
    byte for byte as ``"%.17g" % x``: array-wise, in blocks of about
    ``_BLOCK`` values, except for the rows that hold a value :func:`_cells`
    leaves to ``%``.
    """
    columns = list(map(np.asarray, columns))
    step = max(1, _BLOCK // sum(math.prod(c.shape[1:]) for c in columns))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for r0 in range(0, len(columns[0]), step):
            block = [c[r0:r0 + step] for c in columns]
            cells, keep, slow = _row_cells(block)
            cells[:, 0] = 10  # each row ends the line before it
            start = 0
            for r in np.flatnonzero(slow.any(axis=1)):
                fh.write(cells[start:r][keep[start:r]].tobytes())
                fh.write(("\n" + ",".join(c[r] if c.dtype.kind == "U" else
                                          ",".join(map("%.17g".__mod__, np.ravel(c[r])))
                                          for c in block)).encode())
                start = r + 1
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
    """Leader-relative deviations over time, one polyline per sampled agent."""
    n = traj.n_agents
    step = max(1, int(np.ceil(n / _MAX_PLOTTED_AGENTS)))
    dev = traj.deviations(agents=slice(0, n, step))
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
