"""Deterministic CSV/JSON/SVG emission for all analyses.

Identical inputs produce byte-identical files: every CSV goes through the
one writer :func:`write_csv`, which prints each number as ``"%.17g" % x``
does (17 significant digits, so it round-trips) but array-wise; JSON
floats round-trip exactly, and row ordering is fixed by construction.

Array-wise, each field gets one 32-byte cell and one row of the layout
table, the mask of the bytes kept.  A number's cell is four little-endian
64-bit words: the separator, sign, "0.000" and leading digit; digits 2..17
with the decimal point shifted in (two words); "e" and the signed exponent.
A string, and a number left to ``%``, is copied into its cell after the
separator and kept by a prefix layout, the cell's first L bytes, so a
string field holds at most 31 bytes.  One take, one boolean select and one
write print a block.

The writer keeps one block in flight: the calling thread formats the cells
of block k + 1 while one worker thread expands block k's masks, keeps the
masked bytes and writes them.  Blocks are written strictly in order, so
the bytes do not depend on the worker; the cost is one extra block held.
The last block, with nothing left to format beside it, is written by the
calling thread.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from enum import Enum
from typing import Sequence

import numpy as np

from .rootcurves import RootCurve
from .simulation import ScanResult, Trajectory
from .spectral import Spectrum
from .svg import Series, render_plot


# values formatted at a time: 32-byte cells and masks, about 3 MB in all,
# and one more block's cells and masks while the worker writes it
_BLOCK = 1 << 13
# 10**k for _POW_MIN <= k <= _POW_MAX: the k = 16 - exp that magnitudes from
# 1e-273 to 1e280 scale by, the exponent's one-off correction included
_POW_MIN, _POW_MAX = -265, 290
# a cell's first word: separator, "-", "0.000" and the leading digit's "0"
_WORD0 = np.uint64(int.from_bytes(b",-0.0000", "little"))
_ONES, _POINT = np.uint64(2 ** 64 - 1), np.uint64(ord("."))
_SIGNED = 23 * 18  # the first layout row of negative values: 23 forms of 0..17 digits
_PREFIX = 2 * _SIGNED  # layout row _PREFIX + L keeps a cell's first L bytes, L = 0..32


def _layout(form, count, negative):
    """The bytes a cell keeps for ``count`` significant digits, in fixed form
    with exponent ``form - 4`` (form 0..20) or in exponent form with a 2- or
    3-digit exponent (form 21, 22).  Byte 0 is the separator, 1 the sign, 2..6
    "0.000" and 7 the leading digit.  Bytes 8..24 hold digits 2..17 and the
    point at byte 8 + q: q is the number of integer digits - 1 in fixed form
    at or above 1, 0 in exponent form and 16 (never kept) below 1.  Byte 25
    is "e" and 26..29 the signed exponent.  Byte 1 is kept if ``negative``."""
    keep = np.zeros(32, bool)
    keep[0] = True  # the separator
    keep[1] = negative
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
    the trailing zeros of 0..9999; and the layouts, form by form, of
    positive values and then of negative ones, then the prefix layouts."""
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
            np.array([4 - len(text.rstrip("0")) for text in digits], np.int8),
            np.array([_layout(form, count, negative) for negative in (False, True)
                      for form in range(23) for count in range(18)]
                     + [np.arange(32) < length for length in range(33)]))


def _scale(m, k):
    """m * 10**k as p + t, p the rounded and t the rest of Dekker's product."""
    i = k - _POW_MIN
    hi, head, tail, lo = (table.take(i) for table in _tables()[:4])
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    return p, ((mh * head - p) + mh * tail + ml * head) + ml * tail + m * lo


def _cells(x):
    """The 32-byte cell of each value of x, written as four little-endian
    64-bit words in the byte order :func:`_layout` gives; the row of the
    layout table that keeps the bytes which print ``"," + "%.17g" % value``;
    and the mask of the values left to ``%``: nan, inf, above 1e280, a
    nonzero magnitude below 1e-273, or within 1e-6 of a tie in the 17th
    digit."""
    digits, exps, rows, points, trailing = _tables()[4:9]
    x = np.ravel(x).astype(float, copy=False)
    m = np.abs(x)  # the magnitude, 1.0 for zeros and the values left to %
    zero = m == 0
    slow = ~(m <= 1e280) | (m < 1e-273) & ~zero
    np.copyto(m, 1.0, where=slow | zero)
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

    upper = d // 10 ** 8
    lower = (d - upper * 10 ** 8).astype(float)
    upper = upper.astype(float)
    lead = np.floor(upper / 1e8)  # the leading digit
    head = np.floor(upper / 1e4)  # the first five digits
    g = np.empty((2, len(x), 2), np.intp)  # digits 2..17, 4 at a time, as A and B take them
    (g1, g2), (g3, g4) = g.transpose(0, 2, 1)
    g1[:] = head - lead * 1e4
    g2[:] = upper - head * 1e4
    g3[:] = np.floor(lower / 1e4)
    g4[:] = lower - g3 * 1e4
    (z1, z2), (z3, z4) = trailing.take(g).transpose(0, 2, 1)
    count = 17 - (z4 + (g4 == 0) * (z3 + (g3 == 0) * (z2 + (g2 == 0) * z1)))

    e = exp + 330
    layout = rows.take(e) + count + _SIGNED * np.signbit(x)
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
    return cells.view(np.uint8), layout, slow


def _print(cells, layouts, at, texts):
    """Copy each byte string of ``texts`` into the cell at its index in
    ``at``, after the separator, and keep it with the prefix layout row
    that keeps the separator and the string."""
    raw = np.ravel(np.asarray(texts, bytes))
    cells[at, 1:1 + raw.itemsize] = raw.view(np.uint8).reshape(len(raw), raw.itemsize)
    layouts[at] = _PREFIX + 1 + np.char.str_len(raw)


def _row_cells(block):
    """A block's rows as one 32-byte cell per field, and the row of the
    layout table that keeps each field's bytes.  Every number of the block
    goes through one :func:`_cells` call, a string field as a 0; the values
    it leaves to ``%``, printed with ``%``, and the strings are then copied
    into their own cells."""
    rows = len(block[0])
    fields = [c.reshape(rows, -1) for c in block]
    text = [f.dtype.kind == "U" for f in fields]
    numbers = [np.zeros(f.shape) if t else f for f, t in zip(fields, text)]
    values = numbers[0] if len(numbers) == 1 else np.concatenate(numbers, axis=1)
    cells, layouts, slow = _cells(values)
    if slow.any():  # a few blocks
        at = np.flatnonzero(slow)
        _print(cells, layouts, at, [b"%.17g" % x for x in np.ravel(values)[at].tolist()])
    if any(text):
        column = np.repeat(text, [f.shape[1] for f in fields])
        _print(cells, layouts, np.flatnonzero(np.tile(column, rows)),
               np.concatenate([f for f, t in zip(fields, text) if t], axis=1).astype(bytes))
    return cells.reshape(rows, -1), layouts.reshape(rows, -1)


def _write_block(fh, cells, layouts):
    """Write the rows :func:`_row_cells` made of a block: expand each
    field's layout row into its mask of bytes, keep the masked bytes and
    write them.  Only numpy's take, boolean select and the file write do
    the work, and they release the GIL, so this runs on a worker thread
    while the next block is formatted."""
    keep = _tables()[9].take(layouts, axis=0).reshape(cells.shape)
    cells[:, 0] = 10  # each row ends the line before it
    fh.write(cells[keep])


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """The header line, then one line per row of ``columns``.

    A column is a 1-D array, or a 2-D array of adjacent columns.  Strings
    are copied as they are, at most 31 bytes each: a longer one raises
    ``ValueError`` before the file is opened.  Every other value is printed
    as a float, byte for byte as ``"%.17g" % x``: array-wise, in blocks of
    about ``_BLOCK`` values, except for the values :func:`_cells` leaves to
    ``%``, which are printed one by one into their own cells.

    One block is in flight: while the calling thread formats block k + 1,
    one worker thread masks and writes block k (:func:`_write_block`).
    Blocks are written strictly in order, and the worker takes block k + 1
    only when block k is written, so the writer holds one extra block.  The
    calling thread writes the last block itself, as nothing is left to
    format beside it, so a CSV of one block starts no thread.  An error on
    either side ends the write, and the worker is joined first.
    """
    # imported here, so that importing flockstab does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    columns = list(map(np.asarray, columns))
    for c in columns:
        longest = np.char.str_len(c).max(initial=0) if c.dtype.kind == "U" else 0
        if longest > 31:
            raise ValueError(f"a CSV string field holds at most 31 bytes, not {longest}")
    rows = len(columns[0])
    step = max(1, _BLOCK // sum(math.prod(c.shape[1:]) for c in columns))
    with open(path, "wb") as fh, ThreadPoolExecutor(1) as worker:
        fh.write(",".join(header).encode())
        written = None
        for r0 in range(0, rows, step):
            block = _row_cells([c[r0:r0 + step] for c in columns])
            if written is not None:
                written.result()
            if r0 + step < rows:
                written = worker.submit(_write_block, fh, *block)
                del block  # freed once written, not once the next block is formatted
            else:
                _write_block(fh, *block)
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
