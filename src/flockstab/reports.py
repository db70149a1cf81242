"""Deterministic CSV/JSON/SVG emission for all analyses.

Identical inputs produce byte-identical files: every CSV goes through the
one writer :func:`write_csv`, which prints each number with ``%.17g``
(17 significant digits, so it round-trips), JSON floats round-trip
exactly, and row ordering is fixed by construction.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .rootcurves import RootCurve
from .simulation import ScanResult, Trajectory
from .spectral import Spectrum
from .svg import Series, render_plot


def write_csv(path, header: Sequence[str], row_fmt: str, rows: Iterable[tuple]) -> None:
    """The header line, then ``row_fmt % row`` for each row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_fmt % row for row in rows)


def canon(obj):
    """Plain-python copy with floats normalized for stable JSON output."""
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
    if isinstance(obj, np.ndarray):
        return [canon(v) for v in obj.tolist()]
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(canon(obj), fh, indent=2)
        fh.write("\n")


# --- spectra -----------------------------------------------------------------

def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    n, d = spectrum.eigenvalues.shape
    roots = spectrum.eigenvalues.ravel()
    rows = zip(np.repeat(np.arange(n), d).tolist(),
               np.repeat(spectrum.phis, d).tolist(), roots.real.tolist(),
               roots.imag.tolist(), spectrum.residuals.ravel().tolist())
    write_csv(path, ("m", "phi", "re", "im", "residual"),
              "%d,%.17g,%.17g,%.17g,%.17g\n", rows)


# --- trajectories ------------------------------------------------------------

def write_trajectory_csv(path, traj: Trajectory) -> None:
    n = traj.n_agents
    header = (
        ["t"]
        + [f"z_{k + 1}" for k in range(n)]
        + [f"v_{k + 1}" for k in range(n)]
    )
    rows = ((t, *state.tolist()) for t, state in zip(traj.times.tolist(), traj.states))
    write_csv(path, header, ",".join(["%.17g"] * len(header)) + "\n", rows)


_MAX_PLOTTED_AGENTS = 40


def trajectory_svg(traj: Trajectory) -> str:
    """Leader-relative deviations over time, one polyline per sampled agent."""
    dev = traj.deviations()
    n = traj.n_agents
    step = max(1, int(np.ceil(n / _MAX_PLOTTED_AGENTS)))
    series = [
        Series(traj.times, dev[:, k]) for k in range(0, n, step)
    ]
    return render_plot(
        series,
        title=f"leader-relative deviations (N={n}, line-type-{traj.bc.value})",
        xlabel="t",
        ylabel="z_k - z_leader",
    )


# --- scans -------------------------------------------------------------------

def _optional(value) -> str:
    return "" if value is None else "%.17g" % value


def write_scan_csv(path, scan: ScanResult) -> None:
    rows = (
        (p.n_agents, _optional(p.magnitude), _optional(p.log_abs_magnitude),
         p.censored, _optional(p.blowup_time))
        for p in scan.points
    )
    write_csv(path, ("N", "magnitude", "log_abs_magnitude", "censored", "blowup_time"),
              "%d,%s,%s,%d,%s\n", rows)


def scan_svg(scan: ScanResult) -> str:
    xs = np.array([p.n_agents for p in scan.points if not p.censored], dtype=float)
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
    rows = []
    for curve in (plus, minus):
        roots, predicted = curve.roots, curve.predicted
        rows += zip(curve.t_grid.tolist(), [curve.branch.name.lower()] * len(roots),
                    roots.real.tolist(), roots.imag.tolist(), predicted.real.tolist(),
                    predicted.imag.tolist(), curve.ratios.tolist())
    write_csv(path, ("t", "branch", "re", "im", "predicted_re", "predicted_im", "ratio"),
              "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g\n", rows)


def rootcurves_svg(plus: RootCurve, minus: RootCurve) -> str:
    series = []
    for curve, label in ((plus, "branch +"), (minus, "branch -")):
        predicted = curve.predicted
        series.append(Series(curve.roots.real, curve.roots.imag, label=label, points=True))
        series.append(Series(predicted.real, predicted.imag, dashed=True))
    return render_plot(series, title="tracked small roots vs predicted branches",
                       xlabel="Re", ylabel="Im")
