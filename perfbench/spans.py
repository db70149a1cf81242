"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.installed()`` replaces every binding of each traced function in
the loaded ``flockstab`` modules (for example both ``flockstab.cli.simulate``
and ``flockstab.simulation.simulate``) with a wrapper that records a span,
and restores the originals on exit.  A span is ``(name, start, end,
parent, attrs)``; spans stay in memory until the run writes them out.
Parents come from a call stack, so calls must stay on one thread: run
with ``FLOCKSTAB_THREADS`` unset.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

#: module -> public functions wrapped in that module
TRACED = {
    "cli": ("cmd_check", "cmd_spectrum", "cmd_simulate", "cmd_scan",
            "cmd_rootcurves", "cmd_reproduce"),
    "simulation": ("simulate", "transient", "scan_N"),
    "model": ("load_spec", "assemble_periodic", "assemble_line"),
    "spectral": ("spectrum_periodic", "char_poly", "mode_roots", "classify"),
    "conditions": ("conditions",),
    "rootcurves": ("branch_curvature", "track_branches", "tangency_report"),
    "reports": ("write_json", "write_spectrum_csv", "write_trajectory_csv",
                "write_scan_csv", "write_rootcurves_csv", "trajectory_svg",
                "scan_svg", "rootcurves_svg"),
    "svg": ("render_plot",),
}

CSV_WRITERS = ("reports.write_spectrum_csv", "reports.write_trajectory_csv",
               "reports.write_scan_csv", "reports.write_rootcurves_csv")


def _simulate_attrs(sig):
    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        steps = int(round(a["t_max"] / a["dt"]))
        vehicles = a["spec"].n_types * a["n"]
        return {"vehicles": vehicles, "steps": steps, "vehicle_steps": vehicles * steps}
    return attrs


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    extra.update(attrs(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, extra)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in all loaded flockstab modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "flockstab" or key.startswith("flockstab."))]
        replaced = []
        try:
            for short, names in TRACED.items():
                owner = sys.modules[f"flockstab.{short}"]
                for fname in names:
                    original = getattr(owner, fname)
                    span = f"{short}.{fname}"
                    if span == "simulation.simulate":
                        attrs = _simulate_attrs(inspect.signature(original))
                    elif span in CSV_WRITERS:
                        attrs = _file_bytes
                    else:
                        attrs = None
                    wrapper = self._wrap(span, original, attrs)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def summarize(spans: list[tuple], selfs: list[float]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs."""
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _, extra), own in zip(spans, selfs):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
            else:
                row[f"{key}:{value}"] = row.get(f"{key}:{value}", 0) + 1
    return dict(out)


def has_ancestor(spans: list[tuple], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
