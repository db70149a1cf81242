"""The three workloads: the CLI jobs of one pass and their correctness gates.

A job is one ``flockstab`` command line, run in-process through
``flockstab.cli.main``.  Its gate reads what the command printed and wrote
and returns the list of problems found; a job with any problem counts as
failed.  The sizes here are part of each workload's definition.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: relative tolerance on the seed's peaks, scan slope and R^2
REL_TOL = 1e-9

#: largest pairing distance between the emitted per-mode roots and the
#: eigenvalues of the dense circle matrix (as in the acceptance suite)
ORACLE_TOL = 1e-6

#: reproduce targets of the simulation workloads: (N, RK4 steps) per run
REPRODUCE_RUNS = {"fig1a": [(180, 40_000)], "fig3b": [(100, 30_000)]}
SCAN_RUNS = {"fig2b": [(n, 300 * n) for n in (30, 60, 90, 120, 150, 180)]}

#: values the seed code computes; a faster program must reproduce them
REFERENCE = {
    "fig1a": {"magnitude": -220.98905076437833, "time_at_extremum": 244.70000000000002},
    "fig3b": {"magnitude": -73.0280702072152, "time_at_extremum": 78.38},
    "fig2b": {"slope": 0.03350915470398446, "r_squared": 0.9988743055724181},
}

SPECTRUM_SIZES = (48, 2000)
ORACLE_SIZE = 48


@dataclass
class Outcome:
    rc: object
    stdout: str
    stderr: str


@dataclass
class Job:
    name: str
    argv: list[str]
    out: Path
    gate: Callable[["Job", Outcome], list[str]]
    info: dict = field(default_factory=dict)


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= REL_TOL * abs(want)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gate_reproduce(job: Job, res: Outcome) -> list[str]:
    if res.rc != 0:
        return [f"exit {res.rc}: {res.stderr.strip()}"]
    report = _read_json(job.out / "report.json")
    problems = []
    if report.get("within_tolerance") is not True:
        problems.append(f"within_tolerance is {report.get('within_tolerance')}")
    computed = report["computed"]
    for key, want in REFERENCE[job.name].items():
        if not _close(computed[key], want):
            problems.append(f"{key} {computed[key]!r} differs from seed {want!r}")
    if job.name in SCAN_RUNS:
        points = computed["points"]
        if len(points) != len(SCAN_RUNS[job.name]):
            problems.append(f"{len(points)} scan points")
        censored = [p["N"] for p in points if p["log_abs_magnitude"] is None]
        if censored:
            problems.append(f"censored scan points at N={censored}")
    else:
        job.info["published_rel_err"] = max(report["relative_error"].values())
    return problems


def _gate_check(job: Job, res: Outcome) -> list[str]:
    want = 0 if job.info["on_manifold"] else 2
    if res.rc != want:
        return [f"exit {res.rc}, expected {want}: {res.stderr.strip()}"]
    printed = json.loads(res.stdout)
    written = _read_json(job.out / "conditions.json")
    if printed != written:
        return ["printed report differs from conditions.json"]
    return []


def _gate_spectrum(job: Job, res: Outcome) -> list[str]:
    if res.rc != 0:
        return [f"exit {res.rc}: {res.stderr.strip()}"]
    status = _read_json(job.out / "verdict.json")["status"]
    problems = []
    expected = job.info["expected_verdict"]
    if expected is not None and status != expected:
        problems.append(f"verdict {status}, paper says {expected}")
    if not job.info["on_manifold"] and status == "stable":
        problems.append("classified stable although check certifies instability")
    n = job.info["n"]
    modes, rows = set(), []
    with open(job.out / "spectrum.csv", encoding="utf-8") as fh:
        next(fh)
        for row in csv.reader(fh):
            modes.add(row[0])
            if n == ORACLE_SIZE:
                rows.append(row)
    if len(modes) != n:
        problems.append(f"spectrum.csv has {len(modes)} modes, expected {n}")
    if n == ORACLE_SIZE:
        distance = _oracle_distance(job.info["spec"], n, rows)
        job.info["oracle_distance"] = distance
        if not distance <= ORACLE_TOL:
            problems.append(f"per-mode roots {distance:.3e} from the dense eigenvalues")
    return problems


def _oracle_distance(spec_path: Path, n: int, rows: list[list[str]]) -> float:
    """Largest distance of a one-to-one pairing of emitted and dense eigenvalues.

    Pairs greedily, closest first.  Any one-to-one pairing within the
    tolerance proves the two multisets agree to it, and the roots are
    accurate to ~1e-8, far inside ORACLE_TOL, so greedy order cannot turn
    a match into a miss.  The acceptance suite's optimal assignment needs
    scipy, whose import alone would double this process's peak RSS.
    """
    import numpy as np

    from flockstab.model import assemble_periodic, load_spec

    spec = load_spec(spec_path)
    modal = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    dense = np.linalg.eigvals(assemble_periodic(spec, n).entries)
    if len(modal) != len(dense):
        return float("inf")
    cost = np.abs(dense[:, None] - modal[None, :])
    worst = 0.0
    for _ in range(len(dense)):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        worst = max(worst, float(cost[i, j]))
        cost[i, :] = np.inf
        cost[:, j] = np.inf
    return worst


def _gate_rootcurves(job: Job, res: Outcome) -> list[str]:
    if res.rc != 0:
        return [f"exit {res.rc}: {res.stderr.strip()}"]
    tangency = _read_json(job.out / "rootcurves.json")["tangency"]
    failed = [branch for branch, rep in tangency.items() if not rep["passed"]]
    return [f"tangency fails on branch {b}" for b in failed]


class Workload:
    """One workload: its jobs per pass and the work a pass does."""

    name: str
    work_unit: str

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def jobs(self, out: Path) -> list[Job]:
        raise NotImplementedError

    @property
    def work(self) -> int:
        raise NotImplementedError


class Reproduce(Workload):
    runs = REPRODUCE_RUNS
    work_unit = "vehicle-steps"

    def jobs(self, out: Path) -> list[Job]:
        return [Job(fig, ["reproduce", fig, "--out", str(out)], out / fig, _gate_reproduce)
                for fig in self.runs]

    @property
    def work(self) -> int:
        return sum(n * steps for runs in self.runs.values() for n, steps in runs)


class ReproduceTargets(Reproduce):
    name = "reproduce-targets"


class SizeScan(Reproduce):
    name = "size-scan"
    runs = SCAN_RUNS


class SpectrumSweep(Workload):
    name = "spectrum-sweep"
    work_unit = "modes"

    def __init__(self, inputs: Path):
        super().__init__(inputs)
        self.specs = _read_json(inputs / "inputs.json")["specs"]

    def jobs(self, out: Path) -> list[Job]:
        jobs = []
        for entry in self.specs:
            spec = self.inputs / entry["file"]
            base = out / entry["name"]
            info = {"spec": spec, "on_manifold": entry["on_manifold"],
                    "expected_verdict": entry["expected_verdict"]}
            jobs.append(Job(f"{entry['name']}/check",
                            ["check", "--spec", str(spec), "--out", str(base / "check")],
                            base / "check", _gate_check, dict(info)))
            for n in SPECTRUM_SIZES:
                jobs.append(Job(f"{entry['name']}/spectrum-{n}",
                                ["spectrum", "--spec", str(spec), "--n", str(n),
                                 "--out", str(base / f"spectrum-{n}")],
                                base / f"spectrum-{n}", _gate_spectrum, dict(info, n=n)))
            # branch tracking needs a0'(0) != 0, i.e. a spec off the manifold
            if not entry["on_manifold"]:
                jobs.append(Job(f"{entry['name']}/rootcurves",
                                ["rootcurves", "--spec", str(spec),
                                 "--out", str(base / "rootcurves")],
                                base / "rootcurves", _gate_rootcurves, dict(info)))
        return jobs

    @property
    def work(self) -> int:
        return len(self.specs) * sum(SPECTRUM_SIZES)


WORKLOADS = {w.name: w for w in (ReproduceTargets, SizeScan, SpectrumSweep)}
