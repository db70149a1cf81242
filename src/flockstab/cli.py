"""Batch command-line front end.

Loads flock specs from JSON, dispatches the analyses, and emits
deterministic CSV/JSON reports and SVG plots.  Exit codes: 0 on success
(for ``check``: necessary conditions hold), 2 when ``check`` certifies
instability, 1 on any input or usage error.

A ``cmd_*`` function only computes: it returns ``(files, summary, code)``,
where ``files`` maps an output name under ``--out`` to a CSV writer taking
the path, SVG text, or a JSON result.  :func:`main` runs every command alike:
load ``--spec``, refuse every output the command may write that exists
(unless ``--force``), run, create the directory, write the returned files,
print the summary.  A command that fails leaves no directory behind.

The parser is built once per process, on first use.  :func:`main` runs the
module's ``cmd_<name>`` binding at call time, so a function put in its place
(by a test or a tracer) after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import reports
from .conditions import CONDITION_TOL, Overall, conditions
from .errors import BlowUp, FlockstabError
from .figures import FIGURE_RUNS, PUBLISHED_TOLERANCE
from .model import BoundaryCondition, load_spec
from .rootcurves import (
    DEFAULT_GRID,
    angle_grid,
    orthogonality_angle,
    right_angle_deviation,
    tangency_report,
    track_branches,
)
from .simulation import DEFAULT_DT, default_horizon, scan_N, simulate, transient
from .spectral import classify, spectrum_periodic


def _simulation(spec, n, bc, t_max, dt):
    """The trajectory files and transient report of one line run, or its BlowUp."""
    try:
        traj = simulate(spec, n, bc, t_max, dt)
    except BlowUp as blow:
        return {}, blow
    return {"trajectory.csv": lambda path: reports.write_trajectory_csv(path, traj),
            "trajectory.svg": reports.trajectory_svg(traj)}, transient(traj)


def _scan(spec, bc, n_values, dt, t_max=None):
    """The N-scan result and its files."""
    result = scan_N(spec, bc, n_values, dt=dt, t_max=t_max)
    return result, {"scan.csv": lambda path: reports.write_scan_csv(path, result),
                    "scan.svg": reports.scan_svg(result)}


def cmd_check(args):
    report = conditions(args.spec, tol=args.tol)
    # encoded once: the summary, and with a final newline the file
    text = json.dumps(reports.canon(report), indent=2)
    files = {} if args.out is None else {"conditions.json": text + "\n"}
    code = 0 if report.overall is Overall.NECESSARY_CONDITIONS_HOLD else 2
    return files, text, code


def cmd_spectrum(args):
    spectrum = spectrum_periodic(args.spec, args.n)
    verdict = classify(spectrum)
    files = {"spectrum.csv": lambda path: reports.write_spectrum_csv(path, spectrum),
             "verdict.json": verdict}
    return files, (f"{verdict.status.value}: max Re = {verdict.max_real_part:.6g}, "
                   f"zero multiplicity {verdict.zero_multiplicity}"), 0


def cmd_simulate(args):
    t_max = args.tmax if args.tmax is not None else default_horizon(args.spec.n_types * args.n)
    files, rep = _simulation(args.spec, args.n, BoundaryCondition(args.bc), t_max, args.dt)
    if isinstance(rep, BlowUp):
        files["transient.json"] = {"blew_up": True, "time": rep.time, "norm": rep.norm}
        return files, f"blow-up at t={rep.time:.4f}", 0
    files["transient.json"] = {"blew_up": False, **reports.canon(rep)}
    return files, (f"magnitude {rep.magnitude:.6g} at t={rep.time_at_extremum:.4f} "
                   f"(agent {rep.agent_at_extremum}, converged={rep.converged})"), 0


def cmd_scan(args):
    n_values = [int(v) for v in args.N_list.split(",") if v.strip()]
    result, files = _scan(args.spec, BoundaryCondition(args.bc), n_values, args.dt, args.tmax)
    files["scan.json"] = result
    return files, f"slope {result.slope:.6g}, R^2 {result.r_squared:.4f}", 0


def cmd_rootcurves(args):
    grid = angle_grid(args.phi_min, args.phi_max, args.phi_points)
    plus, minus = track_branches(args.spec, grid)
    c = plus.c
    angle = orthogonality_angle(plus, minus)
    files = {
        "rootcurves.csv": lambda path: reports.write_rootcurves_csv(path, plus, minus),
        "rootcurves.svg": reports.rootcurves_svg(plus, minus),
        "rootcurves.json": {
            "curvature": c,
            "branch_angle_deg": angle,
            "right_angle_deviation_deg": right_angle_deviation(angle),
            "tangency": {curve.branch.name.lower(): tangency_report(curve)
                         for curve in (plus, minus)},
        },
    }
    return files, (f"c = {c:.6g}; branch angle {angle:.2f} deg "
                   f"(off right angles by {right_angle_deviation(angle):.3f} deg)"), 0


def _reproduce_outputs(args) -> list[str]:
    run = FIGURE_RUNS[args.figure]
    stem = "scan" if run.kind == "scan" else "trajectory"
    return [f"{run.figure}/{name}" for name in (f"{stem}.csv", f"{stem}.svg", "report.json")]


def cmd_reproduce(args):
    run = FIGURE_RUNS[args.figure]
    spec = run.spec()
    report: dict = {"figure": run.figure, "conditions": conditions(spec),
                    "tolerance": PUBLISHED_TOLERANCE}
    if run.kind == "scan":
        result, files = _scan(spec, run.bc, list(run.n_values), run.dt)
        report.update({
            "computed": result,
            "published": "exponential growth of |magnitude| with N",
            "within_tolerance": result.slope > 0.0 and result.r_squared > 0.9,
        })
    else:
        files, rep = _simulation(spec, run.n, run.bc, run.t_max, run.dt)
        if isinstance(rep, BlowUp):
            report.update({"blew_up": True, "time": rep.time, "within_tolerance": None})
        elif run.published_magnitude is None:
            report.update({"computed": rep, "published": None, "within_tolerance": None})
        else:
            mag, time = run.published_magnitude, run.published_time
            errors = {"magnitude": abs(rep.magnitude - mag) / abs(mag),
                      "time": abs(abs(rep.time_at_extremum) - abs(time)) / abs(time)}
            report.update({
                "computed": rep,
                "published": {"magnitude": mag, "time": time},
                "relative_error": errors,
                "within_tolerance": all(e <= PUBLISHED_TOLERANCE for e in errors.values()),
            })
    files["report.json"] = report
    summary = (f"{run.figure}: blow-up at t={report['time']:.3f}" if "blew_up" in report
               else f"{run.figure}: within_tolerance={report['within_tolerance']}")
    return {f"{run.figure}/{name}": content for name, content in files.items()}, summary, 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 through main, not 2
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flockstab",
        description="stability analysis of periodic heterogeneous vehicle formations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, outputs, help, spec=True, out_required=True):
        """A subcommand with the shared flags; ``outputs`` names every file it may write."""
        p = sub.add_parser(name, help=help)
        if spec:
            p.add_argument("--spec", type=Path, required=True, help="flock spec JSON")
        p.add_argument("--out", type=Path, required=out_required,
                       help="output directory (created if absent)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        p.set_defaults(outputs=outputs)
        return p

    p = command("check", ("conditions.json",),
                "evaluate the instability certificates", out_required=False)
    p.add_argument("--tol", type=float, default=CONDITION_TOL)

    p = command("spectrum", ("spectrum.csv", "verdict.json"),
                "per-mode spectrum and stability verdict")
    p.add_argument("--n", type=int, required=True, help="cells per agent type")

    p = command("simulate", ("trajectory.csv", "transient.json", "trajectory.svg"),
                "line simulation from the leader kick")
    p.add_argument("--n", type=int, required=True, help="cells per agent type")
    p.add_argument("--bc", type=int, choices=(1, 2), default=1)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--tmax", type=float, default=None)

    p = command("scan", ("scan.csv", "scan.json", "scan.svg"),
                "transient magnitude vs flock size")
    p.add_argument("--bc", type=int, choices=(1, 2), default=1)
    p.add_argument("--N-list", dest="N_list", required=True,
                   help="comma-separated total vehicle counts")
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--tmax", type=float, default=None,
                   help="fixed horizon (default 3N per run)")

    p = command("rootcurves", ("rootcurves.csv", "rootcurves.svg", "rootcurves.json"),
                "track the two small mode-polynomial roots")
    phi_min, phi_max, phi_points = DEFAULT_GRID
    p.add_argument("--phi-min", type=float, default=phi_min)
    p.add_argument("--phi-max", type=float, default=phi_max)
    p.add_argument("--phi-points", type=int, default=phi_points)

    p = command("reproduce", _reproduce_outputs,
                "rerun a bundled reference configuration", spec=False)
    p.add_argument("figure", choices=sorted(FIGURE_RUNS))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "spec" in args:
            args.spec = load_spec(args.spec)
        names = args.outputs(args) if callable(args.outputs) else args.outputs
        paths = {} if args.out is None else {name: args.out / name for name in names}
        for path in paths.values():
            if path.exists() and not args.force:
                raise FileExistsError(f"{path} exists; pass --force to overwrite")
        files, summary, code = globals()[f"cmd_{args.command}"](args)
        if not files.keys() <= paths.keys():
            raise RuntimeError(f"unclaimed outputs {sorted(files.keys() - paths.keys())}")
        for directory in dict.fromkeys(path.parent for path in paths.values()):
            directory.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if callable(content):
                content(paths[name])
            elif isinstance(content, str):
                paths[name].write_text(content, encoding="utf-8")
            else:
                reports.write_json(paths[name], content)
        print(summary)
        return code
    except (FlockstabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
