"""Batch command-line front end.

Loads flock specs from JSON, dispatches the analyses, and emits
deterministic CSV/JSON reports and SVG plots.  Exit codes: 0 on success
(for ``check``: necessary conditions hold), 2 when ``check`` certifies
instability, 1 on any input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import reports
from .conditions import CONDITION_TOL, Overall, conditions
from .errors import BlowUp, FlockstabError
from .figures import FIGURE_RUNS, PUBLISHED_TOLERANCE
from .model import BoundaryCondition, load_spec
from .rootcurves import (
    DEFAULT_GRID,
    angle_grid,
    branch_curvature,
    orthogonality_angle,
    right_angle_deviation,
    tangency_report,
    track_branches,
)
from .simulation import scan_N, simulate, transient
from .spectral import CLASSIFY_TOL, classify, spectrum_periodic


def _claim(out: Path, force: bool, *names: str) -> list[Path]:
    """The command's output paths, all refused before any work unless --force.

    The directory is created only once every path is free.
    """
    paths = [out / name for name in names]
    for path in paths:
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return paths


def _write_trajectory(csv_path: Path, svg_path: Path, traj) -> None:
    reports.write_trajectory_csv(csv_path, traj)
    svg_path.write_text(reports.trajectory_svg(traj), encoding="utf-8")


def _write_scan(csv_path: Path, svg_path: Path, result) -> None:
    reports.write_scan_csv(csv_path, result)
    svg_path.write_text(reports.scan_svg(result), encoding="utf-8")


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    paths = [] if args.out is None else _claim(args.out, args.force, "conditions.json")
    report = conditions(spec, tol=args.tol)
    payload = report.to_dict()
    print(json.dumps(reports.canon(payload), indent=2))
    for path in paths:
        reports.write_json(path, payload)
    return 0 if report.overall is Overall.NECESSARY_CONDITIONS_HOLD else 2


def cmd_spectrum(args) -> int:
    spec = load_spec(args.spec)
    csv_path, json_path = _claim(args.out, args.force, "spectrum.csv", "verdict.json")
    spectrum = spectrum_periodic(spec, args.n)
    verdict = classify(spectrum, tol=args.tol)
    reports.write_spectrum_csv(csv_path, spectrum)
    reports.write_json(json_path, verdict.to_dict())
    print(f"{verdict.status.value}: max Re = {verdict.max_real_part:.6g}, "
          f"zero multiplicity {verdict.zero_multiplicity}")
    return 0


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    t_max = args.tmax if args.tmax is not None else 3.0 * spec.n_types * args.n
    csv_path, json_path, svg_path = _claim(
        args.out, args.force, "trajectory.csv", "transient.json", "trajectory.svg"
    )
    try:
        traj = simulate(spec, args.n, BoundaryCondition(args.bc), t_max, args.dt)
    except BlowUp as blow:
        reports.write_json(json_path, {"blew_up": True, "time": blow.time,
                                       "norm": blow.norm})
        print(f"blow-up at t={blow.time:.4f}")
        return 0
    rep = transient(traj)
    _write_trajectory(csv_path, svg_path, traj)
    reports.write_json(json_path, {"blew_up": False, **rep.to_dict()})
    print(f"magnitude {rep.magnitude:.6g} at t={rep.time_at_extremum:.4f} "
          f"(agent {rep.agent_at_extremum}, converged={rep.converged})")
    return 0


def cmd_scan(args) -> int:
    spec = load_spec(args.spec)
    n_values = [int(v) for v in args.N_list.split(",") if v.strip()]
    csv_path, json_path, svg_path = _claim(
        args.out, args.force, "scan.csv", "scan.json", "scan.svg"
    )
    result = scan_N(spec, BoundaryCondition(args.bc), n_values, dt=args.dt, t_max=args.tmax)
    _write_scan(csv_path, svg_path, result)
    reports.write_json(json_path, result.to_dict())
    print(f"slope {result.slope:.6g}, R^2 {result.r_squared:.4f}")
    return 0


def cmd_rootcurves(args) -> int:
    spec = load_spec(args.spec)
    csv_path, svg_path, json_path = _claim(
        args.out, args.force, "rootcurves.csv", "rootcurves.svg", "rootcurves.json"
    )
    grid = angle_grid(args.phi_min, args.phi_max, args.phi_points)
    c = branch_curvature(spec)
    plus, minus = track_branches(spec, grid)
    reports.write_rootcurves_csv(csv_path, plus, minus, c)
    svg_path.write_text(reports.rootcurves_svg(plus, minus, c), encoding="utf-8")
    angle = orthogonality_angle(plus, minus)
    payload = {
        "curvature": {"re": c.real, "im": c.imag},
        "branch_angle_deg": angle,
        "right_angle_deviation_deg": right_angle_deviation(angle),
        "tangency": {curve.branch.name.lower(): asdict(tangency_report(curve, c))
                     for curve in (plus, minus)},
    }
    reports.write_json(json_path, payload)
    print(f"c = {c:.6g}; branch angle {angle:.2f} deg "
          f"(off right angles by {right_angle_deviation(angle):.3f} deg)")
    return 0


def cmd_reproduce(args) -> int:
    run = FIGURE_RUNS[args.figure]
    stem = "scan" if run.kind == "scan" else "trajectory"
    csv_path, svg_path, json_path = _claim(
        args.out / run.figure, args.force, f"{stem}.csv", f"{stem}.svg", "report.json"
    )
    spec = run.spec()
    cond = conditions(spec)
    report: dict = {
        "figure": run.figure,
        "conditions": cond.to_dict(),
        "tolerance": PUBLISHED_TOLERANCE,
    }

    if run.kind == "scan":
        result = scan_N(spec, run.bc, list(run.n_values), dt=run.dt)
        _write_scan(csv_path, svg_path, result)
        passed = result.slope > 0.0 and result.r_squared > 0.9
        report.update({
            "computed": result.to_dict(),
            "published": "exponential growth of |magnitude| with N",
            "within_tolerance": passed,
        })
    else:
        try:
            traj = simulate(spec, run.n, run.bc, run.t_max, run.dt)
        except BlowUp as blow:
            report.update({"blew_up": True, "time": blow.time,
                           "within_tolerance": None})
            reports.write_json(json_path, report)
            print(f"{run.figure}: blow-up at t={blow.time:.3f}")
            return 0
        rep = transient(traj)
        _write_trajectory(csv_path, svg_path, traj)
        report["computed"] = rep.to_dict()
        if run.published_magnitude is not None:
            mag_err = abs(rep.magnitude - run.published_magnitude) / abs(
                run.published_magnitude
            )
            time_err = abs(abs(rep.time_at_extremum) - abs(run.published_time)) / abs(
                run.published_time
            )
            report.update({
                "published": {"magnitude": run.published_magnitude,
                              "time": run.published_time},
                "relative_error": {"magnitude": mag_err, "time": time_err},
                "within_tolerance": mag_err <= PUBLISHED_TOLERANCE
                and time_err <= PUBLISHED_TOLERANCE,
            })
        else:
            report.update({"published": None, "within_tolerance": None})

    reports.write_json(json_path, report)
    status = report["within_tolerance"]
    print(f"{run.figure}: within_tolerance={status}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flockstab",
        description="stability analysis of periodic heterogeneous vehicle formations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_arg(p):
        p.add_argument("--spec", type=Path, required=True, help="flock spec JSON")

    def out_args(p, required=True):
        p.add_argument("--out", type=Path, required=required,
                       help="output directory (created if absent)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    p = sub.add_parser("check", help="evaluate the instability certificates")
    spec_arg(p)
    p.add_argument("--tol", type=float, default=CONDITION_TOL)
    out_args(p, required=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="per-mode spectrum and stability verdict")
    spec_arg(p)
    p.add_argument("--n", type=int, required=True, help="cells per agent type")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
    out_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="line simulation from the leader kick")
    spec_arg(p)
    p.add_argument("--n", type=int, required=True, help="cells per agent type")
    p.add_argument("--bc", type=int, choices=(1, 2), default=1)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=None)
    out_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="transient magnitude vs flock size")
    spec_arg(p)
    p.add_argument("--bc", type=int, choices=(1, 2), default=1)
    p.add_argument("--N-list", dest="N_list", required=True,
                   help="comma-separated total vehicle counts")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=None,
                   help="fixed horizon (default 3N per run)")
    out_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("rootcurves", help="track the two small mode-polynomial roots")
    spec_arg(p)
    phi_min, phi_max, phi_points = DEFAULT_GRID
    p.add_argument("--phi-min", type=float, default=phi_min)
    p.add_argument("--phi-max", type=float, default=phi_max)
    p.add_argument("--phi-points", type=int, default=phi_points)
    out_args(p)
    p.set_defaults(func=cmd_rootcurves)

    p = sub.add_parser("reproduce", help="rerun a bundled reference configuration")
    p.add_argument("figure", choices=sorted(FIGURE_RUNS))
    out_args(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlockstabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
