import numpy as np
import pytest

from flockstab import Arrangement, BoundaryCondition, build_spec, reports, scan_N, simulate
from flockstab.figures import figure1
from flockstab.reports import write_rootcurves_csv, write_scan_csv, write_trajectory_csv
from flockstab.rootcurves import Branch, RootCurve
from flockstab.simulation import ScanPoint, ScanResult, Trajectory
from flockstab.svg import _HEIGHT, _MARGIN, _PALETTE, _WIDTH, Series, _limits, render_plot


def test_trajectory_csv_bytes_match_generic_writer(tmp_path):
    # the generic writer is a per-value format(x, ".17g") join, written out here
    special = [-0.0, 5e-324, 1e16, 0.1, 3.0, -2.0, 0.0, 1e-300, np.nan, np.inf]
    states = np.array([special, special[::-1], [1.0 / 3.0] * 10])
    traj = Trajectory(
        times=np.array([0.0, 0.1, 0.30000000000000004]),
        states=states,
        bc=BoundaryCondition.TYPE_I,
        peak_deviation=0.0,
        peak_time=0.0,
        peak_agent=0,
    )
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    header = ["t"] + [f"z_{k}" for k in range(1, 6)] + [f"v_{k}" for k in range(1, 6)]
    reference = "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n"
        for row in ([t, *state] for t, state in zip(traj.times, states))
    )
    assert path.read_bytes() == (",".join(header) + "\n" + reference).encode()
    assert b"0,-0,4.9406564584124654e-324,10000000000000000," in path.read_bytes()


def test_scan_csv_bytes_with_censored_row(tmp_path):
    # positive positional gains blow up; the run is censored
    hot = build_spec(Arrangement.TRIATOMIC_NN,
                     [{"g_x": 1.0, "g_v": 0.0, "rho_x": {"1": -0.5, "-1": -0.5},
                       "rho_v": {"1": -0.5, "-1": -0.5}}] * 3)
    censored = scan_N(hot, BoundaryCondition.TYPE_I, [12], t_max=300.0).points
    kept = (ScanPoint(15, np.float64(-0.1), float(np.log(0.1))), ScanPoint(18, 0.0, None))
    path = tmp_path / "scan.csv"
    write_scan_csv(path, ScanResult(censored + kept, np.nan, np.nan, np.nan))
    assert path.read_bytes() == (
        b"N,magnitude,log_abs_magnitude,censored,blowup_time\n"
        b"12,,,1,22.990000000000002\n"
        b"15,-0.10000000000000001,-2.3025850929940455,0,\n"
        b"18,0,,1,\n"
    )


def test_rootcurves_csv_row_bytes(tmp_path):
    # c t = -4 exactly, so the predicted branches are +2i and -(+2i)
    t = np.array([0.1])
    plus = RootCurve(t, np.array([0.5 + 2.0j]), Branch.PLUS, -40.0 + 0.0j)
    minus = RootCurve(t, np.array([-1.0 - 2.0j]), Branch.MINUS, -40.0 + 0.0j)
    path = tmp_path / "rootcurves.csv"
    write_rootcurves_csv(path, plus, minus)
    assert path.read_bytes() == (
        b"t,branch,re,im,predicted_re,predicted_im,ratio\n"
        b"0.10000000000000001,plus,0.5,2,0,2,0.25\n"
        b"0.10000000000000001,minus,-1,-2,-0,-2,0.5\n"
    )


def _per_point_render_plot(series, title, xlabel, ylabel):
    """The plot writer as it was before the array mapping: one f-string per point."""
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
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        if s.points:
            parts.append("".join(
                f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="{color}"/>'
                for a, b in zip(x, y)
            ))
        else:
            coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
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


_RNG = np.random.default_rng(7)
_T = np.linspace(0.0, 40.0, 401)
_WIDE = np.array([-0.0, 0.0, 5e-324, 1e-300, -1e-12, 1e-3, 0.1, 1.0 / 3.0, 7.5, -2.5e4,
                  1e8, 1e16])


@pytest.mark.parametrize(
    "series",
    [
        [Series(_T, np.sin(_T)), Series(_T, np.cos(_T), dashed=True),
         Series(_T, 0.1 * _T, label="drift"), Series(_T, -np.sin(_T), label="mirror",
                                                     dashed=True)],
        [Series(_T[::40], np.exp(-_T[::40]), label="points", points=True),
         Series(_T[::40], np.exp(-_T[::40]), points=True)],
        [Series(_T, np.full_like(_T, 2.0))],
        [Series(np.array([3.0]), np.array([-0.0]), points=True)],
        [Series(np.array([3.0]), np.array([1.5]))],
        [Series(_WIDE, _WIDE[::-1], label="wide"), Series(_WIDE, -_WIDE, points=True)],
        [Series(np.arange(10.0), _RNG.standard_normal(10) * 10.0 ** k) for k in range(-6, 7)],
        [Series(_RNG.uniform(-1, 1, 3000), _RNG.uniform(-1, 1, 3000), points=True),
         Series(np.sort(_RNG.lognormal(0, 4, 3000)), _RNG.standard_normal(3000))],
    ],
    ids=["lines-dashed-labelled", "points", "constant", "one-point", "one-point-line",
         "negative-zero-and-wide", "palette-cycle-magnitudes", "dense-random"],
)
def test_svg_bytes_match_per_point_writer(series):
    args = (series, "title", "x", "y")
    assert render_plot(*args).encode() == _per_point_render_plot(*args).encode()


def test_trajectory_svg_bytes_match_per_point_writer(monkeypatch):
    # N = 42 > 40 agents, so every second agent is drawn
    traj = simulate(figure1(), 14, BoundaryCondition.TYPE_I, t_max=30.0, dt=0.05)
    svg = reports.trajectory_svg(traj)
    monkeypatch.setattr(reports, "render_plot", _per_point_render_plot)
    assert svg.encode() == reports.trajectory_svg(traj).encode()
    assert svg.count("<polyline") == 21
