import dataclasses
import json
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import flockstab as fs
from flockstab import (Arrangement, BlowUp, BoundaryCondition, build_spec, classify,
                       mode_roots, reports, scan_N, simulate, spectrum_periodic, transient)
from flockstab.cli import main
from flockstab.figures import FIGURE_RUNS, figure1, figure2, figure3
from flockstab.reports import (write_csv, write_rootcurves_csv, write_scan_csv,
                               write_spectrum_csv, write_trajectory_csv)
from flockstab.rootcurves import (Branch, RootCurve, orthogonality_angle, right_angle_deviation,
                                  tangency_report, track_branches)
from flockstab.simulation import ScanPoint, ScanResult, Trajectory
from flockstab.spectral import Spectrum
from flockstab.svg import (_HEIGHT, _MARGIN, _PALETTE, _WIDTH, Series, _cents, _limits,
                          _print_points, render_plot)
from conftest import zero_gain_spec


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


def _per_row_spectrum_csv(path, spectrum):
    """The spectrum writer as a per-row ``%`` template."""
    n, d = spectrum.eigenvalues.shape
    roots = spectrum.eigenvalues.ravel()
    rows = zip(np.repeat(np.arange(n), d).tolist(),
               np.repeat(spectrum.phis, d).tolist(), roots.real.tolist(),
               roots.imag.tolist(), spectrum.residuals.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,phi,re,im,residual\n")
        fh.writelines("%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)


def _hand_spectrum(eigenvalues, residuals):
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    n = len(eigenvalues)
    return Spectrum(2.0 * np.pi * np.arange(n) / n, eigenvalues,
                    np.asarray(residuals, dtype=float), np.ones(n))


@pytest.mark.parametrize(
    "spectrum",
    [
        _hand_spectrum(
            [[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
             [complex(5e-324, -5e-324), complex(-1e16, 1e16), complex(0.1, np.nan)],
             [complex(np.inf, -np.inf), complex(-np.nan, 1.0 / 3.0), 0j]],
            [[0.0, -0.0, np.inf], [5e-324, 1e16, np.nan], [1e-300, 2.5, 0.1]]),
        _hand_spectrum(
            [[0.25 + 0.5j, -0.25 - 0.5j, 0.5 - 0.25j, -0.5 + 0.25j],
             [-0.25 + 0.25j, 0.25 - 0.25j, -0.5 - 0.5j, 0.5 + 0.5j]],
            [[0.25, 0.5, 0.25, 0.5], [0.5, 0.25, 0.5, 0.25]]),
        spectrum_periodic(figure2(), 48),
        spectrum_periodic(zero_gain_spec(), 48),
    ],
    ids=["signed-zeros-and-extremes", "equal-magnitudes-both-signs", "figure2-n48",
         "zero-gain-n48"],
)
def test_spectrum_csv_bytes_match_per_row_template(spectrum, tmp_path):
    write_spectrum_csv(tmp_path / "spectrum.csv", spectrum)
    _per_row_spectrum_csv(tmp_path / "reference.csv", spectrum)
    assert (tmp_path / "spectrum.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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


def _percent_csv(header, rows):
    """A CSV printed value by value: strings as they are, numbers with ``%.17g``."""
    lines = [",".join(header)] + [
        ",".join(c if isinstance(c, str) else "%.17g" % c for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _special_values():
    rng = np.random.default_rng(7)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    powers = np.concatenate([tens, twos, 10.0 ** np.arange(-30, 31)])
    # x = 1234567890 + j / 2**20 scales by 1e7 to a fraction j * 1e7 / 2**20 mod 1
    j = np.arange(2.0 ** 20)
    near_tie = 1234567890 + j[np.abs(j * 9.5367431640625 % 1 - 0.5) < 5e-6] / 2.0 ** 20
    values = np.concatenate([
        [0.0, 5e-324, np.finfo(float).max, np.nan, np.inf, 9.9999999999999999e16,
         99999.999999999999, 9.9999999999999995e-5, 1e-4, 0.1, 1.0 / 3.0,
         np.nextafter(1e-273, 0.0), 1e-273, np.nextafter(1e-273, 1.0)],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        np.arange(-5000, 5000) + 0.5, rng.integers(2 ** 50, 2 ** 51, 2000) + 0.25,
        np.arange(-20000, 20000) * 0.01, rng.lognormal(0.0, 30.0, 50000),
        rng.lognormal(0.0, 3.0, 50000), near_tie,
    ])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("kind", ["bit-patterns", "special-values"])
def test_write_csv_prints_floats_as_percent_17g(kind, tmp_path):
    if kind == "bit-patterns":  # both signs, every exponent, subnormals, nan and inf
        bits = np.random.default_rng(2024).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        values = bits.view(float)
    else:
        values = _special_values()
    write_csv(tmp_path / "x.csv", ["x"], [values])
    expected = "x\n" + "".join(map("%.17g\n".__mod__, values.tolist()))
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


def _printed_layout(text):
    """The layout ``%.17g`` printed ``text`` in: fixed exponent + 4 (0..20) or
    21/22 for a 2-/3-digit exponent; significant digits; sign."""
    number = Decimal(text)
    count = len("".join(map(str, number.as_tuple().digits)).rstrip("0")) or 1
    exponent = text.partition("e")[2]
    form = 21 + (len(exponent) == 4) if exponent else number.adjusted() + 4
    return form, count, text.startswith("-")


def test_write_csv_prints_every_cell_layout(tmp_path):
    # signed c-digit integers times powers of ten, at every fixed exponent
    # and at 2- and 3-digit exponents inside the array-wise range
    rng = np.random.default_rng(26)
    exponents = [*range(-4, 17), -273, -100, -99, -5, 17, 99, 100, 279]
    values = np.array([0.0, -0.0] + [
        float(f"{sign * n}e{e - c + 1}") for c in range(1, 18) for e in exponents
        for sign in (1, -1) for n in rng.integers(10 ** (c - 1), 10 ** c, 64).tolist()])
    slow = reports._cells(values)[2]
    hit = {_printed_layout("%.17g" % v) for v in values[~slow].tolist()}
    assert hit == {(form, count, sign) for form in range(23) for count in range(1, 18)
                   for sign in (False, True)}
    write_csv(tmp_path / "x.csv", ["x"], [values])
    expected = "x\n" + "".join(map("%.17g\n".__mod__, values.tolist()))
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


def test_power_table_matches_fractions():
    hi, _, _, lo = reports._tables()[:4]
    for i, k in enumerate(range(reports._POW_MIN, reports._POW_MIN + len(hi))):
        exact = Fraction(10) ** k
        assert (hi[i], lo[i]) == (float(exact), float(exact - Fraction(float(exact))))


def test_write_csv_block_edges(tmp_path):
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(3, reports._BLOCK + 3))
    write_csv(tmp_path / "wide.csv", ["w"] * wide.shape[1], [wide])
    assert (tmp_path / "wide.csv").read_bytes() == _percent_csv(["w"] * wide.shape[1],
                                                               wide.tolist())
    # rows that only % prints, amid rows of one block and at both ends
    values = rng.normal(size=(100, 4))
    values[[0, 50, 51, 99], [1, 0, 3, 2]] = np.nan, 1e300, -np.inf, 2 ** 50 + 0.25
    names = np.array(["a", "", "bc"])[rng.integers(0, 3, 100)]
    write_csv(tmp_path / "mixed.csv", ["t", "name", "x"], [values[:, 0], names, values[:, 1:]])
    assert (tmp_path / "mixed.csv").read_bytes() == _percent_csv(
        ["t", "name", "x"], [[r[0], n, *r[1:]] for r, n in zip(values.tolist(), names)])
    write_csv(tmp_path / "empty.csv", ["a", "b"], [np.empty(0), np.empty((0, 1))])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@pytest.mark.parametrize("block", [16, reports._BLOCK])
def test_write_csv_prints_each_slow_value_alone(monkeypatch, tmp_path, block):
    # 5 values a row, so 3 rows a block at _BLOCK = 16: slow values at the
    # start, middle and end of rows, side by side, after the text column,
    # filling a row, and on both sides of the edge between rows 2 and 3
    monkeypatch.setattr(reports, "_BLOCK", block)
    rng = np.random.default_rng(35)
    values = rng.normal(size=(40, 5))
    special = [np.nan, np.inf, -np.inf, 1e300, -1e-300, 5e-324, 2 ** 50 + 0.25]
    spots = [(0, 0), (1, 2), (2, 4), (3, 0), (5, 1), (5, 2), (5, 3), (8, 1), (8, 4), (39, 4)]
    spots += [(12, k) for k in range(5)]
    for i, (row, column) in enumerate(spots):
        values[row, column] = special[i % len(special)]
    assert reports._cells(values)[2].sum() == len(spots)
    names = np.array(["a", "", "bc"])[rng.integers(0, 3, 40)]
    write_csv(tmp_path / "slow.csv", ["t", "name", "x"], [values[:, 0], names, values[:, 1:]])
    assert (tmp_path / "slow.csv").read_bytes() == _percent_csv(
        ["t", "name", "x"], [[r[0], n, *r[1:]] for r, n in zip(values.tolist(), names)])


def test_trajectory_csv_memory_is_bounded_by_the_block(tmp_path):
    # fig1a's 4001 x 361 values print in blocks; the whole file is about 29 MB
    run = FIGURE_RUNS["fig1a"]
    traj = simulate(run.spec(), run.n, run.bc, run.t_max, run.dt)
    reports._tables()  # built once per process
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (4001, 360)
    assert peak <= 4 * 2 ** 20, peak


@pytest.mark.parametrize("figure", [figure1, figure3])
def test_spectrum_command_memory_is_within_its_budget(figure, tmp_path):
    # spectrum, verdict and CSV at n = 2e4, against the bytes per root
    # that spectrum_periodic refuses an n by
    spec, n = figure(), 20000
    tracemalloc.start()
    try:
        spectrum = spectrum_periodic(spec, n)
        classify(spectrum)
        write_spectrum_csv(tmp_path / "spectrum.csv", spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    roots = spectrum.eigenvalues.size
    assert roots == n * 2 * spec.n_types
    assert peak <= fs.spectral._BYTES_PER_ROOT * roots, peak / roots


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
    # N = 42 > 40 vehicles, so 40 of them are drawn
    traj = simulate(figure1(), 14, BoundaryCondition.TYPE_I, t_max=30.0, dt=0.05)
    svg = reports.trajectory_svg(traj)
    monkeypatch.setattr(reports, "render_plot", _per_point_render_plot)
    assert svg.encode() == reports.trajectory_svg(traj).encode()
    assert svg.count("<polyline") == 40


@pytest.mark.parametrize("n", [3, 13, 60])
def test_trajectory_svg_draws_the_leader_and_the_last_vehicle(monkeypatch, n):
    # at n = 60 (N = 180, as figures 1 and 2) the last vehicle holds the published peak
    traj = simulate(figure1(), n, BoundaryCondition.TYPE_I, t_max=2.0)
    drawn = []
    monkeypatch.setattr(reports, "render_plot", lambda series, *_, **__: drawn.extend(series))
    reports.trajectory_svg(traj)
    dev = traj.deviations()
    assert len(drawn) == min(3 * n, 40)
    assert np.array_equal(drawn[0].y, dev[:, 0])
    assert np.array_equal(drawn[-1].y, dev[:, -1])


def _percent_points(x, y, head, mid, tail):
    return "".join((head + "%.2f" + mid + "%.2f" + tail) % (a, b) for a, b in zip(x, y))


_TIES = np.arange(1, 80_000, 2) / 8.0  # every exact tie of "%.2f" below 1e4
_NEAR_TIES = (np.arange(0, 1_000_000, 7) + 0.5) / 100.0  # decimal ties, not exact in binary
_SPECIAL = [0.0, -0.0, 0.005, 9999.994999999999, 9999.995, 9999.996, np.nextafter(1e4, 0.0),
            1e4, 1e4 + 0.01, -1e-300, -0.004, -3.25, 5e-324, 1e-300, np.nan, np.inf, -np.inf,
            *_TIES[[0, 1, 2, -1]], *np.nextafter(_TIES[[0, -1]], 0.0),
            *np.ravel(_NEAR_TIES[[0, 1, 14_357, -1]] * (1.0 + np.array([[-1e-12], [1e-12]])))]


def test_coordinates_print_as_percent_2f():
    rng = np.random.default_rng(19)
    v = np.concatenate((rng.uniform(0.0, 1e4, 500_000), 10.0 ** rng.uniform(-4.0, 4.0, 500_000)))
    rng.shuffle(v)
    assert _cents(v) is not None  # the whole series is printed array-wise
    for template in (("", ",", " "), ('<circle cx="', '" cy="', '" r="3" fill="#1f77b4"/>')):
        assert _print_points(v[::2], v[1::2], *template) == _percent_points(
            v[::2], v[1::2], *template)


@pytest.mark.parametrize("value", _SPECIAL, ids=repr)
def test_special_coordinate_prints_as_percent_2f(value):
    # each value in its own series, between ordinary ones
    x, y = np.array([value, 12.3456, 0.5]), np.array([7.0, value, value])
    assert _print_points(x, y, "", ",", " ") == _percent_points(x, y, "", ",", " ")


@pytest.mark.parametrize("offset, array_wise", [(0.0, False), (5e-12, False), (-5e-12, False),
                                                (2e-11, True), (-2e-11, True), (1e-9, True)])
def test_near_ties_print_as_percent_2f(offset, array_wise):
    # 100 v within 1e-9 of a tie goes to "%"; just outside it the kernel rounds
    values = _NEAR_TIES + offset
    assert (_cents(values) is not None) == array_wise
    assert _print_points(values, values[::-1], "", ",", " ") == _percent_points(
        values, values[::-1], "", ",", " ")


def test_exact_ties_print_as_percent_2f():
    assert _cents(_TIES) is None
    assert _print_points(_TIES, _TIES, "", ",", " ") == _percent_points(_TIES, _TIES, "", ",", " ")


# --- JSON files --------------------------------------------------------------
# Each JSON file's text is pinned byte for byte.  Numbers that come out of
# LAPACK or BLAS are filled in (as repr, which is how JSON prints a float)
# from the same computation made here, so the pins hold the layout, keys,
# order, nulls and signed zeros on any CPU.

@dataclasses.dataclass(frozen=True)
class _Inner:
    z: float
    a: tuple

    @property
    def derived(self):
        return 1


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    rows: list


def test_canon_writes_a_dataclass_as_its_fields_in_order():
    obj = _Outer(_Inner(np.float64(np.nan), (np.int64(2), True)), [_Inner(-0.0, ())])
    assert json.dumps(reports.canon(obj)) == (
        '{"inner": {"z": null, "a": [2, true]}, "rows": [{"z": -0.0, "a": []}]}')


def test_canon_writes_an_enum_as_its_value():
    assert reports.canon({"s": fs.Stability.MARGINALLY_UNSTABLE, "b": [Branch.MINUS]}) == {
        "s": "marginally-unstable", "b": [-1]}


def test_canon_writes_a_complex_as_re_and_im():
    values = [complex(-0.0, 2.5), np.complex128(complex(np.inf, -1e-300)), 1j]
    assert json.dumps(reports.canon(values)) == (
        '[{"re": -0.0, "im": 2.5}, {"re": null, "im": -1e-300}, {"re": 0.0, "im": 1.0}]')


def _cli_text(tmp_path, spec, argv, name):
    path = tmp_path / "spec.json"
    fs.save_spec(spec, path)
    out = tmp_path / "out"
    main([*argv, "--spec", str(path), "--out", str(out)])
    return (out / name).read_text(encoding="utf-8")


def _fill(template, *values):
    return template % tuple(repr(float(v)) for v in values)


_CONDITIONS = {
    "figure1": """{
  "clauses": [
    {
      "id": "i",
      "value": -1.0,
      "triggered": false,
      "note": "triggers when a positional gain vanishes"
    },
    {
      "id": "ii",
      "value": 2.137142857142857,
      "triggered": false,
      "note": "vanishing pair sum forces a triple zero eigenvalue"
    },
    {
      "id": "iii",
      "value": 9.71445146547012e-17,
      "triggered": false,
      "note": "first moment of weight asymmetries plus their product"
    }
  ],
  "case_values": {
    "g_product": -1.0,
    "beta_sum": -0.08571428571428563,
    "moment_plus_correction": 9.71445146547012e-17,
    "a2_at_zero": -2.137142857142857,
    "a0_slope_at_zero": 0.0
  },
  "overall": "necessary-conditions-hold"
}
""",
    "figure2": """{
  "clauses": [
    {
      "id": "i",
      "value": -1.0,
      "triggered": false,
      "note": "triggers when a positional gain vanishes"
    },
    {
      "id": "ii",
      "value": 2.1200000000000006,
      "triggered": false,
      "note": "vanishing pair sum forces a triple zero eigenvalue"
    },
    {
      "id": "iii",
      "value": 0.096,
      "triggered": true,
      "note": "first moment of weight asymmetries plus their product"
    }
  ],
  "case_values": {
    "g_product": -1.0,
    "beta_sum": 0.0,
    "moment_plus_correction": 0.096,
    "a2_at_zero": -2.1200000000000006,
    "a0_slope_at_zero": -0.023999999999999994
  },
  "overall": "instability-certified"
}
""",
}


@pytest.mark.parametrize("figure", ["figure1", "figure2"])
def test_conditions_json_bytes(tmp_path, capsys, figure):
    spec = getattr(fs.figures, figure)()
    text = _cli_text(tmp_path, spec, ["check"], "conditions.json")
    assert text == _CONDITIONS[figure]
    assert capsys.readouterr().out == text


_VERDICT = """{
  "status": "%s",
  "zero_multiplicity": 2,
  "max_real_part": %%s,
  "witness": {
    "phi": 0.5235987755982988,
    "re": %%s,
    "im": %%s
  }
}
"""


@pytest.mark.parametrize("figure, status", [("figure1", "stable"), ("figure2", "unstable")])
def test_verdict_json_bytes(tmp_path, figure, status):
    spec = getattr(fs.figures, figure)()
    text = _cli_text(tmp_path, spec, ["spectrum", "--n", "12"], "verdict.json")
    verdict = classify(spectrum_periodic(spec, 12))
    assert text == _fill(_VERDICT % status, verdict.max_real_part,
                         verdict.witness.re, verdict.witness.im)


def test_all_zero_verdict_json():
    verdict = classify(mode_roots(np.arange(4.0), np.tile([0.0, 0.0, 1.0], (4, 1))))
    assert json.dumps(reports.canon(verdict), indent=2) == """{
  "status": "marginally-unstable",
  "zero_multiplicity": 8,
  "max_real_part": null,
  "witness": {
    "phi": null,
    "re": null,
    "im": null
  }
}"""


def test_censored_scan_json_bytes(tmp_path):
    argv = ["scan", "--N-list", "60", "--dt", "5", "--tmax", "1000"]
    assert _cli_text(tmp_path, figure1(), argv, "scan.json") == """{
  "points": [
    {
      "N": 60,
      "magnitude": null,
      "log_abs_magnitude": null,
      "blowup_time": 35.0
    }
  ],
  "slope": null,
  "intercept": null,
  "r_squared": null,
  "fit_error": "need at least two finite magnitudes, have 0"
}
"""


_SCAN_POINT = """    {
      "N": %d,
      "magnitude": %%s,
      "log_abs_magnitude": %%s,
      "blowup_time": null
    }"""


def test_scan_json_bytes(tmp_path):
    text = _cli_text(tmp_path, figure2(), ["scan", "--N-list", "12,24"], "scan.json")
    scan = scan_N(figure2(), BoundaryCondition.TYPE_I, [12, 24])
    points = ",\n".join(_fill(_SCAN_POINT % p.N, p.magnitude, p.log_abs_magnitude)
                        for p in scan.points)
    assert text == ('{\n  "points": [\n' + points + "\n  ],\n"
                    + _fill('  "slope": %s,\n  "intercept": %s,\n  "r_squared": %s,\n',
                            scan.slope, scan.intercept, scan.r_squared)
                    + '  "fit_error": null\n}\n')


def test_transient_json_bytes(tmp_path):
    argv = ["simulate", "--n", "6", "--tmax", "30"]
    text = _cli_text(tmp_path, figure1(), argv, "transient.json")
    rep = transient(simulate(figure1(), 6, BoundaryCondition.TYPE_I, 30.0))
    assert text == _fill("""{
  "blew_up": false,
  "magnitude": %s,
  "time_at_extremum": %s,
  "agent_at_extremum": 17,
  "converged": false
}
""", rep.magnitude, rep.time_at_extremum)


def test_blown_up_transient_json_bytes(tmp_path):
    argv = ["simulate", "--n", "20", "--dt", "5", "--tmax", "1000"]
    text = _cli_text(tmp_path, figure1(), argv, "transient.json")
    with pytest.raises(BlowUp) as blow:
        simulate(figure1(), 20, BoundaryCondition.TYPE_I, 1000.0, 5.0)
    assert text == _fill("""{
  "blew_up": true,
  "time": 35.0,
  "norm": %s
}
""", blow.value.norm)


_TANGENCY = """    "%s": {
      "decades": [
        -6,
        -5,
        -4,
        -3,
        -2,
        -1
      ],
      "decade_sups": [
        %%s,
        %%s,
        %%s,
        %%s,
        %%s,
        %%s
      ],
      "final_ratio": %%s,
      "monotone": true,
      "passed": true
    }"""


def test_rootcurves_json_bytes(tmp_path):
    text = _cli_text(tmp_path, figure2(), ["rootcurves"], "rootcurves.json")
    plus, minus = track_branches(figure2())
    angle = orthogonality_angle(plus, minus)
    tangency = []
    for curve in (plus, minus):
        rep = tangency_report(curve)
        tangency.append(_fill(_TANGENCY % curve.branch.name.lower(),
                              *rep.decade_sups, rep.final_ratio))
    assert text == ("""{
  "curvature": {
    "re": -0.0,
    "im": -0.011320754716981126
  },
""" + _fill('  "branch_angle_deg": %s,\n  "right_angle_deviation_deg": %s,\n',
            angle, right_angle_deviation(angle))
        + '  "tangency": {\n' + ",\n".join(tangency) + "\n  }\n}\n")
