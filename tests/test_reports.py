import numpy as np

from flockstab import Arrangement, BoundaryCondition, build_spec, scan_N
from flockstab.figures import figure1
from flockstab.reports import write_rootcurves_csv, write_scan_csv, write_trajectory_csv
from flockstab.rootcurves import Branch, RootCurve
from flockstab.simulation import ScanPoint, ScanResult, Trajectory


def test_trajectory_csv_bytes_match_generic_writer(tmp_path):
    # the generic writer is a per-value format(x, ".17g") join, written out here
    special = [-0.0, 5e-324, 1e16, 0.1, 3.0, -2.0, 0.0, 1e-300, np.nan, np.inf]
    states = np.array([special, special[::-1], [1.0 / 3.0] * 10])
    traj = Trajectory(
        times=np.array([0.0, 0.1, 0.30000000000000004]),
        states=states,
        spec=figure1(),
        n=1,
        bc=BoundaryCondition.TYPE_I,
        dt=0.01,
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
    plus = RootCurve(t, np.array([0.5 + 2.0j]), Branch.PLUS)
    minus = RootCurve(t, np.array([-1.0 - 2.0j]), Branch.MINUS)
    path = tmp_path / "rootcurves.csv"
    write_rootcurves_csv(path, plus, minus, -40.0 + 0.0j)
    assert path.read_bytes() == (
        b"t,branch,re,im,predicted_re,predicted_im,ratio\n"
        b"0.10000000000000001,plus,0.5,2,0,2,0.25\n"
        b"0.10000000000000001,minus,-1,-2,-0,-2,0.5\n"
    )
