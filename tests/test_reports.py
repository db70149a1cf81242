import numpy as np

from flockstab import BoundaryCondition
from flockstab.figures import figure1
from flockstab.reports import write_csv, write_trajectory_csv
from flockstab.simulation import Trajectory


def test_trajectory_csv_bytes_match_generic_writer(tmp_path):
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
    bulk, generic = tmp_path / "bulk.csv", tmp_path / "generic.csv"
    write_trajectory_csv(bulk, traj)
    header = ["t"] + [f"z_{k}" for k in range(1, 6)] + [f"v_{k}" for k in range(1, 6)]
    write_csv(generic, header, ([t, *row] for t, row in zip(traj.times, states)))
    assert bulk.read_bytes() == generic.read_bytes()
    assert b"0,-0,4.9406564584124654e-324,10000000000000000," in bulk.read_bytes()
