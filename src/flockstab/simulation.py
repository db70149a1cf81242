"""Line simulations from the leader kick, and transient measurement.

The flock starts at rest in equilibrium; at t = 0 the head vehicle picks
up unit velocity and keeps it (its acceleration row is zero).  Everything
of interest is the leader-relative deviation z_k(t) - z_leader(t), whose
extremal value over all vehicles and times is the transient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, SizeError
from .model import BoundaryCondition, FlockSpec, assemble_line, check_budget

BLOWUP_GUARD = 1e12

#: RK4 steps per column; consecutive column starts are Q = P^_BLOCK_STEPS apart
_BLOCK_STEPS = 16

#: columns stepped together, one matrix-matrix product per step; a batch of
#: _COLUMNS * _BLOCK_STEPS steps shares one guard, extremum and storage pass
_COLUMNS = 64

#: target spacing of stored trajectory samples, in time units
STORE_SPACING = 0.1

#: RK4 step of a run that names none, in time units
DEFAULT_DT = 0.01

#: a run is refused over this many RK4 steps (2500 times figure 1a's 40 000)
_MAX_STEPS = 10**8

#: dense dim x dim arrays at a run's peak, M, P, Q and Horner temporaries (69 MB
#: at dim 1200 under tracemalloc): 2 GiB allows dim 6688, about 3300 vehicles
_DENSE_ARRAYS = 6


@dataclass(frozen=True)
class Trajectory:
    """Decimated state history plus the full-resolution extremum record.

    ``states`` holds one row per stored time: N positions then N
    velocities, in type-block order.  The extremum fields are tracked at
    every integration step, not just the stored ones.
    """

    times: np.ndarray
    states: np.ndarray
    bc: BoundaryCondition
    peak_deviation: float
    peak_time: float
    peak_agent: int

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return self.states.shape[1] // 2

    def deviations(self) -> np.ndarray:
        """Leader-relative position deviations on the stored grid."""
        pos = self.states[:, : self.n_agents]
        return pos - pos[:, [0]]


@dataclass(frozen=True)
class TransientReport:
    magnitude: float
    time_at_extremum: float
    agent_at_extremum: int
    converged: bool


def _step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = M y as a matrix: y <- P y.

    P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, by Horner's rule.
    """
    h = dt * m
    eye = np.eye(len(m))
    p = eye + h / 4.0
    p = eye + (h / 3.0) @ p
    p = eye + (h / 2.0) @ p
    return eye + h @ p


def simulate(
    spec: FlockSpec,
    n: int,
    bc: BoundaryCondition,
    t_max: float,
    dt: float = DEFAULT_DT,
    *,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the line system with classical fixed-step RK4.

    The system is linear and time-invariant, so one RK4 step is the
    precomputed matrix product y <- P y (see :func:`_step_matrix`).  Steps
    run in batches of 64 columns of 16 steps: column c starts from
    Q^c y with Q = P^16, and the 16 steps advance all columns at once as
    matrix-matrix products.  The guard, the extremum and the storage still
    cover every step; steps past ``t_max`` that pad the last batch are
    dropped before any of them.

    Raises :class:`BlowUp` with the first offending time when the state
    max-norm crosses the overflow guard (the expected outcome for
    genuinely unstable parameter sets).  A run of more than 1e8 steps, or
    whose stored states or dense operators would exceed 2 GiB, raises
    ``ValueError`` before anything is assembled or allocated.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not dt <= t_max < np.inf:
        raise ValueError(f"t_max must be finite and at least one step, got {t_max}")
    if t_max / dt > _MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.6g} RK4 steps, "
                         f"over the budget of {_MAX_STEPS:.0e} steps")
    steps = int(round(t_max / dt))
    # a stride past the last step stores only t = 0, as any larger one (or inf) would
    stride = int(min(max(1.0, np.ceil(STORE_SPACING / dt)), steps + 1))
    stored = steps // stride + 1
    dim = 2 * spec.n_types * n
    check_budget(f"{stored} stored states of {dim} values", stored * dim * 8)
    check_budget(f"{_DENSE_ARRAYS} dense {dim} x {dim} arrays", _DENSE_ARRAYS * dim * dim * 8)

    system = assemble_line(spec, n, bc)
    n_agents = system.n_agents

    y = np.zeros(system.dim)
    if initial_state is None:
        y[n_agents] = 1.0  # leader velocity kick
    else:
        initial_state = np.asarray(initial_state, dtype=float)
        if initial_state.shape != y.shape:
            raise ValueError(f"initial_state must have shape {y.shape}")
        y = initial_state.copy()

    times = np.arange(stored) * (stride * dt)
    states = np.empty((stored, system.dim))
    states[0] = y

    dev = y[:n_agents] - y[0]
    worst = int(np.argmax(np.abs(dev)))
    peak, peak_t, peak_agent = dev[worst], 0.0, worst

    # an out-of-region dt or an unstable flock overflows P, Q or the steps past
    # a guard crossing; the guard reports that as a BlowUp, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p = _step_matrix(system.entries, dt)
        q = np.linalg.matrix_power(p, _BLOCK_STEPS)
        batch = _COLUMNS * _BLOCK_STEPS
        cols = np.empty((_BLOCK_STEPS + 1, _COLUMNS, system.dim))
        flat = np.empty((batch, system.dim))
        abs_dev = np.empty((batch, n_agents))
        done = 0  # step number of y
        while done < steps:
            count = min(batch, steps - done)
            k = -(-count // _BLOCK_STEPS)  # columns this batch needs
            # cols[j, c] is the state at step done + c * _BLOCK_STEPS + j
            cols[0, 0] = y
            for c in range(1, k):
                np.dot(q, cols[0, c - 1], out=cols[0, c])
            for j in range(_BLOCK_STEPS):
                np.dot(cols[j, :k], p.T, out=cols[j + 1, :k])
            np.copyto(flat[: k * _BLOCK_STEPS].reshape(k, _BLOCK_STEPS, -1),
                      cols[1:, :k].swapaxes(0, 1))
            # row i is step done + 1 + i; padding past t_max goes before any check
            block = flat[:count]

            # guard first: rows after a crossing may hold inf or nan
            if not max(block.max(), -block.min()) <= BLOWUP_GUARD:
                norms = np.abs(block).max(axis=1)
                over = np.flatnonzero(norms > BLOWUP_GUARD)
                if over.size:
                    i = int(over[0])
                    raise BlowUp((done + 1 + i) * dt, norms[i])

            # flat first occurrence: earliest row, then lowest agent
            mag = abs_dev[:count]
            np.subtract(block[:, :n_agents], block[:, :1], out=mag)
            np.abs(mag, out=mag)
            row, agent = divmod(int(np.argmax(mag)), n_agents)
            if mag[row, agent] > abs(peak):
                peak = block[row, agent] - block[row, 0]
                peak_t, peak_agent = (done + 1 + row) * dt, agent

            first_stored = (done // stride + 1) * stride
            ks = np.arange(first_stored, done + count + 1, stride)
            states[ks // stride] = block[ks - done - 1]

            y = block[-1]
            done += count

    return Trajectory(
        times=times,
        states=states,
        bc=BoundaryCondition(bc),
        peak_deviation=float(peak),
        peak_time=peak_t,
        peak_agent=peak_agent,
    )


def transient(traj: Trajectory) -> TransientReport:
    """Extremal leader-relative deviation and a decay check.

    Converged means the deviations over the last 5% of the window stay
    below 10% of the extremum.
    """
    magnitude = traj.peak_deviation
    dev = traj.deviations()
    span = traj.times[-1] - traj.times[0]
    tail = traj.times >= traj.times[-1] - 0.05 * span
    tail_max = float(np.abs(dev[tail]).max()) if tail.any() else 0.0
    converged = magnitude == 0.0 or tail_max < 0.1 * abs(magnitude)
    return TransientReport(
        magnitude=magnitude,
        time_at_extremum=traj.peak_time,
        agent_at_extremum=traj.peak_agent,
        converged=converged,
    )


@dataclass(frozen=True)
class ScanPoint:
    N: int
    magnitude: float | None
    log_abs_magnitude: float | None
    blowup_time: float | None = None

    @property
    def censored(self) -> bool:
        return self.log_abs_magnitude is None


@dataclass(frozen=True)
class ScanResult:
    points: tuple[ScanPoint, ...]
    slope: float
    intercept: float
    r_squared: float
    fit_error: str | None = None


def default_horizon(n_total: int) -> float:
    """The default t_max of a run of n_total vehicles: 3 time units per vehicle."""
    return 3.0 * n_total


def scan_N(
    spec: FlockSpec,
    bc: BoundaryCondition,
    N_values: list[int],
    dt: float = DEFAULT_DT,
    t_max: float | None = None,
) -> ScanResult:
    """Transient magnitude as a function of flock size.

    Runs one line simulation per N (t_max defaults to :func:`default_horizon`),
    fits log|magnitude| against N by least squares, and reports the slope
    with its R^2.  Runs that blow up are censored from the fit but kept in
    the point list with their blow-up time.
    """
    if len(N_values) == 0:
        raise SizeError("N_values is empty; give at least one flock size")
    t = spec.n_types
    for n_total in N_values:
        if n_total % t != 0 or n_total < 3 * t:
            raise SizeError(f"N={n_total} is not a multiple of {t} (or too small)")

    def run(n_total: int) -> ScanPoint:
        horizon = default_horizon(n_total) if t_max is None else t_max
        try:
            traj = simulate(spec, n_total // t, bc, horizon, dt)
        except BlowUp as blow:
            return ScanPoint(n_total, None, None, blowup_time=blow.time)
        mag = transient(traj).magnitude
        log_mag = float(np.log(abs(mag))) if mag != 0.0 else None
        return ScanPoint(n_total, mag, log_mag)

    points = tuple(run(n_total) for n_total in N_values)

    usable = [(p.N, p.log_abs_magnitude) for p in points if not p.censored]
    if len(usable) < 2:
        return ScanResult(
            points, float("nan"), float("nan"), float("nan"),
            fit_error=f"need at least two finite magnitudes, have {len(usable)}",
        )
    xs = np.array([u[0] for u in usable], dtype=float)
    ys = np.array([u[1] for u in usable], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float("nan")
    return ScanResult(points, float(slope), float(intercept), r_squared)
