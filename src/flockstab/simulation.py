"""Line simulations from the leader kick, and transient measurement.

The flock starts at rest in equilibrium; at t = 0 the head vehicle picks
up unit velocity and keeps it (its acceleration row is zero).  Everything
of interest is the leader-relative deviation z_k(t) - z_leader(t), whose
extremal value over all vehicles and times is the transient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BlowUp, SizeError
from .model import BoundaryCondition, FlockSpec, _block_index, assemble_line, check_budget

BLOWUP_GUARD = 1e12

#: RK4 steps per column; consecutive column starts are Q = P^_BLOCK_STEPS apart,
#: built without subnormal entries by :func:`_column_start_matrix`
_BLOCK_STEPS = 32

#: columns stepped together, one stacked banded product per step; a batch of
#: _COLUMNS * _BLOCK_STEPS steps shares one guard, extremum and storage pass
_COLUMNS = 32

#: target spacing of stored trajectory samples, in time units
STORE_SPACING = 0.1

#: RK4 step of a run that names none, in time units
DEFAULT_DT = 0.01

#: a run is refused over this many RK4 steps (2500 times figure 1a's 40 000)
_MAX_STEPS = 10**8

#: dense dim x dim arrays at a run's peak: M and the Horner temporaries of P
#: (69.2 MB at dim 1200 under tracemalloc); the later Q build holds P, P^16
#: scaled in place, the square and a mask, 3.1 arrays: 2 GiB allows dim 6688,
#: about 3300 vehicles
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

    def deviations(self, rows=slice(None), agents=slice(None)) -> np.ndarray:
        """Leader-relative position deviations on the stored grid, of the
        given rows (stored steps) and agents only."""
        pos = self.states[rows, : self.n_agents]
        return pos[:, agents] - pos[:, :1]


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


def _vehicle_order(t: int, n: int) -> np.ndarray:
    """The block-order index of each state in vehicle order x_0, v_0, x_1, v_1, ..."""
    k = _block_index(np.arange(t * n), t, n)
    return np.stack((k, t * n + k), axis=1).ravel()


def _column_start_matrix(p: np.ndarray) -> tuple[np.ndarray, float]:
    """Q = 2^(2a) P^_BLOCK_STEPS without subnormal entries, and the factor 2^(-2a).

    Q is the square of H = 2^a P^(_BLOCK_STEPS/2), so (Q y) 2^(-2a) is
    P^_BLOCK_STEPS y, and both scalings are exact wherever no value is
    subnormal.  Unscaled, the power holds subnormal entries on long lines
    (976 in P^32 of the dim-360 figure 1 and 2 lines), which slow every
    product that meets them.  a lifts the smallest product of two entries of
    H into the normal range, but no further than keeps every column start
    from a state within the blow-up guard finite, nor than 2^(-2a) stays
    normal.  Entries of Q still below the normal range are set to zero.
    """
    half = np.linalg.matrix_power(p, _BLOCK_STEPS // 2)
    q = np.abs(half)  # scratch until it holds the square
    top = q.max()
    a = 0
    if np.isfinite(top) and top > 0.0:
        low = np.min(q, where=q > 0.0, initial=top)
        # entries lie in [2^(e_low - 1), 2^e_top): a product of two, lifted by
        # 2^(2a), is normal from 2a >= -1020 - 2 e_low; a sum of dim of them
        # times a state within the guard stays below 2^1023
        lift = -510 - int(np.frexp(low)[1])
        room = int((1023 - np.log2(len(p) * BLOWUP_GUARD)) // 2) - int(np.frexp(top)[1])
        a = max(0, min(lift, room, 511))
    half *= 2.0 ** a
    np.matmul(half, half, out=q)
    np.abs(q, out=half)
    q[half < np.finfo(float).tiny] = 0.0
    return q, 2.0 ** (-2 * a)


class _Band:
    """y <- P y for a banded P, on the rows of a zero-padded buffer.

    The index range is cut into nb blocks of P's half-bandwidth w, so row
    block b of P meets only the column blocks b - 1, b and b + 1.  A padded
    row holds w zeros, the state, and zeros up to ``width`` = (nb + 2) w;
    block b of P y is then the row's 3w-wide window from padded offset b w
    times ``weights[b]``: one stacked matmul of :meth:`windows` by
    ``weights`` into :meth:`blocks` steps every row at once, without a copy.
    """

    def __init__(self, p: np.ndarray):
        dim = len(p)
        i, j = np.nonzero(p)
        self.w = w = max(1, int(np.abs(i - j).max(initial=0)))
        self.nb = nb = -(-dim // w)
        self.width = (nb + 2) * w
        padded = np.zeros((nb * w, self.width))
        padded[:dim, w:w + dim] = p
        b = np.arange(nb)[:, None, None] * w
        # weights[b, c, r] = P[b w + r, (b - 1) w + c]
        self.weights = padded[b + np.arange(w), b + np.arange(3 * w)[:, None]]

    def windows(self, rows: np.ndarray) -> np.ndarray:
        """The overlapping read-only (..., nb, C, 3w) view of (..., C, width) padded rows."""
        return self._view(rows, 0, 3 * self.w, writeable=False)

    def blocks(self, rows: np.ndarray) -> np.ndarray:
        """The (..., nb, C, w) view of the states in (..., C, width) padded rows."""
        return self._view(rows, self.w, self.w, writeable=True)

    def _view(self, rows, offset, span, writeable):
        *lead, s0, s1 = rows.strides
        return as_strided(rows[..., offset:], (*rows.shape[:-2], self.nb, rows.shape[-2], span),
                          (*lead, self.w * s1, s0, s1), writeable=writeable)


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
    run in vehicle order (x_0, v_0, x_1, v_1, ...), where each vehicle
    couples only to its neighbours and P is banded, and in batches of 32
    columns of 32 steps: column c starts from Q^c y with the dense
    Q = P^32, scaled by a power of two so that it holds no subnormal entry
    (see :func:`_column_start_matrix`), and each of the 32 steps advances
    all columns at once as one block-tridiagonal product (see :class:`_Band`).
    The guard, the extremum and the storage cover every step and read the
    (steps + 1, columns, width) column buffer directly, in time order; only
    the stored rows go back to block order.  Steps past ``t_max`` that pad
    the last column are zeroed before any of them.

    Raises :class:`BlowUp` with the first time the state max-norm crosses
    the overflow guard or stops being finite (the expected outcome for
    genuinely unstable parameter sets).  A run of more than 1e8 steps, or
    whose stored states or dense operators would exceed 2 GiB, raises
    ``ValueError`` before anything is assembled or allocated, as does an
    ``initial_state`` of the wrong shape or with a value that is not finite.
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
    n_agents = spec.n_types * n
    dim = 2 * n_agents
    check_budget(f"{stored} stored states of {dim} values", stored * dim * 8)
    check_budget(f"{_DENSE_ARRAYS} dense {dim} x {dim} arrays", _DENSE_ARRAYS * dim * dim * 8)

    y = np.zeros(dim)
    if initial_state is None:
        y[n_agents] = 1.0  # leader velocity kick
    else:
        initial_state = np.asarray(initial_state, dtype=float)
        if initial_state.shape != y.shape:
            raise ValueError(f"initial_state must have shape {y.shape}")
        if not np.isfinite(initial_state).all():
            raise ValueError("initial_state must be finite")
        y = initial_state.copy()

    times = np.arange(stored) * (stride * dt)
    states = np.empty((stored, dim))
    states[0] = y

    dev = y[:n_agents] - y[0]
    worst = int(np.argmax(np.abs(dev)))
    peak, peak_t, peak_agent = dev[worst], 0.0, worst

    order = _vehicle_order(spec.n_types, n)
    agent = order[::2]  # block-order agent of each vehicle
    to_block = np.argsort(order)
    y = y[order]
    # an out-of-region dt or an unstable flock overflows P, Q or the steps past
    # a guard crossing; the guard reports that as a BlowUp, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # P and Q are multiplied out in block order and then permuted: products
        # taken in vehicle order round differently, and the transient growth
        # carries that up to 1e-12 in the peaks
        p = _step_matrix(assemble_line(spec, n, bc).entries, dt)
        q, unscale = _column_start_matrix(p)
        q = q[np.ix_(order, order)]
        p = p[np.ix_(order, order)]
        if not np.isfinite(p).all():
            # some row of P y meets a non-finite entry: the first step is not finite
            raise BlowUp(dt, np.abs(p @ y).max())
        band = _Band(p)
        batch = _COLUMNS * _BLOCK_STEPS
        cols = np.zeros((_BLOCK_STEPS + 1, _COLUMNS, band.width))
        # cols[j, c] is the padded state at step done + c * _BLOCK_STEPS + j
        col_states = cols[:, :, band.w:band.w + dim]
        src, dst = band.windows(cols), band.blocks(cols)
        # agents first: the per-row extrema below are then elementwise over
        # (steps, columns) planes, not one short reduction per row
        positions = np.empty((n_agents, _BLOCK_STEPS, _COLUMNS))
        # the stored rows of a batch, gathered whole and then put in block order
        kept = np.empty((min(batch, batch // stride + 1), band.width))
        padded_rows = cols.reshape(-1, band.width)
        from_padded = to_block + band.w
        done = 0  # step number of y
        while done < steps:
            count = min(batch, steps - done)
            k = -(-count // _BLOCK_STEPS)  # columns this batch needs
            col_states[0, 0] = y
            for c in range(1, k):
                start = col_states[0, c]
                np.dot(q, col_states[0, c - 1], out=start)
                start *= unscale
            for j in range(_BLOCK_STEPS):
                np.matmul(src[j, :, :k], band.weights, out=dst[j + 1, :, :k])
            # rows[j, c] is step done + 1 + i, i = c * _BLOCK_STEPS + j; the
            # steps past t_max that pad the last column are zeroed before any check
            cols[count - (k - 1) * _BLOCK_STEPS + 1:, k - 1] = 0.0
            rows = cols[1:, :k]

            # guard first: rows after a crossing may hold inf or nan
            if not max(rows.max(), -rows.min()) <= BLOWUP_GUARD:
                norms = np.abs(rows).max(axis=2).T.ravel()
                i = int(np.flatnonzero(~(norms <= BLOWUP_GUARD))[0])
                raise BlowUp((done + 1 + i) * dt, norms[i])

            # a row's largest |x_v - x_0| is max x - x_0 or x_0 - min x: rounding
            # is monotone and symmetric, so both equal the largest rounded difference
            x = positions[:, :, :k]
            np.copyto(x, col_states[1:, :k, ::2].transpose(2, 0, 1))
            x0 = x[0]
            mag = np.maximum(x.max(axis=0) - x0, x0 - x.min(axis=0))
            if mag.max() > abs(peak):
                # the earliest row, then the lowest block-order agent among its maxima
                i = int(np.argmax(mag.T))
                c, j = divmod(i, _BLOCK_STEPS)
                row = col_states[j + 1, c]
                dev = row[::2] - row[0]
                ties = np.flatnonzero(np.abs(dev) == mag[j, c])
                v = ties[np.argmin(agent[ties])]
                peak, peak_t, peak_agent = dev[v], (done + 1 + i) * dt, int(agent[v])

            first = done // stride + 1  # the first stored row past y
            ks = np.arange(first * stride, done + count + 1, stride)
            c, j = np.divmod(ks - done - 1, _BLOCK_STEPS)
            np.take(padded_rows, (j + 1) * _COLUMNS + c, axis=0, out=kept[:len(ks)])
            states[first:first + len(ks)] = kept[:len(ks), from_padded]

            c, j = divmod(count - 1, _BLOCK_STEPS)
            y = col_states[j + 1, c]
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
    span = traj.times[-1] - traj.times[0]
    tail = traj.times >= traj.times[-1] - 0.05 * span
    tail_max = float(np.abs(traj.deviations(rows=tail)).max()) if tail.any() else 0.0
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
