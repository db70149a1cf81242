"""Line simulations from the leader kick, and transient measurement.

The flock starts at rest in equilibrium; at t = 0 the head vehicle picks
up unit velocity and keeps it (its acceleration row is zero).  Everything
of interest is the leader-relative deviation z_k(t) - z_leader(t), whose
extremal value over all vehicles and times is the transient magnitude.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import model
from .errors import BlowUp, SizeError
from .model import BoundaryCondition, FlockSpec, _stencil, check_budget

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

#: dense dim x dim arrays a run holds at once, rounded up (2.40, 27.6 MB, at dim 1200
#: under tracemalloc: Q and the column buffers): 2 GiB allows dim 9459, 4700 vehicles
_DENSE_ARRAYS = 3


@dataclass(frozen=True)
class Trajectory:
    """Decimated state history plus the full-resolution extremum record.

    ``states`` holds one row per stored time: the positions of vehicles
    0..N-1 in line order (0 is the leader), then their velocities in the
    same order.  The extremum fields are tracked at every integration step,
    not just the stored ones; ``peak_agent`` is a vehicle index.
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


def _line_band(spec: FlockSpec, n: int, bc: BoundaryCondition) -> _Band:
    """The line's M interleaved (x_k at 2k, v_k at 2k + 1), from the stencil."""
    k, kind, c, gw = _stencil(spec, n, BoundaryCondition(bc))
    x = 2 * np.arange(spec.n_types * n)  # x_k' = v_k
    return _Band(2 * len(x), np.r_[x, 2 * k + 1], np.r_[x + 1, 2 * c + kind],
                 np.r_[np.ones(len(x)), gw])


def _step_matrix(band: _Band, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = M y as a matrix, from M's band: y <- P y.

    P = I + hM (I + hM/2 (I + hM/3 (I + hM/4))), h = dt, by Horner's rule as four
    band products of hM on the rows of the identity (row i holds column i of P).
    """
    band.weights *= dt
    i = np.arange(band.dim)
    rows = band.power(0)
    for k in (4.0, 3.0, 2.0, 1.0):
        rows = band.power(1, rows)
        rows /= k
        rows[i, band.w + i] += 1.0
    return rows[:, band.w:band.w + band.dim].T


def _column_start_matrix(band: _Band) -> np.ndarray:
    """Q = P^_BLOCK_STEPS by band products of P on the identity's rows, with the
    entries below ``tiny`` set to zero: the raw power of a long line holds
    subnormal entries (976 for the dim-360 figure 1 and 2 lines), which slow
    every column-start product that meets them."""
    q = band.power(_BLOCK_STEPS)[:, band.w:band.w + band.dim]
    q[np.abs(q) < np.finfo(float).tiny] = 0.0
    # row i holds column i of Q; the column-start GEMVs want Q itself in C order
    return np.ascontiguousarray(q.T)


class _Band:
    """y <- P y for the banded dim x dim P with entries P[i, j] = v, on padded rows.

    The index range is cut into nb blocks of w, the half-bandwidth of the nonzero
    v, so row block b of P meets only the column blocks b - 1, b and b + 1.  A
    padded row holds w zeros, the state, and zeros up to ``width`` = (nb + 2) w;
    block b of P y is then the row's 3w-wide window from padded offset b w
    times ``weights[b]``: one stacked matmul of :meth:`windows` by
    ``weights`` into :meth:`blocks` steps every row at once, without a copy.
    """

    def __init__(self, dim: int, i: np.ndarray, j: np.ndarray, v: np.ndarray):
        nonzero = v != 0.0  # a zero weight stays +0.0, as in a dense assembly
        i, j, v = i[nonzero], j[nonzero], v[nonzero]
        self.dim = dim
        self.w = w = max(1, int(np.abs(i - j).max(initial=0)))
        self.nb = nb = -(-dim // w)
        self.width = (nb + 2) * w
        # weights[b, c, r] = P[b w + r, (b - 1) w + c]
        b = i // w
        self.weights = np.zeros((nb, 3 * w, w))
        self.weights[b, j - (b - 1) * w, i - b * w] = v

    def power(self, k: int, rows: np.ndarray | None = None) -> np.ndarray:
        """P^k y for each (dim, width) padded row y, those of the identity by default,
        by k products alternating with one more buffer: returns the one holding it."""
        if rows is None:
            rows = np.zeros((self.dim, self.width))
            np.fill_diagonal(rows[:, self.w:], 1.0)
        spare = np.zeros_like(rows)
        for _ in range(k):
            np.matmul(self.windows(rows), self.weights, out=self.blocks(spare))
            rows, spare = spare, rows
        return rows

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


def simulate(spec: FlockSpec, n: int, bc: BoundaryCondition, t_max: float,
             dt: float = DEFAULT_DT) -> Trajectory:
    """Integrate the line system from the leader kick with classical fixed-step RK4.

    One RK4 step is the matrix product y <- P y.  With the state interleaved
    (x_0, v_0, x_1, v_1, ...) M and P are banded, and one block-tridiagonal
    product (see :class:`_Band`) builds P from M, Q = P^32 from P (see
    :func:`_column_start_matrix`), and steps batches of 32 columns of 32
    steps: column c starts from Q^c y, and each step advances all columns at
    once.  In :func:`_run`, the guard, extremum and storage cover every step.

    Raises :class:`BlowUp` with the first time the state max-norm crosses
    the overflow guard or stops being finite (the expected outcome for
    genuinely unstable parameter sets).  A run of more than 1e8 steps, or
    whose stored states or dense operators would exceed 2 GiB, raises
    ``ValueError`` before anything is assembled or allocated; after those
    checks, fewer than 3 cells per type raise :class:`SizeError`.
    """
    return _run(spec, n, bc, t_max, dt, store=True)


def _run(spec: FlockSpec, n: int, bc: BoundaryCondition, t_max: float, dt: float,
         store: bool, y0: np.ndarray | None = None) -> Trajectory:
    """:func:`simulate`'s checks and run, from y0 (a row of ``states``) or the
    leader kick; the band steps the state interleaved as x_0, v_0, x_1, v_1, ...
    The stride is capped at steps + 1, which stores only t = 0 as any larger
    one (or inf) would; a run with store False takes that stride."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not dt <= t_max < np.inf:
        raise ValueError(f"t_max must be finite and at least one step, got {t_max}")
    if t_max / dt > _MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.6g} RK4 steps, "
                         f"over the budget of {_MAX_STEPS:.0e} steps")
    steps = int(round(t_max / dt))
    stride = int(min(max(1.0, np.ceil(STORE_SPACING / dt)), steps + 1)) if store else steps + 1
    dim = 2 * spec.n_types * n
    stored = steps // stride + 1
    check_budget(f"{stored} stored states of {dim} values", stored * dim * 8)
    check_budget(f"{_DENSE_ARRAYS} dense {dim} x {dim} arrays", _DENSE_ARRAYS * dim * dim * 8)
    m_band = _line_band(spec, n, bc)  # refuses n < 3
    if y0 is None:
        y0 = np.zeros(dim)
        y0[dim // 2] = 1.0  # leader velocity kick

    n_agents = dim // 2
    times = np.arange(stored) * (stride * dt)
    states = np.empty((stored, 2, n_agents))  # [positions; velocities] per row
    states[0] = y0.reshape(2, n_agents)

    dev = states[0, 0] - states[0, 0, 0]
    worst = int(np.argmax(np.abs(dev)))
    peak, peak_t, peak_agent = dev[worst], 0.0, worst

    y = states[0].T.ravel()  # interleaved
    # an out-of-region dt or an unstable flock overflows P, Q or the steps past
    # a guard crossing; the guard reports that as a BlowUp, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p = _step_matrix(m_band, dt)
        if not np.isfinite(p).all():
            # some row of P y meets a non-finite entry: the first step is not finite
            raise BlowUp(dt, np.abs(p @ y).max())
        band = _Band(dim, *np.nonzero(p), p[p != 0.0])
        del p
        q = _column_start_matrix(band)
        batch = _COLUMNS * _BLOCK_STEPS
        cols = np.zeros((_BLOCK_STEPS + 1, _COLUMNS, band.width))
        # cols[j, c] is the padded state at step done + c * _BLOCK_STEPS + j
        col_states = cols[:, :, band.w:band.w + band.dim]
        src, dst = band.windows(cols), band.blocks(cols)
        # agents first: the per-row extrema below are then elementwise over
        # (steps, columns) planes, not one short reduction per row
        positions = np.empty((n_agents, _BLOCK_STEPS, _COLUMNS))
        done = 0  # step number of y
        while done < steps:
            count = min(batch, steps - done)
            k = -(-count // _BLOCK_STEPS)  # columns this batch needs
            col_states[0, 0] = y
            for c in range(1, k):
                np.dot(q, col_states[0, c - 1], out=col_states[0, c])
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
                # the earliest row, then the first vehicle among its maxima
                i = int(np.argmax(mag.T))
                c, j = divmod(i, _BLOCK_STEPS)
                row = col_states[j + 1, c]
                dev = row[::2] - row[0]
                v = int(np.argmax(np.abs(dev)))
                peak, peak_t, peak_agent = dev[v], (done + 1 + i) * dt, v

            first = done // stride + 1  # the first stored row past y
            ks = np.arange(first * stride, done + count + 1, stride)
            c, j = np.divmod(ks - done - 1, _BLOCK_STEPS)
            # de-interleaved; a batch that stores no row gathers nothing
            picked = col_states[j + 1, c].reshape(-1, n_agents, 2)
            states[first:first + len(ks)] = picked.transpose(0, 2, 1)

            c, j = divmod(count - 1, _BLOCK_STEPS)
            y = col_states[j + 1, c]
            done += count

    return Trajectory(
        times=times,
        states=states.reshape(stored, dim),
        bc=BoundaryCondition(bc),
        peak_deviation=float(peak),
        peak_time=peak_t,
        peak_agent=peak_agent,
    )


def transient(traj: Trajectory) -> TransientReport:
    """Extremal leader-relative deviation and a decay check.

    Converged means the deviations over the last 5% of the stored window
    stay below 10% of the extremum, and the extremum is not later than the
    last stored time (past it, the run's tail is unseen).
    """
    magnitude = traj.peak_deviation
    span = traj.times[-1] - traj.times[0]
    tail = traj.times >= traj.times[-1] - 0.05 * span
    tail_max = float(np.abs(traj.deviations(rows=tail)).max()) if tail.any() else 0.0
    seen = bool(traj.peak_time <= traj.times[-1])
    converged = magnitude == 0.0 or (seen and tail_max < 0.1 * abs(magnitude))
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


def _scan_workers(sizes: list[int]) -> int:
    """Runs of these flock sizes that :func:`scan_N` holds at once: 2, or 1 on a
    one-core host or when the two largest runs' dense arrays (each
    ``_DENSE_ARRAYS`` dim x dim, dim = 2 N) together exceed the budget of one."""
    dense = sum(_DENSE_ARRAYS * (2 * n_total) ** 2 * 8 for n_total in sorted(sizes)[-2:])
    return 2 if (os.cpu_count() or 1) > 1 and dense <= model._MAX_BYTES else 1


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

    Each run is :func:`simulate`'s, through :func:`_run` with the same steps,
    guard and extremum, so its magnitude is that run's ``peak_deviation``
    and its blow-up time that of its :class:`BlowUp`, but it stores only
    the t = 0 row.  So a run is refused with :func:`simulate`'s
    ``ValueError`` over 1e8 steps or over the dense operators' 2 GiB budget
    (N above 4728 for three types), never for its stored states.

    The runs go two at a time on threads, largest N first, each with the
    bits it has alone; a repeated N runs once, and the points follow
    ``N_values``.  A refusal is the serial loop's: that of the first refused
    N in list order.  The runs go one at a time on a one-core host, or when
    the two largest runs' dense arrays together exceed the 2 GiB budget of
    one (two N near 3345 do), so a scan never holds more than one run may.
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
            mag = _run(spec, n_total // t, bc, horizon, dt, store=False).peak_deviation
        except BlowUp as blow:
            return ScanPoint(n_total, None, None, blowup_time=blow.time)
        log_mag = float(np.log(abs(mag))) if mag != 0.0 else None
        return ScanPoint(n_total, mag, log_mag)

    # imported here, so that a command which runs no scan does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    sizes = sorted(set(N_values), reverse=True)
    pool = ThreadPoolExecutor(_scan_workers(sizes))
    try:
        runs = {n_total: pool.submit(run, n_total) for n_total in sizes}
        points = tuple(runs[n_total].result() for n_total in N_values)
    finally:
        # after a refusal, the sizes not yet started never start
        pool.shutdown(cancel_futures=True)

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
