import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from flockstab import (
    Arrangement,
    BlowUp,
    BoundaryCondition,
    SizeError,
    build_spec,
    scan_N,
    simulate,
    transient,
)
from flockstab.figures import figure1, figure2, figure3, figure3c
from flockstab import model, simulation
from flockstab.model import assemble_line
from flockstab.simulation import (_BLOCK_STEPS, _COLUMNS, BLOWUP_GUARD, STORE_SPACING, _Band,
                                  _column_start_matrix, _line_band, _run, _scan_workers,
                                  _step_matrix, default_horizon)
from conftest import random_diatomic, random_spec, random_triatomic

BC1, BC2 = BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II


def _unstable_spec():
    # positive positional gains push eigenvalues into the right half-plane
    return build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": 1.0, "g_v": 0.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )


def _four_stage_reference(spec, n, bc, steps, dt, y0=None):
    """Classical RK4 as four stages per step, checked at every step.

    The oracle for ``simulate``: returns the stored states, peak, peak
    time and peak agent, or raises BlowUp at the first guard crossing.
    """
    m = assemble_line(spec, n, bc).entries
    n_agents = len(m) // 2
    if y0 is None:
        y = np.zeros(len(m))
        y[n_agents] = 1.0
    else:
        y = np.array(y0, dtype=float)
    stride = max(1, int(np.ceil(STORE_SPACING / dt)))
    states = [y]
    dev = y[:n_agents] - y[0]
    worst = int(np.argmax(np.abs(dev)))
    peak, peak_t, peak_agent = dev[worst], 0.0, worst
    for k in range(1, steps + 1):
        k1 = m @ y
        k2 = m @ (y + 0.5 * dt * k1)
        k3 = m @ (y + 0.5 * dt * k2)
        k4 = m @ (y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        norm = np.abs(y).max()
        if norm > BLOWUP_GUARD:
            raise BlowUp(k * dt, norm)
        dev = y[:n_agents] - y[0]
        worst = int(np.argmax(np.abs(dev)))
        if abs(dev[worst]) > abs(peak):
            peak, peak_t, peak_agent = dev[worst], k * dt, worst
        if k % stride == 0:
            states.append(y)
    return np.array(states), float(peak), peak_t, peak_agent


_REFERENCE_SPECS = {
    "figure1": (figure1, 4),
    "figure3": (figure3, 6),
    "random-triatomic": (lambda: random_triatomic(np.random.default_rng(5)), 4),
    "random-diatomic": (lambda: random_diatomic(np.random.default_rng(6)), 5),
}


_BATCH = _COLUMNS * _BLOCK_STEPS  # steps per batch of columns


def _assert_matches_reference(spec, n, bc, steps, dt, y0=None):
    states, peak, peak_t, peak_agent = _four_stage_reference(spec, n, bc, steps, dt, y0)
    if y0 is None:
        traj = simulate(spec, n, bc, steps * dt, dt)
    else:
        traj = _run(spec, n, bc, steps * dt, dt, True, y0)
    assert traj.states.shape == states.shape
    assert np.abs(traj.states - states).max() <= 1e-11 * np.abs(states).max()
    assert traj.peak_time == peak_t
    assert traj.peak_agent == peak_agent
    assert traj.peak_deviation == pytest.approx(peak, rel=1e-11)


@pytest.mark.parametrize("dt", [0.01, 0.007])  # stride 15 does not divide the block
@pytest.mark.parametrize(
    "steps",
    [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 7,
     _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 7],
)
@pytest.mark.parametrize("bc", [BC1, BC2])
@pytest.mark.parametrize("name", sorted(_REFERENCE_SPECS))
def test_step_matrix_matches_four_stage_reference(name, bc, steps, dt):
    make, n = _REFERENCE_SPECS[name]
    _assert_matches_reference(make(), n, bc, steps, dt)


# the last batch holds 5 steps and no multiple of 10; at stride 2000 only
# the second of the four batches stores a row
@pytest.mark.parametrize("dt, storing_batches", [(0.01, [0, 1, 2]), (5e-5, [1])],
                         ids=["stride-10", "stride-2000"])
def test_three_batch_horizon_matches_four_stage_reference(dt, storing_batches):
    steps = 3 * _BATCH + 5
    stride = int(np.ceil(STORE_SPACING / dt))
    assert sorted({(k - 1) // _BATCH for k in range(stride, steps + 1, stride)}) == storing_batches
    _assert_matches_reference(figure1(), 20, BC1, steps, dt)


def _uncoupled_spec():
    # zero gains: every vehicle keeps its initial velocity
    return build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": 0.0, "g_v": 0.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )


# the last batch of a run this long holds three full columns and a partial one,
# as steps % _BATCH > _BLOCK_STEPS
_LAST_COLUMN_PARTIAL = 2 * _BATCH + 3 * _BLOCK_STEPS + 5


@pytest.mark.parametrize("steps", [_BATCH + 7, _LAST_COLUMN_PARTIAL])
def test_extremum_ties_go_to_the_first_agent(steps):
    # agents 1 and 2 drift at +1 and -1: their |deviations| tie exactly in
    # every row and grow, so the peak is the last step, in a partial last
    # column whose padding past t_max holds larger ones; it must stay with agent 1
    assert steps % _BLOCK_STEPS > 1  # the last column is partial
    y0 = np.zeros(24)
    y0[13], y0[14] = 1.0, -1.0
    traj = _run(_uncoupled_spec(), 4, BC1, steps * 0.01, 0.01, True, y0)
    assert traj.peak_time == steps * 0.01
    assert traj.peak_agent == 1
    _assert_matches_reference(_uncoupled_spec(), 4, BC1, steps, 0.01, y0)


def _dense_line(spec, n, bc):
    """The dense oracle of M in the band's order x_0, v_0, x_1, v_1, ...: the
    [positions; velocities] line matrix, permuted."""
    dim = 2 * spec.n_types * n
    order = np.arange(dim).reshape(2, dim // 2).T.ravel()
    return assemble_line(spec, n, bc).entries[np.ix_(order, order)]


def _band_of(p):
    """The band of a dense P, from its nonzero entries as :func:`_run` reads P's."""
    i, j = np.nonzero(p)
    return _Band(len(p), i, j, p[i, j])


_BAND_SPECS = {
    "figure1": figure1,
    "figure3": figure3,  # zero weights, which must enter the band as +0.0
    "random-triatomic": lambda: random_triatomic(np.random.default_rng(7)),
    "random-diatomic": lambda: random_diatomic(np.random.default_rng(8)),
}


@pytest.mark.parametrize("n", [3, 4, 7, 20])
@pytest.mark.parametrize("bc", [BC1, BC2])
@pytest.mark.parametrize("name", sorted(_BAND_SPECS))
def test_line_band_is_the_dense_line_operator(name, bc, n):
    spec = _BAND_SPECS[name]()
    band, dense = _line_band(spec, n, bc), _dense_line(spec, n, bc)
    i, j = np.nonzero(dense)
    assert band.dim == len(dense)
    assert band.w == max(1, np.abs(i - j).max())
    # weights[b, c, r] = M[b w + r, (b - 1) w + c]; every weight off M is zero
    b, c, r = np.indices(band.weights.shape)
    rows, cols = b * band.w + r, (b - 1) * band.w + c
    on = (rows < len(dense)) & (cols >= 0) & (cols < len(dense))
    assert not band.weights[~on].any()
    rebuilt = np.zeros_like(dense)
    rebuilt[rows[on], cols[on]] = band.weights[on]
    assert rebuilt.tobytes() == dense.tobytes()  # value for value, signed zeros included


@pytest.mark.parametrize("n", [3, 4, 7, 20])
@pytest.mark.parametrize("bc", [BC1, BC2])
@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_banded_step_matches_dense_product(arrangement, bc, n):
    rng = np.random.default_rng([n, bc.value, arrangement.n_types])
    spec = random_spec(rng, arrangement)
    p = _step_matrix(_line_band(spec, n, bc), 0.01)
    band = _band_of(p)
    assert band.w <= 4 * (2 * max(arrangement.offsets) + 1)
    dim = len(p)
    rows = np.zeros((2, _COLUMNS, band.width))
    y = rows[0, :, band.w:band.w + dim] = rng.standard_normal((_COLUMNS, dim))
    np.matmul(band.windows(rows[0]), band.weights, out=band.blocks(rows[1]))
    error = np.abs(rows[1, :, band.w:band.w + dim] - y @ p.T).max(axis=1)
    assert np.all(error <= 1e-14 * np.abs(p).sum(axis=1).max() * np.abs(y).max(axis=1))
    # the padding the next step reads stays zero
    assert not rows[1, :, :band.w].any() and not rows[1, :, band.w + dim:].any()


@pytest.mark.parametrize("bc", [BC1, BC2])
@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_band_built_step_matrix_and_powers_match_dense_products(arrangement, bc):
    rng = np.random.default_rng([bc.value, arrangement.n_types, 1])
    spec = random_spec(rng, arrangement)
    m = _dense_line(spec, 7, bc)
    h, eye = 0.01 * m, np.eye(len(m))
    dense = eye + h @ (eye + (h / 2) @ (eye + (h / 3) @ (eye + h / 4)))
    p = _step_matrix(_line_band(spec, 7, bc), 0.01)
    assert np.abs(p - dense).max() <= 1e-15 * np.abs(dense).max()
    band = _band_of(p)
    for k in (0, 1, 5):
        rows = band.power(k)
        power = np.linalg.matrix_power(p, k)
        # row i holds column i of P^k, and the padding stays zero
        error = np.abs(rows[:, band.w:band.w + len(p)].T - power).max()
        assert error <= 1e-14 * np.abs(power).max()
        assert not rows[:, :band.w].any() and not rows[:, band.w + len(p):].any()


def _raw_power(band):
    """P^_BLOCK_STEPS from the band products of :func:`_column_start_matrix`, unflushed."""
    return np.ascontiguousarray(band.power(_BLOCK_STEPS)[:, band.w:band.w + band.dim].T)


@pytest.mark.parametrize("make, n, bc, raw_subnormal", [(figure1, 60, BC1, True),
                                                      (figure2, 60, BC1, True),
                                                      (figure3, 50, BC2, False)])
def test_column_start_matrix_has_no_subnormal_entry(make, n, bc, raw_subnormal):
    # N = 180 for figures 1 and 2 and N = 100 for figure 3; the raw power of
    # the first two holds 976 subnormal entries, Q none
    p = _step_matrix(_line_band(make(), n, bc), 0.01)
    band = _band_of(p)
    q = _column_start_matrix(band)
    tiny = np.finfo(float).tiny
    raw = _raw_power(band)
    assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) == 976 * raw_subnormal
    # Q is the raw power with its entries below tiny set to zero, bit for bit
    assert q.flags.c_contiguous
    assert np.array_equal(q, np.where(np.abs(raw) < tiny, 0.0, raw))
    # and the dense power, an independent oracle, agrees to rounding
    dense = np.linalg.matrix_power(p, _BLOCK_STEPS)
    assert np.abs(q - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("make, n, t_max", [(figure1, 60, 400.0), (figure3c, 100, 300.0)],
                         ids=["fig1a", "fig3c-n100"])
def test_flushing_q_moves_only_values_near_underflow(make, n, t_max, monkeypatch):
    flushed = simulate(make(), n, BC1, t_max, 0.01)
    monkeypatch.setattr(simulation, "_column_start_matrix", _raw_power)
    raw = simulate(make(), n, BC1, t_max, 0.01)
    peaks = [(t.peak_deviation, t.peak_time, t.peak_agent) for t in (flushed, raw)]
    assert peaks[0] == peaks[1]
    moved = flushed.states != raw.states
    assert max(np.abs(flushed.states[moved]).max(initial=0.0),
               np.abs(raw.states[moved]).max(initial=0.0)) < 1e-290


# hashes P, Q and the run of the figure 2b lines at N = 90 and 150, where dense
# products rounded differently per thread count, and of a dim-1998
# line; P and Q are the ones simulate builds, kept as they are returned.  First
# it hashes the scan.csv of a figure 2 scan over N = 90, 30 and 150, whose runs
# go two at a time: at two BLAS threads, two Python threads call OpenBLAS at once
_THREAD_PROBE = """
import hashlib
import os
import tempfile
import numpy as np
from flockstab import reports, simulation
from flockstab.figures import figure2
from flockstab.model import BoundaryCondition

scan = simulation.scan_N(figure2(), BoundaryCondition.TYPE_I, [90, 30, 150])
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "scan.csv")
    reports.write_scan_csv(path, scan)
    with open(path, "rb") as fh:
        print("scan", hashlib.sha256(fh.read()).hexdigest())

built = []
for name in ("_step_matrix", "_column_start_matrix"):
    setattr(simulation, name, lambda *args, f=getattr(simulation, name): built.append(f(*args))
            or built[-1])
for n, t_max in ((30, simulation.default_horizon(90)), (50, simulation.default_horizon(150)),
                 (333, 1.0)):
    built.clear()
    traj = simulation.simulate(figure2(), n, BoundaryCondition.TYPE_I, t_max, 0.01)
    p, q = built
    arrays = (p, q, traj.states, [traj.peak_deviation, traj.peak_time])
    print(n, *(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays))
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(simulation.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, "-c", _THREAD_PROBE], stdout=subprocess.PIPE,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                              text=True) for threads in ("1", "2")]
    runs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(runs[0].splitlines()) == 4
    assert runs[0] == runs[1]

def test_guard_crossing_in_padding_is_not_a_blowup():
    # kick 1 crosses the guard at step 2299; 2297 steps end two steps short,
    # inside the last batch's padded column
    steps, crossing = 2297, 2299
    assert steps < crossing <= -(-steps // _BLOCK_STEPS) * _BLOCK_STEPS
    assert steps % _BATCH > _BLOCK_STEPS  # the last batch has several columns
    y0 = np.zeros(24)
    y0[12] = 1.0
    with pytest.raises(BlowUp) as err:
        _run(_unstable_spec(), 4, BC1, crossing * 0.01, 0.01, True, y0)
    assert err.value.time == crossing * 0.01
    _assert_matches_reference(_unstable_spec(), 4, BC1, steps, 0.01, y0)


@pytest.mark.parametrize("kick", [1.0, 5.0])
def test_blowup_time_matches_four_stage_reference(kick):
    spec = _unstable_spec()
    y0 = np.zeros(24)
    y0[12] = kick
    with pytest.raises(BlowUp) as ref:
        _four_stage_reference(spec, 4, BC1, 20000, 0.01, y0)
    with pytest.raises(BlowUp) as err:
        _run(spec, 4, BC1, 200.0, 0.01, True, y0)
    step = int(round(ref.value.time / 0.01))
    assert step % _BLOCK_STEPS > 1  # the crossing is past its block's first row
    assert err.value.time == step * 0.01
    assert err.value.norm == pytest.approx(ref.value.norm, rel=1e-9)


def test_initial_condition_and_leader(fig1):
    traj = simulate(fig1, 5, BC1, 20.0, 0.01)
    n_agents = traj.n_agents
    assert n_agents == 15
    state0 = traj.states[0]
    assert state0[n_agents] == 1.0
    assert np.count_nonzero(state0) == 1
    # the leader integrates exactly: unit velocity, linear position
    assert np.abs(traj.states[:, 0] - traj.times).max() < 1e-10
    assert np.abs(traj.states[:, n_agents] - 1.0).max() == 0.0


def test_zero_kick_stays_at_equilibrium(fig1):
    y0 = np.zeros(30)
    traj = _run(fig1, 5, BC1, 10.0, 0.01, True, y0)
    assert np.all(traj.states == 0.0)
    rep = transient(traj)
    assert rep.magnitude == 0.0
    assert rep.converged
    # every step ties at zero: the first occurrence, t = 0, is kept
    assert rep.time_at_extremum == 0.0
    assert rep.agent_at_extremum == 0


def test_extremum_is_after_start(fig1):
    traj = simulate(fig1, 3, BC1, 30.0, 0.01)
    rep = transient(traj)
    assert rep.time_at_extremum > 0.0
    assert rep.magnitude != 0.0


def test_linearity(fig3):
    base = simulate(fig3, 8, BC1, 25.0, 0.01)
    doubled = np.zeros(32)
    doubled[16] = 2.0
    scaled = _run(fig3, 8, BC1, 25.0, 0.01, True, doubled)
    ref = np.abs(scaled.states).max()
    assert np.abs(scaled.states - 2.0 * base.states).max() <= 1e-9 * ref
    assert transient(scaled).magnitude == pytest.approx(
        2.0 * transient(base).magnitude, rel=1e-9
    )


def test_translation_invariance(fig3):
    base = simulate(fig3, 8, BC1, 25.0, 0.01)
    shifted0 = np.zeros(32)
    shifted0[16] = 1.0
    shifted0[:16] += 3.5
    shifted = _run(fig3, 8, BC1, 25.0, 0.01, True, shifted0)
    assert np.abs(shifted.states[:, :16] - base.states[:, :16] - 3.5).max() < 1e-9
    assert np.abs(shifted.deviations() - base.deviations()).max() < 1e-9


def test_deviations_of_some_rows_and_agents_are_those_of_all(fig3):
    traj = simulate(fig3, 8, BC1, 25.0, 0.01)
    full = traj.states[:, :16] - traj.states[:, [0]]
    tail = traj.times >= 20.0
    assert np.array_equal(traj.deviations(), full)
    assert np.array_equal(traj.deviations(rows=tail), full[tail])
    assert np.array_equal(traj.deviations(agents=slice(0, 16, 5)), full[:, ::5])


@pytest.mark.parametrize("maker", [random_triatomic, random_diatomic])
def test_refinement_small_case(maker):
    rng = np.random.default_rng(41)
    spec = maker(rng)
    coarse = transient(simulate(spec, 4, BC1, 40.0, 0.01)).magnitude
    fine = transient(simulate(spec, 4, BC1, 40.0, 0.005)).magnitude
    assert abs(fine - coarse) <= 1e-3 * abs(coarse)


def test_type_one_and_two_agree_for_stable_spec(fig1):
    # stable spec with all certificates clear: the boundary truncation
    # barely matters
    m1 = transient(simulate(fig1, 30, BC1, 160.0, 0.01)).magnitude
    m2 = transient(simulate(fig1, 30, BC2, 160.0, 0.01)).magnitude
    assert abs(m1 - m2) <= 0.02 * abs(m1)


def test_blowup_raises_with_time():
    with pytest.raises(BlowUp) as err:
        simulate(_unstable_spec(), 4, BC1, 200.0, 0.01)
    assert 0.0 < err.value.time <= 200.0
    assert err.value.norm > 1e12


@pytest.mark.parametrize("dt, t_max, when",
                         [(5.0, 1000.0, 35.0), (1e10, 1e10, 1e10), (1e50, 1e51, 1e50)],
                         ids=["outside-rk4-region", "overflowing-step-matrix",
                              "overflowing-first-step"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_past_overflow_raises_no_warning(fig1, dt, t_max, when):
    # steps past the crossing overflow to inf and nan inside the batch
    with pytest.raises(BlowUp) as err:
        simulate(fig1, 20, BC1, t_max, dt)
    assert err.value.time == when


def test_non_finite_step_matrix_is_a_blowup(fig1, monkeypatch):
    # P overflows to inf and nan: the first step is not finite, and the band
    # of P, which the non-finite entries widen to the whole matrix, is never
    # sized; the band of M, finite, is sized first to build P
    band = simulation._Band

    def finite_band(dim, i, j, v):
        assert np.isfinite(v).all(), "sized the band of a non-finite matrix"
        return band(dim, i, j, v)

    monkeypatch.setattr(simulation, "_Band", finite_band)
    with pytest.raises(BlowUp) as err:
        simulate(fig1, 10, BC1, 1e81, 1e80)
    assert err.value.time == 1e80
    assert np.isnan(err.value.norm)


def test_nan_first_step_from_a_finite_start_is_a_blowup(fig1):
    # vehicles 15 and 16 start at 1e300; at dt = 1000 (P finite, entries ~1e12)
    # a row of the first step meets +inf and -inf products and sums them to nan,
    # which only the guard's not-finite test catches
    y0 = np.zeros(60)
    y0[[15, 16]] = 1e300
    with pytest.raises(BlowUp) as err:
        _run(fig1, 10, BC1, 1e4, 1e3, True, y0)
    assert err.value.time == 1e3
    assert np.isnan(err.value.norm)


@pytest.mark.parametrize("n", [2, 0])
def test_simulate_refuses_fewer_than_three_cells(fig1, n):
    with pytest.raises(SizeError, match=f"^need n >= 3 cells per type, got {n}$"):
        simulate(fig1, n, BC1, 1.0)


# (spec, bc, n, simulate's peak deviation, time and agent at the default horizon,
#  scan sizes and magnitudes), as the dense assembly gave them
_UNASSEMBLED_RUNS = [
    (figure1, BC1, 10, (-32.814010525797, 42.01, 29),
     [30, 36], [-32.814010525797, -40.12982639933912]),
    (figure3, BC2, 10, (-13.0112177124998, 15.280000000000001, 19),
     [20, 30], [-13.0112177124998, -20.368839599887746]),
]


@pytest.mark.parametrize("make, bc, n, peak, sizes, magnitudes", _UNASSEMBLED_RUNS,
                         ids=["figure1", "figure3"])
def test_runs_assemble_no_dense_matrix(monkeypatch, make, bc, n, peak, sizes, magnitudes):
    def assembled(*args):
        raise AssertionError("a run assembled a dense system matrix")

    for module in list(sys.modules.values()):
        if isinstance(module, ModuleType) and module.__name__.startswith("flockstab"):
            for name in ("assemble_line", "assemble_periodic"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, assembled)
    spec = make()
    traj = simulate(spec, n, bc, default_horizon(spec.n_types * n))
    assert (traj.peak_deviation, traj.peak_time, traj.peak_agent) == peak
    assert [p.magnitude for p in scan_N(spec, bc, sizes).points] == magnitudes


def test_simulate_argument_validation(fig1):
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 10.0, 0.0)
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 0.001, 0.01)


@pytest.mark.parametrize(
    "t_max, dt, bad",
    [(10.0, np.inf, "dt"), (10.0, np.nan, "dt"), (10.0, -np.inf, "dt"),
     (np.inf, 0.01, "t_max"), (np.nan, 0.01, "t_max")],
    ids=["dt-inf", "dt-nan", "dt-neg-inf", "tmax-inf", "tmax-nan"],
)
def test_simulate_refuses_non_finite_step_and_horizon(fig1, t_max, dt, bad):
    value = dt if bad == "dt" else t_max
    with pytest.raises(ValueError, match=f"^{bad} .*got {value}$"):
        simulate(fig1, 4, BC1, t_max, dt)


def test_tiny_step_stores_only_the_start(fig2):
    # the stride ceil(0.1 / dt) ~ 1e299 is clamped to steps + 1
    traj = simulate(fig2, 3, BC1, 1e-299, 1e-300)
    assert traj.times.tolist() == [0.0]
    assert traj.states.shape == (1, 18)
    assert traj.states[0, 9] == 1.0


def test_subnormal_step_stores_only_the_start(fig2):
    # 0.1 / 5e-324 overflows to inf; the stride is still clamped to steps + 1
    traj = simulate(fig2, 3, BC1, 1e-323, 5e-324)
    assert traj.times.tolist() == [0.0]
    assert traj.states.shape == (1, 18)


def test_peak_after_the_last_stored_time_is_not_converged(fig1):
    # five steps store only t = 0; the peak at t_max = 0.05 lies past it
    traj = simulate(fig1, 4, BC1, 0.05, 0.01)
    assert traj.times.tolist() == [0.0]
    rep = transient(traj)
    assert rep.magnitude == -0.05
    assert rep.time_at_extremum == 0.05
    assert rep.converged is False


@pytest.mark.parametrize(
    "n, t_max, dt, message",
    [(4, 1.0, 1e-9, r"t_max / dt = 1e\+09 RK4 steps, over the budget of 1e\+08 steps"),
     (4, 1e300, 1e-300, r"t_max / dt = inf RK4 steps, over the budget of 1e\+08 steps"),
     (1, 1e7, 0.1, r"100000001 stored states of 6 values take 4800000048 bytes, "
                   r"over the budget of 2147483648 bytes"),
     (10**5, 100.0, 0.01, r"1001 stored states of 600000 values take 4804800000 bytes, "
                          r"over the budget of 2147483648 bytes")],
    ids=["steps", "steps-overflow", "states-long", "states-wide"],
)
def test_simulate_refuses_runs_over_the_budget(fig1, monkeypatch, n, t_max, dt, message):
    def no_assembly(*args):
        raise AssertionError("assembled a run over the budget")

    monkeypatch.setattr(simulation, "_stencil", no_assembly)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate(fig1, n, BC1, t_max, dt)


class _Assembled(Exception):
    pass


@pytest.mark.parametrize(
    "n, message",
    [(1576, None),
     (1577, r"3 dense 9462 x 9462 arrays take 2148706656 bytes, "
            r"over the budget of 2147483648 bytes"),
     (10**5, r"3 dense 600000 x 600000 arrays take 8640000000000 bytes, "
             r"over the budget of 2147483648 bytes")],
    ids=["dim-9456-fits", "dim-9462", "n-1e5"],
)
def test_simulate_budgets_dense_operators(fig1, monkeypatch, n, message):
    # three dense dim x dim arrays, dim = 6n: the largest that fits 2 GiB is 9459
    def assembled(*args):
        raise _Assembled

    monkeypatch.setattr(simulation, "_stencil", assembled)
    with pytest.raises(_Assembled if message is None else ValueError,
                       match=None if message is None else f"^{message}$"):
        simulate(fig1, n, BC1, 1.0, 0.01)


@pytest.mark.parametrize("figure", [figure1, figure3], ids=["three-types", "two-types"])
def test_dense_array_budget_holds_from_both_sides(figure):
    # a scan run's peak, in dense dim x dim arrays of 8 bytes: at most the
    # budget's count, and more than 1.5 so that a count gone stale fails too
    import tracemalloc

    spec = figure()
    for dim in (1200, 1320):
        tracemalloc.start()
        try:
            simulation._run(spec, dim // (2 * spec.n_types), BC1, 0.01, 0.01, store=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.5 < peak / (8 * dim * dim) <= simulation._DENSE_ARRAYS, (dim, peak)


@pytest.mark.parametrize("n_total", [2118, 4728], ids=["stored-over", "dense-largest"])
def test_scan_has_no_stored_state_budget(fig1, monkeypatch, n_total):
    # at the default horizon simulate stores 30 N + 1 rows of 2 N values: over
    # 2 GiB from N = 2118, while the dense operators fit up to N = 4728
    def assembled(*args):
        raise _Assembled

    monkeypatch.setattr(simulation, "_stencil", assembled)
    with pytest.raises(ValueError, match=r"^\d+ stored states of \d+ values take \d+ bytes, "
                                         r"over the budget of 2147483648 bytes$"):
        simulate(fig1, n_total // 3, BC1, default_horizon(n_total))
    with pytest.raises(_Assembled):
        scan_N(fig1, BC1, [n_total])


@pytest.mark.parametrize(
    "n, t_max, dt, message",
    [(4, 10.0, np.inf, r"dt must be positive and finite, got inf"),
     (4, 1.0, 1e-9, r"t_max / dt = 1e\+09 RK4 steps, over the budget of 1e\+08 steps"),
     (1577, 1.0, 0.01, r"3 dense 9462 x 9462 arrays take 2148706656 bytes, "
                       r"over the budget of 2147483648 bytes"),
     (10**5, 1.0, 0.01, r"3 dense 600000 x 600000 arrays take 8640000000000 bytes, "
                        r"over the budget of 2147483648 bytes")],
    ids=["dt-inf", "steps", "dim-9462", "n-1e5"],
)
def test_scan_is_refused_as_simulate_is(fig1, monkeypatch, n, t_max, dt, message):
    def no_assembly(*args):
        raise AssertionError("assembled a run over the budget")

    monkeypatch.setattr(simulation, "_stencil", no_assembly)
    for run in (lambda: simulate(fig1, n, BC1, t_max, dt),
                lambda: scan_N(fig1, BC1, [3 * n], dt=dt, t_max=t_max)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run()


def test_trajectory_storage_grid(fig1):
    traj = simulate(fig1, 4, BC1, 10.0, 0.01)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 0.1)
    assert traj.states.shape == (len(traj.times), 24)


# --- scans -------------------------------------------------------------------

def test_scan_divisibility_checked(fig1):
    with pytest.raises(SizeError):
        scan_N(fig1, BC1, [10])


def test_scan_refuses_empty_size_list(fig1):
    with pytest.raises(SizeError, match="empty"):
        scan_N(fig1, BC1, [])


def test_scan_single_point_reports_fit_error(fig1):
    result = scan_N(fig1, BC1, [9], dt=0.02)
    assert result.fit_error is not None
    assert np.isnan(result.slope)
    assert result.points[0].magnitude != 0.0


def test_scan_censors_blowup():
    result = scan_N(_unstable_spec(), BC1, [9, 12, 15], dt=0.01, t_max=300.0)
    assert all(p.censored for p in result.points)
    assert all(p.blowup_time is not None for p in result.points)
    assert result.fit_error is not None
    for p in result.points:
        with pytest.raises(BlowUp) as blow:
            simulate(_unstable_spec(), p.N // 3, BC1, 300.0, 0.01)
        assert p.blowup_time == blow.value.time


def test_scan_magnitude_is_the_simulated_peak(fig2):
    # the scan stores nothing, but steps as simulate does: the same bits
    result = scan_N(fig2, BC1, [9, 15, 30])
    for p in result.points:
        peak = simulate(fig2, p.N // 3, BC1, default_horizon(p.N)).peak_deviation
        assert p.magnitude == peak
        assert p.log_abs_magnitude == float(np.log(abs(peak)))


def test_scan_slope_for_growing_transients(fig2):
    result = scan_N(fig2, BC1, [15, 30, 45], dt=0.02)
    assert result.slope > 0.0
    assert 0.0 < result.r_squared <= 1.0


# --- scans two runs at a time ------------------------------------------------

def _counting_run(calls=None, barrier=None):
    """_run that records each call's N and the most calls active at once; with a
    barrier, the first two calls each wait there for the other."""
    lock = threading.Lock()
    state = {"active": 0, "most": 0, "started": 0}

    def counted(spec, n, *args, **kwargs):
        with lock:
            state["active"] += 1
            state["most"] = max(state["most"], state["active"])
            state["started"] += 1
            first_two = state["started"] <= 2
            if calls is not None:
                calls.append(spec.n_types * n)
        try:
            if barrier is not None and first_two:
                barrier.wait()
            return _run(spec, n, *args, **kwargs)
        finally:
            with lock:
                state["active"] -= 1

    return counted, state


def test_scan_points_follow_the_list_and_a_repeat_runs_once(fig2, monkeypatch):
    sizes = [24, 12, 36, 24, 15]
    calls = []
    counted, _ = _counting_run(calls)
    monkeypatch.setattr(simulation, "_run", counted)
    result = scan_N(fig2, BC1, sizes)
    assert sorted(calls) == [12, 15, 24, 36]
    assert [p.N for p in result.points] == sizes
    monkeypatch.undo()
    for p in result.points:
        assert p == scan_N(fig2, BC1, [p.N]).points[0]


@pytest.mark.parametrize("sizes, steps", [([45, 60], "1.35e+08"), ([60, 45], "1.8e+08")],
                         ids=["smaller-first", "larger-first"])
def test_scan_raises_the_first_refusal_in_list_order(fig1, monkeypatch, sizes, steps):
    # at dt = 1e-6 the default horizons of N = 45 and 60 take 1.35e8 and 1.8e8
    # steps, each refused with its own count; the first listed is held back, so
    # the other is refused first
    def late_first(spec, n, *args, **kwargs):
        if spec.n_types * n == sizes[0]:
            time.sleep(0.2)
        return _run(spec, n, *args, **kwargs)

    monkeypatch.setattr(simulation, "_run", late_first)
    with pytest.raises(ValueError, match=f"^t_max / dt = {re.escape(steps)} RK4 steps, "):
        scan_N(fig1, BC1, sizes, dt=1e-6)


def test_scan_runs_two_at_a_time(fig1, monkeypatch):
    # each of the first two runs waits for the other: one run at a time would
    # break the barrier
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counted, state = _counting_run(barrier=threading.Barrier(2, timeout=10))
    monkeypatch.setattr(simulation, "_run", counted)
    scan_N(fig1, BC1, [30, 45, 36])
    assert state["most"] == 2


def test_scan_runs_one_at_a_time_when_two_runs_exceed_the_budget(fig1, monkeypatch):
    # dense arrays of N = 45 and 36 take 194400 and 124416 bytes: each run fits
    # a budget of 200000 alone, the two largest together do not
    monkeypatch.setattr(model, "_MAX_BYTES", 200_000)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counted, state = _counting_run()
    monkeypatch.setattr(simulation, "_run", counted)
    result = scan_N(fig1, BC1, [30, 45, 36])
    assert state == {"active": 0, "most": 1, "started": 3}
    assert all(p.magnitude is not None for p in result.points)


def test_scan_workers_at_the_default_budget(monkeypatch):
    # three dense (2 N)^2 arrays per run, both runs within 2 GiB: N = 3342 and 3345
    # take 2146366944 bytes, 3345 and 3348 take 2150220384; the largest run
    # that fits, N = 4728, still fits beside N = 30
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _scan_workers([3345, 30, 3342]) == 2
    assert _scan_workers([3345, 30, 3348]) == 1
    assert _scan_workers([30, 4728]) == 2
    assert _scan_workers([4728, 4725]) == 1
    for cores in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert _scan_workers([30, 60]) == 1
