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
from flockstab.figures import figure1, figure3
from flockstab.model import assemble_line
from flockstab.simulation import _BLOCK_STEPS, _COLUMNS, BLOWUP_GUARD, STORE_SPACING
from conftest import random_diatomic, random_triatomic

BC1, BC2 = BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II


def _unstable_spec():
    # positive positional gains push eigenvalues into the right half-plane
    return build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": 1.0, "g_v": 0.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )


def _four_stage_reference(spec, n, bc, steps, dt, initial_state=None):
    """Classical RK4 as four stages per step, checked at every step.

    The oracle for ``simulate``: returns the stored states, peak, peak
    time and peak agent, or raises BlowUp at the first guard crossing.
    """
    m = assemble_line(spec, n, bc).entries
    n_agents = len(m) // 2
    if initial_state is None:
        y = np.zeros(len(m))
        y[n_agents] = 1.0
    else:
        y = np.array(initial_state, dtype=float)
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


def _assert_matches_reference(spec, n, bc, steps, dt, initial_state=None):
    states, peak, peak_t, peak_agent = _four_stage_reference(
        spec, n, bc, steps, dt, initial_state=initial_state
    )
    traj = simulate(spec, n, bc, steps * dt, dt, initial_state=initial_state)
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


def test_three_batch_horizon_matches_four_stage_reference():
    _assert_matches_reference(figure1(), 20, BC1, 3 * _BATCH + 5, 0.01)


def test_extremum_ties_go_to_the_first_agent():
    # uncoupled (zero gains), agents 1 and 2 drift at +1 and -1: their
    # |deviations| tie exactly in every row, and the peak must stay with agent 1
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": 0.0, "g_v": 0.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )
    y0 = np.zeros(24)
    y0[13], y0[14] = 1.0, -1.0
    _assert_matches_reference(spec, 4, BC1, _BATCH + 7, 0.01, initial_state=y0)


def test_guard_crossing_in_padding_is_not_a_blowup():
    # kick 1 crosses the guard at step 2299; 2297 steps end two steps short,
    # inside the last batch's padded column
    steps, crossing = 2297, 2299
    assert steps < crossing <= -(-steps // _BLOCK_STEPS) * _BLOCK_STEPS
    assert steps % _BATCH > _BLOCK_STEPS  # the last batch has several columns
    y0 = np.zeros(24)
    y0[12] = 1.0
    with pytest.raises(BlowUp) as err:
        simulate(_unstable_spec(), 4, BC1, crossing * 0.01, 0.01, initial_state=y0)
    assert err.value.time == crossing * 0.01
    _assert_matches_reference(_unstable_spec(), 4, BC1, steps, 0.01, initial_state=y0)


@pytest.mark.parametrize("kick", [1.0, 5.0])
def test_blowup_time_matches_four_stage_reference(kick):
    spec = _unstable_spec()
    y0 = np.zeros(24)
    y0[12] = kick
    with pytest.raises(BlowUp) as ref:
        _four_stage_reference(spec, 4, BC1, 20000, 0.01, initial_state=y0)
    with pytest.raises(BlowUp) as err:
        simulate(spec, 4, BC1, 200.0, 0.01, initial_state=y0)
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
    traj = simulate(fig1, 5, BC1, 10.0, 0.01, initial_state=y0)
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
    scaled = simulate(fig3, 8, BC1, 25.0, 0.01, initial_state=doubled)
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
    shifted = simulate(fig3, 8, BC1, 25.0, 0.01, initial_state=shifted0)
    assert np.abs(shifted.states[:, :16] - base.states[:, :16] - 3.5).max() < 1e-9
    assert np.abs(shifted.deviations() - base.deviations()).max() < 1e-9


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


@pytest.mark.parametrize("dt, t_max, when", [(5.0, 1000.0, 35.0), (1e10, 1e10, 1e10)],
                         ids=["outside-rk4-region", "overflowing-step-matrix"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_past_overflow_raises_no_warning(fig1, dt, t_max, when):
    # steps past the crossing overflow to inf and nan inside the batch
    with pytest.raises(BlowUp) as err:
        simulate(fig1, 20, BC1, t_max, dt)
    assert err.value.time == when


def test_simulate_argument_validation(fig1):
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 10.0, 0.0)
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 0.001, 0.01)
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 10.0, 0.01, initial_state=np.zeros(7))


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


def test_scan_slope_for_growing_transients(fig2):
    result = scan_N(fig2, BC1, [15, 30, 45], dt=0.02)
    assert result.slope > 0.0
    assert 0.0 < result.r_squared <= 1.0
