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


def test_simulate_argument_validation(fig1):
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 10.0, 0.0)
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 0.001, 0.01)
    with pytest.raises(ValueError):
        simulate(fig1, 4, BC1, 10.0, 0.01, initial_state=np.zeros(7))


def test_trajectory_storage_grid(fig1):
    traj = simulate(fig1, 4, BC1, 10.0, 0.01)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 0.1)
    assert traj.states.shape == (len(traj.times), 24)


# --- scans -------------------------------------------------------------------

def test_scan_divisibility_checked(fig1):
    with pytest.raises(SizeError):
        scan_N(fig1, BC1, [10])


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
