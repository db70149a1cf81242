"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
even when everything passes).  Published extremal values carry a 2%
tolerance; the oracle-equivalence and derivative checks carry their own.
"""

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

import flockstab as fs
from flockstab import Arrangement, BoundaryCondition
from flockstab.figures import figure1, figure2, figure3
from flockstab.rootcurves import default_grid
from conftest import random_spec
from oracles import (a0_constant_term, a0_derivative_at_zero, small_root_counts,
                     track_polynomial_branches)

BC1, BC2 = BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _within(value: float, target: float, rel: float = 0.02) -> bool:
    return abs(value - target) <= rel * abs(target)


def test_c1_figure_one_type_one_reproduction():
    start = time.perf_counter()
    traj = fs.simulate(figure1(), 60, BC1, 400.0, 0.01)
    elapsed = time.perf_counter() - start
    rep = fs.transient(traj)
    ok = (
        _within(rep.magnitude, -221.0)
        and _within(rep.time_at_extremum, 244.6)
        and elapsed < 60.0
    )
    _report(
        "1 (fig 1a)", ok,
        f"magnitude {rep.magnitude:.2f} (target -221.0), "
        f"t {rep.time_at_extremum:.2f} (target 244.6), {elapsed:.1f}s",
    )


def test_c2_figure_one_type_two_reproduction():
    rep = fs.transient(fs.simulate(figure1(), 60, BC2, 400.0, 0.01))
    ok = _within(rep.magnitude, -220.8) and _within(abs(rep.time_at_extremum), 244.4)
    _report(
        "2 (fig 1b)", ok,
        f"magnitude {rep.magnitude:.2f} (target -220.8), "
        f"|t| {abs(rep.time_at_extremum):.2f} (target 244.4)",
    )


def test_c3_figure_three_reproductions():
    rep1 = fs.transient(fs.simulate(figure3(), 50, BC1, 300.0, 0.01))
    rep2 = fs.transient(fs.simulate(figure3(), 50, BC2, 300.0, 0.01))
    ok = (
        _within(rep1.magnitude, -72.8)
        and _within(rep1.time_at_extremum, 79.3)
        and _within(rep2.magnitude, -72.0)
        and _within(rep2.time_at_extremum, 78.5)
    )
    _report(
        "3 (fig 3a/3b)", ok,
        f"type I {rep1.magnitude:.2f}@{rep1.time_at_extremum:.2f} "
        f"(targets -72.8@79.3); type II {rep2.magnitude:.2f}@"
        f"{rep2.time_at_extremum:.2f} (targets -72.0@78.5)",
    )


def test_c4_condition_arithmetic():
    rep1 = fs.conditions(figure1())
    rep2 = fs.conditions(figure2())
    beta1 = rep1.case_values["beta_sum"]
    mpc1 = rep1.case_values["moment_plus_correction"]
    beta2 = rep2.case_values["beta_sum"]
    mpc2 = rep2.case_values["moment_plus_correction"]
    ok = (
        abs(beta1 - (-3.0 / 35.0)) < 1e-12  # -0.085714..., prints as -0.0857
        and abs(mpc1) < 1e-9
        and abs(beta2) < 1e-9
        and abs(mpc2 - 0.096) < 1e-9
    )
    _report(
        "4 (conditions)", ok,
        f"fig1: sum beta {beta1:.10f}, sum+prod {mpc1:.2e}; "
        f"fig2: sum beta {beta2:.2e}, sum+prod {mpc2:.6f}",
    )


def test_c5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for arrangement in Arrangement:
        for _ in range(50):
            spec = random_spec(rng, arrangement)
            for n in (3, 4, 5, 8):
                dense = np.linalg.eigvals(fs.assemble_periodic(spec, n).entries)
                modal = fs.spectrum_periodic(spec, n).eigenvalues.ravel()
                cost = np.abs(dense[:, None] - modal[None, :])
                rows, cols = linear_sum_assignment(cost)
                worst = max(worst, float(cost[rows, cols].max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 120.0
    _report(
        "5 (oracle equivalence)", ok,
        f"max pairing distance {worst:.3e} over 2x50 specs x n in {{3,4,5,8}}, "
        f"{elapsed:.1f}s",
    )


def test_c6_derivative_vs_finite_difference():
    rng = np.random.default_rng(77)
    h = 1e-6
    worst = 0.0
    for arrangement in Arrangement:
        for _ in range(100):
            spec = random_spec(rng, arrangement)
            closed = a0_derivative_at_zero(spec)
            fd = (a0_constant_term(spec, h) - a0_constant_term(spec, -h)) / (
                2.0 * h
            )
            scale = max(abs(closed), abs(fd), 1e-6)
            worst = max(worst, abs(closed - fd) / scale)
    ok = worst <= 1e-6
    _report("6 (a0' vs finite difference)", ok,
            f"max relative deviation {worst:.3e} over 2x100 specs")


def test_c7_flock_instability_scaling():
    result = fs.scan_N(figure2(), BC1, [30, 60, 90, 120, 150, 180], dt=0.01)
    # slope frozen as a regression band from the first verified run (0.0335)
    ok = (
        result.slope > 0.0
        and result.r_squared > 0.9
        and 0.030 <= result.slope <= 0.037
    )
    _report(
        "7 (exponential transient growth)", ok,
        f"slope {result.slope:.4f} (frozen band [0.030, 0.037]), "
        f"R^2 {result.r_squared:.4f}",
    )


def test_c8_small_root_branch_validation():
    # toy quadratic family
    toy = lambda t: np.array([-t, 2.0 * t, 1.0], dtype=complex)
    grid = default_grid()
    t_plus, t_minus = track_polynomial_branches(toy, grid)
    toy_reports = [fs.tangency_report(curve) for curve in (t_plus, t_minus)]
    toy_counts = small_root_counts(toy, grid, 1.0)

    # degree-six application on the flock-unstable parameters
    spec = figure2()
    c = fs.branch_curvature(spec)
    plus, minus = fs.track_branches(spec, grid)
    spec_reports = [fs.tangency_report(curve) for curve in (plus, minus)]
    spec_counts = small_root_counts(fs.mode_polynomial(spec).coeffs, grid, c)

    all_reports = toy_reports + spec_reports
    ok = (
        all(r.passed and r.final_ratio < 0.05 and len(r.decades) >= 3
            for r in all_reports)
        and np.all(toy_counts == 2)
        and np.all(spec_counts == 2)
        and np.all(plus.roots[:5].real > 0.0)  # one arm in the right half-plane
    )
    _report(
        "8 (branch tangency and root count)", ok,
        f"final ratios {[f'{r.final_ratio:.4f}' for r in all_reports]}, "
        f"counts all 2: {bool(np.all(toy_counts == 2) and np.all(spec_counts == 2))}, "
        f"plus-branch Re>0: {bool(np.all(plus.roots[:5].real > 0.0))}",
    )


def test_c9_property_suites():
    rng = np.random.default_rng(55)
    failures = []

    # Laplacian row sums, all topologies
    for arrangement in Arrangement:
        for _ in range(10):
            spec = random_spec(rng, arrangement)
            n = int(rng.integers(3, 9))
            t = spec.n_types
            for matrix in (
                fs.assemble_periodic(spec, n),
                fs.assemble_line(spec, n, BC1),
                fs.assemble_line(spec, n, BC2),
            ):
                acc = matrix.entries[t * n:, :]
                if np.abs(acc.sum(axis=1)).max() >= 1e-12:
                    failures.append(f"row sums ({arrangement.value})")

    # conjugate-closed spectra
    for arrangement in Arrangement:
        for _ in range(5):
            spec = random_spec(rng, arrangement)
            eigs = fs.spectrum_periodic(spec, 6).eigenvalues.ravel()
            cost = np.abs(eigs[:, None] - np.conj(eigs)[None, :])
            rows, cols = linear_sum_assignment(cost)
            if cost[rows, cols].max() >= 1e-8:
                failures.append(f"conjugate closure ({arrangement.value})")

    # linearity and translation invariance
    spec = figure3()
    base = fs.simulate(spec, 8, BC1, 25.0, 0.01)
    kick2 = np.zeros(32)
    kick2[16] = 2.0
    doubled = fs.simulate(spec, 8, BC1, 25.0, 0.01, initial_state=kick2)
    if np.abs(doubled.states - 2.0 * base.states).max() > 1e-9 * np.abs(
        doubled.states
    ).max():
        failures.append("linearity")
    shifted0 = np.zeros(32)
    shifted0[16] = 1.0
    shifted0[:16] += 2.0
    shifted = fs.simulate(spec, 8, BC1, 25.0, 0.01, initial_state=shifted0)
    if np.abs(shifted.deviations() - base.deviations()).max() > 1e-9:
        failures.append("translation invariance")

    # RK4 refinement on the figure-1 configuration
    coarse = fs.transient(fs.simulate(figure1(), 60, BC1, 300.0, 0.01)).magnitude
    fine = fs.transient(fs.simulate(figure1(), 60, BC1, 300.0, 0.005)).magnitude
    change = abs(fine - coarse) / abs(coarse)
    if change >= 1e-3:
        failures.append(f"refinement ({change:.2e})")

    _report(
        "9 (property suites)", not failures,
        "row sums, conjugate closure, linearity, translation invariance, "
        f"refinement change {change:.2e}"
        + (f"; failures: {failures}" if failures else ""),
    )
