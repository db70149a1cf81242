import numpy as np
import pytest

from flockstab import (
    Arrangement,
    Branch,
    BranchAmbiguity,
    HypothesisViolated,
    RootCurve,
    branch_curvature,
    build_spec,
    mode_polynomial,
    mode_roots,
    orthogonality_angle,
    right_angle_deviation,
    tangency_report,
    track_branches,
)
from flockstab.rootcurves import DEFAULT_GRID, angle_grid, default_grid
from conftest import random_spec
from oracles import small_root_counts, track_polynomial_branches


def _grid(lo=1e-6, hi=1e-1, count=60):
    return np.geomspace(lo, hi, count)


@pytest.mark.parametrize(
    "grid, bad",
    [((np.nan, 1e-1, 60), "phi_min"), ((0.0, 1e-1, 60), "phi_min"),
     ((-1e-6, 1e-1, 60), "phi_min"), ((np.inf, np.inf, 60), "phi_min"),
     ((1e-6, np.inf, 60), "phi_max"), ((1e-6, np.nan, 60), "phi_max"),
     ((1e-1, 1e-6, 60), "phi_max"), ((1e-6, 1e-6, 60), "phi_max"),
     ((1e-6, 1e-1, 1), "phi_points")],
)
def test_angle_grid_refuses_bad_bounds(grid, bad):
    value = grid[("phi_min", "phi_max", "phi_points").index(bad)]
    with pytest.raises(ValueError, match=f"^{bad} .*got {value}$"):
        angle_grid(*grid)


def test_angle_grid_over_the_budget_is_refused_before_allocation(monkeypatch):
    def allocated(*args):
        raise AssertionError("allocated a grid over the budget")

    monkeypatch.setattr(np, "geomspace", allocated)
    with pytest.raises(ValueError, match=r"^300000000 angles take 390000000000 bytes, "
                                         r"over the budget of 2147483648 bytes$"):
        angle_grid(1e-6, 1e-1, 300_000_000)


def test_default_grid_is_the_angle_grid():
    assert np.array_equal(default_grid(), np.geomspace(*DEFAULT_GRID))


# --- quadratic toys ----------------------------------------------------------

def test_pure_square_root_family():
    # z^2 - t: branches are exactly +-sqrt(t)
    fam = lambda t: np.array([-t, 0.0, 1.0], dtype=complex)
    plus, minus = track_polynomial_branches(fam, _grid())
    assert np.allclose(plus.roots, np.sqrt(plus.t_grid), atol=1e-12)
    assert np.allclose(minus.roots, -np.sqrt(minus.t_grid), atol=1e-12)
    assert tangency_report(plus).final_ratio < 1e-9
    assert tangency_report(minus).final_ratio < 1e-9


def test_shifted_quadratic_family():
    # z^2 + 2tz - t: tangent to +-sqrt(t), ratio decays like sqrt(t)
    fam = lambda t: np.array([-t, 2.0 * t, 1.0], dtype=complex)
    plus, minus = track_polynomial_branches(fam, _grid())
    for curve in (plus, minus):
        report = tangency_report(curve)
        assert report.passed
        assert report.final_ratio < 0.05
        # strictly finer decades have strictly smaller sups here
        assert all(np.diff(report.decade_sups) > 0.0)


def test_non_tangent_curve_fails():
    grid = _grid()
    curve = RootCurve(grid, 2.0 * np.sqrt(grid).astype(complex), Branch.PLUS, 1.0)
    report = tangency_report(curve)
    assert report.final_ratio == pytest.approx(1.0, abs=1e-12)
    assert not report.passed


def test_root_curve_refuses_zero_curvature():
    grid = _grid()
    with pytest.raises(ValueError, match="curvature c must be nonzero"):
        RootCurve(grid, np.sqrt(grid).astype(complex), Branch.PLUS, 0)


def test_zero_curvature_refused_when_curves_are_built():
    fam = lambda t: np.array([-t, 0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="curvature c must be nonzero"):
        track_polynomial_branches(fam, _grid(), c=0.0)


def test_orthogonality_real_branches():
    fam = lambda t: np.array([-t, 0.0, 1.0], dtype=complex)
    plus, minus = track_polynomial_branches(fam, _grid())
    angle = orthogonality_angle(plus, minus)
    assert angle == pytest.approx(180.0, abs=1e-9)
    assert right_angle_deviation(angle) < 1e-9


def test_orthogonality_imaginary_branches():
    # z^2 + t: roots +-i sqrt(t), i.e. c < 0
    fam = lambda t: np.array([t, 0.0, 1.0], dtype=complex)
    plus, minus = track_polynomial_branches(fam, _grid())
    assert right_angle_deviation(orthogonality_angle(plus, minus)) < 1e-9


def test_right_angle_deviation_values():
    assert right_angle_deviation(90.0) == 0.0
    assert right_angle_deviation(272.0) == pytest.approx(2.0)
    assert right_angle_deviation(44.0) == pytest.approx(44.0)
    assert right_angle_deviation(47.0) == pytest.approx(43.0)


# --- hypotheses and failure modes ---------------------------------------------

def test_hypothesis_violated_flat_constant_term():
    fam = lambda t: np.array([t * t, 0.0, 1.0], dtype=complex)
    with pytest.raises(HypothesisViolated):
        track_polynomial_branches(fam, _grid())


def test_hypothesis_violated_nonvanishing_a0():
    fam = lambda t: np.array([1.0, 0.0, 1.0], dtype=complex)
    with pytest.raises(HypothesisViolated):
        track_polynomial_branches(fam, _grid())


def test_hypothesis_violated_symmetric_spec():
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": -1.0, "g_v": -1.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )
    with pytest.raises(HypothesisViolated):
        branch_curvature(spec)


def test_branch_ambiguity_double_root():
    fam = lambda t: np.array([0.0, 0.0, 1.0], dtype=complex)
    with pytest.raises(BranchAmbiguity):
        track_polynomial_branches(fam, _grid(), c=1.0)


def test_grid_validation():
    fam = lambda t: np.array([-t, 0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        track_polynomial_branches(fam, np.array([1e-3, 1e-4]))
    with pytest.raises(ValueError):
        track_polynomial_branches(fam, np.array([-1e-3, 1e-2]))


# --- the degree-six application ----------------------------------------------

def test_figure_two_branches(fig2):
    c = branch_curvature(fig2)
    assert c.real == pytest.approx(0.0, abs=1e-15)
    assert c.imag == pytest.approx(-0.024 / 2.12, abs=1e-12)

    grid = _grid(1e-6, 1e-2, 45)
    plus, minus = track_branches(fig2, grid)
    for curve in (plus, minus):
        assert tangency_report(curve).passed
    # one arm of the cross reaches into the right half-plane
    assert np.all(plus.roots[:10].real > 0.0)
    assert right_angle_deviation(orthogonality_angle(plus, minus)) < 2.0


def test_figure_two_rouche_count(fig2):
    c = branch_curvature(fig2)
    counts = small_root_counts(mode_polynomial(fig2).coeffs, default_grid(), c)
    assert np.all(counts == 2)


def test_figure_two_continuity_no_branch_jumps(fig2):
    fn = mode_polynomial(fig2).coeffs
    plus, minus = track_branches(fig2)
    for curve in (plus, minus):
        for k, t in enumerate(curve.t_grid):
            roots = np.roots(np.asarray(fn(t))[::-1])
            dist = np.sort(np.abs(roots - curve.roots[k]))
            local_gap = dist[1]
            if k > 0:
                step = abs(curve.roots[k] - curve.roots[k - 1])
                assert step < local_gap / 2.0


def test_quadratic_truncation_oracle(fig2):
    # branches of the full polynomial agree with those of its quadratic
    # truncation to first order
    c = branch_curvature(fig2)
    full_fn = mode_polynomial(fig2).coeffs
    quad_fn = lambda t: full_fn(t)[:3]
    grid = default_grid()
    full = track_branches(fig2, grid)
    quad = track_polynomial_branches(quad_fn, grid, c=c)
    for b_full, b_quad in zip(full, quad):
        rel = np.abs(b_full.roots - b_quad.roots) / np.sqrt(abs(c) * b_full.t_grid)
        decades = np.floor(np.log10(grid)).astype(int)
        sups = [float(rel[decades == d].max()) for d in sorted(set(decades))]
        assert all(np.diff(sups) > 0.0)  # vanishing toward t -> 0
        assert sups[0] < 5e-4


def test_tracked_curves_carry_the_spec_curvature(fig2, fig3c):
    rng = np.random.default_rng(3)
    for spec in [fig2, fig3c] + [random_spec(rng, arrangement)
                                 for _ in range(4) for arrangement in Arrangement]:
        c = branch_curvature(spec)
        for curve in track_branches(spec, _grid(1e-5, 1e-2, 16)):
            assert repr(curve.c) == repr(c)  # signed zeros included
            assert np.array_equal(curve.predicted,
                                  curve.branch.value * np.sqrt(c * curve.t_grid.astype(complex)))


def test_tracked_curves_are_ascending(fig2):
    plus, _ = track_branches(fig2)
    assert np.all(np.diff(plus.t_grid) > 0.0)
    assert abs(plus.roots[0]) < abs(plus.roots[-1])


def test_tracked_roots_are_the_per_angle_roots(fig2, fig3c):
    # one batched coefficient evaluation gives every root bit for bit as the
    # scalar evaluation and solve at each angle does
    rng = np.random.default_rng(17)
    grid = default_grid()
    for spec in [fig2, fig3c] + [random_spec(rng, arrangement)
                                 for _ in range(4) for arrangement in Arrangement]:
        q = mode_polynomial(spec)
        per_angle = [mode_roots(t, q.coeffs(t)).eigenvalues[0] for t in grid]
        for curve in track_branches(spec, grid):
            for root, roots in zip(curve.roots, per_angle):
                assert root.tobytes() in [r.tobytes() for r in roots]
