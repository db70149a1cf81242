"""Numerical validation of the small-root branch geometry near the origin.

When a_0 and a_1 of the mode polynomial vanish at angle 0 while a_2 and
the slope a_0'(0) do not, the two roots that collapse into the origin are
tangent to the square-root branches +-sqrt(c t) with c = -a_0'(0)/a_2(0).
This module tracks those roots along a positive angle grid, measures how
fast they approach the predicted branches, and counts roots in the
enclosing disk (two, by the continuation argument the prediction rests on).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import BranchAmbiguity, HypothesisViolated
from .model import FlockSpec
from .spectral import mode_polynomial, mode_roots

HYPOTHESIS_TOL = 1e-9

DEFAULT_GRID = (1e-6, 1e-1, 60)

#: tangency acceptance: final-decade ratio bound and allowed decade jitter
RATIO_BOUND = 0.05
DECADE_JITTER = 1.10


class Branch(Enum):
    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class RootCurve:
    """One tracked root branch over an ascending positive angle grid."""

    t_grid: np.ndarray
    roots: np.ndarray
    branch: Branch

    def __post_init__(self):
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))
        self.t_grid.setflags(write=False)
        self.roots.setflags(write=False)


@dataclass(frozen=True)
class TangencyReport:
    decades: tuple[int, ...]
    decade_sups: tuple[float, ...]
    final_ratio: float
    monotone: bool
    passed: bool


def angle_grid(phi_min: float, phi_max: float, phi_points: int) -> np.ndarray:
    """``phi_points`` geometric angles from ``phi_min`` to ``phi_max``.

    Requires 0 < phi_min < phi_max < inf and at least two points.
    """
    if not 0.0 < phi_min < np.inf:
        raise ValueError(f"phi_min must be positive and finite, got {phi_min}")
    if not phi_min < phi_max < np.inf:
        raise ValueError(f"phi_max must be finite and above phi_min, got {phi_max}")
    if phi_points < 2:
        raise ValueError(f"phi_points must be at least 2, got {phi_points}")
    return np.geomspace(phi_min, phi_max, phi_points)


def default_grid() -> np.ndarray:
    return angle_grid(*DEFAULT_GRID)


def branch_curvature(spec: FlockSpec) -> complex:
    """c = -a_0'(0) / a_2(0), both read off the spec's Laurent array.

    a_0'(0) = i sum_s s c[0, s] and a_2(0) = sum_s c[2, s].  The closed
    forms (``a0_derivative_at_zero``, the conditions' ``a2_at_zero``) are
    kept only as independent checks.
    """
    q = mode_polynomial(spec)
    a2, a0p = q.a2_at_zero, q.a0_slope
    _require_hypotheses(a2, a0p)
    return -a0p / a2


def _require_hypotheses(a2: complex, a0p: complex) -> None:
    if abs(a2) <= HYPOTHESIS_TOL:
        raise HypothesisViolated(f"|a_2(0)| = {abs(a2):.3e} is below tolerance")
    if abs(a0p) <= HYPOTHESIS_TOL:
        raise HypothesisViolated(f"|a_0'(0)| = {abs(a0p):.3e} is below tolerance")


def track_branches(
    spec: FlockSpec, t_grid: Sequence[float] | None = None
) -> tuple[RootCurve, RootCurve]:
    """Track the two small roots of the spec's mode polynomial."""
    c = branch_curvature(spec)
    grid = default_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    return _track(mode_polynomial(spec).coeffs, grid, c)


def track_polynomial_branches(
    coeff_fn: Callable[[float], np.ndarray],
    t_grid: Sequence[float],
    c: complex | None = None,
) -> tuple[RootCurve, RootCurve]:
    """Track branches of an arbitrary coefficient family a_i(t).

    The curvature c is estimated by central differences of a_0 when not
    supplied.  The family must satisfy a_0(0) = a_1(0) = 0 with a_2(0) and
    a_0'(0) away from zero.
    """
    grid = np.asarray(t_grid, dtype=float)
    at_zero = np.asarray(coeff_fn(0.0), dtype=complex)
    scale = max(1.0, float(np.abs(at_zero).max()))
    if abs(at_zero[0]) > HYPOTHESIS_TOL * scale or abs(at_zero[1]) > HYPOTHESIS_TOL * scale:
        raise HypothesisViolated("a_0(0) and a_1(0) must vanish")
    if c is None:
        h = 1e-7
        a0p = (np.asarray(coeff_fn(h))[0] - np.asarray(coeff_fn(-h))[0]) / (2.0 * h)
        a2 = at_zero[2]
        _require_hypotheses(complex(a2), complex(a0p))
        c = -complex(a0p) / complex(a2)
    return _track(coeff_fn, grid, c)


def _roots_on_grid(coeff_fn, grid: np.ndarray) -> np.ndarray:
    """Every root of the family at each grid angle, one row per angle."""
    coeffs = np.array([np.asarray(coeff_fn(t), dtype=complex) for t in grid])
    return mode_roots(grid, coeffs).eigenvalues


def _track(coeff_fn, grid: np.ndarray, c: complex) -> tuple[RootCurve, RootCurve]:
    if len(grid) == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and positive")

    descending = grid[::-1]
    plus = np.empty(len(grid), dtype=complex)
    minus = np.empty(len(grid), dtype=complex)
    all_roots = _roots_on_grid(coeff_fn, descending)

    # seed at the coarsest angle by proximity to the predicted branches
    roots = all_roots[0]
    predicted = np.sqrt(c * descending[0])
    i_plus = int(np.argmin(np.abs(roots - predicted)))
    rest = np.delete(np.arange(len(roots)), i_plus)
    i_minus = rest[int(np.argmin(np.abs(roots[rest] + predicted)))]
    if abs(roots[i_plus] - roots[i_minus]) < 1e-12 * (1.0 + abs(predicted)):
        raise BranchAmbiguity(f"seed roots coincide at t={descending[0]:.3e}")
    plus[0], minus[0] = roots[i_plus], roots[i_minus]

    for k, (t, roots) in enumerate(zip(descending[1:], all_roots[1:]), start=1):
        i_plus = int(np.argmin(np.abs(roots - plus[k - 1])))
        i_minus = int(np.argmin(np.abs(roots - minus[k - 1])))
        if i_plus == i_minus:
            raise BranchAmbiguity(f"branches collapse onto one root at t={t:.3e}")
        plus[k], minus[k] = roots[i_plus], roots[i_minus]

    ascending = descending[::-1].copy()
    return (
        RootCurve(ascending, plus[::-1].copy(), Branch.PLUS),
        RootCurve(ascending, minus[::-1].copy(), Branch.MINUS),
    )


def predicted_branch(curve: RootCurve, c: complex) -> np.ndarray:
    """The ideal branch s*sqrt(c t) the curve is measured against."""
    return curve.branch.value * np.sqrt(c * curve.t_grid.astype(complex))


def branch_ratios(curve: RootCurve, c: complex) -> np.ndarray:
    """Relative distance of each tracked root to the predicted branch."""
    predicted = predicted_branch(curve, c)
    return np.abs(curve.roots - predicted) / np.abs(predicted)


def tangency_report(curve: RootCurve, c: complex) -> TangencyReport:
    """Per-decade sup of the relative distance to the predicted branch."""
    if c == 0:
        raise ValueError("curvature c must be nonzero")
    ratios = branch_ratios(curve, c)
    decades = np.floor(np.log10(curve.t_grid)).astype(int)
    uniq = sorted(set(decades))  # ascending: finest decade first
    sups = tuple(float(ratios[decades == d].max()) for d in uniq)
    monotone = all(
        sups[i] <= DECADE_JITTER * sups[i + 1] for i in range(len(sups) - 1)
    )
    final = sups[0]
    return TangencyReport(
        decades=tuple(uniq),
        decade_sups=sups,
        final_ratio=final,
        monotone=monotone,
        passed=monotone and final < RATIO_BOUND,
    )


def orthogonality_angle(plus: RootCurve, minus: RootCurve) -> float:
    """Angle in degrees between the two branches' limiting secant directions.

    Measured from the smallest tracked angle; the result is raw (no
    pairing of arms is assumed), use :func:`right_angle_deviation` for the
    distance to the nearest multiple of 90 degrees.
    """
    a_plus = np.angle(plus.roots[0], deg=True)
    a_minus = np.angle(minus.roots[0], deg=True)
    return float((a_plus - a_minus) % 360.0)


def right_angle_deviation(angle_deg: float) -> float:
    """Distance of an angle to the nearest multiple of 90 degrees."""
    return float(abs((angle_deg + 45.0) % 90.0 - 45.0))


def small_root_counts(
    coeff_fn: Callable[[float], np.ndarray],
    t_grid: Sequence[float],
    c: complex,
) -> np.ndarray:
    """Number of roots inside the disk |z| < 2 sqrt|c t_max|, per grid angle."""
    grid = np.asarray(t_grid, dtype=float)
    radius = 2.0 * np.sqrt(abs(c) * grid.max())
    return np.sum(np.abs(_roots_on_grid(coeff_fn, grid)) < radius, axis=1)
