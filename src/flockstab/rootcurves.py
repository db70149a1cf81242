"""Numerical validation of the small-root branch geometry near the origin.

When a_0 and a_1 of the mode polynomial vanish at angle 0 while a_2 and
the slope a_0'(0) do not, the two roots that collapse into the origin are
tangent to the square-root branches +-sqrt(c t) with c = -a_0'(0)/a_2(0),
both read off one :class:`ModePolynomial` through ``ModePolynomial.jet``.
This module evaluates that polynomial's coefficient rows on a positive
angle grid in one call, tracks the two roots along the grid, and measures
how fast they approach the predicted branches.  Each tracked
:class:`RootCurve` carries in ``RootCurve.c`` the curvature it was tracked
against, so its predicted branch and ratios need nothing else.  The
test suite (``tests/oracles.py``) keeps a second route to the same
curves, a tracker for any coefficient family with a finite-difference
curvature, and the count of roots in the enclosing disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .conditions import CONDITION_TOL
from .errors import BranchAmbiguity, HypothesisViolated
from .model import FlockSpec, check_budget
from .spectral import ModePolynomial, _vanishes, mode_polynomial, mode_roots

DEFAULT_GRID = (1e-6, 1e-1, 60)

#: tangency acceptance: final-decade ratio bound and allowed decade jitter
RATIO_BOUND = 0.05
DECADE_JITTER = 1.10

#: bytes per angle that ``rootcurves`` holds at its peak, its CSV and SVG included
#: (1.29 KB for three types, 0.76 KB for two, at 1e5 angles under tracemalloc)
_BYTES_PER_ANGLE = 1300


class Branch(Enum):
    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class RootCurve:
    """One tracked root branch over an ascending positive angle grid.

    ``c`` is the nonzero curvature of the branch s*sqrt(c t) the roots
    were tracked against, s = ``branch.value``.
    """

    t_grid: np.ndarray
    roots: np.ndarray
    branch: Branch
    c: complex

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("curvature c must be nonzero")
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))
        self.t_grid.setflags(write=False)
        self.roots.setflags(write=False)

    @property
    def predicted(self) -> np.ndarray:
        """The ideal branch s*sqrt(c t) the curve is measured against."""
        return self.branch.value * np.sqrt(self.c * self.t_grid.astype(complex))

    @property
    def ratios(self) -> np.ndarray:
        """Relative distance of each tracked root to the predicted branch."""
        predicted = self.predicted
        return np.abs(self.roots - predicted) / np.abs(predicted)


@dataclass(frozen=True)
class TangencyReport:
    decades: tuple[int, ...]
    decade_sups: tuple[float, ...]
    final_ratio: float
    monotone: bool
    passed: bool


def angle_grid(phi_min: float, phi_max: float, phi_points: int) -> np.ndarray:
    """``phi_points`` geometric angles from ``phi_min`` to ``phi_max``.

    Requires 0 < phi_min < phi_max < inf and at least two points.  A grid
    over the 2 GiB budget (about 1.65e6 points) raises ``ValueError``
    before anything is allocated.
    """
    if not 0.0 < phi_min < np.inf:
        raise ValueError(f"phi_min must be positive and finite, got {phi_min}")
    if not phi_min < phi_max < np.inf:
        raise ValueError(f"phi_max must be finite and above phi_min, got {phi_max}")
    if phi_points < 2:
        raise ValueError(f"phi_points must be at least 2, got {phi_points}")
    check_budget(f"{phi_points} angles", phi_points * _BYTES_PER_ANGLE)
    return np.geomspace(phi_min, phi_max, phi_points)


def default_grid() -> np.ndarray:
    return angle_grid(*DEFAULT_GRID)


def branch_curvature(spec: FlockSpec) -> complex:
    """c = -a_0'(0) / a_2(0), both read off the spec's mode polynomial.

    a_0'(0) = ``jet(1)[0]`` = i sum_s s c[0, s] and a_2(0) = ``jet(0)[2]``
    = sum_s c[2, s].  Each must be nonzero by the rule ``check`` applies
    to its clauses, so ``check``'s clause iii triggers exactly when this
    accepts a_0'(0).  The paper's closed forms for both live in
    ``tests/oracles.py`` as independent checks.
    """
    return _curvature(mode_polynomial(spec))


def _curvature(q: ModePolynomial) -> complex:
    a2, a0p = float(q.jet(0)[2].real), complex(q.jet(1)[0])
    _require_hypotheses(a2, a0p, float(q.jet_size(0)[2]), float(q.jet_size(1)[0]))
    return -a0p / a2


def _require_hypotheses(a2: complex, a0p: complex, a2_size: float, a0p_size: float) -> None:
    """Refuse an a_2(0) or a_0'(0) that ``check``'s rule reads as zero.

    A size of 0 leaves only the tolerance.
    """
    if _vanishes(abs(a2), a2_size, CONDITION_TOL):
        raise HypothesisViolated(f"|a_2(0)| = {abs(a2):.3e} is below tolerance")
    if _vanishes(abs(a0p), a0p_size, CONDITION_TOL):
        raise HypothesisViolated(f"|a_0'(0)| = {abs(a0p):.3e} is below tolerance")


def track_branches(
    spec: FlockSpec, t_grid: Sequence[float] | None = None
) -> tuple[RootCurve, RootCurve]:
    """Track the two small roots of the spec's mode polynomial."""
    q = mode_polynomial(spec)
    c = _curvature(q)
    grid = default_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    return _track(q.coeffs(grid), grid, c)


def _track(rows: np.ndarray, grid: np.ndarray, c: complex) -> tuple[RootCurve, RootCurve]:
    """Follow the roots near +-sqrt(c t) down the grid; rows[k] is a_0..a_d at grid[k]."""
    if len(grid) == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and positive")

    descending = grid[::-1]
    plus = np.empty(len(grid), dtype=complex)
    minus = np.empty(len(grid), dtype=complex)
    all_roots = mode_roots(descending, rows[::-1]).eigenvalues

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
        RootCurve(ascending, plus[::-1].copy(), Branch.PLUS, c),
        RootCurve(ascending, minus[::-1].copy(), Branch.MINUS, c),
    )


def tangency_report(curve: RootCurve) -> TangencyReport:
    """Per-decade sup of the relative distance to the predicted branch."""
    ratios = curve.ratios
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
