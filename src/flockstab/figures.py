"""Built-in parameter sets for the reproduction runs.

Parameter vectors keep the printed sign convention of the published runs
(negative gains, negative forward weights); backward weights are
completed from the sum-to--1 constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import AgentParams, Arrangement, BoundaryCondition, FlockSpec, build_spec

# the published 0.142857 is 1/7 rounded to six places; the exact fraction
# makes the asymmetry moment-plus-correction vanish identically.
_FIG1_RHO_X3 = -1.0 / 7.0

# the unstable two-type variant lists only seven of the eight position
# weights; the eighth (type 2, offset -2) is completed from the constraint.
_FIG3C_RHO_X_COMPLETED = -0.05


def _triatomic(rho_x1, rho_v1, g_x, g_v) -> FlockSpec:
    """Three-type spec from forward weights; backward weights are -1 - forward."""
    agents = [
        AgentParams(
            g_x=g_x[i],
            g_v=g_v[i],
            rho_x={1: rho_x1[i], -1: -1.0 - rho_x1[i]},
            rho_v={1: rho_v1[i], -1: -1.0 - rho_v1[i]},
        )
        for i in range(3)
    ]
    return build_spec(Arrangement.TRIATOMIC_NN, agents)


def _diatomic(rho_x, rho_v, g_x, g_v) -> FlockSpec:
    """Two-type spec; each 4-tuple is (rho_1, rho_-1, rho_2, rho_-2)."""
    agents = []
    for i in range(2):
        rx, rv = rho_x[i], rho_v[i]
        agents.append(
            AgentParams(
                g_x=g_x[i],
                g_v=g_v[i],
                rho_x={1: rx[0], -1: rx[1], 2: rx[2], -2: rx[3]},
                rho_v={1: rv[0], -1: rv[1], 2: rv[2], -2: rv[3]},
            )
        )
    return build_spec(Arrangement.DIATOMIC_NNN, agents)


def figure1() -> FlockSpec:
    """Stable three-type flock: rho = -(0.6, 0.8, 1/7, 0.3, 0.3, 0.3)."""
    return _triatomic(
        rho_x1=(-0.6, -0.8, _FIG1_RHO_X3),
        rho_v1=(-0.3, -0.3, -0.3),
        g_x=(-1.0, -1.0, -1.0),
        g_v=(-1.3, -1.3, -1.3),
    )


def figure2() -> FlockSpec:
    """Flock-unstable three-type variant: rho_x forward = -(0.6, 0.8, 0.10)."""
    return _triatomic(
        rho_x1=(-0.6, -0.8, -0.10),
        rho_v1=(-0.3, -0.3, -0.3),
        g_x=(-1.0, -1.0, -1.0),
        g_v=(-1.3, -1.3, -1.3),
    )


def figure3() -> FlockSpec:
    """Stable two-type flock with next-nearest-neighbor coupling."""
    s = 1.0 / 60.0
    return _diatomic(
        rho_x=((-5 * s, -15 * s, -20 * s, -20 * s), (-27 * s, -9 * s, -12 * s, -12 * s)),
        rho_v=((-0.30, -0.70, 0.0, 0.0), (-0.30, -0.70, 0.0, 0.0)),
        g_x=(-1.0, -1.0),
        g_v=(-1.0, -1.0),
    )


def figure3c() -> FlockSpec:
    """Unstable two-type variant (constraint-completed eighth weight)."""
    return _diatomic(
        rho_x=((-0.30, -0.25, -0.25, -0.20), (-0.30, -0.55, -0.10, _FIG3C_RHO_X_COMPLETED)),
        rho_v=((-0.30, -0.70, 0.0, 0.0), (-0.30, -0.70, 0.0, 0.0)),
        g_x=(-1.0, -1.0),
        g_v=(-1.0, -1.0),
    )


#: relative error allowed on the published extremum's magnitude and time
PUBLISHED_TOLERANCE = 0.02


@dataclass(frozen=True)
class FigureRun:
    """One reproduction target: fixture, run settings, published extremum."""

    figure: str
    spec: Callable[[], FlockSpec]
    kind: str  # "simulate" or "scan"
    n: int
    bc: BoundaryCondition
    dt: float
    t_max: float | None
    published_magnitude: float | None = None
    published_time: float | None = None
    n_values: tuple[int, ...] | None = None


FIGURE_RUNS = {
    "fig1a": FigureRun("fig1a", figure1, "simulate", 60, BoundaryCondition.TYPE_I,
                       0.01, 400.0, published_magnitude=-221.0, published_time=244.6),
    "fig1b": FigureRun("fig1b", figure1, "simulate", 60, BoundaryCondition.TYPE_II,
                       0.01, 400.0, published_magnitude=-220.8, published_time=244.4),
    "fig2a": FigureRun("fig2a", figure2, "simulate", 60, BoundaryCondition.TYPE_I,
                       0.01, 400.0),
    "fig2b": FigureRun("fig2b", figure2, "scan", 60, BoundaryCondition.TYPE_I,
                       0.01, None, n_values=(30, 60, 90, 120, 150, 180)),
    "fig3a": FigureRun("fig3a", figure3, "simulate", 50, BoundaryCondition.TYPE_I,
                       0.01, 300.0, published_magnitude=-72.8, published_time=79.3),
    "fig3b": FigureRun("fig3b", figure3, "simulate", 50, BoundaryCondition.TYPE_II,
                       0.01, 300.0, published_magnitude=-72.0, published_time=78.5),
    "fig3c": FigureRun("fig3c", figure3c, "simulate", 50, BoundaryCondition.TYPE_I,
                       0.01, 300.0),
}
