"""Necessary stability conditions and instability certificates.

Every clause is read off the spec's mode polynomial at phi = 0 (see
:mod:`flockstab.spectral`): clause i off the positional gains, the middle
clauses off a_k(0) / a_d(0), with a_d = (-1)^t exactly, and clause iii off
the slope a_0'(0), a nonzero multiple of the gain product times the
paper's key quantity: the first moment of the forward/backward weight
asymmetries plus a nonlinear correction.  Its zero set is the
codimension-one manifold on which stable parameter choices live.  A value
counts as zero (for a sign clause, as non-positive) by the roundoff rule
``rootcurves`` applies to its hypotheses: at most ``tol`` or a few ulps of
its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import Arrangement, FlockSpec
from .spectral import _vanishes, check_tolerance, mode_polynomial

CONDITION_TOL = 1e-9


class Overall(Enum):
    NECESSARY_CONDITIONS_HOLD = "necessary-conditions-hold"
    INSTABILITY_CERTIFIED = "instability-certified"


@dataclass(frozen=True)
class ConditionClause:
    id: str
    value: float
    triggered: bool
    note: str


@dataclass(frozen=True)
class ConditionReport:
    clauses: tuple[ConditionClause, ...]
    case_values: dict
    overall: Overall

    @property
    def verdicts(self) -> dict:
        return {c.id: c.triggered for c in self.clauses}


#: per arrangement: clause i note, the middle clauses as (id, k, rule, note)
#: on a_k(0) / a_d(0), and clause iii note.  A "vanishes" clause triggers
#: when the value is zero, a "sign" clause when it is not positive.
_CLAUSES = {
    Arrangement.TRIATOMIC_NN: (
        "triggers when a positional gain vanishes",
        (("ii", 2, "vanishes", "vanishing pair sum forces a triple zero eigenvalue"),),
        "first moment of weight asymmetries plus their product",
    ),
    Arrangement.DIATOMIC_NNN: (
        "zero-gain reading: a vanishing positional gain pins a "
        "persistent zero eigenvalue in every mode",
        (("ii-x", 2, "sign", "gain-weighted first-offset alphas, positions"),
         ("ii-v", 3, "sign", "gain-weighted first-offset alphas, velocities")),
        "cross-weighted asymmetry moment over both offsets",
    ),
}


def necessary_condition_value(spec: FlockSpec) -> float:
    """The scalar whose vanishing is necessary for stability.

    Three types: sum of the first-offset asymmetries plus their product.
    Two types: cross-weighted moment of the asymmetries at both offsets.
    Reported without the gain-product prefactor; a_0'(0) is i/4 (three
    types) or -i/2 (two types) times the gain product times this value.
    """
    rho = [agent.rho_x for agent in spec.agents]
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        b0, b1, b2 = (r[1] - r[-1] for r in rho)
        return b0 + b1 + b2 + b0 * b1 * b2
    a1, a2 = (r[1] + r[-1] for r in rho)
    b1, b2 = ((r[1] - r[-1]) + 2.0 * (r[2] - r[-2]) for r in rho)
    return a2 * b1 + a1 * b2


def conditions(spec: FlockSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate clause i, the arrangement's middle clauses and clause iii."""
    check_tolerance(tol)
    q = mode_polynomial(spec)
    at_zero, at_zero_size = q.jet(0).real, q.jet_size(0)
    slope = float(q.jet(1)[0].imag)  # a_0'(0) is i times this
    g_x = [a.g_x for a in spec.agents]
    g_product = math.prod(g_x)
    mpc = necessary_condition_value(spec)
    note_i, middle, note_iii = _CLAUSES[spec.arrangement]

    clauses = [ConditionClause("i", g_product,
                               any(_vanishes(abs(g), abs(g), tol) for g in g_x), note_i)]
    for clause_id, k, rule, note in middle:
        value = float(at_zero[k] / at_zero[-1])
        judged = abs(value) if rule == "vanishes" else value
        clauses.append(ConditionClause(
            clause_id, value, _vanishes(judged, float(at_zero_size[k]), tol), note))
    clauses.append(ConditionClause(
        "iii", mpc, not _vanishes(abs(slope), float(q.jet_size(1)[0]), tol), note_iii))

    case_values = {
        "g_product": g_product,
        "beta_sum": sum(sum(j * w for j, w in a.rho_x.items()) for a in spec.agents),
        "moment_plus_correction": mpc,
        "a2_at_zero": float(at_zero[2]),
        "a0_slope_at_zero": slope,
    }
    overall = (Overall.INSTABILITY_CERTIFIED if any(c.triggered for c in clauses)
               else Overall.NECESSARY_CONDITIONS_HOLD)
    return ConditionReport(tuple(clauses), case_values, overall)
