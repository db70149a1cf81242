"""Closed-form necessary stability conditions and instability certificates.

Every clause evaluates a scalar whose vanishing (or sign) certifies that
the periodic system cannot be linearly stable for large flocks.  The key
quantity is the first moment of the forward/backward weight asymmetries
plus a nonlinear correction; its zero set is the codimension-one manifold
on which stable parameter choices live.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidTolerance, WrongArrangement
from .model import Arrangement, FlockSpec, alphas_betas

CONDITION_TOL = 1e-9

#: ulps of its summed magnitudes within which the clause iii moment is roundoff
_MOMENT_ULPS = 8


class Overall(Enum):
    NECESSARY_CONDITIONS_HOLD = "necessary-conditions-hold"
    INSTABILITY_CERTIFIED = "instability-certified"


@dataclass(frozen=True)
class ConditionClause:
    id: str
    value: float
    triggered: bool
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    clauses: tuple[ConditionClause, ...]
    case_values: dict
    overall: Overall

    @property
    def verdicts(self) -> dict:
        return {c.id: c.triggered for c in self.clauses}

    def to_dict(self) -> dict:
        return {
            "clauses": [
                {"id": c.id, "value": c.value, "triggered": c.triggered,
                 **({"note": c.note} if c.note else {})}
                for c in self.clauses
            ],
            "case_values": dict(self.case_values),
            "overall": self.overall.value,
        }


def D_func(a: float, b: float, c: float, t: float) -> complex:
    """abc(e^{it}-1) - (1+a)(1+b)(1+c)(e^{-it}-1)."""
    return a * b * c * (cmath.exp(1j * t) - 1.0) - (1.0 + a) * (1.0 + b) * (
        1.0 + c
    ) * (cmath.exp(-1j * t) - 1.0)


def E_func(a: float, b: float, c: float, d: float) -> float:
    """ab(1 + c + cd)."""
    return a * b * (1.0 + c + c * d)


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that would turn a verdict into a wrong answer."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidTolerance(f"tolerance must be finite and non-negative, got {tol}")


def necessary_condition_value(spec: FlockSpec) -> float:
    """The scalar whose vanishing is necessary for stability.

    Three types: sum of the first-offset asymmetries plus their product.
    Two types: cross-weighted moment of the asymmetries at both offsets.
    Reported without the gain-product prefactor.
    """
    ab = alphas_betas(spec)
    return _moment(spec.arrangement, ab.alpha_x, ab.beta_x)


def _moment(arrangement: Arrangement, alpha_x, beta_x) -> float:
    if arrangement is Arrangement.TRIATOMIC_NN:
        b0, b1, b2 = (b[1] for b in beta_x)
        return b0 + b1 + b2 + b0 * b1 * b2
    (a1, a2), (b1, b2) = (a[1] for a in alpha_x), beta_x
    return a2 * (b1[1] + 2.0 * b1[2]) + a1 * (b2[1] + 2.0 * b2[2])


def _moment_triggers(spec: FlockSpec, g_product: float, mpc: float, tol: float) -> bool:
    """Clause iii: |g_product * moment| beyond both tol and roundoff.

    The moment over |rho[j]| + |rho[-j]| in place of each alpha and beta
    bounds the magnitudes it sums; a few ulps of that (a running-error
    bound) cover all that roundoff leaves of a vanishing moment.
    """
    sizes = [{j: abs(w) + abs(a.rho_x[-j]) for j, w in a.rho_x.items() if j > 0}
             for a in spec.agents]
    bound = abs(g_product) * _moment(spec.arrangement, sizes, sizes)
    return abs(g_product * mpc) > max(tol, _MOMENT_ULPS * math.ulp(bound))


def triatomic_conditions(spec: FlockSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate the three instability clauses for the three-type arrangement."""
    if spec.arrangement is not Arrangement.TRIATOMIC_NN:
        raise WrongArrangement("triatomic_conditions needs a triatomic-nn spec")
    check_tolerance(tol)
    g_x = [a.g_x for a in spec.agents]
    g_v = [a.g_v for a in spec.agents]
    rho_x1 = [a.rho_x[1] for a in spec.agents]
    rho_v1 = [a.rho_v[1] for a in spec.agents]
    betas = [b[1] for b in alphas_betas(spec).beta_x]

    g_product = g_x[0] * g_x[1] * g_x[2]
    pairs = [(0, 1), (1, 2), (2, 0)]
    e_sum = sum(E_func(g_x[i], g_x[j], rho_x1[i], rho_x1[j]) for i, j in pairs)
    mixed_e_sum = sum(
        E_func(g_x[i], g_v[j], rho_x1[i], rho_v1[j])
        + E_func(g_v[i], g_x[j], rho_v1[i], rho_x1[j])
        for i, j in pairs
    )
    beta_sum = betas[0] + betas[1] + betas[2]
    mpc = necessary_condition_value(spec)

    clauses = (
        ConditionClause("i", g_product, any(abs(g) <= tol for g in g_x),
                        note="triggers when a positional gain vanishes"),
        ConditionClause("ii", e_sum, abs(e_sum) <= tol,
                        note="vanishing pair sum forces a triple zero eigenvalue"),
        ConditionClause("iii", mpc, _moment_triggers(spec, g_product, mpc, tol),
                        note="first moment of weight asymmetries plus their product"),
    )
    case_values = {
        "g_product": g_product,
        "e_sum": e_sum,
        "mixed_e_sum": mixed_e_sum,
        "beta_sum": beta_sum,
        "moment_plus_correction": mpc,
        "a2_at_zero": -e_sum,
    }
    return ConditionReport(clauses, case_values, _overall(clauses))


def diatomic_conditions(spec: FlockSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate the instability clauses for the two-type arrangement."""
    if spec.arrangement is not Arrangement.DIATOMIC_NNN:
        raise WrongArrangement("diatomic_conditions needs a diatomic-nnn spec")
    check_tolerance(tol)
    ab = alphas_betas(spec)
    g_x = [a.g_x for a in spec.agents]
    g_v = [a.g_v for a in spec.agents]
    ax = [a[1] for a in ab.alpha_x]
    av = [a[1] for a in ab.alpha_v]

    g_product = g_x[0] * g_x[1]
    sum_x = g_x[0] * ax[0] + g_x[1] * ax[1]
    sum_v = g_v[0] * av[0] + g_v[1] * av[1]
    mpc = necessary_condition_value(spec)

    clauses = (
        ConditionClause(
            "i", g_product, any(abs(g) <= tol for g in g_x),
            note="zero-gain reading: a vanishing positional gain pins a "
                 "persistent zero eigenvalue in every mode",
        ),
        ConditionClause("ii-x", sum_x, sum_x <= tol,
                        note="gain-weighted first-offset alphas, positions"),
        ConditionClause("ii-v", sum_v, sum_v <= tol,
                        note="gain-weighted first-offset alphas, velocities"),
        ConditionClause("iii", mpc, _moment_triggers(spec, g_product, mpc, tol),
                        note="cross-weighted asymmetry moment over both offsets"),
    )
    case_values = {
        "g_product": g_product,
        "gain_weighted_alpha_x": sum_x,
        "gain_weighted_alpha_v": sum_v,
        "moment_plus_correction": mpc,
        "a2_at_zero": sum_x,
    }
    return ConditionReport(clauses, case_values, _overall(clauses))


def conditions(spec: FlockSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Arrangement-dispatched condition report."""
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        return triatomic_conditions(spec, tol)
    return diatomic_conditions(spec, tol)


def _overall(clauses) -> Overall:
    if any(c.triggered for c in clauses):
        return Overall.INSTABILITY_CERTIFIED
    return Overall.NECESSARY_CONDITIONS_HOLD
