"""Closed-form necessary stability conditions and instability certificates.

Every clause evaluates a scalar whose vanishing (or sign) certifies that
the periodic system cannot be linearly stable for large flocks.  The key
quantity is the first moment of the forward/backward weight asymmetries
plus a nonlinear correction; its zero set is the codimension-one manifold
on which stable parameter choices live.

One roundoff rule decides every clause: a value counts as zero (or, for a
sign clause, as non-positive) when it is at most ``tol`` or a few ulps of
its size, the same expression evaluated on the magnitudes it sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidTolerance
from .model import AlphaBeta, Arrangement, FlockSpec, alphas_betas

CONDITION_TOL = 1e-9

#: ulps of its size within which a clause value is roundoff
_ULPS = 8


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


def _vanishes(value: float, size: float, tol: float) -> bool:
    """value <= max(tol, a few ulps of size), the one rule of every clause.

    size is the value's expression on the magnitudes it sums, so a value
    that vanishes in exact arithmetic stays within a few ulps of it.
    """
    return value <= max(tol, _ULPS * math.ulp(size))


def _pair_sum_clause(spec: FlockSpec, ab: AlphaBeta, tol: float):
    """Three types: clause ii, the pair sum E of the positional terms; a2(0) = -E."""
    g_x = [a.g_x for a in spec.agents]
    g_v = [a.g_v for a in spec.agents]
    rho_x1 = [a.rho_x[1] for a in spec.agents]
    rho_v1 = [a.rho_v[1] for a in spec.agents]
    betas = [b[1] for b in ab.beta_x]
    pairs = [(0, 1), (1, 2), (2, 0)]

    e_sum = sum(E_func(g_x[i], g_x[j], rho_x1[i], rho_x1[j]) for i, j in pairs)
    e_size = sum(E_func(abs(g_x[i]), abs(g_x[j]), abs(rho_x1[i]), abs(rho_x1[j]))
                 for i, j in pairs)
    mixed_e_sum = sum(
        E_func(g_x[i], g_v[j], rho_x1[i], rho_v1[j])
        + E_func(g_v[i], g_x[j], rho_v1[i], rho_x1[j])
        for i, j in pairs
    )
    clauses = (
        ConditionClause("ii", e_sum, _vanishes(abs(e_sum), e_size, tol),
                        note="vanishing pair sum forces a triple zero eigenvalue"),
    )
    values = {"e_sum": e_sum, "mixed_e_sum": mixed_e_sum,
              "beta_sum": betas[0] + betas[1] + betas[2]}
    return clauses, values, -e_sum


def _alpha_sum_clauses(spec: FlockSpec, ab: AlphaBeta, tol: float):
    """Two types: clauses ii-x and ii-v, the gain-weighted first-offset alphas.

    Each sum is sized by |g| * (|rho[1]| + |rho[-1]|); a2(0) is the
    position sum.
    """
    def weighted(gains, alphas, weights):
        value = gains[0] * alphas[0][1] + gains[1] * alphas[1][1]
        size = sum(abs(g) * (abs(w[1]) + abs(w[-1])) for g, w in zip(gains, weights))
        return value, _vanishes(value, size, tol)

    sum_x, ii_x = weighted([a.g_x for a in spec.agents], ab.alpha_x,
                           [a.rho_x for a in spec.agents])
    sum_v, ii_v = weighted([a.g_v for a in spec.agents], ab.alpha_v,
                           [a.rho_v for a in spec.agents])
    clauses = (
        ConditionClause("ii-x", sum_x, ii_x,
                        note="gain-weighted first-offset alphas, positions"),
        ConditionClause("ii-v", sum_v, ii_v,
                        note="gain-weighted first-offset alphas, velocities"),
    )
    return clauses, {"gain_weighted_alpha_x": sum_x, "gain_weighted_alpha_v": sum_v}, sum_x


#: per arrangement: clause i note, the middle clauses, clause iii note
_ARRANGEMENT_CLAUSES = {
    Arrangement.TRIATOMIC_NN: (
        "triggers when a positional gain vanishes",
        _pair_sum_clause,
        "first moment of weight asymmetries plus their product",
    ),
    Arrangement.DIATOMIC_NNN: (
        "zero-gain reading: a vanishing positional gain pins a "
        "persistent zero eigenvalue in every mode",
        _alpha_sum_clauses,
        "cross-weighted asymmetry moment over both offsets",
    ),
}


def conditions(spec: FlockSpec, tol: float = CONDITION_TOL) -> ConditionReport:
    """Evaluate clause i, the arrangement's middle clauses and clause iii."""
    check_tolerance(tol)
    ab = alphas_betas(spec)
    g_x = [a.g_x for a in spec.agents]
    g_product = math.prod(g_x)
    mpc = _moment(spec.arrangement, ab.alpha_x, ab.beta_x)
    # the moment over |rho[j]| + |rho[-j]| in place of each alpha and beta
    sizes = [{j: abs(w) + abs(a.rho_x[-j]) for j, w in a.rho_x.items() if j > 0}
             for a in spec.agents]
    moment_size = abs(g_product) * _moment(spec.arrangement, sizes, sizes)
    note_i, middle, note_iii = _ARRANGEMENT_CLAUSES[spec.arrangement]
    middle_clauses, middle_values, a2_at_zero = middle(spec, ab, tol)

    clauses = (
        ConditionClause("i", g_product, any(_vanishes(abs(g), abs(g), tol) for g in g_x),
                        note=note_i),
        *middle_clauses,
        ConditionClause("iii", mpc, not _vanishes(abs(g_product * mpc), moment_size, tol),
                        note=note_iii),
    )
    case_values = {"g_product": g_product, **middle_values,
                   "moment_plus_correction": mpc, "a2_at_zero": a2_at_zero}
    return ConditionReport(clauses, case_values, _overall(clauses))


def _overall(clauses) -> Overall:
    if any(c.triggered for c in clauses):
        return Overall.INSTABILITY_CERTIFIED
    return Overall.NECESSARY_CONDITIONS_HOLD
