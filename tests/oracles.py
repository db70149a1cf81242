"""Independent oracles: the paper's closed forms, an exact jet and a tracker.

The program reads a_0, a_0'(0), a_2(0), a_3(0), every ``check`` clause and
the branch curvature off one :class:`~flockstab.spectral.ModePolynomial`.
The functions here derive the same quantities another way: from the
paper's closed forms for a_0 (the D function), for a_0'(0) (the lambda/mu
symbols of two types) and for a_2(0) and a_3(0) (the E pair sums of three
types, the gain-weighted alphas of two); in exact rational arithmetic on
the stencil; and by tracking the small roots of any coefficient family
a_i(t) with a finite-difference curvature, so the tests can check one
against the other.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from flockstab.conditions import CONDITION_TOL
from flockstab.errors import HypothesisViolated
from flockstab.model import Arrangement, FlockSpec
from flockstab.rootcurves import RootCurve, _require_hypotheses, _track
from flockstab.spectral import mode_roots


@dataclass(frozen=True)
class AlphaBeta:
    """Symmetric/antisymmetric weight combinations per type and offset.

    ``alpha[k][j] = rho[+j] + rho[-j]`` and ``beta[k][j] = rho[+j] - rho[-j]``
    for offset magnitudes j present in the arrangement.
    """

    alpha_x: tuple[Mapping[int, float], ...]
    beta_x: tuple[Mapping[int, float], ...]
    alpha_v: tuple[Mapping[int, float], ...]


def alphas_betas(spec: FlockSpec) -> AlphaBeta:
    """Exact alpha/beta combinations of the spec's weights."""
    magnitudes = sorted({abs(j) for j in spec.arrangement.offsets})

    def combine(rhos, sign: float):
        return tuple(MappingProxyType({j: rho[j] + sign * rho[-j] for j in magnitudes})
                     for rho in rhos)

    rho_x = [agent.rho_x for agent in spec.agents]
    rho_v = [agent.rho_v for agent in spec.agents]
    return AlphaBeta(alpha_x=combine(rho_x, 1.0), beta_x=combine(rho_x, -1.0),
                     alpha_v=combine(rho_v, 1.0))


def type_blocks(m: np.ndarray, t: int, n: int) -> np.ndarray:
    """The [positions; velocities] matrix m of t * n vehicles in line order,
    permuted into type blocks: vehicle k (type k mod t, cell k // t) moves to
    (k mod t) n + k // t of each half, so each half holds n cells of type 0,
    then n of type 1, and so on."""
    k = np.arange(t * n)
    half = (k % t) * n + k // t
    block = np.r_[half, t * n + half]
    out = np.empty_like(m)
    out[np.ix_(block, block)] = m
    return out


def E_func(a: float, b: float, c: float, d: float) -> float:
    """ab(1 + c + cd)."""
    return a * b * (1.0 + c + c * d)


def a2_a3_at_zero(spec: FlockSpec) -> tuple[float, float]:
    """a_2(0) and a_3(0) from the paper's closed forms.

    Three types: minus the pair sums E of positions and of mixed
    position/velocity terms.  Two types: the gain-weighted first-offset
    alphas of positions and of velocities (a_4 = 1).
    """
    agents = spec.agents
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        g_x, g_v = [a.g_x for a in agents], [a.g_v for a in agents]
        rx, rv = [a.rho_x[1] for a in agents], [a.rho_v[1] for a in agents]
        pairs = [(0, 1), (1, 2), (2, 0)]
        e_xx = sum(E_func(g_x[i], g_x[j], rx[i], rx[j]) for i, j in pairs)
        e_xv = sum(E_func(g_x[i], g_v[j], rx[i], rv[j])
                   + E_func(g_v[i], g_x[j], rv[i], rx[j]) for i, j in pairs)
        return -e_xx, -e_xv
    ab = alphas_betas(spec)
    return (sum(a.g_x * alpha[1] for a, alpha in zip(agents, ab.alpha_x)),
            sum(a.g_v * alpha[1] for a, alpha in zip(agents, ab.alpha_v)))


def exact_jet(spec: FlockSpec, p: int, size: bool = False) -> list[Fraction]:
    """jet(p) / i^p in exact rational arithmetic: sum_s s^p C[k, s] for every k.

    The spec's float weights are exact rationals, so this is the value
    the float ``ModePolynomial.jet`` rounds.  The mode matrix entry (a, b)
    is a polynomial {(nu power, z power): coefficient}; Q is its
    determinant over the t! permutations.  With ``size``, the same sum of
    |s|^p times the permutation products of |entries|: the value
    ``ModePolynomial.jet_size`` rounds.
    """
    t = spec.n_types
    entries = [[{} for _ in range(t)] for _ in range(t)]
    for a, agent in enumerate(spec.agents):
        entries[a][a][(2, 0)] = Fraction(-1)
        for j in (0, *agent.rho_x):
            s, b = divmod(a + j, t)
            weight_x = Fraction(agent.rho_x[j]) if j else Fraction(1)
            weight_v = Fraction(agent.rho_v[j]) if j else Fraction(1)
            entries[a][b][(0, s)] = Fraction(agent.g_x) * weight_x
            entries[a][b][(1, s)] = Fraction(agent.g_v) * weight_v
    jet = [Fraction(0)] * (2 * t + 1)
    for perm in itertools.permutations(range(t)):
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        product = {(0, 0): Fraction(1 if size else sign)}
        for a, b in enumerate(perm):
            step = {}
            for (k1, s1), u in product.items():
                for (k2, s2), v in entries[a][b].items():
                    v = abs(v) if size else v
                    step[(k1 + k2, s1 + s2)] = step.get((k1 + k2, s1 + s2), 0) + u * v
            product = step
        for (k, s), coefficient in product.items():
            jet[k] += (abs(s) if size else s) ** p * coefficient
    return jet


def D_func(a: float, b: float, c: float, t: float) -> complex:
    """abc(e^{it}-1) - (1+a)(1+b)(1+c)(e^{-it}-1)."""
    return a * b * c * (cmath.exp(1j * t) - 1.0) - (1.0 + a) * (1.0 + b) * (
        1.0 + c
    ) * (cmath.exp(-1j * t) - 1.0)


def _lambda_mu(agent, type_index: int, phi: float) -> tuple[complex, complex]:
    """Cross-type (lambda) and same-type (mu) position symbols of a two-type agent."""
    rho = agent.rho_x
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    if type_index == 0:
        lam = rho[1] + rho[-1] * em
    else:
        lam = rho[-1] + rho[1] * ep
    mu = 1.0 + rho[2] * ep + rho[-2] * em
    return lam, mu


def a0_constant_term(spec: FlockSpec, phi: float) -> complex:
    """Constant coefficient of Q(nu, phi) from its closed form.

    An independent derivation of ``char_poly(spec, phi)[0]``; the
    two must agree to roundoff, which the test suite cross-checks.
    """
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        g = spec.agents[0].g_x * spec.agents[1].g_x * spec.agents[2].g_x
        return g * D_func(*(a.rho_x[1] for a in spec.agents), phi)
    a1, a2 = spec.agents
    lx1, mx1 = _lambda_mu(a1, 0, phi)
    lx2, mx2 = _lambda_mu(a2, 1, phi)
    return a1.g_x * a2.g_x * (mx1 * mx2 - lx1 * lx2)


def a0_derivative_at_zero(spec: FlockSpec) -> complex:
    """d a_0 / d phi at phi = 0, in closed form."""
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        g = spec.agents[0].g_x * spec.agents[1].g_x * spec.agents[2].g_x
        a, b, c = (agent.rho_x[1] for agent in spec.agents)
        return g * 1j * (a * b * c + (1 + a) * (1 + b) * (1 + c))
    a1, a2 = spec.agents
    ab = alphas_betas(spec)
    lam1, mu1 = _lambda_mu(a1, 0, 0.0)
    lam2, mu2 = _lambda_mu(a2, 1, 0.0)
    dlam1 = -1j * a1.rho_x[-1]
    dlam2 = 1j * a2.rho_x[1]
    dmu1 = 1j * ab.beta_x[0][2]
    dmu2 = 1j * ab.beta_x[1][2]
    return a1.g_x * a2.g_x * (
        dmu1 * mu2 + mu1 * dmu2 - dlam1 * lam2 - lam1 * dlam2
    )


def _rows(coeff_fn: Callable[[float], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """The family's coefficients a_0..a_d at each grid angle, one row per angle."""
    return np.array([np.asarray(coeff_fn(t), dtype=complex) for t in grid])


def track_polynomial_branches(
    coeff_fn: Callable[[float], np.ndarray],
    t_grid: Sequence[float],
    c: complex | None = None,
) -> tuple[RootCurve, RootCurve]:
    """Track branches of an arbitrary coefficient family a_i(t).

    The curvature c is estimated by central differences of a_0 when not
    supplied; a zero c raises ``ValueError``.  The family must satisfy
    a_0(0) = a_1(0) = 0 with a_2(0) and a_0'(0) away from zero.
    """
    grid = np.asarray(t_grid, dtype=float)
    at_zero = np.asarray(coeff_fn(0.0), dtype=complex)
    scale = max(1.0, float(np.abs(at_zero).max()))
    if abs(at_zero[0]) > CONDITION_TOL * scale or abs(at_zero[1]) > CONDITION_TOL * scale:
        raise HypothesisViolated("a_0(0) and a_1(0) must vanish")
    if c is None:
        h = 1e-7
        a0p = (np.asarray(coeff_fn(h))[0] - np.asarray(coeff_fn(-h))[0]) / (2.0 * h)
        a2 = at_zero[2]
        _require_hypotheses(complex(a2), complex(a0p), 0.0, 0.0)
        c = -complex(a0p) / complex(a2)
    return _track(_rows(coeff_fn, grid), grid, c)


def small_root_counts(
    coeff_fn: Callable[[float], np.ndarray],
    t_grid: Sequence[float],
    c: complex,
) -> np.ndarray:
    """Number of roots inside the disk |z| < 2 sqrt|c t_max|, per grid angle."""
    grid = np.asarray(t_grid, dtype=float)
    radius = 2.0 * np.sqrt(abs(c) * grid.max())
    return np.sum(np.abs(mode_roots(grid, _rows(coeff_fn, grid)).eigenvalues) < radius, axis=1)
