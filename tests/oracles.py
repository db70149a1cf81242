"""Independent oracles: the paper's closed forms and a coefficient-family tracker.

The program reads a_0, a_0'(0) and the branch curvature off one
:class:`~flockstab.spectral.ModePolynomial`.  The functions here derive the
same quantities another way, from the paper's closed forms for a_0 (the
D function) and for a_0'(0) (the lambda/mu symbols of two types), and by
tracking the small roots of any coefficient family a_i(t) with a
finite-difference curvature, so the tests can check one against the other.
"""

from __future__ import annotations

import cmath
from typing import Callable, Sequence

import numpy as np

from flockstab.errors import HypothesisViolated
from flockstab.model import Arrangement, FlockSpec, alphas_betas
from flockstab.rootcurves import HYPOTHESIS_TOL, RootCurve, _require_hypotheses, _track
from flockstab.spectral import mode_roots


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
    if abs(at_zero[0]) > HYPOTHESIS_TOL * scale or abs(at_zero[1]) > HYPOTHESIS_TOL * scale:
        raise HypothesisViolated("a_0(0) and a_1(0) must vanish")
    if c is None:
        h = 1e-7
        a0p = (np.asarray(coeff_fn(h))[0] - np.asarray(coeff_fn(-h))[0]) / (2.0 * h)
        a2 = at_zero[2]
        _require_hypotheses(complex(a2), complex(a0p))
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
