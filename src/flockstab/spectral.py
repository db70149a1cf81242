"""Per-mode characteristic polynomials, spectra, and stability classification.

On the circle the coupling blocks are circulant, so the system decomposes
into independent Fourier modes phi_m = 2*pi*m/n.  In mode phi the model's
stencil (see :mod:`flockstab.model`) reduces to a t x t matrix whose
(a, b) entry is the quadratic Lx + nu*Lv - nu^2*[a == b] in the eigenvalue
variable nu: Lx and Lv sum g * rho[j] * exp(i*phi*s) over the offsets j
that take type a to type b while shifting the cell by s.  Its determinant
is the mode polynomial Q(nu, phi), of degree 2t: six for three agent
types, four for two.  Linear stability means the only eigenvalue on the
closed right half-plane is the double zero at phi = 0 (the rigid
in-formation motion) with a one-dimensional eigenspace.

Every weight row sums to -1, so at phi = 0 both Lx and Lv annihilate the
all-ones vector and nu^2 divides Q(nu, 0).  The Jordan chain from the
all-ones vector already accounts for those two roots, and every further
kernel vector of Lx(0) adds at least one more, so a mode-0 zero root of
multiplicity exactly two certifies a one-dimensional eigenspace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npp

from .conditions import D_func
from .errors import DegenerateLeadingCoefficient, SizeError
from .model import Arrangement, FlockSpec, alphas_betas

CLASSIFY_TOL = 1e-9

_ZERO_EIGENVALUE_SCALE = 1e-8

_RESIDUAL_SCALE = 1e-8


@dataclass(frozen=True)
class CharPoly:
    """Coefficients a_0..a_d of one mode's characteristic polynomial."""

    phi: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, nu: complex) -> complex:
        return complex(npp.polyval(nu, self.coeffs))


@dataclass(frozen=True)
class ModeSpectrum:
    """All roots of one mode, sorted by descending real part."""

    phi: float
    eigenvalues: np.ndarray
    residuals: np.ndarray
    coeff_scale: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.residuals.setflags(write=False)

    def zero_threshold(self) -> float:
        d = len(self.eigenvalues)
        return _ZERO_EIGENVALUE_SCALE * (1.0 + self.coeff_scale ** (1.0 / d))


class Stability(Enum):
    STABLE = "stable"
    MARGINALLY_UNSTABLE = "marginally-unstable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    status: Stability
    zero_multiplicity: int
    max_real_part: float
    witness_phi: float
    witness_eigenvalue: complex

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "zero_multiplicity": self.zero_multiplicity,
            "max_real_part": self.max_real_part,
            "witness": {
                "phi": self.witness_phi,
                "re": self.witness_eigenvalue.real,
                "im": self.witness_eigenvalue.imag,
            },
        }


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing zero coefficients (keeping one), as numpy.polynomial does."""
    end = len(c)
    while end > 1 and c[end - 1] == 0:
        end -= 1
    return c[:end]


@functools.lru_cache(maxsize=None)
def _bloch_terms(t: int, a: int, offsets: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(offset j, cell shift s, target type b) of type a's stencil terms.

    a + j = t*s + b.  The terms come in the order each mode-matrix entry
    sums them: s = 0, +1, -1, +2, ...
    """
    terms = [(j, *divmod(a + j, t)) for j in (0, *offsets)]
    return tuple(sorted(terms, key=lambda term: (abs(term[1]), term[1] < 0)))


def _mode_matrix(spec: FlockSpec, phi: float) -> list[list[np.ndarray]]:
    """Mode-phi matrix of quadratics in nu, one row and column per agent type.

    Entry (a, b) is [Lx, Lv, -1 if a == b]: each stencil term of type a
    that reaches type b in the cell shifted by s adds
    g * rho[j] * exp(i*phi*s) to Lx (position gain and weights) and Lv
    (velocity ones).
    """
    t = spec.n_types
    phases = {0: 1.0}
    rows = []
    for a, agent in enumerate(spec.agents):
        lx, lv = [None] * t, [None] * t
        for j, s, b in _bloch_terms(t, a, tuple(agent.rho_x)):
            if s not in phases:
                phases[s] = np.exp(1j * s * phi)
            if j:
                x = agent.g_x * agent.rho_x[j] * phases[s]
                v = agent.g_v * agent.rho_v[j] * phases[s]
            else:
                x, v = agent.g_x, agent.g_v
            lx[b] = x if lx[b] is None else lx[b] + x
            lv[b] = v if lv[b] is None else lv[b] + v
        row = []
        for b in range(t):
            poly = [0.0] if lx[b] is None else [lx[b], lv[b], -1.0 if b == a else 0.0]
            row.append(_trim(np.array(poly, dtype=complex)))
        rows.append(row)
    return rows


def _det(m: list[list[np.ndarray]]) -> np.ndarray:
    """Determinant of a matrix of polynomials by first-row cofactor expansion.

    Each product, sum and trim is the one numpy.polynomial's polymul,
    polyadd and polysub would make, without their per-call overhead.
    """
    if len(m) == 1:
        return m[0][0]
    det = None
    for c, entry in enumerate(m[0]):
        term = _trim(np.convolve(entry, _det([row[:c] + row[c + 1:] for row in m[1:]])))
        if det is None:
            det = term
            continue
        if c % 2:
            term = -term
        longer, shorter = (det, term) if len(det) > len(term) else (term, det)
        det = longer.copy()
        det[: len(shorter)] += shorter
        det = _trim(det)
    return det


def char_poly(spec: FlockSpec, phi: float) -> CharPoly:
    """Characteristic polynomial of the mode at angle phi.

    The coefficients come from expanding the determinant of the small
    matrix whose entries are degree <= 2 polynomials in the eigenvalue
    variable; no root finding is involved.  At phi = 0 the row-sum
    constraint makes nu^2 an exact factor, so a_0 and a_1 are set to zero
    rather than left at roundoff (whose square root would otherwise move
    the double zero off the origin by ~1e-8).
    """
    det = _det(_mode_matrix(spec, phi))
    coeffs = np.zeros(2 * spec.n_types + 1, dtype=complex)
    coeffs[: len(det)] = det
    if phi == 0.0:
        coeffs[:2] = 0.0
    return CharPoly(phi=phi, coeffs=coeffs)


def _lambda_mu(agent, which: str, type_index: int, phi: float) -> tuple[complex, complex]:
    """Cross-type (lambda) and same-type (mu) symbols of a two-type agent.

    Only the ``a0_*`` closed forms use these; ``char_poly`` reads the stencil.
    """
    rho = agent.rho_x if which == "x" else agent.rho_v
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    if type_index == 0:
        lam = rho[1] + rho[-1] * em
    else:
        lam = rho[-1] + rho[1] * ep
    mu = 1.0 + rho[2] * ep + rho[-2] * em
    return lam, mu


def a0_constant_term(spec: FlockSpec, phi: float) -> complex:
    """Constant coefficient of Q(nu, phi) from its closed form.

    An independent derivation of ``char_poly(spec, phi).coeffs[0]``; the
    two must agree to roundoff, which the test suite cross-checks.
    """
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        g = spec.agents[0].g_x * spec.agents[1].g_x * spec.agents[2].g_x
        return g * D_func(*(a.rho_x[1] for a in spec.agents), phi)
    a1, a2 = spec.agents
    lx1, mx1 = _lambda_mu(a1, "x", 0, phi)
    lx2, mx2 = _lambda_mu(a2, "x", 1, phi)
    return a1.g_x * a2.g_x * (mx1 * mx2 - lx1 * lx2)


def a0_derivative_at_zero(spec: FlockSpec) -> complex:
    """d a_0 / d phi at phi = 0, in closed form."""
    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        g = spec.agents[0].g_x * spec.agents[1].g_x * spec.agents[2].g_x
        a, b, c = (agent.rho_x[1] for agent in spec.agents)
        return g * 1j * (a * b * c + (1 + a) * (1 + b) * (1 + c))
    a1, a2 = spec.agents
    ab = alphas_betas(spec)
    lam1, mu1 = _lambda_mu(a1, "x", 0, 0.0)
    lam2, mu2 = _lambda_mu(a2, "x", 1, 0.0)
    dlam1 = -1j * a1.rho_x[-1]
    dlam2 = 1j * a2.rho_x[1]
    dmu1 = 1j * ab.beta_x[0][2]
    dmu2 = 1j * ab.beta_x[1][2]
    return a1.g_x * a2.g_x * (
        dmu1 * mu2 + mu1 * dmu2 - dlam1 * lam2 - lam1 * dlam2
    )


def mode_roots(cp: CharPoly) -> ModeSpectrum:
    """Roots of one mode polynomial via the balanced companion matrix."""
    coeffs = cp.coeffs
    scale = float(np.abs(coeffs).max())
    if abs(coeffs[-1]) <= 1e-12 * max(scale, 1.0):
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {coeffs[-1]} too small at phi={cp.phi}"
        )
    roots = np.roots(coeffs[::-1])
    order = np.lexsort((-roots.imag, -roots.real))
    roots = roots[order]
    residuals = np.abs(npp.polyval(roots, coeffs))
    return ModeSpectrum(
        phi=cp.phi, eigenvalues=roots, residuals=residuals, coeff_scale=scale
    )


def spectrum_periodic(spec: FlockSpec, n: int) -> list[ModeSpectrum]:
    """Spectra of all n Fourier modes of the circle system."""
    if n < 3:
        raise SizeError(f"need n >= 3 cells per type, got {n}")
    return [mode_roots(char_poly(spec, 2.0 * np.pi * m / n)) for m in range(n)]


def classify(spectra: list[ModeSpectrum], tol: float = CLASSIFY_TOL) -> StabilityVerdict:
    """Classify the spectra of all n modes of a circle, in mode order.

    Stable demands exactly two zero roots over all modes, both at
    phi = 0, and every other eigenvalue strictly left of -tol; by the
    module-level argument that double zero has a one-dimensional
    eigenspace, so the rule is exact at every n.  Any eigenvalue right of
    +tol is Unstable; everything in between (extra eigenvalues stuck on
    the imaginary axis) is MarginallyUnstable.

    Modes m and n - m are complex conjugates, so the largest real part
    and its witness are taken over modes m <= n/2 only; otherwise
    roundoff would pick between the two.
    """
    n = len(spectra)
    zero_total = 0
    zeros_at_mode0 = 0
    max_re = -np.inf
    witness_phi = float("nan")
    witness = complex("nan")
    for m, ms in enumerate(spectra):
        small = np.abs(ms.eigenvalues) < ms.zero_threshold()
        zero_total += int(small.sum())
        if m == 0:
            zeros_at_mode0 = int(small.sum())
        others = ms.eigenvalues[~small]
        if 2 * m <= n and len(others):
            re = others.real.max()
            if re > max_re:
                max_re = re
                witness_phi = ms.phi
                witness = complex(others[others.real.argmax()])

    if max_re > tol:
        status = Stability.UNSTABLE
    elif zeros_at_mode0 == 2 and zero_total == 2 and max_re < -tol:
        status = Stability.STABLE
    else:
        status = Stability.MARGINALLY_UNSTABLE
    return StabilityVerdict(
        status=status,
        zero_multiplicity=zero_total,
        max_real_part=float(max_re),
        witness_phi=witness_phi,
        witness_eigenvalue=witness,
    )
