"""Mode polynomials, the circle spectrum, and stability classification.

On the circle the coupling blocks are circulant, so the system decomposes
into independent Fourier modes phi_m = 2*pi*m/n.  In mode phi the model's
stencil (see :mod:`flockstab.model`) reduces to a t x t matrix whose
(a, b) entry is the quadratic Lx + nu*Lv - nu^2*[a == b] in the eigenvalue
variable nu: Lx and Lv sum g * rho[j] * z^s, z = exp(i*phi), over the
offsets j that take type a to type b while shifting the cell by s.  Its
determinant is the mode polynomial Q(nu, phi) of degree d = 2t.  Every
weight is real, so Q has one small real Laurent array C[k, s] in nu and z
per spec, built once; the coefficients of any array of modes and the
phi-jet at phi = 0 are read off it.  The spectrum is one array-backed
:class:`Spectrum`, row m for mode phis[m], and :func:`mode_roots`, the
only root finder, fills it from a stack of companion matrices.

Linear stability means the only eigenvalue on the closed right half-plane
is the double zero at phi = 0 (the rigid in-formation motion) with a
one-dimensional eigenspace.  Every weight row sums to -1, so nu^2 divides
Q(nu, 0), and a_0 and a_1 are summed over z^s - 1, which makes that double
zero exact.  The Jordan chain from the all-ones vector accounts for those
two roots and every further kernel vector of Lx(0) adds at least one
more, so a mode-0 zero root of multiplicity exactly two certifies a
one-dimensional eigenspace.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conditions import D_func, check_tolerance
from .errors import DegenerateLeadingCoefficient, SizeError
from .model import Arrangement, FlockSpec, alphas_betas

CLASSIFY_TOL = 1e-9

_ZERO_EIGENVALUE_SCALE = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Roots of many modes: row m holds every root of the mode at phis[m].

    ``eigenvalues`` and ``residuals`` are (n, d), each row sorted by
    descending real part, then descending imaginary part; ``coeff_scale``
    is each row's largest coefficient magnitude.
    """

    phis: np.ndarray
    eigenvalues: np.ndarray
    residuals: np.ndarray
    coeff_scale: np.ndarray

    def __post_init__(self):
        for array in (self.phis, self.eigenvalues, self.residuals, self.coeff_scale):
            array.setflags(write=False)

    def zero_threshold(self) -> np.ndarray:
        """Per row, the modulus below which a root counts as zero."""
        d = self.eigenvalues.shape[1]
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


class ModePolynomial:
    """Q(nu, phi) = sum_k nu^k sum_s c[k, s] z^s with z = e^{i phi}.

    ``c`` is real, because every stencil weight is; its columns hold the
    z powers s = -S..S (``shifts``).
    """

    def __init__(self, c: np.ndarray):
        c.setflags(write=False)
        self.c = c
        self.shifts = np.arange(c.shape[1]) - c.shape[1] // 2

    def coeffs(self, phi) -> np.ndarray:
        """a_0..a_d of the mode at angle phi, along the last axis.

        phi may be a scalar or an array of angles; each row of the result
        is bit-equal to the scalar call at its angle.  Every weight row
        sums to -1, so a_0 and a_1 vanish at phi = 0; they are summed
        against z^s - 1 = 2i sin(s phi/2) e^{i s phi/2}, exactly zero at
        phi = 0 (whatever roundoff the row sums carry) and without the
        cancellation that z^s leaves as phi -> 0.
        """
        half = 0.5 * np.asarray(phi, dtype=float)[..., None] * self.shifts
        out = np.matmul(self.c, np.exp(2j * half)[..., None])[..., 0]
        rigid = 2j * np.sin(half) * np.exp(1j * half)
        out[..., :2] = np.matmul(self.c[:2], rigid[..., None])[..., 0]
        return out

    def jet(self, p: int) -> np.ndarray:
        """d^p a_k / d phi^p at phi = 0 for every k: i^p sum_s s^p c[k, s].

        ``jet(1)[0]`` is the slope a_0'(0) and ``jet(0)[2]`` is a_2(0).
        """
        return 1j ** p * (self.c * self.shifts ** p).sum(axis=1)


def mode_polynomial(spec: FlockSpec) -> ModePolynomial:
    """The spec's mode polynomial, by exact polynomial arithmetic on the stencil.

    Mode-matrix entry (a, b) is a polynomial in nu and z: each stencil
    term of type a that reaches type b in the cell shifted by s adds
    g * rho[j] z^s to its nu^0 (position) and nu^1 (velocity) coefficient,
    and the diagonal carries -nu^2.  Q is the determinant, summed over the
    t! permutations.  Substituting nu = x^w and z = x, with w wider than
    the z range of any product, makes each product one convolution in x.
    """
    t = spec.n_types
    # (offset j, cell shift s, target type b) of each stencil term: a + j = t*s + b
    terms = [[(j, *divmod(a + j, t)) for j in (0, *agent.rho_x)]
             for a, agent in enumerate(spec.agents)]
    reach = max(abs(s) for row in terms for _, s, _ in row)
    w = 2 * t * reach + 1
    m = np.zeros((t, t, 3, w))  # [a, b, nu power, z power + reach]
    for a, (agent, row) in enumerate(zip(spec.agents, terms)):
        m[a, a, 2, reach] = -1.0
        for j, s, b in row:
            m[a, b, 0, reach + s] += agent.g_x * agent.rho_x[j] if j else agent.g_x
            m[a, b, 1, reach + s] += agent.g_v * agent.rho_v[j] if j else agent.g_v
    c = np.zeros((2 * t + 1) * w)
    for perm in itertools.permutations(range(t)):
        term = functools.reduce(np.convolve, [m[a, b].ravel() for a, b in enumerate(perm)])
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        c += (-1) ** inversions * term[: len(c)]
    return ModePolynomial(c.reshape(2 * t + 1, w))


def char_poly(spec: FlockSpec, phi) -> np.ndarray:
    """Coefficients a_0..a_d of the mode polynomial at angle phi.

    One evaluation of :func:`mode_polynomial`, exact zeros a_0 and a_1 at
    phi = 0 included.  For an array of angles the Laurent array is built
    once, and each row is bit-equal to the scalar call at its angle.
    """
    return mode_polynomial(spec).coeffs(phi)


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


def mode_roots(phis, coeffs) -> Spectrum:
    """All roots of the polynomial a_0..a_d in each row of ``coeffs``, at phis.

    Each row gets what ``numpy.roots`` does, bit for bit, batched: k exact
    zero low coefficients give k exact zero roots, the rest are the
    eigenvalues of the degree-(d - k) companion matrix, backward-stable
    roots (Edelman & Murakami).  A scalar angle with one coefficient
    vector gives a one-row spectrum.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    scale = np.abs(coeffs).max(axis=1)
    bad = np.abs(coeffs[:, -1]) <= 1e-12 * np.maximum(scale, 1.0)
    if bad.any():
        m = int(np.argmax(bad))
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {coeffs[m, -1]} too small at phi={phis[m]}")
    d = coeffs.shape[1] - 1
    roots = np.zeros((len(coeffs), d), dtype=complex)
    low_zeros = np.argmax(coeffs != 0, axis=1)
    for k in set(low_zeros.tolist()) - {d}:  # k = d: a_d nu^d, only zeros
        rows = low_zeros == k
        p = coeffs[rows, k:][:, ::-1]
        companion = np.zeros((len(p), d - k, d - k), dtype=complex)
        companion[:, 1:, :-1] = np.eye(d - k - 1)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots[rows, : d - k] = np.linalg.eigvals(companion)
    order = np.lexsort((-roots.imag, -roots.real), axis=-1)
    roots = np.take_along_axis(roots, order, axis=-1)
    value = coeffs[:, -1:] + roots * 0  # Horner's rule, in numpy polyval's order
    for i in range(2, d + 2):
        value = coeffs[:, -i, None] + value * roots
    return Spectrum(phis, roots, np.abs(value), scale)


def spectrum_periodic(spec: FlockSpec, n: int) -> Spectrum:
    """Spectrum of all n Fourier modes of the circle system, in mode order."""
    if n < 3:
        raise SizeError(f"need n >= 3 cells per type, got {n}")
    phis = 2.0 * np.pi * np.arange(n) / n
    return mode_roots(phis, mode_polynomial(spec).coeffs(phis))


def classify(spectrum: Spectrum, tol: float = CLASSIFY_TOL) -> StabilityVerdict:
    """Classify the spectrum of all n modes of a circle, in mode order.

    Stable demands exactly two zero roots over all modes, both at
    phi = 0, and every other eigenvalue strictly left of -tol; by the
    module-level argument that double zero has a one-dimensional
    eigenspace, so the rule is exact at every n.  Any eigenvalue right of
    +tol is Unstable; everything in between (extra eigenvalues stuck on
    the imaginary axis) is MarginallyUnstable.

    Modes m and n - m are complex conjugates, so the largest real part
    and its witness are taken over modes m <= n/2 only; otherwise
    roundoff would pick between the two.  The witness is the first such
    root in mode order, then in root order.  A negative or non-finite tol
    raises :class:`InvalidTolerance`.
    """
    check_tolerance(tol)
    eigenvalues = spectrum.eigenvalues
    zero = np.abs(eigenvalues) < spectrum.zero_threshold()[:, None]
    zero_total = int(zero.sum())
    real = np.where(zero, -np.inf, eigenvalues.real)[: len(eigenvalues) // 2 + 1]
    m, j = np.unravel_index(np.argmax(real), real.shape)
    max_re = float(real[m, j])
    witness_phi, witness = float("nan"), complex("nan")
    if max_re > -np.inf:
        witness_phi, witness = float(spectrum.phis[m]), complex(eigenvalues[m, j])

    if max_re > tol:
        status = Stability.UNSTABLE
    elif zero[0].sum() == 2 and zero_total == 2 and max_re < -tol:
        status = Stability.STABLE
    else:
        status = Stability.MARGINALLY_UNSTABLE
    return StabilityVerdict(status, zero_total, max_re, witness_phi, witness)
