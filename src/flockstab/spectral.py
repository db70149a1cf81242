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
phi-jet at phi = 0 are read off it, and the same construction on the
stencil's magnitudes sizes every jet value for the one roundoff rule
that ``check`` and ``rootcurves`` share.  No arrangement has a formula
of its own here: the paper's closed forms for a_0, a_0'(0), a_2(0) and
a_3(0) live in the test suite (``tests/oracles.py``) as independent
checks of this one construction.  The spectrum is one array-backed
:class:`Spectrum`, row m for mode phis[m].  Modes m <= n/2 are solved
and the rows above them are their conjugates.  :func:`mode_roots` solves
modes from a stack of companion matrices, as ``numpy.roots`` does; a
spectrum of 64 or more solved modes solves only every 8th that way and
polishes the rest from their neighbours by Aberth-Ehrlich steps (Aberth,
"Iteration methods for finding all zeros of a polynomial
simultaneously"; Bini, "Numerical computation of polynomial zeros by
means of Aberth's method").

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
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateLeadingCoefficient, InvalidTolerance, SizeError
from .model import FlockSpec, _stencil, check_budget

CLASSIFY_TOL = 1e-9

_ZERO_EIGENVALUE_SCALE = 1e-8

#: ulps of its size within which a jet value is roundoff, and within which
#: a polished root's last step must stay
_ULPS = 8

#: bytes per root the spectrum command holds at its peak, its verdict and CSV
#: included: 114 B for three types and 118 B for two at n = 2e4, 114 B and
#: 116 B at n = 1e5, under tracemalloc, which does not see LAPACK's workspace
_BYTES_PER_ROOT = 160

#: a spectrum of at least _WARM_ROWS solved modes solves every _COARSE-th
#: by companion matrix and polishes the rest by _STEPS Aberth-Ehrlich steps
_WARM_ROWS, _COARSE, _STEPS = 64, 8, 4


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
class Witness:
    """The root re + i im, at angle phi, that decides the largest real part."""

    phi: float
    re: float
    im: float


@dataclass(frozen=True)
class StabilityVerdict:
    status: Stability
    zero_multiplicity: int
    max_real_part: float
    witness: Witness


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that would turn a verdict into a wrong answer."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidTolerance(f"tolerance must be finite and non-negative, got {tol}")


def _vanishes(value: float, size: float, tol: float) -> bool:
    """value <= max(tol, a few ulps of size), the rule of ``check`` and ``rootcurves``.

    size is :meth:`ModePolynomial.jet_size`, so a jet value that vanishes
    in exact arithmetic stays within a few ulps of it.
    """
    return value <= max(tol, _ULPS * math.ulp(size))


class ModePolynomial:
    """Q(nu, phi) = sum_k nu^k sum_s c[k, s] z^s with z = e^{i phi}.

    ``c`` is real, because every stencil weight is; its columns hold the
    z powers s = -S..S (``shifts``).  ``size`` is the same construction
    on the stencil's magnitudes, so |c[k, s]| <= size[k, s], and c's
    roundoff is a few ulps of it.
    """

    def __init__(self, c: np.ndarray, size: np.ndarray):
        c.setflags(write=False)
        size.setflags(write=False)
        self.c = c
        self.size = size
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

    def jet_size(self, p: int) -> np.ndarray:
        """The size of each ``jet(p)`` value: sum_s |s|^p size[k, s]."""
        return (self.size * np.abs(self.shifts) ** p).sum(axis=1)


def mode_polynomial(spec: FlockSpec) -> ModePolynomial:
    """The spec's mode polynomial, by exact polynomial arithmetic on the stencil.

    Mode-matrix entry (a, b) is a polynomial in nu and z: each term of the
    circle's first cell, vehicle a < t reaching vehicle t*s + b, adds its
    weight times z^s to the nu^0 (position) or nu^1 (velocity) coefficient,
    and the diagonal carries -nu^2.  Q is the determinant, summed over the
    t! permutations.  Substituting nu = x^w and z = x, with w wider than
    the z range of any product, makes each product one convolution in x.
    The same convolutions on |m| give ``size``: offset j is fixed by
    (a, b, s), so each entry of m is one stencil term.
    """
    t = spec.n_types
    k, kind, c, gw = _stencil(spec, 3)
    cell = k < t
    k, kind, (s, b), gw = k[cell], kind[cell], np.divmod(c[cell], t), gw[cell]
    reach = int(np.abs(s).max())
    w = 2 * t * reach + 1
    m = np.zeros((t, t, 3, w))  # [a, b, nu power, z power + reach]
    m[np.arange(t), np.arange(t), 2, reach] = -1.0
    m[k, b, kind, reach + s] += gw
    magnitude = np.abs(m)
    c = np.zeros((2 * t + 1) * w)
    size = np.zeros(len(c))
    for perm in itertools.permutations(range(t)):
        term = functools.reduce(np.convolve, [m[a, b].ravel() for a, b in enumerate(perm)])
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        c += (-1) ** inversions * term[: len(c)]
        size += functools.reduce(
            np.convolve, [magnitude[a, b].ravel() for a, b in enumerate(perm)])[: len(c)]
    return ModePolynomial(c.reshape(2 * t + 1, w), size.reshape(2 * t + 1, w))


def char_poly(spec: FlockSpec, phi) -> np.ndarray:
    """Coefficients a_0..a_d of the mode polynomial at angle phi.

    ``mode_polynomial(spec).coeffs(phi)``, which every program path calls
    directly; this wrapper stays only because the benchmark traces it by
    name.
    """
    return mode_polynomial(spec).coeffs(phi)


def mode_roots(phis, coeffs) -> Spectrum:
    """All roots of the polynomial a_0..a_d in each row of ``coeffs``, at phis.

    Each row gets what ``numpy.roots`` does, bit for bit, batched: k exact
    zero low coefficients give k exact zero roots, the rest are the
    eigenvalues of the degree-(d - k) companion matrix, backward-stable
    roots (Edelman & Murakami).  A scalar angle with one coefficient
    vector gives a one-row spectrum.  :class:`DegenerateLeadingCoefficient`
    can fire only for coefficients passed in by hand: every mode polynomial
    has a_d = (-1)^t exactly.
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
    return _sorted_spectrum(phis, coeffs, roots)


def _sorted_spectrum(phis, coeffs, roots) -> Spectrum:
    """The spectrum of each row's roots, sorted, with Horner residuals."""
    order = np.lexsort((-roots.imag, -roots.real), axis=-1)
    roots = np.take_along_axis(roots, order, axis=-1)
    value = coeffs[:, -1:] + roots * 0  # Horner's rule, in numpy polyval's order
    for i in range(2, coeffs.shape[1] + 1):
        value = coeffs[:, -i, None] + value * roots
    return Spectrum(phis, roots, np.abs(value), np.abs(coeffs).max(axis=1))


def _warm_mode_roots(phis, coeffs) -> Spectrum:
    """:func:`mode_roots` with every _COARSE-th row and the last solved by
    it, and every other row polished from its nearest such row's roots.

    The polish is _STEPS Aberth-Ehrlich steps on all those rows at once:
    z_i -= N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i = p(z_i) / p'(z_i).
    A row whose last step moved some root by more than _ULPS ulps of it,
    or that has a_0 = 0 (exact zero roots), goes back to :func:`mode_roots`.
    Neighbouring modes have nearly equal roots, so 4 steps converge on all
    but a few rows; below 64 rows the share that falls back (18% at 32)
    costs more than the steps save.
    """
    h, d = len(coeffs), coeffs.shape[1] - 1
    rows = np.arange(h)
    solved = (rows % _COARSE == 0) | (rows == h - 1)
    roots = np.empty((h, d), dtype=complex)
    roots[solved] = mode_roots(phis[solved], coeffs[solved]).eigenvalues
    warm = rows[~solved]
    a, z = coeffs[warm], roots[np.minimum((warm + _COARSE // 2) // _COARSE * _COARSE, h - 1)]
    step = np.full(z.shape, np.inf)
    with np.errstate(all="ignore"):  # a repeated starting root gives nan: the row falls back
        for _ in range(_STEPS):
            p, dp = a[:, -1:] + 0 * z, 0 * z
            for k in range(d - 1, -1, -1):  # p and p' by one Horner pass
                dp = dp * z + p
                p = p * z + a[:, k, None]
            repel = np.zeros(z.shape, dtype=complex)
            for j in range(d):
                inverse = 1 / (z - z[:, j, None])
                inverse[:, j] = 0
                repel += inverse
            newton = p / dp
            step = newton / (1 - newton * repel)
            z = z - step
    roots[warm] = z
    converged = (np.abs(step) <= _ULPS * np.spacing(np.abs(z))).all(axis=1)
    redo = warm[~converged | (a[:, 0] == 0)]
    roots[redo] = mode_roots(phis[redo], coeffs[redo]).eigenvalues
    return _sorted_spectrum(phis, coeffs, roots)


def spectrum_periodic(spec: FlockSpec, n: int) -> Spectrum:
    """Spectrum of all n Fourier modes of the circle system, in mode order.

    Every weight is real, so mode n - m is the complex conjugate of mode
    m.  Modes 0..n//2 are solved: by one :func:`mode_roots` call when
    they are fewer than _WARM_ROWS, and otherwise by
    :func:`_warm_mode_roots`, whose polished rows agree with
    ``numpy.roots`` to roundoff, not to the bit.  Each row n - m above
    them holds the conjugates of row m, re-sorted by the same rule, with
    row m's residuals and coefficient scale, so modes m and n - m are
    exact conjugates.  An exact zero root keeps a +0.0 imaginary part in
    both rows.  An n over the 2 GiB budget (about 2.2e6 for three types)
    raises ``ValueError`` before anything is allocated.
    """
    if n < 3:
        raise SizeError(f"need n >= 3 cells per type, got {n}")
    d = 2 * spec.n_types
    check_budget(f"{n} modes of {d} roots", n * d * _BYTES_PER_ROOT)
    phis = 2.0 * np.pi * np.arange(n) / n
    h = n // 2 + 1
    coeffs = mode_polynomial(spec).coeffs(phis[:h])
    half = (mode_roots if h < _WARM_ROWS else _warm_mode_roots)(phis[:h], coeffs)
    eigenvalues = np.empty((n, half.eigenvalues.shape[1]), dtype=complex)
    residuals = np.empty(eigenvalues.shape)
    coeff_scale = np.empty(n)
    eigenvalues[:h], residuals[:h], coeff_scale[:h] = (
        half.eigenvalues, half.residuals, half.coeff_scale)
    lower, upper = slice(1, n - h + 1), slice(n - 1, h - 1, -1)  # rows m and n - m
    conj = np.conj(eigenvalues[lower])
    conj.imag += 0.0  # conj(0j) has imaginary part -0.0
    order = np.lexsort((-conj.imag, -conj.real), axis=-1)
    eigenvalues[upper] = np.take_along_axis(conj, order, axis=-1)
    residuals[upper] = np.take_along_axis(residuals[lower], order, axis=-1)
    coeff_scale[upper] = coeff_scale[lower]
    return Spectrum(phis, eigenvalues, residuals, coeff_scale)


def classify(spectrum: Spectrum, tol: float = CLASSIFY_TOL) -> StabilityVerdict:
    """Classify the spectrum of all n modes of a circle, in mode order.

    Stable demands exactly two zero roots over all modes, both at
    phi = 0, and every other eigenvalue strictly left of -tol; by the
    module-level argument that double zero has a one-dimensional
    eigenspace, so the rule is exact at every n.  Any eigenvalue right of
    +tol is Unstable; everything in between (extra eigenvalues stuck on
    the imaginary axis) is MarginallyUnstable.

    Modes m and n - m are complex conjugates (to the bit in a spectrum
    from :func:`spectrum_periodic`), so the largest real part and its
    witness are taken over modes m <= n/2 only: of a conjugate pair, the
    witness is always the lower mode.  It is the first such root in mode
    order, then in root order.  A negative or non-finite tol
    raises :class:`InvalidTolerance`.
    """
    check_tolerance(tol)
    eigenvalues = spectrum.eigenvalues
    zero = np.abs(eigenvalues) < spectrum.zero_threshold()[:, None]
    zero_total = int(zero.sum())
    real = np.where(zero, -np.inf, eigenvalues.real)[: len(eigenvalues) // 2 + 1]
    m, j = np.unravel_index(np.argmax(real), real.shape)
    max_re = float(real[m, j])
    phi, root = float("nan"), complex(np.nan, np.nan)  # no nonzero root: a nan witness
    if max_re > -np.inf:
        phi, root = float(spectrum.phis[m]), complex(eigenvalues[m, j])

    if max_re > tol:
        status = Stability.UNSTABLE
    elif zero[0].sum() == 2 and zero_total == 2 and max_re < -tol:
        status = Stability.STABLE
    else:
        status = Stability.MARGINALLY_UNSTABLE
    return StabilityVerdict(status, zero_total, max_re, Witness(phi, root.real, root.imag))
