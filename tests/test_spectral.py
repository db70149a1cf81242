import dataclasses
import struct

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from scipy.optimize import linear_sum_assignment

import flockstab as fs
from flockstab import (
    Arrangement,
    DegenerateLeadingCoefficient,
    HypothesisViolated,
    InvalidTolerance,
    Stability,
    assemble_periodic,
    branch_curvature,
    build_spec,
    char_poly,
    classify,
    mode_roots,
    spectrum_periodic,
)
from flockstab import mode_polynomial
from flockstab.conditions import CONDITION_TOL
from conftest import (random_diatomic, random_spec, random_symmetric, random_triatomic,
                      zero_gain_spec)
from oracles import E_func, a0_constant_term, a0_derivative_at_zero, a2_a3_at_zero, alphas_betas


def _mode_matrix(spec, phi):
    """Independent per-mode matrix; entry (a, b) holds its nu-coefficients."""
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)

    def entry(agent, x, v, diagonal=False):
        return np.array([agent.g_x * x, agent.g_v * v, -1.0 if diagonal else 0.0])

    if spec.arrangement is Arrangement.TRIATOMIC_NN:
        a1, a2, a3 = spec.agents
        return [
            [entry(a1, 1.0, 1.0, True),
             entry(a1, a1.rho_x[1], a1.rho_v[1]),
             entry(a1, a1.rho_x[-1] * em, a1.rho_v[-1] * em)],
            [entry(a2, a2.rho_x[-1], a2.rho_v[-1]),
             entry(a2, 1.0, 1.0, True),
             entry(a2, a2.rho_x[1], a2.rho_v[1])],
            [entry(a3, a3.rho_x[1] * ep, a3.rho_v[1] * ep),
             entry(a3, a3.rho_x[-1], a3.rho_v[-1]),
             entry(a3, 1.0, 1.0, True)],
        ]
    a1, a2 = spec.agents
    lx1 = a1.rho_x[1] + a1.rho_x[-1] * em
    lv1 = a1.rho_v[1] + a1.rho_v[-1] * em
    lx2 = a2.rho_x[-1] + a2.rho_x[1] * ep
    lv2 = a2.rho_v[-1] + a2.rho_v[1] * ep
    mx1 = 1 + a1.rho_x[2] * ep + a1.rho_x[-2] * em
    mv1 = 1 + a1.rho_v[2] * ep + a1.rho_v[-2] * em
    mx2 = 1 + a2.rho_x[2] * ep + a2.rho_x[-2] * em
    mv2 = 1 + a2.rho_v[2] * ep + a2.rho_v[-2] * em
    return [
        [entry(a1, mx1, mv1, True), entry(a1, lx1, lv1)],
        [entry(a2, lx2, lv2), entry(a2, mx2, mv2, True)],
    ]


def _numeric_matrix(spec, nu, phi):
    """The per-mode matrix evaluated at a concrete nu."""
    return np.array([[npp.polyval(nu, e) for e in row] for row in _mode_matrix(spec, phi)])


# --- coefficients ------------------------------------------------------------

def test_char_poly_phi0_structure_triatomic(fig1):
    a = char_poly(fig1, 0.0)
    g_x = [a.g_x for a in fig1.agents]
    g_v = [a.g_v for a in fig1.agents]
    rx = [a.rho_x[1] for a in fig1.agents]
    rv = [a.rho_v[1] for a in fig1.agents]
    pairs = [(0, 1), (1, 2), (2, 0)]

    assert abs(a[0]) < 1e-14
    assert abs(a[1]) < 1e-14
    assert a[6] == -1.0
    # the determinant puts the velocity gains on nu^5 and the mixed
    # gain/pair-sum combination on nu^4
    assert a[5] == pytest.approx(sum(g_v), abs=1e-14)
    e_xx = sum(E_func(g_x[i], g_x[j], rx[i], rx[j]) for i, j in pairs)
    e_vv = sum(E_func(g_v[i], g_v[j], rv[i], rv[j]) for i, j in pairs)
    e_xv = sum(E_func(g_x[i], g_v[j], rx[i], rv[j])
               + E_func(g_v[i], g_x[j], rv[i], rx[j]) for i, j in pairs)
    assert a[2] == pytest.approx(-e_xx, abs=1e-13)
    assert a[3] == pytest.approx(-e_xv, abs=1e-13)
    assert a[4] == pytest.approx(sum(g_x) - e_vv, abs=1e-13)


def test_char_poly_phi0_structure_diatomic(fig3):
    a = char_poly(fig3, 0.0)
    ab = alphas_betas(fig3)
    g_x = [a.g_x for a in fig3.agents]
    g_v = [a.g_v for a in fig3.agents]
    assert abs(a[0]) < 1e-14
    assert abs(a[1]) < 1e-14
    assert a[4] == 1.0
    assert a[2] == pytest.approx(
        g_x[0] * ab.alpha_x[0][1] + g_x[1] * ab.alpha_x[1][1], abs=1e-14
    )
    assert a[2] == pytest.approx(0.9333333333333333, abs=1e-12)
    assert a[3] == pytest.approx(
        g_v[0] * ab.alpha_v[0][1] + g_v[1] * ab.alpha_v[1][1], abs=1e-14
    )


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_char_poly_matches_numeric_determinant(arrangement):
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = random_spec(rng, arrangement)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        nu = complex(rng.normal(), rng.normal())
        value = npp.polyval(nu, char_poly(spec, phi))
        direct = np.linalg.det(_numeric_matrix(spec, nu, phi))
        assert value == pytest.approx(direct, rel=1e-10, abs=1e-10)


def _npp_det(m):
    """Reference: first-row cofactor expansion with numpy.polynomial."""
    if len(m) == 1:
        return m[0][0]
    det = None
    for c, entry in enumerate(m[0]):
        term = npp.polymul(entry, _npp_det([row[:c] + row[c + 1:] for row in m[1:]]))
        det = term if c == 0 else (npp.polysub if c % 2 else npp.polyadd)(det, term)
    return det


#: coefficient error allowed against the cofactor oracle, relative to the
#: largest coefficient; observed at most 9.5e-16 on these cases, 1.1e-15
#: over 600 further random specs, 5.1e-16 over all modes of figures 1-3 at
#: n = 2000
ORACLE_RTOL = 1e-14


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_mode_coefficients_match_numpy_polynomial_determinant(arrangement, fig1, fig3):
    rng = np.random.default_rng(29)
    if arrangement is Arrangement.TRIATOMIC_NN:
        figure, zero_cross_v = fig1, {"1": 0.0, "-1": -1.0}
    else:
        figure, zero_cross_v = fig3, {"1": 0.0, "-1": 0.0, "2": -0.5, "-2": -0.5}
    # zero cross-type velocity weights leave trailing zeros the oracle trims
    doc = fs.model.spec_to_dict(figure)
    doc["agents"][0]["rho_v"] = zero_cross_v
    specs = [figure, fs.spec_from_dict(doc)]
    specs += [random_spec(rng, arrangement) for _ in range(10)]
    for spec in specs:
        for phi in (0.0, *rng.uniform(0.0, 2.0 * np.pi, 20)):
            oracle = np.zeros(2 * spec.n_types + 1, dtype=complex)
            det = _npp_det(_mode_matrix(spec, phi))
            oracle[: len(det)] = det
            error = np.abs(char_poly(spec, phi) - oracle).max()
            assert error <= ORACLE_RTOL * np.abs(oracle).max()


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_a0_cross_derivation(arrangement):
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec = random_spec(rng, arrangement)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        from_poly = char_poly(spec, phi)[0]
        closed = a0_constant_term(spec, phi)
        assert abs(from_poly - closed) <= 1e-10 * (1.0 + abs(closed))


def test_a0_vanishes_at_zero(fig1, fig3):
    # triatomic: e^{i0} - 1 kills both products outright
    assert a0_constant_term(fig1, 0.0) == 0.0
    # diatomic: mu mu - lambda lambda cancels through the constraint, so
    # only to roundoff
    assert abs(a0_constant_term(fig3, 0.0)) < 1e-14


def _half_weights():
    """Three identical types with unit gains and all weights -1/2."""
    return build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": -1.0, "g_v": -1.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )


def test_a0_symmetric_triatomic_closed_form():
    spec = _half_weights()
    # D(-1/2,-1/2,-1/2; phi) = (1 - cos phi)/4, so a0 = -(1 - cos phi)/4.
    for phi in np.linspace(0.0, 2.0 * np.pi, 9):
        expected = -(1.0 - np.cos(phi)) / 4.0
        assert a0_constant_term(spec, phi) == pytest.approx(expected, abs=1e-14)
        assert char_poly(spec, phi)[0] == pytest.approx(expected, abs=1e-13)


def test_a0_small_phi_accuracy():
    # a0 = -sin^2(phi/2)/2, which summing over z^s alone (not z^s - 1)
    # loses to cancellation as phi -> 0
    spec = _half_weights()
    for phi in (1e-3, 1e-5, 1e-7):
        expected = -np.sin(phi / 2.0) ** 2 / 2.0
        a0 = char_poly(spec, phi)[0]
        assert abs(a0 - expected) <= 1e-12 * abs(expected)


def test_a0_figure_three_at_pi_over_seven(fig3):
    phi = np.pi / 7.0
    assert a0_constant_term(fig3, phi) == pytest.approx(
        complex(char_poly(fig3, phi)[0]), rel=1e-12, abs=1e-14
    )


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_char_poly_rows_match_scalar_calls(arrangement, fig1, fig3):
    rng = np.random.default_rng(47)
    figure = fig1 if arrangement is Arrangement.TRIATOMIC_NN else fig3
    for spec in [figure] + [random_spec(rng, arrangement) for _ in range(5)]:
        phis = np.concatenate([[0.0, 1e-7], rng.uniform(0.0, 2.0 * np.pi, 30)])
        rows = char_poly(spec, phis)
        assert rows.shape == (len(phis), 2 * spec.n_types + 1)
        for phi, row in zip(phis, rows):
            assert row.tobytes() == char_poly(spec, phi).tobytes()


# --- roots -------------------------------------------------------------------

def test_mode_roots_factored_polynomial():
    # (nu^2)(nu^2 + 3 nu + 2) has roots 0, 0, -1, -2
    spectrum = mode_roots(0.0, np.array([0.0, 0.0, 2.0, 3.0, 1.0]))
    assert np.allclose(
        sorted(spectrum.eigenvalues[0].real), [-2.0, -1.0, 0.0, 0.0], atol=1e-12
    )
    assert np.abs(spectrum.eigenvalues.imag).max() < 1e-12
    assert spectrum.residuals.max() < 1e-8 * spectrum.coeff_scale[0]


def test_mode_roots_sorted_descending(fig1):
    roots = mode_roots(1.0, char_poly(fig1, 1.0)).eigenvalues[0]
    assert np.all(np.diff(roots.real) <= 1e-12)


def test_mode_roots_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        mode_roots(0.0, np.array([1.0, 2.0, 0.0]))


def test_figure_one_mode_zero_roots(fig1):
    spectrum = mode_roots(0.0, char_poly(fig1, 0.0))
    roots = spectrum.eigenvalues[0]
    zeros = np.abs(roots) < spectrum.zero_threshold()[0]
    assert zeros.sum() == 2
    assert np.all(roots[~zeros].real < 0.0)


def test_figure_one_first_mode_strictly_stable(fig1):
    phi = 2.0 * np.pi / 60.0
    assert np.all(mode_roots(phi, char_poly(fig1, phi)).eigenvalues.real < 0.0)


def _pairing_distance(spec, n):
    dense = np.linalg.eigvals(assemble_periodic(spec, n).entries)
    modal = spectrum_periodic(spec, n).eigenvalues.ravel()
    assert len(dense) == len(modal) == 2 * spec.n_types * n
    cost = np.abs(dense[:, None] - modal[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@pytest.mark.parametrize("n", [3, 48, 65])
def test_spectrum_rows_match_np_roots(n, fig1, fig2, fig3, fig3c):
    zero_gain = zero_gain_spec()
    phis = 2.0 * np.pi * np.arange(n) / n
    assert np.all(char_poly(zero_gain, phis)[:, 0] == 0)
    for spec in (fig1, fig2, fig3, fig3c, zero_gain):
        spectrum = spectrum_periodic(spec, n)
        assert spectrum.phis.tobytes() == phis.tobytes()
        for m, phi in enumerate(phis):
            coeffs = char_poly(spec, phi)
            roots = np.roots(coeffs[::-1])
            roots = roots[np.lexsort((-roots.imag, -roots.real))]
            if m <= n // 2:  # solved: bit-equal to np.roots
                residuals = np.abs(npp.polyval(roots, coeffs))
                assert spectrum.eigenvalues[m].tobytes() == roots.tobytes()
                assert spectrum.residuals[m].tobytes() == residuals.tobytes()
                assert spectrum.coeff_scale[m] == np.abs(coeffs).max()
                continue
            # filled: the re-sorted conjugate of row n - m, still np.roots to roundoff
            conj = np.array([complex(z.real, -z.imag or 0.0)  # a zero imag as +0.0
                             for z in spectrum.eigenvalues[n - m].tolist()])
            order = np.lexsort((-conj.imag, -conj.real))
            assert spectrum.eigenvalues[m].tobytes() == conj[order].tobytes()
            assert spectrum.residuals[m].tobytes() == spectrum.residuals[n - m][order].tobytes()
            assert spectrum.coeff_scale[m] == spectrum.coeff_scale[n - m]
            # as multisets: real parts equal to roundoff may sort either way
            cost = np.abs(spectrum.eigenvalues[m][:, None] - roots[None, :])
            assert cost[linear_sum_assignment(cost)].max() <= 1e-12
        zero = spectrum.eigenvalues == 0
        assert not np.signbit(spectrum.eigenvalues.imag[zero]).any()
    assert zero.sum() == n + 1  # zero gain: a_0 = 0 in every mode, a_1 = 0 at phi = 0


def test_spectrum_matches_dense_eigensolver(fig1, fig3):
    assert _pairing_distance(fig1, 3) < 1e-6
    assert _pairing_distance(fig3, 4) < 1e-6


def test_leading_coefficient_is_exactly_unit():
    rng = np.random.default_rng(19)
    for _ in range(10):
        assert char_poly(random_triatomic(rng), rng.uniform(0, 6))[-1] == -1.0
        assert char_poly(random_diatomic(rng), rng.uniform(0, 6))[-1] == 1.0


def test_spectrum_conjugate_closed():
    rng = np.random.default_rng(5)
    for maker in (random_triatomic, random_diatomic):
        spec = maker(rng)
        spectrum = spectrum_periodic(spec, 5)
        assert np.all(spectrum.residuals.max(axis=1) < 1e-8 * spectrum.coeff_scale)
        all_eigs = spectrum.eigenvalues.ravel()
        cost = np.abs(all_eigs[:, None] - np.conj(all_eigs)[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-8


def test_modes_m_and_n_minus_m_conjugate(fig1):
    for n in (7, 8):
        eigenvalues = spectrum_periodic(fig1, n).eigenvalues
        for m in set(range(1, n)) - {n / 2}:  # mode n/2 is its own partner, solved as is
            a = np.sort_complex(eigenvalues[m])
            b = np.sort_complex(np.conj(eigenvalues[n - m]))
            assert np.array_equal(a, b)


def _all_mode_roots(spec, n):
    """spectrum_periodic with the warm start off: every mode m <= n/2 by mode_roots."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fs.spectral, "_WARM_ROWS", float("inf"))
        return spectrum_periodic(spec, n)


@pytest.mark.parametrize("n", [200, 2000])
def test_warm_rows_match_np_roots(n, fig1, fig2, fig3, fig3c):
    # every root within 1e-13 of its row's largest; the worst seen on the
    # figures, 80 random and the 40 seeded sweep specs was 2.1e-14 at
    # n <= 2000, and 2.7e-14 on the figures and sweep specs at n = 40000
    rng = np.random.default_rng(35)
    specs = [random_spec(rng, arrangement) for arrangement in Arrangement for _ in range(6)]
    h = n // 2 + 1
    for spec in (fig1, fig2, fig3, fig3c, *specs):
        warm, cold = spectrum_periodic(spec, n), _all_mode_roots(spec, n)
        solved = np.r_[0:h:8, h - 1]  # by mode_roots
        assert warm.eigenvalues[solved].tobytes() == cold.eigenvalues[solved].tobytes()
        assert warm.coeff_scale.tobytes() == cold.coeff_scale.tobytes()
        got = warm.eigenvalues[:h]
        want = np.array([np.roots(c[::-1]) for c in mode_polynomial(spec).coeffs(warm.phis[:h])])
        distance = np.abs(got[:, :, None] - want[:, None, :])  # row, warm root, np.roots root
        # nearest root both ways: real parts equal to roundoff may sort either way
        worst = np.maximum(distance.min(axis=2).max(axis=1), distance.min(axis=1).max(axis=1))
        assert np.all(worst <= 1e-13 * np.abs(want).max(axis=1))
        assert np.all(warm.residuals <= 1e-12 * warm.coeff_scale[:, None])
        assert _verdict_tuple(classify(warm))[:2] == _verdict_tuple(classify(cold))[:2]


def _same_spectrum(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("phis", "eigenvalues", "residuals", "coeff_scale"))


@pytest.mark.parametrize("n", [126, 2000])
def test_warm_rows_that_all_fall_back_give_the_mode_roots_spectrum(monkeypatch, n, fig1, fig3):
    for spec in (fig1, fig3):
        cold = _all_mode_roots(spec, n)
        assert not _same_spectrum(spectrum_periodic(spec, n), cold)
        with monkeypatch.context() as patch:
            patch.setattr(fs.spectral, "_STEPS", 0)  # no step: no row has converged
            assert _same_spectrum(spectrum_periodic(spec, n), cold)
    # a_0 = 0 in every mode: each row's exact zero root comes from mode_roots
    zero_gain = zero_gain_spec()
    assert _same_spectrum(spectrum_periodic(zero_gain, n), _all_mode_roots(zero_gain, n))


def test_small_spectra_never_take_the_warm_path(monkeypatch, fig1, fig3):
    def warm(phis, coeffs):
        raise _Solved

    monkeypatch.setattr(fs.spectral, "_warm_mode_roots", warm)
    for n in range(3, 126):  # fewer than 64 modes m <= n/2
        for spec in (fig1, fig3):
            spectrum_periodic(spec, n)
    with pytest.raises(_Solved):
        spectrum_periodic(fig1, 126)


# --- classification ----------------------------------------------------------

def _dense_nullity(spec, n):
    """Kernel dimension of the dense circle matrix (numerical rank via SVD)."""
    m = assemble_periodic(spec, n).entries
    sigma = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sigma <= sigma[0] * m.shape[0] * np.finfo(float).eps))


def _shift_first_weight(spec, eps):
    """The spec with type 1's rho_x[1] moved by eps (within CONSTRAINT_TOL)."""
    first = spec.agents[0]
    first = dataclasses.replace(first, rho_x={**first.rho_x, 1: first.rho_x[1] + eps})
    return build_spec(spec.arrangement, (first, *spec.agents[1:]))


def test_classify_figure_one_stable(fig1):
    verdict = classify(spectrum_periodic(fig1, 60))
    assert verdict.status is Stability.STABLE
    assert verdict.zero_multiplicity == 2
    assert _dense_nullity(fig1, 60) == 1
    assert verdict.max_real_part < -1e-9


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_stable_verdict_implies_one_dimensional_kernel(arrangement):
    rng = np.random.default_rng(37)
    specs = [random_spec(rng, arrangement) for _ in range(15)]
    specs += [random_symmetric(rng, arrangement) for _ in range(5)]
    stable = 0
    for spec in specs:
        for n in (3, 8, 12):
            if classify(spectrum_periodic(spec, n)).status is Stability.STABLE:
                stable += 1
                assert _dense_nullity(spec, n) == 1
    assert stable > 0


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig3c"])
def test_classify_same_rule_at_every_size(figure, request):
    spec = request.getfixturevalue(figure)
    verdicts = [classify(spectrum_periodic(spec, n)) for n in (48, 64, 65, 2000)]
    assert len({v.status for v in verdicts}) == 1
    assert {v.zero_multiplicity for v in verdicts} == {2}


@pytest.mark.parametrize("eps", [1e-15, 1e-14, 1e-13])
@pytest.mark.parametrize("figure", ["fig1", "fig3"])
def test_constraint_roundoff_keeps_exact_double_zero(figure, eps, request):
    spec = _shift_first_weight(request.getfixturevalue(figure), eps)
    spectrum = spectrum_periodic(spec, 60)
    assert classify(spectrum).status is Stability.STABLE
    assert np.count_nonzero(spectrum.eigenvalues[0] == 0j) == 2


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_witness_from_lower_half_of_modes(arrangement):
    rng = np.random.default_rng(41)
    for _ in range(10):
        spec = random_spec(rng, arrangement)
        for n in (7, 48):
            assert classify(spectrum_periodic(spec, n)).witness.phi <= np.pi


def _classify_per_mode(spectrum, tol=fs.spectral.CLASSIFY_TOL):
    """The per-mode loop that classify replaced, as a reference."""
    n = len(spectrum.phis)
    zero_total = 0
    zeros_at_mode0 = 0
    max_re = -np.inf
    witness_phi = float("nan")
    witness = complex(np.nan, np.nan)
    for m in range(n):
        eigenvalues = spectrum.eigenvalues[m]
        scale = float(spectrum.coeff_scale[m])
        threshold = 1e-8 * (1.0 + scale ** (1.0 / len(eigenvalues)))
        small = np.abs(eigenvalues) < threshold
        zero_total += int(small.sum())
        if m == 0:
            zeros_at_mode0 = int(small.sum())
        others = eigenvalues[~small]
        if 2 * m <= n and len(others):
            re = others.real.max()
            if re > max_re:
                max_re = re
                witness_phi = float(spectrum.phis[m])
                witness = complex(others[others.real.argmax()])
    if max_re > tol:
        status = Stability.UNSTABLE
    elif zeros_at_mode0 == 2 and zero_total == 2 and max_re < -tol:
        status = Stability.STABLE
    else:
        status = Stability.MARGINALLY_UNSTABLE
    return status, zero_total, float(max_re), witness_phi, witness


def _verdict_tuple(verdict):
    return (verdict.status, verdict.zero_multiplicity, verdict.max_real_part,
            verdict.witness.phi, complex(verdict.witness.re, verdict.witness.im))


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_classify_matches_per_mode_loop(arrangement):
    rng = np.random.default_rng(59)
    specs = [random_spec(rng, arrangement) for _ in range(20)]
    statuses = set()
    for spec in specs:
        for n in (3, 8, 48, 65):
            spectrum = spectrum_periodic(spec, n)
            got = _verdict_tuple(classify(spectrum))
            # repr tells NaN and signed zeros apart, and equal NaNs match
            assert repr(got) == repr(_classify_per_mode(spectrum))
            statuses.add(got[0])
    assert statuses == {Stability.STABLE, Stability.UNSTABLE}


def _spectrum(eigenvalues):
    """A Spectrum with the given rows at phi_m = 2 pi m / n."""
    eigenvalues = np.array(eigenvalues, dtype=complex)
    n = len(eigenvalues)
    return fs.Spectrum(phis=2.0 * np.pi * np.arange(n) / n, eigenvalues=eigenvalues,
                       residuals=np.zeros(eigenvalues.shape), coeff_scale=np.ones(n))


def test_classify_matches_per_mode_loop_on_ties_and_zero_roots():
    # exact ties within and across modes: the first in mode order wins
    tied = _spectrum([[0, 0, -1 + 1j, -1 - 1j],
                      [-0.5 + 2j, -0.5 - 2j, -3, -4],
                      [-0.5 + 1j, -0.5 - 1j, -3, -4],
                      [-0.5 + 3j, -0.5 - 3j, -3, -4]])
    # every root exactly zero: no witness, max real part -inf
    all_zero = mode_roots(np.arange(4.0), np.tile([0.0, 0.0, 1.0], (4, 1)))
    for spectrum in (tied, all_zero, spectrum_periodic(zero_gain_spec(), 12)):
        got = _verdict_tuple(classify(spectrum))
        assert repr(got) == repr(_classify_per_mode(spectrum))
    assert (classify(tied).witness.re, classify(tied).witness.im) == (-0.5, 2.0)
    assert classify(tied).status is Stability.STABLE
    verdict = classify(all_zero)
    assert verdict.status is Stability.MARGINALLY_UNSTABLE
    assert verdict.max_real_part == -np.inf and np.isnan(verdict.witness.phi)


class _Solved(Exception):
    pass


@pytest.mark.parametrize(
    "figure, n, message",
    [("fig1", 2236962, None),
     ("fig1", 2236963, r"2236963 modes of 6 roots take 2147484480 bytes, "
                       r"over the budget of 2147483648 bytes"),
     ("fig3", 3355443, None),
     ("fig3", 3355444, r"3355444 modes of 4 roots take 2147484160 bytes, "
                       r"over the budget of 2147483648 bytes")],
)
def test_spectrum_periodic_budget(request, monkeypatch, figure, n, message):
    # about 160 bytes per root, CSV included; refused before the mode polynomial
    spec = request.getfixturevalue(figure)

    def solved(*args):
        raise _Solved

    monkeypatch.setattr(fs.spectral, "mode_polynomial", solved)
    with pytest.raises(_Solved if message is None else ValueError,
                       match=None if message is None else f"^{message}$"):
        spectrum_periodic(spec, n)


@pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf")])
def test_classify_rejects_bad_tolerance(tol, fig1):
    with pytest.raises(InvalidTolerance):
        classify(spectrum_periodic(fig1, 12), tol=tol)


def test_classify_figure_two_not_stable(fig2):
    # frozen from the computed spectrum: the small modes cross the axis
    verdict = classify(spectrum_periodic(fig2, 60))
    assert verdict.status is Stability.UNSTABLE
    assert verdict.max_real_part > 1e-3


def test_classify_zero_gain_marginal():
    n = 12
    verdict = classify(spectrum_periodic(zero_gain_spec(), n))
    assert verdict.status is Stability.MARGINALLY_UNSTABLE
    assert verdict.zero_multiplicity >= n


# --- a0 derivative -----------------------------------------------------------

@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_jet_matches_closed_forms(arrangement, fig1, fig2, fig3, fig3c):
    rng = np.random.default_rng(43)
    figures = [f for f in (fig1, fig2, fig3, fig3c) if f.arrangement is arrangement]
    for spec in figures + [random_spec(rng, arrangement) for _ in range(25)]:
        q = mode_polynomial(spec)
        slope = a0_derivative_at_zero(spec)
        a2 = a2_a3_at_zero(spec)[0]
        assert abs(q.jet(1)[0] - slope) <= 1e-13 * (1.0 + abs(slope))
        assert abs(q.jet(0)[2] - a2) <= 1e-13 * (1.0 + abs(a2))


def _bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _jet_specs(fig1, fig2, fig3, fig3c):
    rng = np.random.default_rng(59)
    return [fig1, fig2, fig3, fig3c] + [random_spec(rng, arrangement)
                                        for _ in range(100) for arrangement in Arrangement]


def test_jet_bit_equal_to_single_row_sums(fig1, fig2, fig3, fig3c):
    # the formulas jet(1)[0] and jet(0)[2] replace, written out here
    for spec in _jet_specs(fig1, fig2, fig3, fig3c):
        q = mode_polynomial(spec)
        assert _bits(q.jet(1)[0]) == _bits(1j * float(q.c[0] @ q.shifts))
        assert _bits(q.jet(0)[2]) == _bits(float(q.c[2].sum()))


def test_jet_matches_central_differences(fig1, fig2, fig3, fig3c):
    h = 1e-3
    for spec in _jet_specs(fig1, fig2, fig3, fig3c)[:24]:
        q = mode_polynomial(spec)
        lo, mid, hi = q.coeffs(np.array([-h, 0.0, h]))
        tol = 1e-7 * np.abs(q.c).sum()
        assert np.abs(q.jet(0) - mid).max() <= 1e-13 * np.abs(q.c).sum()
        assert np.abs(q.jet(1) - (hi - lo) / (2.0 * h)).max() <= tol
        assert np.abs(q.jet(2) - (hi - 2.0 * mid + lo) / h**2).max() <= tol


def test_branch_curvature_bit_equal_to_single_row_sums(fig1, fig2, fig3, fig3c):
    for spec in _jet_specs(fig1, fig2, fig3, fig3c):
        q = mode_polynomial(spec)
        a2, a0p = float(q.c[2].sum()), 1j * float(q.c[0] @ q.shifts)
        if min(abs(a2), abs(a0p)) <= CONDITION_TOL:
            with pytest.raises(HypothesisViolated):
                branch_curvature(spec)
        else:
            assert _bits(branch_curvature(spec)) == _bits(-a0p / a2)


def test_branch_curvature_refuses_manifold_figures(fig1, fig3):
    for spec in (fig1, fig3):
        with pytest.raises(HypothesisViolated):
            branch_curvature(spec)


def test_a0_derivative_figure_values(fig1, fig2):
    assert abs(a0_derivative_at_zero(fig1)) < 1e-9
    val = a0_derivative_at_zero(fig2)
    assert val.real == pytest.approx(0.0, abs=1e-15)
    assert val.imag == pytest.approx(-0.024, abs=1e-12)


def test_a0_derivative_symmetric_is_zero():
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": -1.5, "g_v": -1.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.3, "-1": -0.7}}] * 3,
    )
    assert abs(a0_derivative_at_zero(spec)) < 1e-15


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_a0_derivative_matches_finite_difference(arrangement):
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(25):
        spec = random_spec(rng, arrangement)
        closed = a0_derivative_at_zero(spec)
        fd = (a0_constant_term(spec, h) - a0_constant_term(spec, -h)) / (2.0 * h)
        assert abs(closed - fd) <= 1e-6 * max(abs(closed), abs(fd)) + 1e-12
