"""One flock written two ways must give one answer.

A one-type flock with weights at offsets +-1 is both a three-type spec of
three identical agents and a two-type spec of two identical agents with
rho at +-2 zero (see ``conftest.one_type_spellings``).  With 3 n = 2 n'
cells per type they are the same vehicles in the same line order, so the
line runs must agree to the bit and the circle spectra as multisets.

The circle has two more symmetries.  Read backwards, it is the flock whose
weights are mirrored (offset j to -j) and whose type order is reversed
(type a to -a mod t); rotated by one vehicle, it is the flock whose types
are relabelled cyclically.  Either way the spectrum is the same multiset
and ``check`` and ``classify`` give the same verdicts.  The line has no
such symmetry: its leader is at one end.

A flock whose gains are g_x / s^2 and g_v / s is the same flock with its
clock rescaled: every eigenvalue nu becomes nu / s, so the circle's
stability cannot change, and neither can the zero roots, which are exact.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from flockstab import (AgentParams, Arrangement, BlowUp, BoundaryCondition, build_spec, classify,
                       conditions, mode_polynomial, simulate, spectrum_periodic, tangency_report,
                       track_branches)
from flockstab.figures import figure1, figure2, figure3, figure3c
from flockstab.spectral import _vanishes
from conftest import (alpha_roundoff_spec, one_type_spellings, random_spec, random_symmetric,
                      zero_gain_spec)
from oracles import alphas_betas

#: largest distance of a paired eigenvalue: 6.6e-13 was the worst over
#: 400 draws (seeds 1 and 5) at 12, 60 and 600 vehicles
_PAIRING_BOUND = 1e-12

#: the same for the circle's reflection and relabelling: 2.2e-14 was the
#: worst over 1200 draws of both arrangements at 12, 24 and 60 cells per
#: type, 120 at 200 and 16 at 2000
_SYMMETRY_BOUND = 1e-13


def _paired_distance(a, b):
    """The largest distance between paired roots of two spectra, paired so
    that this distance is least."""
    x, y = a.eigenvalues.ravel(), b.eigenvalues.ravel()
    cost = np.abs(x[:, None] - y[None, :])
    return cost[linear_sum_assignment(cost)].max()


def _run_or_blowup(spec, n, bc):
    try:
        return simulate(spec, n, bc, 60.0)
    except BlowUp as blow:
        return blow


@pytest.mark.parametrize("bc", [BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II])
@pytest.mark.parametrize("draw", range(24))
def test_line_run_does_not_depend_on_the_spelling(draw, bc):
    three, two = one_type_spellings(np.random.default_rng([14, draw]))
    a, b = _run_or_blowup(three, 10, bc), _run_or_blowup(two, 15, bc)
    assert type(a) is type(b)
    if isinstance(a, BlowUp):
        assert (a.time, a.norm) == (b.time, b.norm)
        return
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert ((a.peak_deviation, a.peak_time, a.peak_agent)
            == (b.peak_deviation, b.peak_time, b.peak_agent))


@pytest.mark.parametrize("vehicles", [12, 60, 600])
def test_circle_does_not_depend_on_the_spelling(vehicles):
    rng = np.random.default_rng(14)
    for draw in range(24):
        three, two = one_type_spellings(rng, symmetric=draw % 2 == 0)
        a = spectrum_periodic(three, vehicles // 3)
        b = spectrum_periodic(two, vehicles // 2)
        assert _paired_distance(a, b) <= _PAIRING_BOUND, draw
        assert classify(a).status == classify(b).status, draw
        assert conditions(three).overall == conditions(two).overall, draw


def test_clause_iii_fires_exactly_when_the_one_type_moment_does_not_vanish():
    # three identical agents of first moment b: b + b + b + b^3 = b (3 + b^2)
    rng = np.random.default_rng(14)
    for draw in range(24):
        three, _ = one_type_spellings(rng, symmetric=draw % 2 == 0)
        rho = three.agents[0].rho_x
        assert conditions(three).verdicts["iii"] == (rho[1] - rho[-1] != 0.0), draw


def _mirrored(agent):
    """The agent with its weight at offset j moved to offset -j."""
    return AgentParams(agent.g_x, agent.g_v, {-j: w for j, w in agent.rho_x.items()},
                       {-j: w for j, w in agent.rho_v.items()})


def _reflected(spec):
    """The flock read the other way round the circle: type a becomes type
    -a mod t, and its weights are mirrored."""
    t = spec.n_types
    return build_spec(spec.arrangement, [_mirrored(spec.agents[-k % t]) for k in range(t)])


def _relabelled(spec):
    """The flock rotated by one vehicle: type a becomes type a - 1 mod t."""
    t = spec.n_types
    return build_spec(spec.arrangement, [spec.agents[(k + 1) % t] for k in range(t)])


@pytest.mark.parametrize("relation", [_reflected, _relabelled])
@pytest.mark.parametrize("arrangement", list(Arrangement))
@pytest.mark.parametrize("n, draws", [(24, 24), (200, 6)])
def test_circle_is_symmetric_under_reflection_and_relabelling(relation, arrangement, n, draws):
    # n = 200 polishes most modes from their neighbours; n = 24 solves all
    rng = np.random.default_rng([14, n])
    for draw in range(draws):
        spec = random_spec(rng, arrangement)
        other = relation(spec)
        a, b = spectrum_periodic(spec, n), spectrum_periodic(other, n)
        assert _paired_distance(a, b) <= _SYMMETRY_BOUND, draw
        assert classify(a).status == classify(b).status, draw
        assert conditions(spec).verdicts == conditions(other).verdicts, draw
        assert conditions(spec).overall == conditions(other).overall, draw


def test_mirrored_weights_alone_are_not_a_symmetry_of_three_types():
    # the reflection must reverse the type order too: without it the spectrum
    # moves by far more than roundoff, though check cannot tell
    spec = random_spec(np.random.default_rng(14), Arrangement.TRIATOMIC_NN)
    mirrored = build_spec(spec.arrangement, list(map(_mirrored, spec.agents)))
    n = 24
    assert _paired_distance(spectrum_periodic(spec, n), spectrum_periodic(mirrored, n)) > 1e-3
    assert _paired_distance(spectrum_periodic(spec, n),
                            spectrum_periodic(_reflected(spec), n)) <= _SYMMETRY_BOUND


def _in_time_units(spec, s):
    """The spec with gains g_x / s^2 and g_v / s: its eigenvalues divided by s."""
    return build_spec(spec.arrangement, [
        AgentParams(a.g_x / s**2, a.g_v / s, dict(a.rho_x), dict(a.rho_v)) for a in spec.agents])


_SCALES = (1e-2, 1e-4, 1e-6, 2.0**-30, 1e-12)


def _unit_specs():
    rng = np.random.default_rng(71)
    specs = [figure1(), figure2(), figure3(), figure3c(), alpha_roundoff_spec(), zero_gain_spec()]
    for arrangement in Arrangement:
        specs += [random_spec(rng, arrangement) for _ in range(4)]
        specs += [random_symmetric(rng, arrangement) for _ in range(2)]
    return specs


@pytest.mark.parametrize("n", [48, 1000])
def test_classify_does_not_depend_on_the_time_unit(n):
    statuses = set()
    for draw, spec in enumerate(_unit_specs()):
        verdict = classify(spectrum_periodic(spec, n))
        statuses.add(verdict.status)
        for s in _SCALES:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scaled = classify(spectrum_periodic(_in_time_units(spec, s), n))
            assert (scaled.status, scaled.zero_multiplicity) == (
                verdict.status, verdict.zero_multiplicity), (draw, s)
    assert len(statuses) == 3


@pytest.mark.parametrize("figure", [figure2, figure3c])
def test_branch_tracking_does_not_depend_on_the_time_unit(figure):
    # c = -a_0'(0) / a_2(0) becomes c / s^2, and the tracked roots nu / s
    plus, minus = track_branches(figure())
    for s in (1e-3, 1e-6):
        scaled = track_branches(_in_time_units(figure(), s))
        assert abs(scaled[0].c * s**2 - plus.c) <= 1e-12 * abs(plus.c), s
        for curve in scaled:
            assert tangency_report(curve).passed, (s, curve.branch)
    assert tangency_report(plus).passed and tangency_report(minus).passed


def _pair_sum_vanishes(rng):
    """A three-type spec whose pair sum E is zero in exact arithmetic (gains -1)."""
    c0, c1 = rng.uniform(-1.4, -0.6, size=2)
    c2 = -(3.0 + c0 + c1 + c0 * c1) / (1.0 + c0 + c1)
    return build_spec(Arrangement.TRIATOMIC_NN, [
        {"g_x": -1.0, "g_v": -1.0, "rho_x": {"1": c, "-1": -1.0 - c},
         "rho_v": {"1": -0.5, "-1": -0.5}} for c in (c0, c1, c2)])


def _alpha_x_sum_vanishes(rng):
    """A two-type spec whose gain-weighted alpha_x sum is zero in exact arithmetic:
    type 2's positional gain is -g alpha / alpha' of type 1's."""
    spec = random_spec(rng, Arrangement.DIATOMIC_NNN)
    (first, second), (a0, a1) = spec.agents, (alpha[1] for alpha in alphas_betas(spec).alpha_x)
    g_x = -first.g_x * a0 / a1
    return build_spec(spec.arrangement, [
        first, AgentParams(g_x, second.g_v, dict(second.rho_x), dict(second.rho_v))])


@pytest.mark.parametrize("n", [12, 48])
def test_a_third_zero_root_is_exactly_a_vanishing_pair_or_alpha_sum(n):
    rng = np.random.default_rng(73)
    three = [random_spec(rng, Arrangement.TRIATOMIC_NN) for _ in range(10)]
    three += [_pair_sum_vanishes(rng) for _ in range(10)]
    two = [random_spec(rng, Arrangement.DIATOMIC_NNN) for _ in range(10)]
    two += [_alpha_x_sum_vanishes(rng) for _ in range(10)]
    # a_2(0) = 0.9 - 0.6 g: zero at 1.5 up to roundoff, negative at 2
    two += [alpha_roundoff_spec(), alpha_roundoff_spec(1.0), alpha_roundoff_spec(2.0)]
    seen = set()
    for spec in three + two:
        report = conditions(spec, 0.0)
        if spec.arrangement is Arrangement.TRIATOMIC_NN:
            triple = report.verdicts["ii"]
        else:  # a sign clause: a clearly negative value triggers it too
            value = report.clauses[1].value
            triple = _vanishes(abs(value), mode_polynomial(spec).jet_size(0)[2], 0.0)
            seen.add((report.verdicts["ii-x"], triple))
        multiplicity = classify(spectrum_periodic(spec, n)).zero_multiplicity
        assert multiplicity == (3 if triple else 2), spec
        seen.add((spec.arrangement, triple))
    assert {(True, False), (True, True), (False, False)} <= seen
    assert {(a, t) for a in Arrangement for t in (True, False)} <= seen
