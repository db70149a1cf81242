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
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from flockstab import (AgentParams, Arrangement, BlowUp, BoundaryCondition, build_spec, classify,
                       conditions, simulate, spectrum_periodic)
from conftest import one_type_spellings, random_spec

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
