import numpy as np
import pytest

from flockstab import AgentParams, Arrangement, build_spec
from flockstab.figures import figure1, figure2, figure3, figure3c


@pytest.fixture
def fig1():
    return figure1()


@pytest.fixture
def fig2():
    return figure2()


@pytest.fixture
def fig3():
    return figure3()


@pytest.fixture
def fig3c():
    return figure3c()


def random_triatomic(rng: np.random.Generator):
    """Random valid three-type spec (negative gains, generic weights)."""
    agents = []
    for _ in range(3):
        rx = rng.uniform(-1.4, 0.4)
        rv = rng.uniform(-1.4, 0.4)
        agents.append(
            AgentParams(
                g_x=-rng.uniform(0.2, 2.0),
                g_v=-rng.uniform(0.2, 2.0),
                rho_x={1: rx, -1: -1.0 - rx},
                rho_v={1: rv, -1: -1.0 - rv},
            )
        )
    return build_spec(Arrangement.TRIATOMIC_NN, agents)


def random_diatomic(rng: np.random.Generator):
    """Random valid two-type spec with all four offsets populated."""
    agents = []
    for _ in range(2):
        r1, r2, rm2 = rng.uniform(-0.6, 0.1, size=3)
        v1, v2, vm2 = rng.uniform(-0.6, 0.1, size=3)
        agents.append(
            AgentParams(
                g_x=-rng.uniform(0.2, 2.0),
                g_v=-rng.uniform(0.2, 2.0),
                rho_x={1: r1, 2: r2, -2: rm2, -1: -1.0 - r1 - r2 - rm2},
                rho_v={1: v1, 2: v2, -2: vm2, -1: -1.0 - v1 - v2 - vm2},
            )
        )
    return build_spec(Arrangement.DIATOMIC_NNN, agents)


def random_spec(rng: np.random.Generator, arrangement: Arrangement):
    if arrangement is Arrangement.TRIATOMIC_NN:
        return random_triatomic(rng)
    return random_diatomic(rng)


def one_type_spellings(rng: np.random.Generator, symmetric: bool = False):
    """One random one-type stencil at offsets +-1, written two ways: three
    identical agents of three types, and two identical agents of two types
    with rho at +-2 zero.  At 3 n = 2 n' cells per type they are the same
    vehicles.  ``symmetric`` puts both position weights at -1/2, so the
    first moment vanishes."""
    rx = -0.5 if symmetric else float(rng.uniform(-1.5, 0.5))
    rv = float(rng.uniform(-1.5, 0.5))
    g_x, g_v = (-float(rng.uniform(0.2, 2.0)) for _ in range(2))

    def agent(far):
        return AgentParams(g_x=g_x, g_v=g_v, rho_x={1: rx, -1: -1.0 - rx, **far},
                           rho_v={1: rv, -1: -1.0 - rv, **far})

    return (build_spec(Arrangement.TRIATOMIC_NN, [agent({})] * 3),
            build_spec(Arrangement.DIATOMIC_NNN, [agent({2: 0.0, -2: 0.0})] * 2))


def random_symmetric(rng: np.random.Generator, arrangement: Arrangement):
    """Spec with fully symmetric weights (all betas zero), negative gains."""
    agents = []
    for _ in range(arrangement.n_types):
        if arrangement is Arrangement.TRIATOMIC_NN:
            rho_x = {1: -0.5, -1: -0.5}
            rho_v = {1: -0.5, -1: -0.5}
        else:
            a = rng.uniform(-0.45, -0.05)
            b = -0.5 - a
            c = rng.uniform(-0.45, -0.05)
            d = -0.5 - c
            rho_x = {1: a, -1: a, 2: b, -2: b}
            rho_v = {1: c, -1: c, 2: d, -2: d}
        agents.append(
            AgentParams(
                g_x=-rng.uniform(0.25, 2.0),
                g_v=-rng.uniform(0.25, 2.0),
                rho_x=rho_x,
                rho_v=rho_v,
            )
        )
    return build_spec(arrangement, agents)


def alpha_roundoff_spec(g_x2: float = 1.5):
    """Two-type spec whose gain-weighted alpha_x sum, -1 * 0.9 + 1.5 * (-0.6),
    is zero in exact arithmetic and left positive by roundoff.

    All weights are symmetric, so the moment is exactly zero.
    """
    def agent(g_x, first, second):
        return AgentParams(
            g_x=g_x, g_v=-1.0,
            rho_x={1: first, -1: first, 2: second, -2: second},
            rho_v={1: -0.3, -1: -0.3, 2: -0.2, -2: -0.2},
        )

    return build_spec(Arrangement.DIATOMIC_NNN,
                      [agent(-1.0, -0.45, -0.05), agent(g_x2, -0.3, -0.2)])


def zero_gain_spec():
    """Half weights with type 1's positional gain zero: a_0 = 0 in every mode."""
    half = {"1": -0.5, "-1": -0.5}
    agents = [{"g_x": -1.0, "g_v": -1.0, "rho_x": half, "rho_v": half}] * 3
    return build_spec(Arrangement.TRIATOMIC_NN, [{**agents[0], "g_x": 0.0}, *agents[1:]])
