import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flockstab as fs
from flockstab import (
    AgentParams,
    Arrangement,
    BoundaryCondition,
    ConstraintViolation,
    ShapeError,
    SizeError,
    assemble_line,
    assemble_periodic,
    build_spec,
)
from conftest import random_diatomic, random_triatomic
from oracles import alphas_betas, type_blocks

# dyadic rationals keep every intermediate sum exactly representable,
# so identities that hold in exact arithmetic hold bit-for-bit
dyadic = st.integers(min_value=-(2**20), max_value=2**20).map(lambda m: m / 2**21)


def test_build_spec_figure_one_parameters(fig1):
    assert fig1.agents[0].rho_x[-1] == pytest.approx(-0.4, abs=1e-15)
    assert fig1.agents[1].rho_x[-1] == pytest.approx(-0.2, abs=1e-15)
    assert fig1.agents[2].rho_x[-1] == pytest.approx(-6.0 / 7.0, abs=1e-15)
    assert fig1.agents[0].g_v == -1.3


def test_build_spec_symmetric_split():
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [
            {"g_x": -1.0, "g_v": -1.0,
             "rho_x": {"1": -0.5, "-1": -0.5},
             "rho_v": {"1": -0.5, "-1": -0.5}}
            for _ in range(3)
        ],
    )
    assert all(a.rho_x[1] == a.rho_x[-1] == -0.5 for a in spec.agents)


def test_constraint_violation_reports_residual():
    agents = [
        {"g_x": -1.0, "g_v": -1.0,
         "rho_x": {"1": -0.25, "-1": -0.25, "2": -0.2, "-2": -0.2},
         "rho_v": {"1": -0.5, "-1": -0.5}},
        {"g_x": -1.0, "g_v": -1.0,
         "rho_x": {"1": -0.25, "-1": -0.25, "2": -0.25, "-2": -0.25},
         "rho_v": {"1": -0.5, "-1": -0.5}},
    ]
    with pytest.raises(ConstraintViolation) as err:
        build_spec(Arrangement.DIATOMIC_NNN, agents)
    assert err.value.agent_index == 0
    assert err.value.residual == pytest.approx(0.1, abs=1e-12)


def test_shape_error_wrong_offsets():
    with pytest.raises(ShapeError):
        build_spec(
            Arrangement.TRIATOMIC_NN,
            [
                {"g_x": -1.0, "g_v": -1.0,
                 "rho_x": {"2": -0.5, "-2": -0.5},
                 "rho_v": {"1": -0.5, "-1": -0.5}}
            ] * 3,
        )


def test_wrong_agent_count():
    with pytest.raises(ShapeError):
        build_spec(Arrangement.TRIATOMIC_NN, [{"g_x": -1, "g_v": -1}] * 2)


def test_nonfinite_rejected():
    with pytest.raises(ShapeError):
        AgentParams(g_x=float("nan"), g_v=-1.0,
                    rho_x={1: -0.5, -1: -0.5}, rho_v={1: -0.5, -1: -0.5})


# --- alphas and betas --------------------------------------------------------

def test_beta_figure_one(fig1):
    ab = alphas_betas(fig1)
    assert ab.beta_x[0][1] == pytest.approx(-0.2, abs=1e-15)
    assert ab.beta_x[1][1] == pytest.approx(-0.6, abs=1e-15)
    assert ab.beta_x[2][1] == pytest.approx(5.0 / 7.0, abs=1e-15)


def test_beta_symmetric_is_zero():
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [{"g_x": -1.0, "g_v": -1.0,
          "rho_x": {"1": -0.5, "-1": -0.5},
          "rho_v": {"1": -0.5, "-1": -0.5}}] * 3,
    )
    ab = alphas_betas(spec)
    assert all(b[1] == 0.0 for b in ab.beta_x)


def test_alpha_beta_figure_three(fig3):
    ab = alphas_betas(fig3)
    assert ab.alpha_x[0][1] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert ab.beta_x[0][1] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ab.beta_x[0][2] == 0.0
    assert ab.alpha_x[1][1] == pytest.approx(-0.6, abs=1e-15)


@given(r=dyadic, v=dyadic)
def test_alpha_beta_roundtrip_exact(r, v):
    agent = AgentParams(g_x=-1.0, g_v=-1.0,
                        rho_x={1: r, -1: -1.0 - r},
                        rho_v={1: v, -1: -1.0 - v})
    spec = build_spec(Arrangement.TRIATOMIC_NN, [agent] * 3)
    ab = alphas_betas(spec)
    assert ab.alpha_x[0][1] + ab.beta_x[0][1] == 2.0 * r
    assert ab.alpha_x[0][1] - ab.beta_x[0][1] == 2.0 * (-1.0 - r)
    # nearest-neighbor alphas are forced to -1 by the constraint
    assert ab.alpha_x[0][1] == -1.0
    assert ab.alpha_v[0][1] == -1.0


@given(r1=dyadic, r2=dyadic, rm2=dyadic)
def test_alpha_beta_roundtrip_exact_diatomic(r1, r2, rm2):
    rho = {1: r1, 2: r2, -2: rm2, -1: -1.0 - r1 - r2 - rm2}
    agent = AgentParams(g_x=-1.0, g_v=-1.0, rho_x=rho, rho_v=dict(rho))
    spec = build_spec(Arrangement.DIATOMIC_NNN, [agent] * 2)
    ab = alphas_betas(spec)
    for j in (1, 2):
        assert ab.alpha_x[0][j] + ab.beta_x[0][j] == 2.0 * rho[j]
        assert ab.alpha_x[0][j] - ab.beta_x[0][j] == 2.0 * rho[-j]


# --- periodic assembly -------------------------------------------------------

def test_periodic_triatomic_small(fig1):
    m = assemble_periodic(fig1, 3).entries
    assert m.shape == (18, 18)
    assert np.array_equal(m[:9, 9:], np.eye(9))
    assert np.array_equal(m[:9, :9], np.zeros((9, 9)))


def test_periodic_size_error(fig1):
    with pytest.raises(SizeError):
        assemble_periodic(fig1, 2)


def _roll_matrix(n, k):
    # (P z)[j] = z[j+k] cyclically
    p = np.zeros((n, n))
    p[np.arange(n), (np.arange(n) + k) % n] = 1.0
    return p


def test_periodic_diatomic_circulant_blocks(fig3):
    n = 4
    m = type_blocks(assemble_periodic(fig3, n).entries, 2, n)
    p_plus, p_minus = _roll_matrix(n, 1), _roll_matrix(n, -1)
    eye = np.eye(n)
    a1, a2 = fig3.agents
    # direct construction of every coupling block from its circulant definition
    expected = {
        (0, 0): a1.g_x * (eye + a1.rho_x[-2] * p_minus + a1.rho_x[2] * p_plus),
        (0, 1): a1.g_x * (a1.rho_x[1] * eye + a1.rho_x[-1] * p_minus),
        (1, 0): a2.g_x * (a2.rho_x[-1] * eye + a2.rho_x[1] * p_plus),
        (1, 1): a2.g_x * (eye + a2.rho_x[-2] * p_minus + a2.rho_x[2] * p_plus),
    }
    for (bi, bj), block in expected.items():
        got = m[2 * n + bi * n: 2 * n + (bi + 1) * n, bj * n: (bj + 1) * n]
        assert np.array_equal(got, block)


def test_periodic_diatomic_symmetric_weights_need_equal_gains():
    def spec_with(g_v):
        agents = [
            AgentParams(g_x=-1.0, g_v=g_v,
                        rho_x={1: -0.3, -1: -0.3, 2: -0.2, -2: -0.2},
                        rho_v={1: -0.3, -1: -0.3, 2: -0.2, -2: -0.2})
        ] * 2
        return build_spec(Arrangement.DIATOMIC_NNN, agents)

    n = 4
    same = assemble_periodic(spec_with(-1.0), n).entries
    lx, lv = same[2 * n:, : 2 * n], same[2 * n:, 2 * n:]
    assert np.array_equal(lx, lv)
    assert np.allclose(lx, lx.T)

    different = assemble_periodic(spec_with(-2.0), n).entries
    lx, lv = different[2 * n:, : 2 * n], different[2 * n:, 2 * n:]
    assert not np.array_equal(lx, lv)


def test_periodic_row_sums_zero_figure_one(fig1):
    n = 60
    m = assemble_periodic(fig1, n).entries
    acc = m[3 * n:, :]
    assert np.abs(acc.sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("maker", [random_triatomic, random_diatomic])
def test_periodic_row_sums_zero_random(maker):
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = maker(rng)
        n = int(rng.integers(3, 9))
        m = assemble_periodic(spec, n).entries
        acc = m[spec.n_types * n:, :]
        assert np.abs(acc.sum(axis=1)).max() < 1e-12


# --- line assembly -----------------------------------------------------------

@pytest.mark.parametrize("bc", [BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II])
@pytest.mark.parametrize("maker", [random_triatomic, random_diatomic])
def test_line_row_sums_and_leader(maker, bc):
    rng = np.random.default_rng(11)
    spec = maker(rng)
    n = 6
    m = assemble_line(spec, n, bc).entries
    n_agents = m.shape[0] // 2
    assert np.abs(m[n_agents:].sum(axis=1)).max() < 1e-12
    assert np.all(m[n_agents] == 0.0)


@pytest.mark.parametrize("bc", [BoundaryCondition.TYPE_I, BoundaryCondition.TYPE_II])
def test_line_interior_matches_periodic(fig1, fig3, bc):
    for spec in (fig1, fig3):
        n = 5
        t = spec.n_types
        per = type_blocks(assemble_periodic(spec, n).entries, t, n)
        lin = type_blocks(assemble_line(spec, n, bc).entries, t, n)
        if t == 3:
            modified = {3 * n, 6 * n - 1}
        else:
            modified = {2 * n, 3 * n - 1, 3 * n, 4 * n - 1}
        for row in range(2 * t * n):
            if row in modified:
                continue
            assert np.array_equal(per[row], lin[row]), f"row {row}"


def test_line_triatomic_type_one_tail_row(fig1):
    n = 3
    g3 = fig1.agents[2]
    m = type_blocks(assemble_line(fig1, n, BoundaryCondition.TYPE_I).entries, 3, n)
    row = m[6 * n - 1]
    expected = np.zeros(6 * n)
    expected[3 * n - 1] = -g3.g_x * g3.rho_x[-1]     # own position
    expected[2 * n - 1] = g3.g_x * g3.rho_x[-1]      # type-2 neighbor position
    expected[6 * n - 1] = -g3.g_v * g3.rho_v[-1]
    expected[5 * n - 1] = g3.g_v * g3.rho_v[-1]
    assert np.allclose(row, expected, atol=1e-15)
    assert np.count_nonzero(row) == 4


def test_line_triatomic_type_two_tail_row(fig1):
    n = 3
    g3 = fig1.agents[2]
    m = type_blocks(assemble_line(fig1, n, BoundaryCondition.TYPE_II).entries, 3, n)
    row = m[6 * n - 1]
    expected = np.zeros(6 * n)
    expected[3 * n - 1] = g3.g_x
    expected[2 * n - 1] = -g3.g_x
    expected[6 * n - 1] = g3.g_v
    expected[5 * n - 1] = -g3.g_v
    assert np.allclose(row, expected, atol=1e-15)


def test_line_diatomic_boundary_rows(fig3):
    n = 4
    a1, a2 = fig3.agents
    m = type_blocks(assemble_line(fig3, n, BoundaryCondition.TYPE_I).entries, 2, n)

    # type 1 cell n drops its +2 coupling into the central coefficient
    row = m[2 * n + n - 1]
    assert row[n - 1] == pytest.approx(
        -a1.g_x * (a1.rho_x[1] + a1.rho_x[-1] + a1.rho_x[-2]), abs=1e-15
    )
    assert row[2 * n - 1] == pytest.approx(a1.g_x * a1.rho_x[1], abs=1e-15)
    assert row[2 * n - 2] == pytest.approx(a1.g_x * a1.rho_x[-1], abs=1e-15)
    assert row[n - 2] == pytest.approx(a1.g_x * a1.rho_x[-2], abs=1e-15)

    # type 2 cell n keeps only the forward-looking couplings
    row = m[4 * n - 1]
    assert row[2 * n - 1] == pytest.approx(
        -a2.g_x * (a2.rho_x[-1] + a2.rho_x[-2]), abs=1e-15
    )
    assert row[n - 1] == pytest.approx(a2.g_x * a2.rho_x[-1], abs=1e-15)
    assert row[2 * n - 2] == pytest.approx(a2.g_x * a2.rho_x[-2], abs=1e-15)

    m2 = type_blocks(assemble_line(fig3, n, BoundaryCondition.TYPE_II).entries, 2, n)
    row = m2[4 * n - 1]
    assert row[2 * n - 1] == pytest.approx(a2.g_x, abs=1e-15)
    assert row[n - 1] == pytest.approx(a2.g_x * (a2.rho_x[1] + a2.rho_x[-1]), abs=1e-15)
    assert row[2 * n - 2] == pytest.approx(a2.g_x * (a2.rho_x[2] + a2.rho_x[-2]), abs=1e-15)

    # Type II, type 1 cell n: the missing +2 weight moves to the -2 neighbor
    # (for these weights the mirror sum equals -(1 + rho_1 + rho_-1) exactly)
    row = m2[2 * n + n - 1]
    assert row[n - 1] == a1.g_x
    assert row[n - 2] == a1.g_x * (a1.rho_x[-2] + a1.rho_x[2])
    assert row[n - 2] == -a1.g_x * (1.0 + a1.rho_x[1] + a1.rho_x[-1])
    assert row[2 * n - 1] == a1.g_x * a1.rho_x[1]
    assert row[2 * n - 2] == a1.g_x * a1.rho_x[-1]
    assert row[3 * n - 1] == a1.g_v
    assert row[3 * n - 2] == a1.g_v * (a1.rho_v[-2] + a1.rho_v[2])
    assert np.count_nonzero(row[: 2 * n]) == 4

    # Type II, type 2 cell 1: the missing -2 weight moves to the +2 neighbor
    row = m2[2 * n + n]
    assert row[n] == a2.g_x
    assert row[n + 1] == a2.g_x * (a2.rho_x[2] + a2.rho_x[-2])
    assert row[n + 1] == -a2.g_x * (1.0 + a2.rho_x[1] + a2.rho_x[-1])
    assert row[0] == a2.g_x * a2.rho_x[-1]
    assert row[1] == a2.g_x * a2.rho_x[1]
    assert row[3 * n] == a2.g_v
    assert row[3 * n + 1] == a2.g_v * (a2.rho_v[2] + a2.rho_v[-2])
    assert np.count_nonzero(row[: 2 * n]) == 4


# --- serialization -----------------------------------------------------------

def test_json_roundtrip(tmp_path, fig3):
    path = tmp_path / "spec.json"
    fs.save_spec(fig3, path)
    again = fs.load_spec(path)
    assert again == fig3


def test_json_infer_completion(tmp_path):
    doc = {
        "arrangement": "triatomic-nn",
        "agents": [
            {"g_x": -1.0, "g_v": -1.3,
             "rho_x": {"1": -0.6}, "rho_v": {"1": -0.3},
             "infer": ["rho_x:-1", "rho_v:-1"]},
            {"g_x": -1.0, "g_v": -1.3,
             "rho_x": {"1": -0.8}, "rho_v": {"1": -0.3},
             "infer": ["rho_x:-1", "rho_v:-1"]},
            {"g_x": -1.0, "g_v": -1.3,
             "rho_x": {"1": -0.5}, "rho_v": {"1": -0.3},
             "infer": ["rho_x:-1", "rho_v:-1"]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = fs.load_spec(path)
    assert spec.agents[0].rho_x[-1] == -0.4
    assert spec.agents[1].rho_x[-1] == pytest.approx(-0.2, abs=1e-15)


def test_json_omitted_offsets_are_zero():
    spec = fs.spec_from_dict({
        "arrangement": "diatomic-nnn",
        "agents": [
            {"g_x": -1.0, "g_v": -1.0,
             "rho_x": {"1": -0.5, "-1": -0.5},
             "rho_v": {"1": -0.5, "-1": -0.5}},
        ] * 2,
    })
    assert spec.agents[0].rho_x[2] == 0.0
    assert spec.agents[0].rho_x[-2] == 0.0


def test_json_malformed_raises():
    with pytest.raises(ShapeError):
        fs.spec_from_dict({"arrangement": "hexatomic", "agents": []})
    with pytest.raises(ShapeError):
        fs.spec_from_dict({"agents": []})


@pytest.mark.parametrize("key, value", [("g_x", True), ("g_v", False),
                                        ("rho_x", {"1": True, "-1": -0.5}),
                                        ("rho_v", {"1": -0.5, "-1": np.bool_(True)})])
def test_json_booleans_are_not_numbers(fig1, key, value):
    doc = fs.spec_to_dict(fig1)
    doc["agents"][0][key] = value
    with pytest.raises(ShapeError):
        fs.spec_from_dict(doc)
    # integers stay numbers, as in the README's specs
    doc["agents"][0] = {"g_x": -1, "g_v": -1, "rho_x": {"1": 0, "-1": -1},
                        "rho_v": {"1": 0, "-1": -1}}
    assert fs.spec_from_dict(doc).agents[0].rho_x[-1] == -1.0


def test_agent_params_refuse_boolean_weights():
    with pytest.raises(ShapeError):
        AgentParams(g_x=-1.0, g_v=-1.0, rho_x={1: True, -1: -2.0}, rho_v={1: -0.5, -1: -0.5})


@pytest.mark.parametrize("rho_x", [{"1": "-0.6", "-1": -0.4}, {"1": "abc", "-1": -0.4},
                                   {"x": -0.6, "-1": -0.4}, {"1.0": -0.6, "-1": -0.4},
                                   {1.0: -0.6, "-1": -0.4}, {True: -0.6, "-1": -0.4}],
                         ids=["string-weight", "word-weight", "word-offset", "decimal-offset",
                              "float-offset", "bool-offset"])
def test_spec_weights_are_numbers_and_offsets_integers(fig1, rho_x):
    doc = fs.spec_to_dict(fig1)
    doc["agents"][0]["rho_x"] = rho_x
    with pytest.raises(ShapeError):
        fs.spec_from_dict(doc)
    # JSON's offset keys are integer literals, signed or not
    doc["agents"][0]["rho_x"] = {"1": -0.6, "-1": -0.4}
    assert fs.spec_from_dict(doc) == fig1
    doc["agents"][0]["rho_x"] = {"+1": -0.6, "-1": -0.4}
    assert fs.spec_from_dict(doc) == fig1


def test_inferred_offset_is_an_integer_literal(fig1):
    doc = fs.spec_to_dict(fig1)
    doc["agents"][0]["infer"] = ["rho_x:abc"]
    with pytest.raises(ShapeError):
        fs.spec_from_dict(doc)


def test_agent_params_refuse_string_weights():
    with pytest.raises(ShapeError):
        AgentParams(g_x=-1.0, g_v=-1.0, rho_x={1: "-0.6", -1: -0.4}, rho_v={1: -0.5, -1: -0.5})
