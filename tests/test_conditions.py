import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flockstab import (
    Arrangement,
    E_func,
    InvalidTolerance,
    Overall,
    Stability,
    alphas_betas,
    build_spec,
    classify,
    conditions,
    necessary_condition_value,
    spec_from_dict,
    spec_to_dict,
    spectrum_periodic,
)
from conftest import alpha_roundoff_spec, random_spec, random_symmetric
from oracles import D_func, a0_derivative_at_zero

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)

#: Im a0'(0) = factor * (g-gain product) * necessary_condition_value.
#: Frozen against the finite-difference oracle.
A0_SLOPE_FACTOR = {
    Arrangement.TRIATOMIC_NN: 0.25,
    Arrangement.DIATOMIC_NNN: -0.5,
}


# --- helper functions --------------------------------------------------------

@given(a=finite, b=finite, c=finite)
def test_d_vanishes_at_zero(a, b, c):
    assert D_func(a, b, c, 0.0) == 0.0


def test_d_symmetric_half_weights():
    # hand algebra: abc = -(1/8), (1+a)(1+b)(1+c) = 1/8, so
    # D = -(e^{it} + e^{-it} - 2)/8 = (1 - cos t)/4, purely real
    for t in np.linspace(-3.0, 3.0, 13):
        val = D_func(-0.5, -0.5, -0.5, t)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx((1.0 - np.cos(t)) / 4.0, abs=1e-15)


def test_d_slope_figure_one_is_zero(fig1):
    # the derivative of D at 0, times the gain product, is a0'(0)
    assert abs(a0_derivative_at_zero(fig1)) < 1e-15


@given(b=finite, c=finite, d=finite)
def test_e_zero_first_factor(b, c, d):
    assert E_func(0.0, b, c, d) == 0.0


def test_e_examples():
    assert E_func(1.0, 1.0, 0.0, 17.3) == 1.0
    assert E_func(-1.0, -1.0, -0.6, -0.8) == pytest.approx(0.88, abs=1e-15)


# --- triatomic clauses -------------------------------------------------------

def test_triatomic_figure_one(fig1):
    rep = conditions(fig1)
    assert rep.case_values["beta_sum"] == pytest.approx(-3.0 / 35.0, abs=1e-12)
    assert abs(rep.case_values["moment_plus_correction"]) < 1e-9
    assert not rep.verdicts["iii"]
    assert rep.overall is Overall.NECESSARY_CONDITIONS_HOLD


def test_triatomic_figure_two(fig2):
    rep = conditions(fig2)
    assert abs(rep.case_values["beta_sum"]) < 1e-12
    assert rep.case_values["moment_plus_correction"] == pytest.approx(0.096, abs=1e-12)
    assert rep.verdicts["iii"]
    assert rep.overall is Overall.INSTABILITY_CERTIFIED


def test_triatomic_zero_gain_triggers():
    spec = build_spec(
        Arrangement.TRIATOMIC_NN,
        [
            {"g_x": -1.0, "g_v": -1.0,
             "rho_x": {"1": -0.3, "-1": -0.7}, "rho_v": {"1": -0.5, "-1": -0.5}},
            {"g_x": 0.0, "g_v": -1.0,
             "rho_x": {"1": -0.6, "-1": -0.4}, "rho_v": {"1": -0.5, "-1": -0.5}},
            {"g_x": -1.0, "g_v": -1.0,
             "rho_x": {"1": -0.8, "-1": -0.2}, "rho_v": {"1": -0.5, "-1": -0.5}},
        ],
    )
    rep = conditions(spec)
    assert rep.verdicts["i"]
    assert rep.overall is Overall.INSTABILITY_CERTIFIED


def test_triatomic_cyclic_relabel_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec = random_spec(rng, Arrangement.TRIATOMIC_NN)
        rep = conditions(spec)
        for shift in (1, 2):
            rolled = build_spec(
                Arrangement.TRIATOMIC_NN,
                spec.agents[shift:] + spec.agents[:shift],
            )
            rolled_rep = conditions(rolled)
            for key in ("e_sum", "beta_sum", "moment_plus_correction", "g_product"):
                assert rolled_rep.case_values[key] == pytest.approx(
                    rep.case_values[key], rel=1e-12, abs=1e-12
                )


# --- diatomic clauses --------------------------------------------------------

def test_diatomic_figure_three(fig3):
    rep = conditions(fig3)
    assert abs(rep.case_values["moment_plus_correction"]) < 1e-12
    assert rep.case_values["gain_weighted_alpha_x"] == pytest.approx(
        14.0 / 15.0, abs=1e-12
    )
    assert rep.case_values["a2_at_zero"] == rep.case_values["gain_weighted_alpha_x"]
    assert not any(rep.verdicts.values())
    assert rep.overall is Overall.NECESSARY_CONDITIONS_HOLD


def test_diatomic_figure_three_c_triggers(fig3c):
    rep = conditions(fig3c)
    assert rep.case_values["moment_plus_correction"] == pytest.approx(0.045, abs=1e-12)
    assert rep.verdicts["iii"]
    assert rep.overall is Overall.INSTABILITY_CERTIFIED


def test_diatomic_zero_gain_triggers_with_note(fig3):
    agents = [
        {"g_x": 0.0, "g_v": -1.0,
         "rho_x": {str(j): w for j, w in fig3.agents[0].rho_x.items()},
         "rho_v": {str(j): w for j, w in fig3.agents[0].rho_v.items()}},
        {"g_x": -1.0, "g_v": -1.0,
         "rho_x": {str(j): w for j, w in fig3.agents[1].rho_x.items()},
         "rho_v": {str(j): w for j, w in fig3.agents[1].rho_v.items()}},
    ]
    rep = conditions(build_spec(Arrangement.DIATOMIC_NNN, agents))
    clause = next(c for c in rep.clauses if c.id == "i")
    assert clause.triggered
    assert "zero-gain" in clause.note


def test_diatomic_sign_clause():
    # positive gains flip the alpha sums negative -> clause ii fires
    agents = [
        {"g_x": 1.0, "g_v": -1.0,
         "rho_x": {"1": -0.3, "-1": -0.3, "2": -0.2, "-2": -0.2},
         "rho_v": {"1": -0.3, "-1": -0.3, "2": -0.2, "-2": -0.2}},
    ] * 2
    rep = conditions(build_spec(Arrangement.DIATOMIC_NNN, agents))
    assert rep.verdicts["ii-x"]
    assert not rep.verdicts["ii-v"]
    assert rep.overall is Overall.INSTABILITY_CERTIFIED


def test_diatomic_symmetric_moment_is_zero():
    rng = np.random.default_rng(4)
    spec = random_symmetric(rng, Arrangement.DIATOMIC_NNN)
    assert necessary_condition_value(spec) == 0.0


# --- scalar condition value --------------------------------------------------

def test_necessary_condition_values(fig1, fig2, fig3):
    assert abs(necessary_condition_value(fig1)) < 1e-9
    assert necessary_condition_value(fig2) == pytest.approx(0.096, abs=1e-9)
    assert abs(necessary_condition_value(fig3)) < 1e-12


@pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf"), float("-inf")])
def test_conditions_reject_bad_tolerance(tol, fig1, fig3):
    for spec in (fig1, fig3):
        with pytest.raises(InvalidTolerance):
            conditions(spec, tol)


def test_conditions_accept_zero_tolerance(fig2):
    assert conditions(fig2, 0.0).overall is Overall.INSTABILITY_CERTIFIED


def test_zero_tolerance_certifies_nothing_from_roundoff(fig1, fig2, fig3, fig3c):
    # figure 1's moment is 9.7e-17 of roundoff; tol = 0 keeps every
    # figure's verdict at the default tolerance
    assert necessary_condition_value(fig1) != 0.0
    for spec in (fig1, fig2, fig3, fig3c):
        assert conditions(spec, 0.0).verdicts == conditions(spec).verdicts
    for spec in (fig1, fig3):
        assert conditions(spec, 0.0).overall is Overall.NECESSARY_CONDITIONS_HOLD
    assert conditions(fig3c, 0.0).overall is Overall.INSTABILITY_CERTIFIED


def _on_manifold(spec, shift=0.0):
    """The spec with type 1's rho_x[1] moved onto the moment's zero (plus shift).

    The moment is affine in that weight once rho_x[-1] completes the row,
    so two evaluations locate its zero.
    """
    def moved(x):
        doc = spec_to_dict(spec)
        rho = {int(j): w for j, w in doc["agents"][0]["rho_x"].items()}
        rho[1] = x
        rho[-1] = -1.0 - sum(w for j, w in rho.items() if j != -1)
        doc["agents"][0]["rho_x"] = {str(j): w for j, w in rho.items()}
        return spec_from_dict(doc)

    f0 = necessary_condition_value(moved(0.0))
    f1 = necessary_condition_value(moved(1.0))
    return moved(-f0 / (f1 - f0) + shift)


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_zero_tolerance_on_manifold_specs(arrangement):
    rng = np.random.default_rng(53)
    for _ in range(50):
        spec = random_spec(rng, arrangement)
        on = _on_manifold(spec)
        assert not conditions(on, 0.0).verdicts["iii"]
        assert conditions(_on_manifold(spec, 1e-6), 0.0).verdicts["iii"]


def test_pair_sum_roundoff_triggers_clause_ii_at_zero_tolerance():
    # gains -1: the pair sum is 3 + c0 + c1 + c0 c1 + c2 (1 + c0 + c1)
    rng = np.random.default_rng(61)
    for c0, c1 in rng.uniform(-1.4, -0.6, size=(50, 2)):
        c2 = -(3.0 + c0 + c1 + c0 * c1) / (1.0 + c0 + c1)

        def spec(c2):
            return build_spec(Arrangement.TRIATOMIC_NN, [
                {"g_x": -1.0, "g_v": -1.0, "rho_x": {"1": c, "-1": -1.0 - c},
                 "rho_v": {"1": -0.5, "-1": -0.5}}
                for c in (c0, c1, c2)
            ])

        assert conditions(spec(c2), 0.0).verdicts["ii"]
        assert not conditions(spec(c2 + 1e-9), 0.0).verdicts["ii"]


def _alpha_sums_cancel(rng):
    """Random two-type spec whose gain-weighted alpha sums vanish up to the
    roundoff of building it: type 2's first-offset alphas are -g alpha / g'
    of type 1's, its second-offset weights completing each row."""
    spec = random_spec(rng, Arrangement.DIATOMIC_NNN)
    doc = spec_to_dict(spec)
    ab = alphas_betas(spec)
    for key, alphas in (("x", ab.alpha_x), ("v", ab.alpha_v)):
        g0, g1 = (a["g_" + key] for a in doc["agents"])
        alpha = -g0 * alphas[0][1] / g1
        rho = doc["agents"][1]["rho_" + key]
        rho["2"] = rho["-2"] = (-1.0 - alpha) / 2.0
        rho["-1"] = -1.0 - rho["1"] - rho["2"] - rho["-2"]
    return spec_from_dict(doc)


def test_alpha_sum_roundoff_triggers_at_zero_tolerance():
    # alpha carries the roundoff of its two weights, so a size of |g alpha|
    # alone misses some of these specs
    rng = np.random.default_rng(67)
    for _ in range(200):
        rep = conditions(_alpha_sums_cancel(rng), 0.0)
        assert rep.verdicts["ii-x"] and rep.verdicts["ii-v"]

    rep = conditions(alpha_roundoff_spec(), 0.0)
    assert rep.case_values["gain_weighted_alpha_x"] > 0.0
    assert rep.verdicts == {"i": False, "ii-x": True, "ii-v": False, "iii": False}
    # 6e-13 is beyond roundoff
    assert not conditions(alpha_roundoff_spec(1.5 - 1e-12), 0.0).verdicts["ii-x"]


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_slope_factor_links_moment_to_a0_derivative(arrangement):
    # Im a0'(0) = factor * gain-product * moment, with the frozen factor
    factor = A0_SLOPE_FACTOR[arrangement]
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = random_spec(rng, arrangement)
        g_product = np.prod([a.g_x for a in spec.agents])
        lhs = a0_derivative_at_zero(spec)
        rhs = factor * g_product * necessary_condition_value(spec)
        assert lhs.real == pytest.approx(0.0, abs=1e-12)
        assert abs(lhs.imag - rhs) <= 1e-8 * max(1.0, abs(rhs))


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_symmetric_specs_never_classified_unstable(arrangement):
    rng = np.random.default_rng(29)
    for _ in range(5):
        spec = random_symmetric(rng, arrangement)
        rep = conditions(spec)
        assert not rep.verdicts["i"]
        if arrangement is Arrangement.TRIATOMIC_NN:
            assert not rep.verdicts["ii"]
        for n in (3, 8, 12):
            verdict = classify(spectrum_periodic(spec, n))
            assert verdict.status is not Stability.UNSTABLE
