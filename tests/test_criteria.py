import json
import math

import numpy as np
import pytest

from cvsteer import (
    CovarianceMatrix,
    GainPair,
    UNIT_GAINS,
    conditional_variance,
    criteria_report,
    duan_sum,
    expected_measurements,
    optimal_gain,
    reid_product,
    vacuum_state,
)
from cvsteer.gaussian import SourceParams, build_epr_source
from conftest import random_physical_state, random_product_state, reference_criteria

# Direct arithmetic on the reference entries, kept separate from the library path.
VAR_XA, VAR_PA, VAR_XB, VAR_PB = 18.41, 35.49, 17.98, 34.61
COV_X, COV_P = 18.09, -34.95


class TestConditionalVariance:
    def test_zero_gain_returns_target_variance(self, ref_state):
        assert conditional_variance(ref_state, "x", "b|a", 0.0) == pytest.approx(17.98, abs=1e-12)

    def test_optimal_gain_value(self, ref_state):
        g = COV_X / VAR_XA
        expected = VAR_XB - COV_X ** 2 / VAR_XA
        assert conditional_variance(ref_state, "x", "b|a", g) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2044, abs=5e-5)

    def test_unit_gain_matches_measured_difference(self, ref_state):
        assert conditional_variance(ref_state, "x", "b|a", 1.0) == pytest.approx(0.21, abs=1e-12)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            conditional_variance(vacuum_state(1), "x", "b|a", 1.0)

    def test_rejects_unknown_labels(self, ref_state):
        with pytest.raises(ValueError):
            conditional_variance(ref_state, "y", "b|a", 1.0)
        with pytest.raises(ValueError):
            conditional_variance(ref_state, "x", "b/a", 1.0)
        with pytest.raises(ValueError):
            conditional_variance(ref_state, 1, "b|a", 1.0)
        with pytest.raises(ValueError):
            conditional_variance(ref_state, "x", None, 1.0)


class TestOptimalGain:
    def test_reference_values(self, ref_state):
        assert optimal_gain(ref_state, "x", "b|a") == pytest.approx(COV_X / VAR_XA, abs=1e-14)
        assert optimal_gain(ref_state, "p", "b|a") == pytest.approx(COV_P / VAR_PA, abs=1e-14)
        assert optimal_gain(ref_state, "x", "b|a") == pytest.approx(0.98262, abs=1e-5)
        assert optimal_gain(ref_state, "p", "b|a") == pytest.approx(-0.98478, abs=1e-5)

    def test_uncorrelated_state_gives_zero(self):
        assert optimal_gain(vacuum_state(2), "x", "b|a") == 0.0


class TestReidProduct:
    def test_optimal_b_given_a(self, ref_state):
        expected = (VAR_XB - COV_X ** 2 / VAR_XA) * (VAR_PB - COV_P ** 2 / VAR_PA)
        assert reid_product(ref_state, "b|a") == pytest.approx(expected, rel=1e-12)
        assert reid_product(ref_state, "b|a") == pytest.approx(0.039, abs=1e-3)

    def test_optimal_a_given_b(self, ref_state):
        expected = (VAR_XA - COV_X ** 2 / VAR_XB) * (VAR_PA - COV_P ** 2 / VAR_PB)
        assert reid_product(ref_state, "a|b") == pytest.approx(expected, rel=1e-12)
        assert reid_product(ref_state, "a|b") == pytest.approx(0.041, abs=1e-3)

    def test_unit_gains(self, ref_state):
        assert reid_product(ref_state, "b|a", UNIT_GAINS) == pytest.approx(0.042, abs=1e-12)

    def test_rejects_bad_gains_argument(self, ref_state):
        with pytest.raises(ValueError):
            reid_product(ref_state, "b|a", "best")


class TestDuanSum:
    def test_reference_value(self, ref_state):
        assert duan_sum(ref_state) == pytest.approx(0.41, abs=1e-12)

    def test_two_vacua_sit_on_boundary(self):
        assert duan_sum(vacuum_state(2)) == pytest.approx(4.0, abs=1e-14)

    def test_lossless_symmetric_source(self):
        for r in (0.2, 0.8, 1.4):
            state = build_epr_source(SourceParams(r1=r, r2=r))
            assert duan_sum(state) == pytest.approx(4.0 * math.exp(-2.0 * r), rel=1e-12)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            duan_sum(vacuum_state(3))


class TestCriteriaReport:
    def test_reference_flags_and_values(self, ref_state):
        rep = criteria_report(ref_state)
        assert rep.steering_b_given_a and rep.steering_a_given_b
        assert rep.duan_inseparable
        assert rep.unit_gain_product == pytest.approx(0.042, abs=1e-12)
        assert rep.conditional_uncertainty_ratio == pytest.approx(math.sqrt(rep.reid_b_given_a),
                                                                  rel=1e-12)
        assert rep.conditional_uncertainty_ratio == pytest.approx(0.198, abs=1e-3)

    def test_vacuum_boundary_is_not_steering(self):
        rep = criteria_report(vacuum_state(2))
        assert rep.reid_b_given_a == 1.0
        assert rep.reid_a_given_b == 1.0
        assert not rep.steering_b_given_a
        assert not rep.steering_a_given_b
        assert not rep.duan_inseparable  # sum is exactly 4, strict inequality

    def test_product_rounded_below_one_is_not_steering(self):
        # a lossless product state: each factor is a pure state's e^{-2r} e^{2r} = 1,
        # which rounds to 1 - eps / 2, inside the product's rounding bound
        rep = criteria_report(build_epr_source(SourceParams(r1=2.0, r2=2.0, transmittance=1.0)))
        assert rep.reid_b_given_a < 1.0 and rep.reid_a_given_b < 1.0
        assert not rep.steering_b_given_a and not rep.steering_a_given_b

    @pytest.mark.parametrize("gap, steers", [(1e-13, True), (1e-16, False)])
    def test_steering_margin_is_the_rounding_bound(self, gap, steers):
        # uncorrelated factors 0.5 and 2 (1 - gap): the bound is 4 eps (0.5 * 2 + 2 * 0.5)
        rep = criteria_report(CovarianceMatrix(2, np.diag([1.0, 1.0, 0.5, 2.0 * (1.0 - gap)])))
        assert rep.reid_b_given_a < 1.0
        assert rep.steering_b_given_a is steers

    def test_gains_sign_convention(self, ref_state):
        # g_p is the multiplier in Var(P_B - g_p P_A): negative for the
        # anticorrelated P quadratures, so "P_A + P_B" means g_p = -1.
        rep = criteria_report(ref_state)
        assert rep.optimal_gains_b_given_a.g_p < 0
        assert conditional_variance(ref_state, "p", "b|a", -1.0) == pytest.approx(0.20, abs=1e-12)

    def test_products_equal_reid_product(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            state = random_physical_state(rng)
            rep = criteria_report(state)
            assert rep.reid_b_given_a == reid_product(state, "b|a")
            assert rep.reid_a_given_b == reid_product(state, "a|b")

    def test_report_is_json_ready(self, ref_state):
        d = criteria_report(ref_state).to_dict()
        parsed = json.loads(json.dumps(d))
        assert set(parsed) == {
            "reid_b_given_a", "reid_a_given_b", "duan_sum", "unit_gain_product",
            "optimal_gains_b_given_a", "optimal_gains_a_given_b",
            "conditional_variances", "steering_b_given_a", "steering_a_given_b",
            "duan_inseparable", "conditional_uncertainty_ratio",
        }
        assert set(parsed["conditional_variances"]) == {
            "x_b_given_a", "p_b_given_a", "x_a_given_b", "p_a_given_b",
        }
        assert parsed["optimal_gains_b_given_a"] == {
            "g_x": pytest.approx(COV_X / VAR_XA), "g_p": pytest.approx(COV_P / VAR_PA),
        }


class TestGainPair:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GainPair(float("inf"), 0.0)

    @pytest.mark.parametrize("gains", [(math.nan, 0.0), (1.0, -math.inf), (np.float64(np.nan), 1.0)])
    def test_non_finite_message(self, gains):
        with pytest.raises(ValueError, match="^GainPair: gains must be finite$"):
            GainPair(*gains)

    def test_accepts_numpy_scalars(self):
        assert GainPair(np.float64(0.5), np.float32(-1.0)).to_dict() == {"g_x": 0.5, "g_p": -1.0}


class TestCriteriaProperties:
    def test_optimal_gain_minimizes_conditional_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            state = random_physical_state(rng)
            quad = ("x", "p")[rng.integers(0, 2)]
            direction = ("b|a", "a|b")[rng.integers(0, 2)]
            best = conditional_variance(state, quad, direction,
                                        optimal_gain(state, quad, direction))
            g = rng.uniform(-3.0, 3.0)
            assert conditional_variance(state, quad, direction, g) >= best - 1e-12

    def test_optimal_product_never_beats_fixed_gains(self, ref_state):
        rng = np.random.default_rng(43)
        assert reid_product(ref_state, "b|a") <= reid_product(ref_state, "b|a", UNIT_GAINS)
        for _ in range(100):
            state = random_physical_state(rng)
            gains = GainPair(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert reid_product(state, "b|a") <= reid_product(state, "b|a", gains) + 1e-12

    def test_direction_symmetry_for_symmetrized_state(self, ref_state):
        g = ref_state.entries
        swap = np.zeros((4, 4))
        swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
        symmetrized = CovarianceMatrix(2, 0.5 * (g + swap @ g @ swap.T))
        assert reid_product(symmetrized, "b|a") == pytest.approx(
            reid_product(symmetrized, "a|b"), rel=1e-12)

    def test_separable_states_never_show_steering(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            state = random_product_state(rng)
            assert reid_product(state, "b|a") >= 1.0 - 1e-9
            assert reid_product(state, "a|b") >= 1.0 - 1e-9

    def test_duan_equals_unit_gain_conditional_sum(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            state = random_physical_state(rng)
            total = (conditional_variance(state, "x", "b|a", 1.0)
                     + conditional_variance(state, "p", "b|a", -1.0))
            assert duan_sum(state) == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestMatchesPerStateReference:
    def test_kernels_equal_the_entry_indexing_code(self):
        # every value is the same float arithmetic on the same entries, so equal exactly
        rng = np.random.default_rng(71)
        for _ in range(1000):
            state = random_physical_state(rng)
            g_x, g_p = rng.uniform(-2.0, 2.0, size=2)
            ref = reference_criteria(state, g_x, g_p)
            for quad, direction in ref["optimal_gain"]:
                labels = (quad, direction) if rng.random() < 0.5 else (quad.upper(), direction.upper())
                key = quad, direction
                gain = {"x": g_x, "p": g_p}[quad]
                assert optimal_gain(state, *labels) == ref["optimal_gain"][key]
                assert conditional_variance(state, *labels, gain) == ref["conditional_variance"][key]
                assert (conditional_variance(state, *labels, optimal_gain(state, *labels))
                        == ref["conditional_variance_at_optimum"][key])
            for direction in ("b|a", "a|b"):
                assert reid_product(state, direction) == ref["reid_optimal"][direction]
                assert reid_product(state, direction, "optimal") == ref["reid_optimal"][direction]
                assert (reid_product(state, direction, GainPair(g_x, g_p))
                        == ref["reid_fixed"][direction])
            assert duan_sum(state) == ref["duan_sum"]
            assert criteria_report(state).to_dict() == ref["criteria_report"]
            assert expected_measurements(state).values() == ref["expected_measurements"]
