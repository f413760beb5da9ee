import copy
import dataclasses
import json
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvsteer import (
    CovarianceMatrix,
    CriteriaReport,
    GainPair,
    InconsistentDataError,
    MeasurementSet,
    UNIT_GAINS,
    conditional_variance,
    criteria_report,
    duan_sum,
    expected_measurements,
    optimal_gain,
    phase_shift,
    reconstruct,
    reid_product,
    vacuum_state,
)
from cvsteer.gaussian import (LossChannel, SourceParams, _from_moments, apply_loss,
                              apply_symplectic, beamsplitter, build_epr_source, symplectic_form)
from cvsteer.reference import reference_state
from conftest import (_REFERENCE_INDICES, random_physical_state, random_product_state,
                      random_source_params, random_source_state, reference_criteria)

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

    @pytest.mark.parametrize("gain", [math.inf, -math.inf, math.nan])
    def test_refuses_a_gain_that_is_not_finite(self, ref_state, gain):
        with pytest.raises(ValueError) as exc:
            conditional_variance(ref_state, "x", "b|a", gain)
        assert str(exc.value) == f"conditional_variance: gain must be finite, got {gain!r}"
        with pytest.raises(ValueError, match="quad must be 'x' or 'p'"):  # labels first
            conditional_variance(ref_state, "y", "b|a", gain)

    def test_refuses_a_variance_that_is_not_finite(self, ref_state):
        with pytest.raises(ValueError) as exc:
            conditional_variance(ref_state, "x", "b|a", 1e308)
        assert str(exc.value) == ("conditional_variance: the X B|A variance at gain 1e+308 is nan, "
                                  "not a finite number")
        huge = CovarianceMatrix(2, np.diag([1e200] * 4))
        with pytest.raises(ValueError) as exc:
            conditional_variance(huge, "P", "A|B", -1e200)
        assert str(exc.value) == ("conditional_variance: the P A|B variance at gain -1e+200 is inf, "
                                  "not a finite number")
        assert conditional_variance(huge, "p", "a|b", 1.0) == 2e200


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

    @pytest.mark.parametrize("gains, direction, message", [
        # at 1e308 both g^2 Var and 2 g Cov overflow, and inf - inf is nan; at 1e200 only g^2 Var
        (GainPair(1e308, 1e308), "b|a", "the B|A product at GainPair(g_x=1e+308, g_p=1e+308) is nan"),
        (GainPair(1e200, 1.0), "B|A", "the B|A product at GainPair(g_x=1e+200, g_p=1.0) is inf"),
        (GainPair(1.0, 1e200), "a|b", "the A|B product at GainPair(g_x=1.0, g_p=1e+200) is inf"),
    ])
    def test_a_product_that_is_not_finite_is_refused(self, ref_state, gains, direction, message):
        with pytest.raises(ValueError) as exc:
            reid_product(ref_state, direction, gains)
        assert str(exc.value) == f"reid_product: {message}, not a finite number"


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

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(n_a=st.just(1.0) | st.floats(1.0, 10.0), n_b=st.just(1.0) | st.floats(1.0, 10.0),
           t=st.floats(0.0, 1.0), phi=st.floats(0.0, 3.0), theta=st.floats(0.0, 3.0))
    def test_passive_mixes_of_thermal_states_are_never_flagged(self, n_a, n_b, t, phi, theta):
        # a passive mix of two thermal states (vacuum at n = 1) is separable; its sum is 4
        # or more, and rounds to just below 4 for vacuum, within the flag's rounding bound
        state = CovarianceMatrix(2, np.diag([n_a, n_a, n_b, n_b]))
        for s in (phase_shift(phi, 0, 2), beamsplitter(t, 0, 1, 2), phase_shift(theta, 1, 2)):
            state = apply_symplectic(state, s)
        assert criteria_report(state).duan_inseparable is False


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

    def test_product_rounded_below_zero_gives_a_zero_ratio(self):
        # CovarianceMatrix accepts this X block at its Cauchy-Schwarz bound, but
        # the X B|A conditional variance rounds to -1.4e-14
        state = CovarianceMatrix(2, [[35.37985501855342, 0.0, -39.07527374549702, 0.0],
                                     [0.0, 1.0, 0.0, 0.0],
                                     [-39.07527374549702, 0.0, 43.156678213769524, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]])
        rep = criteria_report(state)
        assert rep.conditional_variances["x_b_given_a"] < 0.0 and rep.reid_b_given_a < 0.0
        assert rep.conditional_uncertainty_ratio == 0.0

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


def pinned_states(rng) -> list:
    """States whose reports are pinned bit for bit: reconstructions of jittered campaigns,
    states with X-P entries (random ones and the reference state phase-shifted off a
    quarter turn), signed zero covariances, and decoupled states with a covariance stepped
    ulp by ulp up to its Cauchy-Schwarz bound, those of them that CovarianceMatrix accepts."""
    states = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # reconstructions below the physicality gate
        while len(states) < 150:
            values = np.array(expected_measurements(random_source_state(rng)).values())
            jittered = values * (1.0 + 0.01 * rng.standard_normal(6))
            try:
                states.append(reconstruct(MeasurementSet(*jittered.tolist())))
            except InconsistentDataError:
                pass
    states += [random_physical_state(rng) for _ in range(100)]
    states += [apply_symplectic(reference_state(), phase_shift(theta, mode, 2))
               for theta in (0.1, 1.0, 2.5) for mode in (0, 1)]
    states += [CovarianceMatrix(2, _from_moments(2.0, 3.0, 5.0, 7.0, cx, cp))
               for cx in (0.0, -0.0) for cp in (0.0, -0.0)]
    for _ in range(100):
        xa, pa, xb, pb = rng.uniform(0.01, 100.0, 4).tolist()
        bound = math.sqrt(xa) * math.sqrt(xb)
        cov = bound * rng.choice([-1.0, 1.0])
        for _ in range(6):
            try:
                states.append(CovarianceMatrix(2, _from_moments(xa, pa, xb, pb, cov, 0.3 * pa)))
            except ValueError:  # at or past the bound: not positive definite
                pass
            cov = math.nextafter(cov, 0.0)
    return states


class TestRecordRoute:
    """criteria_report builds its CriteriaReport and GainPairs from checked floats,
    through gaussian._record: the records against constructor-built twins."""

    @staticmethod
    def twin(rep: CriteriaReport) -> CriteriaReport:
        fields = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
        for name in ("optimal_gains_b_given_a", "optimal_gains_a_given_b"):
            fields[name] = GainPair(fields[name].g_x, fields[name].g_p)
        fields["conditional_variances"] = dict(fields["conditional_variances"])
        return CriteriaReport(**fields)

    @pytest.mark.parametrize("clone", [lambda r: r, copy.copy, copy.deepcopy, dataclasses.replace,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["itself", "copy", "deepcopy", "replace", "pickle"])
    def test_equals_the_constructor(self, ref_state, clone):
        coupled = apply_symplectic(ref_state, phase_shift(0.3, 1, 2))
        for state in (ref_state, coupled, reconstruct(MeasurementSet(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)),
                      CovarianceMatrix(2, _from_moments(2.0, 3.0, 5.0, 7.0, -0.0, -0.0))):
            rep = criteria_report(state)
            got, twin = clone(rep), self.twin(rep)
            assert type(got) is CriteriaReport
            assert got == twin and repr(got) == repr(twin) and vars(got) == vars(twin)
            assert repr(got.to_dict()) == repr(twin.to_dict())
            for name in ("optimal_gains_b_given_a", "optimal_gains_a_given_b"):
                gains, expected = getattr(got, name), getattr(twin, name)
                assert type(gains) is GainPair
                assert gains == expected and repr(gains) == repr(expected)
                assert vars(gains) == vars(expected)
                assert hash(gains) == hash(expected)
                assert repr(gains.to_dict()) == repr(expected.to_dict())
                with pytest.raises(dataclasses.FrozenInstanceError):
                    gains.g_x = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.duan_sum = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del got.reid_b_given_a

    @pytest.mark.parametrize("six, key, message", [
        ((5e-324, 1.0, 1e300, 1.0, 1e-12, 0.0), ("x", "b|a"),
         "optimal_gains_b_given_a: g_x = Cov/Var = 1e-12/5e-324"),
        ((1.0, 5e-324, 1.0, 1e300, 0.0, -1e-12), ("p", "b|a"),
         "optimal_gains_b_given_a: g_p = Cov/Var = -1e-12/5e-324"),
        ((1e300, 1.0, 5e-324, 1.0, -1e-12, 0.0), ("x", "a|b"),
         "optimal_gains_a_given_b: g_x = Cov/Var = -1e-12/5e-324"),
        ((1.0, 1e300, 1.0, 5e-324, 0.0, 1e-12), ("p", "a|b"),
         "optimal_gains_a_given_b: g_p = Cov/Var = 1e-12/5e-324"),
    ])
    def test_an_overflowed_gain_is_named_with_its_quotient(self, six, key, message):
        # the report, the gain itself and the product of its direction refuse it alike
        state = CovarianceMatrix(2, _from_moments(*six))
        quad, direction = key
        for who, call in (("criteria_report", lambda: criteria_report(state)),
                          ("optimal_gain", lambda: optimal_gain(state, quad, direction)),
                          ("optimal_gain", lambda: optimal_gain(state, quad.upper(), direction.upper())),
                          ("reid_product", lambda: reid_product(state, direction)),
                          ("reid_product", lambda: reid_product(state, direction, "optimal"))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"{who}: {message} overflows the float range"

    def test_the_first_overflowed_gain_in_field_order_is_named(self):
        state = CovarianceMatrix(2, _from_moments(1e300, 5e-324, 5e-324, 1e300, 1e-12, 1e-12))
        with pytest.raises(ValueError, match=r"^criteria_report: optimal_gains_b_given_a: g_p "):
            criteria_report(state)

    def test_the_gains_that_do_not_overflow_stand(self):
        # the table's first state, analyze's overflow case: only g_x B|A = 1e-12/5e-324 overflows
        state = CovarianceMatrix(2, _from_moments(5e-324, 1.0, 1e300, 1.0, 1e-12, 0.0))
        assert repr(optimal_gain(state, "x", "a|b")) == "1e-312"
        assert repr(optimal_gain(state, "p", "b|a")) == "0.0"
        assert repr(optimal_gain(state, "p", "a|b")) == "0.0"

    def test_per_state_criteria_refuse_exactly_their_own_overflowed_gain(self):
        # Each optimal_gain and optimal reid_product equals the report's field by repr, or,
        # where the report refuses, the entry-indexing reference; it refuses exactly when its
        # own gain (for a product, either of its direction's two) overflows, naming it.
        rng = np.random.default_rng(79)
        states = [random_physical_state(rng) for _ in range(200)]
        states += [CovarianceMatrix(2, _from_moments(*six)) for six in (
            (5e-324, 1.0, 1e300, 1.0, 1e-12, 0.0), (1e300, 5e-324, 5e-324, 1e300, 1e-12, 1e-12))]
        for _ in range(200):  # subnormal variances, covariances up to their Cauchy-Schwarz bound
            tiny = (rng.integers(1, 2 ** 10, 2) * 5e-324).tolist()
            big = (10.0 ** rng.uniform(295.0, 307.5, 2)).tolist()
            if rng.random() < 0.5:
                tiny, big = big, tiny
            xa, pa, xb, pb = tiny[0], big[1], big[0], tiny[1]
            cx, cp = (f * math.sqrt(v_a) * math.sqrt(v_b) for f, v_a, v_b in zip(
                rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-6.0, -0.01, 2), (xa, pa), (xb, pb)))
            states.append(CovarianceMatrix(2, _from_moments(xa, pa, xb, pb, cx, cp)))
        refused = returned = 0
        for state in states:
            with np.errstate(over="ignore", invalid="ignore"):  # the reference's inf gains
                ref = reference_criteria(state, 1.0, -1.0)
            try:
                report = criteria_report(state).to_dict()
            except ValueError:
                report = None
            g = state.entries.tolist()
            overflowed = {}  # (quad, direction) -> the refusal that names its gain, or None
            for (quad, direction), gain in ref["optimal_gain"].items():
                t, s = _REFERENCE_INDICES[quad, direction]
                overflowed[quad, direction] = None if math.isfinite(gain) else (
                    f"optimal_gains_{direction.replace('|', '_given_')}: g_{quad} = Cov/Var = "
                    f"{g[t][s]!r}/{g[s][s]!r} overflows the float range")
            assert (report is None) == any(overflowed.values())
            for (quad, direction), message in overflowed.items():
                if message:
                    refused += 1
                    with pytest.raises(ValueError) as exc:
                        optimal_gain(state, quad, direction)
                    assert str(exc.value) == f"optimal_gain: {message}"
                else:
                    returned += 1
                    gain = optimal_gain(state, quad, direction)
                    assert repr(gain) == repr(ref["optimal_gain"][quad, direction])
                    field = "optimal_gains_" + direction.replace("|", "_given_")
                    assert report is None or repr(gain) == repr(report[field][f"g_{quad}"])
            for direction in ("b|a", "a|b"):
                message = overflowed["x", direction] or overflowed["p", direction]
                if message:
                    with pytest.raises(ValueError) as exc:
                        reid_product(state, direction)
                    assert str(exc.value) == f"reid_product: {message}"
                else:
                    value = reid_product(state, direction)
                    assert repr(value) == repr(ref["reid_optimal"][direction])
                    name = "reid_" + direction.replace("|", "_given_")
                    assert report is None or repr(value) == repr(report[name])
        # the subnormal states reach both outcomes
        assert refused > 100 and returned > 1000


class TestGainPair:
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
            # repr, not ==, so that -0.0 against 0.0 or a numpy scalar would show
            assert repr(criteria_report(state).to_dict()) == repr(ref["criteria_report"])
            assert expected_measurements(state).values() == ref["expected_measurements"]

    def test_report_bits_on_reconstructions_coupled_and_near_bound_states(self):
        states = pinned_states(np.random.default_rng(73))
        for state in states:
            rep = criteria_report(state)
            assert repr(rep.to_dict()) == repr(reference_criteria(state, 1.0, -1.0)["criteria_report"])
            # the product of the joint variances is the product at UNIT_GAINS, bit for bit
            assert repr(rep.unit_gain_product) == repr(reid_product(state, "b|a", UNIT_GAINS))
        # the near-bound states reach a conditional variance rounded below 0
        assert any(min(criteria_report(s).conditional_variances.values()) < 0.0 for s in states)


# Fixed before the comparison ran; 3 000 states gave a worst case of 4.0e-14.
EXACT_RTOL = 1e-11


def exact_criteria(values):
    """Both Reid products, the Duan sum and the unit-gain product of the six campaign
    variances, in exact rational arithmetic on the same floats."""
    xa, pa, xb, pb, x_diff, p_sum = map(Fraction, values)
    cov_x, cov_p = (xa + xb - x_diff) / 2, (p_sum - pa - pb) / 2
    return {"reid_b_given_a": (xb - cov_x ** 2 / xa) * (pb - cov_p ** 2 / pa),
            "reid_a_given_b": (xa - cov_x ** 2 / xb) * (pa - cov_p ** 2 / pb),
            "duan_sum": (xa + xb - 2 * cov_x) + (pa + pb + 2 * cov_p),
            "unit_gain_product": (xb + xa - 2 * cov_x) * (pb + pa + 2 * cov_p)}


class TestExactArithmeticOracle:
    def test_forward_states_match_rational_arithmetic(self):
        # forward states up to 20 dB (r <= 2.3), with loss and dark noise, through the
        # reconstruction: each criterion within EXACT_RTOL of its exact value
        rng = np.random.default_rng(97)
        for _ in range(600):
            r1, r2 = rng.uniform(0.0, 2.3, 2)
            eta = rng.uniform(0.5, 1.0, 3)
            params = SourceParams(r1=r1, r2=r2, eta_prep=eta[0], eta_det_a=eta[1],
                                  eta_det_b=eta[2], dark_noise=rng.uniform(0.0, 0.01))
            ms = expected_measurements(build_epr_source(params))
            report = criteria_report(reconstruct(ms)).to_dict()
            for name, exact in exact_criteria(ms.values()).items():
                assert exact > 0
                assert abs(Fraction(report[name]) - exact) <= EXACT_RTOL * exact, (name, params)


# Fixed before the comparison ran; its 600 states gave a worst case of 3.3e-14.
SCHUR_RTOL = 1e-11


def schur_reid(entries, order):
    """det(Γ_B - Cᵀ Γ_A⁻¹ C) for the modes ordered (A, B) = order, from the last two pivots
    of the Cholesky factor: the optimal Reid product B|A of a decoupled state."""
    idx = [2 * order[0], 2 * order[0] + 1, 2 * order[1], 2 * order[1] + 1]
    lower = np.linalg.cholesky(np.asarray(entries)[np.ix_(idx, idx)])
    return float((lower[2, 2] * lower[3, 3]) ** 2)


class TestSchurComplementOracle:
    def test_reid_is_the_determinant_of_the_conditional_covariance(self):
        # forward states up to 20 dB (r <= 2.3) with detection loss and dark noise, and their
        # reconstructions, clean and with 1% jitter: both optimal products are the Schur
        # complement's determinant within SCHUR_RTOL
        rng = np.random.default_rng(101)
        states = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # jittered reconstructions below the physicality gate
            while len(states) < 600:
                r1, r2 = rng.uniform(0.0, 2.3, 2)
                eta = rng.uniform(0.5, 1.0, 3)
                state = build_epr_source(SourceParams(r1=r1, r2=r2, eta_prep=eta[0],
                                                      eta_det_a=eta[1], eta_det_b=eta[2],
                                                      dark_noise=rng.uniform(0.0, 0.01)))
                values = np.array(expected_measurements(state).values())
                states += [state, reconstruct(MeasurementSet(*values.tolist()))]
                try:
                    states.append(reconstruct(MeasurementSet(
                        *(values * (1.0 + 0.01 * rng.standard_normal(6))).tolist())))
                except InconsistentDataError:
                    pass
        for state in states:
            report = criteria_report(state)
            for name, order in (("reid_b_given_a", (0, 1)), ("reid_a_given_b", (1, 0))):
                expected = schur_reid(state.entries, order)
                assert abs(getattr(report, name) - expected) <= SCHUR_RTOL * expected, (name, state)


# Fixed before the run: the physicality gate, far above the eigensolver's rounding on
# entries of at most ~1e3.
PPT_MARGIN = 1e-9


def partial_transpose_nu_min(entries) -> float:
    """The least symplectic eigenvalue of the partial transpose P Γ P, P = diag(1, 1, 1, -1):
    the least modulus among the eigenvalues of Ω P Γ P (Simon, PRL 84, 2726, 2000).  Below 1
    exactly when the two-mode Gaussian state is entangled."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.min(np.abs(np.linalg.eigvals(symplectic_form(2) @ flip @ entries @ flip))))


def decoupled_part(state):
    """The state with its X-P entries dropped: (Γ + R Γ R) / 2, R = diag(1, -1, 1, -1), a
    mixture of the state and its transpose, so physical too."""
    e = state.entries
    return CovarianceMatrix(2, _from_moments(e[0, 0], e[1, 1], e[2, 2], e[3, 3], e[0, 2], e[1, 3]))


class TestPartialTransposeOracle:
    @pytest.mark.parametrize("family", ["coupled", "decoupled", "forward"])
    def test_every_flag_implies_a_partial_transpose_below_1(self, family):
        # Duan's sum below 4 and either Reid product below 1 each witness entanglement, which
        # for a two-mode Gaussian state is nu_min of the partial transpose below 1
        rng = np.random.default_rng(107)
        flagged = {"duan_inseparable": 0, "steering_b_given_a": 0, "steering_a_given_b": 0}
        for k in range(400):
            if family == "forward":  # at a quarter turn and T = 1/2, and at any phase and T
                state = random_source_state(rng) if k % 2 else build_epr_source(
                    random_source_params(rng))
            else:
                state = random_physical_state(rng, with_loss=rng.random() < 0.7)
                state = decoupled_part(state) if family == "decoupled" else state
            report = criteria_report(state)
            nu_min = partial_transpose_nu_min(state.entries)
            for flag in flagged:
                if getattr(report, flag):
                    flagged[flag] += 1
                    assert nu_min < 1.0 + PPT_MARGIN, (flag, nu_min, state)
        assert min(flagged.values()) > 0, flagged  # each flag was put to the test


class TestLossThresholdOfPureStates:
    """A lossless symmetric source is a pure two-mode squeezed state, V = cosh 2r.  Loss η on
    the inferring arm A gives X and P conditional variances of B each
    V - η (V^2 - 1) / (η V + 1 - η), exactly 1 at η = 1/2 for every r; loss on B alone
    gives 1 - η (1 - 1/V) < 1."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(r=st.floats(0.5, 3.0))
    @example(r=0.5)
    @example(r=1.0)
    @example(r=2.0)
    @example(r=3.0)
    def test_steering_b_by_a_ends_at_half_loss_on_a(self, r):
        state = build_epr_source(SourceParams(r1=r, r2=r))

        def product(eta):
            return reid_product(apply_loss(state, LossChannel(0, eta)), "b|a")

        # fixed before the run: each factor subtracts Cov^2 / Var from Var, with Cov^2 as
        # large as e^(4r) / 4
        tol = np.finfo(float).eps * math.exp(4.0 * r)
        assert product(0.5 - 1e-6) > 1.0
        assert product(0.5 + 1e-6) < 1.0
        assert abs(product(0.5) - 1.0) <= tol

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_loss_on_b_alone_keeps_b_given_a_below_1(self, r):
        state = build_epr_source(SourceParams(r1=r, r2=r))
        for eta in np.linspace(0.01, 1.0, 100).tolist():
            assert reid_product(apply_loss(state, LossChannel(1, eta)), "b|a") < 1.0, eta


def wjd_lambda_min(entries, steered: int) -> float:
    """The least eigenvalue of Γ + i(Ω on the steered mode, 0 on the other): negative exactly
    when the other mode steers the steered one by Gaussian measurements (Wiseman, Jones and
    Doherty, PRL 98, 140402, 2007)."""
    omega = np.zeros((4, 4))
    omega[2 * steered:2 * steered + 2, 2 * steered:2 * steered + 2] = [[0.0, 1.0], [-1.0, 0.0]]
    return float(np.linalg.eigvalsh(np.asarray(entries) + 1j * omega)[0])


# Fixed before the run: products this close to 1 are left out, where the sign of the least
# eigenvalue is within the eigensolver's rounding.
WJD_MARGIN = 1e-9


class TestWisemanJonesDohertyEquivalence:
    """For a decoupled state the Schur complement of Γ + i(0_A ⊕ Ω_B) is the conditional
    covariance diag(Var X_B|X_A, Var P_B|P_A) + iΩ_B, positive semidefinite exactly when its
    determinant, the optimal Reid product B|A, is at least 1: so Reid B|A < 1 exactly when
    A steers B by Gaussian measurements, and A|B likewise with Ω_A."""

    def test_reid_below_1_exactly_when_the_wjd_matrix_is_not_positive(self):
        verdicts = {"b|a": set(), "a|b": set()}

        # forward states at a quarter turn, so decoupled, with losses and dark noise mild
        # enough that both verdicts are drawn
        @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
        @given(r=st.tuples(st.floats(0.0, 2.3), st.floats(0.0, 2.3)),
               transmittance=st.floats(0.05, 0.95),
               eta=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0), st.floats(0.5, 1.0)),
               dark_noise=st.floats(0.0, 0.1))
        def check(r, transmittance, eta, dark_noise):
            state = build_epr_source(SourceParams(
                r1=r[0], r2=r[1], transmittance=transmittance, eta_prep=eta[0],
                eta_det_a=eta[1], eta_det_b=eta[2], dark_noise=dark_noise))
            assert state._six is not None  # decoupled
            for direction, steered in (("b|a", 1), ("a|b", 0)):
                product = reid_product(state, direction)
                if abs(product - 1.0) <= WJD_MARGIN:
                    continue
                steers = product < 1.0
                assert steers == (wjd_lambda_min(state.entries, steered) < 0.0), (direction, state)
                verdicts[direction].add(steers)

        check()
        assert verdicts == {"b|a": {True, False}, "a|b": {True, False}}
