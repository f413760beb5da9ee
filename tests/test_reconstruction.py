import math
import warnings

import numpy as np
import pytest

from cvsteer import (
    CovarianceMatrix,
    InconsistentDataError,
    MeasurementSet,
    PhysicalityWarning,
    covariance_from_sum,
    expected_measurements,
    optimal_gain,
    conditional_variance,
    propagate_errors,
    reconstruct,
    symplectic_eigenvalues,
    vacuum_state,
)
from cvsteer.reference import REFERENCE_COVARIANCE
from conftest import random_source_state

VACUUM_SET = MeasurementSet(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)


class TestCovarianceIdentity:
    def test_sum_path_reproduces_p_covariance(self):
        assert covariance_from_sum(0.20, 35.49, 34.61) == pytest.approx(-34.95, abs=1e-12)

    def test_difference_path_reproduces_x_covariance(self):
        # Var(XA - XB) = Var(XA + (-XB)), so the identity returns -Cov(XA, XB).
        assert -covariance_from_sum(0.21, 18.41, 17.98) == pytest.approx(18.09, abs=1e-12)

    def test_independent_variables_give_zero(self):
        assert covariance_from_sum(3.5, 1.5, 2.0) == 0.0

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(ValueError):
            covariance_from_sum(1.0, 0.0, 1.0)


class TestReconstruct:
    def test_reference_set_reproduces_published_matrix(self, ref_ms):
        state = reconstruct(ref_ms)
        assert np.max(np.abs(state.entries - REFERENCE_COVARIANCE)) <= 1e-12

    def test_uncorrelated_vacua(self):
        np.testing.assert_allclose(reconstruct(VACUUM_SET).entries, np.eye(4), atol=1e-14)

    def test_roundtrip_on_zero_cross_term_states(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            state = random_source_state(rng)
            back = reconstruct(expected_measurements(state))
            assert np.max(np.abs(back.entries - state.entries)) <= 1e-12

    def test_cauchy_schwarz_violation_raises_structured_error(self):
        bad = MeasurementSet(1.0, 1.0, 1.0, 1.0, 80.0, 2.0)
        with pytest.raises(InconsistentDataError) as exc:
            reconstruct(bad)
        assert exc.value.entry == "x"
        assert exc.value.excess > 0

    def test_near_maximal_correlation_is_accepted(self):
        # |cov| just inside sqrt(var*var): passes the consistency gate and
        # reconstructs (with a physicality warning), no clamping.
        ms = MeasurementSet(1.0, 1.0, 1.0, 1.0, 2.0, 0.04, relative_error=0.05)
        with pytest.warns(PhysicalityWarning):
            state = reconstruct(ms)
        assert state.entries[1, 3] == pytest.approx(-0.98, abs=1e-12)

    def test_near_boundary_matrix_warns_but_returns(self):
        ms = MeasurementSet(1.0, 1.0, 1.0, 1.0, 0.5, 0.5)
        with pytest.warns(PhysicalityWarning, match="unphysical"):
            state = reconstruct(ms)
        assert np.min(symplectic_eigenvalues(state)) < 1.0

    def test_physical_result_does_not_warn(self, ref_ms):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhysicalityWarning)
            reconstruct(ref_ms)


class TestPropagateErrors:
    def test_zero_relative_error(self):
        ms = MeasurementSet(*VACUUM_SET.values(), relative_error=0.0)
        np.testing.assert_array_equal(propagate_errors(ms), np.zeros((4, 4)))

    def test_reference_diagonal_uncertainty(self, ref_ms):
        sig = propagate_errors(ref_ms)
        assert sig[0, 0] == pytest.approx(0.05 * 18.41, abs=1e-12)
        assert sig[3, 3] == pytest.approx(0.05 * 34.61, abs=1e-12)

    def test_reference_covariance_uncertainty(self, ref_ms):
        sig = propagate_errors(ref_ms)
        expected = 0.5 * math.sqrt(
            (0.05 * 18.41) ** 2 + (0.05 * 17.98) ** 2 + (0.05 * 0.21) ** 2)
        assert sig[0, 2] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.643, abs=1e-3)
        assert sig[0, 2] == sig[2, 0]

    def test_convention_entries_carry_no_uncertainty(self, ref_ms):
        sig = propagate_errors(ref_ms)
        assert sig[0, 1] == sig[0, 3] == sig[1, 2] == sig[2, 3] == 0.0

    def test_squares_past_the_float_range_give_inf(self):
        # (0.05 * 1e200) ** 2 overflows; the band is inf, not an OverflowError
        ms = MeasurementSet(1e200, 1e200, 1e200, 1e200, 2e200, 2e200)
        sig = propagate_errors(ms)
        assert sig[0, 2] == sig[1, 3] == math.inf and sig[0, 0] == 5e198
        assert reconstruct(ms).entries[0, 0] == 1e200


class TestMeasurementSetIO:
    def test_json_roundtrip(self, ref_ms):
        again = MeasurementSet.from_dict(ref_ms.to_dict())
        assert again == ref_ms

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="var_p_sum"):
            MeasurementSet.from_dict({"var_xa": 1, "var_pa": 1, "var_xb": 1,
                                      "var_pb": 1, "var_x_diff": 2})

    def test_json_must_be_an_object(self, ref_ms):
        with pytest.raises(ValueError, match="expected an object"):
            MeasurementSet.from_dict([ref_ms.to_dict()])

    @pytest.mark.parametrize("field, value, match", [
        ("metadata", 5, "metadata must be an object"),
        ("var_xa", [18.41], "non-numeric"),
        ("relative_error", None, "non-numeric"),
    ])
    def test_json_badly_typed_fields(self, ref_ms, field, value, match):
        d = ref_ms.to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=match):
            MeasurementSet.from_dict(d)

    def test_csv_roundtrip(self, ref_ms):
        again = MeasurementSet.from_csv(ref_ms.to_csv())
        assert again.values() == ref_ms.values()

    def test_csv_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            MeasurementSet.from_csv("a,b,c\n1,2,3\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="var_xb"):
            MeasurementSet(1.0, 1.0, -1.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="relative_error"):
            MeasurementSet(*VACUUM_SET.values(), relative_error=1.0)


def _min_two_gain_variance(entries, target, g1_idx, g2_idx):
    """Brute-force minimum of Var(O_t - g1 O_1 - g2 O_2) by nested grid search."""
    g = entries

    def value(g1, g2):
        return (g[target, target] + g1 ** 2 * g[g1_idx, g1_idx] + g2 ** 2 * g[g2_idx, g2_idx]
                - 2 * g1 * g[target, g1_idx] - 2 * g2 * g[target, g2_idx]
                + 2 * g1 * g2 * g[g1_idx, g2_idx])

    c1, c2, width = 0.0, 0.0, 4.0
    best = value(c1, c2)
    for _ in range(6):
        g1s = np.linspace(c1 - width, c1 + width, 41)
        g2s = np.linspace(c2 - width, c2 + width, 41)
        gg1, gg2 = np.meshgrid(g1s, g2s)
        vals = value(gg1, gg2)
        k = np.unravel_index(np.argmin(vals), vals.shape)
        best, c1, c2 = vals[k], gg1[k], gg2[k]
        width /= 8.0
    return best


class TestZeroCompletionNeverOverestimates:
    def test_multivariate_gain_on_completions_only_helps(self):
        # Complete the unmeasured X-P cross terms with random small values
        # (keeping the matrix physical); a steering party allowed to combine
        # both of her quadratures can then only do better than the
        # zero-completion single-gain bound, never worse.
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 200:
            base = random_source_state(rng)
            m = base.entries.copy()
            scale = 0.2 * math.sqrt(min(m[0, 0], m[1, 1], m[2, 2], m[3, 3]))
            for (i, j) in ((0, 1), (0, 3), (2, 1), (2, 3)):
                eps = rng.uniform(-scale, scale)
                m[i, j] += eps
                m[j, i] += eps
            try:
                completed = CovarianceMatrix(2, m)
            except ValueError:
                continue
            if np.min(symplectic_eigenvalues(completed)) < 1.0:
                continue
            checked += 1
            zero_vx = conditional_variance(base, "x", "b|a", optimal_gain(base, "x", "b|a"))
            zero_vp = conditional_variance(base, "p", "b|a", optimal_gain(base, "p", "b|a"))
            multi_vx = _min_two_gain_variance(completed.entries, target=2, g1_idx=0, g2_idx=1)
            multi_vp = _min_two_gain_variance(completed.entries, target=3, g1_idx=1, g2_idx=0)
            assert zero_vx >= multi_vx - 1e-9
            assert zero_vp >= multi_vp - 1e-9


class TestCorrelationMonotonicity:
    def test_stronger_correlations_never_increase_reid_product(self, ref_ms):
        # shrinking the joint variances (tighter correlations) can only
        # lower the steering product, across the reference neighborhood;
        # draws that tighten past the positive-definite boundary are skipped
        from cvsteer import reid_product
        rng = np.random.default_rng(73)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PhysicalityWarning)
            for _ in range(400):
                singles = np.array(ref_ms.values()[:4]) * (1 + 0.05 * rng.standard_normal(4))
                joints = np.array(ref_ms.values()[4:]) * (1 + 0.05 * rng.standard_normal(2))
                f_x, f_p = rng.uniform(0.5, 1.0, size=2)
                try:
                    base = reconstruct(MeasurementSet(*singles, *joints))
                    tighter = reconstruct(MeasurementSet(*singles, joints[0] * f_x,
                                                         joints[1] * f_p))
                except ValueError:
                    continue
                checked += 1
                assert (reid_product(tighter, "b|a")
                        <= reid_product(base, "b|a") + 1e-9)
        assert checked >= 200


class TestExpectedMeasurements:
    def test_reads_reference_values(self, ref_state, ref_ms):
        ms = expected_measurements(ref_state, relative_error=0.05)
        assert ms.values() == pytest.approx(ref_ms.values(), abs=1e-12)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            expected_measurements(vacuum_state(1))
