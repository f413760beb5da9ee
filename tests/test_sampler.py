import math
import re
import tracemalloc

import numpy as np
import pytest

import cvsteer.sampler as sampler_mod
from cvsteer import (
    CovarianceMatrix,
    MeasurementSet,
    MeasurementSetting,
    SampleBatch,
    build_epr_source,
    campaign_batches,
    canonical_settings,
    criteria_report,
    measure_campaign,
    reconstruct,
    sample_quadratures,
    sample_variance,
    samples_to_csv,
    vacuum_state,
)
from conftest import (
    random_source_params,
    reference_projection_campaign,
    reference_sample_quadratures,
)

X_DIFF = MeasurementSetting.joint(1.0, -1.0)
P_SUM = MeasurementSetting.joint(1.0, 1.0, math.pi / 2, math.pi / 2)


class TestSettings:
    def test_canonical_labels(self):
        labels = [s.label() for s in canonical_settings()]
        assert labels == ["x_a", "p_a", "x_b", "p_b", "x_a-x_b", "p_a+p_b"]

    def test_projection_vectors(self):
        np.testing.assert_allclose(X_DIFF.projection_vector(), [1, 0, -1, 0], atol=1e-15)
        np.testing.assert_allclose(P_SUM.projection_vector(), [0, 1, 0, 1], atol=1e-12)
        np.testing.assert_allclose(MeasurementSetting.single(1, 0.0).projection_vector(),
                                   [0, 0, 1, 0], atol=1e-15)

    def test_dark_factor_counts_detectors(self):
        assert MeasurementSetting.single(0).dark_factor() == 1.0
        assert X_DIFF.dark_factor() == 2.0
        assert MeasurementSetting.joint(0.5, -0.5).dark_factor() == 0.5

    def test_default_is_x_a(self):
        assert MeasurementSetting() == MeasurementSetting.single(0, 0.0)
        assert MeasurementSetting().label() == "x_a"

    def test_single_is_the_form_with_one_unit_coefficient(self):
        assert MeasurementSetting.single(0, 0.3) == MeasurementSetting.joint(1.0, 0.0, 0.3)
        assert MeasurementSetting.single(1, 0.3) == MeasurementSetting.joint(0.0, 1.0, 0.0, 0.3)
        assert MeasurementSetting.joint(1.0, 0.0, math.pi / 2).label() == "p_a"
        assert MeasurementSetting.single(1, 0.3).dark_factor() == 1.0

    def test_projection_vector_is_the_linear_form(self):
        # one formula for every setting, exact (0.0 * cos 0 = 0.0)
        assert MeasurementSetting.single(1, 0.3).projection_vector().tolist() == [
            0.0, 0.0, math.cos(0.3), math.sin(0.3)]
        joint = MeasurementSetting.joint(0.5, -2.0, 0.1, 1.2)
        assert joint.projection_vector().tolist() == [
            0.5 * math.cos(0.1), 0.5 * math.sin(0.1), -2.0 * math.cos(1.2), -2.0 * math.sin(1.2)]

    @pytest.mark.parametrize("setting, label", [
        (MeasurementSetting.single(1, 0.3), "single(mode=1,angle=0.3)"),
        (MeasurementSetting.single(0, 1.1), "single(mode=0,angle=1.1)"),
        (MeasurementSetting.joint(0.5, -2.0, 0.1, 1.2),
         "joint(ca=0.5,cb=-2,angle_a=0.1,angle_b=1.2)"),
    ])
    def test_non_canonical_labels(self, setting, label):
        assert setting.label() == label

    def test_coefficients_are_stored_as_a_float_pair(self):
        setting = MeasurementSetting(coefficients=[1, -1])
        assert setting.coefficients == (1.0, -1.0)
        assert setting.label() == "x_a-x_b"

    @pytest.mark.parametrize("mode", [-1, 2, 1.0, True])
    def test_single_mode_checked_when_built(self, mode):
        message = (f"mode {mode} out of range for 2 modes" if type(mode) is int
                   else f"mode must be an integer, got {mode!r}")
        with pytest.raises(ValueError, match=f"^MeasurementSetting: {re.escape(message)}$"):
            MeasurementSetting.single(mode)


class TestSampleQuadratures:
    def test_vacuum_variance_within_band(self):
        n = 10 ** 6
        batch = sample_quadratures(vacuum_state(2), MeasurementSetting.single(0), n, seed=1)
        assert sample_variance(batch) == pytest.approx(1.0, abs=0.01)

    def test_reference_joint_variance_within_band(self, ref_state):
        n = 10 ** 6
        batch = sample_quadratures(ref_state, X_DIFF, n, seed=2)
        sigma = 0.21 * math.sqrt(2.0 / n)
        assert abs(sample_variance(batch) - 0.21) <= 3.0 * sigma

    def test_fixed_seed_is_deterministic(self, ref_state):
        b1 = sample_quadratures(ref_state, P_SUM, 1000, seed=9, dark_noise=0.006)
        b2 = sample_quadratures(ref_state, P_SUM, 1000, seed=9, dark_noise=0.006)
        assert np.array_equal(b1.values, b2.values)
        b3 = sample_quadratures(ref_state, P_SUM, 1000, seed=10, dark_noise=0.006)
        assert not np.array_equal(b1.values, b3.values)

    def test_batches_compare_by_value_and_are_unhashable(self, ref_state):
        b1 = sample_quadratures(ref_state, P_SUM, 100, seed=9)
        b2 = sample_quadratures(ref_state, P_SUM, 100, seed=9)
        assert b1 == b2 and b1 in [b2]
        assert b1 != sample_quadratures(ref_state, P_SUM, 100, seed=10)
        assert b1 != SampleBatch(setting=X_DIFF, values=b1.values, seed=9, n=100)
        assert b1 != SampleBatch(setting=P_SUM, values=b1.values[:99], seed=9, n=99)
        with pytest.raises(TypeError, match="unhashable"):
            hash(b1)
        b2.values[0] += 1.0  # writeable, hence unhashable
        assert b1 != b2

    def test_unphysical_state_rejected(self):
        import cvsteer.gaussian as g
        bad = object.__new__(g.CovarianceMatrix)
        object.__setattr__(bad, "n_modes", 2)
        object.__setattr__(bad, "entries", np.diag([0.2, 0.2, 1.0, 1.0]))
        with pytest.raises(ValueError, match="unphysical"):
            sample_quadratures(bad, X_DIFF, 100, seed=0)

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_needs_a_two_mode_state(self, n_modes):
        with pytest.raises(ValueError,
                           match=f"^sampler: expected a two-mode state, got {n_modes} modes$"):
            sample_quadratures(vacuum_state(n_modes), X_DIFF, 10, seed=0)

    def test_joint_equals_combined_marginals_at_same_seed(self, ref_state):
        # same seed -> same latent quadrature vectors, so the joint batch is
        # the sample-by-sample combination of the two single batches
        n = 20000
        xa = sample_quadratures(ref_state, MeasurementSetting.single(0), n, seed=5)
        xb = sample_quadratures(ref_state, MeasurementSetting.single(1), n, seed=5)
        joint = sample_quadratures(ref_state, X_DIFF, n, seed=5)
        np.testing.assert_allclose(joint.values, xa.values - xb.values,
                                   rtol=0, atol=1e-9)
        composed_var = np.var(xa.values - xb.values, ddof=1)
        assert sample_variance(joint) == pytest.approx(composed_var, rel=1e-9)

    def test_matches_one_shot_reference(self, ref_state):
        # chunked projection of the same latent stream; tolerance fixed from
        # the double rounding scale before comparing
        settings = canonical_settings() + [MeasurementSetting.single(1, 0.3),
                                           MeasurementSetting.joint(0.5, -2.0, 0.1, 1.2)]
        chunk = sampler_mod._CHUNK
        for n in (2, 3, chunk - 1, chunk + 1, 70_000):
            for seed in range(3):
                for setting in settings:
                    want = reference_sample_quadratures(ref_state, setting, n, seed)
                    got = sample_quadratures(ref_state, setting, n, seed).values
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=1e-13 * np.max(np.abs(want)))

    def test_shares_the_campaign_draws(self, ref_state):
        # with dark noise on, X_A is the campaign's X_A: same latent and dark streams
        n = sampler_mod._CHUNK + 1
        single = sample_quadratures(ref_state, canonical_settings()[0], n, 6, 0.006).values
        campaign = campaign_batches(ref_state, n, 6, 0.006)[0].values
        np.testing.assert_allclose(single, campaign, rtol=0,
                                   atol=1e-13 * np.max(np.abs(campaign)))


@pytest.mark.parametrize("diagonal, dark, entry", [
    ([1.7e308, 1.0, 1.0, 1.0], 0.0, "1.7e+308"),
    ([1.0, 1.0, 1.0, 1.0], 1e307, "1"),
])
@pytest.mark.filterwarnings("error")
def test_overflowing_campaign_is_named(diagonal, dark, entry):
    # the sums of squares overflow: one error naming the state and the dark noise
    message = f"overflow (largest state entry {entry}, dark-noise variance {dark:.6g})"
    with pytest.raises(ValueError, match=re.escape(message)):
        measure_campaign(CovarianceMatrix(2, np.diag(diagonal)), 100, seed=0, dark_noise=dark)


class TestSampleVariance:
    def test_constant_batch(self):
        b = SampleBatch(MeasurementSetting.single(0), np.array([2.0, 2.0, 2.0]), 0, 3)
        assert sample_variance(b) == 0.0

    def test_two_point_batch(self):
        b = SampleBatch(MeasurementSetting.single(0), np.array([-1.0, 1.0]), 0, 2)
        assert sample_variance(b) == pytest.approx(2.0, abs=1e-15)

    def test_estimator_consistency_over_seeds(self, ref_state):
        n = 10 ** 4
        bound = 5.0 * math.sqrt(2.0 / n)
        hits = 0
        for seed in range(100):
            batch = sample_quadratures(ref_state, MeasurementSetting.single(1, math.pi / 2),
                                       n, seed=seed)
            hits += abs(sample_variance(batch) / 35.49 - 1.0) <= bound
        assert hits >= 99


class TestMeasureCampaign:
    def test_relative_error_matches_five_percent_at_n800(self, ref_state):
        ms = measure_campaign(ref_state, 800, seed=0)
        assert ms.relative_error == pytest.approx(0.05, abs=1e-12)
        assert ms.metadata["seed"] == 0
        assert ms.metadata["n_per_setting"] == 800

    def test_determinism(self, ref_state):
        m1 = measure_campaign(ref_state, 5000, seed=77, dark_noise=0.006)
        m2 = measure_campaign(ref_state, 5000, seed=77, dark_noise=0.006)
        assert m1.values() == m2.values()

    def test_chunking_does_not_change_results(self, ref_state, monkeypatch):
        for dark in (0.0, 0.006):
            before = measure_campaign(ref_state, 50000, seed=13, dark_noise=dark)
            with monkeypatch.context() as m:
                m.setattr(sampler_mod, "_CHUNK", 999)
                after = measure_campaign(ref_state, 50000, seed=13, dark_noise=dark)
            np.testing.assert_allclose(after.values(), before.values(), rtol=1e-10)

    def test_matches_projection_reference(self):
        # the Gram route reorders the float sums of the projection route;
        # tolerance fixed from the double rounding scale before comparing
        rtol = 1e-12
        rng = np.random.default_rng(31)
        chunk = sampler_mod._CHUNK
        for n in (3, chunk - 1, chunk + 1, 70_000):
            for seed in range(3):
                state = build_epr_source(random_source_params(rng))
                for dark in (0.0, 10 ** -2.2):
                    got = measure_campaign(state, n, seed, dark_noise=dark).values()
                    want = reference_projection_campaign(state, n, seed, dark)
                    np.testing.assert_allclose(got, want, rtol=rtol)

    def test_needs_three_samples(self, ref_state):
        # at n = 2 the relative error sqrt(2/n) would be 1
        with pytest.raises(ValueError, match=r"n_per_setting must be >= 3.*n=2"):
            measure_campaign(ref_state, 2, seed=0)
        assert len(campaign_batches(ref_state, 2, seed=0)[0].values) == 2

    def test_dark_campaign_memory_stays_chunk_sized(self, ref_state):
        dark = 10 ** -2.2
        measure_campaign(ref_state, 10 ** 6, seed=0, dark_noise=dark)
        tracemalloc.start()
        try:
            measure_campaign(ref_state, 10 ** 6, seed=0, dark_noise=dark)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_large_campaign_reconstructs_entries(self, ref_state):
        ms = measure_campaign(ref_state, 10 ** 7, seed=3)
        back = reconstruct(ms)
        rel = np.abs(back.entries - ref_state.entries) / np.maximum(
            np.abs(ref_state.entries), 1e-12)
        nonzero = ref_state.entries != 0
        assert np.max(rel[nonzero]) <= 0.002

    def test_dark_noise_shifts_singles_not_covariances(self, ref_state):
        dark = 10 ** -2.2
        n = 10 ** 6
        clean = measure_campaign(ref_state, n, seed=21)
        noisy = measure_campaign(ref_state, n, seed=21, dark_noise=dark)
        # shared signal stream cancels in the difference, but the
        # signal-dark cross term leaves ~2 sigma_sig sigma_dark / sqrt(n)
        for name in ("var_xa", "var_pa", "var_xb", "var_pb"):
            shift = getattr(noisy, name) - getattr(clean, name)
            assert shift == pytest.approx(dark, abs=4e-3)
        cov_clean = reconstruct(clean).entries[0, 2]
        cov_noisy = reconstruct(noisy).entries[0, 2]
        assert cov_noisy == pytest.approx(cov_clean, abs=5e-3)

    def test_dark_noise_reid_shift_matches_analytic(self, ref_state):
        # adding diag dark noise d to the reference matrix moves the optimal
        # B|A product from 0.039208 to 0.044281; the sampled pipeline must
        # reproduce that +0.00507 shift
        dark = 10 ** -2.2
        n = 10 ** 6
        base = criteria_report(reconstruct(measure_campaign(ref_state, n, seed=0)))
        noisy = criteria_report(reconstruct(measure_campaign(ref_state, n, seed=0,
                                                             dark_noise=dark)))
        shift = noisy.reid_b_given_a - base.reid_b_given_a
        assert shift == pytest.approx(0.005073, abs=1.5e-3)

    def test_pipeline_closure_smoke(self, ref_state):
        ref = criteria_report(ref_state)
        for seed in (101, 202, 303):
            rep = criteria_report(reconstruct(measure_campaign(ref_state, 10 ** 6, seed)))
            assert rep.reid_b_given_a == pytest.approx(ref.reid_b_given_a, rel=0.01)
            assert rep.reid_a_given_b == pytest.approx(ref.reid_a_given_b, rel=0.01)
            assert rep.duan_sum == pytest.approx(ref.duan_sum, rel=0.01)


class TestCampaignBatches:
    def test_batch_variances_match_campaign(self, ref_state):
        n = 20000
        ms = measure_campaign(ref_state, n, seed=8, dark_noise=0.005)
        batches = campaign_batches(ref_state, n, seed=8, dark_noise=0.005)
        got = [sample_variance(b) for b in batches]
        np.testing.assert_allclose(got, ms.values(), rtol=1e-10)

    def test_csv_export_shape(self, ref_state):
        batches = campaign_batches(ref_state, 10, seed=0)
        text = samples_to_csv(batches)
        lines = text.strip().split("\n")
        assert lines[0] == "setting,value"
        assert len(lines) == 1 + 6 * 10
        assert lines[1].startswith("x_a,")
        value = float(lines[1].split(",")[1])
        assert math.isfinite(value)
        # any iterable of batches is read alike
        by_label = {b.setting.label(): b for b in batches}
        for it in (tuple(batches), (b for b in batches), by_label.values()):
            assert samples_to_csv(it) == text
