import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvsteer import (
    CovarianceMatrix,
    InconsistentDataError,
    MeasurementSet,
    PhysicalityWarning,
    SourceParams,
    budget_prep_efficiency,
    criteria_report,
    db_to_variance,
    detected_variance,
    efficiency_decomposition,
    expected_measurements,
    fit_efficiency,
    forward_covariance,
    is_physical,
    reconstruct,
    reid_product,
    symplectic_eigenvalues,
    symplectic_eigenvalues_two_mode,
    variance_to_db,
    vacuum_state,
)
from cvsteer import gaussian, loss_model, reconstruction
from cvsteer.loss_model import _A_MAX, _ENTRY_MAX, _XI_SCAN, LossFit, _profile, _scan
from conftest import FIT_ENTRIES, fit_objective, reference_nelder_mead_fit, reference_profile


# Fixed before the comparison ran; its 300 states gave a worst case of 3.8e-13.
XI_CLOSED_FORM_RTOL = 1e-11
# The benchmark's oracle tolerance on xi (perfbench/oracles.py), fixed before the run.
FIT_XI_TOL = 0.01


def uniform_xi_params(r1, r2, xi):
    return SourceParams(r1=r1, r2=r2, eta_prep=xi)


def fit_warned(state):
    """fit_efficiency(state), after checking that it warned exactly as the gate words the
    state: once, with the fit's message, below the gate, and not at all above it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PhysicalityWarning)
        fit = fit_efficiency(state)
    message = gaussian._unphysical(state, "fit_efficiency")
    assert [(w.category, str(w.message)) for w in caught] == (
        [(PhysicalityWarning, message)] if message else [])
    return fit


class TestForwardModel:
    def test_pure_state_at_unit_efficiency(self):
        state = forward_covariance(uniform_xi_params(1.3, 1.3, 1.0))
        np.testing.assert_allclose(symplectic_eigenvalues(state), [1.0, 1.0], atol=1e-9)

    def test_detected_squeezing_formula(self):
        # xi = 0.92 with 15.7 dB of generated squeezing detects ~9.8 dB
        r = -0.5 * math.log(0.0272)
        v = detected_variance(r, 0.92)
        assert v == pytest.approx(0.92 * 0.0272 + 0.08, abs=1e-12)
        assert variance_to_db(v) == pytest.approx(9.8, abs=0.05)

    def test_forward_entries_follow_detected_variances(self):
        # symmetric chain: Var X = (v1- + v2+)/2, Var P = (v1+ + v2-)/2,
        # covariances (v2+ - v1-)/2 and (v2- - v1+)/2
        r1, r2, xi = 1.9, 1.4, 0.9
        g = forward_covariance(uniform_xi_params(r1, r2, xi)).entries
        v1m, v1p = detected_variance(r1, xi), detected_variance(r1, xi, antisqueezed=True)
        v2m, v2p = detected_variance(r2, xi), detected_variance(r2, xi, antisqueezed=True)
        assert g[0, 0] == pytest.approx(0.5 * (v1m + v2p), rel=1e-12)
        assert g[1, 1] == pytest.approx(0.5 * (v1p + v2m), rel=1e-12)
        assert g[0, 2] == pytest.approx(0.5 * (v2p - v1m), rel=1e-12)
        assert g[1, 3] == pytest.approx(0.5 * (v2m - v1p), rel=1e-12)

    def test_antisqueezing_asymmetry_matches_p_to_x_ratio(self):
        # detected anti-squeezing 70.8 vs 36.6 is a ~2.9 dB imbalance and
        # puts roughly twice the variance in P as in X
        xi = 0.92
        r1 = 0.5 * math.log((70.8 - (1 - xi)) / xi)
        r2 = 0.5 * math.log((36.6 - (1 - xi)) / xi)
        imbalance_db = variance_to_db(36.6) - variance_to_db(70.8)
        assert imbalance_db == pytest.approx(2.87, abs=0.05)
        g = forward_covariance(uniform_xi_params(r1, r2, xi)).entries
        assert g[1, 1] / g[0, 0] == pytest.approx(70.8 / 36.6, rel=0.05)


class TestFitEfficiency:
    def test_reference_matrix(self, ref_state):
        fit = fit_efficiency(ref_state)
        assert fit.converged
        assert 0.88 <= fit.xi <= 0.96
        assert fit.residual < 0.4
        db1, db2 = fit.detected_squeezing_db()
        assert 9.0 <= db1 <= 11.0
        assert 9.0 <= db2 <= 11.0

    def test_forward_of_fit_reproduces_reference_reid_products(self, ref_state):
        fit = fit_efficiency(ref_state)
        model = forward_covariance(uniform_xi_params(fit.r1, fit.r2, fit.xi))
        assert reid_product(model, "b|a") == pytest.approx(0.039, rel=0.15)
        assert reid_product(model, "a|b") == pytest.approx(0.041, rel=0.15)

    def test_synthetic_self_consistency(self):
        truth = uniform_xi_params(1.0, 0.8, 0.9)
        fit = fit_efficiency(forward_covariance(truth))
        assert fit.xi == pytest.approx(0.9, abs=1e-4)
        assert fit.residual < 1e-8
        assert fit.r1 == pytest.approx(1.0, abs=1e-4)
        assert fit.r2 == pytest.approx(0.8, abs=1e-4)

    def test_fit_idempotence(self, ref_state):
        first = fit_efficiency(ref_state)
        again = fit_efficiency(forward_covariance(uniform_xi_params(first.r1, first.r2,
                                                                    first.xi)))
        assert again.xi == pytest.approx(first.xi, abs=1e-4)
        assert again.r1 == pytest.approx(first.r1, abs=1e-4)
        assert again.r2 == pytest.approx(first.r2, abs=1e-4)

    def test_identifiability_over_random_draws(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            r1, r2 = rng.uniform(0.5, 2.5, size=2)
            xi = rng.uniform(0.75, 0.985)
            fit = fit_efficiency(forward_covariance(uniform_xi_params(r1, r2, xi)))
            assert fit.xi == pytest.approx(xi, abs=0.01)

    def test_recovers_noise_free_sources_up_to_r_3_and_down_to_xi_1e_3(self):
        # strong squeezing (26 dB at r = 3) and near-total loss (xi log-uniform)
        rng = np.random.default_rng(2718)
        for _ in range(300):
            r1, r2 = rng.uniform(0.05, 3.0, size=2)
            xi = 10.0 ** rng.uniform(-3.0, 0.0)
            fit = fit_efficiency(forward_covariance(uniform_xi_params(r1, r2, xi)))
            assert fit.converged
            assert fit.xi == pytest.approx(xi, abs=1e-6)
            assert fit.r1 == pytest.approx(r1, abs=1e-5)
            assert fit.r2 == pytest.approx(r2, abs=1e-5)
        # once more, down to xi = 1e-6, where xi must still come out to nine digits
        for _ in range(300):
            r1, r2 = rng.uniform(0.05, 3.0, size=2)
            xi = 10.0 ** rng.uniform(-6.0, -3.0)
            fit = fit_efficiency(forward_covariance(uniform_xi_params(r1, r2, xi)))
            assert fit.converged
            assert fit.xi == pytest.approx(xi, rel=1e-9)

    def test_each_source_gives_the_fitted_xi_in_closed_form(self):
        # On the model v-/+ = xi a^(-/+1) + 1 - xi, (v- - 1 + xi)(v+ - 1 + xi) = xi^2, so
        # xi_i = (1 - v-)(v+ - 1) / (v- + v+ - 2) per source.  The v are those the fit builds:
        # source 1 from half Var(X_A - X_B) and Var(P_A - P_B), source 2 from half
        # Var(P_A + P_B) and Var(X_A + X_B).  Noise-free states only: off the model the
        # xi_i are a diagnostic, and no bracket of the fitted xi by them is proven.
        rng = np.random.default_rng(1597)
        for _ in range(300):
            r1, r2 = rng.uniform(0.5, 2.3, size=2)
            params = uniform_xi_params(r1, r2, rng.uniform(0.75, 1.0))
            state = forward_covariance(params)
            e = state.entries
            xa, pa, xb, pb, cx, cp = e[0, 0], e[1, 1], e[2, 2], e[3, 3], e[0, 2], e[1, 3]
            sources = ((0.5 * (xa + xb - 2.0 * cx), 0.5 * (pa + pb - 2.0 * cp)),
                       (0.5 * (pa + pb + 2.0 * cp), 0.5 * (xa + xb + 2.0 * cx)))
            xi = fit_efficiency(state).xi
            for v_minus, v_plus in sources:
                closed = (1.0 - v_minus) * (v_plus - 1.0) / (v_minus + v_plus - 2.0)
                assert abs(closed - xi) <= XI_CLOSED_FORM_RTOL * xi, (params, closed, xi)

    def test_pure_state_input_fits_unit_efficiency(self):
        fit = fit_efficiency(forward_covariance(uniform_xi_params(1.2, 1.0, 1.0)))
        assert fit.xi == 1.0 and fit.converged  # the bound xi = 1 is a valid minimum
        assert fit.iterations <= 43  # a minimum on the bound takes at most two refinement steps
        assert fit.r1 == pytest.approx(1.2, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonzero_cross_terms(self, ref_state):
        m = ref_state.entries.copy()
        m[0, 1] = m[1, 0] = 0.05  # small enough to stay positive definite
        from cvsteer import CovarianceMatrix
        with pytest.raises(ValueError, match="cross terms"):
            fit_efficiency(CovarianceMatrix(2, m))

    def test_rejects_entries_whose_squares_overflow(self):
        with pytest.raises(ValueError, match="too large"):
            fit_efficiency(CovarianceMatrix(2, 1e160 * np.eye(4)))
        with pytest.raises(ValueError, match="entries up to 1.7e\\+308 are too large"):
            fit_efficiency(CovarianceMatrix(2, np.diag([1.7e308, 1.0, 1.0, 1.0])))

    def test_unphysical_input_warns_once_and_is_fitted(self):
        # below the physicality gate, not past the Cauchy-Schwarz bound: warned, as
        # reconstruct warns of it, and fitted
        state = CovarianceMatrix(2, np.diag([0.5, 1.0, 1.0, 1.0]))
        with pytest.warns(PhysicalityWarning) as record:
            fit = fit_efficiency(state)
        nus = symplectic_eigenvalues_two_mode(state).tolist()
        assert [str(w.message) for w in record] == [
            f"fit_efficiency: state is unphysical (symplectic eigenvalues {nus})"]
        assert record[0].filename == __file__  # stacklevel=2: the caller's line
        assert isinstance(fit, LossFit) and fit.converged
        assert fit.xi == 1.0 and math.isfinite(fit.residual)

    def test_shape_is_checked_before_the_gate(self):
        # a state below the gate with X-P entries, or entries past the fit's range, is
        # refused for its shape, with no warning
        turned = np.diag([0.5, 1.0, 1.0, 1.0])
        turned[0, 1] = turned[1, 0] = 0.1
        big = np.diag([1e160, 1e-161, 1.0, 1.0])
        for m, words in ((turned, "cross terms"), (big, "too large")):
            state = CovarianceMatrix(2, m)
            assert not is_physical(state)
            with warnings.catch_warnings():
                warnings.simplefilter("error", PhysicalityWarning)
                with pytest.raises(ValueError, match=words):
                    fit_efficiency(state)

    def test_jittered_campaigns_below_the_gate_are_fitted(self):
        # fit_sweep's campaigns: r in [0.5, 2.3], eta in [0.75, 1], each of the six values
        # jittered by 1%; those that reconstruct below the gate warn, converge and recover
        # eta within the benchmark's tolerance
        rng = np.random.default_rng(31415)
        kept = 0
        for _ in range(2048):
            (r1, r2), eta = rng.uniform(0.5, 2.3, size=2), rng.uniform(0.75, 1.0)
            ms = expected_measurements(forward_covariance(uniform_xi_params(r1, r2, eta)))
            values = np.array(ms.values()) * (1.0 + 0.01 * rng.standard_normal(6))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", PhysicalityWarning)
                try:
                    state = reconstruct(MeasurementSet(*values.tolist(), relative_error=0.01))
                except InconsistentDataError:
                    continue
            if not caught:
                continue
            fit = fit_warned(state)
            assert fit.converged and abs(fit.xi - eta) <= FIT_XI_TOL, (r1, r2, eta, fit)
            kept += 1
        assert kept >= 30

    def test_physicality_warning_is_one_class(self):
        assert PhysicalityWarning is gaussian.PhysicalityWarning is reconstruction.PhysicalityWarning
        assert issubclass(PhysicalityWarning, UserWarning)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError):
            fit_efficiency(vacuum_state(1))

    def test_reid_monotone_as_efficiency_drops(self):
        products = [reid_product(forward_covariance(uniform_xi_params(1.2, 1.0, xi)), "b|a")
                    for xi in np.arange(1.0, 0.4, -0.05)]
        assert all(b >= a - 1e-12 for a, b in zip(products, products[1:]))

    def test_lossfit_serialization_and_validation(self):
        fit = LossFit(xi=0.9, r1=1.0, r2=0.8, residual=0.1, iterations=50, converged=True)
        d = fit.to_dict()
        assert set(d) == {"xi", "r1", "r2", "residual", "iterations", "converged"}
        with pytest.raises(ValueError):
            LossFit(xi=1.2, r1=1.0, r2=0.8, residual=0.1, iterations=5, converged=True)


# The eight fitted entries as a linear map of the effective source variances
# (v1-, v1+, v2-, v2+), rows in FIT_ENTRIES order.
ENTRY_MAP = 0.5 * np.array([
    [1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0],
    [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, 1, 0], [0, -1, 1, 0],
])


def effective_variances(r1, r2, xi):
    return np.array([detected_variance(r1, xi), detected_variance(r1, xi, antisqueezed=True),
                     detected_variance(r2, xi), detected_variance(r2, xi, antisqueezed=True)])


@pytest.fixture(scope="module")
def comparison_states():
    """200 reconstructed states, r in [0, 2.3], eta in [0.5, 1], every second
    one with its six measured values jittered by 1%."""
    rng = np.random.default_rng(20240)
    states = []
    for i in range(200):
        r1, r2 = rng.uniform(0.0, 2.3, size=2)
        ms = expected_measurements(forward_covariance(uniform_xi_params(r1, r2,
                                                                        rng.uniform(0.5, 1.0))))
        if i % 2:
            values = np.array(ms.values()) * (1.0 + 0.01 * rng.standard_normal(6))
            ms = MeasurementSet(*values.tolist(), relative_error=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PhysicalityWarning)
            states.append(reconstruct(ms))
    return states


class TestProfiledFit:
    def test_entry_map_is_orthonormal_and_is_the_forward_model(self):
        assert np.array_equal(ENTRY_MAP.T @ ENTRY_MAP, np.eye(4))
        rng = np.random.default_rng(5)
        for _ in range(50):
            r1, r2 = rng.uniform(0.0, 2.3, size=2)
            xi = rng.uniform(1e-6, 1.0)
            g = forward_covariance(uniform_xi_params(r1, r2, xi)).entries
            entries = np.array([g[i] for i in FIT_ENTRIES])
            np.testing.assert_allclose(ENTRY_MAP @ effective_variances(r1, r2, xi), entries,
                                       rtol=1e-12, atol=1e-12)

    def test_objective_splits_into_variance_distance_plus_constant(self, comparison_states):
        rng = np.random.default_rng(6)
        for state in comparison_states[1:40:2]:
            g = state.entries
            v_hat = ENTRY_MAP.T @ np.array([g[i] for i in FIT_ENTRIES])
            offset = 0.5 * ((g[0, 0] - g[2, 2]) ** 2 + (g[1, 1] - g[3, 3]) ** 2)
            r1, r2 = rng.uniform(0.0, 2.3, size=2)
            xi = rng.uniform(0.5, 1.0)
            split = np.sum((effective_variances(r1, r2, xi) - v_hat) ** 2) + offset
            assert split == pytest.approx(fit_objective(g, r1, r2, xi), rel=1e-10)

    def test_objective_never_worse_than_nelder_mead(self, comparison_states):
        # Floor fixed before the comparison ran: where both fits sit at rounding,
        # 64 eps of the largest entry in each of the eight entries.
        # Every state is compared: those below the physicality gate are fitted with the
        # fit's warning.
        eps = np.finfo(float).eps
        for state in comparison_states:
            fit = fit_warned(state)
            g = state.entries
            xi, r1, r2, nelder_mead = reference_nelder_mead_fit(state)
            profiled = fit_objective(g, fit.r1, fit.r2, fit.xi)
            floor = 8.0 * (64.0 * eps * np.abs(g).max()) ** 2
            # the residual is the profile's objective; below the floor both are rounding
            if profiled > floor:
                assert profiled == pytest.approx(8.0 * fit.residual ** 2, rel=1e-12)
            else:
                assert 8.0 * fit.residual ** 2 <= floor
            assert profiled <= nelder_mead * (1.0 + 1e-9) + floor, (fit, xi, r1, r2)

    def test_reference_xi_matches_nelder_mead(self, ref_state):
        # the Nelder-Mead fit of the reference state gives xi = 0.914949040039757
        assert reference_nelder_mead_fit(ref_state)[0] == 0.914949040039757
        fit = fit_efficiency(ref_state)
        assert fit.xi == pytest.approx(0.914949040039757, abs=1e-8)
        assert fit.converged

    def test_squeezing_past_the_bound_fits_r_at_10(self):
        fit = fit_efficiency(forward_covariance(uniform_xi_params(10.5, 1.0, 0.9)))
        assert fit.r1 == 10.0

    def test_fit_on_the_r_cap_has_a_finite_residual(self):
        # the model at r1 = 10, xi ~ 1 is too ill-conditioned for a checked
        # CovarianceMatrix; the residual comes from the profile, not from that model
        state = forward_covariance(uniform_xi_params(10.05, 9.5, 0.999999))
        assert is_physical(state)
        fit = fit_efficiency(state)
        assert fit.r1 == 10.0 and fit.xi == pytest.approx(1.0, abs=1e-5)
        assert math.isfinite(fit.residual)

    def test_iterations_count_profile_evaluations(self, ref_state):
        # a 41-point scan, then the root search for the slope in the best bracket
        assert 41 < fit_efficiency(ref_state).iterations < 41 + 30

    def test_scan_runs_once_and_no_scan_point_twice(self, monkeypatch, comparison_states):
        calls = {"scan": 0, "profile": []}

        def scan(v_minus, v_plus):
            calls["scan"] += 1
            return _scan(v_minus, v_plus)

        def profile(xi, v_minus, v_plus):
            calls["profile"].append(xi)
            return _profile(xi, v_minus, v_plus)

        monkeypatch.setattr(loss_model, "_scan", scan)
        monkeypatch.setattr(loss_model, "_profile", profile)
        states = [CovarianceMatrix(2, np.eye(4)),  # every xi fits: no refinement
                  forward_covariance(uniform_xi_params(1.2, 1.0, 1.0)),  # on the bound xi = 1
                  forward_covariance(uniform_xi_params(1.9, 1.4, 1e-6)),
                  *comparison_states[:40]]
        refined = 0
        for state in states:
            calls["scan"], calls["profile"] = 0, []
            fit = fit_warned(state)
            xs = calls["profile"]
            assert calls["scan"] == 1 and len(xs) == fit.iterations - len(_XI_SCAN)
            assert len(set(xs)) == len(xs) and not set(xs) & set(_XI_SCAN)
            refined += bool(xs)
        assert refined >= 30

    def test_unidentifiable_efficiency_is_not_converged(self):
        # without squeezing every xi fits vacuum exactly
        fit = fit_efficiency(CovarianceMatrix(2, np.eye(4)))
        assert fit.residual < 1e-12
        assert not fit.converged


def assert_profile_matches_eigvals(xi, v_minus, v_plus):
    """The scalar kernel's profile is never above the companion-matrix oracle's,
    and where both pick the same a per source, their slopes in xi agree."""
    eps = np.finfo(float).eps
    profile, a, slope = _profile(xi, v_minus, v_plus)
    ref_profile, ref_a, ref_slope = (p[0] for p in reference_profile([xi], v_minus, v_plus))
    # Floor fixed before the comparison ran: four squared misses, each rounded to
    # about 2 eps of the entry scale.
    scale = max(1.0, *map(abs, v_minus + v_plus))
    assert profile <= ref_profile * (1.0 + 1e-13) + 16.0 * (eps * scale) ** 2, (a, ref_a)
    assert all(1.0 <= x <= _A_MAX for x in a)  # r in [0, 10]
    if all(abs(x - y) <= 1e-9 * y for x, y in zip(a, ref_a)):
        # the slope moves by 2 xi a^2 per unit relative change of a
        size = abs(ref_slope) + sum(2.0 * xi * x * x for x in a) + scale
        assert slope == pytest.approx(ref_slope, rel=0.0, abs=1e-12 * size)


# Two sources (u, w) at xi whose largest root of p(a) = xi a^4 - w a^3 + u a - xi
# lies below w/(2 xi), where p is concave: v_minus = u + 1 - xi, v_plus = w + 1 - xi.
CONCAVE_LARGEST_ROOT = [
    (1.0, (10.0, 3.0), (2.0, 1.5)),
    (0.5, (20.0, 50.0), (3.0, 4.0)),
    (1e-3, (1.0, 0.5), (1e-2, 5e-3)),
    (1e-6, (1e-3, 1.0), (1.5e-6, 1e-5)),
]


def profile_kernel_cases(test):
    """Run `test(self, xi, v_minus, v_plus)` on 600 derandomized sources: of
    efficiency `truth` with 5% jitter, profiled at another xi, or swapped, or
    with u <= 0, w <= 0 or r > 10."""
    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(xi=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e),
           truth=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e),
           r=st.tuples(*[st.floats(0.0, 3.0)] * 2),
           jitter=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
           kind=st.sampled_from(["physical", "swapped", "u <= 0", "w <= 0", "r > 10"]),
           t=st.floats(0.0, 1.0))
    @example(xi=1.0, truth=1.0, r=(0.0, 0.0), jitter=(0.0,) * 4, kind="physical", t=0.0)
    @example(xi=1e-6, truth=1e-6, r=(3.0, 0.0), jitter=(0.0,) * 4, kind="physical", t=0.0)
    @example(xi=1e-6, truth=1.0, r=(0.0, 3.0), jitter=(1.0,) * 4, kind="swapped", t=1.0)
    def cases(self, xi, truth, r, jitter, kind, t):
        if kind == "r > 10":
            r = (10.0 + r[0] / 1.5, 10.0 + r[1] / 1.5)
        v_minus = [detected_variance(x, truth) * (1.0 + 0.05 * z) for x, z in zip(r, jitter[:2])]
        v_plus = [detected_variance(x, truth, antisqueezed=True) * (1.0 + 0.05 * z)
                  for x, z in zip(r, jitter[2:])]
        if kind == "swapped":
            v_minus, v_plus = v_plus, v_minus
        elif kind == "u <= 0":
            v_minus = [t * (1.0 - xi)] * 2
        elif kind == "w <= 0":
            v_plus = [t * (1.0 - xi)] * 2
        test(self, xi, v_minus, v_plus)
    return cases


class TestProfileKernel:
    @profile_kernel_cases
    def test_never_above_the_eigvals_profile(self, xi, v_minus, v_plus):
        assert_profile_matches_eigvals(xi, v_minus, v_plus)

    @pytest.mark.parametrize("xi, u, w", CONCAVE_LARGEST_ROOT)
    def test_largest_root_where_p_is_concave(self, xi, u, w):
        for ui, wi in zip(u, w):
            roots = np.roots([xi, -wi, 0.0, ui, -xi])
            largest = max(z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0)
            assert largest < wi / (2.0 * xi)
        assert_profile_matches_eigvals(xi, [x + 1.0 - xi for x in u], [x + 1.0 - xi for x in w])


def assert_scan_matches_profile(v_minus, v_plus):
    """The batched scan gives the scalar kernel's profiles, best a values and
    slopes at every scan point, bit for bit (compared as hex, so -0.0 != 0.0)."""
    profiles, best, slopes = _scan(v_minus, v_plus)
    points = [_profile(xi, v_minus, v_plus) for xi in _XI_SCAN]
    hexed = lambda values: [float(v).hex() for v in values]
    assert hexed(profiles) == hexed(p for p, _, _ in points)
    assert [hexed(a) for a in best] == [hexed(a) for _, a, _ in points]
    assert hexed(slopes) == hexed(s for _, _, s in points)


@pytest.mark.filterwarnings("error")  # the scan's numpy warnings stay inside it
class TestScanKernel:
    @profile_kernel_cases
    def test_matches_the_scalar_kernel(self, xi, v_minus, v_plus):
        assert_scan_matches_profile(v_minus, v_plus)

    @pytest.mark.parametrize("xi, u, w", CONCAVE_LARGEST_ROOT)
    def test_largest_root_where_p_is_concave(self, xi, u, w):
        assert_scan_matches_profile([x + 1.0 - xi for x in u], [x + 1.0 - xi for x in w])

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(exponents=st.tuples(*[st.floats(-8.0, math.log10(_ENTRY_MAX))] * 4))
    @example(exponents=(math.log10(_ENTRY_MAX),) * 4)
    @example(exponents=(-8.0, math.log10(_ENTRY_MAX), math.log10(_ENTRY_MAX), -8.0))
    def test_variances_up_to_the_entry_bound(self, exponents):
        v = [min(10.0 ** e, _ENTRY_MAX) for e in exponents]
        assert_scan_matches_profile(v[:2], v[2:])


class TestEfficiencyDecomposition:
    def test_reference_numbers(self):
        assert efficiency_decomposition(0.92, 0.95) == pytest.approx(0.97, abs=0.01)

    def test_unit_preparation(self):
        assert efficiency_decomposition(0.7, 1.0) == 0.7


class TestBudgetPrepEfficiency:
    def test_source_budget(self):
        eta = budget_prep_efficiency(0.025, 0.01, 0.993)
        assert eta == pytest.approx(0.975 * 0.99 * 0.993 ** 2, abs=1e-12)
        assert eta == pytest.approx(0.95, abs=0.01)

    def test_lossless_limit(self):
        assert budget_prep_efficiency(0.0, 0.0, 1.0) == 1.0

    def test_detection_budget_with_quantum_efficiency_folded_in(self):
        eta_det = budget_prep_efficiency(0.01, 0.006, 0.993)
        assert eta_det == pytest.approx(0.970, abs=1e-3)

    def test_visibility_enters_squared(self):
        assert 1.0 - budget_prep_efficiency(0.0, 0.0, 0.993) == pytest.approx(0.014, abs=1e-3)


class TestDbHelpers:
    def test_clearance_to_variance(self):
        assert db_to_variance(22.0) == pytest.approx(10 ** -2.2, abs=1e-12)
        assert db_to_variance(10.0) == pytest.approx(0.1, abs=1e-15)

    def test_roundtrip(self):
        assert variance_to_db(db_to_variance(13.7)) == pytest.approx(13.7, abs=1e-12)

    @pytest.mark.parametrize("db", [-4000.0, -1e308, -math.inf])
    def test_levels_past_the_float_range_give_inf(self, db):
        assert db_to_variance(db) == math.inf
