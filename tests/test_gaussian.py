import copy
import dataclasses
import functools
import inspect
import json
import math
import pickle
import re
import reprlib
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvsteer
from cvsteer import gaussian
from cvsteer import (
    CovarianceMatrix,
    GainPair,
    LossChannel,
    LossFit,
    MeasurementSet,
    MeasurementSetting,
    PhysicalityWarning,
    SampleBatch,
    SourceParams,
    SymplecticTransform,
    UnphysicalStateError,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    budget_prep_efficiency,
    build_epr_source,
    campaign_batches,
    compose,
    conditional_variance,
    covariance_from_sum,
    criteria_report,
    db_to_variance,
    detected_variance,
    duan_sum,
    efficiency_decomposition,
    expected_measurements,
    fit_efficiency,
    forward_covariance,
    is_physical,
    measure_campaign,
    optimal_gain,
    phase_shift,
    propagate_errors,
    quadrature_variance,
    reconstruct,
    reid_product,
    sample_quadratures,
    sample_variance,
    samples_to_csv,
    squeezer,
    symplectic_eigenvalues,
    symplectic_eigenvalues_two_mode,
    symplectic_form,
    vacuum_state,
    variance_to_db,
)
from cvsteer.reconstruction import CSV_FIELDS
from cvsteer.reference import REFERENCE_MEASUREMENTS, perturbation_study, reference_state
from conftest import (
    TRAP_DIAGONALS,
    random_physical_state,
    random_source_params,
    random_transform,
    reference_epr_chain,
)


class TestVacuum:
    def test_two_modes_is_identity(self):
        np.testing.assert_array_equal(vacuum_state(2).entries, np.eye(4))

    def test_one_mode_is_identity(self):
        np.testing.assert_array_equal(vacuum_state(1).entries, np.eye(2))

    def test_saturates_uncertainty(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum_state(2)), [1.0, 1.0],
                                   atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestSqueezer:
    def test_zero_squeezing_is_identity(self):
        np.testing.assert_array_equal(squeezer(0.0, 0, 2).matrix, np.eye(4))

    def test_ten_db_squeezing(self):
        # 10 dB of squeezing means variance 0.1, i.e. r = -ln(0.1)/2.
        r = -0.5 * math.log(0.1)
        assert r == pytest.approx(1.151292546497023, abs=1e-12)
        state = apply_symplectic(vacuum_state(1), squeezer(r, 0, 1))
        assert quadrature_variance(state, 0, 0.0) == pytest.approx(0.1, abs=1e-12)
        assert quadrature_variance(state, 0, math.pi / 2) == pytest.approx(10.0, abs=1e-9)

    def test_inverse_pair(self):
        s = compose(squeezer(0.7, 0, 2), squeezer(-0.7, 0, 2))
        np.testing.assert_allclose(s.matrix, np.eye(4), atol=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            squeezer(1.0, 2, 2)


class TestPhaseShift:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(phase_shift(0.0, 0, 2).matrix, np.eye(4))

    def test_quarter_turn_swaps_variances(self):
        state = apply_symplectic(vacuum_state(1), squeezer(0.8, 0, 1))
        a, b = quadrature_variance(state, 0, 0.0), quadrature_variance(state, 0, math.pi / 2)
        rotated = apply_symplectic(state, phase_shift(math.pi / 2, 0, 1))
        assert quadrature_variance(rotated, 0, 0.0) == pytest.approx(b, rel=1e-12)
        assert quadrature_variance(rotated, 0, math.pi / 2) == pytest.approx(a, rel=1e-12)

    def test_pi_twice_is_identity(self):
        s = compose(phase_shift(math.pi, 0, 2), phase_shift(math.pi, 0, 2))
        np.testing.assert_allclose(s.matrix, np.eye(4), atol=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            phase_shift(0.1, -1, 2)


class TestBeamsplitter:
    def test_preserves_vacuum(self):
        out = apply_symplectic(vacuum_state(2), beamsplitter(0.5, 0, 1, 2))
        np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-12)

    def test_full_transmission_and_swap_limits(self):
        omega = symplectic_form(2)
        s1 = beamsplitter(1.0, 0, 1, 2)
        np.testing.assert_allclose(s1.matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(s1.matrix @ omega @ s1.matrix.T, omega, atol=1e-12)
        # transmittance 0 routes each input to the other output (a swap)
        s0 = beamsplitter(0.0, 0, 1, 2)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
        np.testing.assert_allclose(s0.matrix, expected, atol=1e-15)

    def test_balanced_mixing_of_orthogonally_squeezed_inputs(self):
        # mode 0 squeezed in P, mode 1 squeezed in X; the 50:50 convention
        # then puts 2 exp(-2r) on the X difference of the outputs.
        r = 0.9
        state = vacuum_state(2)
        state = apply_symplectic(state, squeezer(-r, 0, 2))
        state = apply_symplectic(state, squeezer(r, 1, 2))
        out = apply_symplectic(state, beamsplitter(0.5, 0, 1, 2))
        v = np.array([1.0, 0.0, -1.0, 0.0])
        assert v @ out.entries @ v == pytest.approx(2.0 * math.exp(-2.0 * r), rel=1e-12)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter(0.5, 1, 1, 2)


class TestApplySymplectic:
    def test_identity_is_noop(self, ref_state):
        ident = SymplecticTransform(2, np.eye(4))
        np.testing.assert_array_equal(apply_symplectic(ref_state, ident).entries,
                                      ref_state.entries)

    def test_preserves_symplectic_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = random_physical_state(rng)
            s = random_transform(rng)
            before = symplectic_eigenvalues(state)
            after = symplectic_eigenvalues(apply_symplectic(state, s))
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)

    def test_squeeze_then_unsqueeze_roundtrip(self, ref_state):
        out = apply_symplectic(ref_state, squeezer(0.6, 1, 2))
        back = apply_symplectic(out, squeezer(-0.6, 1, 2))
        np.testing.assert_allclose(back.entries, ref_state.entries, atol=1e-10)

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError, match="S Omega S"):
            SymplecticTransform(n_modes=1, matrix=np.diag([2.0, 2.0]))

    def test_compose_needs_transforms_of_one_mode_count(self):
        with pytest.raises(ValueError, match="at least one transform"):
            compose()
        with pytest.raises(ValueError, match="mode-count mismatch"):
            compose(squeezer(0.5, 0, 2), squeezer(0.5, 0, 1))

    def test_dimension_mismatch(self, ref_state):
        with pytest.raises(ValueError):
            apply_symplectic(ref_state, phase_shift(0.3, 0, 1))


class TestApplyLoss:
    def test_unit_efficiency_is_noop(self, ref_state):
        out = apply_loss(ref_state, LossChannel(0, 1.0, 0.0))
        np.testing.assert_allclose(out.entries, ref_state.entries, atol=1e-14)

    def test_half_efficiency_on_squeezed_mode(self):
        state = apply_symplectic(vacuum_state(1), squeezer(-0.5 * math.log(0.1), 0, 1))
        out = apply_loss(state, LossChannel(0, 0.5, 0.0))
        assert quadrature_variance(out, 0, 0.0) == pytest.approx(0.55, abs=1e-12)

    def test_vacuum_is_fixed_point(self):
        out = apply_loss(vacuum_state(2), LossChannel(1, 0.3, 0.0))
        np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-14)

    def test_excess_noise_adds_on_diagonal(self):
        out = apply_loss(vacuum_state(2), LossChannel(0, 1.0, 0.25))
        np.testing.assert_allclose(out.entries, np.diag([1.25, 1.25, 1.0, 1.0]), atol=1e-14)


class TestSymplecticEigenvalues:
    def test_reference_state_both_routes(self, ref_state):
        nus = symplectic_eigenvalues(ref_state)
        via_invariants = symplectic_eigenvalues_two_mode(ref_state)
        np.testing.assert_allclose(nus, via_invariants, atol=1e-9)
        np.testing.assert_allclose(nus, [2.8182028862550417, 1.7959489112731015], atol=1e-9)
        assert np.all(nus >= 1.0)

    def test_pure_squeezed_states_saturate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = apply_symplectic(vacuum_state(2), random_transform(rng))
            np.testing.assert_allclose(symplectic_eigenvalues(state), [1.0, 1.0], atol=1e-9)

    def test_invariant_route_requires_two_modes(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues_two_mode(vacuum_state(1))

    def test_coupled_states_take_the_eigvals_route(self):
        # X-P entries nonzero by construction, from float arithmetic off the quarter
        # turns, not rounding residue of BLAS products, which the BLAS kernel decides
        rng = np.random.default_rng(14)
        states = [build_epr_source(random_source_params(rng)) for _ in range(100)]
        coupled = [state for state in states if any(gaussian._xp_of(state.entries.ravel().tolist()))]
        assert len(coupled) >= 50
        for state in coupled:
            np.testing.assert_array_equal(symplectic_eigenvalues_two_mode(state),
                                          symplectic_eigenvalues(state))


XP_ENTRIES = ((0, 1), (0, 3), (1, 2), (2, 3))
QUARTER_TURNS = (0.0, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)


def decoupled(state):
    """The state with its four X-P entries set exactly to zero."""
    m = state.entries.copy()
    for i, j in XP_ENTRIES:
        m[i, j] = m[j, i] = 0.0
    return CovarianceMatrix(2, m)


def eigvals_spy(monkeypatch):
    """Count the calls gaussian makes to the general eigvals route; the physicality
    gate of every other module is gaussian's."""
    calls = []
    route = gaussian.symplectic_eigenvalues

    def spy(state):
        calls.append(state)
        return route(state)
    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", spy)
    return calls


class TestClosedFormPhysicality:
    @pytest.mark.parametrize("r", [1.0, 2.0, 2.3, 3.0])
    def test_decoupled_pure_states_match_eigvals(self, r):
        # nu_hi = nu_lo = 1, where the invariant formula loses ~sqrt(eps) (nu_lo - 1
        # = -3.3e-8 at r = 1, -5.0e-7 at r = 2.3)
        state = decoupled(build_epr_source(SourceParams(r1=r, r2=r)))
        np.testing.assert_allclose(symplectic_eigenvalues_two_mode(state),
                                   symplectic_eigenvalues(state), rtol=1e-11, atol=0)
        assert is_physical(state)

    def test_degenerate_spectrum_keeps_full_precision(self):
        # nu^2 = 1 and 1 - 2^-53: t^2 - 4 d would leave a discriminant of 2^-51 and
        # nu_lo - 1 = -5e-9, an unphysical verdict for a state within rounding of vacuum
        state = CovarianceMatrix(2, np.diag([1.0, 1.0, 1.0 - 2.0 ** -53, 1.0]))
        np.testing.assert_allclose(symplectic_eigenvalues_two_mode(state),
                                   symplectic_eigenvalues(state), rtol=1e-15, atol=0)
        assert is_physical(state)

    def test_decoupled_states_skip_eigvals(self, monkeypatch, ref_state):
        calls = eigvals_spy(monkeypatch)
        assert is_physical(ref_state)
        assert not is_physical(CovarianceMatrix(2, np.diag([0.5, 1.0, 1.0, 1.0])))
        assert calls == []

    def test_forward_states_skip_eigvals(self, monkeypatch):
        # the default relative phase math.pi / 2 is an exact quarter turn
        state = build_epr_source(SourceParams(r1=1.2, r2=1.1, eta_prep=0.9, dark_noise=0.01))
        calls = eigvals_spy(monkeypatch)
        assert is_physical(state)
        measure_campaign(state, 100, seed=3, dark_noise=0.01)
        sample_quadratures(state, MeasurementSetting.joint(1.0, -1.0), 100, seed=3)
        assert calls == []

    def test_decoupled_states_below_the_gate_are_worded_without_eigvals(self, monkeypatch):
        # the closed form that decides the verdict also words it, on every BLAS kernel
        at_bound = [[35.37985501855342, 0, -39.07527374549702, 0], [0, 1, 0, 0],
                    [-39.07527374549702, 0, 43.156678213769524, 0], [0, 0, 0, 1]]
        states = [CovarianceMatrix(2, np.diag([0.5, 1.0, 1.0, 1.0])), CovarianceMatrix(2, at_bound)]
        calls = eigvals_spy(monkeypatch)
        words = [gaussian._unphysical(state, "who") for state in states]
        assert words == [f"who: state is unphysical (symplectic eigenvalues "
                         f"{symplectic_eigenvalues_two_mode(state).tolist()})" for state in states]
        assert words[1] == "who: state is unphysical (symplectic eigenvalues [8.862084023090897, 0.0])"
        with pytest.warns(PhysicalityWarning, match="unphysical"):
            state = reconstruct(MeasurementSet(1.0, 1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(UnphysicalStateError):
            measure_campaign(state, 10, seed=3)
        with pytest.warns(PhysicalityWarning) as record:
            fit_efficiency(state)
        assert [str(w.message) for w in record] == [gaussian._unphysical(state, "fit_efficiency")]
        assert calls == []

    @pytest.mark.parametrize("entry", XP_ENTRIES)
    def test_one_xp_entry_takes_the_eigvals_route(self, monkeypatch, ref_state, entry):
        m = ref_state.entries.copy()
        m[entry] = m[entry[::-1]] = 1e-300
        state = CovarianceMatrix(2, m)
        calls = eigvals_spy(monkeypatch)
        assert is_physical(state)
        assert calls == [state]

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_other_mode_counts_take_the_eigvals_route(self, monkeypatch, n_modes):
        calls = eigvals_spy(monkeypatch)
        assert is_physical(vacuum_state(n_modes))
        assert not is_physical(CovarianceMatrix(n_modes, 0.5 * np.eye(2 * n_modes)))
        assert len(calls) == 2

    def test_near_bound_rounding_clamps_to_unphysical(self):
        # Cholesky passes, but xa*xb - cx^2 rounds to -4.4e-16
        xa, xb, cx = 1.1456046519611394, 1.9816001320124095, 1.5066951680948022
        assert xa * xb - cx * cx < 0.0
        state = CovarianceMatrix(2, [[xa, 0, cx, 0], [0, 1, 0, 0], [cx, 0, xb, 0], [0, 0, 0, 1]])
        assert gaussian._decoupled_nu_squared(state)[1] == 0.0
        assert not is_physical(state)
        assert np.min(symplectic_eigenvalues(state)) < 1e-6

    @pytest.mark.parametrize("diagonal, physical", TRAP_DIAGONALS)
    def test_underflow_and_overflow_fall_back_to_eigvals(self, monkeypatch, diagonal, physical):
        state = CovarianceMatrix(2, np.diag(diagonal))
        assert gaussian._decoupled_nu_squared(state) is None
        calls = eigvals_spy(monkeypatch)
        assert is_physical(state) == physical
        assert len(calls) == 1


class TestProductSources:
    # Transmittance 0 or 1: the beamsplitter does not mix, so the source is a product
    # state.  Pure ones (eta = 1, no dark noise) sit on the bounds, up to rounding.
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(transmittance=st.sampled_from([0.0, 1.0]), r=st.tuples(*[st.floats(0.0, 3.0)] * 2),
           phase=st.floats(-math.pi, math.pi), eta=st.tuples(*[st.floats(0.05, 1.0)] * 3),
           dark_noise=st.floats(0.0, 0.1))
    @example(transmittance=0.0, r=(3.0, 3.0), phase=0.0, eta=(1.0, 1.0, 1.0), dark_noise=0.0)
    @example(transmittance=0.0, r=(2.0 ** -52, 0.0), phase=0.0, eta=(0.5, 1.0, 0.5), dark_noise=0.0)
    def test_uncorrelated_and_physical(self, transmittance, r, phase, eta, dark_noise):
        state = build_epr_source(SourceParams(
            r1=r[0], r2=r[1], relative_phase=phase, transmittance=transmittance,
            eta_prep=eta[0], eta_det_a=eta[1], eta_det_b=eta[2], dark_noise=dark_noise))
        assert np.all(state.entries[:2, 2:] == 0.0)
        rep = criteria_report(state)
        assert rep.reid_b_given_a >= 1.0 - 1e-12 and rep.reid_a_given_b >= 1.0 - 1e-12
        # a lossless product rounds to just below 1, inside its rounding bound
        assert not rep.steering_b_given_a and not rep.steering_a_given_b
        assert rep.duan_sum >= 4.0 - 4e-12
        assert is_physical(state)


class TestQuadratureVariance:
    def test_vacuum_any_angle(self):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(-np.pi, np.pi, size=10):
            assert quadrature_variance(vacuum_state(2), 1, angle) == pytest.approx(1.0, abs=1e-12)

    def test_reference_entries(self, ref_state):
        assert quadrature_variance(ref_state, 0, 0.0) == pytest.approx(18.41, abs=1e-12)
        assert quadrature_variance(ref_state, 1, math.pi / 2) == pytest.approx(34.61, abs=1e-12)

    def test_mode_out_of_range(self, ref_state):
        with pytest.raises(ValueError):
            quadrature_variance(ref_state, 2, 0.0)


ENTRIES = "^CovarianceMatrix: entries must be an array of real numbers, got "


class TestCovarianceMatrixType:
    def test_asymmetric_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(2, m)

    def test_entries_near_the_float_max_stay_finite(self):
        # 0.5 * (a + b) overflows above about 9e307; equal pairs are kept as given
        big = 1.0e308
        m = np.diag([1.7e308, 1.7e308, 1.0, 1.0])
        m[0, 1], m[1, 0] = big, np.nextafter(big, math.inf)
        state = CovarianceMatrix(2, m)
        assert state.entries[0, 0] == 1.7e308
        assert state.entries[0, 1] == state.entries[1, 0] in (m[0, 1], m[1, 0])

    @pytest.mark.parametrize("other", [0.0, 1e-14])
    def test_signed_zero_pair_keeps_both_signs(self, other):
        # also when another pair (other != 0) takes the averaging path
        m = np.eye(4)
        m[0, 1], m[1, 0] = 0.0, -0.0
        m[2, 3] = other
        entries = CovarianceMatrix(2, m).entries
        assert entries[0, 1] == 0.0 and not np.signbit(entries[0, 1])
        assert entries[1, 0] == 0.0 and np.signbit(entries[1, 0])

    def test_pair_within_tolerance_is_averaged(self):
        m = np.eye(4)
        a, b = 0.3, 0.3 + 1e-14
        m[0, 2], m[2, 0] = a, b
        entries = CovarianceMatrix(2, m).entries
        assert entries[0, 2] == entries[2, 0] == 0.5 * a + 0.5 * b
        assert entries[0, 2] not in (a, b)

    def test_rejection_names_the_worst_pair(self):
        m = np.eye(4)
        m[0, 1] = 1e-9    # past the 1e-12 tolerance too, but less so
        m[3, 2] = 1e-6
        with pytest.raises(ValueError, match=r"not symmetric at \(2,3\): 0\.0 vs 1e-06$"):
            CovarianceMatrix(2, m)

    @pytest.mark.parametrize("offset", [0.0, 1e-14])
    def test_entries_do_not_alias_the_input(self, offset):
        # exactly symmetric input (offset 0) and input averaged on construction
        m = np.eye(4)
        m[0, 2], m[2, 0] = 0.25, 0.25 + offset
        state = CovarianceMatrix(2, m)
        assert not np.shares_memory(state.entries, m)
        assert not state.entries.flags.writeable and m.flags.writeable
        m[0, 0] = 7.0
        assert state.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            state.entries[0, 0] = 7.0

    def test_not_positive_definite_rejected(self):
        m = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(ValueError, match="positive definite"):
            CovarianceMatrix(2, m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(2, np.eye(3))

    def test_json_roundtrip(self, ref_state):
        again = CovarianceMatrix.from_dict(ref_state.to_dict())
        np.testing.assert_array_equal(again.entries, ref_state.entries)
        assert CovarianceMatrix.from_dict({**ref_state.to_dict(), "n_modes": 2.0}).n_modes == 2

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_modes=st.integers(1, 3), decoupled=st.booleans())
    def test_states_read_back_what_they_write(self, seed, n_modes, decoupled):
        state = random_physical_state(np.random.default_rng(seed), n_modes)
        if decoupled:  # the mean of the state and its time reverse: zero X-P entries
            flip = np.tile([1.0, -1.0], n_modes)
            state = CovarianceMatrix(n_modes, 0.5 * (state.entries
                                                     + state.entries * np.outer(flip, flip)))
        again = CovarianceMatrix.from_dict(json.loads(json.dumps(state.to_dict())))
        assert again == state
        if n_modes == 2:  # the recorded moments too, of every decoupled state
            assert again._six == state._six and (state._six is not None or not decoupled)

    @pytest.mark.parametrize("payload, match", [
        ([[1.0, 0.0], [0.0, 1.0]], "expected an object"),
        ({"n_modes": None, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix: n_modes must be an integer, got None$"),
        ({"n_modes": 2, "entries": {"x1": 1.0}}, f"{ENTRIES}dict$"),
        ({"entries": np.eye(4).tolist()}, "^CovarianceMatrix JSON: missing field\\(s\\) \\['n_modes'\\]$"),
        ({"n_modes": 2.7, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix: n_modes must be an integer, got 2.7$"),
        ({"n_modes": True, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix: n_modes must be an integer, got True$"),
        ({"n_modes": "2", "entries": np.eye(4).tolist()},
         "^CovarianceMatrix: n_modes must be an integer, got '2'$"),
        ({"n_modes": 0, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix: n_modes must be >= 1, got 0$"),
        ({"n_modes": 2, "entries": [[10 ** 400, 0, 0, 0]] + np.eye(4)[1:].tolist()},
         "^CovarianceMatrix: entries must be finite$"),
        ({"n_modes": 2, "entries": [[True, 0, 0, 0]] + np.eye(4)[1:].tolist()}, f"{ENTRIES}True$"),
        ({"n_modes": 2, "entries": True}, f"{ENTRIES}bool$"),
        ({"n_modes": 2, "entries": [["1", 0, 0, 0]] + np.eye(4)[1:].tolist()}, f"{ENTRIES}'1'$"),
        ({"n_modes": 2, "entries": "abc"}, f"{ENTRIES}str$"),
        ({"n_modes": 2, "entries": [[1, 0, 0, 0], [0, 1, 0]] + np.eye(4)[2:].tolist()},
         f"{ENTRIES}a ragged sequence$"),
        ({"n_modes": 2, "entries": [[1, 0, 0, 0], [0, 1, 0, [0]]] + np.eye(4)[2:].tolist()},
         f"{ENTRIES}a ragged sequence$"),
        ({"n_modes": 2, "entries": [[None, 0, 0, 0]] + np.eye(4)[1:].tolist()}, f"{ENTRIES}None$"),
    ])
    def test_badly_shaped_json_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            CovarianceMatrix.from_dict(payload)

    def test_unknown_ordering_rejected(self, ref_state):
        d = ref_state.to_dict()
        d["ordering"] = "x1x2p1p2"
        with pytest.raises(ValueError, match="ordering"):
            CovarianceMatrix.from_dict(d)

    def test_entries_are_read_only(self, ref_state):
        with pytest.raises(ValueError):
            ref_state.entries[0, 0] = 99.0


class TestValueEquality:
    """CovarianceMatrix and SymplecticTransform compare by value and hash by
    (n_modes, the entries as Python floats)."""

    def test_records_built_apart_are_equal(self):
        assert reference_state() == reference_state()
        assert squeezer(0.3, 0, 2) == squeezer(0.3, 0, 2)
        assert vacuum_state(2) in [vacuum_state(2)]
        assert reconstruct(REFERENCE_MEASUREMENTS) == CovarianceMatrix(
            2, reconstruct(REFERENCE_MEASUREMENTS).entries)  # _of_moments or the constructor

    def test_records_that_differ_are_not_equal(self):
        assert vacuum_state(2) != vacuum_state(1)
        assert vacuum_state(2) != CovarianceMatrix(2, np.diag([1.0, 1.0, 1.0, 2.0]))
        assert squeezer(0.3, 0, 2) != squeezer(0.3, 1, 2)
        assert vacuum_state(1) != SymplecticTransform(1, np.eye(2))  # another class
        assert vacuum_state(2) != np.eye(4).tolist()

    def test_equal_records_hash_alike(self):
        m = np.eye(4)
        m[0, 1], m[1, 0] = 0.0, -0.0  # equal to the vacuum, with a negative zero
        assert CovarianceMatrix(2, m) == vacuum_state(2)
        assert hash(CovarianceMatrix(2, m)) == hash(vacuum_state(2))
        assert hash(vacuum_state(2)) == hash((2, tuple(np.eye(4).ravel().tolist())))
        assert len({squeezer(0.3, 0, 2), squeezer(0.3, 0, 2), phase_shift(0.0, 0, 2)}) == 2
        assert {vacuum_state(2): "vacuum"}[CovarianceMatrix(2, np.eye(4))] == "vacuum"


# Each builder called with n_modes as its only free argument, keyed by the name it refuses by.
MODE_COUNT_BUILDS = {
    "CovarianceMatrix": lambda n: CovarianceMatrix(n, np.eye(4)),
    "SymplecticTransform": lambda n: SymplecticTransform(n, np.eye(4)),
    "vacuum_state": vacuum_state,
    "squeezer": lambda n: squeezer(0.3, 0, n),
    "phase_shift": lambda n: phase_shift(0.1, 0, n),
    "beamsplitter": lambda n: beamsplitter(0.5, 0, 1, n),
    "symplectic_form": symplectic_form,
}

# (the argument "<owner>.<name>" refused, the call, its message): every mode argument
MODE_ROWS = [
    ("squeezer.n_modes", lambda s: squeezer(0.3, 0, 2.0),
     "squeezer: n_modes must be an integer, got 2.0"),
    ("phase_shift.n_modes", lambda s: phase_shift(0.1, 0, 2.0),
     "phase_shift: n_modes must be an integer, got 2.0"),
    ("beamsplitter.n_modes", lambda s: beamsplitter(0.5, 0, 1, 2.0),
     "beamsplitter: n_modes must be an integer, got 2.0"),
    ("squeezer.mode", lambda s: squeezer(0.3, 1.0, 2),
     "squeezer: mode must be an integer, got 1.0"),
    ("quadrature_variance.mode", lambda s: quadrature_variance(s, 1.0, 0.0),
     "quadrature_variance: mode must be an integer, got 1.0"),
    ("apply_loss.mode", lambda s: apply_loss(s, LossChannel(mode_index=1.0, efficiency=0.5)),
     "apply_loss: mode must be an integer, got 1.0"),
    ("squeezer.mode", lambda s: squeezer(0.3, True, 2),
     "squeezer: mode must be an integer, got True"),
    ("apply_loss.mode", lambda s: apply_loss(s, LossChannel(True, 0.5)),
     "apply_loss: mode must be an integer, got True"),
    ("quadrature_variance.mode", lambda s: quadrature_variance(s, True, 0.0),
     "quadrature_variance: mode must be an integer, got True"),
    ("MeasurementSetting.single.mode", lambda s: MeasurementSetting.single(True),
     "MeasurementSetting: mode must be an integer, got True"),
    ("MeasurementSetting.single.mode", lambda s: MeasurementSetting.single(1.0),
     "MeasurementSetting: mode must be an integer, got 1.0"),
    ("CovarianceMatrix.from_dict.d",
     lambda s: CovarianceMatrix.from_dict({**s.to_dict(), "n_modes": True}),
     "CovarianceMatrix: n_modes must be an integer, got True"),
    ("phase_shift.mode", lambda s: phase_shift(0.1, np.True_, 2),
     "phase_shift: mode must be an integer, got np.True_"),
    ("beamsplitter.mode_a", lambda s: beamsplitter(0.5, 0.0, 1, 2),
     "beamsplitter: mode must be an integer, got 0.0"),
    ("beamsplitter.mode_b", lambda s: beamsplitter(0.5, 0, "1", 2),
     "beamsplitter: mode must be an integer, got '1'"),
    ("squeezer.mode", lambda s: squeezer(0.3, 2, 2), "squeezer: mode 2 out of range for 2 modes"),
    ("beamsplitter.mode_a", lambda s: beamsplitter(0.5, -1, 1, 2),
     "beamsplitter: mode -1 out of range for 2 modes"),
    ("beamsplitter.mode_b", lambda s: beamsplitter(0.5, 1, 1, 2),
     "beamsplitter: modes must be distinct"),
    ("apply_loss.mode", lambda s: apply_loss(s, LossChannel(2, 0.5)),
     "apply_loss: mode 2 out of range for 2 modes"),
    ("quadrature_variance.mode", lambda s: quadrature_variance(s, -1, 0.0),
     "quadrature_variance: mode -1 out of range for 2 modes"),
    ("MeasurementSetting.single.mode", lambda s: MeasurementSetting.single(2),
     "MeasurementSetting: mode 2 out of range for 2 modes"),
]


class TestModeCount:
    """n_modes is an integer other than a bool, stored as a Python int, and a mode index an
    integer in [0, n_modes): one rule, decided by gaussian before numpy sees either."""

    @pytest.mark.parametrize("name", MODE_COUNT_BUILDS)
    @pytest.mark.parametrize("n_modes", [2.0, True, np.True_, "2", None, 2.5])
    def test_a_non_integer_is_refused_by_name(self, name, n_modes):
        with pytest.raises(ValueError, match=(f"^{name}: n_modes must be an integer, "
                                              f"got {re.escape(repr(n_modes))}$")):
            MODE_COUNT_BUILDS[name](n_modes)

    @pytest.mark.parametrize("cls", [CovarianceMatrix, SymplecticTransform])
    def test_an_integer_is_stored_as_an_int(self, cls):
        record = cls(np.int64(2), np.eye(4))
        assert type(record.n_modes) is int and record.n_modes == 2
        assert record == cls(2, np.eye(4))

    def test_a_numpy_integer_writes_json(self):
        d = CovarianceMatrix(np.int64(2), np.eye(4)).to_dict()
        assert json.dumps(d) == json.dumps(vacuum_state(2).to_dict())

    @pytest.mark.parametrize("name", MODE_COUNT_BUILDS)
    def test_fewer_than_one_mode_is_refused(self, name):
        with pytest.raises(ValueError, match=f"^{name}: n_modes must be >= 1, got 0$"):
            MODE_COUNT_BUILDS[name](0)

    @pytest.mark.parametrize("key, call, message", MODE_ROWS, ids=[row[0] for row in MODE_ROWS])
    def test_every_mode_argument_is_refused_in_words(self, ref_state, key, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ref_state)

    def test_a_numpy_integer_mode_builds_what_an_int_does(self, ref_state):
        one, two = np.int64(1), np.int64(2)
        assert squeezer(0.3, one, two) == squeezer(0.3, 1, 2)
        assert type(squeezer(0.3, one, two).n_modes) is int
        assert phase_shift(0.1, one, two) == phase_shift(0.1, 1, 2)
        assert beamsplitter(0.5, np.int64(0), one, two) == beamsplitter(0.5, 0, 1, 2)
        assert (apply_loss(ref_state, LossChannel(one, 0.5))
                == apply_loss(ref_state, LossChannel(1, 0.5)))
        assert quadrature_variance(ref_state, one, 0.3) == quadrature_variance(ref_state, 1, 0.3)
        assert MeasurementSetting.single(one, 0.3) == MeasurementSetting.single(1, 0.3)

    def test_the_symplectic_form_is_cached_by_the_decided_count(self):
        # decided before the cache, which takes 2.0 and True for keys equal to 2 and 1
        omega = symplectic_form(2)
        assert symplectic_form(np.int64(2)) is omega and not omega.flags.writeable
        for n_modes in (2.0, True):
            with pytest.raises(ValueError, match="^symplectic_form: n_modes must be an integer"):
                symplectic_form(n_modes)


REAL, FINITE, COUNT = "_real", "_finite", "_integer"  # the gaussian rule that reads a site
REFERENCE, X_A = reference_state(), MeasurementSetting()
REFERENCE_CSV = REFERENCE_MEASUREMENTS.to_csv()
BIG = 10 ** 400  # an int past the float range, read as inf


def read(v) -> float:
    """v as the rule reads it: BIG as inf."""
    return math.inf if v == BIG else float(v)


@dataclasses.dataclass(frozen=True)
class Site:
    """One number argument: `key` "<owner>.<name>" as the meta-test lists it, `call` the site
    with v in that argument and every other argument valid, `what` the subject its refusals
    name, `kind` the rule that reads it (None: no rule of its own), `valid` a value it takes,
    and `refusals` its own (value, message) refusals, a range message on the float read."""

    key: str
    call: Callable
    what: str
    kind: str | None
    valid: object
    refusals: tuple = ()

    def rows(self):
        """(value, message) of every refusal: the rule's for the kind, then the site's own."""
        if self.kind == COUNT:
            rule = [(v, f"{self.what} must be an integer, got {v!r}") for v in (2.5, True)]
        elif self.kind is None:
            rule = []
        else:
            rule = [(v, f"{self.what} must be a real number, got {v!r}")
                    for v in (True, np.True_, "1", 1j, [1.0])]
        if self.kind == FINITE:
            rule += [(v, f"{self.what} must be finite, got {read(v)}")
                     for v in (math.nan, math.inf, -math.inf, BIG)]
        return [*rule, *self.refusals]


def in_range(what, interval, *values):
    """The refusals "<what> must be in <interval>, got <float>" of the values."""
    return tuple((v, f"{what} must be in {interval}, got {read(v)}") for v in values)


def finite_at_least_0(what, *values):
    """The refusals "<what> must be finite, >= 0, got <float>" of the values."""
    return tuple((v, f"{what} must be finite, >= 0, got {read(v)}") for v in values)


DARK = "sampler: dark_noise must be >= 0, got {} (finite values only)"
REL = "MeasurementSet: relative_error must be in [0, 1), got {}"


def negative_seed(who):
    """The refusals of a negative seed by `who`."""
    return ((-1, f"{who}: seed must be >= 0, got -1"),
            (-(2 ** 70), f"{who}: seed must be >= 0, got -1180591620717411303424"))


# each SourceParams field: a value it takes, and its refusal of BIG
SOURCE_FIELDS = {
    "r1": (0.5, "SourceParams: r1 must be in [0, 354.891], got inf"),
    "r2": (0.4, "SourceParams: r2 must be in [0, 354.891], got inf"),
    "relative_phase": (0.3, "SourceParams: relative_phase must be finite"),
    "transmittance": (0.4, "SourceParams: transmittance must be in [0, 1], got inf"),
    "eta_prep": (0.9, "SourceParams: eta_prep must be in (0, 1], got inf"),
    "eta_det_a": (0.8, "SourceParams: eta_det_a must be in (0, 1], got inf"),
    "eta_det_b": (0.7, "SourceParams: eta_det_b must be in (0, 1], got inf"),
    "dark_noise": (0.01, "SourceParams: dark_noise must be finite, >= 0, got inf"),
}


def sampler_sites(name, call, n_name, least, too_few):
    """The count, seed and dark-noise sites of a sampler call(n, seed, dark_noise) that takes
    at least `least` samples and words a count below it by the template too_few."""
    return [
        Site(f"{name}.{n_name}", lambda v: call(v, 0, 0.0), f"{name}: {n_name}", COUNT, least,
             tuple((v, too_few.format(v)) for v in range(least - 1, -1, -1))),
        Site(f"{name}.seed", lambda v: call(least, v, 0.0), f"{name}: seed", COUNT, 1,
             negative_seed(name)),
        Site(f"{name}.dark_noise", lambda v: call(least, 0, v), "sampler: dark_noise", REAL, 0.01,
             tuple((v, DARK.format(read(v))) for v in (BIG, math.nan, math.inf, -1.0))),
    ]


SITES = [
    # criteria
    Site("GainPair.g_x", lambda v: GainPair(v, -1.0), "GainPair: g_x", FINITE, 0.5,
         ((np.float64(math.nan), "GainPair: g_x must be finite, got nan"),)),
    Site("GainPair.g_p", lambda v: GainPair(1.0, v), "GainPair: g_p", FINITE, -0.5),
    Site("conditional_variance.gain", lambda v: conditional_variance(REFERENCE, "x", "b|a", v),
         "conditional_variance: gain", FINITE, 0.9),
    # gaussian
    Site("LossChannel.efficiency", lambda v: LossChannel(0, v), "LossChannel: efficiency", REAL,
         0.5, in_range("LossChannel: efficiency", "[0, 1]", BIG, math.nan, 1.5, -0.1)),
    Site("LossChannel.excess_noise", lambda v: LossChannel(0, 0.9, v),
         "LossChannel: excess_noise", REAL, 0.25,
         finite_at_least_0("LossChannel: excess_noise", BIG, math.nan, math.inf, -math.inf,
                           -0.1)),
    Site("squeezer.r", lambda v: squeezer(v, 0, 2), "squeezer: r", FINITE, 0.3,
         in_range("squeezer: r", "[-709.783, 709.783]", 710, -709.8)),
    Site("phase_shift.theta", lambda v: phase_shift(v, 0, 2), "phase_shift: theta", FINITE, 0.1),
    Site("beamsplitter.transmittance", lambda v: beamsplitter(v, 0, 1, 2),
         "beamsplitter: transmittance", REAL, 0.3,
         in_range("beamsplitter: transmittance", "[0, 1]", BIG, math.nan, 1.2, -0.1)),
    Site("quadrature_variance.angle", lambda v: quadrature_variance(REFERENCE, 0, v),
         "quadrature_variance: angle", FINITE, 0.3),
    Site("is_physical.atol", lambda v: is_physical(REFERENCE, v), "is_physical: atol", FINITE,
         1e-6),
    *(Site(f"SourceParams.{name}", lambda v, name=name: SourceParams(**{name: v}),
           f"SourceParams: {name}", REAL, valid,
           ((None, f"SourceParams: {name} must be a real number, got None"), (BIG, big)))
      for name, (valid, big) in SOURCE_FIELDS.items()),
    # sampler
    Site("MeasurementSetting.angle_a", lambda v: MeasurementSetting(angle_a=v),
         "MeasurementSetting: angle_a", FINITE, 0.3),
    Site("MeasurementSetting.angle_b", lambda v: MeasurementSetting(angle_b=v),
         "MeasurementSetting: angle_b", FINITE, 0.3),
    Site("MeasurementSetting.coefficients", lambda v: MeasurementSetting(coefficients=v),
         "MeasurementSetting: coefficients", None, (0.5, -1.0),
         (*((v, f"MeasurementSetting: coefficients must be a tuple or list of two, got {v!r}")
            for v in [(1.0,), (1.0, 2.0, 3.0), None]),
          (("a", 1.0), "MeasurementSetting: c_a must be a real number, got 'a'"),
          ((0.0, 0.0), "MeasurementSetting: coefficients must not both be zero"))),
    Site("MeasurementSetting.single.angle", lambda v: MeasurementSetting.single(0, v),
         "MeasurementSetting: angle_a", FINITE, 0.3),
    Site("MeasurementSetting.joint.c_a", lambda v: MeasurementSetting.joint(v, -1.0),
         "MeasurementSetting: c_a", FINITE, 0.5),
    Site("MeasurementSetting.joint.c_b", lambda v: MeasurementSetting.joint(1.0, v),
         "MeasurementSetting: c_b", FINITE, 0.5),
    Site("MeasurementSetting.joint.angle_a", lambda v: MeasurementSetting.joint(1.0, 1.0, v),
         "MeasurementSetting: angle_a", FINITE, 0.3),
    Site("MeasurementSetting.joint.angle_b",
         lambda v: MeasurementSetting.joint(1.0, 1.0, 0.0, v), "MeasurementSetting: angle_b",
         FINITE, 0.3),
    Site("SampleBatch.n", lambda v: SampleBatch(X_A, [1.0, 2.0], 0, v), "SampleBatch: n", COUNT,
         2, tuple((v, f"SampleBatch: need n == len(values) >= 2, got n={v}") for v in (1, 3))),
    # n == len(values) < 2: the batch's own count refusal, not its length check
    Site("SampleBatch.n.one_value", lambda v: SampleBatch(X_A, [1.0], 0, v), "SampleBatch: n",
         None, None, ((1, "SampleBatch: need n == len(values) >= 2, got n=1"),)),
    Site("SampleBatch.seed", lambda v: SampleBatch(X_A, [1.0, 2.0], v, 2), "SampleBatch: seed",
         COUNT, 7),
    *sampler_sites("sample_quadratures",
                   lambda n, seed, dark: sample_quadratures(REFERENCE, X_A, n, seed, dark),
                   "n", 2, "sample_quadratures: n must be >= 2, got {}"),
    *sampler_sites("measure_campaign",
                   lambda n, seed, dark: measure_campaign(REFERENCE, n, seed, dark),
                   "n_per_setting", 3, "measure_campaign: n_per_setting must be >= 3, got n={}"),
    *sampler_sites("campaign_batches",
                   lambda n, seed, dark: campaign_batches(REFERENCE, n, seed, dark),
                   "n_per_setting", 2, "campaign_batches: n_per_setting must be >= 2, got {}"),
    # reconstruction
    *(Site(f"covariance_from_sum.{name}",
           lambda v, i=i: covariance_from_sum(*(v if j == i else x for j, x in
                                                enumerate((3.5, 1.5, 2.0)))),
           f"covariance_from_sum: {name}", FINITE, valid,
           () if i == 0 else ((bad, "covariance_from_sum: var_1 and var_2 must be positive"),))
      for i, (name, valid, bad) in enumerate([("var_sum", 3.5, None), ("var_1", 1.5, 0.0),
                                              ("var_2", 2.0, -1.0)])),
    *(Site(f"MeasurementSet.{name}",
           lambda v, name=name: dataclasses.replace(REFERENCE_MEASUREMENTS, **{name: v}),
           f"MeasurementSet: {name}", REAL, 0.5,
           ((BIG, REL.format("inf") if name == "relative_error"
             else f"MeasurementSet: {name} must be positive, got inf"),))
      for name in (*CSV_FIELDS, "relative_error")),
    Site("MeasurementSet.from_csv.relative_error",
         lambda v: MeasurementSet.from_csv(REFERENCE_CSV, v), "MeasurementSet: relative_error",
         REAL, 0.01, ((BIG, REL.format("inf")),)),
    Site("expected_measurements.relative_error", lambda v: expected_measurements(REFERENCE, v),
         "MeasurementSet: relative_error", REAL, 0.01, ((BIG, REL.format("inf")),)),
    # reference
    Site("perturbation_study.relative_error",
         lambda v: perturbation_study(REFERENCE_MEASUREMENTS, v, n_trials=2),
         "MeasurementSet: relative_error", REAL, 0.05,
         tuple((v, REL.format(read(v))) for v in (BIG, -1.0, 1.0, math.nan))),
    Site("perturbation_study.n_trials",
         lambda v: perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=v),
         "perturbation_study: n_trials", COUNT, 2,
         tuple((v, f"perturbation_study: n_trials must be >= 2, got {v}") for v in (1, 0, -1))),
    Site("perturbation_study.seed",
         lambda v: perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=2, seed=v),
         "perturbation_study: seed", COUNT, 3, negative_seed("perturbation_study")),
    # loss_model
    Site("efficiency_decomposition.xi", lambda v: efficiency_decomposition(v, 0.95),
         "efficiency_decomposition: xi", REAL, 0.9,
         (*((v, f"efficiency_decomposition: xi = {read(v)} exceeds eta_prep = 0.95; "
                 "detection efficiency cannot exceed 1") for v in (BIG, 0.96)),
          (0.0, "efficiency_decomposition: xi must be positive, got 0.0"),
          (math.nan, "efficiency_decomposition: xi must be positive, got nan"))),
    Site("efficiency_decomposition.eta_prep", lambda v: efficiency_decomposition(0.5, v),
         "efficiency_decomposition: eta_prep", REAL, 0.9,
         in_range("efficiency_decomposition: eta_prep", "(0, 1]", BIG, 1.5, 0.0, math.nan)),
    Site("budget_prep_efficiency.internal_loss", lambda v: budget_prep_efficiency(v, 0.0, 1.0),
         "budget_prep_efficiency: internal_loss", REAL, 0.025,
         in_range("budget_prep_efficiency: internal_loss", "[0, 1)", BIG, 1.0, -0.1)),
    Site("budget_prep_efficiency.propagation_loss",
         lambda v: budget_prep_efficiency(0.0, v, 1.0), "budget_prep_efficiency: propagation_loss",
         REAL, 0.01,
         in_range("budget_prep_efficiency: propagation_loss", "[0, 1)", BIG, 1.0, math.nan)),
    Site("budget_prep_efficiency.visibility", lambda v: budget_prep_efficiency(0.0, 0.0, v),
         "budget_prep_efficiency: visibility", REAL, 0.993,
         in_range("budget_prep_efficiency: visibility", "(0, 1]", BIG, 0.0, 1.1)),
    Site("variance_to_db.variance", lambda v: variance_to_db(v), "variance_to_db: variance",
         FINITE, 0.5, ((0.0, "variance_to_db: variance must be positive, got 0.0"),
                       (-1.0, "variance_to_db: variance must be positive, got -1.0"))),
    # db_to_variance and detected_variance pass +-inf and nan on: the CLI's --dark-noise-db
    # hands -inf to the sampler's own refusal
    Site("db_to_variance.db", lambda v: db_to_variance(v), "db_to_variance: db", REAL, 3.0),
    Site("detected_variance.r", lambda v: detected_variance(v, 0.9), "detected_variance: r", REAL,
         1.0),
    Site("detected_variance.xi", lambda v: detected_variance(1.0, v), "detected_variance: xi",
         REAL, 0.9),
    Site("LossFit.xi", lambda v: LossFit(v, 1.0, 1.0, 0.1, 3, True), "LossFit: xi", REAL, 0.9,
         in_range("LossFit: xi", "(0, 1]", BIG, math.nan, 0.0, 1.5)),
    Site("LossFit.r1", lambda v: LossFit(0.9, v, 1.0, 0.1, 3, True), "LossFit: r1", REAL, 1.0),
    Site("LossFit.r2", lambda v: LossFit(0.9, 1.0, v, 0.1, 3, True), "LossFit: r2", REAL, 1.0),
    Site("LossFit.residual", lambda v: LossFit(0.9, 1.0, 1.0, v, 3, True), "LossFit: residual",
         REAL, 0.1, tuple((v, f"LossFit: residual must be >= 0, got {read(v)}")
                          for v in (-0.1, -math.inf, math.nan))),
    Site("LossFit.iterations", lambda v: LossFit(0.9, 1.0, 1.0, 0.1, v, True),
         "LossFit: iterations", COUNT, 3,
         tuple((v, f"LossFit: iterations must be >= 0, got {v}") for v in (-1, -(2 ** 70)))),
]
RULE_ROWS = [(site, value, message) for site in SITES for value, message in site.rows()]

# Arguments annotated float or int that no rule reads, each with the reason.
EXEMPT = {
    "LossChannel.mode_index": "decided by apply_loss against the state's mode count "
                              "(TestModeCount's apply_loss rows)",
    **{f"CriteriaReport.{f.name}": "an output record, built by criteria_report from the floats "
                                   "it computed"
       for f in dataclasses.fields(cvsteer.CriteriaReport) if f.type == "float"},
    **{f"InconsistentDataError.{name}": "raised by reconstruct with the floats it computed"
       for name in ("value", "bound")},
}


def annotated(types: set) -> set:
    """Every parameter and record field annotated with one of the type names (alone, in a
    union or in a list[...]) among cvsteer's public names, as "<owner>.<name>": a function's
    parameters, a class's fields and __init__ parameters, and "<class>.<method>.<name>" for
    its public methods."""
    def marked(annotation):
        text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
        parts = {part.strip() for part in text.split("|")}
        return bool(types & {re.sub(r"^list\[(.*)\]$", r"\1", part) for part in parts})

    def parameters(fn):
        return [p.name for p in inspect.signature(fn).parameters.values() if marked(p.annotation)]

    keys = set()
    for name in cvsteer.__all__:
        obj = getattr(cvsteer, name)
        if inspect.isclass(obj):
            fields = getattr(obj, "__dataclass_fields__", {}).values()
            keys.update(f"{name}.{f.name}" for f in fields if marked(f.type))
            if "__init__" in vars(obj):
                keys.update(f"{name}.{p}" for p in parameters(obj.__init__))
            for attr in vars(obj):
                if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                    keys.update(f"{name}.{attr}.{p}" for p in parameters(getattr(obj, attr)))
        elif callable(obj):  # a function, cached or not
            keys.update(f"{name}.{p}" for p in parameters(obj))
    return keys


def spelled(x):
    """x spelled out exactly, every number with its type: a record by its fields, an array or
    a list by its values, a dict by its items."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, spelled(getattr(x, f.name)))
                                  for f in dataclasses.fields(x)]
    if isinstance(x, np.ndarray):
        return "ndarray", spelled(x.tolist())
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [spelled(v) for v in x]
    if isinstance(x, dict):
        return "dict", [(k, spelled(v)) for k, v in x.items()]
    return type(x).__name__, repr(x)


# numbers of every kind a caller may pass, and values that are not numbers
_ANY_NUMBER = st.one_of(st.floats(), st.floats(-2.0, 2.0), st.integers(-2 ** 53, 2 ** 53),
                        st.booleans(), st.none(), st.text(max_size=2), st.floats().map(np.float64),
                        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                        st.integers(2 ** 1024, 2 ** 1100))


def rebuilt(record):
    """The record built again from its fields."""
    return type(record)(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)})


class TestNumberRule:
    """Every real argument of a public record or function is read by gaussian._real, a finite
    one by gaussian._finite, and every count and seed by gaussian._integer, before math, numpy
    or a comparison sees it: a bool or a str is refused in the rule's words, an out-of-range
    value by the site's own message on the float read, and a numpy scalar gives what a float
    or an int gives."""

    @pytest.mark.parametrize("site, value, message", RULE_ROWS,
                             ids=[f"{site.key}={'10**400' if value is BIG else repr(value)}"
                                  for site, value, _ in RULE_ROWS])
    def test_every_refusal_is_worded(self, site, value, message):
        with pytest.raises(ValueError) as exc:
            site.call(value)
        assert type(exc.value) is ValueError and str(exc.value) == message

    @pytest.mark.parametrize("site", [s for s in SITES if s.kind is not None],
                             ids=[s.key for s in SITES if s.kind is not None])
    def test_a_numpy_scalar_gives_what_a_python_number_does(self, site):
        python, numpy = (int, np.int64) if site.kind == COUNT else (float, np.float64)
        assert spelled(site.call(numpy(site.valid))) == spelled(site.call(python(site.valid)))

    def test_every_number_argument_is_ruled(self):
        numbers = annotated({"float", "int"})
        ruled = ({site.key for site in SITES} | {f"{name}.n_modes" for name in MODE_COUNT_BUILDS}
                 | {key for key, _, _ in MODE_ROWS})
        assert sorted(numbers - ruled - set(EXEMPT)) == []
        assert sorted(set(EXEMPT) - numbers) == []  # no stale exemption
        assert sorted(set(EXEMPT) & ruled) == []

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(gains=st.tuples(_ANY_NUMBER, _ANY_NUMBER))
    def test_gain_pairs_read_back_what_they_write(self, gains):
        try:
            pair = GainPair(*gains)
        except ValueError:
            return
        assert type(pair.g_x) is float and type(pair.g_p) is float
        assert GainPair(**json.loads(json.dumps(pair.to_dict()))) == pair

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(mode=st.integers(0, 1), efficiency=_ANY_NUMBER | st.floats(0.0, 1.0),
           excess_noise=_ANY_NUMBER)
    def test_loss_channels_read_back_what_they_write(self, mode, efficiency, excess_noise):
        try:
            channel = LossChannel(mode, efficiency, excess_noise)
        except ValueError:
            return
        assert type(channel.efficiency) is float and type(channel.excess_noise) is float
        assert rebuilt(channel) == channel

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(angles=st.tuples(_ANY_NUMBER, _ANY_NUMBER),
           coefficients=st.tuples(_ANY_NUMBER, _ANY_NUMBER) | st.lists(_ANY_NUMBER, max_size=3))
    def test_settings_read_back_what_they_write(self, angles, coefficients):
        try:
            setting = MeasurementSetting(*angles, coefficients)
        except ValueError:
            return
        assert all(type(v) is float for v in (setting.angle_a, setting.angle_b,
                                              *setting.coefficients))
        assert type(setting.coefficients) is tuple
        assert rebuilt(setting) == setting and hash(rebuilt(setting)) == hash(setting)


NOT_RECORDS = (np.eye(4), "x_a", None)  # an ndarray, a str and None
S2, BATCH = squeezer(0.3, 0, 2), SampleBatch(X_A, [1.0, 2.0], 0, 2)
RECORDS = {"CovarianceMatrix", "SymplecticTransform", "LossChannel", "MeasurementSetting",
           "MeasurementSet", "SampleBatch", "GainPair", "SourceParams"}


@dataclasses.dataclass(frozen=True)
class RecordSite:
    """One state or record argument: `key` "<owner>.<name>" as the meta-test lists it, `call`
    the site with v in that argument and every other argument valid, `what` the "<who>:
    <name>" its refusals name, `must` what it must be (None: its own refusals only),
    `two_mode` whether it reads a two-mode state by gaussian._moments, and `refusals` its
    own (value, message) refusals."""

    key: str
    call: Callable
    what: str
    must: str | None
    two_mode: bool = False
    refusals: tuple = ()

    def rows(self):
        """(value, message) of every refusal: the rule's, a two-mode reader's, the site's."""
        rule = [(v, f"{self.what} must be {self.must}, got {type(v).__name__}")
                for v in NOT_RECORDS if self.must]
        if self.two_mode:
            who = self.what.split(":")[0]
            rule += [(vacuum_state(n), f"{who}: expected a two-mode state, got {n} modes")
                     for n in (1, 3)]
        return [*rule, *self.refusals]


def state_site(owner, call, who=None, two_mode=False):
    """The site of the state argument of `owner`, refused as `who` (default: owner)."""
    return RecordSite(f"{owner}.state", call, f"{who or owner}: state", "a CovarianceMatrix",
                      two_mode)


RECORD_SITES = [
    # gaussian
    state_site("apply_symplectic", lambda v: apply_symplectic(v, S2)),
    RecordSite("apply_symplectic.s", lambda v: apply_symplectic(REFERENCE, v),
               "apply_symplectic: s", "a SymplecticTransform"),
    state_site("apply_loss", lambda v: apply_loss(v, LossChannel(0, 0.5))),
    RecordSite("apply_loss.channel", lambda v: apply_loss(REFERENCE, v), "apply_loss: channel",
               "a LossChannel"),
    state_site("symplectic_eigenvalues", symplectic_eigenvalues),
    state_site("symplectic_eigenvalues_two_mode", symplectic_eigenvalues_two_mode, two_mode=True),
    state_site("is_physical", is_physical),
    state_site("quadrature_variance", lambda v: quadrature_variance(v, 0, 0.3)),
    RecordSite("compose.transforms", lambda v: compose(v), "compose: transforms[0]",
               "a SymplecticTransform"),
    RecordSite("compose.transforms.second", lambda v: compose(S2, v), "compose: transforms[1]",
               "a SymplecticTransform"),
    *(RecordSite(f"{name}.params", call, "build_epr_source: params", "a SourceParams")
      for name, call in (("build_epr_source", build_epr_source),
                         ("forward_covariance", forward_covariance))),
    # criteria
    state_site("conditional_variance", lambda v: conditional_variance(v, "x", "b|a", 0.9),
               two_mode=True),
    state_site("optimal_gain", lambda v: optimal_gain(v, "x", "b|a"), two_mode=True),
    state_site("reid_product", lambda v: reid_product(v, "b|a"), two_mode=True),
    RecordSite("reid_product.gains", lambda v: reid_product(REFERENCE, "b|a", v),
               "reid_product: gains", "a GainPair or 'optimal'"),
    state_site("duan_sum", duan_sum, two_mode=True),
    state_site("criteria_report", criteria_report, two_mode=True),
    # reconstruction
    RecordSite("reconstruct.ms", reconstruct, "reconstruct: ms", "a MeasurementSet"),
    RecordSite("propagate_errors.ms", propagate_errors, "propagate_errors: ms",
               "a MeasurementSet"),
    state_site("expected_measurements", expected_measurements, two_mode=True),
    # sampler: the samplers read the state as "sampler"
    state_site("sample_quadratures", lambda v: sample_quadratures(v, X_A, 2, 0), "sampler", True),
    RecordSite("sample_quadratures.setting", lambda v: sample_quadratures(REFERENCE, v, 2, 0),
               "sample_quadratures: setting", "a MeasurementSetting"),
    state_site("measure_campaign", lambda v: measure_campaign(v, 3, 0), "sampler", True),
    state_site("campaign_batches", lambda v: campaign_batches(v, 2, 0), "sampler", True),
    RecordSite("SampleBatch.setting", lambda v: SampleBatch(v, [1.0, 2.0], 0, 2),
               "SampleBatch: setting", "a MeasurementSetting"),
    RecordSite("sample_variance.batch", sample_variance, "sample_variance: batch",
               "a SampleBatch"),
    # samples_to_csv reads any iterable, each batch as it is reached: here a generator
    RecordSite("samples_to_csv.batches[1]", lambda v: samples_to_csv(b for b in (BATCH, v)),
               "samples_to_csv: batches[1]", "a SampleBatch"),
    RecordSite("samples_to_csv.batches", samples_to_csv, "samples_to_csv: batches", None,
               refusals=((None, "samples_to_csv: batches must be an iterable of SampleBatch, "
                                "got NoneType"),
                         (3, "samples_to_csv: batches must be an iterable of SampleBatch, got int"),
                         (np.eye(4), "samples_to_csv: batches[0] must be a SampleBatch, "
                                     "got ndarray"),
                         ("x_a", "samples_to_csv: batches[0] must be a SampleBatch, got str"))),
    # reference
    RecordSite("perturbation_study.ms", lambda v: perturbation_study(v, 0.05, n_trials=2),
               "perturbation_study: ms", "a MeasurementSet"),
    # loss_model
    RecordSite("fit_efficiency.gamma_measured", fit_efficiency, "fit_efficiency: gamma_measured",
               "a CovarianceMatrix", two_mode=True),
    # a flag JSON writes as true or false, which an int or a numpy bool is not
    RecordSite("LossFit.converged", lambda v: LossFit(0.9, 1.0, 1.0, 0.1, 3, v),
               "LossFit: converged", None,
               refusals=tuple((v, f"LossFit: converged must be a bool, got {v!r}")
                              for v in (1, 0, np.True_, None, "true"))),
]
RECORD_ROWS = [(site, value, message) for site in RECORD_SITES for value, message in site.rows()]

# Arguments annotated with a record class that no row rules, each with the reason.
RECORD_EXEMPT = {
    f"CriteriaReport.optimal_gains_{direction}": "an output record, built by criteria_report "
                                                 "from the GainPairs it computed"
    for direction in ("b_given_a", "a_given_b")
}


def shown(v) -> str:
    """A row value in a test id: a state by its mode count, else its type name or repr."""
    if isinstance(v, CovarianceMatrix):
        return f"vacuum_state({v.n_modes})"
    return type(v).__name__ if isinstance(v, np.ndarray) else repr(v)


class TestRecordRule:
    """Every state and record argument of a public function is tested by gaussian._instance,
    and every two-mode reader reads its state by gaussian._moments, before any attribute is
    read: anything else is refused with "<who>: <name> must be a <Class>, got <type name>",
    a state of other than two modes with "<who>: expected a two-mode state, got <n> modes",
    each a ValueError, never an AttributeError or a TypeError."""

    @pytest.mark.parametrize("site, value, message", RECORD_ROWS,
                             ids=[f"{site.key}={shown(value)}" for site, value, _ in RECORD_ROWS])
    def test_every_refusal_is_worded(self, site, value, message):
        with pytest.raises(ValueError) as exc:
            site.call(value)
        assert type(exc.value) is ValueError and str(exc.value) == message

    def test_every_record_argument_is_ruled(self):
        records = annotated(RECORDS)
        ruled = {site.key for site in RECORD_SITES}
        assert sorted(records - ruled - set(RECORD_EXEMPT)) == []
        assert sorted(set(RECORD_EXEMPT) - records) == []  # no stale exemption
        assert sorted(set(RECORD_EXEMPT) & ruled) == []


# (value, how gaussian._real_array describes it): every kind of value the array rule refuses
NOT_ARRAYS = (
    ("abc", "str"), ({"a": 1}, "dict"), (None, "NoneType"), (1.0, "float"),
    (np.float64(1.0), "float64"), (np.eye(4, dtype=bool), "bool"),
    (np.eye(4, dtype=complex), "complex128"), (np.array([1.0, None], dtype=object), "object"),
    (np.array(["1.0"]), "<U3"), ([[1, 0], [0]], "a ragged sequence"),
    ([[1.0, 0.0], 0.0], "a ragged sequence"), ([[1.0, 0.0], np.zeros(3)], "a ragged sequence"),
    ([1.0, True], "True"), ([[1.0], [np.True_]], "np.True_"), ([1.0, "1.0"], "'1.0'"),
    ((1.0, None), "None"), ([1.0, 1j], "1j"), ([np.zeros(2), np.ones(2, dtype=bool)], "bool"),
    (functools.reduce(lambda v, _: [v], range(5000), [1.0]), "a sequence nested too deeply"),
)
_CYCLE = {}
_CYCLE["self"] = _CYCLE
# (value, what gaussian._json_mapping says of it): every kind of value the mapping rule refuses
NOT_MAPPINGS = (
    (5, "must be a dict, got int"), ({1, 2}, "must be a dict, got set"),
    ([], "must be a dict, got list"), ("k", "must be a dict, got str"),
    ({"a": 1, (1, 2): 2}, "must be writable as JSON (keys must be str, int, float, bool or None, "
                          "not tuple)"),
    ({"a": {1, 2}}, "must be writable as JSON (Object of type set is not JSON serializable)"),
    ({"n": np.int64(3)}, "must be writable as JSON (Object of type int64 is not JSON "
                         "serializable)"),
    (_CYCLE, "must be writable as JSON (Circular reference detected)"),
    *((v, "must be writable as JSON (Out of range float values are not JSON compliant)")
      for v in ({"k": math.nan}, {"k": [1.0, -math.inf]})),
    (functools.reduce(lambda v, _: {"a": v}, range(5000), {}),
     "must be writable as JSON (nested too deeply)"),
    *((v, "must read back equal from its JSON (a tuple reads back as a list, a key that is no "
          "str as a str)") for v in ({1: "a"}, {"a": {1: 2}}, {"t": (1, 2)},
                                    {"a": {1: 2}, "t": (1, 2)}, {"a": [{"b": {True: 1}}]})),
)
ARRAY, MAPPING = "_real_array", "_json_mapping"  # the gaussian rule that reads a site
NAN_EYE = np.diag([math.nan, 1.0, 1.0, 1.0])
BIG_EYE = [[BIG, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # BIG read as inf
MS_JSON = REFERENCE_MEASUREMENTS.to_dict()


@dataclasses.dataclass(frozen=True)
class ArraySite:
    """One array or mapping argument: `key` "<owner>.<name>" as the meta-test lists it, `call`
    the site with v in that argument and every other argument valid, `what` the "<who>:
    <name>" its refusals name, `kind` the rule that reads it (None: its own refusals only),
    and `refusals` its own (value, message) refusals."""

    key: str
    call: Callable
    what: str
    kind: str | None
    refusals: tuple = ()

    def rows(self):
        """(value, message) of every refusal: the rule's, then the site's own."""
        if self.kind == ARRAY:
            rule = [(v, f"{self.what} must be an array of real numbers, got {got}")
                    for v, got in NOT_ARRAYS]
        else:
            rule = [(v, f"{self.what} {says}") for v, says in NOT_MAPPINGS if self.kind]
        return [*rule, *self.refusals]


def square_refusals(who):
    """The shape and finiteness refusals of a two-mode matrix argument of `who`."""
    return ((np.eye(3), f"{who}: expected shape (4, 4), got (3, 3)"),
            ([], f"{who}: expected shape (4, 4), got (0,)"),
            (np.array(1.0), f"{who}: expected shape (4, 4), got ()"),
            (NAN_EYE, f"{who}: entries must be finite"), (BIG_EYE, f"{who}: entries must be finite"))


def json_refusals(what):
    """from_dict's refusals of a d that is not a JSON object."""
    return tuple((v, f"{what} JSON: expected an object, got {type(v).__name__}")
                 for v in ([MS_JSON], "{}", None, np.eye(4)))


ARRAY_SITES = [
    # gaussian
    ArraySite("CovarianceMatrix.entries", lambda v: CovarianceMatrix(2, v),
              "CovarianceMatrix: entries", ARRAY, square_refusals("CovarianceMatrix")),
    ArraySite("SymplecticTransform.matrix", lambda v: SymplecticTransform(2, v),
              "SymplecticTransform: matrix", ARRAY, square_refusals("SymplecticTransform")),
    ArraySite("CovarianceMatrix.from_dict.d", CovarianceMatrix.from_dict, "CovarianceMatrix JSON",
              None, (*json_refusals("CovarianceMatrix"),
                     *(({"n_modes": 2, "entries": v},
                        f"CovarianceMatrix: entries must be an array of real numbers, got {got}")
                       for v, got in [([[1, 0], [0]], "a ragged sequence"), ("abc", "str"),
                                      ({"a": 1}, "dict"), ([[True] * 4] * 4, "True")]))),
    ArraySite("SourceParams.from_dict.d", SourceParams.from_dict, "SourceParams JSON", None,
              (*json_refusals("SourceParams"),
               ({"r3": 1.0}, "SourceParams JSON: unknown field(s) ['r3']"),
               # keys of more than one type, which a library caller may pass, sorted as str
               ({1: 2.0, "a": 3.0}, "SourceParams JSON: unknown field(s) [1, 'a']"))),
    # sampler
    ArraySite("SampleBatch.values", lambda v: SampleBatch(X_A, v, 0, 2), "SampleBatch: values",
              ARRAY, (([[1.0, 2.0], [3.0, 4.0]],
                       "SampleBatch: values must be one-dimensional, got shape (2, 2)"),
                      (np.array(1.0), "SampleBatch: values must be one-dimensional, got shape ()"),
                      ([1.0, 2.0, 3.0], "SampleBatch: need n == len(values) >= 2, got n=2"))),
    # reconstruction
    ArraySite("MeasurementSet.metadata",
              lambda v: MeasurementSet(*REFERENCE_MEASUREMENTS.values(), metadata=v),
              "MeasurementSet: metadata", MAPPING,
              ((None, "MeasurementSet: metadata must be a dict, got NoneType"),)),
    # None is expected_measurements' default, an empty {}
    ArraySite("expected_measurements.metadata",
              lambda v: expected_measurements(REFERENCE, metadata=v), "MeasurementSet: metadata",
              MAPPING),
    ArraySite("MeasurementSet.from_dict.d", MeasurementSet.from_dict, "MeasurementSet JSON", None,
              (*json_refusals("MeasurementSet"),
               *(({**MS_JSON, "metadata": v},
                  f"MeasurementSet: metadata must be a dict, got {type(v).__name__}")
                 for v in (5, [1], None, "k")),
               # json reads NaN, which it does not write by the standard
               ({**MS_JSON, "metadata": json.loads('{"k": NaN}')},
                "MeasurementSet: metadata must be writable as JSON (Out of range float values "
                "are not JSON compliant)"))),
]
ARRAY_ROWS = [(site, value, message) for site in ARRAY_SITES for value, message in site.rows()]

# Arguments annotated np.ndarray or dict that no row rules, each with the reason.
ARRAY_EXEMPT = {
    "CriteriaReport.conditional_variances": "an output record, built by criteria_report from "
                                            "the floats it computed",
}


def shown_array(v) -> str:
    """A row value in a test id: an ndarray by its dtype and shape, else its repr, cut short."""
    return f"ndarray[{v.dtype}]{list(v.shape)}" if isinstance(v, np.ndarray) else reprlib.repr(v)


class TestArrayRule:
    """Every array argument of a public record is read by gaussian._real_array before numpy
    converts it, and every mapping by gaussian._json_mapping: anything else is refused with
    "<who>: <name> must be an array of real numbers, got <type name, dtype, 'a ragged
    sequence' or the first element's repr>", or in the mapping rule's words, each a
    ValueError, never a TypeError or numpy's own; a valid array is read as its floats
    whatever its form."""

    @pytest.mark.parametrize("site, value, message", ARRAY_ROWS,
                             ids=[f"{site.key}={shown_array(value)}"
                                  for site, value, _ in ARRAY_ROWS])
    def test_every_refusal_is_worded(self, site, value, message):
        with pytest.raises(ValueError) as exc:
            site.call(value)
        assert type(exc.value) is ValueError and str(exc.value) == message

    @pytest.mark.parametrize("build, m", [
        (lambda v: CovarianceMatrix(2, v),
         np.array([[3, 0, 2, 0], [0, 3, 0, -2], [2, 0, 3, 0], [0, -2, 0, 3]])),
        (lambda v: SymplecticTransform(2, v), np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                                        [0, 0, 0, 1], [0, 0, -1, 0]])),
        (lambda v: SampleBatch(X_A, v, 0, 2), np.array([1, 2]))],
        ids=["CovarianceMatrix.entries", "SymplecticTransform.matrix", "SampleBatch.values"])
    def test_every_form_of_an_array_reads_as_its_floats(self, build, m):
        def scalars(a, kind):  # a as nested lists of numpy scalars
            return [scalars(row, kind) for row in a] if a.ndim > 1 else [kind(x) for x in a]

        floats = m.astype(float)
        forms = [m, m.astype(np.int32), floats.astype(np.float32), m.tolist(), floats.tolist(),
                 tuple(m.tolist()), list(floats), scalars(m, np.int64), scalars(m, np.float64)]
        expected = spelled(build(floats))
        assert all(spelled(build(form)) == expected for form in forms)

    def test_sample_values_are_kept_as_given_and_may_be_non_finite(self):
        values = np.array([math.nan, -math.inf])
        assert SampleBatch(X_A, values, 0, 2).values is values
        assert SampleBatch(X_A, [BIG, 1.0], 0, 2).values.tolist() == [math.inf, 1.0]

    def test_metadata_is_kept_as_its_json_image(self):
        # equal to the caller's dict, which no set keeps a reference to, nested or not
        labels = {"labels": {"rbw_hz": [3.0e5, None, True, "x"]}}
        for ms in (MeasurementSet(*REFERENCE_MEASUREMENTS.values(), metadata=labels),
                   expected_measurements(REFERENCE, metadata=labels),
                   MeasurementSet.from_dict({**MS_JSON, "metadata": labels})):
            assert ms.metadata == labels and ms.metadata is not labels
            assert ms.metadata["labels"] is not labels["labels"]
        assert expected_measurements(REFERENCE, metadata=None).metadata == {}

    def test_every_array_and_mapping_argument_is_ruled(self):
        arrays = annotated({"np.ndarray", "dict"})
        ruled = {site.key for site in ARRAY_SITES}
        assert sorted(arrays - ruled - set(ARRAY_EXEMPT)) == []
        assert sorted(set(ARRAY_EXEMPT) - arrays) == []  # no stale exemption
        assert sorted(set(ARRAY_EXEMPT) & ruled) == []


# Each JSON record: its class and a valid JSON object, whose fields the constructor takes.
JSON_RECORDS = {"SourceParams": (SourceParams, SourceParams(r1=0.5, r2=0.4).to_dict()),
                "CovarianceMatrix": (CovarianceMatrix, REFERENCE.to_dict()),
                "MeasurementSet": (MeasurementSet, MS_JSON)}
JSON_ROWS = [(name, f.name, v) for name, (cls, _) in JSON_RECORDS.items()
             for f in dataclasses.fields(cls)
             for v in (True, "1", None, [1.0], {"a": 1}, BIG, math.nan)]


def outcome(build):
    """What build() gives: its record, or the type and message of its ValueError."""
    try:
        return spelled(build())
    except ValueError as exc:
        return type(exc), str(exc)


class TestJsonRule:
    """from_dict checks a record's JSON shape and hands every value to the constructor, the
    one reader of a field: a JSON value gives exactly what the constructor gives for it."""

    @pytest.mark.parametrize("name, field, value", JSON_ROWS,
                             ids=[f"{name}.{field}={'10**400' if v is BIG else repr(v)}"
                                  for name, field, v in JSON_ROWS])
    def test_json_reads_every_value_as_the_constructor(self, name, field, value):
        cls, valid = JSON_RECORDS[name]
        fields = {f.name: valid[f.name] for f in dataclasses.fields(cls)}
        expected = outcome(lambda: cls(**{**fields, field: value}))
        assert outcome(lambda: cls.from_dict({**valid, field: value})) == expected
        # every value is refused, but for metadata {"a": 1}, a valid one
        assert expected[0] is ValueError or (field, value) == ("metadata", {"a": 1})


def cholesky_accepts(m) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def constructs(m) -> bool:
    """Whether CovarianceMatrix accepts the two-mode matrix m."""
    try:
        CovarianceMatrix(2, m)
    except ValueError as exc:
        assert "not positive definite" in str(exc)
        return False
    return True


def cholesky_spy(monkeypatch):
    """Record the matrices handed to np.linalg.cholesky."""
    calls = []
    route = np.linalg.cholesky

    def spy(m):
        calls.append(m)
        return route(m)
    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


def step_ulps(x: float, k: int) -> float:
    """x moved |k| ulps away from 0 (k > 0) or towards it (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


# Fixed before the comparison ran: the float verdict may differ from LAPACK's only
# for a covariance within this many ulps of its bound sqrt(v1) sqrt(v2).
BOUND_BAND_ULPS = 4


def near_bound(v1: float, v2: float, c: float) -> bool:
    if not (v1 > 0.0 and v2 > 0.0):
        return False
    bound = math.sqrt(v1) * math.sqrt(v2)
    return abs(abs(c) - bound) <= BOUND_BAND_ULPS * math.ulp(bound)


class TestFloatPositiveDefiniteness:
    """The float route of CovarianceMatrix against np.linalg.cholesky."""

    @settings(max_examples=3000, deadline=None, database=None, derandomize=True)
    @given(v=st.tuples(*[st.floats(-1.0, 1e300)] * 4),
           rho=st.tuples(*[st.floats(-1.5, 1.5)] * 2))
    @example(v=(1.0, 1.0, 1.0, 1.0), rho=(1.0, -1.0))
    @example(v=(5e-324, 1.0, 5e-324, 1.0), rho=(0.5, 0.0))
    @example(v=(1e300, 1e300, 1e300, 1e-300), rho=(0.999, 0.999))
    def test_random_decoupled_matrices_match_cholesky(self, v, rho):
        xa, pa, xb, pb = v
        cx = rho[0] * math.sqrt(abs(xa)) * math.sqrt(abs(xb))
        cp = rho[1] * math.sqrt(abs(pa)) * math.sqrt(abs(pb))
        m = gaussian._from_moments(xa, pa, xb, pb, cx, cp)
        verdict = gaussian._decoupled_positive_definite(*gaussian._decoupled_moments(m))
        assert verdict is not None and constructs(m) == verdict
        if not (near_bound(xa, xb, cx) or near_bound(pa, pb, cp)):
            assert verdict == cholesky_accepts(m)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(v=st.tuples(*[st.floats(1e-300, 1e300)] * 4), sign=st.sampled_from([-1.0, 1.0]),
           blocks=st.sampled_from(["x", "p", "xp"]), rho=st.floats(-0.999, 0.999))
    @example(v=(1.0, 1.0, 1.2, 1.0), sign=-1.0, blocks="x", rho=0.5)
    def test_covariances_stepped_across_the_bound(self, v, sign, blocks, rho):
        xa, pa, xb, pb = v
        bound_x, bound_p = math.sqrt(xa) * math.sqrt(xb), math.sqrt(pa) * math.sqrt(pb)
        for k in range(-2 * BOUND_BAND_ULPS, 2 * BOUND_BAND_ULPS + 1):
            cx = sign * step_ulps(bound_x, k) if "x" in blocks else rho * bound_x
            cp = -sign * step_ulps(bound_p, k) if "p" in blocks else rho * bound_p
            m = gaussian._from_moments(xa, pa, xb, pb, cx, cp)
            verdict = gaussian._decoupled_positive_definite(*gaussian._decoupled_moments(m))
            assert constructs(m) == verdict
            if abs(k) > BOUND_BAND_ULPS:
                assert verdict == (k < 0) == cholesky_accepts(m), k

    def test_decoupled_states_skip_cholesky(self, monkeypatch):
        params = SourceParams(r1=1.2, r2=1.1, eta_prep=0.9, dark_noise=0.01)
        calls = cholesky_spy(monkeypatch)
        state = reconstruct(REFERENCE_MEASUREMENTS)
        CovarianceMatrix.from_dict(state.to_dict())
        build_epr_source(params)  # the default relative phase is an exact quarter turn
        assert calls == []
        build_epr_source(SourceParams(r1=1.2, r2=1.1, relative_phase=0.3))
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", XP_ENTRIES)
    def test_one_xp_entry_takes_the_cholesky_route(self, monkeypatch, ref_state, entry):
        m = ref_state.entries.copy()
        m[entry] = m[entry[::-1]] = 1e-300
        calls = cholesky_spy(monkeypatch)
        CovarianceMatrix(2, m)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (3, 1)])
    def test_non_finite_entries_keep_their_message(self, ref_state, bad, entry):
        m = ref_state.entries.copy()
        m[entry] = bad
        with pytest.raises(ValueError, match="CovarianceMatrix: entries must be finite"):
            CovarianceMatrix(2, m)


def built(make, six):
    """What make(six) gives: the state's mode count, entry bytes, writeable flag and
    recorded moments (as repr, so -0.0 and an int would show), or the ValueError text."""
    try:
        state = make(six)
    except ValueError as exc:
        return str(exc)
    return state.n_modes, state.entries.tobytes(), state.entries.flags.writeable, repr(state._six)


@st.composite
def six_moments(draw):
    """Six moments: random, with one covariance stepped ulp by ulp across its bound
    sqrt(v1) sqrt(v2), or with one value inf or NaN."""
    v = list(draw(st.tuples(*[st.floats(-1.0, 1e300)] * 4)))
    rho = draw(st.tuples(*[st.floats(-1.5, 1.5)] * 2))
    six = v + [rho[0] * math.sqrt(abs(v[0])) * math.sqrt(abs(v[2])),
               rho[1] * math.sqrt(abs(v[1])) * math.sqrt(abs(v[3]))]
    kind = draw(st.sampled_from(["random", "stepped", "non-finite"]))
    if kind == "stepped":
        six[:4] = map(abs, v)
        i = draw(st.sampled_from([4, 5]))
        bound = math.sqrt(six[i - 4]) * math.sqrt(six[i - 2])
        k = draw(st.integers(-2 * BOUND_BAND_ULPS, 2 * BOUND_BAND_ULPS))
        six[i] = math.copysign(step_ulps(bound, k), rho[i - 4])
    elif kind == "non-finite":
        six[draw(st.integers(0, 5))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return six


class TestStateOfMoments:
    """CovarianceMatrix._of_moments, the route of every reconstruction, against the
    constructor, and the moments every state records at construction."""

    @settings(max_examples=3000, deadline=None, database=None, derandomize=True)
    @given(six=six_moments())
    @example(six=[1, 1, 1, 1, 0, 0])
    @example(six=[1.0, 1.0, 1.0, 1.0, -0.0, 0.5])
    @example(six=[5e-324, 1.0, 5e-324, 1.0, 2.5e-324, 0.0])
    @example(six=[1.7e308, 1.0, 1.7e308, 1.0, math.inf, 0.0])
    def test_equals_the_constructor(self, six):
        got = built(lambda m: CovarianceMatrix._of_moments(*m), six)
        assert got == built(lambda m: CovarianceMatrix(2, gaussian._from_moments(*m)), six)
        if not isinstance(got, str):
            assert got[2] is False
            with pytest.raises(ValueError):  # read-only by its bytes buffer, for good
                CovarianceMatrix._of_moments(*six).entries.setflags(write=True)

    @settings(max_examples=2000, deadline=None, database=None, derandomize=True)
    @given(six=st.lists(st.one_of(st.floats(), st.floats(width=32).map(np.float32),
                                  st.floats().map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1),
                                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)),
                        min_size=6, max_size=6))
    @example(six=[-0.0, 5e-324, math.inf, -math.inf, math.nan, 2 ** 53 + 1])
    @example(six=[-math.nan, 2.2250738585072009e-308, 1, np.float32(0.1), np.int64(-3),
                  np.float64(-0.0)])
    def test_from_moments_packs_what_np_array_builds(self, six):
        xa, pa, xb, pb, cx, cp = six
        expected = np.array([xa, 0.0, cx, 0.0, 0.0, pa, 0.0, cp,
                             cx, 0.0, xb, 0.0, 0.0, cp, 0.0, pb]).reshape(4, 4)
        for writeable in (True, False):
            m = gaussian._from_moments(*six, writeable=writeable)
            assert m.dtype == expected.dtype == np.float64 and m.shape == (4, 4)
            assert m.tobytes() == expected.tobytes()
            assert m.flags.writeable is writeable and m.flags.aligned and m.flags.c_contiguous

    def test_records_the_moments_of_its_entries(self, ref_state):
        for state in (ref_state, build_epr_source(SourceParams(r1=1.2, r2=1.1, eta_prep=0.9)),
                      CovarianceMatrix._of_moments(18.41, 35.49, 17.98, 34.61, 18.09, -34.95)):
            assert state._six == gaussian._moments_of(state.entries.ravel().tolist())
            assert gaussian._moments(state, "reader") is state._six

    def test_coupled_and_other_mode_counts_record_none(self, ref_state):
        coupled = apply_symplectic(ref_state, phase_shift(0.3, 1, 2))
        assert coupled._six is None and gaussian._decoupled_nu_squared(coupled) is None
        assert gaussian._moments(coupled, "reader") == gaussian._moments_of(coupled.entries.ravel().tolist())
        assert vacuum_state(1)._six is None and vacuum_state(3)._six is None

    def test_near_symmetric_decoupled_matrix_takes_the_closed_form(self, monkeypatch, ref_state):
        # numpy checks and symmetrises it; the symmetrised matrix is decoupled and recorded
        m = ref_state.entries.copy()
        m[0, 2] = math.nextafter(m[0, 2], math.inf)
        state = CovarianceMatrix(2, m)
        assert gaussian._decoupled_moments(m) is None
        assert state.entries[0, 2] == state.entries[2, 0]
        assert state._six == gaussian._moments_of(state.entries.ravel().tolist())
        calls = eigvals_spy(monkeypatch)
        assert gaussian._decoupled_nu_squared(state) is not None
        assert is_physical(state) and symplectic_eigenvalues_two_mode(state)[1] > 0.0
        assert calls == []

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, dataclasses.replace,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "replace", "pickle"])
    def test_copies_keep_the_recorded_moments(self, ref_state, clone):
        coupled = apply_symplectic(ref_state, phase_shift(0.3, 1, 2))
        for state in (reconstruct(REFERENCE_MEASUREMENTS), ref_state, coupled):
            twin = clone(state)
            assert np.array_equal(twin.entries, state.entries)
            assert not twin.entries.flags.writeable
            expected = None if state is coupled else gaussian._moments_of(twin.entries.ravel().tolist())
            assert twin._six == expected

    def test_states_built_without_the_constructor_read_their_entries(self):
        bare = object.__new__(CovarianceMatrix)
        object.__setattr__(bare, "n_modes", 2)
        object.__setattr__(bare, "entries", np.diag([0.5, 1.0, 1.0, 1.0]))
        assert bare._six is None and gaussian._decoupled_nu_squared(bare) is None
        assert gaussian._moments(bare, "reader") == (0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert not is_physical(bare)


class TestBuildEprSource:
    def test_trivial_params_give_vacuum(self):
        state = build_epr_source(SourceParams())
        np.testing.assert_allclose(state.entries, np.eye(4), atol=1e-14)

    def test_lossless_symmetric_joint_variances(self):
        for r in (0.3, 0.9, 1.5):
            state = build_epr_source(SourceParams(r1=r, r2=r))
            vx = np.array([1.0, 0.0, -1.0, 0.0])
            vp = np.array([0.0, 1.0, 0.0, 1.0])
            expected = 2.0 * math.exp(-2.0 * r)
            assert vx @ state.entries @ vx == pytest.approx(expected, rel=1e-12)
            assert vp @ state.entries @ vp == pytest.approx(expected, rel=1e-12)

    def test_lossless_state_is_pure(self):
        state = build_epr_source(SourceParams(r1=1.1, r2=0.7))
        np.testing.assert_allclose(symplectic_eigenvalues(state), [1.0, 1.0], atol=1e-9)

    def test_matches_element_by_element_chain(self):
        # Tolerance fixed before measuring: 1e-13 of the largest entry.  The
        # closed form and the chain agree to ~1e-15 over these draws.
        rng = np.random.default_rng(37)
        for _ in range(1000):
            params = random_source_params(rng)
            expected = reference_epr_chain(params).entries
            got = build_epr_source(params).entries
            tol = 1e-13 * max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(got - expected)) <= tol, params

    @pytest.mark.parametrize("transmittance", [0.0, 1.0])
    def test_unmixed_sources_at_extreme_transmittance(self, transmittance):
        # T = 1 sends source 1 to Alice and the rotated source 2 to Bob; T = 0
        # swaps them.  At relative_phase pi/2 the rotation swaps X and P.
        r1, r2, eta, eta_a, eta_b, dark = 1.3, 0.6, 0.9, 0.8, 0.7, 0.01
        params = SourceParams(r1=r1, r2=r2, transmittance=transmittance, eta_prep=eta,
                              eta_det_a=eta_a, eta_det_b=eta_b, dark_noise=dark)
        src1 = [eta * math.exp(-2 * r1) + 1 - eta, eta * math.exp(2 * r1) + 1 - eta]
        src2 = [eta * math.exp(2 * r2) + 1 - eta, eta * math.exp(-2 * r2) + 1 - eta]
        alice, bob = (src1, src2) if transmittance == 1.0 else (src2, src1)
        expected = np.diag([eta_a * v + 1 - eta_a + dark for v in alice]
                           + [eta_b * v + 1 - eta_b + dark for v in bob])
        np.testing.assert_allclose(build_epr_source(params).entries, expected,
                                   rtol=1e-13, atol=1e-15)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(r=st.tuples(*[st.floats(0.0, 3.0)] * 2),
           phase=st.one_of(st.floats(-10.0, 10.0), st.sampled_from(QUARTER_TURNS)),
           transmittance=st.floats(0.0, 1.0),
           eta=st.tuples(*[st.floats(0.0, 1.0, exclude_min=True)] * 3),
           dark_noise=st.floats(0.0, 1.0))
    @example(r=(3.0, 3.0), phase=math.pi / 2, transmittance=0.5, eta=(1.0, 1.0, 1.0),
             dark_noise=0.0)
    def test_physical_range_matches_the_chain(self, r, phase, transmittance, eta, dark_noise):
        # past 20 dB (r = 2.3); lossless states from r of about 4 get a rounding
        # verdict on physicality, so the range stops at 3
        params = SourceParams(r1=r[0], r2=r[1], relative_phase=phase,
                              transmittance=transmittance, eta_prep=eta[0],
                              eta_det_a=eta[1], eta_det_b=eta[2], dark_noise=dark_noise)
        state = build_epr_source(params)
        assert np.linalg.eigvalsh(state.entries).min() > 0.0
        assert is_physical(state)
        expected = reference_epr_chain(params).entries
        tol = 1e-13 * max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(state.entries - expected)) <= tol

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(phase=st.floats(allow_nan=False, allow_infinity=False),
           r=st.tuples(*[st.floats(0.0, 3.0)] * 2), eta=st.tuples(*[st.floats(0.5, 1.0)] * 3))
    @example(phase=4e15, r=(1.0, 1.0), eta=(1.0, 1.0, 1.0))
    @example(phase=4e15, r=(1.0, 1.0), eta=(1.0, 0.9, 0.9))
    @example(phase=1e14 + 0.3, r=(3.0, 3.0), eta=(1.0, 1.0, 1.0))
    def test_every_finite_phase_builds_a_physical_state(self, phase, r, eta):
        # a phase whose rounding spans a turn is still a rotation: at a quarter turn within
        # that rounding both cos and sin would round to 0, and source 2 would lose its variance
        state = build_epr_source(SourceParams(r1=r[0], r2=r[1], relative_phase=phase,
                                              eta_prep=eta[0], eta_det_a=eta[1], eta_det_b=eta[2]))
        assert is_physical(state)

    @pytest.mark.parametrize("transmittance", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("phase", QUARTER_TURNS)
    def test_quarter_turns_have_exactly_zero_xp_entries(self, phase, transmittance):
        state = build_epr_source(SourceParams(r1=1.3, r2=0.7, relative_phase=phase,
                                              transmittance=transmittance, eta_prep=0.9,
                                              eta_det_a=0.8, dark_noise=0.01))
        e = state.entries.tolist()
        assert [repr(e[i][j]) for i, j in XP_ENTRIES] == ["0.0"] * 4  # not -0.0 either

    def test_a_turn_within_the_rounding_of_a_large_phase_is_exact(self):
        # sin = -1.56e-8 is within the rounding of phi (2.2e-7): phi is a whole turn, cos = 1
        # exactly, so the state is the phi = 0 state bit for bit
        params = dict(r1=1.3, r2=0.7, transmittance=0.5, eta_prep=0.9, eta_det_a=0.8)
        state = build_epr_source(SourceParams(relative_phase=999999999.4226046, **params))
        turn = build_epr_source(SourceParams(relative_phase=0.0, **params))
        assert state.entries.tolist() == turn.entries.tolist()

    def test_builds_one_checked_matrix(self, monkeypatch):
        calls = []
        check = CovarianceMatrix.__post_init__
        monkeypatch.setattr(CovarianceMatrix, "__post_init__",
                            lambda self: calls.append(self) or check(self))
        build_epr_source(SourceParams(r1=1.0, r2=0.8, eta_prep=0.9, dark_noise=0.01))
        assert len(calls) == 1

    def test_builds_no_symplectic_transform(self, monkeypatch):
        calls = []
        check = SymplecticTransform.__post_init__
        monkeypatch.setattr(SymplecticTransform, "__post_init__",
                            lambda self: calls.append(self) or check(self))
        build_epr_source(SourceParams(r1=1.0, r2=0.8, relative_phase=0.3, transmittance=0.4))
        assert calls == []

    def test_params_validation(self):
        with pytest.raises(ValueError, match="eta_prep"):
            SourceParams(eta_prep=1.2)
        with pytest.raises(ValueError, match="r1"):
            SourceParams(r1=-0.1)
        with pytest.raises(ValueError, match="dark_noise"):
            SourceParams(dark_noise=-1e-3)

    @pytest.mark.parametrize("field, value", [
        ("r1", math.nan), ("r2", math.nan), ("r1", math.inf), ("r2", 800.0),
        ("dark_noise", math.nan), ("dark_noise", math.inf),
    ])
    def test_params_reject_non_finite_and_overflowing(self, field, value):
        with pytest.raises(ValueError, match=field):
            SourceParams(**{field: value})

    @pytest.mark.parametrize("transmittance", [-0.1, 1.1, math.nan])
    def test_params_reject_transmittance_outside_unit_interval(self, transmittance):
        with pytest.raises(ValueError, match="transmittance must be in \\[0, 1\\]"):
            SourceParams(transmittance=transmittance)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_params_reject_non_finite_relative_phase(self, phase):
        with pytest.raises(ValueError, match="relative_phase must be finite"):
            SourceParams(relative_phase=phase)

    @settings(max_examples=1500, deadline=None, database=None, derandomize=True)
    @given(fields=st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(SourceParams)]),
        st.one_of(st.floats(), st.floats(0.0, 1.0), st.integers(-2 ** 53, 2 ** 53),
                  st.integers(0, 1), st.booleans(), st.none(), st.text(max_size=2),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.integers(2 ** 1024, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 1024)),
        max_size=3))
    def test_params_read_back_what_they_write(self, fields):
        # every SourceParams the constructor accepts stores floats and is read back equal
        # from its JSON
        try:
            p = SourceParams(**fields)
        except ValueError:
            return
        assert all(type(v) is float for v in p.to_dict().values())
        assert SourceParams.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    def test_params_json_roundtrip(self):
        p = SourceParams(r1=1.0, r2=0.8, eta_prep=0.95, dark_noise=0.006)
        assert SourceParams.from_dict(p.to_dict()) == p
        with pytest.raises(ValueError, match="unknown field"):
            SourceParams.from_dict({"r1": 1.0, "bogus": 2.0})

    def test_params_json_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="^SourceParams: r1 must be a real number, got \\[1.0\\]$"):
            SourceParams.from_dict({"r1": [1.0]})
        with pytest.raises(ValueError, match="^SourceParams: eta_prep must be a real number, got True$"):
            SourceParams.from_dict({"eta_prep": True})
        with pytest.raises(ValueError, match="^SourceParams: r1 must be a real number, got '1'$"):
            SourceParams.from_dict({"r1": "1"})
        with pytest.raises(ValueError, match="^SourceParams: r1 must be a real number, got 'abc'$"):
            SourceParams.from_dict({"r1": "abc"})
        with pytest.raises(ValueError, match="^SourceParams: r1 must be a real number, got None$"):
            SourceParams.from_dict({"r1": None})

    def test_params_json_rejects_ints_past_the_float_range(self):
        # read as inf, which each field's range check refuses, from JSON as in the constructor
        with pytest.raises(ValueError, match="^SourceParams: r1 must be in \\[0, 354.891\\], got inf$"):
            SourceParams.from_dict({"r1": 10 ** 400})
        with pytest.raises(ValueError, match="^SourceParams: dark_noise must be finite, >= 0, got inf$"):
            SourceParams(dark_noise=10 ** 400)
        with pytest.raises(ValueError, match="^SourceParams: relative_phase must be finite$"):
            SourceParams(relative_phase=-10 ** 400)

    @pytest.mark.parametrize("payload", [[1.0, 2.0], 5, None, "r1"])
    def test_params_json_rejects_non_objects(self, payload):
        with pytest.raises(ValueError, match="SourceParams JSON: expected an object"):
            SourceParams.from_dict(payload)


class TestInvariantProperties:
    def test_generators_preserve_symplectic_form(self):
        rng = np.random.default_rng(17)
        omega = symplectic_form(2)
        for _ in range(300):
            s = random_transform(rng)
            assert np.max(np.abs(s.matrix @ omega @ s.matrix.T - omega)) <= 1e-12

    def test_loss_keeps_states_physical(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            state = random_physical_state(rng)
            channel = LossChannel(int(rng.integers(0, 2)), rng.uniform(0.01, 0.99),
                                  rng.uniform(0.0, 0.1))
            out = apply_loss(state, channel)
            assert np.min(symplectic_eigenvalues(out)) >= 1.0 - 1e-9

    def test_passive_transforms_preserve_mean_photon_proxy(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            state = random_physical_state(rng)
            if rng.random() < 0.5:
                s = phase_shift(rng.uniform(-np.pi, np.pi), int(rng.integers(0, 2)), 2)
            else:
                s = beamsplitter(rng.uniform(0, 1), 0, 1, 2)
            before = np.trace(state.entries) / 2 - 2
            after = np.trace(apply_symplectic(state, s).entries) / 2 - 2
            assert after == pytest.approx(before, abs=1e-10)

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            state = random_physical_state(rng)
            s1 = random_transform(rng)
            s2 = random_transform(rng)
            combined = apply_symplectic(state, compose(s2, s1))
            sequential = apply_symplectic(apply_symplectic(state, s1), s2)
            np.testing.assert_allclose(combined.entries, sequential.entries,
                                       atol=1e-10, rtol=1e-10)

    def test_physicality_flag(self, ref_state):
        assert is_physical(ref_state)
        assert is_physical(vacuum_state(2))


# number-like texts: float and int reprs, their grammar's characters, any text, and each of
# these with a `_` put somewhere in it
_NUMBER_LIKE_TEXT = (st.floats().map(repr) | st.integers().map(str)
                     | st.text("0123456789_.eE+-infatyINF \t", max_size=10) | st.text(max_size=6))
_TEXT = _NUMBER_LIKE_TEXT | st.tuples(_NUMBER_LIKE_TEXT, st.integers(0, 10)).map(
    lambda p: p[0][:p[1]] + "_" + p[0][p[1]:])


class TestNumberText:
    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(text=_TEXT, kind=st.sampled_from([float, int]))
    @example(text="1_0", kind=float)
    @example(text="1_0", kind=int)
    @example(text="18.41", kind=float)
    @example(text=" -7\n", kind=int)
    @example(text="1e6", kind=int)
    @example(text="nan", kind=float)
    def test_is_the_kinds_grammar_without_underscores(self, text, kind):
        try:
            expected = kind(text)
        except ValueError:
            expected = None
        if "_" in text or expected is None:
            with pytest.raises(ValueError) as exc:
                gaussian._number_text(text, "field x", kind)
            assert str(exc.value) == f"field x ({text!r} is not a number)"
        else:
            got = gaussian._number_text(text, "field x", kind)
            assert type(got) is kind
            assert got == expected or (math.isnan(got) and math.isnan(expected))
