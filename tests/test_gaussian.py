import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvsteer import gaussian
from cvsteer import (
    CovarianceMatrix,
    LossChannel,
    MeasurementSet,
    MeasurementSetting,
    PhysicalityWarning,
    SourceParams,
    SymplecticTransform,
    UnphysicalStateError,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    build_epr_source,
    compose,
    criteria_report,
    fit_efficiency,
    is_physical,
    measure_campaign,
    phase_shift,
    quadrature_variance,
    reconstruct,
    sample_quadratures,
    squeezer,
    symplectic_eigenvalues,
    symplectic_eigenvalues_two_mode,
    symplectic_form,
    vacuum_state,
)
from cvsteer.reference import REFERENCE_MEASUREMENTS, reference_state
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

    def test_non_finite_r(self):
        with pytest.raises(ValueError):
            squeezer(float("nan"), 0, 1)


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

    def test_bad_transmittance_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter(1.2, 0, 1, 2)


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

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            LossChannel(0, 1.5, 0.0)
        with pytest.raises(ValueError):
            LossChannel(0, 0.9, -0.1)

    @pytest.mark.parametrize("excess", [math.nan, math.inf, -math.inf])
    def test_non_finite_excess_noise_rejected_by_name(self, excess):
        with pytest.raises(ValueError, match=f"excess_noise must be finite, >= 0, got {excess}"):
            LossChannel(0, 0.9, excess)


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

    @pytest.mark.parametrize("payload, match", [
        ([[1.0, 0.0], [0.0, 1.0]], "expected an object"),
        ({"n_modes": None, "entries": np.eye(4).tolist()}, "non-numeric"),
        ({"n_modes": 2, "entries": {"x1": 1.0}}, "non-numeric"),
        ({"entries": np.eye(4).tolist()}, "missing field 'n_modes'"),
        ({"n_modes": 2.7, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix JSON: n_modes must be an integer, got 2.7$"),
        ({"n_modes": True, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix JSON: non-numeric field \\(true is not a number\\)$"),
        ({"n_modes": "2", "entries": np.eye(4).tolist()},
         '^CovarianceMatrix JSON: non-numeric field \\("2" is not a number\\)$'),
        ({"n_modes": 0, "entries": np.eye(4).tolist()},
         "^CovarianceMatrix JSON: n_modes must be >= 1, got 0$"),
        ({"n_modes": 2, "entries": [[10 ** 400, 0, 0, 0]] + np.eye(4)[1:].tolist()}, "too large"),
        ({"n_modes": 2, "entries": [[True, 0, 0, 0]] + np.eye(4)[1:].tolist()}, "non-numeric"),
        ({"n_modes": 2, "entries": True}, "non-numeric"),
        ({"n_modes": 2, "entries": [["1", 0, 0, 0]] + np.eye(4)[1:].tolist()},
         'non-numeric field \\("1" is not a number\\)'),
        ({"n_modes": 2, "entries": "abc"}, 'non-numeric field \\("abc" is not a number\\)'),
        ({"n_modes": 2, "entries": [[1, 0, 0, 0], [0, 1, 0]] + np.eye(4)[2:].tolist()},
         "CovarianceMatrix JSON: ragged entries"),
        ({"n_modes": 2, "entries": [[1, 0, 0, 0], [0, 1, 0, [0]]] + np.eye(4)[2:].tolist()},
         "^CovarianceMatrix JSON: non-numeric field \\(an array is not a number\\)$"),
        ({"n_modes": 2, "entries": [[None, 0, 0, 0]] + np.eye(4)[1:].tolist()},
         "^CovarianceMatrix JSON: non-numeric field \\(null is not a number\\)$"),
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
}


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

    @pytest.mark.parametrize("call, message", [
        (lambda s: squeezer(0.3, 0, 2.0), "squeezer: n_modes must be an integer, got 2.0"),
        (lambda s: phase_shift(0.1, 0, 2.0), "phase_shift: n_modes must be an integer, got 2.0"),
        (lambda s: beamsplitter(0.5, 0, 1, 2.0),
         "beamsplitter: n_modes must be an integer, got 2.0"),
        (lambda s: squeezer(0.3, 1.0, 2), "squeezer: mode must be an integer, got 1.0"),
        (lambda s: quadrature_variance(s, 1.0, 0.0),
         "quadrature_variance: mode must be an integer, got 1.0"),
        (lambda s: apply_loss(s, LossChannel(mode_index=1.0, efficiency=0.5)),
         "apply_loss: mode must be an integer, got 1.0"),
        (lambda s: squeezer(0.3, True, 2), "squeezer: mode must be an integer, got True"),
        (lambda s: apply_loss(s, LossChannel(True, 0.5)),
         "apply_loss: mode must be an integer, got True"),
        (lambda s: quadrature_variance(s, True, 0.0),
         "quadrature_variance: mode must be an integer, got True"),
        (lambda s: MeasurementSetting.single(True),
         "MeasurementSetting: mode must be an integer, got True"),
        (lambda s: MeasurementSetting.single(1.0),
         "MeasurementSetting: mode must be an integer, got 1.0"),
        (lambda s: CovarianceMatrix.from_dict({**s.to_dict(), "n_modes": True}),
         "CovarianceMatrix JSON: non-numeric field (true is not a number)"),
        (lambda s: phase_shift(0.1, np.True_, 2),
         "phase_shift: mode must be an integer, got np.True_"),
        (lambda s: beamsplitter(0.5, 0, "1", 2), "beamsplitter: mode must be an integer, got '1'"),
        (lambda s: squeezer(0.3, 2, 2), "squeezer: mode 2 out of range for 2 modes"),
        (lambda s: beamsplitter(0.5, -1, 1, 2), "beamsplitter: mode -1 out of range for 2 modes"),
        (lambda s: beamsplitter(0.5, 1, 1, 2), "beamsplitter: modes must be distinct"),
        (lambda s: apply_loss(s, LossChannel(2, 0.5)),
         "apply_loss: mode 2 out of range for 2 modes"),
        (lambda s: quadrature_variance(s, -1, 0.0),
         "quadrature_variance: mode -1 out of range for 2 modes"),
        (lambda s: MeasurementSetting.single(2),
         "MeasurementSetting: mode 2 out of range for 2 modes"),
    ])
    def test_every_mode_argument_is_refused_in_words(self, ref_state, call, message):
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
            assert gaussian._moments(state) is state._six

    def test_coupled_and_other_mode_counts_record_none(self, ref_state):
        coupled = apply_symplectic(ref_state, phase_shift(0.3, 1, 2))
        assert coupled._six is None and gaussian._decoupled_nu_squared(coupled) is None
        assert gaussian._moments(coupled) == gaussian._moments_of(coupled.entries.ravel().tolist())
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
        assert gaussian._moments(bare) == (0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
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

    @pytest.mark.parametrize("transmittance", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("phase", QUARTER_TURNS)
    def test_quarter_turns_have_exactly_zero_xp_entries(self, phase, transmittance):
        state = build_epr_source(SourceParams(r1=1.3, r2=0.7, relative_phase=phase,
                                              transmittance=transmittance, eta_prep=0.9,
                                              eta_det_a=0.8, dark_noise=0.01))
        e = state.entries.tolist()
        assert [repr(e[i][j]) for i, j in XP_ENTRIES] == ["0.0"] * 4  # not -0.0 either

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

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SourceParams)])
    @pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j, [1.0]])
    def test_params_reject_a_bool_or_non_real_by_name(self, field, value):
        with pytest.raises(ValueError, match=(f"^SourceParams: {field} must be a real number, "
                                              f"got {re.escape(repr(value))}$")):
            SourceParams(**{field: value})

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
        with pytest.raises(ValueError, match="non-numeric"):
            SourceParams.from_dict({"r1": [1.0]})
        with pytest.raises(ValueError, match="non-numeric field \\(true is not a number\\)"):
            SourceParams.from_dict({"eta_prep": True})
        with pytest.raises(ValueError, match='non-numeric field \\("1" is not a number\\)'):
            SourceParams.from_dict({"r1": "1"})
        with pytest.raises(ValueError, match='non-numeric field \\("abc" is not a number\\)'):
            SourceParams.from_dict({"r1": "abc"})
        with pytest.raises(ValueError,
                           match="^SourceParams JSON: non-numeric field \\(null is not a number\\)$"):
            SourceParams.from_dict({"r1": None})

    def test_params_json_rejects_ints_past_the_float_range(self):
        with pytest.raises(ValueError, match="too large"):
            SourceParams.from_dict({"r1": 10 ** 400})
        # the constructor reads such an int as inf, which each field's range check refuses
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
