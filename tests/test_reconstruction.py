import copy
import dataclasses
import inspect
import json
import math
import pickle
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
    build_epr_source,
    covariance_from_sum,
    criteria_report,
    expected_measurements,
    is_physical,
    optimal_gain,
    conditional_variance,
    propagate_errors,
    reconstruct,
    symplectic_eigenvalues,
    symplectic_eigenvalues_two_mode,
    vacuum_state,
)
from cvsteer import gaussian
from cvsteer.reconstruction import CSV_FIELDS
from cvsteer.reference import REFERENCE_COVARIANCE
from conftest import (TRAP_DIAGONALS, random_physical_state, random_source_state,
                      reference_reconstruct_entries)

VACUUM_SET = MeasurementSet(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)


class TestCovarianceIdentity:
    def test_sum_path_reproduces_p_covariance(self):
        assert covariance_from_sum(0.20, 35.49, 34.61) == pytest.approx(-34.95, abs=1e-12)

    def test_difference_path_reproduces_x_covariance(self):
        # Var(XA - XB) = Var(XA + (-XB)), so the identity returns -Cov(XA, XB).
        assert -covariance_from_sum(0.21, 18.41, 17.98) == pytest.approx(18.09, abs=1e-12)

    def test_independent_variables_give_zero(self):
        assert covariance_from_sum(3.5, 1.5, 2.0) == 0.0


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

    def test_covariance_past_its_bound_is_worded_alike_at_any_relative_error(self):
        # |Cov_x| = 1.0995 is past sqrt(1.0 * 1.2) = 1.0954: the matrix is not positive
        # definite, an analysis failure, worded from the six values alone
        for rel in (0.0, 0.05, 0.5):
            with pytest.raises(InconsistentDataError) as exc:
                reconstruct(MeasurementSet(1.0, 1.0, 1.2, 1.0, 0.001, 2.0, relative_error=rel))
            assert exc.value.entry == "x" and exc.value.excess > 0
            assert not hasattr(exc.value, "band")
            assert str(exc.value) == (
                "measurement set inconsistent: |Cov_x| = 1.0995 exceeds sqrt(Var*Var) = 1.09545 "
                "by 0.00405488, so the reconstructed matrix is not positive definite")

    def test_near_bound_sets_reconstruct_or_are_inconsistent(self):
        # values over 10^[-3, 4], covariances 1e-17 to 1e-1 (relative) either side
        # of their bounds: never the plain "not positive definite" ValueError
        rng = np.random.default_rng(97)
        outcomes = {"reconstructed": 0, "inconsistent": 0}
        for _ in range(3000):
            xa, pa, xb, pb = 10.0 ** rng.uniform(-3.0, 4.0, size=4)
            cov_x, cov_p = (rng.choice([-1.0, 1.0]) * math.sqrt(v1 * v2)
                            * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -1.0))
                            for v1, v2 in ((xa, xb), (pa, pb)))
            try:
                ms = MeasurementSet(xa, pa, xb, pb, xa + xb - 2.0 * cov_x, pa + pb + 2.0 * cov_p,
                                    relative_error=rng.choice([0.0, 0.01, 0.05]))
            except ValueError:
                continue  # a joint variance rounded to <= 0: not a valid set
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PhysicalityWarning)
                    reconstruct(ms)
                outcomes["reconstructed"] += 1
            except InconsistentDataError as exc:
                assert exc.excess > 0 or "not positive definite" in str(exc)
                outcomes["inconsistent"] += 1
        assert min(outcomes.values()) >= 500

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

    def test_tiny_well_correlated_set_reconstructs(self):
        # correlation 0.5 at variances of 1e-170, where Var*Var underflows to 0
        ms = MeasurementSet(1e-170, 1e-170, 1e-170, 1e-170, 1e-170, 3e-170)
        with pytest.warns(PhysicalityWarning):
            state = reconstruct(ms)
        assert state.entries[0, 2] == pytest.approx(5e-171, rel=1e-12)
        assert state.entries[1, 3] == pytest.approx(5e-171, rel=1e-12)

    def test_overflowing_covariance_stays_an_input_error(self):
        # Cov_x overflows to inf: not an inconsistency beyond a finite bound
        ms = MeasurementSet(1.7e308, 1.0, 1.7e308, 1.0, 1.0, 2.0, relative_error=0.0)
        with pytest.raises(ValueError, match="entries must be finite") as info:
            reconstruct(ms)
        assert not isinstance(info.value, InconsistentDataError)

    def test_physical_result_does_not_warn(self, ref_ms):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhysicalityWarning)
            reconstruct(ref_ms)


class TestPhysicalityDecision:
    """Reconstructed states have no X-P cross terms, so is_physical decides them in
    closed form; the decision and nu_min must match the general eigvals route."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(r=st.tuples(*[st.floats(0.0, 3.0)] * 2), eta=st.tuples(*[st.floats(0.05, 1.0)] * 3),
           dark_noise=st.floats(0.0, 0.1), level=st.sampled_from([0.0, 0.005, 0.01, 0.05]),
           z=st.tuples(*[st.floats(-3.0, 3.0)] * 6))
    def test_closed_form_matches_eigvals(self, r, eta, dark_noise, level, z):
        source = build_epr_source(SourceParams(r1=r[0], r2=r[1], eta_prep=eta[0], eta_det_a=eta[1],
                                               eta_det_b=eta[2], dark_noise=dark_noise))
        values = [v * (1.0 + level * zi) for v, zi in zip(expected_measurements(source).values(), z)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PhysicalityWarning)
                state = reconstruct(MeasurementSet(*values, relative_error=level))
        except ValueError:
            return  # the jitter broke a Cauchy-Schwarz bound
        assert gaussian._decoupled_nu_squared(state) is not None
        nu_min = float(np.min(symplectic_eigenvalues(state)))
        assert is_physical(state) == (nu_min >= 1.0 - gaussian.PHYSICALITY_ATOL)
        assert symplectic_eigenvalues_two_mode(state)[1] == pytest.approx(nu_min, rel=1e-11)

    def test_near_bound_set_warns_without_a_domain_error(self):
        # Cholesky passes, but the factored det Gamma_x rounds to -8.9e-16
        ms = MeasurementSet(1.696568256280103, 1.0, 3.717006778866605, 1.0,
                            0.39116298140080374, 2.0)
        with pytest.warns(PhysicalityWarning) as record:
            state = reconstruct(ms)
        nus = symplectic_eigenvalues_two_mode(state).tolist()
        assert [str(w.message) for w in record] == [
            f"reconstruct: state is unphysical (symplectic eigenvalues {nus})"]
        g = state.entries
        assert g[0, 0] * g[2, 2] - g[0, 2] * g[0, 2] < 0.0
        assert not is_physical(state)

    def test_the_analysis_reads_the_moments_recorded_at_construction(self, monkeypatch, ref_ms):
        # reconstruct -> propagate_errors -> criteria_report -> is_physical, of a
        # physical set and a warned one, never reads the 16 entries back
        calls = []
        for name in ("_decoupled_moments", "_moments_of"):
            def spy(*args, route=getattr(gaussian, name), name=name):
                calls.append(name)
                return route(*args)
            monkeypatch.setattr(gaussian, name, spy)
        for ms in (ref_ms, MeasurementSet(1.0, 1.0, 1.0, 1.0, 0.5, 0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PhysicalityWarning)
                state = reconstruct(ms)
            propagate_errors(ms)
            criteria_report(state)
            is_physical(state)
            expected_measurements(state)
        assert calls == []
        CovarianceMatrix(2, state.entries)  # the spies are live: the constructor reads
        assert calls == ["_decoupled_moments", "_moments_of"]

    @pytest.mark.parametrize("diagonal, physical", TRAP_DIAGONALS)
    def test_underflow_and_overflow_take_the_eigvals_route(self, diagonal, physical):
        xa, pa, xb, pb = diagonal
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = reconstruct(MeasurementSet(xa, pa, xb, pb, xa + xb, pa + pb))
        assert gaussian._decoupled_nu_squared(state) is None
        assert is_physical(state) == physical
        assert [w.category for w in caught] == [PhysicalityWarning] * (not physical)


def step_ulps(x: float, k: int) -> float:
    """x moved |k| ulps away from 0 (k > 0) or towards it (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


def expected_naming(ms, cov_x, cov_p):
    """(entry, value, bound) that the InconsistentDataError of ms names: the larger
    |cov| / bound, X on a tie."""
    best = None
    for entry, cov, v1, v2 in (("x", cov_x, ms.var_xa, ms.var_xb),
                               ("p", cov_p, ms.var_pa, ms.var_pb)):
        bound = math.sqrt(v1) * math.sqrt(v2)
        if best is None or abs(cov) / bound > best[0]:
            best = abs(cov) / bound, (entry, cov, bound)
    return best[1]


class TestConsistencyVerdict:
    """reconstruct makes no Cauchy-Schwarz comparison of its own: it raises
    InconsistentDataError exactly when CovarianceMatrix refuses the matrix, names
    the more strongly correlated covariance, and reads no relative_error."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(v=st.tuples(*[st.floats(1e-3, 1e3)] * 4),
           signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
           blocks=st.sampled_from(["x", "p", "xp"]), rho=st.floats(-0.999, 0.999))
    @example(v=(1.0, 1.0, 1.2, 1.0), signs=(1.0, 1.0), blocks="x", rho=0.5)
    @example(v=(2.0, 3.0, 5.0, 7.0), signs=(-1.0, 1.0), blocks="xp", rho=0.0)
    def test_raises_exactly_when_covariance_matrix_refuses(self, v, signs, blocks, rho):
        xa, pa, xb, pb = v
        bound_x, bound_p = math.sqrt(xa) * math.sqrt(xb), math.sqrt(pa) * math.sqrt(pb)
        for k in range(-6, 7):
            cx = signs[0] * step_ulps(bound_x, k) if "x" in blocks else rho * bound_x
            cp = signs[1] * step_ulps(bound_p, -k) if "p" in blocks else rho * bound_p
            try:
                sets = [MeasurementSet(xa, pa, xb, pb, xa + xb - 2.0 * cx, pa + pb + 2.0 * cp,
                                       relative_error=rel) for rel in (0.0, 1e-3, 0.05, 0.5)]
            except ValueError:
                continue  # a joint variance rounded to <= 0: not a valid set
            ms = sets[0]
            cov_x = -covariance_from_sum(ms.var_x_diff, xa, xb)
            cov_p = covariance_from_sum(ms.var_p_sum, pa, pb)
            try:
                CovarianceMatrix(2, gaussian._from_moments(xa, pa, xb, pb, cov_x, cov_p))
                refused = False
            except ValueError:
                refused = True
            outcomes = set()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PhysicalityWarning)
                for each in sets:
                    try:
                        outcomes.add(reconstruct(each).entries.tobytes())
                    except InconsistentDataError as exc:
                        assert not hasattr(exc, "band")
                        outcomes.add((exc.entry, exc.value, exc.bound, str(exc)))
            assert len(outcomes) == 1, k  # one outcome at every relative_error
            (outcome,) = outcomes
            assert isinstance(outcome, tuple) == refused, k
            if refused:
                assert outcome[:3] == expected_naming(ms, cov_x, cov_p), k
                assert "error band" not in outcome[3]

    def test_both_covariances_past_their_bands_name_the_more_correlated(self):
        # |Cov_x| = 39 and |Cov_p| = 49 at unit variances; X was named first before
        for x_diff, p_sum, entry in ((80.0, 100.0, "p"), (100.0, 80.0, "x")):
            with pytest.raises(InconsistentDataError, match=f"Cov_{entry}") as exc:
                reconstruct(MeasurementSet(1.0, 1.0, 1.0, 1.0, x_diff, p_sum))
            assert exc.value.entry == entry and exc.value.excess > 0

    def test_the_covariance_farther_past_its_bound_is_named(self):
        # |Cov_p| = 20 is twice its bound of 10 (Var P_A >> Var P_B); |Cov_x| = 1.5
        # is 1.5 times its bound of 1: P is named, at any relative_error
        for rel in (0.0, 0.05, 0.5):
            ms = MeasurementSet(1.0, 1e4, 1.0, 1e-2, 5.0, 1e4 + 1e-2 + 40.0, relative_error=rel)
            with pytest.raises(InconsistentDataError) as exc:
                reconstruct(ms)
            assert exc.value.entry == "p" and exc.value.excess > 0
            assert exc.value.value == pytest.approx(20.0) and exc.value.bound == 10.0

    def test_covariance_within_rounding_of_a_zero_band_may_reconstruct(self):
        # with relative_error = 0, |Cov_x| is 1 ulp past its rounded bound, but the
        # float Cholesky step accepts the block: a warned state, not an error
        ms = MeasurementSet(0.647, 1.0, 0.303, 1.0, 1.8355303495645985, 2.0, relative_error=0.0)
        with pytest.warns(PhysicalityWarning):
            state = reconstruct(ms)
        assert abs(state.entries[0, 2]) > math.sqrt(0.647) * math.sqrt(0.303)


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

    def test_result_is_writeable_and_its_own(self, ref_ms):
        sig, again = propagate_errors(ref_ms), propagate_errors(ref_ms)
        assert sig.flags.writeable and sig.flags.aligned and REFERENCE_COVARIANCE.flags.writeable
        for other in (again, reconstruct(ref_ms).entries, REFERENCE_COVARIANCE):
            assert not np.shares_memory(sig, other)
        sig[0, 0] = -1.0
        assert again[0, 0] == 0.05 * 18.41 and propagate_errors(ref_ms)[0, 0] == 0.05 * 18.41


class TestMeasurementSetIO:
    def test_json_roundtrip(self, ref_ms):
        again = MeasurementSet.from_dict(ref_ms.to_dict())
        assert again == ref_ms

    _NUMBER = st.one_of(st.floats(), st.floats(1e-3, 0.999), st.integers(0, 2 ** 53),
                        st.integers(0, 2 ** 63 - 1).map(np.int64), st.integers(2 ** 1024, 2 ** 1100),
                        st.booleans(), st.none(), st.text(max_size=2))

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(values=st.lists(_NUMBER, min_size=7, max_size=7))
    @example(values=[True, 1, 1, 1, 1, 1, 0.05])
    @example(values=[1, 1, 1, 1, 2, 2, False])
    def test_sets_read_back_what_they_write(self, values):
        # every MeasurementSet the constructor accepts stores floats and is read back
        # equal from its JSON
        try:
            ms = MeasurementSet(*values)
        except ValueError:
            return
        assert all(type(v) is float for v in (*ms.values(), ms.relative_error))
        assert MeasurementSet.from_dict(json.loads(json.dumps(ms.to_dict()))) == ms

    def test_to_dict_is_a_deep_copy(self, ref_ms):
        ms = MeasurementSet(*ref_ms.values(), metadata={"labels": {"rbw_hz": 300.0e3}})
        ms.to_dict()["metadata"]["labels"]["rbw_hz"] = 1.0
        assert ms.metadata == {"labels": {"rbw_hz": 300.0e3}}

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
        pytest.param("var_xa", 10 ** 400, "too large", id="var_xa-10**400-too large"),
        ("var_xa", True, "non-numeric"),
        ("relative_error", True, "non-numeric"),
        ("var_xa", "18.41", 'non-numeric field \\("18.41" is not a number\\)'),
        ("relative_error", ["0.05"],
         "^MeasurementSet JSON: non-numeric field \\(an array is not a number\\)$"),
        ("relative_eror", 0.5, "unknown field\\(s\\) \\['relative_eror'\\]"),
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

    @pytest.mark.parametrize("n_cells", [5, 7])
    def test_csv_row_of_the_wrong_length_rejected(self, n_cells):
        text = ",".join(CSV_FIELDS) + "\n" + ",".join(["1.0"] * n_cells) + "\n"
        with pytest.raises(ValueError, match="one data row of 6 values"):
            MeasurementSet.from_csv(text)

    @pytest.mark.parametrize("cell, match", [
        ("18_41", "^MeasurementSet CSV: non-numeric field var_xa \\('18_41' is not a number\\)$"),
        ("abc", "^MeasurementSet CSV: non-numeric field var_xa \\('abc' is not a number\\)$"),
        pytest.param("1" * 200_000, "^MeasurementSet CSV: field larger than field limit \\(131072\\)$",
                     id="oversized-field"),
    ])
    def test_csv_rejects_bad_cells(self, cell, match):
        text = ",".join(CSV_FIELDS) + "\n" + cell + ",35.49,17.98,34.61,0.21,0.20\n"
        with pytest.raises(ValueError, match=match):
            MeasurementSet.from_csv(text)

    def test_csv_reads_float_grammar(self):
        text = ",".join(CSV_FIELDS) + "\n.5, +1,1e-05,1E2 ,2.,3\n"
        assert MeasurementSet.from_csv(text).values() == (0.5, 1.0, 1e-05, 100.0, 2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="var_xb"):
            MeasurementSet(1.0, 1.0, -1.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="relative_error"):
            MeasurementSet(*VACUUM_SET.values(), relative_error=1.0)
        with pytest.raises(ValueError, match="^MeasurementSet: var_xa must be a real number, got True$"):
            MeasurementSet(True, 1.0, 1.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError,
                           match="^MeasurementSet: relative_error must be a real number, got False$"):
            MeasurementSet(*VACUUM_SET.values(), relative_error=False)

    @pytest.mark.parametrize("bad, shown", [(0, "0.0"), (0.0, "0.0"), (-0.0, "-0.0"), (-1, "-1.0"),
                                            (math.inf, "inf"), (-math.inf, "-inf"),
                                            (math.nan, "nan"), (np.float64(-2.5), "-2.5")])
    @pytest.mark.parametrize("name", CSV_FIELDS)
    def test_refusal_names_the_field_and_value(self, name, bad, shown):
        values = dict(zip(CSV_FIELDS, VACUUM_SET.values()), **{name: bad})
        with pytest.raises(ValueError) as exc:
            MeasurementSet(**values)
        assert str(exc.value) == f"MeasurementSet: {name} must be positive, got {shown}"

    def test_refusal_names_the_first_bad_field_in_csv_order(self):
        for i, j in ((0, 5), (1, 2), (3, 4)):
            values = list(VACUUM_SET.values())
            values[i], values[j] = math.nan, -1.0
            with pytest.raises(ValueError) as exc:
                MeasurementSet(*values)
            assert str(exc.value) == f"MeasurementSet: {CSV_FIELDS[i]} must be positive, got nan"

    def test_int_and_numpy_scalar_values_are_accepted(self):
        ms = MeasurementSet(1, np.float64(1.0), np.float32(1.0), np.int64(1), 2, np.float16(2.0))
        assert ms.values() == VACUUM_SET.values()
        assert reconstruct(ms).entries.tobytes() == reconstruct(VACUUM_SET).entries.tobytes()


class TestMeasurementSetConstructor:
    """The written-out MeasurementSet constructor keeps the generated one's contract."""

    def test_parameters_are_the_fields_in_order(self):
        params = inspect.signature(MeasurementSet).parameters
        assert list(params) == [f.name for f in dataclasses.fields(MeasurementSet)]
        assert [params[name].default for name in CSV_FIELDS] == [inspect.Parameter.empty] * 6
        assert params["relative_error"].default == 0.05

    def test_defaults(self):
        a, b = MeasurementSet(*VACUUM_SET.values()), MeasurementSet(*VACUUM_SET.values())
        assert a.relative_error == 0.05
        assert a.metadata == b.metadata == {} and a.metadata is not b.metadata
        assert MeasurementSet(*VACUUM_SET.values(), metadata=None).metadata is None
        labels = {"rbw_hz": 300.0e3}
        assert MeasurementSet(*VACUUM_SET.values(), metadata=labels).metadata is labels

    def test_keyword_and_positional_calls(self):
        values = dict(zip(CSV_FIELDS, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)))
        by_name = MeasurementSet(**values, relative_error=0.01, metadata={"k": 1})
        assert by_name == MeasurementSet(*values.values(), 0.01, {"k": 1})
        assert repr(by_name) == ("MeasurementSet(var_xa=1.0, var_pa=2.0, var_xb=3.0, var_pb=4.0, "
                                 "var_x_diff=5.0, var_p_sum=6.0, relative_error=0.01, "
                                 "metadata={'k': 1})")
        assert list(vars(by_name)) == [f.name for f in dataclasses.fields(MeasurementSet)]
        for args, kwargs in (((1.0, 2.0), {}), ((*values.values(), 0.01, {}, 1), {}),
                             ((*values.values(),), {"var_xa": 1.0}),
                             ((*values.values(),), {"rel_error": 0.01})):
            with pytest.raises(TypeError):
                MeasurementSet(*args, **kwargs)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, dataclasses.replace,
                                       lambda ms: pickle.loads(pickle.dumps(ms))],
                             ids=["copy", "deepcopy", "replace", "pickle"])
    def test_copies_equal_the_set(self, ref_ms, clone):
        twin = clone(ref_ms)
        assert twin is not ref_ms and twin == ref_ms and repr(twin) == repr(ref_ms)
        assert list(vars(twin)) == list(vars(ref_ms))

    def test_replace_checks_its_values(self, ref_ms):
        assert dataclasses.replace(ref_ms, var_xa=2.0).values()[:2] == (2.0, ref_ms.var_pa)
        with pytest.raises(ValueError, match="^MeasurementSet: var_xb must be positive, got -1.0$"):
            dataclasses.replace(ref_ms, var_xb=-1.0)

    def test_frozen_and_unhashable(self, ref_ms):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref_ms.var_xa = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del ref_ms.metadata
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(ref_ms)


XP_ENTRIES = ((0, 1), (0, 3), (1, 2), (2, 3))


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

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(r=st.tuples(*[st.floats(0.0, 3.0)] * 2), eta=st.tuples(*[st.floats(0.05, 1.0)] * 3),
           dark_noise=st.floats(0.0, 0.1), transmittance=st.floats(0.0, 1.0),
           phase=st.sampled_from([math.pi / 2, -math.pi / 2, math.pi, 0.0]),
           level=st.sampled_from([None, 0.0, 0.01, 0.05]), z=st.tuples(*[st.floats(-3.0, 3.0)] * 6),
           completions=st.lists(st.tuples(st.floats(0.01, 5.0),
                                          st.tuples(*[st.floats(-1.0, 1.0)] * 4)),
                                min_size=1, max_size=8))
    def test_zero_completion_is_most_physical_least_entangled_least_steerable(
            self, r, eta, dark_noise, transmittance, phase, level, z, completions):
        # lambda_min(G_c + iK) is concave and even in the X-P entries c, so c = 0
        # maximizes it for K = Omega (physicality), the partial transpose's form
        # (PPT) and 0_A + Omega_B (Wiseman-Jones-Doherty steering of B by A)
        source = build_epr_source(SourceParams(r1=r[0], r2=r[1], relative_phase=phase,
                                               transmittance=transmittance, eta_prep=eta[0],
                                               eta_det_a=eta[1], eta_det_b=eta[2],
                                               dark_noise=dark_noise))
        state = source  # a quarter-turn forward state
        if level is not None:
            values = [v * (1.0 + level * zi)
                      for v, zi in zip(expected_measurements(source).values(), z)]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PhysicalityWarning)
                    state = reconstruct(MeasurementSet(*values, relative_error=level))
            except ValueError:
                return  # the jitter broke a Cauchy-Schwarz bound
        g0 = state.entries
        assert gaussian._xp_of(g0.ravel().tolist()) == (0.0,) * 4
        omega = gaussian.symplectic_form(2)
        forms = (omega, np.diag([1.0, 1.0, 1.0, -1.0]) @ omega @ np.diag([1.0, 1.0, 1.0, -1.0]),
                 np.diag([0.0, 0.0, 1.0, 1.0]) @ omega)
        zero = [np.linalg.eigvalsh(g0 + 1j * k).min() for k in forms]
        report = criteria_report(state).to_dict()
        eps = np.finfo(float).eps
        for scale, u in completions:
            g = g0.copy()
            for (i, j), ui in zip(XP_ENTRIES, u):
                g[i, j] = g[j, i] = scale * ui * math.sqrt(g0[i, i] * g0[j, j])
            try:
                completed = CovarianceMatrix(2, g)
            except ValueError:
                continue  # not positive definite
            # Allowance fixed before the run: 64 eps of the largest entry.
            allowance = 64.0 * eps * max(1.0, np.abs(g).max())
            for k, at_zero in zip(forms, zero):
                assert np.linalg.eigvalsh(g + 1j * k).min() <= at_zero + allowance
            completed_report = criteria_report(completed).to_dict()
            for key in ("reid_b_given_a", "reid_a_given_b", "duan_sum"):
                assert completed_report[key] == report[key]


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


class TestMatchesReference:
    def test_entries_equal_the_checked_identity_code(self):
        # jittered campaigns of random states: the same float arithmetic, so equal exactly
        rng = np.random.default_rng(73)
        reconstructed = 0
        for _ in range(1000):
            values = np.array(expected_measurements(random_physical_state(rng)).values())
            ms = MeasurementSet(*(values * (1.0 + 0.05 * rng.standard_normal(6))).tolist())
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PhysicalityWarning)
                    state = reconstruct(ms)
            except ValueError:
                continue
            reconstructed += 1
            assert np.array_equal(state.entries, reference_reconstruct_entries(ms))
        assert reconstructed >= 500


class TestExpectedMeasurements:
    def test_reads_reference_values(self, ref_state, ref_ms):
        ms = expected_measurements(ref_state, relative_error=0.05)
        assert ms.values() == pytest.approx(ref_ms.values(), abs=1e-12)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            expected_measurements(vacuum_state(1))
