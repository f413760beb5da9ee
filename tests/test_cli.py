import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cvsteer import SourceParams, build_epr_source, criteria_report
from cvsteer.cli import main, perturbation_study
from cvsteer.reference import REFERENCE_MEASUREMENTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, err, *needles):
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def write_reference_cov(tmp_path):
    from cvsteer import reconstruct
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(reconstruct(REFERENCE_MEASUREMENTS).to_dict()))
    return str(path)


class TestSimulate:
    def test_defaults_give_vacuum(self, capsys):
        code, out, _ = run(capsys, "simulate")
        assert code == 0
        d = json.loads(out)
        assert d["n_modes"] == 2 and d["ordering"] == "x1p1x2p2"
        np.testing.assert_allclose(d["entries"], np.eye(4), atol=1e-14)

    def test_flags_override_params_file(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"r1": 0.5, "r2": 0.5, "eta_prep": 0.9}))
        code, out, _ = run(capsys, "simulate", "--in", str(p), "--r1", "1.0")
        assert code == 0
        d = json.loads(out)
        expected = build_epr_source(SourceParams(r1=1.0, r2=0.5, eta_prep=0.9))
        np.testing.assert_allclose(d["entries"], expected.entries, atol=1e-15)

    def test_invalid_efficiency_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--eta-prep", "1.2")
        assert code == 2
        assert "eta_prep" in err

    def test_overflowing_squeezing_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--r1", "800")
        assert_input_error(code, err, "r1")

    @pytest.mark.parametrize("field", ["r1", "r2", "dark_noise"])
    def test_non_finite_params_exit_2(self, capsys, tmp_path, field):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({field: math.nan}))
        code, _, err = run(capsys, "simulate", "--in", str(p))
        assert_input_error(code, err, field)

    def test_infinite_dark_noise_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--dark-noise-db=-inf")
        assert_input_error(code, err, "dark_noise")

    def test_steering_visible_for_fitted_like_params(self, capsys, tmp_path):
        out_path = tmp_path / "cov.json"
        code, _, _ = run(capsys, "simulate", "--r1", "2.17", "--r2", "1.84",
                         "--eta-prep", "0.915", "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "analyze", "--in", str(out_path))
        assert code == 0
        assert json.loads(out)["steering_b_given_a"] is True


class TestAnalyze:
    def test_reference_values(self, capsys, tmp_path):
        code, out, _ = run(capsys, "analyze", "--in", write_reference_cov(tmp_path))
        assert code == 0
        d = json.loads(out)
        assert d["reid_b_given_a"] == pytest.approx(0.039, abs=1e-3)
        assert d["reid_a_given_b"] == pytest.approx(0.041, abs=1e-3)
        assert d["duan_sum"] == pytest.approx(0.41, abs=1e-10)

    def test_vacuum_has_no_steering(self, capsys, tmp_path):
        p = tmp_path / "vac.json"
        p.write_text(json.dumps({"n_modes": 2, "ordering": "x1p1x2p2",
                                 "entries": np.eye(4).tolist()}))
        code, out, _ = run(capsys, "analyze", "--in", str(p))
        assert code == 0
        d = json.loads(out)
        assert d["reid_b_given_a"] == 1.0 and d["steering_b_given_a"] is False

    def test_three_by_three_matrix_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n_modes": 2, "ordering": "x1p1x2p2",
                                 "entries": np.eye(3).tolist()}))
        code, _, err = run(capsys, "analyze", "--in", str(p))
        assert code == 2 and "shape" in err

    def test_asymmetric_matrix_exits_2(self, capsys, tmp_path):
        m = np.eye(4)
        m[0, 2] = 0.5
        p = tmp_path / "asym.json"
        p.write_text(json.dumps({"n_modes": 2, "ordering": "x1p1x2p2",
                                 "entries": m.tolist()}))
        code, _, err = run(capsys, "analyze", "--in", str(p))
        assert code == 2 and "symmetric" in err

    def test_json_array_exits_2(self, capsys, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(json.dumps(np.eye(4).tolist()))
        code, _, err = run(capsys, "analyze", "--in", str(p))
        assert_input_error(code, err, "expected an object")

    @pytest.mark.parametrize("n_modes", [2.7, True, "2"])
    def test_non_integer_n_modes_exits_2(self, capsys, tmp_path, n_modes):
        p = tmp_path / "cov.json"
        p.write_text(json.dumps({"n_modes": n_modes, "entries": np.eye(4).tolist()}))
        code, _, err = run(capsys, "analyze", "--in", str(p))
        assert_input_error(code, err, "n_modes must be an integer")

    def test_gains_note_on_stderr(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "--in", write_reference_cov(tmp_path),
                             "--gains", "1,-1")
        assert code == 0
        assert float(err.split(":")[-1]) == pytest.approx(0.042, abs=1e-10)
        json.loads(out)  # stdout stays pure JSON

    def test_matches_in_process_report_exactly(self, capsys, tmp_path):
        params = SourceParams(r1=1.3, r2=0.9, eta_prep=0.93, eta_det_a=0.97,
                              eta_det_b=0.96, dark_noise=0.0063)
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params.to_dict()))
        cov = tmp_path / "cov.json"
        assert run(capsys, "simulate", "--in", str(pfile), "--out", str(cov))[0] == 0
        code, out, _ = run(capsys, "analyze", "--in", str(cov))
        assert code == 0
        # JSON float repr is round-trip exact, so equality is exact
        assert json.loads(out) == criteria_report(build_epr_source(params)).to_dict()


class TestSample:
    def test_campaign_json_is_deterministic(self, capsys, tmp_path):
        cov = write_reference_cov(tmp_path)
        code1, out1, _ = run(capsys, "sample", "--in", cov, "--n", "800", "--seed", "5")
        code2, out2, _ = run(capsys, "sample", "--in", cov, "--n", "800", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        d = json.loads(out1)
        assert d["relative_error"] == pytest.approx(0.05)

    def test_missing_n_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--in", write_reference_cov(tmp_path)])
        assert exc.value.code == 2

    def test_csv_raw_samples(self, capsys, tmp_path):
        cov = write_reference_cov(tmp_path)
        for n in (5, 2):
            code, out, _ = run(capsys, "sample", "--in", cov, "--n", str(n), "--seed", "1",
                               "--format", "csv")
            assert code == 0
            lines = out.strip().split("\n")
            assert lines[0] == "setting,value"
            assert len(lines) == 1 + 6 * n

    def test_json_campaign_needs_three_samples(self, capsys, tmp_path):
        code, out, err = run(capsys, "sample", "--in", write_reference_cov(tmp_path),
                             "--n", "2")
        assert_input_error(code, err, "n_per_setting must be >= 3", "n=2")
        assert out == ""


class TestReconstruct:
    def test_csv_input_reproduces_reference_matrix(self, capsys, tmp_path):
        p = tmp_path / "ms.csv"
        p.write_text(REFERENCE_MEASUREMENTS.to_csv())
        code, out, _ = run(capsys, "reconstruct", "--in", str(p))
        assert code == 0
        d = json.loads(out)
        from cvsteer.reference import REFERENCE_COVARIANCE
        assert np.max(np.abs(np.array(d["entries"]) - REFERENCE_COVARIANCE)) <= 1e-12
        assert d["warnings"] == []
        assert np.array(d["uncertainties"])[0, 0] == pytest.approx(0.9205, abs=1e-10)

    def test_json_input_and_vacuum(self, capsys, tmp_path):
        p = tmp_path / "ms.json"
        p.write_text(json.dumps({"var_xa": 1, "var_pa": 1, "var_xb": 1, "var_pb": 1,
                                 "var_x_diff": 2, "var_p_sum": 2}))
        code, out, _ = run(capsys, "reconstruct", "--in", str(p))
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["entries"], np.eye(4), atol=1e-14)

    def test_inconsistent_set_exits_1_naming_entry(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"var_xa": 1, "var_pa": 1, "var_xb": 1, "var_pb": 1,
                                 "var_x_diff": 80, "var_p_sum": 2}))
        code, _, err = run(capsys, "reconstruct", "--in", str(p))
        assert code == 1
        assert "Cov_x" in err

    def test_non_object_metadata_exits_2(self, capsys, tmp_path):
        p = tmp_path / "ms.json"
        d = REFERENCE_MEASUREMENTS.to_dict()
        d["metadata"] = 5
        p.write_text(json.dumps(d))
        code, _, err = run(capsys, "reconstruct", "--in", str(p))
        assert_input_error(code, err, "metadata")

    def test_near_boundary_warning_is_reported(self, capsys, tmp_path):
        p = tmp_path / "ms.json"
        p.write_text(json.dumps({"var_xa": 1, "var_pa": 1, "var_xb": 1, "var_pb": 1,
                                 "var_x_diff": 0.5, "var_p_sum": 0.5}))
        code, out, _ = run(capsys, "reconstruct", "--in", str(p))
        assert code == 0
        d = json.loads(out)
        assert len(d["warnings"]) == 1 and "unphysical" in d["warnings"][0]


class TestFit:
    def test_reference_matrix(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit", "--in", write_reference_cov(tmp_path))
        assert code == 0
        d = json.loads(out)
        assert 0.88 <= d["xi"] <= 0.96
        assert d["converged"] is True

    def test_synthetic_self_consistency(self, capsys, tmp_path):
        cov = tmp_path / "cov.json"
        assert run(capsys, "simulate", "--r1", "1.0", "--r2", "0.8",
                   "--eta-prep", "0.9", "--out", str(cov))[0] == 0
        code, out, _ = run(capsys, "fit", "--in", str(cov))
        assert code == 0
        assert json.loads(out)["xi"] == pytest.approx(0.9, abs=1e-4)

    def test_json_array_exits_2(self, capsys, tmp_path):
        p = tmp_path / "list.json"
        with open(write_reference_cov(tmp_path)) as fh:
            p.write_text(f"[{fh.read()}]")
        code, _, err = run(capsys, "fit", "--in", str(p))
        assert_input_error(code, err, "expected an object")

    def test_pure_state_fits_unit_efficiency(self, capsys, tmp_path):
        cov = tmp_path / "cov.json"
        assert run(capsys, "simulate", "--r1", "1.2", "--r2", "1.2",
                   "--out", str(cov))[0] == 0
        code, out, _ = run(capsys, "fit", "--in", str(cov))
        assert code == 0
        assert json.loads(out)["xi"] >= 0.999


class TestRepro:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "repro")
        assert code == 0
        assert "11/11 checks passed" in out
        assert "FAIL" not in out.replace("PASS", "")

    def test_output_is_byte_stable(self, capsys, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, out1, _ = run(capsys, "repro", "--out", str(f1))
        code2, out2, _ = run(capsys, "repro", "--out", str(f2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert f1.read_bytes() == f2.read_bytes()

    def test_report_json_rows(self, capsys, tmp_path):
        f = tmp_path / "report.json"
        code, _, _ = run(capsys, "repro", "--out", str(f))
        assert code == 0
        report = json.loads(f.read_text())
        assert report["passed"] is True
        by_name = {r["quantity"]: r for r in report["rows"]}
        assert by_name["reid product B|A (optimal gains)"]["computed"] == pytest.approx(
            0.0392078, abs=1e-6)
        assert all(r["passed"] for r in report["rows"])

    def test_perturb_study_gate(self, capsys):
        code, out, _ = run(capsys, "repro", "--perturb", "0.05")
        assert code == 0
        assert "perturbation spread" in out

    @pytest.mark.parametrize("rel", ["-1", "1", "nan"])
    def test_perturb_outside_unit_interval_exits_2(self, capsys, rel):
        code, out, err = run(capsys, "repro", f"--perturb={rel}")
        assert_input_error(code, err, "relative_error")
        assert out == ""

    def test_sampled_rerun_with_dark_noise(self, capsys):
        code, out, _ = run(capsys, "repro", "--n", "200000", "--seed", "3",
                           "--dark-noise-db", "22")
        assert code == 0
        assert "dark-noise shift" in out

    def test_sampled_rerun_needs_three_samples(self, capsys):
        code, out, err = run(capsys, "repro", "--n", "2")
        assert_input_error(code, err, "n_per_setting must be >= 3", "n=2")
        assert out == ""


class TestInstalledEntryPoint:
    def test_repro_runs_as_subprocess(self):
        proc = subprocess.run([sys.executable, "-m", "cvsteer.cli", "repro"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    @pytest.mark.parametrize("argv", [["simulate", "--r1", "800"], ["repro", "--perturb=-1"]])
    def test_input_errors_exit_2_without_traceback(self, argv):
        proc = subprocess.run([sys.executable, "-m", "cvsteer.cli", *argv],
                              capture_output=True, text=True)
        assert_input_error(proc.returncode, proc.stderr)


class TestPerturbationStudy:
    def test_spread_is_unbiased_and_within_tolerance_class(self):
        study = perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=400, seed=1)
        # linear fixed-gain propagation: mean stays at the point estimate and
        # the one-sigma half-width matches first-order propagation (~0.0092)
        assert study["mean"] == pytest.approx(0.0392078, abs=2e-3)
        assert study["std"] == pytest.approx(0.0092, abs=2e-3)
        assert study["std"] <= 0.01

    def test_deterministic_for_fixed_seed(self):
        s1 = perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=100, seed=9)
        s2 = perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=100, seed=9)
        assert s1 == s2

    @pytest.mark.parametrize("rel", [-1.0, 1.0, math.nan])
    def test_rejects_relative_error_outside_unit_interval(self, rel):
        with pytest.raises(ValueError, match="relative_error"):
            perturbation_study(REFERENCE_MEASUREMENTS, rel)

    def test_scales_linearly_with_relative_error(self):
        lo = perturbation_study(REFERENCE_MEASUREMENTS, 0.01, n_trials=400, seed=2)
        hi = perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=400, seed=2)
        assert hi["std"] / lo["std"] == pytest.approx(5.0, rel=0.1)
