import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvsteer.reference
from cvsteer import SourceParams, build_epr_source, criteria_report
from cvsteer.cli import main, perturbation_study
from cvsteer.reconstruction import CSV_FIELDS
from cvsteer.reference import REFERENCE_MEASUREMENTS
from conftest import reference_perturbation_study


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
        code, out, err = run(capsys, "analyze", "--in", write_reference_cov(tmp_path))
        assert (code, err) == (0, "")  # a physical state: no warning line
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

    def test_gains_note_on_stderr(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "--in", write_reference_cov(tmp_path),
                             "--gains", "1,-1")
        assert code == 0
        assert float(err.split(":")[-1]) == pytest.approx(0.042, abs=1e-10)
        json.loads(out)  # stdout stays pure JSON

    def test_optimal_gains_note_is_the_report_product(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "--in", write_reference_cov(tmp_path),
                             "--gains", "optimal")
        assert code == 0
        assert err.startswith("# reid product B|A at gains optimal: ")
        assert float(err.split(":")[-1]) == json.loads(out)["reid_b_given_a"]

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

    def test_csv_raw_samples(self, capsys, tmp_path):
        cov = write_reference_cov(tmp_path)
        for n in (5, 2):
            code, out, _ = run(capsys, "sample", "--in", cov, "--n", str(n), "--seed", "1",
                               "--format", "csv")
            assert code == 0
            lines = out.strip().split("\n")
            assert lines[0] == "setting,value"
            assert len(lines) == 1 + 6 * n


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


class TestFit:
    def test_reference_matrix(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit", "--in", write_reference_cov(tmp_path))
        assert code == 0
        d = json.loads(out)
        assert 0.88 <= d["xi"] <= 0.96
        assert d["xi"] == pytest.approx(0.9149490426164827, abs=1e-8)  # the Nelder-Mead fit
        assert d["converged"] is True

    def test_synthetic_self_consistency(self, capsys, tmp_path):
        cov = tmp_path / "cov.json"
        assert run(capsys, "simulate", "--r1", "1.0", "--r2", "0.8",
                   "--eta-prep", "0.9", "--out", str(cov))[0] == 0
        code, out, _ = run(capsys, "fit", "--in", str(cov))
        assert code == 0
        assert json.loads(out)["xi"] == pytest.approx(0.9, abs=1e-4)

    def test_pure_state_fits_unit_efficiency(self, capsys, tmp_path):
        cov = tmp_path / "cov.json"
        assert run(capsys, "simulate", "--r1", "1.2", "--r2", "1.2",
                   "--out", str(cov))[0] == 0
        code, out, _ = run(capsys, "fit", "--in", str(cov))
        assert code == 0
        d = json.loads(out)
        assert d["xi"] == 1.0 and d["converged"] is True


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

    @pytest.mark.parametrize("argv", [["--dark-noise-db", "22"], ["--n", "3", "--seed", "0"]])
    def test_bad_perturb_exits_2_before_sampling(self, capsys, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampled rerun ran before perturb was checked")
        monkeypatch.setattr(cvsteer.reference, "measure_campaign", no_sampling)
        assert run(capsys, "repro", *argv, "--perturb", "1.0") == (
            2, "", "error: MeasurementSet: relative_error must be in [0, 1), got 1.0\n")

    def test_sampled_rerun_with_dark_noise(self, capsys):
        code, out, _ = run(capsys, "repro", "--n", "200000", "--seed", "3",
                           "--dark-noise-db", "22")
        assert code == 0
        assert "dark-noise shift" in out

    @pytest.mark.parametrize("db", ["-1539", "-2000"])
    @pytest.mark.filterwarnings("ignore::cvsteer.reconstruction.PhysicalityWarning")  # n = 3
    def test_dark_noise_overflowing_the_sampled_variances_exits_2(self, capsys, db):
        # variance 7.9e153 at -1539 dB: the joint settings' variances, twice
        # that, square past the float range ("not positive definite" before)
        code, out, err = run(capsys, "repro", "--n", "3", f"--dark-noise-db={db}")
        assert (code, out) == (2, "")
        variance = {"-1539": "7.94e+153", "-2000": "1e+200"}[db]
        assert err.startswith(f"error: dark noise of {db} dB (variance {variance}) is too large: "
                              "the sampled variances or their squares overflow\n")

    def test_small_dark_campaign_reaching_its_bound_exits_1(self, capsys):
        # 3 samples per setting with 10 dB of excess dark noise: the sampled
        # Cov_x reaches its bound ("not positive definite", exit 2, before)
        code, out, err = run(capsys, "repro", "--n", "3", "--seed", "1", "--dark-noise-db=-10")
        assert code == 1 and out == ""
        assert err.startswith("error: measurement set inconsistent: |Cov_x| = ")
        assert "not positive definite" in err and "by -" not in err

    def test_library_repro_matches_out_json(self, capsys, tmp_path):
        f = tmp_path / "report.json"
        code, _, _ = run(capsys, "repro", "--n", "2000", "--seed", "3", "--dark-noise-db", "22",
                         "--perturb", "0.05", "--out", str(f))
        assert code == 0
        rows, extras = cvsteer.reference.repro(n=2000, seed=3, dark_noise_db=22.0, perturb=0.05)
        # JSON float repr is round-trip exact, so equality is exact
        assert json.loads(f.read_text()) == {"rows": rows, "extras": extras, "passed": True}

    def test_perturbation_study_is_reexported(self):
        assert perturbation_study is cvsteer.reference.perturbation_study


# a JSON object whose one field nests arrays past the decoder's recursion limit
_NESTED_JSON = '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_unknown_command_is_one_error_line(capsys):
    code, out, err = run(capsys, "nosuch")
    assert (code, out) == (2, "")
    assert err.startswith("error: cvsteer: argument command: invalid choice: 'nosuch'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["simulate", "-h"], ["sample", "--help"]])
def test_help_still_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: cvsteer") and captured.err == ""


_ANY_FLOAT = st.floats()  # includes nan, +-inf and magnitudes up to the float maximum
_FUZZ = settings(max_examples=50, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def reference_cov_file(tmp_path_factory):
    return write_reference_cov(tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_files")


# JSON field values: None, ints, floats (nan and +-inf included), strings and lists
_JSON_SCALAR = st.none() | st.integers(-3, 3) | _ANY_FLOAT | st.text(max_size=3)
_JSON_FIELD = _JSON_SCALAR | st.lists(_JSON_SCALAR, max_size=4)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True)
# 4x4 matrices: a scaled identity reaches the criteria; arbitrary entries mostly fail the checks
_MATRIX = (_ANY_FLOAT.map(lambda v: (v * np.eye(4)).tolist())
           | st.lists(st.lists(_ANY_FLOAT, min_size=4, max_size=4), min_size=4, max_size=4))
# physical source-model states, the fit's input shape, as scaled-variance matrices
_FIT_MATRIX = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(1e-3, 1.0),
                        st.floats(-3.0, 3.0)).map(
    lambda p: (build_epr_source(SourceParams(r1=p[0], r2=p[1], eta_prep=p[2])).entries
               * 10.0 ** p[3]).tolist())
_CSV_CELL = _ANY_FLOAT.map(repr) | st.integers(-3, 3).map(str) | st.text("0123456789.e-x ", max_size=4)


def assert_exit_contract(argv) -> int:
    """main returns 0, 1 or 2 without raising; an input error writes nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
    return code


# flag texts: float reprs, those of [0, 2] (in range of every float flag), small ints and
# texts of float()'s characters
_FLAG_TEXT = (_ANY_FLOAT.map(repr) | st.floats(0.0, 2.0).map(repr) | st.integers(-99, 99).map(str)
              | st.text("0123456789_.e+-inf ", max_size=6))
# --n and --seed texts of at most 4 digits, so that no case samples a large campaign
_COUNT_TEXT = st.text("0123456789_+- .e", max_size=6).filter(
    lambda t: sum(c.isdigit() for c in t) <= 4)


def with_underscore(texts):
    """texts, and each with a `_` put in it"""
    return texts | st.tuples(texts, st.integers(0, 6)).map(
        lambda p: p[0][:p[1]] + "_" + p[0][p[1]:])


# flag: (the command before it, its texts)
_FLAG_TEXTS = {
    "--r1": (lambda cov: ["simulate"], _FLAG_TEXT),
    "--dark-noise-db": (lambda cov: ["simulate"], _FLAG_TEXT),
    "--perturb": (lambda cov: ["repro"], _FLAG_TEXT),
    "--gains": (lambda cov: ["analyze", "--in", cov],
                st.lists(_FLAG_TEXT, max_size=3).map(",".join)),
    "--n": (lambda cov: ["sample", "--in", cov], _COUNT_TEXT),
    "--seed": (lambda cov: ["sample", "--in", cov, "--n", "10"], _COUNT_TEXT),
}


class TestExitContractFuzz:
    @_FUZZ
    @given(n=st.integers(0, 2000), seed=st.integers(-3, 2 ** 64),
           dark_db=st.none() | _ANY_FLOAT, perturb=st.none() | _ANY_FLOAT)
    @example(n=10, seed=0, dark_db=-4000.0, perturb=None)
    def test_repro(self, n, seed, dark_db, perturb):
        argv = ["repro", f"--n={n}", f"--seed={seed}"]
        if dark_db is not None:
            argv.append(f"--dark-noise-db={dark_db!r}")
        if perturb is not None:
            argv.append(f"--perturb={perturb!r}")
        assert_exit_contract(argv)

    @_FUZZ
    @given(dark_db=_ANY_FLOAT, fmt=st.sampled_from(["json", "csv"]))
    @example(dark_db=-4000.0, fmt="csv")
    def test_sample(self, reference_cov_file, dark_db, fmt):
        assert_exit_contract(["sample", "--in", reference_cov_file, "--n", "10",
                              f"--format={fmt}", f"--dark-noise-db={dark_db!r}"])

    @pytest.mark.parametrize("flag", sorted(_FLAG_TEXTS))
    @_FUZZ
    @given(data=st.data())
    def test_flag_text(self, reference_cov_file, flag, data):
        command, texts = _FLAG_TEXTS[flag]
        text = data.draw(with_underscore(texts), label="text")
        code = assert_exit_contract([*command(reference_cov_file), f"{flag}={text}"])
        if "_" in text:
            assert code == 2

    @_FUZZ
    @given(dark_db=_ANY_FLOAT)
    @example(dark_db=-4000.0)
    def test_simulate(self, dark_db):
        assert_exit_contract(["simulate", f"--dark-noise-db={dark_db!r}"])

    @_FUZZ
    @given(doc=st.fixed_dictionaries({}, optional={name: _POSITIVE | _JSON_FIELD
                                                   for name in SourceParams.__dataclass_fields__}))
    @example(doc={"r1": "1"})
    def test_simulate_file(self, fuzz_dir, doc):
        path = fuzz_dir / "params.json"
        path.write_text(json.dumps(doc))
        assert_exit_contract(["simulate", "--in", str(path)])

    @_FUZZ
    @given(doc=st.fixed_dictionaries({"n_modes": st.just(2) | _JSON_FIELD,
                                      "entries": _MATRIX | _JSON_FIELD}))
    @example(doc={"n_modes": 2, "entries": [[10 ** 400, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                            [0, 0, 0, 1]]})
    def test_analyze_file(self, fuzz_dir, doc):
        path = fuzz_dir / "state.json"
        path.write_text(json.dumps(doc))
        assert_exit_contract(["analyze", "--in", str(path)])

    @_FUZZ
    @given(doc=st.fixed_dictionaries({"n_modes": st.just(2) | _JSON_FIELD,
                                      "entries": _MATRIX | _FIT_MATRIX | _JSON_FIELD}))
    @example(doc={"n_modes": 2, "entries": [[1e300, 0, 0, 0], [0, 1e300, 0, 0], [0, 0, 1e300, 0],
                                            [0, 0, 0, 1e300]]})
    @example(doc={"n_modes": 2, "entries": np.eye(4).tolist()})
    def test_fit_file(self, fuzz_dir, doc):
        path = fuzz_dir / "fit_state.json"
        path.write_text(json.dumps(doc))
        assert_exit_contract(["fit", "--in", str(path)])

    @_FUZZ
    @given(text=st.fixed_dictionaries({name: _POSITIVE | _JSON_FIELD for name in CSV_FIELDS},
                                      optional={"relative_error": _JSON_FIELD,
                                                "metadata": _JSON_FIELD}).map(json.dumps)
           | st.lists(_CSV_CELL, max_size=8).map(lambda cells: ",".join(CSV_FIELDS) + "\n"
                                                               + ",".join(cells) + "\n"))
    @example(text=",".join(CSV_FIELDS) + "\n1,1,1,1,2\n")
    @example(text=",".join(CSV_FIELDS) + "\n1,1,1,1,2,2,0.5\n")
    @example(text=json.dumps({name: 10 ** 400 for name in CSV_FIELDS}))
    @example(text=_NESTED_JSON)
    @example(text=REFERENCE_MEASUREMENTS.to_csv().replace("18.41", "18_41"))
    @example(text="[" * 200_000)
    def test_reconstruct_file(self, fuzz_dir, text):
        path = fuzz_dir / "measurements"
        path.write_text(text)
        assert_exit_contract(["reconstruct", "--in", str(path)])


def run_module(*argv):
    """``python -m cvsteer.cli`` in a subprocess that imports the cvsteer under test."""
    src = os.path.dirname(os.path.dirname(cvsteer.reference.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cvsteer.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


class TestInstalledEntryPoint:
    def test_repro_runs_as_subprocess(self):
        proc = run_module("repro")
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_warnings_are_one_line_each(self, capsys):
        # 3 samples per setting reconstruct an unphysical campaign: PhysicalityWarning
        proc = run_module("repro", "--n", "3", "--seed", "1")
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert ".py:" not in proc.stderr
        assert proc.stdout == run(capsys, "repro", "--n", "3", "--seed", "1")[1]

    @pytest.mark.parametrize("argv", [["simulate", "--r1", "800"], ["repro", "--perturb=-1"],
                                      ["simulate", "--r1", "abc"], ["simulate", "--bogus"],
                                      ["nosuch"], [], ["simulate", "--r1"],
                                      ["simulate", "--r1=1_0"]])
    def test_input_errors_exit_2_without_traceback(self, argv):
        proc = run_module(*argv)
        assert_input_error(proc.returncode, proc.stderr)
        assert proc.stdout == "" and proc.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("rel", [0.01, 0.05])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_hand_expanded_formula(self, rel, seed):
        # The study rounds Cov X as reconstruct does, the formula as 0.5 * (xa + xb - xd).
        # Each product's X factor cancels terms about 350 times its size on the
        # reference set, so the tolerance is 1e-14 relative to those cancelled terms.
        xa, _, xb, _, xd, _ = REFERENCE_MEASUREMENTS.values()
        cov_x = 0.5 * (xa + xb - xd)
        gx = cov_x / xa
        terms = xb + gx * gx * xa + 2.0 * abs(gx * cov_x)
        cancelled = terms / (xb + gx * gx * xa - 2.0 * gx * cov_x)
        new = perturbation_study(REFERENCE_MEASUREMENTS, rel, n_trials=200, seed=seed)
        old = reference_perturbation_study(REFERENCE_MEASUREMENTS, rel, n_trials=200, seed=seed)
        assert set(new) == set(old)
        for key in ("mean", "std", "q05", "q95"):
            assert new[key] == pytest.approx(old[key], rel=1e-14 * cancelled, abs=0.0)
        for key in ("relative_error", "n_trials", "seed", "fraction_within_0.005"):
            assert new[key] == old[key]

    def test_scales_linearly_with_relative_error(self):
        lo = perturbation_study(REFERENCE_MEASUREMENTS, 0.01, n_trials=400, seed=2)
        hi = perturbation_study(REFERENCE_MEASUREMENTS, 0.05, n_trials=400, seed=2)
        assert hi["std"] / lo["std"] == pytest.approx(5.0, rel=0.1)
