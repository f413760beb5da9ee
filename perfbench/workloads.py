"""The four closed-loop workloads.

Each workload makes its inputs from the seed when constructed, runs one op
per call of :meth:`op` (op 0 is the untimed warm-up) and judges an op's
output with :meth:`check`, which uses only :mod:`oracles` and never cvsteer.
:meth:`ops_for` sets how many ops a run does: the workload's nominal rate on
a 2-vCPU host times the run's seconds.
``make_set`` is the constructor the benchmark calls for measurement sets, so
a traced run can time those calls.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from cvsteer import criteria, gaussian, loss_model, reconstruction, reference, sampler

import oracles

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def latin_hypercube(rng, n: int, dims: int, block: int) -> np.ndarray:
    """Points in [0, 1)^dims, stratified within each consecutive block of rows.

    Any run covers the parameter ranges evenly after a few blocks, so the
    cost per op varies less from seed to seed than with independent draws.
    """
    out = np.empty((n, dims))
    for start in range(0, n, block):
        m = min(block, n - start)
        for d in range(dims):
            out[start:start + m, d] = (rng.permutation(m) + rng.random(m)) / m
    return out


class Workload:
    name = ""
    min_pass_frac = 1.0   # share of checked ops whose output must match the oracle
    keep_outputs = False  # whether counters() needs the passed outputs
    OPS_PER_S = 1.0       # nominal rate, which sets a run's op count
    CYCLE = 1             # ops in one round of the workload's input pattern

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.make_set = reconstruction.MeasurementSet

    def ops_for(self, seconds: float) -> int:
        """A whole number of input rounds in each half of the run."""
        block = 2 * self.CYCLE
        return max(1, math.ceil(self.OPS_PER_S * seconds / block)) * block

    def span_name(self, i: int) -> str:
        return f"op.{self.name}"

    def counters(self, outputs: list, attempted: int) -> dict:
        """Per-layer values read off the (op index, output) pairs of one phase."""
        return {}


class Closure(Workload):
    """Sampled campaign closure: one op is one seed of ``cvsteer repro --n 1e6
    --dark-noise-db 22`` in-process, clean and dark."""

    name = "closure"
    min_pass_frac = oracles.CLOSURE_PASS_FRAC
    OPS_PER_S = 2.5
    N = 10 ** 6
    DARK_DB = reference.DARK_NOISE_CLEARANCE_DB

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.state = reference.reference_state()
        m = np.array(reference.REFERENCE_COVARIANCE, dtype=float)
        self.dark = oracles.db_to_variance(self.DARK_DB)
        # Dark noise adds its variance to each detector; the joint settings
        # cancel it in the covariances, so the reconstruction sees m + dark * I.
        self.truth = (oracles.criteria_of_matrix(m),
                      oracles.criteria_of_matrix(m + self.dark * np.eye(4)))

    def op(self, i):
        out = []
        for dark in (0.0, self.dark):
            ms = sampler.measure_campaign(self.state, self.N, self.seed * 1_000_000 + i, dark)
            rep = criteria.criteria_report(reconstruction.reconstruct(ms))
            out.append((rep.reid_b_given_a, rep.reid_a_given_b, rep.duan_sum))
        return out

    def check(self, i, out):
        miss = max(oracles.closure_miss(v, t) for v, t in zip(out, self.truth))
        if miss > oracles.CLOSURE_TOL:
            return f"sampled criteria off by {miss:.4%} (> {oracles.CLOSURE_TOL:.0%})"
        return None

    def corrupt(self, out):
        (ba, ab, duan), dark = out
        return [(ba * 1.05, ab, duan), dark]


class FitSweep(Workload):
    """Loss-model fits over truth states; every second op jitters the six values by 1%."""

    name = "fit_sweep"
    keep_outputs = True
    OPS_PER_S = 12.0  # about 20-25 s a run
    CYCLE = 2   # clean, jittered
    STATES = 2048
    JITTER = 0.01

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        u = latin_hypercube(rng, self.STATES, 3, block=32)
        self.r = (0.5 + 1.8 * u[:, :2]).tolist()
        self.eta = (0.75 + 0.25 * u[:, 2]).tolist()
        self.jitter = (1.0 + self.JITTER * rng.standard_normal((self.STATES, 6))).tolist()

    def op(self, i):
        k = i % self.STATES
        params = gaussian.SourceParams(r1=self.r[k][0], r2=self.r[k][1], eta_prep=self.eta[k])
        ms = reconstruction.expected_measurements(gaussian.build_epr_source(params))
        if i % 2:
            ms = self.make_set(*[v * z for v, z in zip(ms.values(), self.jitter[k])],
                               relative_error=self.JITTER)
        fit = loss_model.fit_efficiency(reconstruction.reconstruct(ms))
        return fit.xi, fit.converged, fit.iterations

    def check(self, i, out):
        if i % 2:
            return None  # no exact truth under jitter; only exceptions count
        return oracles.fit_mismatch(out[0], out[1], self.eta[i % self.STATES])

    def corrupt(self, out):
        return out[0] + 0.05, out[1], out[2]

    def counters(self, outputs, attempted):
        recovered = sum(abs(o[0] - self.eta[i % self.STATES]) <= oracles.FIT_XI_TOL
                        for i, o in outputs)
        return {"loss_model.iterations": float(np.median([o[2] for _, o in outputs]))
                if outputs else 0.0,
                "loss_model.recovered_frac": recovered / attempted,
                "loss_model.not_converged": sum(not o[1] for _, o in outputs)}


class AnalyzeBatch(Workload):
    """Measurement set -> reconstruct -> propagate_errors -> criteria_report."""

    name = "analyze_batch"
    OPS_PER_S = 11000.0  # about 25 s a run: its host-normalised times spread most
    STATES = 512
    SETS = 250_000   # more than a 30 s run uses; ops wrap around past the end
    LEVELS = (0.005, 0.01, 0.05)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        base = np.empty((self.STATES, 6))
        for k in range(self.STATES):
            r1, r2 = rng.uniform(0.0, 2.3, 2)
            eta = rng.uniform(0.5, 1.0, 3)
            params = gaussian.SourceParams(r1=r1, r2=r2, eta_prep=eta[0], eta_det_a=eta[1],
                                           eta_det_b=eta[2], dark_noise=rng.uniform(0.0, 0.01))
            base[k] = reconstruction.expected_measurements(gaussian.build_epr_source(params)).values()
        level = np.array(self.LEVELS)[rng.integers(0, len(self.LEVELS), self.SETS)]
        self.values = base[rng.integers(0, self.STATES, self.SETS)]
        self.values *= 1.0 + level[:, None] * rng.standard_normal((self.SETS, 6))
        self.level = level.tolist()

    def op(self, i):
        k = i % self.SETS
        ms = self.make_set(*self.values[k].tolist(), relative_error=self.level[k])
        state = reconstruction.reconstruct(ms)
        reconstruction.propagate_errors(ms)
        rep = criteria.criteria_report(state)
        cond = rep.conditional_variances
        return (float(state.entries[0, 2]), float(state.entries[1, 3]),
                cond["x_b_given_a"], cond["p_b_given_a"], cond["x_a_given_b"],
                cond["p_a_given_b"], rep.duan_sum)

    def check(self, i, out):
        got = dict(zip(("cov_x", "cov_p", "x_b_given_a", "p_b_given_a", "x_a_given_b",
                        "p_a_given_b", "duan_sum"), out))
        return oracles.analyze_mismatch(self.values[i % self.SETS].tolist(), got)

    def corrupt(self, out):
        return out[:-1] + (out[-1] * (1.0 + 1e-9),)


class CliCold(Workload):
    """One ``python -m cvsteer.cli`` subprocess per op, cycling through five commands."""

    name = "cli_cold"
    OPS_PER_S = 1.0
    COMMANDS = ("simulate", "analyze", "reconstruct", "fit", "repro")
    CYCLE = len(COMMANDS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 4])
        r1, r2 = rng.uniform(0.5, 2.3, 2).tolist()
        eta_prep, eta_a, eta_b = rng.uniform(0.75, 0.95, 3).tolist()
        params = {"r1": r1, "r2": r2, "eta_prep": eta_prep, "eta_det_a": eta_a,
                  "eta_det_b": eta_b, "dark_noise": float(rng.uniform(0.0, 0.01))}
        state = gaussian.build_epr_source(gaussian.SourceParams.from_dict(params))
        ms = reconstruction.expected_measurements(state, relative_error=0.01)
        fit_in = reconstruction.reconstruct(reconstruction.expected_measurements(
            gaussian.build_epr_source(gaussian.SourceParams(r1=r1, r2=r2, eta_prep=eta_prep))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", reconstruction.PhysicalityWarning)
            rec = reconstruction.reconstruct(ms)
        rec_payload = rec.to_dict()
        rec_payload["uncertainties"] = reconstruction.propagate_errors(ms).tolist()
        rec_payload["warnings"] = [str(w.message) for w in caught
                                   if issubclass(w.category, reconstruction.PhysicalityWarning)]
        inputs = {"simulate": params, "analyze": state.to_dict(),
                  "reconstruct": ms.to_dict(), "fit": fit_in.to_dict()}
        self.inputs = {}
        for cmd, payload in inputs.items():
            path = workdir / f"{cmd}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            self.inputs[cmd] = path
        expected = {"simulate": state.to_dict(),
                    "analyze": criteria.criteria_report(state).to_dict(),
                    "reconstruct": rec_payload,
                    "fit": loss_model.fit_efficiency(fit_in).to_dict()}
        self.expected = {k: json.loads(json.dumps(v)) for k, v in expected.items()}
        self.env = child_env()
        self.peak_rss_kb = 0

    def span_name(self, i):
        return f"cli.{self.COMMANDS[i % len(self.COMMANDS)]}"

    def op(self, i):
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        argv = [sys.executable, "-m", "cvsteer.cli", cmd]
        if cmd in self.inputs:
            argv += ["--in", str(self.inputs[cmd])]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                # wait4 rather than wait: it also gives this child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return cmd, proc.returncode, out_path.read_text(), err_path.read_text()

    def check(self, i, out):
        cmd, code, stdout, stderr = out
        if code != 0:
            return f"{cmd}: exit code {code}: {stderr.strip()[-200:]}"
        if cmd == "repro":
            last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            return None if last == "11/11 checks passed" else f"repro: last line {last!r}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{cmd}: stdout is not JSON ({exc})"
        return None if got == self.expected[cmd] else f"{cmd}: stdout differs from the library result"

    def corrupt(self, out):
        cmd, code, stdout, stderr = out
        return cmd, code, stdout.replace("1", "2"), stderr


WORKLOADS = {w.name: w for w in (Closure, FitSweep, AnalyzeBatch, CliCold)}
