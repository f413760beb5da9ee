"""Measurements taken in child interpreters, and the ROADMAP baseline check."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, child_env

BASELINE_FILE = Path(__file__).resolve().parent / "roadmap_baseline.json"
CHILD_TIMEOUT_S = 120


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter start -> import cvsteer -> inputs -> one warm-up op.

    The child prints CLOCK_MONOTONIC when its warm-up op returns, so its
    interpreter teardown is not counted.
    """
    start = time.monotonic_ns()
    done = _run([sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)])
    return (int(done.stdout.split()[-1]) - start) / 1e9


def import_times_ms(repeats: int = 3) -> dict:
    """Median cumulative import times from ``python -X importtime -c 'import cvsteer'``."""
    wanted = {"cvsteer": "cli.import_cvsteer_ms", "scipy.optimize": "cli.import_scipy_optimize_ms",
              "numpy": "cli.import_numpy_ms"}
    samples = {name: [] for name in wanted.values()}
    for _ in range(repeats):
        err = _run([sys.executable, "-X", "importtime", "-c", "import cvsteer"]).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) for name, v in samples.items()}


def interpreter_ms(repeats: int = 5) -> float:
    """Wall time of ``python -c pass``: the start-up floor that is not cvsteer's."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        _run([sys.executable, "-c", "pass"])
        walls.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(walls)


def import_wall_ms(repeats: int = 3) -> float:
    """In-interpreter wall time of ``import cvsteer``, without importtime's own cost."""
    code = ("import time; t = time.perf_counter(); import cvsteer; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_run([sys.executable, "-c", code]).stdout) * 1000.0
                             for _ in range(repeats))


def _mean_time(fn, min_seconds: float = 0.2, min_loops: int = 2) -> float:
    """Mean wall seconds per call over at least min_loops calls and min_seconds."""
    loops, start = 0, time.perf_counter()
    while loops < min_loops or time.perf_counter() - start < min_seconds:
        fn()
        loops += 1
    return (time.perf_counter() - start) / loops


def baseline_rows() -> list[dict]:
    """Re-measure the ROADMAP table on its own inputs and state each difference."""
    from cvsteer import criteria, gaussian, loss_model, reconstruction, reference, sampler

    table = json.loads(BASELINE_FILE.read_text())["reference"]
    state = reference.reference_state()
    entries = reference.REFERENCE_COVARIANCE
    dark = 10 ** (-reference.DARK_NOISE_CLEARANCE_DB / 10)
    params = gaussian.SourceParams(r1=1.15, r2=1.15, eta_prep=0.95, eta_det_a=0.97,
                                   eta_det_b=0.97, dark_noise=dark)
    scale = {"us": 1e6, "ms": 1e3}
    timers = {
        "CovarianceMatrix": lambda: gaussian.CovarianceMatrix(n_modes=2, entries=entries),
        "build_epr_source": lambda: gaussian.build_epr_source(params),
        "criteria_report": lambda: criteria.criteria_report(state),
        "reconstruct": lambda: reconstruction.reconstruct(reference.REFERENCE_MEASUREMENTS),
        "fit_efficiency": lambda: loss_model.fit_efficiency(state),
        "measure_campaign_1e6": lambda: sampler.measure_campaign(state, 10 ** 6, 0),
        "measure_campaign_1e6_dark": lambda: sampler.measure_campaign(state, 10 ** 6, 0, dark),
    }
    measured = {name: _mean_time(fn) * scale[table[name]["unit"]] for name, fn in timers.items()}
    measured["import_cvsteer"] = import_wall_ms()
    rows = []
    for name, ref in table.items():
        value = measured[name]
        rows.append({"name": name, "unit": ref["unit"], "roadmap": ref["value"],
                     "measured": value, "diff_frac": value / ref["value"] - 1.0})
    return rows
