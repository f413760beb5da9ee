#!/usr/bin/env python3
"""cvsteer benchmark: closed-loop workloads, each op checked by an oracle.

Run from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0

``--workload`` is one of closure, fit_sweep, analyze_batch, cli_cold, or
``all`` to run the four in turn.  One client runs ops back to back in this
process.  A run does a fixed number of ops, the workload's nominal rate times
``--seconds``, so the same seed gives the same ops and the same attempted and
failed counts on every run; how long it takes is what is measured.  With
``--trace 0`` the run reports the end-to-end metrics.  Their times are
divided by the host factor of :mod:`calibration`, so they read as on the
reference host; the raw times are printed beside them.  With ``--trace 1`` it
runs half the ops untraced and half traced.  It then reports the per-layer
metrics and the tracing overhead, and re-measures the ROADMAP baseline table.
Spans go to ``.bench_out/traces/``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

An op that raises ``InconsistentDataError`` is an analysis rejection.  An op
that raises anything else, or whose output its oracle rejects, is a failed
op.
"""

from __future__ import annotations

import argparse
import array
import collections
import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
SETUP_REPEATS = 5
SETUP_CALIBRATIONS = 10         # calibration kernels timed after each set-up probe
CALIBRATE_EVERY_NS = 50_000_000  # ... and after the first op past each 50 ms of ops
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
WINDOWS = 10
MAX_GROUPS = 1000


def _cap_blas_threads() -> tuple[int, int]:
    """One BLAS thread; children inherit the environment.

    A second thread gave the sampler no speed-up on a 2-vCPU host, but kept
    the other vCPU busy, so ops and calibration kernels contended for it.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)), 1


# Must run before numpy is first imported.
NPROC, BLAS_THREADS = _cap_blas_threads()

import calibration  # noqa: E402  (imports numpy)


class Phase:
    """Outcome of one timed closed loop."""

    def __init__(self, keep_outputs: bool = False):
        self.keep_outputs = keep_outputs
        self.op_ns = array.array("q")   # latency per op
        self.ends = array.array("q")    # ns since the start of timing, per op
        self.done = bytearray()         # 1 per op that did not fail
        self.cal = array.array("q")     # ns per calibration kernel run between ops
        self.cal_at = array.array("q")  # ops done before each calibration
        self.outputs: list[tuple[int, object]] = []   # passed (op, output), if kept
        self.sample = None            # the first passed (op, output)
        self.errors: collections.Counter = collections.Counter()
        self.mismatches: collections.Counter = collections.Counter()
        self.attempted = self.checked = self.passed = self.rejected = self.warned = 0
        self.wall_s = 0.0
        self.next_op = 0

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.mismatches.values())

    @property
    def lat(self) -> list[int]:
        """Latency (ns) of every op that did not fail."""
        return [ns for ns, ok in zip(self.op_ns, self.done) if ok]

    def windows(self, normalise: bool) -> list[tuple[int, int, float]]:
        """(first op, end op, host factor) of WINDOWS consecutive, equal-count
        groups of ops.

        The factor is that of the calibrations run within the group, which
        follows the host's drift more closely than one factor for the run.
        It is 1 if ``normalise`` is false.
        """
        n = len(self.ends)
        k = min(WINDOWS, n)
        out = []
        for w in range(k):
            a, b = w * n // k, (w + 1) * n // k
            cal = [c for c, at in zip(self.cal, self.cal_at) if a < at <= b]
            out.append((a, b, calibration.host_factor(cal or self.cal) if normalise else 1.0))
        return out

    def ops_per_s(self, normalise: bool = False) -> float:
        """Median over the windows of a window's completed ops / its timed
        wall seconds, times its host factor.

        A rare op that takes seconds (a fit that runs to its evaluation cap)
        then moves one window, not the whole run.
        """
        rates = []
        for a, b, host in self.windows(normalise):
            wall_ns = self.ends[b - 1] - (self.ends[a - 1] if a else 0)
            rates.append(sum(self.done[a:b]) / wall_ns * 1e9 * host)
        return statistics.median(rates)

    def p50_ms(self, normalise: bool = False) -> float:
        """Median latency of the ops that did not fail, each divided by the
        host factor of its window.

        Past MAX_GROUPS ops it is the median over groups of consecutive ops of
        a group's mean latency.  analyze_batch's 100 us ops fall in several
        modes, and its plain median moved between them from run to run (30%
        of its value), twice as much as its mean did.
        """
        lat = [self.op_ns[j] / host for a, b, host in self.windows(normalise)
               for j in range(a, b) if self.done[j]]
        g = math.ceil(len(lat) / MAX_GROUPS)
        return statistics.median(statistics.fmean(lat[k:k + g])
                                 for k in range(0, len(lat), g)) / 1e6

    def group_size(self) -> int:
        return math.ceil(sum(self.done) / MAX_GROUPS)

    def overall_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s

    def error_count(self, text: str) -> int:
        return sum(n for key, n in self.errors.items() if text in key)

    def record(self, wl, i: int, out, quiet: bool = False) -> bool:
        """Judge one returned output; one the oracle rejects is a failed op."""
        self.checked += 1
        problem = wl.check(i, out)
        if problem is None:
            self.passed += 1
            if self.sample is None:
                self.sample = (i, out)
            if self.keep_outputs:
                self.outputs.append((i, out))
            return True
        if problem not in self.mismatches and not quiet:
            print(f"# op {i} output rejected by the oracle: {problem}", file=sys.stderr)
        self.mismatches[problem] += 1
        return False

    def correct(self, wl) -> bool:
        return self.checked > 0 and self.passed >= wl.min_pass_frac * self.checked


def _error_key(exc: Exception) -> str:
    return f"{type(exc).__name__}: " + re.sub(r"\d[\d.eE+-]*", "#", str(exc))[:120]


def measure(wl, n_ops: int, first_op: int, tracer=None) -> Phase:
    """Run ops ``first_op`` .. ``first_op + n_ops - 1`` back to back.

    Each output is checked as soon as its op returns, and the calibration
    kernel is timed after the first op and then after every CALIBRATE_EVERY_NS
    of ops.  The clock is paused for both, so they cost no throughput.
    """
    from cvsteer.reconstruction import InconsistentDataError, PhysicalityWarning

    phase = Phase(keep_outputs=wl.keep_outputs)
    show = warnings.showwarning

    def count_warning(message, category, *args, **kwargs):
        if issubclass(category, PhysicalityWarning):
            phase.warned += 1
        else:
            show(message, category, *args, **kwargs)

    rejected = object()
    paused = 0
    last_cal = -CALIBRATE_EVERY_NS
    gc.collect()
    with warnings.catch_warnings():
        warnings.simplefilter("always", PhysicalityWarning)
        warnings.showwarning = count_warning
        start = time.perf_counter_ns()
        for i in range(first_op, first_op + n_ops):
            root = tracer.begin(wl.span_name(i), i) if tracer else -1
            t0 = time.perf_counter_ns()
            try:
                out = wl.op(i)
            except InconsistentDataError:
                out = rejected
            except Exception as exc:  # any other exception is a failed op; keep measuring
                key = _error_key(exc)
                if key not in phase.errors:
                    print(f"# op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                phase.errors[key] += 1
                out = None
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.end(root)
            phase.ends.append(t1 - paused - start)
            phase.op_ns.append(t1 - t0)
            if out is rejected:
                phase.rejected += 1
                phase.done.append(1)
            elif out is not None:
                phase.done.append(phase.record(wl, i, out))
            else:
                phase.done.append(0)
            if t1 - paused - last_cal >= CALIBRATE_EVERY_NS:
                last_cal = t1 - paused
                phase.cal.append(calibration.time_ns())
                phase.cal_at.append(len(phase.ends))
            paused += time.perf_counter_ns() - t1
    phase.wall_s = phase.ends[-1] / 1e9
    phase.attempted = n_ops
    phase.next_op = first_op + n_ops
    return phase


def self_check(wl, sample) -> bool:
    """The accounting must pass a good output and count a corrupted one as failed."""
    i, out = sample
    good, bad = Phase(), Phase()
    good.record(wl, i, out, quiet=True)
    bad.record(wl, i, wl.corrupt(out), quiet=True)
    return good.failed == 0 and bad.failed == 1


def tail(lat_ns: list[int]) -> tuple[float, float, int]:
    """(value ms, percentile, samples beyond it) for the highest ladder
    percentile with at least TAIL_BEYOND samples above it, else the median."""
    ordered = sorted(lat_ns)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(math.ceil(pct / 100.0 * n), 1)
        if n - rank >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            return ordered[rank - 1] / 1e6, pct, n - rank
    raise AssertionError("TAIL_LADDER is empty")


def median_ms(durs_ns) -> float:
    return statistics.median(durs_ns) / 1e6 if durs_ns else 0.0


def environment(args) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC, "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def warm_up(wl):
    """One untimed op, so lazy imports and caches land in set-up."""
    try:
        return 0, wl.op(0)
    except ValueError:   # a known defect on this input; set-up still ends here
        return None


def end_to_end(wl, phase: Phase, setups: list[float], setup_host: float) -> tuple[dict, dict]:
    """The end-to-end metrics, plus a note on how each was taken.

    Times are divided by host factors (per window of the timed loop, and
    ``setup_host`` for set-up), so they read as on the reference host; the
    notes give the raw values.
    """
    if hasattr(wl, "peak_rss_kb"):
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {"ops_per_s": phase.ops_per_s(), "latency_p50_ms": phase.p50_ms(),
           "setup_s": statistics.median(setups)}
    values = {"ops_per_s": phase.ops_per_s(normalise=True),
              "latency_p50_ms": phase.p50_ms(normalise=True),
              "setup_s": raw["setup_s"] / setup_host,
              "peak_rss_mb": rss_kb / 1024.0}
    notes = {"ops_per_s": f"raw {raw['ops_per_s']:.6g}, median of "
                          f"{min(WINDOWS, phase.attempted)} windows; "
                          f"{phase.overall_ops_per_s():.6g} over the whole run",
             "latency_p50_ms": f"raw {raw['latency_p50_ms']:.6g}, median of "
                               f"{phase.group_size()}-op means",
             "setup_s": f"raw {raw['setup_s']:.6g}, median of "
                        + ", ".join(f"{s:.3f}" for s in setups),
             "peak_rss_mb": "largest child" if hasattr(wl, "peak_rss_kb") else "this process"}
    return values, notes


def tail_note(lat) -> str:
    value, pct, beyond = tail(lat)
    return f"{value:.6g} ms, p{pct:g} of {len(lat)} ops, {beyond} beyond"


def per_layer(wl, phase: Phase, untraced: Phase, stats: dict, probes: dict,
              overhead: float) -> dict:
    def layer(name):
        return stats.get(name, {"calls": 0, "items": 0, "busy_ns": 0, "self_ns": 0, "durs": []})

    # Too unsteady on a shared host to gate on, so it is reported here, from
    # the untraced half of the run.
    m = {"latency_tail_ms": tail(untraced.lat)[0]}
    for name, p50_unit in (("sampler.measure_campaign", "ms"),
                           ("loss_model.fit_efficiency", "ms"),
                           ("gaussian.build_epr_source", "us"),
                           ("reconstruction.reconstruct", "us"),
                           ("criteria.criteria_report", "us")):
        s = layer(name)
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.busy_ms"] = s["busy_ns"] / 1e6
        m[f"{name}.p50_{p50_unit}"] = median_ms(s["durs"]) * (1e3 if p50_unit == "us" else 1.0)
    m["loss_model.fit_efficiency.self_ms"] = layer("loss_model.fit_efficiency")["self_ns"] / 1e6
    dark = layer("sampler.measure_campaign_dark")
    m["sampler.measure_campaign_dark.busy_ms"] = dark["busy_ns"] / 1e6
    clean = layer("sampler.measure_campaign")
    sampler_ns = clean["busy_ns"] + dark["busy_ns"]
    m["sampler.samples_per_s"] = (clean["items"] + dark["items"]) / (sampler_ns / 1e9) \
        if sampler_ns else 0.0
    m["loss_model.iterations"] = 0.0
    m["loss_model.recovered_frac"] = 0.0
    m["loss_model.not_converged"] = 0
    m.update(wl.counters(phase.outputs, phase.attempted))
    m["loss_model.rejected"] = phase.error_count("fit_efficiency:")
    m["reconstruction.measurement_set.busy_ms"] = \
        layer("reconstruction.measurement_set")["busy_ns"] / 1e6
    m["reconstruction.propagate_errors.busy_ms"] = \
        layer("reconstruction.propagate_errors")["busy_ns"] / 1e6
    m["reconstruction.rejected"] = phase.rejected
    m["reconstruction.unphysical_warned"] = phase.warned
    m["reconstruction.not_pd"] = phase.error_count("not positive definite")
    from workloads import CliCold
    for cmd in CliCold.COMMANDS:
        m[f"cli.{cmd}.wall_ms"] = median_ms(layer(f"cli.{cmd}")["durs"])
    m.update(probes)
    m["trace.overhead_frac"] = overhead
    return m


def run_workload(args, name: str) -> dict:
    import probes
    from cvsteer.reconstruction import MeasurementSet
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"{name}-{args.seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[name](args.seed, workdir)
        sample = warm_up(wl)
        n_ops = wl.ops_for(args.seconds)
        if args.trace:
            untraced = measure(wl, n_ops // 2, first_op=1)
            tracer = Tracer()
            tracer.install()
            wl.make_set = tracer.wrap(MeasurementSet, "reconstruction.measurement_set")
            try:
                phase = measure(wl, n_ops - n_ops // 2, untraced.next_op, tracer)
            finally:
                tracer.restore()
                wl.make_set = MeasurementSet
            phases = [untraced, phase]
        else:
            setups, setup_cal = [], []
            for _ in range(SETUP_REPEATS):
                setups.append(probes.setup_seconds(name, args.seed))
                setup_cal += [calibration.time_ns() for _ in range(SETUP_CALIBRATIONS)]
            phase = measure(wl, n_ops, first_op=1)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sample = sample or phase.sample
    checks_ok = sample is not None and self_check(wl, sample)
    correct = checks_ok and all(p.correct(wl) for p in phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"== {name} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"self-check {'ok' if checks_ok else 'FAILED'}, outputs "
          f"{'correct' if correct else 'NOT correct'}")
    kinds = sum((p.errors + p.mismatches for p in phases), collections.Counter())
    for key, count in sorted(kinds.items()):
        print(f"   failed x{count}: {key}")

    if not args.trace:
        setup_host = calibration.host_factor(setup_cal)
        print(f"   host factor {calibration.host_factor(phase.cal):.4f} in the timed loop "
              f"({len(phase.cal)} calibrations), {setup_host:.4f} in set-up "
              f"({len(setup_cal)}); the reference kernel takes "
              f"{calibration.REFERENCE_NS / 1e6:.4g} ms")
        metrics, notes = end_to_end(wl, phase, setups, setup_host)
        for metric, value in metrics.items():
            print(f"   {metric:<17} {value:>14.6g} {UNITS[metric]:<4} {notes.get(metric, '')}")
        print(f"   {'failed_frac':<17} {failed / attempted:>14.6g} {'frac':<4} "
              f"{failed} of {attempted} ops; {phase.rejected} rejected as inconsistent")
        print(f"   {'latency_tail':<17} {tail_note(phase.lat)} (not gated)")
    else:
        import_ms = probes.import_times_ms()
        import_ms["cli.interpreter_ms"] = probes.interpreter_ms()
        overhead = 1.0 - phase.ops_per_s(normalise=True) / untraced.ops_per_s(normalise=True)
        stats = tracer.layer_stats()
        metrics = per_layer(wl, phase, untraced, stats, import_ms, overhead)
        for metric, value in metrics.items():
            print(f"   {metric:<42} {value:>14.6g}")
        print(f"   latency_tail_ms is {tail_note(untraced.lat)} of the untraced half")
        print("   self time per span (ms): " + ", ".join(
            f"{k} {v['self_ns'] / 1e6:.1f}" for k, v in sorted(stats.items())))
        rows = probes.baseline_rows()
        print("   ROADMAP baseline, re-measured on its own inputs (mean over loops):")
        for r in rows:
            print(f"     {r['name']:<26} {r['measured']:>9.1f} {r['unit']:<2} vs "
                  f"{r['roadmap']:>6.0f} {r['unit']:<2} ({r['diff_frac']:+.0%})")
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{name}-seed{args.seed}.json.gz",
                    {"workload": name, "env": environment(args), "per_layer": metrics,
                     "baseline": rows})
    declared = [m["name"] for m in MANIFEST["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared}}


def setup_probe(args) -> int:
    """Child side of the setup_s measurement: set up, warm up, print the clock."""
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"probe-{os.getpid()}"
    try:
        warm_up(WORKLOADS[args.workload](args.seed, workdir))
        print(time.monotonic_ns())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    names = ("closure", "fit_sweep", "analyze_batch", "cli_cold")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cvsteer" / "__init__.py").is_file():
        print(f"error: no cvsteer sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.workload != "all":
        result = run_workload(args, args.workload)
    else:
        results = {name: run_workload(args, name) for name in names}
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
