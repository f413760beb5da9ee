"""Command-line surface: simulate, analyze, sample, reconstruct, fit, repro.

Exit codes: 0 on success, 1 on analysis or tolerance failures, 2 on input
errors.  All JSON output uses Python's round-trip-exact float repr, so
identical inputs and seeds give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from .criteria import GainPair, criteria_report, optimal_gain, reid_product
from .gaussian import CovarianceMatrix, SourceParams, build_epr_source
from .loss_model import (
    budget_prep_efficiency,
    db_to_variance,
    efficiency_decomposition,
    fit_efficiency,
)
from .reconstruction import (
    InconsistentDataError,
    MeasurementSet,
    PhysicalityWarning,
    propagate_errors,
    reconstruct,
)
from .sampler import campaign_batches, measure_campaign, samples_to_csv
from . import reference


def _write_text(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out_path: str | None):
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_state(path: str) -> CovarianceMatrix:
    return CovarianceMatrix.from_dict(_load_json(path))


def _load_measurements(path: str) -> MeasurementSet:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return MeasurementSet.from_dict(json.loads(text))
    return MeasurementSet.from_csv(text)


def _parse_gains(text: str) -> GainPair | str:
    if text == "optimal":
        return "optimal"
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--gains expects 'gx,gp' or 'optimal', got {text!r}")
    return GainPair(float(parts[0]), float(parts[1]))


def cmd_simulate(args) -> int:
    params_dict = {}
    if args.in_path:
        params_dict = _load_json(args.in_path)
        if not isinstance(params_dict, dict):
            raise ValueError("simulate: params file must hold a JSON object")
    for name in ("r1", "r2", "relative_phase", "transmittance",
                 "eta_prep", "eta_det_a", "eta_det_b"):
        val = getattr(args, name)
        if val is not None:
            params_dict[name] = val
    if args.dark_noise_db is not None:
        params_dict["dark_noise"] = db_to_variance(args.dark_noise_db)
    params = SourceParams.from_dict(params_dict)
    state = build_epr_source(params)
    _write_json(state.to_dict(), args.out_path)
    return 0


def cmd_analyze(args) -> int:
    state = _load_state(args.in_path)
    report = criteria_report(state)
    _write_json(report.to_dict(), args.out_path)
    if args.gains is not None:
        gains = _parse_gains(args.gains)
        value = reid_product(state, "b|a", gains)
        label = "optimal" if gains == "optimal" else f"({gains.g_x:g}, {gains.g_p:g})"
        print(f"# reid product B|A at gains {label}: {value!r}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    state = _load_state(args.in_path)
    dark = db_to_variance(args.dark_noise_db) if args.dark_noise_db is not None else 0.0
    if args.format == "csv":
        batches = campaign_batches(state, args.n, args.seed, dark)
        _write_text(samples_to_csv(batches), args.out_path)
    else:
        ms = measure_campaign(state, args.n, args.seed, dark)
        _write_json(ms.to_dict(), args.out_path)
    return 0


def cmd_reconstruct(args) -> int:
    ms = _load_measurements(args.in_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PhysicalityWarning)
        state = reconstruct(ms)
    payload = state.to_dict()
    payload["uncertainties"] = propagate_errors(ms).tolist()
    payload["warnings"] = [str(w.message) for w in caught
                           if issubclass(w.category, PhysicalityWarning)]
    _write_json(payload, args.out_path)
    return 0


def cmd_fit(args) -> int:
    state = _load_state(args.in_path)
    fit = fit_efficiency(state)
    _write_json(fit.to_dict(), args.out_path)
    return 0 if fit.converged else 1


def perturbation_study(ms: MeasurementSet, relative_error: float | None = None,
                       n_trials: int = 200, seed: int = 0) -> dict:
    """Monte Carlo error band of the steering product under input jitter.

    Each trial multiplies the six measured variances by independent Gaussian
    factors (1 + rel * z) and re-evaluates the B|A product with the gains
    held at the unperturbed optimum, so the band measures the propagation of
    measurement error into the quoted value; re-optimizing gains per trial
    would instead fit the noise and bias the product downward.  At those
    fixed gains the product factors are linear in the inputs, making the
    spread an unbiased first-order error band.  An explicit relative_error
    is checked as MeasurementSet checks its own: it must lie in [0, 1).
    """
    if relative_error is not None:
        ms = dataclasses.replace(ms, relative_error=relative_error)
    rel = ms.relative_error
    base = reconstruct(ms)
    gx = optimal_gain(base, "x", "b|a")
    gp = optimal_gain(base, "p", "b|a")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    jitter = 1.0 + rel * rng.standard_normal((n_trials, 6))
    xa, pa, xb, pb, xd, ps = np.asarray(ms.values())[:, None] * jitter.T
    cov_x = 0.5 * (xa + xb - xd)
    cov_p = 0.5 * (ps - pa - pb)
    vx = xb + gx * gx * xa - 2.0 * gx * cov_x
    vp = pb + gp * gp * pa - 2.0 * gp * cov_p
    products = vx * vp
    return {
        "relative_error": rel,
        "n_trials": n_trials,
        "seed": seed,
        "mean": float(products.mean()),
        "std": float(products.std(ddof=1)),
        "q05": float(np.quantile(products, 0.05)),
        "q95": float(np.quantile(products, 0.95)),
        "fraction_within_0.005": float(np.mean(np.abs(products - reference.REID_B_GIVEN_A) <= 0.005)),
    }


def _repro_rows() -> tuple[list[dict], dict]:
    ms = reference.REFERENCE_MEASUREMENTS
    state = reconstruct(ms)
    report = criteria_report(state)
    fit = fit_efficiency(state)
    eta_budget = budget_prep_efficiency(
        reference.INTERNAL_LOSS, reference.PROPAGATION_LOSS, reference.FRINGE_VISIBILITY
    )

    def row(quantity, ref_value, computed, tol):
        delta = abs(computed - ref_value)
        return {
            "quantity": quantity,
            "reference": ref_value,
            "computed": computed,
            "delta": delta,
            "tolerance": tol,
            "passed": delta <= tol,
        }

    rows = [
        row("reid product B|A (optimal gains)", reference.REID_B_GIVEN_A,
            report.reid_b_given_a, reference.REID_TOL),
        row("reid product A|B (optimal gains)", reference.REID_A_GIVEN_B,
            report.reid_a_given_b, reference.REID_TOL),
        row("product at gains (1, -1)", reference.UNIT_GAIN_PRODUCT,
            report.unit_gain_product, reference.UNIT_GAIN_TOL),
        row("duan sum", reference.DUAN_SUM, report.duan_sum, reference.DUAN_TOL),
        row("optimal gain g_x (B|A)", reference.OPTIMAL_GAIN_X_B_GIVEN_A,
            report.optimal_gains_b_given_a.g_x, reference.OPTIMAL_GAIN_TOL),
        row("optimal gain g_p (B|A)", reference.OPTIMAL_GAIN_P_B_GIVEN_A,
            report.optimal_gains_b_given_a.g_p, reference.OPTIMAL_GAIN_TOL),
        row("conditional uncertainty ratio", reference.CONDITIONAL_UNCERTAINTY_RATIO,
            report.conditional_uncertainty_ratio, reference.CONDITIONAL_UNCERTAINTY_TOL),
        row("overall efficiency (loss fit)", reference.OVERALL_EFFICIENCY,
            fit.xi, reference.OVERALL_EFFICIENCY_TOL),
        row("preparation efficiency (loss budget)", reference.PREP_EFFICIENCY,
            eta_budget, reference.PREP_EFFICIENCY_TOL),
        row("detection efficiency (0.92 / 0.95)", reference.DETECTION_EFFICIENCY,
            efficiency_decomposition(reference.OVERALL_EFFICIENCY, reference.PREP_EFFICIENCY),
            reference.DETECTION_EFFICIENCY_TOL),
        row("detection efficiency (fit / budget)", reference.DETECTION_EFFICIENCY,
            efficiency_decomposition(fit.xi, eta_budget),
            reference.OVERALL_EFFICIENCY_TOL + reference.PREP_EFFICIENCY_TOL),
    ]
    context = {"state": state, "measurements": ms, "report": report, "fit": fit}
    return rows, context


def _info(quantity: str, computed: float) -> dict:
    return {"quantity": quantity, "reference": None, "computed": computed,
            "delta": None, "tolerance": None, "passed": None}


def cmd_repro(args) -> int:
    rows, context = _repro_rows()
    extras = []

    if args.n is not None or args.dark_noise_db is not None:
        n = args.n if args.n is not None else 1_000_000
        seed = args.seed if args.seed is not None else 0
        state = context["state"]
        base = criteria_report(reconstruct(measure_campaign(state, n, seed)))
        extras.append(_info(f"sampled reid B|A (n={n}, no dark noise)", base.reid_b_given_a))
        if args.dark_noise_db is not None:
            dark = db_to_variance(args.dark_noise_db)
            noisy = criteria_report(reconstruct(measure_campaign(state, n, seed, dark)))
            extras.append(_info(
                f"sampled reid B|A (n={n}, dark {args.dark_noise_db:g} dB)",
                noisy.reid_b_given_a))
            extras.append(_info("dark-noise shift of reid B|A",
                                noisy.reid_b_given_a - base.reid_b_given_a))

    if args.perturb is not None:
        seed = args.seed if args.seed is not None else 0
        study = perturbation_study(context["measurements"], args.perturb, seed=seed)
        half_width = study["std"]
        rows.append({
            "quantity": f"perturbation spread at {args.perturb:g} (1-sigma half-width)",
            "reference": 0.0,
            "computed": half_width,
            "delta": half_width,
            "tolerance": 0.01,
            "passed": half_width <= 0.01,
        })
        extras.append(_info("perturbation mean reid B|A", study["mean"]))
        extras.append(_info("perturbation fraction within +-0.005",
                            study["fraction_within_0.005"]))
        extras.append(_info("perturbation 5-95% band low", study["q05"]))
        extras.append(_info("perturbation 5-95% band high", study["q95"]))

    lines = []
    header = f"{'quantity':<46} {'reference':>10} {'computed':>10} {'|delta|':>9} {'tol':>7}  status"
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(
            f"{r['quantity']:<46} {r['reference']:>10.5f} {r['computed']:>10.5f} "
            f"{r['delta']:>9.5f} {r['tolerance']:>7.3f}  "
            f"{'PASS' if r['passed'] else 'FAIL'}"
        )
    for e in extras:
        lines.append(f"{e['quantity']:<46} {'-':>10} {e['computed']:>10.5f} "
                     f"{'-':>9} {'-':>7}  INFO")
    failures = [r for r in rows if not r["passed"]]
    lines.append("-" * len(header))
    lines.append(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    for r in failures:
        lines.append(f"FAILED: {r['quantity']} (|delta| = {r['delta']:.6f} > {r['tolerance']:.6f})")
    print("\n".join(lines))

    if args.out_path:
        _write_json({"rows": rows, "extras": extras, "passed": not failures}, args.out_path)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="Simulate, analyze and reproduce two-mode Gaussian steering experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_in=False):
        p.add_argument("--in", dest="in_path", required=need_in, metavar="PATH",
                       help="input file")
        p.add_argument("--out", dest="out_path", metavar="PATH",
                       help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="forward-model a source into a covariance matrix")
    add_io(p)
    for name in ("r1", "r2", "relative-phase", "transmittance",
                 "eta-prep", "eta-det-a", "eta-det-b"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float, default=None)
    p.add_argument("--dark-noise-db", type=float, default=None,
                   help="dark-noise clearance in dB below vacuum")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="evaluate steering and inseparability criteria")
    add_io(p, need_in=True)
    p.add_argument("--gains", default=None, metavar="GX,GP|optimal",
                   help="also report the B|A product at these gains (stderr note)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="run a seeded sampling campaign on a state")
    add_io(p, need_in=True)
    p.add_argument("--n", type=int, required=True,
                   help="samples per setting (at least 3; at least 2 with --format csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dark-noise-db", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json: campaign variances; csv: raw samples")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="covariance matrix from a measurement set")
    add_io(p, need_in=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fit", help="fit the loss model to a covariance matrix")
    add_io(p, need_in=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("repro", help="re-derive the built-in reference results")
    add_io(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="also run a sampled rerun with this many samples per setting "
                        "(at least 3)")
    p.add_argument("--dark-noise-db", type=float, default=None,
                   help="add detector dark noise to the sampled rerun")
    p.add_argument("--perturb", type=float, default=None, metavar="REL",
                   help="Monte Carlo input-jitter study at this relative error")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistentDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
