"""Command-line surface: simulate, analyze, sample, reconstruct, fit, repro.

Exit codes: 0 on success, 1 on analysis or tolerance failures (among them an
inconsistent measurement set, a fit that did not converge and a campaign that
the sampler refused as unphysical), 2 on input errors.  A state below the
physicality gate, which reconstruct, analyze and fit go on with, is named in
reconstruct's ``warnings`` and by one ``warning: ...`` line on stderr of the
other two.  Every refused input, argparse's refusals of a flag or command
included, is one ``error: ...`` line on stderr and nothing on stdout; ``-h``
still prints help.  Number flags are read by ``gaussian._number_text``, as CSV
cells are.  All JSON output uses Python's round-trip-exact float repr, so
identical inputs and seeds give byte-identical files, those of ``sample`` and
``repro --n`` per numpy build and BLAS kernel, which rounds their sampled sums.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

from .criteria import GainPair, criteria_report, reid_product
from .gaussian import (CovarianceMatrix, PhysicalityWarning, SourceParams, UnphysicalStateError,
                       _moments, _number_text, _unphysical, build_epr_source)
from .loss_model import db_to_variance, fit_efficiency
from .reconstruction import InconsistentDataError, MeasurementSet, propagate_errors, reconstruct
from .sampler import campaign_batches, measure_campaign, samples_to_csv
from . import reference
from .reference import perturbation_study  # re-exported: callers import it from cvsteer.cli


# SourceParams fields settable by a simulate flag of the same name; dark noise is set in dB.
_SIMULATE_FLAGS = [f.name for f in dataclasses.fields(SourceParams) if f.name != "dark_noise"]


def _flag_type(kind):
    """The argparse type of a number flag: `_number_text` for kind, under kind's name, from
    which argparse words a refusal (`argument --r1: invalid float value: '1_0'`)."""
    def read(text: str):
        return _number_text(text, kind.__name__, kind)
    read.__name__ = kind.__name__
    return read


_FLOAT, _INT = _flag_type(float), _flag_type(int)


class _Parser(argparse.ArgumentParser):
    """argparse's refusals as a ValueError, which main words as one error: line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _write_text(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(obj, out_path: str | None):
    _write_text(_json_text(obj), out_path)


def _load_json(path: str, text: str | None = None):
    if text is None:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder's, for arrays or objects nested past its limit
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:  # e.g. an empty or truncated file
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _load_measurements(path: str) -> MeasurementSet:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return MeasurementSet.from_dict(_load_json(path, text))
    return MeasurementSet.from_csv(text)


def _parse_gains(text: str) -> GainPair | str:
    if text == "optimal":
        return "optimal"
    try:
        return GainPair(*(_number_text(t, "--gains") for t in text.split(",")))
    except (TypeError, ValueError):
        raise ValueError(f"--gains expects two finite numbers 'gx,gp' or 'optimal', "
                         f"got {text!r}") from None


def cmd_simulate(args) -> int:
    params = SourceParams.from_dict(_load_json(args.in_path)) if args.in_path else SourceParams()
    flags = {name: getattr(args, name) for name in _SIMULATE_FLAGS if getattr(args, name) is not None}
    if args.dark_noise_db is not None:
        flags["dark_noise"] = db_to_variance(args.dark_noise_db)
    state = build_epr_source(dataclasses.replace(params, **flags))
    _write_json(state.to_dict(), args.out_path)
    return 0


def cmd_analyze(args) -> int:
    gains = None if args.gains is None else _parse_gains(args.gains)
    state = CovarianceMatrix.from_dict(_load_json(args.in_path))
    _moments(state, "analyze")  # a state of other than two modes is refused before any warning
    if message := _unphysical(state, "analyze"):  # here, not in criteria_report: a batch hot path
        warnings.warn(PhysicalityWarning(message))
    try:  # every refusal of the criteria, decided before anything is written
        report = criteria_report(state).to_dict()
        value = (reid_product(state, "b|a", gains) if isinstance(gains, GainPair)
                 else report["reid_b_given_a"])
    except ValueError as exc:
        raise ValueError(f"analyze: {exc}") from None
    numbers = {**report, **report["conditional_variances"]}
    if overflowed := [k for k, v in numbers.items() if isinstance(v, float) and not math.isfinite(v)]:
        raise ValueError(f"analyze: {', '.join(overflowed)} overflow the float range; "
                         "JSON cannot hold them")
    _write_json(report, args.out_path)
    if gains is not None:
        label = "optimal" if gains == "optimal" else f"({gains.g_x:g}, {gains.g_p:g})"
        print(f"# reid product B|A at gains {label}: {value!r}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    state = CovarianceMatrix.from_dict(_load_json(args.in_path))
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
    sigma = propagate_errors(ms)
    if not math.isfinite(sigma.max()):
        raise ValueError("reconstruct: uncertainties overflow the float range; JSON cannot hold them")
    payload = state.to_dict()
    payload["uncertainties"] = sigma.tolist()
    payload["warnings"] = [str(w.message) for w in caught
                           if issubclass(w.category, PhysicalityWarning)]
    _write_json(payload, args.out_path)
    return 0


def cmd_fit(args) -> int:
    state = CovarianceMatrix.from_dict(_load_json(args.in_path))
    fit = fit_efficiency(state)
    _write_json(fit.to_dict(), args.out_path)
    return 0 if fit.converged else 1


def cmd_repro(args) -> int:
    rows, extras = reference.repro(args.n, args.seed, args.dark_noise_db, args.perturb)
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
    # serialised first: a report JSON cannot hold (inf, nan) fails before anything is printed
    report = _json_text({"rows": rows, "extras": extras, "passed": not failures}) if args.out_path else None
    print("\n".join(lines))
    if args.out_path:
        _write_text(report, args.out_path)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    for name in _SIMULATE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=_FLOAT, default=None)
    p.add_argument("--dark-noise-db", type=_FLOAT, default=None,
                   help="dark-noise clearance in dB below vacuum")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="evaluate steering and inseparability criteria")
    add_io(p, need_in=True)
    p.add_argument("--gains", default=None, metavar="GX,GP|optimal",
                   help="also report the B|A product at these gains (stderr note)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="run a seeded sampling campaign on a state")
    add_io(p, need_in=True)
    p.add_argument("--n", type=_INT, required=True,
                   help="samples per setting (at least 3; at least 2 with --format csv)")
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--dark-noise-db", type=_FLOAT, default=None)
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
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--n", type=_INT, default=None,
                   help="also run a sampled rerun with this many samples per setting "
                        "(at least 3)")
    p.add_argument("--dark-noise-db", type=_FLOAT, default=None,
                   help="add detector dark noise to the sampled rerun")
    p.add_argument("--perturb", type=_FLOAT, default=None, metavar="REL",
                   help="Monte Carlo input-jitter study at this relative error")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            code, error = args.func(args), None
        except (InconsistentDataError, UnphysicalStateError) as exc:
            code, error = 1, exc
        except (ValueError, OSError) as exc:
            code, error = 2, exc
    # The outcome first, then one line per library warning met on the way.
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
