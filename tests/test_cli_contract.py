"""The command-line contract, one row per case.

A row holds the argv, the input files as text, the exit code, stdout (empty, exact
text, or a named predicate), stderr (empty or exact), the files that must not be
written and those that must be written with exact text.  Every row runs twice:

- in process, through ``cvsteer.cli.main`` with the streams captured (tier-1);
- through the installed ``cvsteer`` script, selected by ``pytest -m installed_cli``
  and deselected by default.

A path in a row is written ``{tmp}/name``; the runner writes the row's input files
into a fresh directory and puts its path in their place, in the argv and in stderr.
Where one command's output is another's input, the input text comes from the
library, and the producing command is pinned by its own row.  To add a case, add a
row to ROWS.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from cvsteer import (CovarianceMatrix, MeasurementSet, PhysicalityWarning, SourceParams,
                     apply_symplectic, beamsplitter, build_epr_source, criteria_report,
                     fit_efficiency, gaussian, phase_shift, propagate_errors, reconstruct,
                     symplectic_eigenvalues_two_mode, vacuum_state)
from cvsteer.cli import main
from cvsteer.reconstruction import CSV_FIELDS
from cvsteer.reference import REFERENCE_MEASUREMENTS


@dataclass(frozen=True)
class Out:
    """stdout pinned by its meaning: `holds` of the text is true."""

    name: str
    holds: Callable[[str], bool]


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # split on spaces
    code: int = 0
    out: str | Out = ""
    err: str = ""
    files: dict = field(default_factory=dict)
    absent: tuple = ()
    written: dict = field(default_factory=dict)


def error(line, *warned):
    """stderr of a refusal: its error line, then one line per warning met on the way."""
    return f"error: {line}\n" + "".join(f"warning: {w}\n" for w in warned)


def json_text(obj) -> str:
    """obj as the CLI writes JSON."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def said(who, state) -> str:
    nus = symplectic_eigenvalues_two_mode(state).tolist()
    return f"{who}: state is unphysical (symplectic eigenvalues {nus})"


def state_of(text) -> CovarianceMatrix:
    return CovarianceMatrix.from_dict(json.loads(text))


def report(text) -> str:
    return json_text(criteria_report(state_of(text)).to_dict())


def matrix(entries) -> str:
    return json.dumps({"n_modes": 2, "entries": entries})


def csv(cells) -> str:
    return ",".join(CSV_FIELDS) + "\n" + cells + "\n"


def source(**params) -> str:
    return json_text(build_epr_source(SourceParams(**params)).to_dict())


# Inputs, and the outputs of the commands that produce them, from the library.
REFERENCE = {"cov.json": json.dumps(reconstruct(REFERENCE_MEASUREMENTS).to_dict())}
S = source(r1=1.2, r2=1.1, eta_prep=0.9)
CAP = source(r1=10.05, r2=9.5, eta_prep=0.999999)
VACUUM = matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
BIG = matrix([[1e152, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1e152, 0], [0, 0, 0, 1]])
WARNED_MS = ('{"var_xa": 1, "var_pa": 1, "var_xb": 1, "var_pb": 1, "var_x_diff": 0.5, '
             '"var_p_sum": 0.5}')
with warnings.catch_warnings():
    warnings.simplefilter("ignore", PhysicalityWarning)
    _ms = MeasurementSet.from_dict(json.loads(WARNED_MS))
    _warned = reconstruct(_ms)
    WARNED = json_text({**_warned.to_dict(), "uncertainties": propagate_errors(_ms).tolist(),
                        "warnings": [said("reconstruct", _warned)]})
    WARNED_FIT = json_text(fit_efficiency(state_of(WARNED)).to_dict())
    VACUUM_FIT, BIG_FIT = (json_text(fit_efficiency(state_of(t)).to_dict()) for t in (VACUUM, BIG))
# the warned state with mode B turned: nonzero X-P entries, which eigvals decides
COUPLED_STATE = apply_symplectic(state_of(WARNED), phase_shift(0.3, 1, 2))
COUPLED = json.dumps(COUPLED_STATE.to_dict())
# X B|A conditional variance rounds to -1.4e-14; below the gate, one warning names it
AT_BOUND = matrix([[35.37985501855342, 0, -39.07527374549702, 0], [0, 1, 0, 0],
                   [-39.07527374549702, 0, 43.156678213769524, 0], [0, 0, 0, 1]])
# the optimal gain g_x B|A = 1e-12 / 5e-324 overflows: no report, whatever --gains
GAIN_OVERFLOW = matrix([[5e-324, 0, 1e-12, 0], [0, 1, 0, 0], [1e-12, 0, 1e300, 0], [0, 0, 0, 1]])
# a passive mix of vacuum whose Duan sum rounds to 3.9999999999999996
MIXED_VACUUM = json.dumps(apply_symplectic(vacuum_state(2), beamsplitter(0.005, 0, 1, 2)).to_dict())
NESTED = '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}"  # past the decoder's recursion limit
THREE = json.dumps({"n_modes": 3, "entries": np.eye(6).tolist()})
THREE_BELOW = json.dumps({"n_modes": 3, "entries": np.diag([0.5, 0.5, 1, 1, 1, 1]).tolist()})
PAST_BOUND = dict(zip(CSV_FIELDS, [1.0, 1.0, 1.2, 1.0, 0.001, 2.0]))
EYE = np.eye(4).tolist()


def xp_entries(text):
    e = json.loads(text)["entries"]
    return [repr(v) for v in (e[0][1], e[0][3], e[1][2], e[2][3])]


FIT_S = Out("converged, xi within 1e-9 of 0.9",
            lambda t: json.loads(t)["converged"] is True and abs(json.loads(t)["xi"] - 0.9) <= 1e-9)
XP_ZERO = Out("X-P entries print as 0.0", lambda t: xp_entries(t) == ["0.0"] * 4)
R_CAP = Out("r1 fitted at the cap 10.0", lambda t: json.loads(t)["r1"] == 10.0)
AT_BOUND_REPORT = Out("the library's report, ratio 0.0",
                      lambda t: t == report(AT_BOUND)
                      and json.loads(t)["conditional_uncertainty_ratio"] == 0.0)
NOT_FLAGGED = Out("Duan sum below 4, not flagged inseparable",
                  lambda t: json.loads(t)["duan_sum"] < 4.0 and '"duan_inseparable": false' in t)

PAST_LINE = ("measurement set inconsistent: |Cov_x| = 1.0995 exceeds sqrt(Var*Var) = 1.09545 by "
             "0.00405488, so the reconstructed matrix is not positive definite")
GAIN_LINE = ("analyze: criteria_report: optimal_gains_b_given_a: g_x = Cov/Var = 1e-12/5e-324 "
             "overflows the float range")
OVERFLOW_REPORT = ("analyze: reid_b_given_a, reid_a_given_b, unit_gain_product, "
                  "conditional_uncertainty_ratio overflow the float range; JSON cannot hold them")
UNCERTAINTIES = "reconstruct: uncertainties overflow the float range; JSON cannot hold them"
GAINS = "--gains expects two finite numbers 'gx,gp' or 'optimal', got {!r}"
DARK_INF = "sampler: dark_noise must be >= 0, got inf (finite values only)"
ENTRIES = "CovarianceMatrix: entries must be an array of real numbers, got "
COV = "--in {tmp}/cov.json"

# every number flag: (command and the arguments it needs, flag, the kind argparse names)
NUMBER_FLAGS = (
    [("simulate", f"--{name.replace('_', '-')}", "float")
     for name in SourceParams.__dataclass_fields__ if name != "dark_noise"]
    + [("simulate", "--dark-noise-db", "float"),
       (f"sample {COV} --n 10", "--dark-noise-db", "float"), (f"sample {COV}", "--n", "int"),
       (f"sample {COV} --n 10", "--seed", "int"),
       ("repro", "--dark-noise-db", "float"), ("repro", "--perturb", "float"),
       ("repro", "--n", "int"), ("repro", "--seed", "int")])
OUTS = ("", " --out {tmp}/report.json")  # a refusal writes no --out file

ROWS = [
    # simulate
    Row("simulate-s", "simulate --r1 1.2 --r2 1.1 --eta-prep 0.9 --out {tmp}/s.json",
        written={"s.json": S}),
    Row("simulate-s1", "simulate --r1 1 --r2 1", out=XP_ZERO),
    # a phase whose rounding spans a turn is still a rotation, here a quarter turn
    Row("simulate-phase-4e15", "simulate --r1 1 --r2 1 --relative-phase 4e15",
        out=source(r1=1.0, r2=1.0, relative_phase=4e15)),
    Row("simulate-cap", "simulate --r1 10.05 --r2 9.5 --eta-prep 0.999999 --out {tmp}/cap.json",
        written={"cap.json": CAP}),
    *(Row(f"simulate-string-{v}", "simulate --in {tmp}/p.json --out {tmp}/o.json", 2,
          files={"p.json": json.dumps({"r1": v})}, absent=("o.json",),
          err=error(f"SourceParams: r1 must be a real number, got {v!r}"))
      for v in ("1", "abc")),
    *(Row(f"simulate-list{flags}", f"simulate --in {{tmp}}/p.json {flags}", 2,
          files={"p.json": "[0.5, 0.5]"},
          err=error("SourceParams JSON: expected an object, got list"))
      for flags in ("", "--r1=1.0")),
    *(Row(f"simulate-nan-{name}", "simulate --in {tmp}/p.json", 2,
          files={"p.json": json.dumps({name: float("nan")})}, err=error(line))
      for name, line in [("r1", "SourceParams: r1 must be in [0, 354.891], got nan"),
                         ("r2", "SourceParams: r2 must be in [0, 354.891], got nan"),
                         ("dark_noise", "SourceParams: dark_noise must be finite, >= 0, got nan")]),
    Row("simulate-eta", "simulate --eta-prep 1.2", 2,
        err=error("SourceParams: eta_prep must be in (0, 1], got 1.2")),
    Row("simulate-r800", "simulate --r1 800", 2,
        err=error("SourceParams: r1 must be in [0, 354.891], got 800.0")),
    # fit
    Row("fit-s", "fit --in {tmp}/s.json", out=FIT_S, files={"s.json": S}),
    Row("fit-cap", "fit --in {tmp}/cap.json", out=R_CAP, files={"cap.json": CAP}),
    Row("fit-vacuum", "fit --in {tmp}/vacuum.json", 1, out=VACUUM_FIT,
        files={"vacuum.json": VACUUM}),
    # at xi = 1e-6 the scan's start (xi m) m, m = w / xi, passes the float range: no warning
    Row("fit-big", "fit --in {tmp}/big.json", 1, out=BIG_FIT, files={"big.json": BIG}),
    Row("fit-warned", "fit --in {tmp}/warned.json", out=WARNED_FIT, files={"warned.json": WARNED},
        err=f"warning: {said('fit_efficiency', state_of(WARNED))}\n"),
    Row("fit-coupled", "fit --in {tmp}/coupled.json", 2, files={"coupled.json": COUPLED},
        err=error("fit_efficiency: expected zero X-P cross terms (reconstruction output shape), "
                  "found 0.222")),
    Row("fit-list", "fit --in {tmp}/list.json", 2,
        files={"list.json": f"[{REFERENCE['cov.json']}]"},
        err=error("CovarianceMatrix JSON: expected an object, got list")),
    # reconstruct
    Row("reconstruct-warned", "reconstruct --in {tmp}/warned_ms.json", out=WARNED,
        files={"warned_ms.json": WARNED_MS}),
    Row("reconstruct-warned-out", "reconstruct --in {tmp}/warned_ms.json --out {tmp}/warned.json",
        files={"warned_ms.json": WARNED_MS}, written={"warned.json": WARNED}),
    Row("reconstruct-bound", "reconstruct --in {tmp}/bound.csv", 1,
        files={"bound.csv": csv("1,1,4,1,1,2")},
        err=error("measurement set inconsistent: |Cov_x| = 2 reaches sqrt(Var*Var) = 2 within "
                  "rounding, so the reconstructed matrix is not positive definite")),
    # a refused set is worded from its six values alone, whatever its relative_error
    *(Row(f"reconstruct-{name}", f"reconstruct --in {{tmp}}/{name}", 1, files={name: text},
          err=error(PAST_LINE))
      for name, text in [("past.csv", csv("1.0,1.0,1.2,1.0,0.001,2.0")),
                         ("past_0.json", json.dumps({**PAST_BOUND, "relative_error": 0})),
                         ("past_05.json", json.dumps({**PAST_BOUND, "relative_error": 0.5}))]),
    Row("reconstruct-far-past", "reconstruct --in {tmp}/bad.json", 1,
        files={"bad.json": json.dumps(dict(zip(CSV_FIELDS, [1, 1, 1, 1, 80, 2])))},
        err=error("measurement set inconsistent: |Cov_x| = 39 exceeds sqrt(Var*Var) = 1 by 38, "
                  "so the reconstructed matrix is not positive definite")),
    *(Row(f"reconstruct-uncertainties-{name}", f"reconstruct --in {{tmp}}/{name}", 2,
          files={name: text}, err=error(UNCERTAINTIES))
      for name, text in [("overflow.csv", csv("1e160,1e160,1e160,1e160,1e159,1e159")),
                         ("overflow.json", json.dumps(dict(zip(CSV_FIELDS,
                                                               [1e200] * 4 + [2e200] * 2))))]),
    # Cov_x = -(1 - 2 * 1.7e308) / 2 overflows: an input error at any relative_error
    *(Row(f"reconstruct-cov-overflow-{name}", f"reconstruct --in {{tmp}}/{name}", 2,
          files={name: text}, err=error("CovarianceMatrix: entries must be finite"))
      for name, text in [("ms.csv", csv("1.7e308,1,1.7e308,1,1,2")),
                         ("ms.json", json.dumps({**dict(zip(CSV_FIELDS,
                                                            [1.7e308, 1, 1.7e308, 1, 1, 2])),
                                                 "relative_error": 0}))]),
    *(Row(f"reconstruct-{n}-cells", "reconstruct --in {tmp}/ms.csv", 2,
          files={"ms.csv": csv(",".join(["1.0"] * n))},
          err=error(f"MeasurementSet CSV: expected header {','.join(CSV_FIELDS)} and one data row "
                    "of 6 values"))
      for n in (5, 7)),
    # float() reads "18_41" as 1841, which made this an inconsistent set (exit 1)
    Row("reconstruct-underscore", "reconstruct --in {tmp}/underscore.csv", 2,
        files={"underscore.csv": csv("18_41,35.49,17.98,34.61,0.21,0.2")},
        err=error("MeasurementSet CSV: non-numeric field var_xa ('18_41' is not a number)")),
    Row("reconstruct-metadata", "reconstruct --in {tmp}/ms.json", 2,
        files={"ms.json": json.dumps({**REFERENCE_MEASUREMENTS.to_dict(), "metadata": 5})},
        err=error("MeasurementSet: metadata must be a dict, got int")),
    # sample: the sampler alone refuses a state below the gate, an analysis outcome
    *(Row(f"sample-{name}-{fmt}", f"sample --in {{tmp}}/{name}.json --n 10 --format {fmt}", 1,
          files={f"{name}.json": text}, err=error(said("sampler", state_of(text))))
      for name, text in [("warned", WARNED), ("coupled", COUPLED)] for fmt in ("json", "csv")),
    Row("sample-no-n", "sample --in {tmp}/s.json", 2, files={"s.json": S},
        err=error("cvsteer sample: the following arguments are required: --n")),
    Row("sample-n2", f"sample {COV} --n 2", 2, files=REFERENCE,
        err=error("measure_campaign: n_per_setting must be >= 3, got n=2")),
    # the campaign's sums of squares of a 1.7e308 entry overflow
    Row("sample-overflow", "sample --in {tmp}/big.json --n 100", 2,
        files={"big.json": matrix(np.diag([1.7e308, 1, 1, 1]).tolist())},
        err=error("measure_campaign: the sampled variances overflow (largest state entry "
                  "1.7e+308, dark-noise variance 0)")),
    # analyze
    Row("analyze-mixed-vacuum", "analyze --in {tmp}/mixed.json", out=NOT_FLAGGED,
        files={"mixed.json": MIXED_VACUUM}),
    Row("analyze-at-bound", "analyze --in {tmp}/at_bound.json", out=AT_BOUND_REPORT,
        files={"at_bound.json": AT_BOUND},
        err=f"warning: {said('analyze', state_of(AT_BOUND))}\n"),
    *(Row(f"analyze-{name}", f"analyze --in {{tmp}}/{name}.json", out=report(text),
          files={f"{name}.json": text}, err=f"warning: {said('analyze', state_of(text))}\n")
      for name, text in [("warned", WARNED), ("coupled", COUPLED)]),
    *(Row(f"analyze-gain-overflow{gains.replace(' --gains ', '-')}{'-out' * bool(out)}",
          f"analyze --in {{tmp}}/g.json{gains}{out}", 2, files={"g.json": GAIN_OVERFLOW},
          absent=("report.json",), err=error(GAIN_LINE, said("analyze", state_of(GAIN_OVERFLOW))))
      for gains in ("", " --gains optimal", " --gains 1,-1") for out in OUTS),
    # the criteria of a large diagonal overflow to inf, which JSON cannot hold
    *(Row(f"analyze-{scale:g}{'-out' * bool(out)}", f"analyze --in {{tmp}}/huge.json{out}", 2,
          files={"huge.json": matrix((scale * np.eye(4)).tolist())}, absent=("report.json",),
          err=error(OVERFLOW_REPORT))
      for scale in (1e200, 1e300) for out in OUTS),
    *(Row(f"analyze-{name}-gains-{gains}{'-out' * bool(out)}",
          f"analyze --in {{tmp}}/{name}.json --gains {gains}{out}", 2, files={f"{name}.json": text},
          absent=("report.json",), err=error(GAINS.format(gains)))
      for name, text in [("cov", REFERENCE["cov.json"]), ("s", S)]
      for gains in ("1,2,3", "a,b", "inf,1", "1", "1_0,1") for out in OUTS),
    # at 1e308 both g^2 Var and 2 g Cov overflow, and inf - inf is nan; at 1e200 only g^2 Var
    *(Row(f"analyze-{name}-gains-{gains}{'-out' * bool(out)}",
          f"analyze --in {{tmp}}/{name}.json --gains {gains}{out}", 2, files={f"{name}.json": text},
          absent=("report.json",),
          err=error(f"analyze: reid_product: the B|A product at {pair} is {value}, "
                    "not a finite number"))
      for name, text in [("cov", REFERENCE["cov.json"]), ("s", S)]
      for gains, pair, value in [("1e308,1e308", "GainPair(g_x=1e+308, g_p=1e+308)", "nan"),
                                 ("1e200,1", "GainPair(g_x=1e+200, g_p=1.0)", "inf")]
      for out in OUTS),
    *(Row(f"analyze-three-modes{gains.replace(' --gains ', '-')}",
          f"analyze --in {{tmp}}/three.json{gains}", 2, files={"three.json": THREE},
          err=error("analyze: expected a two-mode state, got 3 modes"))
      for gains in ("", " --gains optimal", " --gains 1,-1")),
    # a state of other than two modes is refused by one error line, with no warning if it is
    # also below the physicality gate
    Row("analyze-three-modes-unphysical", "analyze --in {tmp}/three.json", 2,
        files={"three.json": THREE_BELOW},
        err=error("analyze: expected a two-mode state, got 3 modes")),
    *(Row(f"{label}-three-modes{name}", f"{command} --in {{tmp}}/three.json", 2,
          files={"three.json": text}, err=error(line))
      for label, command, line in [
          ("fit", "fit", "fit_efficiency: expected a two-mode state, got 3 modes"),
          ("sample-json", "sample --n 10", "sampler: expected a two-mode state, got 3 modes"),
          ("sample-csv", "sample --n 10 --format csv",
           "sampler: expected a two-mode state, got 3 modes")]
      for name, text in [("", THREE), ("-unphysical", THREE_BELOW)]),
    *(Row(f"analyze-{name}", "analyze --in {tmp}/cov.json", 2, files={"cov.json": text},
          err=error(line))
      for name, text, line in [
          ("3x3", matrix(np.eye(3).tolist()),
           "CovarianceMatrix: expected shape (4, 4), got (3, 3)"),
          ("asymmetric", matrix([[1, 0, 0.5, 0]] + EYE[1:]),
           "CovarianceMatrix: not symmetric at (0,2): 0.5 vs 0.0"),
          ("list", json.dumps(EYE), "CovarianceMatrix JSON: expected an object, got list"),
          ("null", matrix([[None, 0, 0, 0]] + EYE[1:]), f"{ENTRIES}None"),
          ("string", matrix([["1", 0, 0, 0]] + EYE[1:]), f"{ENTRIES}'1'"),
          ("ragged", matrix([[1, 0, 0]] + EYE[1:]), f"{ENTRIES}a ragged sequence"),
          # JSON n_modes is read by the constructor's mode-count rule, a 2.0 as 2
          *((f"n_modes-{v}", json.dumps({"n_modes": v, "entries": EYE}),
             f"CovarianceMatrix: n_modes must be an integer, got {v!r}")
            for v in (True, "2", 2.5, 2.7))]),
    Row("analyze-nested-3000", "analyze --in {tmp}/nested.json", 2,
        files={"nested.json": "[" * 3000}, err=error("{tmp}/nested.json: JSON nested too deeply")),
    # every command that reads JSON, and every number flag
    *(Row(f"{command}-nested", f"{command} --in {{tmp}}/nested.json{n}", 2,
          files={"nested.json": NESTED}, err=error("{tmp}/nested.json: JSON nested too deeply"))
      for command, n in [("analyze", ""), ("fit", ""), ("sample", " --n 10"), ("simulate", ""),
                         ("reconstruct", "")]),
    # an empty or a truncated file, named; reconstruct reads an empty file as CSV
    *(Row(f"{command}-{name}", f"{command} --in {{tmp}}/bad.json{n}", 2, files={"bad.json": text},
          err=error(f"{{tmp}}/bad.json: not valid JSON ({reason})"))
      for command, n in [("analyze", ""), ("fit", ""), ("sample", " --n 10"), ("simulate", ""),
                         ("reconstruct", "")]
      for name, text, reason in [
          ("empty", "", "Expecting value: line 1 column 1 (char 0)"),
          ("truncated", '{"n_modes": 2,',
           "Expecting property name enclosed in double quotes: line 1 column 15 (char 14)")]
      if (command, name) != ("reconstruct", "empty")),
    # int() and float() read 1_0 as 10; no number flag does, written either way
    *(Row(f"{command.split()[0]}{flag}{sep.strip() or '-'}1_0", f"{command} {flag}{sep}1_0", 2,
          files=REFERENCE,
          err=error(f"cvsteer {command.split()[0]}: argument {flag}: invalid {kind} value: '1_0'"))
      for command, flag, kind in NUMBER_FLAGS for sep in "= "),
    Row("analyze-gains=1_0,1", f"analyze {COV} --gains=1_0,1", 2, files=REFERENCE,
        err=error(GAINS.format("1_0,1"))),
    *(Row(f"{label}-dark{db}", f"{command} --dark-noise-db={db}", 2, files=REFERENCE,
          err=error(line))
      for label, command, line in [
          ("simulate", "simulate", "SourceParams: dark_noise must be finite, >= 0, got inf"),
          ("sample-json", f"sample {COV} --n 10", DARK_INF),
          ("sample-csv", f"sample {COV} --n 10 --format csv", DARK_INF),
          ("repro", "repro --n 10", DARK_INF)]
      for db in ("-inf", "-4000")),
    *(Row(f"{label}-seed-1", f"{command} --seed=-1", 2, files=REFERENCE,
          err=error(f"{who}: seed must be >= 0, got -1"))
      for label, command, who in [("sample", f"sample {COV} --n 10", "measure_campaign"),
                                  ("repro-sampled", "repro --n 10", "measure_campaign"),
                                  ("repro-perturb", "repro --perturb 0.05", "perturbation_study")]),
    # repro
    *(Row(f"repro-perturb{rel}", f"repro --perturb={rel}", 2,
          err=error(f"MeasurementSet: relative_error must be in [0, 1), got {shown}"))
      for rel, shown in [("-1", "-1.0"), ("1", "1.0"), ("nan", "nan")]),
    Row("repro-n2", "repro --n 2", 2,
        err=error("measure_campaign: n_per_setting must be >= 3, got n=2")),
    # 2000 dB of dark noise would drive the sampled products to inf
    *(Row(f"repro-dark-2000{'-out' * bool(out)}", f"repro --n 10 --dark-noise-db=-2000{out}", 2,
          absent=("report.json",),
          err=error("dark noise of -2000 dB (variance 1e+200) is too large: the sampled variances "
                    "or their squares overflow"))
      for out in OUTS),
    # argparse's refusals
    *(Row(f"argparse-{'_'.join(argv.split()) or 'none'}", argv, 2, err=error(line))
      for argv, line in [
          ("simulate --r1 abc", "cvsteer simulate: argument --r1: invalid float value: 'abc'"),
          ("simulate --r1", "cvsteer simulate: argument --r1: expected one argument"),
          ("simulate --bogus", "cvsteer: unrecognized arguments: --bogus"),
          ("", "cvsteer: the following arguments are required: command"),
          ("repro --n 1e6", "cvsteer repro: argument --n: invalid int value: '1e6'")]),
]


def check(case: Row, tmp, run):
    """Run one row by `run` (argv -> code, stdout, stderr) in the directory tmp."""
    for name, text in case.files.items():
        (tmp / name).write_text(text)
    code, out, err = run([arg.replace("{tmp}", str(tmp)) for arg in case.argv.split()])
    assert (code, err) == (case.code, case.err.replace("{tmp}", str(tmp)))
    if isinstance(case.out, Out):
        assert case.out.holds(out), f"stdout is not {case.out.name}: {out!r}"
    else:
        assert out == case.out
    for name in case.absent:
        assert not (tmp / name).exists(), f"{name} was written"
    for name, text in case.written.items():
        assert (tmp / name).read_text() == text, f"{name} differs"


@pytest.mark.parametrize("case", ROWS, ids=[r.id for r in ROWS])
def test_in_process(case, tmp_path, capsys):
    check(case, tmp_path, lambda argv: (main(argv), *capsys.readouterr()))


@pytest.mark.installed_cli
@pytest.mark.parametrize("case", ROWS, ids=[r.id for r in ROWS])
def test_installed_script(case, tmp_path):
    script = shutil.which("cvsteer")
    assert script, "no cvsteer on PATH"

    def run(argv):
        proc = subprocess.run([script, *argv], capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr
    check(case, tmp_path, run)


def test_the_coupled_state_is_below_the_gate_on_the_eigvals_route():
    assert gaussian._decoupled_nu_squared(COUPLED_STATE) is None
    assert max(symplectic_eigenvalues_two_mode(COUPLED_STATE)) < 1.0
