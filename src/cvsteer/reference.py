"""Built-in reference dataset: a published six-measurement campaign on a
strongly two-mode-squeezed state, the headline values the `repro` command
checks against, and the repro pipeline that re-derives them.

All variances are in vacuum units, measured at a 5 MHz Fourier frequency
(RBW 300 kHz, VBW 300 Hz labels carried as metadata only).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .criteria import _conditional, _terms, criteria_report, optimal_gain
from .gaussian import CovarianceMatrix, _from_moments, _instance, _integer
from .loss_model import (
    budget_prep_efficiency,
    db_to_variance,
    efficiency_decomposition,
    fit_efficiency,
)
from .reconstruction import MeasurementSet, _covariances, reconstruct
from .sampler import _stream, measure_campaign

REFERENCE_MEASUREMENTS = MeasurementSet(
    var_xa=18.41,
    var_pa=35.49,
    var_xb=17.98,
    var_pb=34.61,
    var_x_diff=0.21,
    var_p_sum=0.20,
    relative_error=0.05,
    metadata={"fourier_frequency_hz": 5.0e6, "rbw_hz": 300.0e3, "vbw_hz": 300.0},
)

# Reconstructed from the six measurements above; X-P cross terms are zero by
# the experimental arrangement, not measured.
REFERENCE_COVARIANCE = _from_moments(18.41, 35.49, 17.98, 34.61, 18.09, -34.95)

# Headline reference values with the tolerances the repro gate applies.
REID_B_GIVEN_A = 0.039
REID_A_GIVEN_B = 0.041
REID_TOL = 0.001
UNIT_GAIN_PRODUCT = 0.042
UNIT_GAIN_TOL = 0.001
DUAN_SUM = 0.41
DUAN_TOL = 0.01
OPTIMAL_GAIN_X_B_GIVEN_A = 0.98262
OPTIMAL_GAIN_P_B_GIVEN_A = -0.98478
OPTIMAL_GAIN_TOL = 0.001
CONDITIONAL_UNCERTAINTY_RATIO = 0.2
CONDITIONAL_UNCERTAINTY_TOL = 0.02
OVERALL_EFFICIENCY = 0.92
OVERALL_EFFICIENCY_TOL = 0.04
PREP_EFFICIENCY = 0.95
PREP_EFFICIENCY_TOL = 0.01
DETECTION_EFFICIENCY = 0.97
DETECTION_EFFICIENCY_TOL = 0.01
# Bound on the 1-sigma half-width of the perturbation study (`repro --perturb`).
PERTURBATION_SPREAD_TOL = 0.01

# Loss budget entering the preparation efficiency.
INTERNAL_LOSS = 0.025
PROPAGATION_LOSS = 0.01
FRINGE_VISIBILITY = 0.993

DARK_NOISE_CLEARANCE_DB = 22.0


def reference_state() -> CovarianceMatrix:
    """The reference covariance matrix as a state object."""
    return CovarianceMatrix(n_modes=2, entries=REFERENCE_COVARIANCE)


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
    is checked as MeasurementSet checks its own: it must lie in [0, 1); the
    seed must be an integer >= 0, and n_trials an integer >= 2 for the spread
    (gaussian._integer); ms is a MeasurementSet (gaussian._instance).
    """
    _instance(ms, MeasurementSet, "perturbation_study", "ms")
    n_trials = _integer(n_trials, "perturbation_study", "n_trials")
    seed = _integer(seed, "perturbation_study", "seed")
    if n_trials < 2:
        raise ValueError(f"perturbation_study: n_trials must be >= 2, got {n_trials}")
    if relative_error is not None:
        ms = dataclasses.replace(ms, relative_error=relative_error)
    rel = ms.relative_error
    base = reconstruct(ms)
    gx = optimal_gain(base, "x", "b|a")
    gp = optimal_gain(base, "p", "b|a")
    jitter = 1.0 + rel * _stream(seed).standard_normal((n_trials, 6))
    xa, pa, xb, pb, xd, ps = np.asarray(ms.values())[:, None] * jitter.T
    m = (xa, pa, xb, pb, *_covariances(xa, pa, xb, pb, xd, ps))
    x, p = _terms(m, "x", "b|a"), _terms(m, "p", "b|a")
    products = _conditional(*x, gx)[1] * _conditional(*p, gp)[1]
    return {
        "relative_error": rel,
        "n_trials": n_trials,
        "seed": seed,
        "mean": float(products.mean()),
        "std": float(products.std(ddof=1)),
        "q05": float(np.quantile(products, 0.05)),
        "q95": float(np.quantile(products, 0.95)),
        "fraction_within_0.005": float(np.mean(np.abs(products - REID_B_GIVEN_A) <= 0.005)),
    }


def _row(quantity: str, computed: float, ref: float | None = None,
         tol: float | None = None) -> dict:
    """One table row: checked against ref within tol, or INFO when ref is None."""
    delta = None if ref is None else abs(computed - ref)
    return {"quantity": quantity, "reference": ref, "computed": computed, "delta": delta,
            "tolerance": tol, "passed": None if ref is None else delta <= tol}


def repro(n: int | None = None, seed: int = 0, dark_noise_db: float | None = None,
          perturb: float | None = None) -> tuple[list[dict], list[dict]]:
    """Re-derive the headline values as checked rows plus INFO extras.

    The rows check the reconstruction, criteria and loss fit of the reference
    campaign against the published values.  n or dark_noise_db adds a sampled
    rerun of the reconstructed state (n defaults to 1e6 per setting), with and
    without dark noise at dark_noise_db dB below vacuum; perturb adds the
    input-jitter study at that relative error, whose half-width is checked.
    Dark noise so large that the sampled variances or their squares overflow
    is an input error.
    """
    state = reconstruct(REFERENCE_MEASUREMENTS)
    report = criteria_report(state)
    fit = fit_efficiency(state)
    eta_budget = budget_prep_efficiency(INTERNAL_LOSS, PROPAGATION_LOSS, FRINGE_VISIBILITY)
    rows = [
        _row("reid product B|A (optimal gains)", report.reid_b_given_a,
             REID_B_GIVEN_A, REID_TOL),
        _row("reid product A|B (optimal gains)", report.reid_a_given_b,
             REID_A_GIVEN_B, REID_TOL),
        _row("product at gains (1, -1)", report.unit_gain_product,
             UNIT_GAIN_PRODUCT, UNIT_GAIN_TOL),
        _row("duan sum", report.duan_sum, DUAN_SUM, DUAN_TOL),
        _row("optimal gain g_x (B|A)", report.optimal_gains_b_given_a.g_x,
             OPTIMAL_GAIN_X_B_GIVEN_A, OPTIMAL_GAIN_TOL),
        _row("optimal gain g_p (B|A)", report.optimal_gains_b_given_a.g_p,
             OPTIMAL_GAIN_P_B_GIVEN_A, OPTIMAL_GAIN_TOL),
        _row("conditional uncertainty ratio", report.conditional_uncertainty_ratio,
             CONDITIONAL_UNCERTAINTY_RATIO, CONDITIONAL_UNCERTAINTY_TOL),
        _row("overall efficiency (loss fit)", fit.xi,
             OVERALL_EFFICIENCY, OVERALL_EFFICIENCY_TOL),
        _row("preparation efficiency (loss budget)", eta_budget,
             PREP_EFFICIENCY, PREP_EFFICIENCY_TOL),
        _row("detection efficiency (0.92 / 0.95)",
             efficiency_decomposition(OVERALL_EFFICIENCY, PREP_EFFICIENCY),
             DETECTION_EFFICIENCY, DETECTION_EFFICIENCY_TOL),
        _row("detection efficiency (fit / budget)", efficiency_decomposition(fit.xi, eta_budget),
             DETECTION_EFFICIENCY, OVERALL_EFFICIENCY_TOL + PREP_EFFICIENCY_TOL),
    ]
    extras = []
    # checked before the sampled rerun, so a bad perturb fails before any sampling
    study = (None if perturb is None
             else perturbation_study(REFERENCE_MEASUREMENTS, perturb, seed=seed))

    if n is not None or dark_noise_db is not None:
        n = 1_000_000 if n is None else n
        base = criteria_report(reconstruct(measure_campaign(state, n, seed))).reid_b_given_a
        extras.append(_row(f"sampled reid B|A (n={n}, no dark noise)", base))
        if dark_noise_db is not None:
            dark = db_to_variance(dark_noise_db)
            sampled = measure_campaign(state, n, seed, dark)
            if not all(math.isfinite(v * v) for v in sampled.values()):
                raise ValueError(f"dark noise of {dark_noise_db:g} dB (variance {dark:.3g}) is too "
                                 "large: the sampled variances or their squares overflow")
            noisy = criteria_report(reconstruct(sampled)).reid_b_given_a
            extras.append(_row(f"sampled reid B|A (n={n}, dark {dark_noise_db:g} dB)", noisy))
            extras.append(_row("dark-noise shift of reid B|A", noisy - base))

    if study is not None:
        rows.append(_row(f"perturbation spread at {perturb:g} (1-sigma half-width)",
                         study["std"], 0.0, PERTURBATION_SPREAD_TOL))
        extras.append(_row("perturbation mean reid B|A", study["mean"]))
        extras.append(_row("perturbation fraction within +-0.005", study["fraction_within_0.005"]))
        extras.append(_row("perturbation 5-95% band low", study["q05"]))
        extras.append(_row("perturbation 5-95% band high", study["q95"]))
    return rows, extras
