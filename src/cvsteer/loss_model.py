"""Inverse fitting of the overall efficiency through the source model.

A uniform efficiency xi commutes through the symmetric optical chain, so a
detected squeezed input obeys v -/+ = xi exp(-/+ 2r) + (1 - xi).  The fit
inverts that three-parameter model (r1, r2, xi) against the eight nonzero
entries of a measured covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gaussian import (
    CovarianceMatrix,
    SourceParams,
    build_epr_source,
    is_physical,
)

__all__ = [
    "forward_covariance",
    "LossFit",
    "fit_efficiency",
    "efficiency_decomposition",
    "budget_prep_efficiency",
    "detected_variance",
    "db_to_variance",
    "variance_to_db",
]

# Grid + refinement contract: coarse xi scan, then derivative-free local
# refinement well below the 1e-6 parameter tolerance, capped at 1e4 evaluations.
_XI_GRID = np.linspace(0.70, 1.00, 31)
_MAX_EVALS = 10_000
_FIT_ENTRIES = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]


def db_to_variance(db: float) -> float:
    """Variance relative to vacuum for a level `db` decibels below it."""
    return 10.0 ** (-db / 10.0)


def variance_to_db(variance: float) -> float:
    """Decibels below vacuum of a variance; positive for squeezing."""
    if variance <= 0.0:
        raise ValueError(f"variance_to_db: variance must be positive, got {variance}")
    return -10.0 * math.log10(variance)


def detected_variance(r: float, xi: float, antisqueezed: bool = False) -> float:
    """Detected variance of a squeezed input after uniform efficiency xi."""
    sign = 2.0 if antisqueezed else -2.0
    return xi * math.exp(sign * r) + (1.0 - xi)


# The fit's model function is the source model itself.
forward_covariance = build_epr_source


@dataclass(frozen=True)
class LossFit:
    """Result of fitting (r1, r2, uniform xi) to a measured covariance matrix."""

    xi: float
    r1: float
    r2: float
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"LossFit: xi must be in (0, 1], got {self.xi}")
        if self.residual < 0.0:
            raise ValueError(f"LossFit: residual must be >= 0, got {self.residual}")

    def detected_squeezing_db(self) -> tuple[float, float]:
        """Fitted detected squeezing levels of the two sources, in dB."""
        return (
            variance_to_db(detected_variance(self.r1, self.xi)),
            variance_to_db(detected_variance(self.r2, self.xi)),
        )

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "r1": self.r1,
            "r2": self.r2,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _objective(p, measured: np.ndarray) -> float:
    # Uniform xi commutes through the chain; fold it all into eta_prep.  Grid
    # points and bounded Nelder-Mead vertices all lie in SourceParams' domain.
    r1, r2, xi = p
    model = build_epr_source(SourceParams(r1=r1, r2=r2, eta_prep=xi)).entries
    return sum((model[i] - measured[i]) ** 2 for i in _FIT_ENTRIES)


def _seed_r(measured: np.ndarray, xi: float) -> tuple[float, float]:
    """Closed-form r estimates from the anti-squeezed effective variances.

    The symmetric model maps the averaged diagonals and the covariances back
    to the four effective single-source variances; the anti-squeezed pair
    dominates a raw-entry least-squares residual, so it seeds r.
    """
    a_bar = 0.5 * (measured[0, 0] + measured[2, 2])
    b_bar = 0.5 * (measured[1, 1] + measured[3, 3])
    v1_plus = b_bar - measured[1, 3]
    v2_plus = a_bar + measured[0, 2]
    r1 = 0.5 * math.log(max((v1_plus - 1.0 + xi) / xi, 1.0))
    r2 = 0.5 * math.log(max((v2_plus - 1.0 + xi) / xi, 1.0))
    return r1, r2


def fit_efficiency(gamma_measured: CovarianceMatrix) -> LossFit:
    """Fit the three-parameter loss model to a reconstructed covariance matrix.

    Expects a two-mode physical matrix with zero X-P cross terms (the
    reconstruction output shape).  Minimizes the sum of squared differences
    over the eight nonzero entries: a coarse grid over xi in [0.7, 1.0]
    (step 0.01, ties to the lower xi) with closed-form-seeded r values picks
    the start, then Nelder-Mead refines all three parameters.  The residual
    is the RMS entry mismatch of the best fit; converged is False if the
    evaluation cap was exhausted first (best-so-far is still returned).
    """
    if gamma_measured.n_modes != 2:
        raise ValueError("fit_efficiency: state must have exactly 2 modes")
    if not is_physical(gamma_measured):
        raise ValueError("fit_efficiency: input matrix is unphysical")
    g = gamma_measured.entries
    cross = max(abs(g[0, 1]), abs(g[0, 3]), abs(g[2, 1]), abs(g[2, 3]))
    if cross > 1e-9 * max(1.0, g.diagonal().max()):
        raise ValueError("fit_efficiency: expected zero X-P cross terms "
                         f"(reconstruction output shape), found {cross:.3g}")

    best = None
    for xi in _XI_GRID:
        r1, r2 = _seed_r(g, xi)
        f = _objective((r1, r2, xi), g)
        if best is None or f < best[0]:
            best = (f, r1, r2, xi)
    res = minimize(
        _objective,
        x0=best[1:],
        args=(g,),
        method="Nelder-Mead",
        bounds=[(0.0, 10.0), (0.0, 10.0), (1e-6, 1.0)],
        options={"xatol": 1e-8, "fatol": 1e-16, "maxfev": _MAX_EVALS},
    )
    r1, r2, xi = res.x
    return LossFit(
        xi=float(xi),
        r1=float(r1),
        r2=float(r2),
        residual=math.sqrt(res.fun / len(_FIT_ENTRIES)),
        iterations=int(res.nit),
        converged=bool(res.success),
    )


def efficiency_decomposition(xi: float, eta_prep: float) -> float:
    """Detection efficiency implied by overall and preparation efficiencies."""
    if not 0.0 < eta_prep <= 1.0:
        raise ValueError(f"efficiency_decomposition: eta_prep must be in (0, 1], got {eta_prep}")
    if not 0.0 < xi:
        raise ValueError(f"efficiency_decomposition: xi must be positive, got {xi}")
    if xi > eta_prep:
        raise ValueError(
            f"efficiency_decomposition: xi = {xi} exceeds eta_prep = {eta_prep}; "
            "detection efficiency cannot exceed 1"
        )
    return xi / eta_prep


def budget_prep_efficiency(internal_loss: float, propagation_loss: float,
                           visibility: float) -> float:
    """Preparation efficiency from the loss budget.

    eta = (1 - internal_loss)(1 - propagation_loss) V^2; the fringe
    visibility enters squared (mode-mismatch loss 1 - V^2).
    """
    for name, v in (("internal_loss", internal_loss), ("propagation_loss", propagation_loss)):
        if not 0.0 <= v < 1.0:
            raise ValueError(f"budget_prep_efficiency: {name} must be in [0, 1), got {v}")
    if not 0.0 < visibility <= 1.0:
        raise ValueError(
            f"budget_prep_efficiency: visibility must be in (0, 1], got {visibility}"
        )
    return (1.0 - internal_loss) * (1.0 - propagation_loss) * visibility ** 2
