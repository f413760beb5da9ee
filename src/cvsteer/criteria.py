"""Conditional-variance steering and inseparability criteria for two-mode states.

The steering product multiplies the two conditional variances
min_g Var(O_target - g O_steering) for O in {X, P}; a product below 1
certifies steering of the target party by the steering party.  The
inseparability sum Var(X_A - X_B) + Var(P_A + P_B) certifies entanglement
below 4 in vacuum units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix

REID_BOUND = 1.0
DUAN_BOUND = 4.0

_QUAD_OFFSET = {"x": 0, "p": 1}
# (target mode, steering mode): direction "b|a" means A steers B's outcome.
_DIRECTIONS = {"b|a": (1, 0), "a|b": (0, 1)}


@dataclass(frozen=True)
class GainPair:
    """Scaling factors applied to the steering party's X and P outcomes.

    g_p is the literal multiplier in Var(P_target - g_p P_steering), so the
    conventional "+" combination Var(P_A + P_B) corresponds to g_p = -1.
    """

    g_x: float
    g_p: float

    def __post_init__(self):
        if not (math.isfinite(self.g_x) and math.isfinite(self.g_p)):
            raise ValueError("GainPair: gains must be finite")

    def to_dict(self) -> dict:
        return {"g_x": self.g_x, "g_p": self.g_p}


UNIT_GAINS = GainPair(1.0, -1.0)


def _require_two_mode(state: CovarianceMatrix):
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.n_modes} modes")


def _indices(quad: str, direction: str) -> tuple[int, int]:
    try:
        off = _QUAD_OFFSET[quad.lower()]
        target, steer = _DIRECTIONS[direction.lower()]
    except KeyError:
        raise ValueError(
            f"quad must be 'x' or 'p' and direction 'b|a' or 'a|b', "
            f"got {quad!r}, {direction!r}"
        ) from None
    return 2 * target + off, 2 * steer + off


def conditional_variance(state: CovarianceMatrix, quad: str, direction: str,
                         gain: float) -> float:
    """Var(O_target - gain * O_steering) from the covariance entries."""
    _require_two_mode(state)
    t, s = _indices(quad, direction)
    g = state.entries
    return float(g[t, t] + gain * gain * g[s, s] - 2.0 * gain * g[t, s])


def optimal_gain(state: CovarianceMatrix, quad: str, direction: str) -> float:
    """Gain minimizing the conditional variance: Cov(O_A, O_B) / Var(O_steering)."""
    _require_two_mode(state)
    t, s = _indices(quad, direction)
    var_s = state.entries[s, s]
    if var_s <= 0.0:
        raise ValueError("optimal_gain: steering-party variance is degenerate (zero)")
    return float(state.entries[t, s] / var_s)


def _conditional_variances(state: CovarianceMatrix, direction: str,
                           gains: GainPair | str) -> tuple[GainPair, float, float]:
    """The gains used and the X and P conditional variances at them."""
    if gains == "optimal":
        gains = GainPair(optimal_gain(state, "x", direction), optimal_gain(state, "p", direction))
    elif not isinstance(gains, GainPair):
        raise ValueError(f"gains must be a GainPair or 'optimal', got {gains!r}")
    return (gains, conditional_variance(state, "x", direction, gains.g_x),
            conditional_variance(state, "p", direction, gains.g_p))


def reid_product(state: CovarianceMatrix, direction: str,
                 gains: GainPair | str = "optimal") -> float:
    """Product of the X and P conditional variances for the given direction.

    With gains="optimal" each factor is minimized over its gain, which equals
    the closed form Var(O_B) - Cov(O_A, O_B)^2 / Var(O_A) entrywise.
    """
    _, vx, vp = _conditional_variances(state, direction, gains)
    return vx * vp


def duan_sum(state: CovarianceMatrix) -> float:
    """Var(X_A - X_B) + Var(P_A + P_B); below 4 the state is inseparable."""
    _require_two_mode(state)
    g = state.entries
    var_x_diff = g[0, 0] + g[2, 2] - 2.0 * g[0, 2]
    var_p_sum = g[1, 1] + g[3, 3] + 2.0 * g[1, 3]
    return float(var_x_diff + var_p_sum)


@dataclass(frozen=True)
class CriteriaReport:
    """Consolidated evaluation of the steering and inseparability criteria."""

    reid_b_given_a: float
    reid_a_given_b: float
    duan_sum: float
    unit_gain_product: float
    optimal_gains_b_given_a: GainPair
    optimal_gains_a_given_b: GainPair
    conditional_variances: dict
    steering_b_given_a: bool
    steering_a_given_b: bool
    duan_inseparable: bool
    conditional_uncertainty_ratio: float

    def to_dict(self) -> dict:
        return {
            "reid_b_given_a": self.reid_b_given_a,
            "reid_a_given_b": self.reid_a_given_b,
            "duan_sum": self.duan_sum,
            "unit_gain_product": self.unit_gain_product,
            "optimal_gains_b_given_a": self.optimal_gains_b_given_a.to_dict(),
            "optimal_gains_a_given_b": self.optimal_gains_a_given_b.to_dict(),
            "conditional_variances": dict(self.conditional_variances),
            "steering_b_given_a": self.steering_b_given_a,
            "steering_a_given_b": self.steering_a_given_b,
            "duan_inseparable": self.duan_inseparable,
            "conditional_uncertainty_ratio": self.conditional_uncertainty_ratio,
        }


def criteria_report(state: CovarianceMatrix) -> CriteriaReport:
    """Evaluate both steering directions, the unit-gain product and the Duan sum.

    Steering flags use strict inequality against the bounds (product < 1,
    sum < 4).  The conditional uncertainty ratio is the geometric mean of the
    two B|A conditional variances, i.e. sqrt(reid_b_given_a).
    """
    gains_ba, x_ba, p_ba = _conditional_variances(state, "b|a", "optimal")
    gains_ab, x_ab, p_ab = _conditional_variances(state, "a|b", "optimal")
    cond = {"x_b_given_a": x_ba, "p_b_given_a": p_ba, "x_a_given_b": x_ab, "p_a_given_b": p_ab}
    reid_ba, reid_ab = x_ba * p_ba, x_ab * p_ab
    duan = duan_sum(state)
    return CriteriaReport(
        reid_b_given_a=reid_ba,
        reid_a_given_b=reid_ab,
        duan_sum=duan,
        unit_gain_product=reid_product(state, "b|a", UNIT_GAINS),
        optimal_gains_b_given_a=gains_ba,
        optimal_gains_a_given_b=gains_ab,
        conditional_variances=cond,
        steering_b_given_a=reid_ba < REID_BOUND,
        steering_a_given_b=reid_ab < REID_BOUND,
        duan_inseparable=duan < DUAN_BOUND,
        conditional_uncertainty_ratio=float(np.sqrt(reid_ba)),
    )
