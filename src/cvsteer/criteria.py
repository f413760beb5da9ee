"""Conditional-variance steering and inseparability criteria for two-mode states.

The steering product multiplies the two conditional variances
min_g Var(O_target - g O_steering) for O in {X, P}; a product below 1
certifies steering of the target party by the steering party.  The
inseparability sum Var(X_A - X_B) + Var(P_A + P_B) certifies entanglement
below 4 in vacuum units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import CovarianceMatrix, _moments

REID_BOUND = 1.0
DUAN_BOUND = 4.0
_EPS = math.ulp(1.0)

# (quad, direction) -> positions of (Var O_target, Var O_steering, Cov) in the moments
# (Var X_A, Var P_A, Var X_B, Var P_B, Cov X, Cov P); "b|a" means A steers B's outcome.
_TERMS = {("x", "b|a"): (2, 0, 4), ("p", "b|a"): (3, 1, 5),
          ("x", "a|b"): (0, 2, 4), ("p", "a|b"): (1, 3, 5)}


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
        return asdict(self)


UNIT_GAINS = GainPair(1.0, -1.0)


def _key(quad: str, direction: str) -> tuple[str, str]:
    key = str(quad).lower(), str(direction).lower()
    if key not in _TERMS:
        raise ValueError(f"quad must be 'x' or 'p' and direction 'b|a' or 'a|b', "
                         f"got {quad!r}, {direction!r}")
    return key


def _conditional(m, key: tuple[str, str], gain=None):
    """(gain, Var(O_target - gain O_steering)) over moments m of floats or arrays;
    gain None takes the optimum Cov / Var(O_steering)."""
    i, j, k = _TERMS[key]
    v_t, v_s, cov = m[i], m[j], m[k]
    if gain is None:
        gain = cov / v_s
    return gain, v_t + gain * gain * v_s - 2.0 * gain * cov


def _steers(m, direction: str, x: tuple, p: tuple) -> bool:
    """Whether the product of the X and P factors x and p, each a (gain, variance) of
    _conditional for the direction, is below REID_BOUND by more than its rounding bound
    4 eps (S_x |p| + S_p |x|), S being a factor's term magnitude v_t + g^2 v_s + 2 |g cov|."""
    (g_x, v_x), (g_p, v_p) = x, p
    if not v_x * v_p < REID_BOUND:
        return False
    (i, j, k), (a, b, c) = _TERMS["x", direction], _TERMS["p", direction]
    s_x = m[i] + g_x * g_x * m[j] + 2.0 * abs(g_x * m[k])
    s_p = m[a] + g_p * g_p * m[b] + 2.0 * abs(g_p * m[c])
    return v_x * v_p < REID_BOUND - 4.0 * _EPS * (s_x * abs(v_p) + s_p * abs(v_x))


def _joint_variances(xa, pa, xb, pb, cov_x, cov_p):
    """Var(X_A - X_B) and Var(P_A + P_B) from the moments, as floats or arrays."""
    return xa + xb - 2.0 * cov_x, pa + pb + 2.0 * cov_p


def conditional_variance(state: CovarianceMatrix, quad: str, direction: str,
                         gain: float) -> float:
    """Var(O_target - gain * O_steering) from the covariance entries."""
    return float(_conditional(_moments(state), _key(quad, direction), gain)[1])


def optimal_gain(state: CovarianceMatrix, quad: str, direction: str) -> float:
    """Gain minimizing the conditional variance: Cov(O_A, O_B) / Var(O_steering)."""
    return _conditional(_moments(state), _key(quad, direction))[0]


def reid_product(state: CovarianceMatrix, direction: str,
                 gains: GainPair | str = "optimal") -> float:
    """Product of the X and P conditional variances for the given direction.

    With gains="optimal" each factor is minimized over its gain, which equals
    the closed form Var(O_B) - Cov(O_A, O_B)^2 / Var(O_A) entrywise.
    """
    m, (_, d) = _moments(state), _key("x", direction)
    if gains != "optimal" and not isinstance(gains, GainPair):
        raise ValueError(f"gains must be a GainPair or 'optimal', got {gains!r}")
    g_x, g_p = (None, None) if gains == "optimal" else (gains.g_x, gains.g_p)
    return float(_conditional(m, ("x", d), g_x)[1] * _conditional(m, ("p", d), g_p)[1])


def duan_sum(state: CovarianceMatrix) -> float:
    """Var(X_A - X_B) + Var(P_A + P_B); below 4 the state is inseparable."""
    return sum(_joint_variances(*_moments(state)))


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
        return asdict(self)


def criteria_report(state: CovarianceMatrix) -> CriteriaReport:
    """Evaluate both steering directions, the unit-gain product and the Duan sum.

    A steering flag needs the product below 1 by more than its rounding bound
    (see _steers), so a product state whose product rounds to just below 1
    does not steer; the Duan flag is the strict sum < 4.  The conditional
    uncertainty ratio is the geometric mean of the two B|A conditional
    variances, i.e. sqrt(reid_b_given_a).
    """
    m = _moments(state)
    xba, pba = _conditional(m, ("x", "b|a")), _conditional(m, ("p", "b|a"))
    xab, pab = _conditional(m, ("x", "a|b")), _conditional(m, ("p", "a|b"))
    reid_ba, reid_ab = xba[1] * pba[1], xab[1] * pab[1]
    duan = sum(_joint_variances(*m))
    return CriteriaReport(
        reid_b_given_a=reid_ba,
        reid_a_given_b=reid_ab,
        duan_sum=duan,
        unit_gain_product=(_conditional(m, ("x", "b|a"), UNIT_GAINS.g_x)[1]
                           * _conditional(m, ("p", "b|a"), UNIT_GAINS.g_p)[1]),
        optimal_gains_b_given_a=GainPair(xba[0], pba[0]),
        optimal_gains_a_given_b=GainPair(xab[0], pab[0]),
        conditional_variances={"x_b_given_a": xba[1], "p_b_given_a": pba[1],
                               "x_a_given_b": xab[1], "p_a_given_b": pab[1]},
        steering_b_given_a=_steers(m, "b|a", xba, pba),
        steering_a_given_b=_steers(m, "a|b", xab, pab),
        duan_inseparable=duan < DUAN_BOUND,
        # math.sqrt would raise on a product rounded below 0, where np.sqrt gives nan
        conditional_uncertainty_ratio=(math.sqrt(reid_ba) if reid_ba >= 0.0
                                       else float(np.sqrt(reid_ba))),
    )
