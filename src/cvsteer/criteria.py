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

from .gaussian import CovarianceMatrix, _moments, _record

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


def _terms(m, quad: str, direction: str) -> tuple:
    """(Var O_target, Var O_steering, Cov) in the moments m for the labels, which it checks."""
    key = str(quad).lower(), str(direction).lower()
    if key not in _TERMS:
        raise ValueError(f"quad must be 'x' or 'p' and direction 'b|a' or 'a|b', "
                         f"got {quad!r}, {direction!r}")
    i, j, k = _TERMS[key]
    return m[i], m[j], m[k]


def _conditional(v_t, v_s, cov, gain=None):
    """(gain, Var(O_target - gain O_steering)) from Var O_target, Var O_steering and their
    Cov, as floats or arrays; gain None takes the optimum Cov / Var(O_steering)."""
    if gain is None:
        gain = cov / v_s
    return gain, v_t + gain * gain * v_s - 2.0 * gain * cov


def _optimal_factor(m, quad: str, direction: str, who: str) -> tuple:
    """_conditional's (gain, variance) at the optimal gain for the labels in the moments m; a
    gain Cov/Var that overflows is refused, naming `who`, the report field and the quotient."""
    v_t, v_s, cov = _terms(m, quad, direction)
    gain, variance = _conditional(v_t, v_s, cov)
    if not math.isfinite(gain):
        raise ValueError(f"{who}: optimal_gains_{str(direction).lower().replace('|', '_given_')}: "
                         f"g_{str(quad).lower()} = Cov/Var = {cov!r}/{v_s!r} overflows the float range")
    return gain, variance


def _steers(x: tuple, p: tuple, v_tx, v_sx, cov_x, v_tp, v_sp, cov_p) -> bool:
    """Whether the product of the X and P factors x and p, the (gain, variance) of
    _conditional on (v_tx, v_sx, cov_x) and on (v_tp, v_sp, cov_p), is below REID_BOUND by
    more than its rounding bound 4 eps (S_x |p| + S_p |x|), S being a factor's term
    magnitude v_t + g^2 v_s + 2 |g cov|."""
    (g_x, v_x), (g_p, v_p) = x, p
    if not v_x * v_p < REID_BOUND:
        return False
    s_x = v_tx + g_x * g_x * v_sx + 2.0 * abs(g_x * cov_x)
    s_p = v_tp + g_p * g_p * v_sp + 2.0 * abs(g_p * cov_p)
    return v_x * v_p < REID_BOUND - 4.0 * _EPS * (s_x * abs(v_p) + s_p * abs(v_x))


def _joint_variances(xa, pa, xb, pb, cov_x, cov_p):
    """Var(X_A - X_B) and Var(P_A + P_B) from the moments, as floats or arrays."""
    return xa + xb - 2.0 * cov_x, pa + pb + 2.0 * cov_p


def conditional_variance(state: CovarianceMatrix, quad: str, direction: str,
                         gain: float) -> float:
    """Var(O_target - gain * O_steering) from the covariance entries.  A gain that is not
    finite is refused, as by GainPair, and so is a variance that is not finite."""
    terms = _terms(_moments(state), quad, direction)
    if not math.isfinite(gain):
        raise ValueError(f"conditional_variance: gain must be finite, got {gain!r}")
    value = float(_conditional(*terms, gain)[1])
    if not math.isfinite(value):
        raise ValueError(f"conditional_variance: the {str(quad).upper()} "
                         f"{str(direction).upper()} variance at gain {gain!r} is {value!r}, "
                         "not a finite number")
    return value


def optimal_gain(state: CovarianceMatrix, quad: str, direction: str) -> float:
    """Gain minimizing the conditional variance: Cov(O_A, O_B) / Var(O_steering), if finite."""
    return _optimal_factor(_moments(state), quad, direction, "optimal_gain")[0]


def reid_product(state: CovarianceMatrix, direction: str,
                 gains: GainPair | str = "optimal") -> float:
    """Product of the X and P conditional variances for the given direction.

    With gains="optimal" each factor is minimized over its gain, which equals
    the closed form Var(O_B) - Cov(O_A, O_B)^2 / Var(O_A) entrywise.  An overflowed
    optimal gain, or a product at explicit gains that is not finite, is refused.
    """
    m = _moments(state)
    if gains == "optimal":
        (_, v_x), (_, v_p) = (_optimal_factor(m, quad, direction, "reid_product") for quad in "xp")
        return float(v_x * v_p)
    x, p = _terms(m, "x", direction), _terms(m, "p", direction)
    if not isinstance(gains, GainPair):
        raise ValueError(f"gains must be a GainPair or 'optimal', got {gains!r}")
    value = float(_conditional(*x, gains.g_x)[1] * _conditional(*p, gains.g_p)[1])
    if not math.isfinite(value):
        raise ValueError(f"reid_product: the {str(direction).upper()} product at {gains!r} is "
                         f"{value!r}, not a finite number")
    return value


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
    does not steer.  The Duan flag likewise needs the sum below 4 by more than
    its rounding bound 4 eps (Var X_A + Var X_B + Var P_A + Var P_B
    + 2 (|Cov X| + |Cov P|)), so a passive mix of vacuum, whose sum rounds to
    just below 4, is not flagged inseparable.  The conditional
    uncertainty ratio is the geometric mean of the two B|A conditional
    variances, i.e. sqrt(reid_b_given_a), 0 for a product rounded below 0.
    The unit-gain product is the product of the joint variances, bit for bit that of
    the factors at UNIT_GAINS (b + a == a + b and x - (-y) == x + y exactly).  An
    optimal gain Cov/Var that overflows is refused with a ValueError naming it.
    """
    m = xa, pa, xb, pb, cx, cp = _moments(state)
    xba, pba = _conditional(xb, xa, cx), _conditional(pb, pa, cp)
    xab, pab = _conditional(xa, xb, cx), _conditional(pa, pb, cp)
    if not (math.isfinite(xba[0]) and math.isfinite(pba[0])
            and math.isfinite(xab[0]) and math.isfinite(pab[0])):
        for quad, direction in _TERMS:  # field order: the first overflowed gain is named
            _optimal_factor(m, quad, direction, "criteria_report")
    reid_ba, reid_ab = xba[1] * pba[1], xab[1] * pab[1]
    x_diff, p_sum = _joint_variances(xa, pa, xb, pb, cx, cp)
    duan = x_diff + p_sum
    return _record(
        CriteriaReport,
        reid_b_given_a=reid_ba,
        reid_a_given_b=reid_ab,
        duan_sum=duan,
        unit_gain_product=x_diff * p_sum,
        optimal_gains_b_given_a=_record(GainPair, g_x=xba[0], g_p=pba[0]),
        optimal_gains_a_given_b=_record(GainPair, g_x=xab[0], g_p=pab[0]),
        conditional_variances={"x_b_given_a": xba[1], "p_b_given_a": pba[1],
                               "x_a_given_b": xab[1], "p_a_given_b": pab[1]},
        steering_b_given_a=_steers(xba, pba, xb, xa, cx, pb, pa, cp),
        steering_a_given_b=_steers(xab, pab, xa, xb, cx, pa, pb, cp),
        duan_inseparable=duan < DUAN_BOUND - 4.0 * _EPS * (xa + xb + pa + pb
                                                         + 2.0 * (abs(cx) + abs(cp))),
        # a product rounded below 0 at the Cauchy-Schwarz bound is clamped, as in
        # gaussian._decoupled_nu_squared
        conditional_uncertainty_ratio=math.sqrt(max(reid_ba, 0.0)),
    )
