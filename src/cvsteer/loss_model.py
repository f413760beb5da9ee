"""Inverse fitting of the overall efficiency through the source model.

A uniform efficiency xi commutes through the symmetric optical chain, so a
detected squeezed input obeys v -/+ = xi exp(-/+ 2r) + (1 - xi).  The fit
inverts that three-parameter model (r1, r2, xi) against the eight nonzero
entries of a measured covariance matrix.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .criteria import _joint_variances
from .gaussian import (CovarianceMatrix, PhysicalityWarning, UnphysicalStateError, _finite,
                       _integer, _moments, _real, _unphysical, _xp_of, build_epr_source)

__all__ = [
    "forward_covariance",
    "LossFit",
    "UnphysicalStateError",
    "fit_efficiency",
    "efficiency_decomposition",
    "budget_prep_efficiency",
    "detected_variance",
    "db_to_variance",
    "variance_to_db",
]

# Profile search: a scan of xi, then a root search for the profile's slope to _XI_RTOL.
_XI_SCAN = np.linspace(1e-6, 1.0, 41).tolist()
_XI_LANES = np.repeat(_XI_SCAN, 2).reshape(-1, 2)  # (xi, source) lanes, one row per xi
_XI_RTOL = 1e-13
_A_MAX = math.exp(20.0)  # a = exp(2r), r in [0, 10]
_ENTRY_MAX = math.sqrt(sys.float_info.max) / 8.0  # sums of squared entries stay finite


def db_to_variance(db: float) -> float:
    """Variance relative to vacuum for a level `db` decibels below it, a real number
    (gaussian._real, which passes +-inf and nan on); inf past the float range."""
    db = _real(db, "db_to_variance: db")
    try:
        return 10.0 ** (-db / 10.0)
    except OverflowError:
        return math.inf


def variance_to_db(variance: float) -> float:
    """Decibels below vacuum of a finite, positive variance; positive for squeezing."""
    variance = _finite(variance, "variance_to_db: variance")
    if variance <= 0.0:
        raise ValueError(f"variance_to_db: variance must be positive, got {variance}")
    return -10.0 * math.log10(variance)


def detected_variance(r: float, xi: float, antisqueezed: bool = False) -> float:
    """Detected variance of a squeezed input after uniform efficiency xi, real numbers
    (gaussian._real)."""
    r, xi = _real(r, "detected_variance: r"), _real(xi, "detected_variance: xi")
    sign = 2.0 if antisqueezed else -2.0
    return xi * math.exp(sign * r) + (1.0 - xi)


# The fit's model function is the source model itself.
forward_covariance = build_epr_source


@dataclass(frozen=True)
class LossFit:
    """Result of fitting (r1, r2, uniform xi) to a measured covariance matrix.  xi, r1, r2
    and residual are real numbers (gaussian._real), stored as floats, and iterations an
    integer (gaussian._integer), stored as an int."""

    xi: float
    r1: float
    r2: float
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        xi, r1, r2, residual = (_real(getattr(self, name), f"LossFit: {name}")
                                for name in ("xi", "r1", "r2", "residual"))
        iterations = _integer(self.iterations, "LossFit", "iterations")
        if not 0.0 < xi <= 1.0:
            raise ValueError(f"LossFit: xi must be in (0, 1], got {xi}")
        if residual < 0.0:
            raise ValueError(f"LossFit: residual must be >= 0, got {residual}")
        self.__dict__.update(xi=xi, r1=r1, r2=r2, residual=residual,  # frozen: no __setattr__
                             iterations=iterations)

    def detected_squeezing_db(self) -> tuple[float, float]:
        """Fitted detected squeezing levels of the two sources, in dB."""
        return (
            variance_to_db(detected_variance(self.r1, self.xi)),
            variance_to_db(detected_variance(self.r2, self.xi)),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _profile(xi: float, v_minus, v_plus):
    """The fit objective at xi, minimized over both sources' a = exp(2r) in [1, exp(20)].

    A source's squared mismatch (xi/a - u)^2 + (xi a - w)^2, u = v_minus - 1 + xi,
    w = v_plus - 1 + xi, is stationary at the positive roots of p(a) = xi a^4 -
    w a^3 + u a - xi: at most three (Descartes), the middle one a maximum.  With
    three, the smallest is below 1, as the four roots multiply to -1 and their
    pairwise products sum to 0; so the best a is the largest root or the bound 1.
    Newton runs down to that root from past w/xi, where p > 0 is convex, or from
    exp(20), where a root beyond stops it at once; it stops where p' <= 0 or a step
    does not shrink a.  A largest root below w/(2 xi), where p is concave, is the
    only root and lies below 1 (p(1) < 0 < p(w/(2 xi)) is impossible): the bound 1
    wins.  Returns the profile, the best a per source and the slope in xi, by the
    envelope theorem the partial derivative there.
    """
    profile = slope = 0.0
    best = []
    for vm, vp in zip(v_minus, v_plus):
        u, w = vm - 1.0 + xi, vp - 1.0 + xi
        m = max(w / xi, 1.0)  # p > 0 at the start, past w/xi, where p is convex
        a, step = math.inf, min(m + (abs(u) + xi) / (xi * m * m), _A_MAX)
        while step < a:
            a = step
            dp = (4.0 * xi * a - 3.0 * w) * a * a + u
            step = a - (((xi * a - w) * a * a + u) * a - xi) / dp if dp > 0.0 else a
        fit = math.inf
        for c in (max(a, 1.0), 1.0):
            miss_minus, miss_plus = xi / c - u, xi * c - w
            if miss_minus * miss_minus + miss_plus * miss_plus < fit:
                fit, a = miss_minus * miss_minus + miss_plus * miss_plus, c
        profile += fit
        slope += 2.0 * ((xi / a - u) * (1.0 / a - 1.0) + (xi * a - w) * (a - 1.0))
        best.append(a)
    return profile, best, slope


def _scan(v_minus, v_plus):
    """:func:`_profile` at every _XI_SCAN point, as one numpy pass over (xi, source) lanes.

    Returns the profiles, best a pairs and slopes as float lists, bit for bit
    those of the scalar kernel: the same products in the same order, and a
    lane moves only while its Newton step has dp > 0 and shrinks a.  A stopped
    lane recomputes the same verdict, so the pass ends when no lane moves.
    """
    # Silent like float arithmetic: large variances overflow, stopped lanes divide by dp <= 0.
    with np.errstate(all="ignore"):
        xi = _XI_LANES
        u, w = np.asarray(v_minus) - 1.0 + xi, np.asarray(v_plus) - 1.0 + xi
        m = np.maximum(w / xi, 1.0)
        a = np.minimum(m + (np.abs(u) + xi) / (xi * m * m), _A_MAX)
        xi4, w3 = 4.0 * xi, 3.0 * w
        while True:
            dp = (xi4 * a - w3) * a * a + u
            step = a - (((xi * a - w) * a * a + u) * a - xi) / dp
            move = (dp > 0.0) & (step < a)
            if not np.count_nonzero(move):
                break
            np.copyto(a, step, where=move)
        fit = np.inf
        for c in (np.maximum(a, 1.0), 1.0):
            miss_minus, miss_plus = xi / c - u, xi * c - w
            sq = miss_minus * miss_minus + miss_plus * miss_plus
            better = sq < fit
            fit, a = np.where(better, sq, fit), np.where(better, c, a)
        slope = 2.0 * ((xi / a - u) * (1.0 / a - 1.0) + (xi * a - w) * (a - 1.0))
    # summed from 0.0 as in the scalar kernel, so a -0.0 slope sums to 0.0
    return ((0.0 + fit[:, 0] + fit[:, 1]).tolist(), a.tolist(),
            (0.0 + slope[:, 0] + slope[:, 1]).tolist())


def fit_efficiency(gamma_measured: CovarianceMatrix) -> LossFit:
    """Fit the three-parameter loss model to a reconstructed covariance matrix.

    Expects a two-mode matrix (gaussian._moments) with zero X-P cross terms (the
    reconstruction output shape); one below the physicality gate is fitted with a
    PhysicalityWarning, as reconstruct returns it.  Minimizes the sum of
    squared differences over the eight nonzero entries.  In the symmetric
    model those entries are an orthonormal linear map of the four effective
    source variances, so the sum splits into the squared distance of the model
    variances from v = (v1-, v1+, v2-, v2+), read off the matrix, plus a
    constant.  The fit profiles out r1 and r2 exactly and searches xi alone: a
    scan of xi over [1e-6, 1] (:func:`_scan`), then a root search for the
    profile's slope between the best scan point and the neighbour its slope
    points to, to a relative tolerance of _XI_RTOL; the best point evaluated wins.
    The residual is the RMS mismatch of the eight entries at the fit, by that
    split sqrt((profile + constant) / 8).
    iterations counts profile evaluations; converged is False if the root
    search missed its tolerance, the slope kept its sign across an interior
    bracket, or a second, separated scan basin lies within 1e-9 relative of
    the best objective.  A minimum on a scan bound whose slope points outward
    (or is 0), such as xi = 1, is a valid fit.
    """
    xa, pa, xb, pb, cov_x, cov_p = _moments(gamma_measured, "fit_efficiency", "gamma_measured")
    e = gamma_measured.entries.ravel().tolist()
    largest = max(map(abs, e))
    if largest > _ENTRY_MAX:
        raise ValueError(f"fit_efficiency: entries up to {largest:.3g} are too large; "
                         f"the fit squares them (at most {_ENTRY_MAX:.3g})")
    cross = max(map(abs, _xp_of(e)))
    if cross > 1e-9 * max(1.0, xa, pa, xb, pb):
        raise ValueError("fit_efficiency: expected zero X-P cross terms "
                         f"(reconstruction output shape), found {cross:.3g}")
    if message := _unphysical(gamma_measured, "fit_efficiency"):
        warnings.warn(PhysicalityWarning(message), stacklevel=2)

    # Half of Var(X_A - X_B), Var(P_A + P_B) and, with the covariances negated,
    # of Var(X_A + X_B), Var(P_A - P_B).
    v_minus = [0.5 * v for v in _joint_variances(xa, pa, xb, pb, cov_x, cov_p)]
    v_plus = [0.5 * v for v in _joint_variances(xa, pa, xb, pb, -cov_x, -cov_p)[::-1]]
    scan, best_a, slopes = _scan(v_minus, v_plus)
    k = min(range(len(scan)), key=scan.__getitem__)
    seen = {_XI_SCAN[i]: (scan[i], best_a[i], slopes[i])
            for i in range(max(k - 1, 0), min(k + 2, len(_XI_SCAN)))}
    scanned = len(seen)

    def slope(xi):
        if xi not in seen:
            seen[xi] = _profile(xi, v_minus, v_plus)
        return seen[xi][2]

    # The slope's sign at the best point picks the neighbour that brackets the
    # minimum with it.  On a scan bound it may point outward (or be 0): xi stands.
    j = k + 1 if slopes[k] < 0 else k - 1
    found = slopes[k] == 0 or not 0 <= j < len(_XI_SCAN)
    if not found and not (slopes[j] > 0 < slopes[k] or slopes[j] < 0 > slopes[k]):
        lo, hi = sorted((_XI_SCAN[j], _XI_SCAN[k]))
        found = brentq(slope, lo, hi, xtol=_XI_RTOL * _XI_SCAN[0], rtol=_XI_RTOL,
                       full_output=True, disp=False)[1].converged
    xi = min(seen, key=lambda x: seen[x][0])
    best, a, _ = seen[xi]

    # The entry sum is the profile plus the part of g that no model reaches.  A
    # second scan basin, apart from the best one, that ties it leaves xi ambiguous.
    offset = 0.5 * ((xa - xb) ** 2 + (pa - pb) ** 2)
    tie = (best + offset) * (1.0 + 1e-9)
    padded = [math.inf, *scan, math.inf]
    unique = not any(p <= padded[i] and p <= padded[i + 2] and p + offset <= tie
                     for i, p in enumerate(scan) if abs(i - k) > 1)

    r1, r2 = (0.5 * math.log(x) for x in a)
    return LossFit(
        xi=xi,
        r1=r1,
        r2=r2,
        residual=math.sqrt((best + offset) / 8),
        iterations=len(_XI_SCAN) + len(seen) - scanned,
        converged=found and unique,
    )


def efficiency_decomposition(xi: float, eta_prep: float) -> float:
    """Detection efficiency implied by overall and preparation efficiencies, real numbers
    (gaussian._real)."""
    xi = _real(xi, "efficiency_decomposition: xi")
    eta_prep = _real(eta_prep, "efficiency_decomposition: eta_prep")
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
    visibility enters squared (mode-mismatch loss 1 - V^2).  Each is a real number
    (gaussian._real).
    """
    internal_loss, propagation_loss, visibility = (
        _real(v, f"budget_prep_efficiency: {name}") for name, v in
        (("internal_loss", internal_loss), ("propagation_loss", propagation_loss),
         ("visibility", visibility)))
    for name, v in (("internal_loss", internal_loss), ("propagation_loss", propagation_loss)):
        if not 0.0 <= v < 1.0:
            raise ValueError(f"budget_prep_efficiency: {name} must be in [0, 1), got {v}")
    if not 0.0 < visibility <= 1.0:
        raise ValueError(
            f"budget_prep_efficiency: visibility must be in (0, 1], got {visibility}"
        )
    return (1.0 - internal_loss) * (1.0 - propagation_loss) * visibility ** 2
