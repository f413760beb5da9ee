"""Inverse fitting of the overall efficiency through the source model.

A uniform efficiency xi commutes through the symmetric optical chain, so a
detected squeezed input obeys v -/+ = xi exp(-/+ 2r) + (1 - xi).  The fit
inverts that three-parameter model (r1, r2, xi) against the eight nonzero
entries of a measured covariance matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .criteria import _joint_variances, _moments
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

# Profile search: a scan of xi, then a root search for the profile's slope to _XI_RTOL.
_XI_SCAN = np.linspace(1e-6, 1.0, 41)
_XI_RTOL = 1e-13
_A_MAX = math.exp(20.0)  # a = exp(2r), r in [0, 10]
_A_BOUNDS = np.array([1.0, _A_MAX])
_ENTRY_MAX = math.sqrt(sys.float_info.max) / 8.0  # sums of squared entries stay finite
_FIT_ENTRIES = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]


def db_to_variance(db: float) -> float:
    """Variance relative to vacuum for a level `db` decibels below it; inf past the float range."""
    try:
        return 10.0 ** (-db / 10.0)
    except OverflowError:
        return math.inf


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
        return asdict(self)


def _profile(xi: np.ndarray, v_minus: np.ndarray, v_plus: np.ndarray):
    """The fit objective at each xi, minimized over both sources' squeezing.

    For fixed xi a source's squared mismatch (xi/a - u)^2 + (xi a - w)^2, with
    a = exp(2r), u = v_minus - 1 + xi and w = v_plus - 1 + xi, is stationary
    at the roots of xi a^4 - w a^3 + u a - xi.  One batched eigvals of the
    stacked companion matrices gives every root; the best of their real parts
    clipped to [1, exp(20)] (r in [0, 10]) and the two bounds wins.  Returns
    the profile (k,), the best a (k, 2) and the profile's slope in xi, which
    by the envelope theorem is the partial derivative at the best a.
    """
    x = xi[:, None]
    u = v_minus - 1.0 + x
    w = v_plus - 1.0 + x
    companion = np.zeros((len(xi), 2, 4, 4))
    companion[..., 0, 0] = w / x
    companion[..., 0, 2] = -u / x
    companion[..., 0, 3] = companion[..., 1, 0] = companion[..., 2, 1] = companion[..., 3, 2] = 1.0
    a = np.empty((len(xi), 2, 6))
    a[..., :4] = np.clip(np.linalg.eigvals(companion).real, 1.0, _A_MAX)
    a[..., 4:] = _A_BOUNDS
    x, u, w = x[..., None], u[..., None], w[..., None]
    a = np.take_along_axis(a, ((x / a - u) ** 2 + (x * a - w) ** 2).argmin(axis=-1)[..., None], -1)
    miss_minus, miss_plus = x / a - u, x * a - w
    profile = (miss_minus ** 2 + miss_plus ** 2).sum(axis=(1, 2))
    slope = 2.0 * (miss_minus * (1.0 / a - 1.0) + miss_plus * (a - 1.0)).sum(axis=(1, 2))
    return profile, a[..., 0], slope


def fit_efficiency(gamma_measured: CovarianceMatrix) -> LossFit:
    """Fit the three-parameter loss model to a reconstructed covariance matrix.

    Expects a two-mode physical matrix with zero X-P cross terms (the
    reconstruction output shape).  Minimizes the sum of squared differences
    over the eight nonzero entries.  In the symmetric model those entries are
    an orthonormal linear map of the four effective source variances, so the
    sum splits into the squared distance of the model variances from
    v = (v1-, v1+, v2-, v2+), read off the matrix, plus a constant.  The fit
    profiles out r1 and r2 exactly (:func:`_profile`) and searches xi alone:
    a scan of xi over [1e-6, 1], then a root search for the profile's slope
    between the best scan point and the neighbour its slope points to, to a
    relative tolerance of _XI_RTOL; the best point evaluated wins.
    The residual is the RMS entry mismatch of the forward model at the fit.
    iterations counts profile evaluations; converged is False if the root
    search missed its tolerance, the slope kept its sign across an interior
    bracket, or a second, separated scan basin lies within 1e-9 relative of
    the best objective.  A minimum on a scan bound whose slope points outward
    (or is 0), such as xi = 1, is a valid fit.
    """
    if gamma_measured.n_modes != 2:
        raise ValueError("fit_efficiency: state must have exactly 2 modes")
    if not is_physical(gamma_measured):
        raise ValueError("fit_efficiency: input matrix is unphysical")
    g = gamma_measured.entries
    if np.abs(g).max() > _ENTRY_MAX:
        raise ValueError(f"fit_efficiency: entries up to {np.abs(g).max():.3g} are too large; "
                         f"the fit squares them (at most {_ENTRY_MAX:.3g})")
    cross = max(abs(g[0, 1]), abs(g[0, 3]), abs(g[2, 1]), abs(g[2, 3]))
    if cross > 1e-9 * max(1.0, g.diagonal().max()):
        raise ValueError("fit_efficiency: expected zero X-P cross terms "
                         f"(reconstruction output shape), found {cross:.3g}")

    # Half of Var(X_A - X_B), Var(P_A + P_B) and, with the covariances negated,
    # of Var(X_A + X_B), Var(P_A - P_B).
    xa, pa, xb, pb, cov_x, cov_p = _moments(gamma_measured)
    v_minus = 0.5 * np.array(_joint_variances(xa, pa, xb, pb, cov_x, cov_p))
    v_plus = 0.5 * np.array(_joint_variances(xa, pa, xb, pb, -cov_x, -cov_p)[::-1])
    scan, scan_a, scan_slope = _profile(_XI_SCAN, v_minus, v_plus)
    k = int(scan.argmin())
    seen = {float(_XI_SCAN[i]): (scan[i], scan_a[i], scan_slope[i])
            for i in range(max(k - 1, 0), min(k + 2, len(_XI_SCAN)))}
    scanned = len(seen)

    def slope(xi):
        if xi not in seen:
            seen[xi] = tuple(p[0] for p in _profile(np.array([xi]), v_minus, v_plus))
        return seen[xi][2]

    # The slope's sign at the best point picks the neighbour that brackets the
    # minimum with it.  On a scan bound it may point outward (or be 0): xi stands.
    j = k + 1 if scan_slope[k] < 0 else k - 1
    found = scan_slope[k] == 0 or not 0 <= j < len(_XI_SCAN)
    if not found and np.sign(scan_slope[j]) != np.sign(scan_slope[k]):
        lo, hi = sorted((float(_XI_SCAN[j]), float(_XI_SCAN[k])))
        found = brentq(slope, lo, hi, xtol=_XI_RTOL * _XI_SCAN[0], rtol=_XI_RTOL,
                       full_output=True, disp=False)[1].converged
    xi = min(seen, key=lambda x: seen[x][0])
    best, a, _ = seen[xi]

    # The entry sum is the profile plus the part of g that no model reaches.  A
    # second scan basin, apart from the best one, that ties it leaves xi ambiguous.
    offset = 0.5 * ((xa - xb) ** 2 + (pa - pb) ** 2)
    padded = np.concatenate(([np.inf], scan, [np.inf]))
    basins = (scan <= padded[:-2]) & (scan <= padded[2:]) & (abs(np.arange(len(scan)) - k) > 1)
    unique = not np.any(scan[basins] + offset <= (best + offset) * (1.0 + 1e-9))

    r1, r2 = (0.5 * np.log(a)).tolist()
    model = build_epr_source(SourceParams(r1=r1, r2=r2, eta_prep=xi)).entries
    residual = math.sqrt(sum((model[i] - g[i]) ** 2 for i in _FIT_ENTRIES) / len(_FIT_ENTRIES))
    return LossFit(
        xi=xi,
        r1=r1,
        r2=r2,
        residual=residual,
        iterations=len(_XI_SCAN) + len(seen) - scanned,
        converged=bool(found) and unique,
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
