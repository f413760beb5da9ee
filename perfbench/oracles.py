"""Reference answers for the benchmark, computed without cvsteer.

Every formula here works on plain floats or numpy arrays, so a defect in the
package cannot hide in its own check.  Quadrature ordering is (X_A, P_A, X_B,
P_B) and variances are in vacuum units, as in cvsteer.
"""

from __future__ import annotations

import numpy as np

CLOSURE_TOL = 0.01        # acceptance criterion 7: within 1% of the analytic value
CLOSURE_PASS_FRAC = 0.95  # ... for at least 95% of seeds
FIT_XI_TOL = 0.01
ANALYZE_RTOL = 1e-12


def db_to_variance(db: float) -> float:
    return 10.0 ** (-db / 10.0)


def criteria_of_matrix(m: np.ndarray) -> tuple[float, float, float]:
    """(Reid B|A, Reid A|B, Duan sum) of a 4x4 covariance matrix at optimal gains."""
    xa, pa, xb, pb = m[0, 0], m[1, 1], m[2, 2], m[3, 3]
    cx, cp = m[0, 2], m[1, 3]
    reid_ba = (xb - cx * cx / xa) * (pb - cp * cp / pa)
    reid_ab = (xa - cx * cx / xb) * (pa - cp * cp / pb)
    duan = (xa + xb - 2.0 * cx) + (pa + pb + 2.0 * cp)
    return float(reid_ba), float(reid_ab), float(duan)


def closure_miss(values, truth) -> float:
    """Largest relative deviation of sampled criteria from the analytic ones."""
    return max(abs(v / t - 1.0) for v, t in zip(values, truth))


def fit_mismatch(xi: float, converged: bool, xi_true: float) -> str | None:
    """Noise-free fits must converge and recover the true efficiency."""
    if not converged:
        return "fit did not converge on noise-free data"
    if abs(xi - xi_true) > FIT_XI_TOL:
        return f"xi = {xi:.6f}, truth {xi_true:.6f}"
    return None


def analyze_expected(row) -> list[tuple[str, float, float]]:
    """(name, value, scale) for each quantity derived from the six variances.

    Uses the perturbation-study formulas: cov_x = (xa + xb - xd) / 2,
    cov_p = (ps - pa - pb) / 2 and Var(O_t - g O_s) at g = Cov / Var(O_s).
    The scale is the summed magnitude of the terms, so the comparison is
    relative to the size of the inputs rather than to a result that may
    come from cancellation.
    """
    xa, pa, xb, pb, xd, ps = row
    cx = 0.5 * (xa + xb - xd)
    cp = 0.5 * (ps - pa - pb)
    out = [
        ("cov_x", cx, 0.5 * (xa + xb + xd)),
        ("cov_p", cp, 0.5 * (ps + pa + pb)),
    ]
    for name, vt, vs, cov in (("x_b_given_a", xb, xa, cx), ("p_b_given_a", pb, pa, cp),
                              ("x_a_given_b", xa, xb, cx), ("p_a_given_b", pa, pb, cp)):
        g = cov / vs
        out.append((name, vt + g * g * vs - 2.0 * g * cov, vt + g * g * vs + 2.0 * abs(g * cov)))
    out.append(("duan_sum", (xa + xb - 2.0 * cx) + (pa + pb + 2.0 * cp),
                xa + xb + pa + pb + 2.0 * (abs(cx) + abs(cp))))
    return out


def analyze_mismatch(row, got: dict) -> str | None:
    for name, want, scale in analyze_expected(row):
        if not abs(got[name] - want) <= ANALYZE_RTOL * scale:
            return f"{name} = {got[name]!r}, expected {want!r}"
    return None
