import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from cvsteer import (
    CovarianceMatrix,
    LossChannel,
    SourceParams,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    build_epr_source,
    compose,
    optimal_gain,
    phase_shift,
    reconstruct,
    squeezer,
    vacuum_state,
)
from cvsteer.loss_model import _A_MAX
from cvsteer.reference import REFERENCE_MEASUREMENTS, REID_B_GIVEN_A, reference_state
from cvsteer.sampler import _sqrt_factor, canonical_settings


@pytest.fixture
def ref_ms():
    return REFERENCE_MEASUREMENTS


@pytest.fixture
def ref_state():
    return reference_state()


def random_transform(rng, n_modes=2):
    """Random symplectic built from a few squeezers, rotations and splitters.

    Squeezing is capped so covariance entries stay ~1e3; eigensolver noise on
    the symplectic spectrum then stays well below the 1e-9 physicality gate.
    """
    parts = []
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 3)
        if kind == 0:
            parts.append(squeezer(rng.uniform(-1.2, 1.2), rng.integers(0, n_modes), n_modes))
        elif kind == 1:
            parts.append(phase_shift(rng.uniform(-np.pi, np.pi),
                                     rng.integers(0, n_modes), n_modes))
        elif n_modes >= 2:
            a, b = rng.choice(n_modes, size=2, replace=False)
            parts.append(beamsplitter(rng.uniform(0.0, 1.0), int(a), int(b), n_modes))
        else:
            parts.append(phase_shift(rng.uniform(-np.pi, np.pi), 0, n_modes))
    return compose(*parts)


def random_physical_state(rng, n_modes=2, with_loss=True):
    """Random physical state: symplectic on vacuum, optionally with loss."""
    state = apply_symplectic(vacuum_state(n_modes), random_transform(rng, n_modes))
    if with_loss:
        for mode in range(n_modes):
            if rng.random() < 0.7:
                state = apply_loss(state, LossChannel(mode, rng.uniform(0.3, 1.0),
                                                      rng.uniform(0.0, 0.05)))
    return state


def random_single_mode_state(rng):
    """Random physical single-mode state: squeezed, rotated, lossy."""
    state = apply_symplectic(vacuum_state(1), squeezer(rng.uniform(-2.0, 2.0), 0, 1))
    state = apply_symplectic(state, phase_shift(rng.uniform(-np.pi, np.pi), 0, 1))
    if rng.random() < 0.8:
        state = apply_loss(state, LossChannel(0, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.1)))
    return state


def random_product_state(rng):
    """Two independent single-mode states as one separable two-mode state."""
    g1 = random_single_mode_state(rng).entries
    g2 = random_single_mode_state(rng).entries
    m = np.zeros((4, 4))
    m[:2, :2] = g1
    m[2:, 2:] = g2
    return CovarianceMatrix(n_modes=2, entries=m)


def random_source_state(rng):
    """Random source-model output; relative phase pi/2 keeps X-P cross terms zero."""
    params = SourceParams(
        r1=rng.uniform(0.0, 2.0),
        r2=rng.uniform(0.0, 2.0),
        eta_prep=rng.uniform(0.5, 1.0),
        eta_det_a=rng.uniform(0.5, 1.0),
        eta_det_b=rng.uniform(0.5, 1.0),
        dark_noise=rng.uniform(0.0, 0.01),
    )
    return build_epr_source(params)


def random_source_params(rng):
    """SourceParams with all eight fields drawn at random, up to ~22 dB of squeezing."""
    return SourceParams(
        r1=rng.uniform(0.0, 2.5),
        r2=rng.uniform(0.0, 2.5),
        relative_phase=rng.uniform(-math.pi, math.pi),
        transmittance=rng.uniform(0.0, 1.0),
        eta_prep=rng.uniform(0.05, 1.0),
        eta_det_a=rng.uniform(0.05, 1.0),
        eta_det_b=rng.uniform(0.05, 1.0),
        dark_noise=rng.uniform(0.0, 0.1),
    )


def reference_epr_chain(params):
    """The source chain applied element by element, each step a checked state.

    Reference for :func:`cvsteer.build_epr_source`, which evaluates the same
    chain in closed form.
    """
    state = vacuum_state(2)
    state = apply_symplectic(state, squeezer(params.r1, 0, 2))
    state = apply_symplectic(state, squeezer(params.r2, 1, 2))
    state = apply_loss(state, LossChannel(0, params.eta_prep))
    state = apply_loss(state, LossChannel(1, params.eta_prep))
    state = apply_symplectic(state, phase_shift(params.relative_phase, 1, 2))
    state = apply_symplectic(state, beamsplitter(params.transmittance, 1, 0, 2))
    state = apply_loss(state, LossChannel(0, params.eta_det_a, params.dark_noise))
    state = apply_loss(state, LossChannel(1, params.eta_det_b, params.dark_noise))
    return state


def reference_projection_campaign(state, n_per_setting, seed, dark_noise=0.0):
    """The six campaign variances from the projected samples, chunk by chunk.

    Reference for :func:`cvsteer.measure_campaign`, which forms the same sums
    from the sufficient statistics of the draws.  Each chunk of the shared
    latent stream is projected onto the six settings, each setting's dark
    noise is added column by column, and the sums of the values and of their
    squares are accumulated.
    """
    settings = canonical_settings()
    sq = _sqrt_factor(state)
    weights = np.stack([sq @ s.projection_vector() for s in settings], axis=1)
    dark_scale = [math.sqrt(dark_noise * s.dark_factor()) for s in settings]
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    dark_rngs = [np.random.default_rng(np.random.SeedSequence([seed, i + 1]))
                 for i in range(len(settings))]
    s1 = np.zeros(6)
    s2 = np.zeros(6)
    chunk = 1 << 19
    for start in range(0, n_per_setting, chunk):
        c = min(chunk, n_per_setting - start)
        x = rng.standard_normal((c, 4)) @ weights
        if dark_noise > 0.0:
            for i, dark_rng in enumerate(dark_rngs):
                x[:, i] += dark_scale[i] * dark_rng.standard_normal(c)
        s1 += x.sum(axis=0)
        s2 += np.einsum("ij,ij->j", x, x)
    n = n_per_setting
    return (s2 - s1 * s1 / n) / (n - 1)


def reference_sample_quadratures(state, setting, n, seed):
    """One setting's samples, dark noise off, from one (n, 4) draw.

    Reference for :func:`cvsteer.sample_quadratures`, which projects the same
    latent stream chunk by chunk through the campaign's draw generator.
    """
    w = _sqrt_factor(state) @ setting.projection_vector()
    return np.random.default_rng(np.random.SeedSequence([seed])).standard_normal((n, 4)) @ w


_REFERENCE_INDICES = {("x", "b|a"): (2, 0), ("p", "b|a"): (3, 1),
                      ("x", "a|b"): (0, 2), ("p", "a|b"): (1, 3)}


def reference_criteria(state, g_x, g_p):
    """The criteria as each per-state function computed them, indexing the entries.

    Reference for :mod:`cvsteer.criteria` and :func:`cvsteer.expected_measurements`,
    which read the six second moments once and evaluate shared kernels.  Returns
    the optimal gain and the conditional variances at (g_x, g_p) and at the
    optimum per (quad, direction), the Reid products at both per direction, the
    Duan sum, the ``criteria_report`` dict and the expected measurement values.
    """
    g = state.entries

    def conditional_variance(key, gain):
        t, s = _REFERENCE_INDICES[key]
        return float(g[t, t] + gain * gain * g[s, s] - 2.0 * gain * g[t, s])

    def optimal_gain(key):
        t, s = _REFERENCE_INDICES[key]
        return float(g[t, s] / g[s, s])

    fixed = {"x": g_x, "p": g_p}
    gains = {key: optimal_gain(key) for key in _REFERENCE_INDICES}
    at_fixed = {key: conditional_variance(key, fixed[key[0]]) for key in _REFERENCE_INDICES}
    at_optimum = {key: conditional_variance(key, gains[key]) for key in _REFERENCE_INDICES}
    reid = {d: at_optimum["x", d] * at_optimum["p", d] for d in ("b|a", "a|b")}

    def steers(d):
        # below 1 by more than the product's rounding bound 4 eps (S_x |p| + S_p |x|)
        size = {}
        for quad in "xp":
            t, s = _REFERENCE_INDICES[quad, d]
            gain = gains[quad, d]
            size[quad] = float(g[t, t] + gain * gain * g[s, s] + 2.0 * abs(gain * g[t, s]))
        x, p = at_optimum["x", d], at_optimum["p", d]
        return reid[d] < 1.0 - 4.0 * math.ulp(1.0) * (size["x"] * abs(p) + size["p"] * abs(x))

    var_x_diff = g[0, 0] + g[2, 2] - 2.0 * g[0, 2]
    var_p_sum = g[1, 1] + g[3, 3] + 2.0 * g[1, 3]
    duan = float(var_x_diff + var_p_sum)
    report = {
        "reid_b_given_a": reid["b|a"],
        "reid_a_given_b": reid["a|b"],
        "duan_sum": duan,
        "unit_gain_product": (conditional_variance(("x", "b|a"), 1.0)
                              * conditional_variance(("p", "b|a"), -1.0)),
        "optimal_gains_b_given_a": {"g_x": gains["x", "b|a"], "g_p": gains["p", "b|a"]},
        "optimal_gains_a_given_b": {"g_x": gains["x", "a|b"], "g_p": gains["p", "a|b"]},
        "conditional_variances": {"x_b_given_a": at_optimum["x", "b|a"],
                                  "p_b_given_a": at_optimum["p", "b|a"],
                                  "x_a_given_b": at_optimum["x", "a|b"],
                                  "p_a_given_b": at_optimum["p", "a|b"]},
        "steering_b_given_a": steers("b|a"),
        "steering_a_given_b": steers("a|b"),
        "duan_inseparable": duan < 4.0,
        # a product rounded below 0 at the Cauchy-Schwarz bound gives 0
        "conditional_uncertainty_ratio": math.sqrt(max(reid["b|a"], 0.0)),
    }
    return {
        "optimal_gain": gains,
        "conditional_variance": at_fixed,
        "conditional_variance_at_optimum": at_optimum,
        "reid_optimal": reid,
        "reid_fixed": {d: at_fixed["x", d] * at_fixed["p", d] for d in ("b|a", "a|b")},
        "duan_sum": duan,
        "criteria_report": report,
        "expected_measurements": (float(g[0, 0]), float(g[1, 1]), float(g[2, 2]), float(g[3, 3]),
                                  float(var_x_diff), float(var_p_sum)),
    }


def reference_reconstruct_entries(ms):
    """The reconstructed matrix entries, each covariance written out from the sum
    identity as :func:`cvsteer.reconstruct` used to form them (through the
    checked :func:`cvsteer.covariance_from_sum`)."""
    cov_x = -(0.5 * (ms.var_x_diff - ms.var_xa - ms.var_xb))
    cov_p = 0.5 * (ms.var_p_sum - ms.var_pa - ms.var_pb)
    m = np.array([
        [ms.var_xa, 0.0, cov_x, 0.0],
        [0.0, ms.var_pa, 0.0, cov_p],
        [cov_x, 0.0, ms.var_xb, 0.0],
        [0.0, cov_p, 0.0, ms.var_pb],
    ])
    return CovarianceMatrix(n_modes=2, entries=m).entries


def reference_perturbation_study(ms, relative_error, n_trials, seed):
    """The perturbation study with its covariances and conditional variances
    expanded by hand, as :func:`cvsteer.reference.perturbation_study` used to
    compute them; it now calls the criteria and reconstruction kernels.  The
    gains come from the library, as they did."""
    ms = dataclasses.replace(ms, relative_error=relative_error)
    rel = ms.relative_error
    base = reconstruct(ms)
    gx = optimal_gain(base, "x", "b|a")
    gp = optimal_gain(base, "p", "b|a")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    jitter = 1.0 + rel * rng.standard_normal((n_trials, 6))
    xa, pa, xb, pb, xd, ps = np.asarray(ms.values())[:, None] * jitter.T
    cov_x = 0.5 * (xa + xb - xd)
    cov_p = 0.5 * (ps - pa - pb)
    vx = xb + gx * gx * xa - 2.0 * gx * cov_x
    vp = pb + gp * gp * pa - 2.0 * gp * cov_p
    products = vx * vp
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


FIT_ENTRIES = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)]


def fit_objective(g, r1, r2, xi):
    """Sum of squared differences of the loss model at (r1, r2, xi) from g over
    the eight fitted entries."""
    model = build_epr_source(SourceParams(r1=r1, r2=r2, eta_prep=xi)).entries
    return sum((model[i] - g[i]) ** 2 for i in FIT_ENTRIES)


def reference_nelder_mead_fit(state):
    """The loss fit as a bounded Nelder-Mead search over (r1, r2, xi).

    Reference for :func:`cvsteer.fit_efficiency`, which profiles r1 and r2
    out exactly and searches xi alone.  A grid over xi in [0.7, 1] with r
    seeded in closed form from the anti-squeezed effective variances picks
    the start; Nelder-Mead refines all three parameters, capped at 1e4
    evaluations.  Returns (xi, r1, r2, objective).
    """
    g = state.entries

    def seed_r(xi):
        a_bar = 0.5 * (g[0, 0] + g[2, 2])
        b_bar = 0.5 * (g[1, 1] + g[3, 3])
        r1 = 0.5 * math.log(max((b_bar - g[1, 3] - 1.0 + xi) / xi, 1.0))
        r2 = 0.5 * math.log(max((a_bar + g[0, 2] - 1.0 + xi) / xi, 1.0))
        return r1, r2

    def objective(p):
        return fit_objective(g, *p)

    start = min(((*seed_r(xi), xi) for xi in np.linspace(0.70, 1.00, 31)), key=objective)
    res = minimize(objective, x0=start, method="Nelder-Mead",
                   bounds=[(0.0, 10.0), (0.0, 10.0), (1e-6, 1.0)],
                   options={"xatol": 1e-8, "fatol": 1e-16, "maxfev": 10_000})
    r1, r2, xi = res.x
    return float(xi), float(r1), float(r2), float(res.fun)


def reference_profile(xi, v_minus, v_plus):
    """The fit objective at each xi, minimized over both sources' squeezing,
    with every root of the stationarity quartic from one batched eigvals.

    Reference for :func:`cvsteer.loss_model._profile`, which finds the largest
    root by Newton's method.  For fixed xi a source's squared mismatch
    (xi/a - u)^2 + (xi a - w)^2, with a = exp(2r), u = v_minus - 1 + xi and
    w = v_plus - 1 + xi, is stationary at the roots of xi a^4 - w a^3 + u a - xi,
    the eigenvalues of its companion matrix; the best of their real parts
    clipped to [1, exp(20)] and the two bounds wins.  Returns the profile (k,),
    the best a (k, 2) and the profile's slope in xi (k,).
    """
    xi = np.asarray(xi, dtype=float)
    x = xi[:, None]
    u = np.asarray(v_minus) - 1.0 + x
    w = np.asarray(v_plus) - 1.0 + x
    companion = np.zeros((len(xi), 2, 4, 4))
    companion[..., 0, 0] = w / x
    companion[..., 0, 2] = -u / x
    companion[..., 0, 3] = companion[..., 1, 0] = companion[..., 2, 1] = companion[..., 3, 2] = 1.0
    a = np.empty((len(xi), 2, 6))
    a[..., :4] = np.clip(np.linalg.eigvals(companion).real, 1.0, _A_MAX)
    a[..., 4:] = [1.0, _A_MAX]
    x, u, w = x[..., None], u[..., None], w[..., None]
    a = np.take_along_axis(a, ((x / a - u) ** 2 + (x * a - w) ** 2).argmin(axis=-1)[..., None], -1)
    miss_minus, miss_plus = x / a - u, x * a - w
    profile = (miss_minus ** 2 + miss_plus ** 2).sum(axis=(1, 2))
    slope = 2.0 * (miss_minus * (1.0 / a - 1.0) + miss_plus * (a - 1.0)).sum(axis=(1, 2))
    return profile, a[..., 0], slope


# Two-mode diagonals, with their physicality, whose closed-form spectrum would
# underflow or overflow, so that is_physical hands them to eigvals
TRAP_DIAGONALS = [
    ([5e-324] * 4, False),              # t underflows to 0
    ([1e100, 1e100, 1.0, 1.0], True),   # the discriminant overflows
    ([1e100] * 4, True),                # d overflows
    ([1e160] * 4, True),                # t overflows
]
