"""Seeded Monte Carlo homodyne sampling from a covariance matrix.

Serves as the statistical oracle for the analytic pipeline: single-quadrature
and two-detector samples, variance estimates, and the six-measurement
reconstruction campaign with detector dark noise.  The campaign projects its
settings from one shared latent stream z, as in simultaneous acquisition of
the commuting combinations (the reconstruction identity then cancels common
fluctuations), plus independent per-setting dark noise d, row i seeded as
(seed, i + 1).  Each sample is linear in (z, d), so :func:`measure_campaign`
accumulates only their sufficient statistics, chunk by chunk, and projects
once at the end; :func:`campaign_batches` and :func:`sample_quadratures`
project the same draws onto their settings, chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (CovarianceMatrix, UnphysicalStateError, _by_value, _finite, _instance,
                       _integer, _mode_index, _moments, _real, _unphysical)
from .reconstruction import MeasurementSet

# Rows drawn per campaign chunk: small enough that the draw buffers stay in
# cache, and fixed so results never depend on n-dependent batching.
_CHUNK = 1 << 14

@dataclass(frozen=True)
class MeasurementSetting:
    """One homodyne acquisition: the linear form c_a q_A(angle_a) + c_b q_B(angle_b)
    of the two detector outputs, with q(angle) = cos(angle) X + sin(angle) P.

    A single quadrature of mode 0 or 1 has coefficients (1, 0) or (0, 1); a
    joint setting is the passively subtracted (or summed) output of both
    detectors.  The default is X_A.  The angles and the pair of coefficients (c_a, c_b)
    are finite real numbers (gaussian._finite), stored as floats.
    """

    angle_a: float = 0.0
    angle_b: float = 0.0
    coefficients: tuple = (1.0, 0.0)

    def __post_init__(self):
        angle_a = _finite(self.angle_a, "MeasurementSetting: angle_a")
        angle_b = _finite(self.angle_b, "MeasurementSetting: angle_b")
        pair = self.coefficients
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"MeasurementSetting: coefficients must be a tuple or list of two, "
                             f"got {pair!r}")
        c_a, c_b = (_finite(c, f"MeasurementSetting: c_{m}") for m, c in zip("ab", pair))
        if c_a == 0.0 and c_b == 0.0:
            raise ValueError("MeasurementSetting: coefficients must not both be zero")
        self.__dict__.update(angle_a=angle_a, angle_b=angle_b, coefficients=(c_a, c_b))  # frozen

    @classmethod
    def single(cls, mode: int, angle: float = 0.0) -> "MeasurementSetting":
        """The quadrature at `angle` of mode 0 (A) or 1 (B), checked by gaussian._mode_index."""
        mode = _mode_index(mode, 2, "MeasurementSetting")
        return cls.joint(1.0, 0.0, angle) if mode == 0 else cls.joint(0.0, 1.0, 0.0, angle)

    @classmethod
    def joint(cls, c_a: float, c_b: float, angle_a: float = 0.0,
              angle_b: float = 0.0) -> "MeasurementSetting":
        return cls(angle_a=angle_a, angle_b=angle_b, coefficients=(c_a, c_b))

    def projection_vector(self) -> np.ndarray:
        """The form's weights on (X_A, P_A, X_B, P_B)."""
        c_a, c_b = self.coefficients
        return np.array([c_a * math.cos(self.angle_a), c_a * math.sin(self.angle_a),
                         c_b * math.cos(self.angle_b), c_b * math.sin(self.angle_b)])

    def dark_factor(self) -> float:
        """Dark-noise variance multiplier: each detector's noise weighted by its
        squared coefficient, exactly 1 for a single quadrature."""
        c_a, c_b = self.coefficients
        return c_a * c_a + c_b * c_b

    def label(self) -> str:
        """The CSV label: a canonical setting's name, else its single(...) or joint(...) form."""
        if self in _CANONICAL:
            return _CANONICAL[self]
        c_a, c_b = self.coefficients
        if (c_a, c_b) == (1.0, 0.0):
            return f"single(mode=0,angle={self.angle_a:g})"
        if (c_a, c_b) == (0.0, 1.0):
            return f"single(mode=1,angle={self.angle_b:g})"
        return (f"joint(ca={c_a:g},cb={c_b:g},"
                f"angle_a={self.angle_a:g},angle_b={self.angle_b:g})")


# The six campaign settings in campaign order, with their CSV labels.
_CANONICAL = {
    MeasurementSetting.single(0, 0.0): "x_a",
    MeasurementSetting.single(0, math.pi / 2): "p_a",
    MeasurementSetting.single(1, 0.0): "x_b",
    MeasurementSetting.single(1, math.pi / 2): "p_b",
    MeasurementSetting.joint(1.0, -1.0): "x_a-x_b",
    MeasurementSetting.joint(1.0, 1.0, math.pi / 2, math.pi / 2): "p_a+p_b",
}


@_by_value("values", hashable=False)
@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Finite sample set drawn for one setting, with its seed for replay.  setting is a
    MeasurementSetting (gaussian._instance); seed and n are integers (gaussian._integer), stored
    as ints.  Equal by value; unhashable, as its values are writeable."""

    setting: MeasurementSetting
    values: np.ndarray
    seed: int
    n: int

    def __post_init__(self):
        _instance(self.setting, MeasurementSetting, "SampleBatch", "setting")
        seed, n = _integer(self.seed, "SampleBatch", "seed"), _integer(self.n, "SampleBatch", "n")
        vals = np.asarray(self.values, dtype=float)
        if n != len(vals) or n < 2:
            raise ValueError(f"SampleBatch: need n == len(values) >= 2, got n={n}")
        self.__dict__.update(values=vals, seed=seed, n=n)  # frozen: no __setattr__


def canonical_settings() -> list[MeasurementSetting]:
    """The six campaign settings: X_A, P_A, X_B, P_B, X_A - X_B, P_A + P_B."""
    return list(_CANONICAL)


def _sqrt_factor(state: CovarianceMatrix) -> np.ndarray:
    """Symmetric (spectral) square root of the covariance matrix.

    The factorization choice is an internal detail; it is deterministic for a
    given numpy version, which is what the fixed-seed replay contract needs.
    """
    lam, q = np.linalg.eigh(state.entries)
    return q @ np.diag(np.sqrt(lam)) @ q.T


def sample_quadratures(state: CovarianceMatrix, setting: MeasurementSetting,
                       n: int, seed: int, dark_noise: float = 0.0) -> SampleBatch:
    """Draw n independent scalar samples of the setting's linear form.

    Each sample projects a fresh correlated quadrature vector drawn through
    the symmetric square root of gamma, so equal seeds reuse the same latent
    vectors across settings; with dark_noise = 0 a joint combination agrees
    sample-by-sample with the same combination of the single-quadrature
    batches at that seed (up to float rounding).  Dark noise adds variance
    dark_noise per involved detector, drawn from the stream seeded
    (seed, 1), the campaign's X_A dark stream.  setting is a MeasurementSetting
    (gaussian._instance), n and seed are read by gaussian._integer, dark_noise by gaussian._real
    and the state by gaussian._moments (both as "sampler").
    """
    _instance(setting, MeasurementSetting, "sample_quadratures", "setting")
    n = _integer(n, "sample_quadratures", "n")
    seed = _integer(seed, "sample_quadratures", "seed")
    if n < 2:
        raise ValueError(f"sample_quadratures: n must be >= 2, got {n}")
    values = _samples(state, [setting], n, seed, dark_noise)[0]
    return SampleBatch(setting=setting, values=values, seed=seed, n=n)


def sample_variance(batch: SampleBatch) -> float:
    """Unbiased estimator sum((x - mean)^2) / (n - 1)."""
    _instance(batch, SampleBatch, "sample_variance", "batch")
    return float(np.var(batch.values, ddof=1))


def _campaign_projection(state: CovarianceMatrix, settings: list[MeasurementSetting],
                         dark_noise: float):
    """Weights W (4 x k), dark scales a (k,) and the dark-noise variance read by gaussian._real:
    setting i samples z @ W[:, i] + a[i] * d[i].  The state is read by gaussian._moments, as
    "sampler"."""
    dark_noise = _real(dark_noise, "sampler: dark_noise")
    _moments(state, "sampler")
    if message := _unphysical(state, "sampler"):
        raise UnphysicalStateError(message)
    if not 0.0 <= dark_noise < math.inf:
        raise ValueError(f"sampler: dark_noise must be >= 0, got {dark_noise} (finite values only)")
    sq = _sqrt_factor(state)
    weights = np.stack([sq @ s.projection_vector() for s in settings], axis=1)
    dark_scale = np.array([math.sqrt(dark_noise * s.dark_factor()) for s in settings])
    return weights, dark_scale, dark_noise


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream seeded (seed, *key), for a seed its caller has read by
    gaussian._integer; seed must be >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _campaign_draws(n: int, seed: int, dark_scale: np.ndarray):
    """Yield the draws chunk by chunk as (z, d), in reused buffers.

    z (c x 4) is the shared latent stream, seeded as (seed,).  d (k x c) is
    the detector noise, one row per setting with row i seeded as (seed, i + 1),
    or None when no setting has dark noise.  Consume each chunk before
    drawing the next.
    """
    rng = _stream(seed)
    dark_rngs = [_stream(seed, i + 1) for i in range(len(dark_scale))] if dark_scale.any() else []
    z_buf = np.empty((min(n, _CHUNK), 4))
    d_buf = np.empty((len(dark_rngs), len(z_buf)))
    for start in range(0, n, len(z_buf)):
        c = min(len(z_buf), n - start)
        for row, dark_rng in zip(d_buf, dark_rngs):
            dark_rng.standard_normal(out=row[:c])
        yield rng.standard_normal(out=z_buf[:c]), (d_buf[:, :c] if dark_rngs else None)


def _samples(state: CovarianceMatrix, settings: list[MeasurementSetting], n: int, seed: int,
             dark_noise: float) -> np.ndarray:
    """The k x n samples of the settings, built chunk by chunk from the campaign draws."""
    weights, dark_scale, _ = _campaign_projection(state, settings, dark_noise)
    return np.concatenate([(z @ weights).T if d is None else (z @ weights).T + dark_scale[:, None] * d
                           for z, d in _campaign_draws(n, seed, dark_scale)], axis=1)


def measure_campaign(state: CovarianceMatrix, n_per_setting: int, seed: int,
                     dark_noise: float = 0.0) -> MeasurementSet:
    """Simulate the six-measurement campaign and return its variance estimates.

    n_per_setting must be at least 3, so that the returned relative_error,
    sqrt(2 / n_per_setting), the relative one-sigma of a Gaussian variance
    estimate, is below 1.  Seed and counts are recorded in the metadata.
    Variances that overflow raise ValueError, naming the largest state entry
    and the dark-noise variance.  n_per_setting and seed are read by gaussian._integer,
    dark_noise by gaussian._real (as "sampler: dark_noise"), and recorded as they were read.
    Deterministic for fixed inputs; the estimates equal the sample variances
    of :func:`campaign_batches` up to float rounding.
    """
    n_per_setting = _integer(n_per_setting, "measure_campaign", "n_per_setting")
    seed = _integer(seed, "measure_campaign", "seed")
    if n_per_setting < 3:
        raise ValueError(f"measure_campaign: n_per_setting must be >= 3, got n={n_per_setting}")
    weights, dark_scale, dark_noise = _campaign_projection(state, canonical_settings(), dark_noise)
    gram, z_sum = np.zeros((4, 4)), np.zeros(4)
    dz, d_sum, dd = np.zeros((6, 4)), np.zeros(6), np.zeros(6)
    ones = np.ones(min(n_per_setting, _CHUNK))
    for z, d in _campaign_draws(n_per_setting, seed, dark_scale):
        gram += z.T @ z
        z_sum += ones[:len(z)] @ z
        if d is not None:
            dz += d @ z
            d_sum += d @ ones[:len(z)]
            dd += np.einsum("ij,ij->i", d, d)
    n = n_per_setting
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, by name
        s1 = z_sum @ weights + dark_scale * d_sum
        s2 = (np.einsum("ki,kl,li->i", weights, gram, weights)
              + dark_scale * (2.0 * np.einsum("ik,ki->i", dz, weights) + dark_scale * dd))
        variances = (s2 - s1 * s1 / n) / (n - 1)
    if not np.isfinite(variances).all():
        raise ValueError("measure_campaign: the sampled variances overflow (largest state "
                         f"entry {np.abs(state.entries).max():.6g}, "
                         f"dark-noise variance {dark_noise:.6g})")
    return MeasurementSet(
        *variances.tolist(),
        relative_error=math.sqrt(2.0 / n_per_setting),
        metadata={"seed": seed, "n_per_setting": n_per_setting, "dark_noise": dark_noise},
    )


def campaign_batches(state: CovarianceMatrix, n_per_setting: int, seed: int,
                     dark_noise: float = 0.0) -> list[SampleBatch]:
    """The raw per-setting samples behind :func:`measure_campaign`.

    Materializes the samples from the same draws the campaign reduces, so
    exported samples reproduce its variance estimates up to float rounding.  Its arguments
    are read as :func:`measure_campaign` reads them.
    """
    n_per_setting = _integer(n_per_setting, "campaign_batches", "n_per_setting")
    seed = _integer(seed, "campaign_batches", "seed")
    if n_per_setting < 2:
        raise ValueError(f"campaign_batches: n_per_setting must be >= 2, got {n_per_setting}")
    data = _samples(state, canonical_settings(), n_per_setting, seed, dark_noise)
    return [SampleBatch(setting=s, values=v, seed=seed, n=n_per_setting)
            for s, v in zip(canonical_settings(), data)]


def samples_to_csv(batches: list[SampleBatch]) -> str:
    """Raw sample export: one `setting,value` row per sample, of any iterable of SampleBatch,
    each tested by gaussian._instance as it is reached."""
    try:
        batches = iter(batches)
    except TypeError:
        raise ValueError(f"samples_to_csv: batches must be an iterable of SampleBatch, "
                         f"got {type(batches).__name__}") from None
    lines = ["setting,value"]
    for i, b in enumerate(batches):
        lab = _instance(b, SampleBatch, "samples_to_csv", f"batches[{i}]").setting.label()
        lines.extend(f"{lab},{v!r}" for v in b.values.tolist())
    return "\n".join(lines) + "\n"
