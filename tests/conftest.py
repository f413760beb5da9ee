import math

import numpy as np
import pytest

from cvsteer import (
    CovarianceMatrix,
    LossChannel,
    SourceParams,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    build_epr_source,
    compose,
    phase_shift,
    squeezer,
    vacuum_state,
)
from cvsteer.reference import REFERENCE_MEASUREMENTS, reference_state
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
