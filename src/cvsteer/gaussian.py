"""Covariance-matrix representation of zero-mean Gaussian states.

States are 2n x 2n real symmetric second-moment matrices over the quadratures
(X1, P1, X2, P2, ...), normalized so the vacuum has unit variance in every
quadrature.  Lossless optics act as symplectic matrices (S @ gamma @ S.T),
loss as a vacuum admixture channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
SYMPLECTIC_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
_R_MAX = 0.5 * math.log(np.finfo(float).max)  # largest r with exp(2 r) finite


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode.

    Cached and returned read-only; treat as a constant.
    """
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    m = np.kron(np.eye(n_modes), omega)
    m.setflags(write=False)
    return m


def _json_object(d, what: str, fields=None):
    """Check that d is a JSON object with no field outside `fields` (None: any)."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(d if fields is None else fields)
    if unknown:
        raise ValueError(f"{what} JSON: unknown field(s) {sorted(unknown)}")


def _no_bools(value):
    """value, unless a JSON boolean, which float() and numpy read as 0 or 1, is in it
    at any depth: then the TypeError of a non-numeric field."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            raise TypeError(f"{str(v).lower()} is not a number")
        stack.extend(v if isinstance(v, list) else ())
    return value


def _as_checked_matrix(entries, n_modes: int, what: str) -> np.ndarray:
    m = np.array(entries, dtype=float)
    if n_modes < 1:
        raise ValueError(f"{what}: n_modes must be >= 1, got {n_modes}")
    if m.shape != (2 * n_modes, 2 * n_modes):
        raise ValueError(
            f"{what}: expected shape {(2 * n_modes, 2 * n_modes)}, got {m.shape}"
        )
    if not np.isfinite(m).all():
        raise ValueError(f"{what}: entries must be finite")
    return m


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments of the quadratures of an n-mode zero-mean Gaussian state.

    entries[2m] is the X quadrature of mode m, entries[2m+1] its P quadrature;
    vacuum is the identity.  Symmetry and positive definiteness are enforced at
    construction; physicality (symplectic eigenvalues >= 1) is checked on
    demand via :func:`is_physical`.
    """

    n_modes: int
    entries: np.ndarray

    def __post_init__(self):
        m = _as_checked_matrix(self.entries, self.n_modes, "CovarianceMatrix")
        # an exactly symmetric matrix, (0.0, -0.0) pairs included, is kept as given
        if not (m == m.T).all():
            asym = np.abs(m - m.T)
            tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(m))
            if (asym > tol).any():
                i, j = np.unravel_index(np.argmax(asym - tol), m.shape)
                raise ValueError(
                    f"CovarianceMatrix: not symmetric at ({i},{j}): "
                    f"{m[i, j]!r} vs {m[j, i]!r}"
                )
            # 0.5 a + 0.5 b cannot overflow; equal pairs stay as given, as halving
            # rounds odd subnormals
            m = np.where(asym == 0.0, m, 0.5 * m + 0.5 * m.T)
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("CovarianceMatrix: matrix is not positive definite") from None
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "ordering": "x1p1x2p2",
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CovarianceMatrix":
        _json_object(d, "CovarianceMatrix")
        ordering = d.get("ordering", "x1p1x2p2")
        if ordering != "x1p1x2p2":
            raise ValueError(f"CovarianceMatrix JSON: unsupported ordering {ordering!r}")
        try:
            n_modes, entries = d["n_modes"], np.array(_no_bools(d["entries"]), dtype=float)
            if isinstance(n_modes, (bool, str)) or isinstance(n_modes, float) and not n_modes.is_integer():
                raise ValueError(f"CovarianceMatrix JSON: n_modes must be an integer, got {n_modes!r}")
            n_modes = int(n_modes)
        except KeyError as exc:
            raise ValueError(f"CovarianceMatrix JSON: missing field {exc}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"CovarianceMatrix JSON: non-numeric field ({exc})") from None
        return cls(n_modes=n_modes, entries=entries)


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear quadrature map S with S @ Omega @ S.T = Omega (lossless optics)."""

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_checked_matrix(self.matrix, self.n_modes, "SymplecticTransform")
        omega = symplectic_form(self.n_modes)
        if np.max(np.abs(m @ omega @ m.T - omega)) > SYMPLECTIC_ATOL:
            raise ValueError("SymplecticTransform: S Omega S^T != Omega")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class LossChannel:
    """Vacuum admixture with efficiency eta plus additive excess noise.

    excess_noise is an additive variance on the affected mode's diagonal
    block, e.g. homodyne detector dark noise in vacuum units.
    """

    mode_index: int
    efficiency: float
    excess_noise: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"LossChannel: efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.excess_noise < math.inf:
            raise ValueError(
                f"LossChannel: excess_noise must be finite, >= 0, got {self.excess_noise}")


def _check_mode(mode: int, n_modes: int):
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")


def vacuum_state(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum: unit variance in every quadrature, no correlations."""
    if n_modes < 1:
        raise ValueError(f"vacuum_state: n_modes must be >= 1, got {n_modes}")
    return CovarianceMatrix(n_modes=n_modes, entries=np.eye(2 * n_modes))


def squeezer(r: float, mode: int, n_modes: int) -> SymplecticTransform:
    """Single-mode squeezer: X -> exp(-r) X, P -> exp(+r) P on `mode`.

    r > 0 squeezes the amplitude quadrature X (variance exp(-2r) on vacuum).
    """
    if not math.isfinite(r):
        raise ValueError(f"squeezer: r must be finite, got {r}")
    _check_mode(mode, n_modes)
    m = np.eye(2 * n_modes)
    m[2 * mode, 2 * mode] = math.exp(-r)
    m[2 * mode + 1, 2 * mode + 1] = math.exp(r)
    return SymplecticTransform(n_modes=n_modes, matrix=m)


def phase_shift(theta: float, mode: int, n_modes: int) -> SymplecticTransform:
    """Rotation by theta of the (X, P) plane of `mode`; pi/2 maps (X, P) -> (P, -X)."""
    _check_mode(mode, n_modes)
    c, s = math.cos(theta), math.sin(theta)
    m = np.eye(2 * n_modes)
    m[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2] = [[c, s], [-s, c]]
    return SymplecticTransform(n_modes=n_modes, matrix=m)


def beamsplitter(transmittance: float, mode_a: int, mode_b: int,
                 n_modes: int) -> SymplecticTransform:
    """Orthogonal two-mode mixing with t = sqrt(transmittance).

    Convention (applied identically to X and P):

        X_a' = t X_a + r X_b
        X_b' = r X_a - t X_b      with r = sqrt(1 - transmittance).

    The sign on the second output is what makes X_A - X_B and P_A + P_B the
    low-variance combinations in :func:`build_epr_source`.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"beamsplitter: transmittance must be in [0, 1], got {transmittance}")
    _check_mode(mode_a, n_modes)
    _check_mode(mode_b, n_modes)
    if mode_a == mode_b:
        raise ValueError("beamsplitter: modes must be distinct")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    m = np.eye(2 * n_modes)
    for q in (0, 1):  # X row, P row
        a, b = 2 * mode_a + q, 2 * mode_b + q
        m[a, a] = t
        m[a, b] = r
        m[b, a] = r
        m[b, b] = -t
    return SymplecticTransform(n_modes=n_modes, matrix=m)


def compose(*transforms: SymplecticTransform) -> SymplecticTransform:
    """Matrix product of transforms; compose(S2, S1) applies S1 first, then S2."""
    if not transforms:
        raise ValueError("compose: need at least one transform")
    n = transforms[0].n_modes
    m = np.eye(2 * n)
    for s in transforms:
        if s.n_modes != n:
            raise ValueError("compose: mode-count mismatch")
        m = m @ s.matrix
    return SymplecticTransform(n_modes=n, matrix=m)


def apply_symplectic(state: CovarianceMatrix, s: SymplecticTransform) -> CovarianceMatrix:
    """Evolve the state through a lossless element: gamma -> S gamma S^T."""
    if state.n_modes != s.n_modes:
        raise ValueError(
            f"apply_symplectic: state has {state.n_modes} modes, transform {s.n_modes}"
        )
    out = s.matrix @ state.entries @ s.matrix.T
    return CovarianceMatrix(n_modes=state.n_modes, entries=0.5 * (out + out.T))


def apply_loss(state: CovarianceMatrix, channel: LossChannel) -> CovarianceMatrix:
    """Vacuum admixture on one mode: block -> eta block + (1 - eta) I + excess I.

    Cross terms with the other modes scale by sqrt(eta).
    """
    _check_mode(channel.mode_index, state.n_modes)
    scale = np.ones(2 * state.n_modes)
    sl = slice(2 * channel.mode_index, 2 * channel.mode_index + 2)
    scale[sl] = math.sqrt(channel.efficiency)
    out = state.entries * np.outer(scale, scale)
    add = (1.0 - channel.efficiency) + channel.excess_noise
    out[sl, sl] += add * np.eye(2)
    return CovarianceMatrix(n_modes=state.n_modes, entries=out)


def symplectic_eigenvalues(state: CovarianceMatrix) -> np.ndarray:
    """The n symplectic eigenvalues of gamma, descending.

    Computed from the spectrum of Omega @ gamma, whose eigenvalues come in
    pairs +-i nu; physical states have every nu >= 1.
    """
    ev = np.linalg.eigvals(symplectic_form(state.n_modes) @ state.entries)
    moduli = np.sort(np.abs(ev))[::-1]
    return moduli[::2].copy()


def _moments(state: CovarianceMatrix) -> tuple[float, ...]:
    """The six second moments (Var X_A, Var P_A, Var X_B, Var P_B, Cov X, Cov P), as floats."""
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.n_modes} modes")
    return _moments_of(state.entries.tolist())


def _moments_of(e: list) -> tuple[float, ...]:
    """_moments of the nested list of a two-mode matrix's entries."""
    return e[0][0], e[1][1], e[2][2], e[3][3], e[0][2], e[1][3]


def _xp_entries(state: CovarianceMatrix) -> tuple[float, ...]:
    """The four X-P entries (X_A P_A, X_A P_B, P_A X_B, X_B P_B) of a two-mode state."""
    return _xp_of(state.entries.tolist())


def _xp_of(e: list) -> tuple[float, ...]:
    """_xp_entries of the nested list of a two-mode matrix's entries."""
    return e[0][1], e[0][3], e[1][2], e[2][3]


def _from_moments(xa, pa, xb, pb, cx, cp) -> np.ndarray:
    """The 4x4 two-mode array of the six moments with zero X-P entries; inverse of _moments."""
    return np.array([xa, 0.0, cx, 0.0,
                     0.0, pa, 0.0, cp,
                     cx, 0.0, xb, 0.0,
                     0.0, cp, 0.0, pb]).reshape(4, 4)  # faster than nested lists


def _decoupled_nu_squared(state: CovarianceMatrix) -> tuple[float, float] | None:
    """(nu_hi^2, nu_lo^2), the eigenvalues of M = Gamma_x Gamma_p (trace t, det d),
    for a two-mode state whose X-P entries are exactly zero; None (use eigvals)
    for any other state, or when t underflows to 0 or a product overflows.

    The discriminant is (M11 - M22)^2 + 4 M12 M21: t^2 - 4 d would lose sqrt(eps)
    at a degenerate spectrum, e.g. near vacuum.  nu_lo^2 = d / nu_hi^2, clamped at
    0 for a d rounded below 0 at the Cauchy-Schwarz bound.
    """
    if state.n_modes != 2:
        return None
    e = state.entries.tolist()
    if any(_xp_of(e)):
        return None
    xa, pa, xb, pb, cx, cp = _moments_of(e)
    t = xa * pa + xb * pb + 2.0 * cx * cp
    d = (xa * xb - cx * cx) * (pa * pb - cp * cp)
    half_gap = 0.5 * (xa * pa - xb * pb)
    disc = half_gap * half_gap + (xa * cp + cx * pb) * (cx * pa + xb * cp)  # (t^2 - 4 d) / 4
    if not (0.0 < t < math.inf and math.isfinite(d) and math.isfinite(disc)):
        return None
    hi = 0.5 * t + math.sqrt(max(disc, 0.0))
    return hi, max(d / hi, 0.0)


def symplectic_eigenvalues_two_mode(state: CovarianceMatrix) -> np.ndarray:
    """Two-mode symplectic eigenvalues [nu_hi, nu_lo].

    States without X-P cross terms use the closed form that :func:`is_physical`
    decides them by, an independent cross-check of :func:`symplectic_eigenvalues`;
    every other two-mode state takes that eigvals route.
    """
    if state.n_modes != 2:
        raise ValueError("symplectic_eigenvalues_two_mode: state must have exactly 2 modes")
    nu2 = _decoupled_nu_squared(state)
    return symplectic_eigenvalues(state) if nu2 is None else np.sqrt(nu2)


def is_physical(state: CovarianceMatrix, atol: float = PHYSICALITY_ATOL) -> bool:
    """Whether all symplectic eigenvalues satisfy nu >= 1 - atol (vacuum units).

    Two-mode states with no X-P cross terms (every reconstruction) are decided
    from the closed-form smallest root; all others from :func:`symplectic_eigenvalues`.
    """
    nu2 = _decoupled_nu_squared(state)
    if nu2 is None:
        return bool(np.min(symplectic_eigenvalues(state)) >= 1.0 - atol)
    return math.sqrt(nu2[1]) >= 1.0 - atol


def quadrature_variance(state: CovarianceMatrix, mode: int, angle: float) -> float:
    """Variance of cos(angle) X_mode + sin(angle) P_mode (generalized homodyne)."""
    _check_mode(mode, state.n_modes)
    v = np.zeros(2 * state.n_modes)
    v[2 * mode] = math.cos(angle)
    v[2 * mode + 1] = math.sin(angle)
    return float(v @ state.entries @ v)


@dataclass(frozen=True)
class SourceParams:
    """Physical knobs of the two-mode squeezed source model.

    r1 and r2 are the squeezing parameters of the two amplitude-squeezed
    inputs; one input is rotated by relative_phase before the combining
    beamsplitter.  eta_prep is the per-source state preparation efficiency,
    eta_det_a / eta_det_b the per-arm homodyne detection efficiencies, and
    dark_noise an additive variance per homodyne output.
    """

    r1: float = 0.0
    r2: float = 0.0
    relative_phase: float = math.pi / 2
    transmittance: float = 0.5
    eta_prep: float = 1.0
    eta_det_a: float = 1.0
    eta_det_b: float = 1.0
    dark_noise: float = 0.0

    def __post_init__(self):
        for name in ("r1", "r2"):
            val = getattr(self, name)
            if not 0.0 <= val <= _R_MAX:
                raise ValueError(f"SourceParams: {name} must be in [0, {_R_MAX:.6g}], got {val}")
        for name in ("eta_prep", "eta_det_a", "eta_det_b"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"SourceParams: {name} must be in (0, 1], got {val}")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(
                f"SourceParams: transmittance must be in [0, 1], got {self.transmittance}"
            )
        if not 0.0 <= self.dark_noise < math.inf:
            raise ValueError(f"SourceParams: dark_noise must be finite, >= 0, got {self.dark_noise}")
        if not math.isfinite(self.relative_phase):
            raise ValueError("SourceParams: relative_phase must be finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SourceParams":
        _json_object(d, "SourceParams", cls.__dataclass_fields__)
        try:
            values = {k: float(_no_bools(v)) for k, v in d.items()}
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"SourceParams JSON: non-numeric field ({exc})") from None
        return cls(**values)


def build_epr_source(params: SourceParams) -> CovarianceMatrix:
    """Forward model of the entangled source chain, in closed form.

    Two amplitude-squeezed modes -> preparation loss on each -> rotation of
    mode 1 by relative_phase -> combining beamsplitter -> per-arm detection
    loss with dark noise.  Alice is output mode 0, Bob mode 1.  The
    beamsplitter is wired (mode_a=1, mode_b=0) so that, at the defaults,
    X_A - X_B = -sqrt(2) X_source1 and P_A + P_B = sqrt(2) P_source2 are the
    squeezed combinations: lossless and symmetric, both have variance
    2 exp(-2r).  Lossy sources stay diagonal (v-/+ = eta e^(-/+2r) + 1 - eta),
    so the chain is S diag(v) S^T then one diagonal detection scaling; only
    the result is checked.
    """
    p = params
    v = np.exp([-2.0 * p.r1, 2.0 * p.r1, -2.0 * p.r2, 2.0 * p.r2])
    v = p.eta_prep * v + (1.0 - p.eta_prep)
    s = beamsplitter(p.transmittance, 1, 0, 2).matrix @ phase_shift(p.relative_phase, 1, 2).matrix
    eta = np.repeat([p.eta_det_a, p.eta_det_b], 2)
    gamma = np.einsum("ik,k,jk->ij", s, v, s) * np.sqrt(np.outer(eta, eta))
    gamma += np.diag(1.0 - eta + p.dark_noise)
    return CovarianceMatrix(n_modes=2, entries=gamma)
