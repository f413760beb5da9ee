"""Covariance-matrix representation of zero-mean Gaussian states.

States are 2n x 2n real symmetric second-moment matrices over the quadratures
(X1, P1, X2, P2, ...), normalized so the vacuum has unit variance in every
quadrature.  Lossless optics act as symplectic matrices (S @ gamma @ S.T),
loss as a vacuum admixture channel.  Every state and record argument of a public function
is tested by :func:`_instance`, and every two-mode state read by :func:`_moments`, before
any of its attributes is read.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import operator
import struct
from dataclasses import asdict, dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
SYMPLECTIC_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
_EXP_MAX = math.log(np.finfo(float).max)  # largest x with exp(x) finite
_R_MAX = 0.5 * _EXP_MAX  # largest r with exp(2 r) finite
_PACK_16 = struct.Struct("=16d").pack  # the buffer of a 4x4 float64 array, row by row


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode.

    n_modes is decided by :func:`_mode_count` before the cache sees it, which would take
    2.0 and True for 2 and 1.  Cached and returned read-only; treat as a constant.
    """
    return _symplectic_form(_mode_count(n_modes, "symplectic_form"))


@functools.lru_cache(maxsize=None)
def _symplectic_form(n_modes: int) -> np.ndarray:  # symplectic_form of a checked count
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


def _number(v, what: str) -> float:
    """v as a float if a real number other than a bool (float() reads true as 1), else the
    ValueError of a non-numeric field: a JSON scalar shown as JSON, an array or object named."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError as exc:  # an int past the float range
            raise ValueError(f"{what} JSON: non-numeric field ({exc})") from None
    shown = ("an array" if isinstance(v, list) else "an object" if isinstance(v, dict)
             else json.dumps(v) if v is None or isinstance(v, (bool, str)) else repr(v))
    raise ValueError(f"{what} JSON: non-numeric field ({shown} is not a number)")


def _real(v, what: str) -> float:
    """v as a float, +-inf for an int past the float range, if a real number other than a
    bool; else the ValueError "<what> must be a real number, got <v!r>".  The library's real
    arguments are read by this rule, or by :func:`_finite`, before math, numpy or a comparison
    sees them (a numpy scalar is a real number, np.True_ a bool)."""
    if type(v) is bool or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # which the caller's range check then refuses
        return math.inf if v > 0 else -math.inf


def _finite(v, what: str) -> float:
    """:func:`_real` of v if finite, else the ValueError "<what> must be finite, got <float>":
    the rule of an argument with no range of its own but the floats."""
    x = _real(v, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _number_text(text: str, what: str, kind: type = float):
    """kind(text) for kind float or int, but a text with `_`, which both read as a digit
    separator (`18_41` as 1841), is refused: "<what> (<text!r> is not a number)", a ValueError.
    Every number read from text, a CSV cell or a CLI flag, is read by this rule."""
    if "_" not in text:
        with contextlib.suppress(ValueError):
            return kind(text)
    raise ValueError(f"{what} ({text!r} is not a number)")


def _record(cls, **fields):
    """An instance of the frozen dataclass cls with the given attributes, set without its
    generated __init__ or __post_init__: for values the caller has already checked, which
    __post_init__ would accept and leave as they are."""
    record = object.__new__(cls)
    record.__dict__.update(fields)  # frozen: no __setattr__
    return record


def _by_value(array: str, hashable: bool = True):
    """Class decorator: == and hash by value for a dataclass declared with eq=False whose
    field `array` holds a numpy array.  The other fields compare as they are, the array by
    np.array_equal; the hash is that of the other fields and the array's values as Python
    floats, so 0.0 and -0.0 hash alike.  hashable=False, for a writeable array, leaves the
    class unhashable."""
    def decorate(cls):
        rest = [name for name in cls.__dataclass_fields__ if name != array]

        def key(self):
            return tuple(getattr(self, name) for name in rest)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other) and np.array_equal(getattr(self, array),
                                                              getattr(other, array))

        def __hash__(self):
            return hash((*key(self), tuple(getattr(self, array).ravel().tolist())))

        cls.__eq__, cls.__hash__ = __eq__, __hash__ if hashable else None
        return cls
    return decorate


def _integer(v, what: str, name: str) -> int:
    """v as an int if an integer other than a bool (operator.index: 2.0 is not one), else the
    ValueError "<what>: <name> must be an integer, got <v!r>": the test of every mode count
    and index, sample count and seed."""
    with contextlib.suppress(TypeError):
        if not isinstance(v, bool):
            return operator.index(v)
    raise ValueError(f"{what}: {name} must be an integer, got {v!r}")


def _instance(v, cls: type, who: str, name: str):
    """v if an instance of the record class cls, else the ValueError "<who>: <name> must be a
    <cls>, got <type name>": the test of every state and record argument, before any of its
    attributes is read.  A hot path tests isinstance itself and calls this only to refuse."""
    if not isinstance(v, cls):
        raise ValueError(f"{who}: {name} must be a {cls.__name__}, got {type(v).__name__}")
    return v


def _mode_count(n_modes, what: str) -> int:
    """n_modes as an int if an integer (:func:`_integer`) of at least 1, else a ValueError."""
    n = _integer(n_modes, what, "n_modes")
    if n < 1:
        raise ValueError(f"{what}: n_modes must be >= 1, got {n}")
    return n


def _mode_index(mode, n_modes: int, what: str) -> int:
    """mode as an int if an integer (:func:`_integer`) in [0, n_modes), else a ValueError."""
    i = _integer(mode, what, "mode")
    if not 0 <= i < n_modes:
        raise ValueError(f"{what}: mode {i} out of range for {n_modes} modes")
    return i


def _as_checked_matrix(entries, n_modes: int, what: str) -> np.ndarray:
    m = np.array(entries, dtype=float)
    if m.shape != (2 * n_modes, 2 * n_modes):
        raise ValueError(
            f"{what}: expected shape {(2 * n_modes, 2 * n_modes)}, got {m.shape}"
        )
    if not np.isfinite(m).all():
        raise ValueError(f"{what}: entries must be finite")
    return m


def _checked_covariance(entries, n_modes: int) -> np.ndarray:
    """The entries as a checked, symmetrised float array, by numpy."""
    m = _as_checked_matrix(entries, n_modes, "CovarianceMatrix")
    # an exactly symmetric matrix, (0.0, -0.0) pairs included, is kept as given
    if not (m == m.T).all():
        asym = np.abs(m - m.T)
        tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(m))
        if (asym > tol).any():
            i, j = np.unravel_index(np.argmax(asym - tol), m.shape)
            raise ValueError(
                f"CovarianceMatrix: not symmetric at ({i},{j}): "
                f"{float(m[i, j])!r} vs {float(m[j, i])!r}"
            )
        # 0.5 a + 0.5 b cannot overflow; equal pairs stay as given, as halving
        # rounds odd subnormals
        m = np.where(asym == 0.0, m, 0.5 * m + 0.5 * m.T)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("CovarianceMatrix: matrix is not positive definite") from None
    return m


@_by_value("entries")
@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Second moments of the quadratures of an n-mode zero-mean Gaussian state.

    entries[2m] is the X quadrature of mode m, entries[2m+1] its P quadrature;
    vacuum is the identity.  Symmetry and positive definiteness are enforced at
    construction; physicality (symplectic eigenvalues >= 1) is checked on
    demand via :func:`is_physical`.

    A finite, exactly symmetric two-mode matrix whose X-P entries are all zero,
    as every reconstruction and every forward state at a quarter turn is, is
    its six moments (:func:`_decoupled_moments`), checked in floats
    (:func:`_decoupled_positive_definite`); every other matrix by numpy, with a
    symmetry tolerance and np.linalg.cholesky.  A state decoupled once checked
    records its six moments, which the two-mode readers take;
    :meth:`_of_moments` builds one from them with no 4x4 round trip.  Two
    states are equal, and hash alike, when n_modes and the entries are equal.
    """

    n_modes: int
    entries: np.ndarray
    _six = None  # the recorded moments, else None; not a field (no annotation)

    def __post_init__(self):
        n_modes = _mode_count(self.n_modes, "CovarianceMatrix")
        m = np.array(self.entries, dtype=float)
        six = _decoupled_moments(m) if n_modes == 2 else None
        if six is None:
            m = _checked_covariance(m, n_modes)
            six = _decoupled_moments(m) if n_modes == 2 else None
        elif not _decoupled_positive_definite(*six):
            raise ValueError("CovarianceMatrix: matrix is not positive definite")
        m.setflags(write=False)
        self.__dict__.update(n_modes=n_modes, entries=m, _six=six)  # frozen: no __setattr__

    @classmethod
    def _of_moments(cls, xa, pa, xb, pb, cx, cp) -> "CovarianceMatrix":
        """CovarianceMatrix(2, _from_moments(xa, pa, xb, pb, cx, cp)): for six finite
        numbers only the float verdict and one array, read-only by its bytes buffer, with
        no copy or re-read; any other goes through the constructor, which words its refusal."""
        six = xa, pa, xb, pb, cx, cp = (float(xa), float(pa), float(xb), float(pb), float(cx),
                                        float(cp))
        inf = math.inf
        if not (-inf < xa < inf and -inf < pa < inf and -inf < xb < inf and -inf < pb < inf
                and -inf < cx < inf and -inf < cp < inf):
            return cls(2, _from_moments(*six))
        if not _decoupled_positive_definite(*six):
            raise ValueError("CovarianceMatrix: matrix is not positive definite")
        return _record(cls, n_modes=2, entries=_from_moments(*six, writeable=False), _six=six)

    def __reduce__(self):  # copies and pickles are constructed: read-only, moments recorded
        return type(self), (self.n_modes, self.entries)

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
            n_modes, entries = d["n_modes"], d["entries"]
        except KeyError as exc:
            raise ValueError(f"CovarianceMatrix JSON: missing field {exc}") from None
        n = _number(n_modes, "CovarianceMatrix")  # a JSON 2.0 is 2
        n_modes = _mode_count(int(n) if n.is_integer() else n, "CovarianceMatrix JSON")
        # a scalar in place of the rows is a non-numeric field or, if a number, no matrix
        rows = entries if isinstance(entries, list) else [_number(entries, "CovarianceMatrix")]
        if not all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
            raise ValueError("CovarianceMatrix JSON: ragged entries, not a matrix")
        return cls(n_modes, [[_number(v, "CovarianceMatrix") for v in row] for row in rows])


@_by_value("matrix")
@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Linear quadrature map S with S @ Omega @ S.T = Omega (lossless optics); equal, and
    hashed alike, by n_modes and the matrix."""

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        n_modes = _mode_count(self.n_modes, "SymplecticTransform")
        m = _as_checked_matrix(self.matrix, n_modes, "SymplecticTransform")
        omega = _symplectic_form(n_modes)
        if np.max(np.abs(m @ omega @ m.T - omega)) > SYMPLECTIC_ATOL:
            raise ValueError("SymplecticTransform: S Omega S^T != Omega")
        m.setflags(write=False)
        self.__dict__.update(n_modes=n_modes, matrix=m)  # frozen: no __setattr__


@dataclass(frozen=True)
class LossChannel:
    """Vacuum admixture with efficiency eta plus additive excess noise.

    excess_noise is an additive variance on the affected mode's diagonal
    block, e.g. homodyne detector dark noise in vacuum units.  efficiency and excess_noise
    are read by :func:`_real` and stored as floats; apply_loss checks mode_index.
    """

    mode_index: int
    efficiency: float
    excess_noise: float = 0.0

    def __post_init__(self):
        efficiency = _real(self.efficiency, "LossChannel: efficiency")
        excess_noise = _real(self.excess_noise, "LossChannel: excess_noise")
        if not 0.0 <= efficiency <= 1.0:
            raise ValueError(f"LossChannel: efficiency must be in [0, 1], got {efficiency}")
        if not 0.0 <= excess_noise < math.inf:
            raise ValueError(f"LossChannel: excess_noise must be finite, >= 0, got {excess_noise}")
        self.__dict__.update(efficiency=efficiency, excess_noise=excess_noise)  # frozen


def vacuum_state(n_modes: int) -> CovarianceMatrix:
    """The n-mode vacuum: unit variance in every quadrature, no correlations."""
    n_modes = _mode_count(n_modes, "vacuum_state")
    return CovarianceMatrix(n_modes=n_modes, entries=np.eye(2 * n_modes))


def squeezer(r: float, mode: int, n_modes: int) -> SymplecticTransform:
    """Single-mode squeezer: X -> exp(-r) X, P -> exp(+r) P on `mode`.

    r > 0 squeezes the amplitude quadrature X (variance exp(-2r) on vacuum); r is finite,
    with exp(|r|) finite.
    """
    r = _finite(r, "squeezer: r")
    if not -_EXP_MAX <= r <= _EXP_MAX:
        raise ValueError(f"squeezer: r must be in [-{_EXP_MAX:.6g}, {_EXP_MAX:.6g}], got {r}")
    n_modes = _mode_count(n_modes, "squeezer")
    mode = _mode_index(mode, n_modes, "squeezer")
    m = np.eye(2 * n_modes)
    m[2 * mode, 2 * mode] = math.exp(-r)
    m[2 * mode + 1, 2 * mode + 1] = math.exp(r)
    return SymplecticTransform(n_modes=n_modes, matrix=m)


def phase_shift(theta: float, mode: int, n_modes: int) -> SymplecticTransform:
    """Rotation by a finite theta of the (X, P) plane of `mode`; pi/2 maps (X, P) -> (P, -X)."""
    theta = _finite(theta, "phase_shift: theta")
    n_modes = _mode_count(n_modes, "phase_shift")
    mode = _mode_index(mode, n_modes, "phase_shift")
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
    low-variance combinations in :func:`build_epr_source`.  The modes must be distinct.
    """
    transmittance = _real(transmittance, "beamsplitter: transmittance")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"beamsplitter: transmittance must be in [0, 1], got {transmittance}")
    n_modes = _mode_count(n_modes, "beamsplitter")
    mode_a, mode_b = (_mode_index(m, n_modes, "beamsplitter") for m in (mode_a, mode_b))
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
    for i, s in enumerate(transforms):
        _instance(s, SymplecticTransform, "compose", f"transforms[{i}]")
    n = transforms[0].n_modes
    m = np.eye(2 * n)
    for s in transforms:
        if s.n_modes != n:
            raise ValueError("compose: mode-count mismatch")
        m = m @ s.matrix
    return SymplecticTransform(n_modes=n, matrix=m)


def apply_symplectic(state: CovarianceMatrix, s: SymplecticTransform) -> CovarianceMatrix:
    """Evolve the state through a lossless element: gamma -> S gamma S^T."""
    _instance(state, CovarianceMatrix, "apply_symplectic", "state")
    _instance(s, SymplecticTransform, "apply_symplectic", "s")
    if state.n_modes != s.n_modes:
        raise ValueError(
            f"apply_symplectic: state has {state.n_modes} modes, transform {s.n_modes}"
        )
    out = s.matrix @ state.entries @ s.matrix.T
    return CovarianceMatrix(n_modes=state.n_modes, entries=0.5 * (out + out.T))


def apply_loss(state: CovarianceMatrix, channel: LossChannel) -> CovarianceMatrix:
    """Vacuum admixture on one mode: block -> eta block + (1 - eta) I + excess I.

    Cross terms with the other modes scale by sqrt(eta); mode_index is checked here.
    """
    _instance(state, CovarianceMatrix, "apply_loss", "state")
    _instance(channel, LossChannel, "apply_loss", "channel")
    mode = _mode_index(channel.mode_index, state.n_modes, "apply_loss")
    scale = np.ones(2 * state.n_modes)
    sl = slice(2 * mode, 2 * mode + 2)
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
    _instance(state, CovarianceMatrix, "symplectic_eigenvalues", "state")
    ev = np.linalg.eigvals(_symplectic_form(state.n_modes) @ state.entries)
    moduli = np.sort(np.abs(ev))[::-1]
    return moduli[::2].copy()


def _moments(state: CovarianceMatrix, who: str, name: str = "state") -> tuple[float, ...]:
    """The six second moments (Var X_A, Var P_A, Var X_B, Var P_B, Cov X, Cov P), as floats:
    those recorded at construction, else read from the entries.  The one test of a two-mode
    state, the argument `name` of `who`: anything but a CovarianceMatrix is refused by
    :func:`_instance`, a state of other than two modes with
    "<who>: expected a two-mode state, got <n> modes"."""
    if not isinstance(state, CovarianceMatrix):
        _instance(state, CovarianceMatrix, who, name)
    if state.n_modes != 2:
        raise ValueError(f"{who}: expected a two-mode state, got {state.n_modes} modes")
    return _moments_of(state.entries.ravel().tolist()) if state._six is None else state._six


def _moments_of(e: list) -> tuple[float, ...]:
    """_moments of the 16 entries of a two-mode matrix, row by row."""
    return e[0], e[5], e[10], e[15], e[2], e[7]


def _xp_of(e: list) -> tuple[float, ...]:
    """The four X-P entries (X_A P_A, X_A P_B, P_A X_B, X_B P_B) of the 16 entries
    of a two-mode matrix, row by row."""
    return e[1], e[3], e[6], e[11]


def _from_moments(xa, pa, xb, pb, cx, cp, writeable: bool = True) -> np.ndarray:
    """The 4x4 two-mode float array of the six moments with zero X-P entries; inverse of
    _moments.  One struct pack fills its buffer: a bytearray, or with writeable False the
    packed bytes themselves, so that the array is read-only from the start."""
    packed = _PACK_16(xa, 0.0, cx, 0.0,
                      0.0, pa, 0.0, cp,
                      cx, 0.0, xb, 0.0,
                      0.0, cp, 0.0, pb)
    return np.ndarray((4, 4), buffer=bytearray(packed) if writeable else packed)


def _decoupled_moments(m: np.ndarray) -> tuple[float, ...] | None:
    """The six moments, as floats, of a finite, exactly symmetric 4x4 float array whose
    X-P entries are zero; None (use numpy) for any other array."""
    if m.shape != (4, 4):
        return None
    e = m.ravel().tolist()
    if any(_xp_of(e)) or not all(map(math.isfinite, e)):
        return None
    if not (e[4] == e[1] and e[8] == e[2] and e[12] == e[3]
            and e[9] == e[6] and e[13] == e[7] and e[14] == e[11]):
        return None
    return _moments_of(e)


def _decoupled_positive_definite(xa, pa, xb, pb, cx, cp) -> bool:
    """Whether the two-mode matrix of six finite moments with zero X-P entries is
    positive definite.

    Such a matrix is the direct sum of Gamma_x and Gamma_p, so Cholesky takes one
    step per 2x2 block, as LAPACK does: a pivot v1 > 0, l = c * (1 / sqrt(v1)),
    then v2 - l * l > 0.  The reciprocal form agrees with np.linalg.cholesky
    more often than c / sqrt(v1) or v1 v2 - c^2 at the bound |c| = sqrt(v1 v2);
    l * l overflows to inf where l ** 2 would raise.
    """
    if not (xa > 0.0 and pa > 0.0):
        return False
    lx, lp = cx * (1.0 / math.sqrt(xa)), cp * (1.0 / math.sqrt(pa))
    return xb - lx * lx > 0.0 and pb - lp * lp > 0.0


def _decoupled_nu_squared(state: CovarianceMatrix) -> tuple[float, float] | None:
    """(nu_hi^2, nu_lo^2), the eigenvalues of M = Gamma_x Gamma_p (trace t, det d),
    from the moments recorded for a two-mode state whose X-P entries are exactly
    zero; None (use eigvals) for a state with none recorded, or when t underflows
    to 0 or a product overflows.

    The discriminant is (M11 - M22)^2 + 4 M12 M21: t^2 - 4 d would lose sqrt(eps)
    at a degenerate spectrum, e.g. near vacuum.  nu_lo^2 = d / nu_hi^2, clamped at
    0 for a d rounded below 0 at the Cauchy-Schwarz bound.
    """
    if state._six is None:
        return None
    xa, pa, xb, pb, cx, cp = state._six
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
    decides them by and :func:`_unphysical` words them by, an independent cross-check
    of :func:`symplectic_eigenvalues`; every other two-mode state takes that route.
    """
    _moments(state, "symplectic_eigenvalues_two_mode")
    nu2 = _decoupled_nu_squared(state)
    return symplectic_eigenvalues(state) if nu2 is None else np.sqrt(nu2)


class UnphysicalStateError(ValueError):
    """A state below the physicality gate of :func:`is_physical`, refused by the sampler, which
    simulates it, with the message of :func:`_unphysical`: an analysis outcome, not an input error."""


class PhysicalityWarning(UserWarning):
    """A state below the same gate, with the same message, that an analysis (reconstruct,
    analyze, the loss fit) warns of and goes on with."""


def _below_gate(state: CovarianceMatrix, atol: float) -> list[float] | None:
    """None if is_physical(state, atol), else its symplectic eigenvalues by the deciding kernel."""
    nu2 = _decoupled_nu_squared(state)
    if nu2 is None:
        nus = symplectic_eigenvalues(state)
        return None if np.min(nus) >= 1.0 - atol else nus.tolist()
    return None if math.sqrt(nu2[1]) >= 1.0 - atol else [math.sqrt(nu2[0]), math.sqrt(nu2[1])]


def is_physical(state: CovarianceMatrix, atol: float = PHYSICALITY_ATOL) -> bool:
    """Whether all symplectic eigenvalues satisfy nu >= 1 - atol (vacuum units), decided
    by the closed form for a two-mode state with no X-P cross terms (every reconstruction),
    by :func:`symplectic_eigenvalues` for every other state; atol is finite."""
    _instance(state, CovarianceMatrix, "is_physical", "state")
    return _below_gate(state, _finite(atol, "is_physical: atol")) is None


def _unphysical(state: CovarianceMatrix, who: str) -> str | None:
    """None for a state that passes :func:`is_physical`, else the one message, naming `who`,
    of every warning (reconstruct, analyze, fit) and refusal (sampler) of the state, with the
    eigenvalues of the deciding kernel: :func:`symplectic_eigenvalues_two_mode`'s if decoupled."""
    nus = _below_gate(state, PHYSICALITY_ATOL)
    return None if nus is None else f"{who}: state is unphysical (symplectic eigenvalues {nus})"


def quadrature_variance(state: CovarianceMatrix, mode: int, angle: float) -> float:
    """Variance of cos(angle) X_mode + sin(angle) P_mode (generalized homodyne) for a finite
    angle; mode checked."""
    _instance(state, CovarianceMatrix, "quadrature_variance", "state")
    mode = _mode_index(mode, state.n_modes, "quadrature_variance")
    angle = _finite(angle, "quadrature_variance: angle")
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
    dark_noise an additive variance per homodyne output.  Each is a real number, not a bool,
    and is stored as a float; an int past the float range is refused as out of its range.
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
        for name, val in self.__dict__.items():  # a float skips the ABC check, ~0.5 us each
            if type(val) is not float:  # stored as a float, which JSON writes as one
                self.__dict__[name] = _real(val, f"SourceParams: {name}")
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
        return cls(**{k: _number(v, "SourceParams") for k, v in d.items()})


def _source_entries(p: SourceParams) -> list[float]:
    """The 16 entries, row by row, of :func:`build_epr_source`, in float arithmetic.

    Per source v-/+ = eta_prep e^(-/+2r) + 1 - eta_prep; source 2 is rotated by
    (cos phi, sin phi), a quarter turn, (0, +-1) or (+-1, 0), where the smaller of the two is
    within the rounding of phi, so that multiples of pi/2 are exact quarter turns with no
    X-P entries and a phi whose rounding exceeds a turn is still a rotation; the beamsplitter
    mixes with T, 1 - T and sqrt(T) sqrt(1 - T); detection scales each arm by its
    efficiency and adds 1 - eta_det + dark_noise on the diagonal.
    """
    q = 1.0 - p.eta_prep
    a1, b1 = p.eta_prep * math.exp(-2.0 * p.r1) + q, p.eta_prep * math.exp(2.0 * p.r1) + q
    a2, b2 = p.eta_prep * math.exp(-2.0 * p.r2) + q, p.eta_prep * math.exp(2.0 * p.r2) + q
    phi = p.relative_phase
    c, s = math.cos(phi), math.sin(phi)
    if min(abs(c), abs(s)) <= math.ulp(1.0) * max(1.0, abs(phi)):
        c, s = (0.0, math.copysign(1.0, s)) if abs(c) < abs(s) else (math.copysign(1.0, c), 0.0)
    x2, p2 = c * c * a2 + s * s * b2, s * s * a2 + c * c * b2
    xp2 = c * s * (b2 - a2) if c and s else 0.0  # no -0.0 at the quarter turns
    t, u = p.transmittance, 1.0 - p.transmittance
    tu = math.sqrt(t) * math.sqrt(u)
    ea, eb = p.eta_det_a, p.eta_det_b
    eab = math.sqrt(ea * eb)
    da, db = 1.0 - ea + p.dark_noise, 1.0 - eb + p.dark_noise
    xa, pa = ea * (t * a1 + u * x2) + da, ea * (t * b1 + u * p2) + da
    xb, pb = eb * (u * a1 + t * x2) + db, eb * (u * b1 + t * p2) + db
    cx, cp = eab * (tu * (x2 - a1)), eab * (tu * (p2 - b1))
    xpa, xpb, xpab = ea * (u * xp2), eb * (t * xp2), eab * (tu * xp2)
    return [xa, xpa, cx, xpab,
            xpa, pa, xpab, cp,
            cx, xpab, xb, xpb,
            xpab, cp, xpb, pb]


def build_epr_source(params: SourceParams) -> CovarianceMatrix:
    """Forward model of the entangled source chain, in closed form.

    Two amplitude-squeezed modes -> preparation loss on each -> rotation of
    mode 1 by relative_phase -> combining beamsplitter -> per-arm detection
    loss with dark noise.  Alice is output mode 0, Bob mode 1.  The
    beamsplitter is wired (mode_a=1, mode_b=0) so that, at the defaults,
    X_A - X_B = -sqrt(2) X_source1 and P_A + P_B = sqrt(2) P_source2 are the
    squeezed combinations: lossless and symmetric, both have variance
    2 exp(-2r).  The chain is evaluated in float arithmetic
    (:func:`_source_entries`), with no symplectic matrix built; a relative
    phase within rounding of a multiple of pi/2, such as the default
    math.pi / 2, is an exact quarter turn, so the state has exactly zero X-P
    entries.  Only the result is checked.
    """
    if not isinstance(params, SourceParams):
        _instance(params, SourceParams, "build_epr_source", "params")
    return CovarianceMatrix(n_modes=2, entries=np.array(_source_entries(params)).reshape(4, 4))
