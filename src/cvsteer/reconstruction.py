"""Covariance reconstruction from the six-variance measurement campaign.

Four single-quadrature variances plus the two joint combinations
Var(X_A - X_B) and Var(P_A + P_B) determine the diagonal and the (X_A, X_B)
and (P_A, P_B) covariances of a two-mode state.  The remaining X-P cross
terms are not measured and are set to zero: the most physical, least entangled
and least steerable completion of the data.  Reid and Duan do not depend on it.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .criteria import _joint_variances
from .gaussian import (CovarianceMatrix, PhysicalityWarning, _finite, _from_moments, _instance,
                       _json_object, _moments, _number, _number_text, _real, _unphysical)

CSV_FIELDS = ("var_xa", "var_pa", "var_xb", "var_pb", "var_x_diff", "var_p_sum")
_FRESH = object()  # MeasurementSet's default metadata: a new {} per set


class InconsistentDataError(ValueError):
    """A reconstructed covariance reaches or breaks its Cauchy-Schwarz bound, so that
    the reconstructed matrix is not positive definite.

    excess = |value| - bound: the covariance exceeds the bound (excess > 0), or
    reaches it within rounding (excess <= 0).  The six measured values alone
    decide both.
    """

    def __init__(self, entry: str, value: float, bound: float):
        self.entry = entry
        self.value = value
        self.bound = bound
        self.excess = abs(value) - bound
        detail = (f"exceeds sqrt(Var*Var) = {bound:.6g} by {self.excess:.6g}" if self.excess > 0
                  else f"reaches sqrt(Var*Var) = {bound:.6g} within rounding")
        super().__init__(f"measurement set inconsistent: |Cov_{entry}| = {abs(value):.6g} "
                         f"{detail}, so the reconstructed matrix is not positive definite")


@dataclass(frozen=True)
class MeasurementSet:
    """The six scalar variances of a reconstruction campaign, in vacuum units.

    relative_error is the one-sigma relative uncertainty common to all six
    values; it feeds propagate_errors and perturbation_study and nothing else
    (reconstruct reads the six values alone).  metadata carries acquisition
    labels (e.g. fourier_frequency_hz, rbw_hz, vbw_hz) that do not enter any
    computation.

    The constructor is written out, not generated: it checks its arguments, then
    stores the eight fields in one update, the seven numbers as floats (a bool, or
    a value that is not a real number, is refused).  Its parameters are the fields, in
    order, with their defaults.
    """

    var_xa: float
    var_pa: float
    var_xb: float
    var_pb: float
    var_x_diff: float
    var_p_sum: float
    relative_error: float = 0.05
    metadata: dict = field(default_factory=dict)

    def __init__(self, var_xa, var_pa, var_xb, var_pb, var_x_diff, var_p_sum,
                 relative_error=0.05, metadata=_FRESH):
        if not (type(var_xa) is type(var_pa) is type(var_xb) is type(var_pb) is type(var_x_diff)
                is type(var_p_sum) is type(relative_error) is float):  # the seven, as floats
            var_xa, var_pa, var_xb, var_pb, var_x_diff, var_p_sum, relative_error = (
                _real(v, f"MeasurementSet: {name}") for name, v in zip(
                    (*CSV_FIELDS, "relative_error"), (var_xa, var_pa, var_xb, var_pb,
                                                      var_x_diff, var_p_sum, relative_error)))
        inf = math.inf
        if not (0.0 < var_xa < inf and 0.0 < var_pa < inf and 0.0 < var_xb < inf
                and 0.0 < var_pb < inf and 0.0 < var_x_diff < inf and 0.0 < var_p_sum < inf):
            for name, v in zip(CSV_FIELDS, (var_xa, var_pa, var_xb, var_pb, var_x_diff,
                                            var_p_sum)):  # the first refused, for the message
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"MeasurementSet: {name} must be positive, got {v}")
        if not 0.0 <= relative_error < 1.0:
            raise ValueError(
                f"MeasurementSet: relative_error must be in [0, 1), got {relative_error}"
            )
        self.__dict__.update(  # frozen: no __setattr__
            var_xa=var_xa, var_pa=var_pa, var_xb=var_xb, var_pb=var_pb, var_x_diff=var_x_diff,
            var_p_sum=var_p_sum, relative_error=relative_error,
            metadata={} if metadata is _FRESH else metadata)

    def values(self) -> tuple[float, ...]:
        """The six variances in CSV_FIELDS order."""
        return self.var_xa, self.var_pa, self.var_xb, self.var_pb, self.var_x_diff, self.var_p_sum

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MeasurementSet":
        _json_object(d, "MeasurementSet", cls.__dataclass_fields__)
        missing = [name for name in CSV_FIELDS if name not in d]
        if missing:
            raise ValueError(f"MeasurementSet JSON: missing field(s) {missing}")
        metadata = d.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("MeasurementSet JSON: metadata must be an object, "
                             f"got {type(metadata).__name__}")
        values = {name: _number(d[name], "MeasurementSet") for name in CSV_FIELDS}
        relative_error = _number(d.get("relative_error", 0.05), "MeasurementSet")
        return cls(**values, relative_error=relative_error, metadata=dict(metadata))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_FIELDS)
        w.writerow([repr(getattr(self, name)) for name in CSV_FIELDS])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, relative_error: float = 0.05) -> "MeasurementSet":
        """The set in :meth:`to_csv` form: a header, one row of cells read by `_number_text`."""
        try:
            rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise ValueError(f"MeasurementSet CSV: {exc}") from None
        if (len(rows) != 2 or tuple(h.strip() for h in rows[0]) != CSV_FIELDS
                or len(rows[1]) != len(CSV_FIELDS)):
            raise ValueError(f"MeasurementSet CSV: expected header {','.join(CSV_FIELDS)} "
                             f"and one data row of {len(CSV_FIELDS)} values")
        return cls(*(_number_text(cell, f"MeasurementSet CSV: non-numeric field {name}")
                     for name, cell in zip(CSV_FIELDS, rows[1])), relative_error=relative_error)


def covariance_from_sum(var_sum: float, var_1: float, var_2: float) -> float:
    """Cov(O1, O2) = (Var(O1 + O2) - Var(O1) - Var(O2)) / 2.

    Stated for sums; for a measured difference Var(O1 - O2) this returns
    Cov(O1, -O2), i.e. minus the wanted covariance.  :func:`reconstruct`
    owns that sign flip.  Each variance is a finite real number (gaussian._finite).
    """
    var_sum, var_1, var_2 = (_finite(v, f"covariance_from_sum: {name}") for name, v in
                             (("var_sum", var_sum), ("var_1", var_1), ("var_2", var_2)))
    if var_1 <= 0.0 or var_2 <= 0.0:
        raise ValueError("covariance_from_sum: var_1 and var_2 must be positive")
    return _covariance(var_sum, var_1, var_2)


def _covariance(var_sum, var_1, var_2):  # covariance_from_sum unchecked, on floats or arrays
    return 0.5 * (var_sum - var_1 - var_2)


def _covariances(xa, pa, xb, pb, x_diff, p_sum):
    """Cov(X_A, X_B) and Cov(P_A, P_B) from the six campaign variances, as floats
    or arrays; the X one is read from the measured difference, hence its sign."""
    return -_covariance(x_diff, xa, xb), _covariance(p_sum, pa, pb)


def _covariance_sigma(rel: float, v1: float, v2: float, v_joint: float) -> float:
    # First-order propagation of independent relative errors through the identity;
    # inf once a squared term leaves the float range.  The squares stay `** 2` (the C
    # library's pow): x * x differed from it in the last bit on about 0.04% of random
    # finite doubles under glibc 2.36 on x86-64, and tests/test_golden_bits.py pins these bits.
    try:
        return 0.5 * math.sqrt((rel * v1) ** 2 + (rel * v2) ** 2 + (rel * v_joint) ** 2)
    except OverflowError:
        return math.inf


def reconstruct(ms: MeasurementSet) -> CovarianceMatrix:
    """Build the two-mode covariance matrix from a measurement set.

    Diagonal from the four single variances; Cov(X_A, X_B) from the measured
    difference (sign handled here), Cov(P_A, P_B) from the measured sum; all
    X-P cross terms set to zero.  The state is built from these six moments
    (CovarianceMatrix._of_moments: the float Cholesky verdict, no 4x4 round
    trip), which it records for the criteria and the physicality gate to read.
    A matrix that CovarianceMatrix refuses as not positive definite, a
    covariance being at or past its Cauchy-Schwarz bound, raises
    InconsistentDataError naming the more strongly correlated covariance
    (|Cov| / bound, X on a tie).  Matrices that are merely below the
    symplectic physicality boundary emit a PhysicalityWarning but are returned.
    The result depends on ms.values() alone: relative_error is not read.  ms is a
    MeasurementSet (gaussian._instance).
    """
    if not isinstance(ms, MeasurementSet):
        _instance(ms, MeasurementSet, "reconstruct", "ms")
    xa, pa, xb, pb, x_diff, p_sum = ms.values()
    cov_x, cov_p = _covariances(xa, pa, xb, pb, x_diff, p_sum)
    try:
        state = CovarianceMatrix._of_moments(xa, pa, xb, pb, cov_x, cov_p)
    except ValueError:
        if not (math.isfinite(cov_x) and math.isfinite(cov_p)):
            raise
        # CovarianceMatrix decided, by one float Cholesky step per block; the
        # error names the more strongly correlated covariance
        errors = [InconsistentDataError(entry, cov, math.sqrt(v1) * math.sqrt(v2))
                  for entry, cov, v1, v2 in (("x", cov_x, xa, xb), ("p", cov_p, pa, pb))]
        raise max(errors, key=lambda e: abs(e.value) / e.bound) from None
    if message := _unphysical(state, "reconstruct"):
        warnings.warn(PhysicalityWarning(message), stacklevel=2)
    return state


def propagate_errors(ms: MeasurementSet) -> np.ndarray:
    """First-order one-sigma uncertainties of the reconstructed entries.

    Diagonal entries inherit relative_error * value; each covariance combines
    the three inputs of the reconstruction identity in quadrature (errors
    treated as independent).  Entries fixed to zero by convention carry zero
    uncertainty.  ms is a MeasurementSet (gaussian._instance).
    """
    if not isinstance(ms, MeasurementSet):
        _instance(ms, MeasurementSet, "propagate_errors", "ms")
    rel = ms.relative_error
    return _from_moments(rel * ms.var_xa, rel * ms.var_pa, rel * ms.var_xb, rel * ms.var_pb,
                         _covariance_sigma(rel, ms.var_xa, ms.var_xb, ms.var_x_diff),
                         _covariance_sigma(rel, ms.var_pa, ms.var_pb, ms.var_p_sum))


def expected_measurements(state: CovarianceMatrix, relative_error: float = 0.0,
                          metadata: dict | None = None) -> MeasurementSet:
    """Noise-free campaign values read directly off a two-mode covariance matrix, read by
    gaussian._moments."""
    m = _moments(state, "expected_measurements")
    return MeasurementSet(*m[:4], *_joint_variances(*m), relative_error=relative_error,
                          metadata=metadata or {})
