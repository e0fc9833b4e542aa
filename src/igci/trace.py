"""Direction inference for linear multivariate relations.

For y = A x the renormalized trace tau(B) = tr(B)/d factorizes over a
product only when the map and the input covariance are unrelated:
tau(A Sigma A^T) ~= tau(A A^T) tau(Sigma). The signed log gap between the
two sides is therefore near zero in the causal direction and generically
positive backwards, because the inverse map is anti-correlated with the
output covariance it produced. Inference fits A by least squares and
compares the gap forwards and backwards.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Direction, MultiSample
from .errors import (
    DataError,
    DimensionMismatchError,
    NonPositiveTraceError,
    SingularFitError,
)
from .estimators import _direction

__all__ = [
    "RESIDUAL_WARN_THRESHOLD",
    "LinearDirectionResult",
    "trace_gap",
    "infer_linear_direction",
]

# Relative Frobenius residual above which the linear fit is suspect.
RESIDUAL_WARN_THRESHOLD = 0.05

_MAX_CONDITION = 1e12


def _square(matrix, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise DimensionMismatchError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def _unit_scale(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr / 2**e, e), with 2**e just above the largest |entry| of arr."""
    e = int(np.frexp(np.abs(arr).max())[1])
    return np.ldexp(arr, -e), e


def trace_gap(a, sigma_x) -> float:
    """log tau(A Sigma A^T) - log tau(A A^T) - log tau(Sigma).

    tau(B) = tr(B)/d is the renormalized trace. The gap is zero when the
    overall scaling of the map is unrelated to the input covariance, for
    instance when Sigma is any multiple of the identity. Invariant under
    rescaling of A. A positive trace that over- or underflows float64
    raises DataError.
    """
    a_arr = _square(a, "a")
    s_arr = _square(sigma_x, "sigma_x")
    if a_arr.shape != s_arr.shape:
        raise DimensionMismatchError(f"a is {a_arr.shape}, sigma_x is {s_arr.shape}")
    d = a_arr.shape[0]
    # Traces of a / 2**e and sigma_x / 2**f, scaled back: exact, so one float64 carries
    # is bit for bit the direct one, and one it cannot is inf or 0.0 with its sign known.
    (a_u, e), (s_u, f) = _unit_scale(a_arr), _unit_scale(s_arr)
    traces = []
    products = (("a@sigma@a.T", a_u @ s_u @ a_u.T, 2 * e + f), ("a@a.T", a_u @ a_u.T, 2 * e), ("sigma_x", s_u, f))
    for name, product, exp in products:
        unit = np.trace(product)
        with np.errstate(over="ignore"):
            value = float(np.ldexp(unit, exp)) / d
        if unit <= 0.0:
            raise NonPositiveTraceError(f"renormalized trace of {name} is {value!r}")
        if not 0.0 < value < math.inf:
            flow = "overflows" if value else "underflows"
            raise DataError(f"renormalized trace of {name} {flow} float64 (got {value!r})")
        traces.append(value)
    pushed, map_scale, input_scale = traces
    return float(np.log(pushed) - np.log(map_scale) - np.log(input_scale))


@dataclass(frozen=True)
class LinearDirectionResult:
    direction: Direction
    gap_xy: float
    gap_yx: float
    residual_rel: float


def _fit_map(inputs_c: np.ndarray, outputs_c: np.ndarray) -> np.ndarray:
    """Least-squares map from centered inputs to centered outputs."""
    coef, _, rank, _ = np.linalg.lstsq(inputs_c, outputs_c, rcond=None)
    if rank < inputs_c.shape[1]:
        raise SingularFitError(f"regressor rank {rank} < dimension {inputs_c.shape[1]}")
    return coef.T


def _all_finite(*values) -> bool:
    return all(np.isfinite(v).all() for v in values)


def _range_error(x: MultiSample, y: MultiSample) -> DataError:
    return DataError(
        f"x ranges {float(x.data.min())!r} to {float(x.data.max())!r} and y ranges "
        f"{float(y.data.min())!r} to {float(y.data.max())!r}; "
        "the linear fit over- or underflows float64 at these scales"
    )


def infer_linear_direction(
    x: MultiSample,
    y: MultiSample,
    refit_reverse: bool = False,
) -> LinearDirectionResult:
    """Decide between x -> y and y -> x for linearly related vector data.

    The forward map is an ordinary least-squares fit on centered data. The
    reverse map defaults to its matrix inverse, which is the exact reverse
    model in the noise-free case; refit_reverse=True fits the reverse
    regression independently instead, which is preferable once residual
    noise makes the inverse biased. The smaller absolute trace gap wins;
    gaps within DECISION_TOL of each other leave the call undecided.
    A relative fit residual above RESIDUAL_WARN_THRESHOLD emits a warning
    rather than an error. Data whose scale the fit cannot carry through
    float64 raises DataError naming the value ranges of x and y.
    """
    if x.m != y.m:
        raise DimensionMismatchError(f"x has {x.m} rows, y has {y.m}")
    if x.d != y.d:
        raise DimensionMismatchError(f"x is {x.d}-dimensional, y is {y.d}-dimensional")
    # Every value below is finite and, where a trace or norm, positive in
    # exact arithmetic; one that is not has left float64's range.
    with np.errstate(all="ignore"):
        x_c = x.data - x.data.mean(axis=0)
        y_c = y.data - y.data.mean(axis=0)
        sigma_x = x_c.T @ x_c / x.m
        sigma_y = y_c.T @ y_c / y.m
        if not _all_finite(sigma_x, sigma_y):
            raise _range_error(x, y)
        a = _fit_map(x_c, y_c)
        if not y_c.any():
            raise SingularFitError("y is constant")
        y_norm = np.linalg.norm(y_c)
        residual_rel = float(np.linalg.norm(y_c - x_c @ a.T) / y_norm)
        if not _all_finite(a, y_norm, residual_rel):
            raise _range_error(x, y)
        if residual_rel > RESIDUAL_WARN_THRESHOLD:
            warnings.warn(
                f"linear fit residual {residual_rel:.3g} exceeds {RESIDUAL_WARN_THRESHOLD}; "
                "the relation may not be linear enough for this method",
                stacklevel=2,
            )
        if np.linalg.cond(a) > _MAX_CONDITION:
            raise SingularFitError("fitted map is numerically singular")
        if refit_reverse:
            reverse = _fit_map(y_c, x_c)
        else:
            try:
                reverse = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise SingularFitError("forward map is not invertible") from exc
        # trace_gap refuses a non-finite reverse map, a trace that overflows
        # or one that underflowed to zero; logs of the rest are finite.
        try:
            gap_xy = trace_gap(a, sigma_x)
            gap_yx = trace_gap(reverse, sigma_y)
        except (DataError, NonPositiveTraceError) as exc:
            raise _range_error(x, y) from exc
    return LinearDirectionResult(
        direction=_direction(abs(gap_xy) - abs(gap_yx)),
        gap_xy=gap_xy,
        gap_yx=gap_yx,
        residual_rel=residual_rel,
    )
