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

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Direction, MultiSample, _unit_scale
from .errors import ConstantInputError, DataError, NumericError
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
        raise DataError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def trace_gap(a, sigma_x) -> float:
    """log tau(A Sigma A^T) - log tau(A A^T) - log tau(Sigma).

    tau(B) = tr(B)/d is the renormalized trace. The gap is zero when the
    overall scaling of the map is unrelated to the input covariance, for
    instance when Sigma is any multiple of the identity. Rescaling A or
    Sigma leaves it unchanged, so it is taken from A and Sigma divided by
    the powers of two just above their largest entries: there no trace
    over- or underflows because of the scale of the inputs, and a
    power-of-two rescaling of either leaves the gap unchanged bit for bit.
    """
    a_arr = _square(a, "a")
    s_arr = _square(sigma_x, "sigma_x")
    if a_arr.shape != s_arr.shape:
        raise DataError(f"a is {a_arr.shape}, sigma_x is {s_arr.shape}")
    d = a_arr.shape[0]
    a_u, s_u = _unit_scale(a_arr), _unit_scale(s_arr)
    traces = []
    for name, product in (("a@sigma@a.T", a_u @ s_u @ a_u.T), ("a@a.T", a_u @ a_u.T), ("sigma_x", s_u)):
        value = float(np.trace(product)) / d
        if not value > 0.0:
            raise NumericError(f"renormalized trace of {name} is not positive")
        traces.append(value)
    pushed, map_scale, input_scale = traces
    return float(np.log(pushed / (map_scale * input_scale)))


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
        raise DataError(f"regressor rank {rank} < dimension {inputs_c.shape[1]}")
    return coef.T


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
    rather than an error. The result does not depend on the scale of x or
    y: both are divided by the powers of two just above their largest
    |values| before anything else, where no mean, covariance, norm or trace
    leaves float64, and a power-of-two rescaling of either gives the same
    result bit for bit.
    """
    if x.m != y.m:
        raise DataError(f"x has {x.m} rows, y has {y.m}")
    if x.d != y.d:
        raise DataError(f"x is {x.d}-dimensional, y is {y.d}-dimensional")
    x_c, y_c = _unit_scale(x.data), _unit_scale(y.data)  # fresh arrays, centred in place
    x_c -= x_c.mean(axis=0)
    y_c -= y_c.mean(axis=0)
    sigma_x = x_c.T @ x_c / x.m
    sigma_y = y_c.T @ y_c / y.m
    a = _fit_map(x_c, y_c)
    if not y_c.any():
        raise ConstantInputError("y is constant")
    # Before the residual: a y column whose spread is far below another column's scale
    # makes the map singular, and can leave the norm of y_c at zero.
    if np.linalg.cond(a) > _MAX_CONDITION:
        raise DataError("fitted map is numerically singular")
    residual_rel = float(np.linalg.norm(y_c - x_c @ a.T) / np.linalg.norm(y_c))
    if residual_rel > RESIDUAL_WARN_THRESHOLD:
        warnings.warn(
            f"linear fit residual {residual_rel:.3g} exceeds {RESIDUAL_WARN_THRESHOLD}; "
            "the relation may not be linear enough for this method",
            stacklevel=2,
        )
    if refit_reverse:
        reverse = _fit_map(y_c, x_c)
    else:
        try:
            reverse = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise DataError("forward map is not invertible") from exc
    gap_xy = trace_gap(a, sigma_x)
    gap_yx = trace_gap(reverse, sigma_y)
    return LinearDirectionResult(
        direction=_direction(abs(gap_xy) - abs(gap_yx)),
        gap_xy=gap_xy,
        gap_yx=gap_yx,
        residual_rel=residual_rel,
    )
