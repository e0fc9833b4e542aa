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

from .core import Direction, MultiSample, _frozen
from .errors import (
    DimensionMismatchError,
    NonPositiveTraceError,
    SingularFitError,
)
from .estimators import _direction

__all__ = [
    "RESIDUAL_WARN_THRESHOLD",
    "LinearModel",
    "LinearDirectionResult",
    "renormalized_trace",
    "trace_gap",
    "infer_linear_direction",
]

# Relative Frobenius residual above which the linear fit is suspect.
RESIDUAL_WARN_THRESHOLD = 0.05

_MAX_CONDITION = 1e12


def _square(matrix, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return arr


def renormalized_trace(matrix) -> float:
    """Trace divided by dimension, tr(B)/d."""
    arr = _square(matrix, "matrix")
    return float(np.trace(arr)) / arr.shape[0]


def trace_gap(a, sigma_x) -> float:
    """log tau(A Sigma A^T) - log tau(A A^T) - log tau(Sigma).

    Zero when the overall scaling of the map is unrelated to the input
    covariance, for instance when Sigma is any multiple of the identity.
    Invariant under rescaling of A.
    """
    a_arr = _square(a, "a")
    s_arr = _square(sigma_x, "sigma_x")
    if a_arr.shape != s_arr.shape:
        raise DimensionMismatchError(f"a is {a_arr.shape}, sigma_x is {s_arr.shape}")
    pushed = renormalized_trace(a_arr @ s_arr @ a_arr.T)
    map_scale = renormalized_trace(a_arr @ a_arr.T)
    input_scale = renormalized_trace(s_arr)
    for name, value in (("a@sigma@a.T", pushed), ("a@a.T", map_scale), ("sigma_x", input_scale)):
        if value <= 0.0:
            raise NonPositiveTraceError(f"renormalized trace of {name} is {value!r}")
    return float(np.log(pushed) - np.log(map_scale) - np.log(input_scale))


@dataclass(frozen=True)
class LinearModel:
    """Fitted square map together with the two empirical covariances."""

    a: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray

    def __post_init__(self) -> None:
        a = _square(self.a, "a")
        sx = _square(self.sigma_x, "sigma_x")
        sy = _square(self.sigma_y, "sigma_y")
        if not (a.shape == sx.shape == sy.shape):
            raise DimensionMismatchError("a, sigma_x, sigma_y must share one dimension")
        if np.linalg.cond(a) > _MAX_CONDITION:
            raise SingularFitError("fitted map is numerically singular")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "sigma_x", _frozen(sx))
        object.__setattr__(self, "sigma_y", _frozen(sy))

    @property
    def d(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class LinearDirectionResult:
    direction: Direction
    gap_xy: float
    gap_yx: float
    model: LinearModel
    residual_rel: float


def _population_cov(data: np.ndarray) -> np.ndarray:
    centered = data - data.mean(axis=0)
    return centered.T @ centered / data.shape[0]


def _fit_map(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    x_c = inputs - inputs.mean(axis=0)
    y_c = outputs - outputs.mean(axis=0)
    coef, _, rank, _ = np.linalg.lstsq(x_c, y_c, rcond=None)
    if rank < inputs.shape[1]:
        raise SingularFitError(f"regressor rank {rank} < dimension {inputs.shape[1]}")
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
    rather than an error.
    """
    if x.m != y.m:
        raise DimensionMismatchError(f"x has {x.m} rows, y has {y.m}")
    if x.d != y.d:
        raise DimensionMismatchError(f"x is {x.d}-dimensional, y is {y.d}-dimensional")
    a = _fit_map(x.data, y.data)
    y_c = y.data - y.data.mean(axis=0)
    x_c = x.data - x.data.mean(axis=0)
    denom = float(np.linalg.norm(y_c))
    if denom == 0.0:
        raise SingularFitError("y is constant")
    residual_rel = float(np.linalg.norm(y_c - x_c @ a.T)) / denom
    if residual_rel > RESIDUAL_WARN_THRESHOLD:
        warnings.warn(
            f"linear fit residual {residual_rel:.3g} exceeds {RESIDUAL_WARN_THRESHOLD}; "
            "the relation may not be linear enough for this method",
            stacklevel=2,
        )
    model = LinearModel(a=a, sigma_x=_population_cov(x.data), sigma_y=_population_cov(y.data))
    if refit_reverse:
        reverse = _fit_map(y.data, x.data)
    else:
        try:
            reverse = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularFitError("forward map is not invertible") from exc
    gap_xy = trace_gap(a, model.sigma_x)
    gap_yx = trace_gap(reverse, model.sigma_y)
    return LinearDirectionResult(
        direction=_direction(abs(gap_xy) - abs(gap_yx)),
        gap_xy=gap_xy,
        gap_yx=gap_yx,
        model=model,
        residual_rel=residual_rel,
    )
