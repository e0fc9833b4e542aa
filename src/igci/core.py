"""Domain types and shared numerics.

Conventions used across the package:

* variance is always the population form (divisor m, not m - 1), which only
  has to be applied consistently for direction scores to be meaningful;
* samples are immutable after construction, arrays are stored as read-only
  views, so the caller's own arrays stay writeable;
* preprocessing maps each variable separately onto a reference family
  (unit-interval uniform or standard Gaussian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstantInputError, DataError, DomainError

__all__ = [
    "Direction",
    "ReferenceFamily",
    "SamplePair",
    "MultiSample",
    "normalize_uniform",
    "standardize_gaussian",
    "digamma",
    "kl_additivity_gap",
]


class Direction(Enum):
    """Outcome of a direction inference."""

    X_TO_Y = "x->y"
    Y_TO_X = "y->x"
    UNDECIDED = "undecided"


class ReferenceFamily(Enum):
    """Reference distribution a variable is mapped onto before scoring."""

    UNIFORM_UNIT = "uniform"
    GAUSSIAN = "gaussian"


_FLOAT_TINY = float(np.finfo(np.float64).tiny)


def _as_finite_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def _unit_scale(arr: np.ndarray) -> np.ndarray:
    """arr / 2**e, 2**e just above the largest |entry| (none when all are 0), written over
    arr and returned; no |arr| temporary is made. Exact unless a result is subnormal, and arr and
    each power-of-two multiple of it that float64 holds exactly give the same array, bit for bit."""
    return np.ldexp(arr, -np.frexp(max(arr.max(initial=0.0), -arr.min(initial=0.0)))[1], out=arr)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only view of arr; nothing is copied and arr itself stays writeable."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SamplePair:
    """Paired observations of two scalar variables."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = _as_finite_vector(self.x, "x")
        y = _as_finite_vector(self.y, "y")
        if x.shape != y.shape:
            raise DataError(f"x has {x.size} rows, y has {y.size}")
        if x.size < 3:
            raise DataError(f"need at least 3 paired rows, got {x.size}")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))

    @property
    def m(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class MultiSample:
    """m observations of a d-dimensional variable, rows are observations."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"data must be m x d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("data contains non-finite values")
        # m > d is required for a nonsingular empirical covariance.
        if arr.shape[0] <= arr.shape[1]:
            raise DataError(
                f"{arr.shape[0]} observations in {arr.shape[1]} dimensions cannot have full-rank covariance"
            )
        object.__setattr__(self, "data", _frozen(arr))


def _one_row(stack_fn, *args):
    """stack_fn(errors, *args) on one-row stacks, raising the row's error.
    Stack functions map a failing row's index to its first error in errors;
    a step that over- or underflows leaves a value their checks refuse."""
    errors = {}
    with np.errstate(all="ignore"):
        out = stack_fn(errors, *args)
    if errors:
        raise errors[0]
    return out


def _map_rows(
    errors: dict, values: np.ndarray, reference: ReferenceFamily
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values - shift) / scale for each row of an (n, m) stack, written over values,
    with shift, scale = min, max - min for the uniform reference and mean, population
    std for the Gaussian one. Returns (values, shift, scale)."""
    lo, hi = values.min(axis=1), values.max(axis=1)
    if reference is ReferenceFamily.UNIFORM_UNIT:
        shift, scale, least = lo, hi - lo, 0.0
        values -= shift[:, None]
        values /= scale[:, None]
    else:
        # Moments of values / 2**e, 2**e just above the largest |value|: exact, so normal
        # data maps bit for bit, and no square over- or underflows. A subnormal std lost digits.
        e = np.frexp(np.maximum(-lo, hi))[1][:, None]
        np.ldexp(values, -e, out=values)
        centre, spread = values.mean(axis=1, keepdims=True), values.std(axis=1, keepdims=True)
        values -= centre
        values /= spread
        shift, scale, least = np.ldexp(centre, e)[:, 0], np.ldexp(spread, e)[:, 0], _FLOAT_TINY
    for i in np.flatnonzero(hi == lo).tolist():
        errors.setdefault(i, ConstantInputError("all values identical, the reference mapping is undefined"))
    for i in np.flatnonzero(~((scale >= least) & (scale < math.inf))).tolist():
        errors.setdefault(i, DataError(
            f"value range {float(lo[i])!r} to {float(hi[i])!r} overflows or underflows "
            f"float64 in the {reference.value} reference mapping"))
    return values, shift, scale


def _map_one(values, reference: ReferenceFamily):
    arr = _as_finite_vector(np.array(values, dtype=np.float64), "values")  # one copy, mapped in place
    if arr.size == 0:
        raise DataError("cannot map an empty sample onto a reference")
    mapped, shift, scale = _one_row(_map_rows, arr[None], reference)
    return mapped[0], float(shift[0]), float(scale[0])


def normalize_uniform(values) -> np.ndarray:
    """Affinely map values onto [0, 1] with min 0 and max 1 exactly.

    Idempotent: a second application returns the input unchanged.
    """
    return _map_one(values, ReferenceFamily.UNIFORM_UNIT)[0]


def standardize_gaussian(values) -> tuple[np.ndarray, float, float]:
    """Map values to mean 0 and variance 1, returning (standardized, mean, std).

    Uses the population variance (divisor m). The original sample is
    recovered as standardized * std + mean.
    """
    return _map_one(values, ReferenceFamily.GAUSSIAN)


# Switch-over point for the asymptotic series; below it the recurrence
# psi(x) = psi(x + 1) - 1/x lifts the argument.
_DIGAMMA_ASYMPTOTIC = 10.0


def digamma(x: float) -> float:
    """Digamma function for real x > 0.

    Upward recurrence into the de Moivre asymptotic region, then the
    Bernoulli-coefficient series through x**-12. Absolute error stays below
    1e-10 on [1e-3, 1e6].
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _DIGAMMA_ASYMPTOTIC:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = u * (
        1.0 / 12.0
        - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0)))))
    )
    return acc + math.log(x) - 0.5 / x - tail


def _as_probability_vector(values, name: str) -> np.ndarray:
    arr = _as_finite_vector(values, name)
    if arr.size == 0 or np.any(arr < 0.0):
        raise DataError(f"{name} must be a nonnegative probability vector")
    if abs(float(arr.sum()) - 1.0) > 1e-8:
        raise DataError(f"{name} must sum to 1 within 1e-8, got {float(arr.sum())!r}")
    return arr


def _discrete_kl(p, q) -> float:
    """Kullback-Leibler divergence sum(p * log(p / q)) over a shared support.

    Zero p entries contribute nothing; a positive p entry where q is zero
    means the supports differ and raises DataError.
    """
    p = _as_probability_vector(p, "p")
    q = _as_probability_vector(q, "q")
    if p.size != q.size:
        raise DataError(f"length {p.size} vs {q.size}")
    live = p > 0.0
    if np.any(q[live] == 0.0):
        raise DataError("p has mass where q has none")
    # A difference of logs, since p / q can overflow where log(p / q) cannot.
    value = float(np.sum(p[live] * (np.log(p[live]) - np.log(q[live]))))
    # Rounding can leave a tiny negative residue when p == q.
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def kl_additivity_gap(q, r, s) -> tuple[float, float]:
    """Two routes to the same divergence difference, for identity checking.

    Returns (a, b) with a = D(q||s) - D(q||r) - D(r||s) computed from three
    divergences and b = sum((q - r) * log(r / s)) computed directly. For
    strictly positive vectors on a shared support the two agree to rounding.
    """
    qv = _as_probability_vector(q, "q")
    rv = _as_probability_vector(r, "r")
    sv = _as_probability_vector(s, "s")
    if not (qv.size == rv.size == sv.size):
        raise DataError("q, r, s must share one support")
    if np.any(rv == 0.0) or np.any(sv == 0.0):
        raise DataError("r and s must be strictly positive")
    via_divergences = _discrete_kl(qv, sv) - _discrete_kl(qv, rv) - _discrete_kl(rv, sv)
    log_ratio = np.log(rv) - np.log(sv)
    direct = float(np.sum(qv * log_ratio) - np.sum(rv * log_ratio))
    return via_divergences, direct
