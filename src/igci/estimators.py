"""Direction scores for deterministically related scalar pairs.

The idea: map both variables onto a common reference family, then compare
how irregular each marginal looks relative to that reference. When y is a
noiseless invertible function of x, the two summary statistics below are
exactly antisymmetric in the pair, so a single signed score c_xy decides
the direction: negative means x -> y, positive means y -> x, and a score
within DECISION_TOL of zero is reported as undecided rather than forced.

Two interchangeable estimators are provided:

* entropy route: difference of spacing-based differential entropies of the
  two preprocessed marginals;
* slope route: mean log absolute slope between consecutive x-sorted points,
  symmetrized with the same quantity computed in the reverse direction so
  that the noise-driven divergence of either term cancels.

On noise-free strictly monotone data the two routes agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Direction,
    ReferenceFamily,
    SamplePair,
    _as_finite_vector,
    digamma,
    normalize_uniform,
    standardize_gaussian,
)
from .errors import (
    AllTiedError,
    DataError,
    DimensionMismatchError,
    NoValidSpacingsError,
    TooFewRowsError,
)

__all__ = [
    "DECISION_TOL",
    "EstimatorKind",
    "IgciReport",
    "spacing_entropy",
    "slope_criterion",
    "igci_score",
]

# Scores with absolute value at or below this are reported as undecided.
DECISION_TOL = 1e-12


class EstimatorKind(Enum):
    ENTROPY_SPACING = "entropy"
    SLOPE_INTEGRAL = "slope"


@dataclass(frozen=True)
class IgciReport:
    """Result of one direction inference on a sample pair."""

    c_xy: float
    c_yx: float
    direction: Direction
    estimator: EstimatorKind
    reference: ReferenceFamily
    m_used: int


def _spacing_stat(values: np.ndarray) -> tuple[float, int]:
    """(entropy estimate, number of retained spacings)."""
    m = values.size
    spacings = np.diff(np.sort(values))
    kept = spacings[spacings > 0.0]
    if kept.size == 0:
        raise AllTiedError("every value is identical")
    # Zero spacings are dropped and the divisor shrinks with them; the
    # digamma terms keep the full sample size.
    stat = digamma(m) - digamma(1.0) + float(np.mean(np.log(kept)))
    return stat, int(kept.size)


def spacing_entropy(values) -> float:
    """Differential entropy estimate from consecutive order-statistic gaps."""
    arr = _as_finite_vector(values, "values")
    if arr.size < 2:
        raise TooFewRowsError(f"need at least 2 values, got {arr.size}")
    return _spacing_stat(arr)[0]


def _slope_stat(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """(mean log |dy/dx| over x-sorted consecutive pairs, retained count)."""
    order = np.lexsort((y, x))  # sort by x, ties broken by ascending y
    dx = np.diff(x[order])
    dy = np.diff(y[order])
    keep = (dx != 0.0) & (dy != 0.0)
    if not np.any(keep):
        raise NoValidSpacingsError("every consecutive pair had a zero difference")
    with np.errstate(all="ignore"):
        stat = float(np.mean(np.log(np.abs(dy[keep] / dx[keep]))))
    if not math.isfinite(stat):
        raise DataError(
            "mean log slope is not finite: dy/dx leaves the float range; the smallest "
            f"spacing between sorted values is {float(np.min(dx[keep]))!r}"
        )
    return stat, int(np.count_nonzero(keep))


def slope_criterion(x, y) -> float:
    """Mean log absolute slope of y against x along the x-sorted sample.

    Pairs where either difference is exactly zero are skipped and the
    average is taken over the remaining pairs only.
    """
    xa = _as_finite_vector(x, "x")
    ya = _as_finite_vector(y, "y")
    if xa.size != ya.size:
        raise DimensionMismatchError(f"x has {xa.size} rows, y has {ya.size}")
    if xa.size < 2:
        raise TooFewRowsError(f"need at least 2 paired rows, got {xa.size}")
    return _slope_stat(xa, ya)[0]


def _preprocess(values: np.ndarray, reference: ReferenceFamily) -> np.ndarray:
    if reference is ReferenceFamily.UNIFORM_UNIT:
        return normalize_uniform(values)
    return standardize_gaussian(values)[0]


def igci_score(
    pair: SamplePair,
    reference: ReferenceFamily = ReferenceFamily.UNIFORM_UNIT,
    estimator: EstimatorKind = EstimatorKind.ENTROPY_SPACING,
) -> IgciReport:
    """Infer the causal direction of a scalar pair.

    Both variables are preprocessed independently onto the reference family.
    The report carries the signed score both ways round, with c_yx = -c_xy
    by construction.
    """
    x = _preprocess(pair.x, reference)
    y = _preprocess(pair.y, reference)
    if estimator is EstimatorKind.ENTROPY_SPACING:
        s_x, kept_x = _spacing_stat(x)
        s_y, kept_y = _spacing_stat(y)
        c_xy = s_y - s_x
        m_used = min(kept_x, kept_y) + 1
    else:
        forward, kept_f = _slope_stat(x, y)
        backward, kept_b = _slope_stat(y, x)
        # Half the difference: the reverse term compensates the divergence
        # both terms share once noise makes the relation non-functional.
        c_xy = (forward - backward) / 2.0
        m_used = min(kept_f, kept_b) + 1
    if c_xy < -DECISION_TOL:
        direction = Direction.X_TO_Y
    elif c_xy > DECISION_TOL:
        direction = Direction.Y_TO_X
    else:
        direction = Direction.UNDECIDED
    return IgciReport(
        c_xy=c_xy,
        c_yx=-c_xy,
        direction=direction,
        estimator=estimator,
        reference=reference,
        m_used=m_used,
    )
