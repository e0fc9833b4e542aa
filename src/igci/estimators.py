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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Direction,
    ReferenceFamily,
    SamplePair,
    _as_finite_vector,
    _map_rows,
    _one_row,
    digamma,
)
from .errors import ConstantInputError, DataError

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
    m_used: int


def _mean_logs(values: np.ndarray, keep: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Mean of log(values) over each row's keep entries, kept of them, taking the
    logs in place in values. A row that drops entries averages them compressed,
    which rounds as a 1-D mean does."""
    logs = np.log(values, out=values)
    means = logs.mean(axis=1)
    for i in np.flatnonzero(kept < values.shape[1]).tolist():
        means[i] = logs[i][keep[i]].mean() if kept[i] else np.nan
    return means


def _spacing_stat(errors: dict, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (n, m) stack, which it sorts in place: (entropy estimate,
    number of retained spacings)."""
    values.sort(axis=1)
    spacings = np.diff(values, axis=1)
    positive = spacings > 0.0
    kept = np.count_nonzero(positive, axis=1)
    for i in np.flatnonzero(kept == 0).tolist():
        errors.setdefault(i, ConstantInputError("every value is identical"))
    # Zero spacings are dropped and the divisor shrinks with them; the
    # digamma terms keep the full sample size.
    stat = digamma(values.shape[1]) - digamma(1.0) + _mean_logs(spacings, positive, kept)
    for i in np.flatnonzero(~np.isfinite(stat) & (kept > 0)).tolist():
        errors.setdefault(i, DataError(
            "spacing entropy is not finite: a gap between neighbouring sorted values "
            f"overflows float64; the values range from {float(values[i].min())!r} to {float(values[i].max())!r}"))
    return stat, kept


def spacing_entropy(values) -> float:
    """Differential entropy estimate from consecutive order-statistic gaps."""
    arr = _as_finite_vector(np.array(values, dtype=np.float64), "values")  # one copy, sorted in place
    if arr.size < 2:
        raise DataError(f"need at least 2 values, got {arr.size}")
    return float(_one_row(_spacing_stat, arr[None])[0][0])


def _sorted_diffs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of two (n, m) stacks: the consecutive differences of x and of y
    along the x order, with ties in x broken by ascending y."""
    m = x.shape[1]
    flat = np.argsort(x, axis=1)
    flat += np.arange(0, x.size, m)[:, None]  # flat indices into the stack
    dx = np.diff(np.take(x, flat), axis=1)
    # Tied x must be ordered by ascending y, which argsort does not promise;
    # tied values are equal, so dx stands.
    for i in np.flatnonzero((dx == 0.0).any(axis=1)).tolist():
        flat[i] = np.lexsort((y[i], x[i])) + i * m
    y_sorted = np.take(y, flat)
    del flat  # the order is spent; drop it before the second diff allocates
    return dx, np.diff(y_sorted, axis=1)


def _slope_stat(errors: dict, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of two (n, m - 1) stacks of differences along sorted x:
    (mean log |dy/dx|, retained count)."""
    keep = (dx != 0.0) & (dy != 0.0)
    kept = np.count_nonzero(keep, axis=1)
    slopes = np.divide(dy, dx)
    stat = _mean_logs(np.abs(slopes, out=slopes), keep, kept)
    for i in np.flatnonzero(kept == 0).tolist():
        errors.setdefault(i, DataError("every consecutive pair had a zero difference"))
    for i in np.flatnonzero(~np.isfinite(stat) & (kept > 0)).tolist():
        errors.setdefault(i, DataError(
            "mean log slope is not finite: dy/dx leaves the float range; the smallest "
            f"spacing between sorted values is {float(np.min(dx[i][keep[i]]))!r}"))
    return stat, kept


def _backward_diffs(x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sorted_diffs(y, x) given the forward differences dx, dy along sorted x.

    Where y strictly increases along the forward order, that order sorts y
    and the differences swap roles. Only the other rows are sorted again.
    """
    up = (dy > 0.0).all(axis=1)
    if up.all():
        return dy, dx
    if not up.any():  # no row to reuse: sort the stacks themselves, not copies of their rows
        return _sorted_diffs(y, x)
    back_dx, back_dy = np.empty_like(dy), np.empty_like(dx)
    back_dx[up], back_dy[up] = dy[up], dx[up]
    rest = np.flatnonzero(~up)
    back_dx[rest], back_dy[rest] = _sorted_diffs(y[rest], x[rest])
    return back_dx, back_dy


def slope_criterion(x, y) -> float:
    """Mean log absolute slope of y against x along the x-sorted sample.

    Pairs where either difference is exactly zero are skipped and the
    average is taken over the remaining pairs only.
    """
    xa = _as_finite_vector(x, "x")
    ya = _as_finite_vector(y, "y")
    if xa.size != ya.size:
        raise DataError(f"x has {xa.size} rows, y has {ya.size}")
    if xa.size < 2:
        raise DataError(f"need at least 2 paired rows, got {xa.size}")
    return float(_one_row(lambda errors: _slope_stat(errors, *_sorted_diffs(xa[None], ya[None])))[0][0])


def _score_stack(errors: dict, x: np.ndarray, y: np.ndarray, reference: ReferenceFamily, estimator: EstimatorKind):
    """(c_xy, m_used) of each row pair of two (n, m) stacks, as igci_score
    scores one pair. A row's error is the first of x preprocessing, y
    preprocessing, the x side and the y side; its c_xy and m_used are void.
    x and y are never written."""
    with np.errstate(all="ignore"):
        if estimator is EstimatorKind.ENTROPY_SPACING:
            # One side at a time, so only one mapped stack and its spacings are
            # alive; side errors rank after both preprocessing errors.
            sides = {}
            s_x, kept_x = _spacing_stat(sides, _map_rows(errors, x, reference)[0])
            s_y, kept_y = _spacing_stat(sides, _map_rows(errors, y, reference)[0])
            for i, exc in sides.items():
                errors.setdefault(i, exc)
            return s_y - s_x, np.minimum(kept_x, kept_y) + 1
        x, y = _map_rows(errors, x, reference)[0], _map_rows(errors, y, reference)[0]
        dx, dy = _sorted_diffs(x, y)
        forward, kept_f = _slope_stat(errors, dx, dy)
        backward, kept_b = _slope_stat(errors, *_backward_diffs(x, y, dx, dy))
        # Half the difference: the reverse term compensates the divergence
        # both terms share once noise makes the relation non-functional.
        return (forward - backward) / 2.0, np.minimum(kept_f, kept_b) + 1


def _direction(c_xy: float) -> Direction:
    if c_xy < -DECISION_TOL:
        return Direction.X_TO_Y
    return Direction.Y_TO_X if c_xy > DECISION_TOL else Direction.UNDECIDED


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
    c_xy, m_used = _one_row(_score_stack, pair.x[None], pair.y[None], reference, estimator)
    c_xy = float(c_xy[0])
    return IgciReport(c_xy, -c_xy, _direction(c_xy), int(m_used[0]))
