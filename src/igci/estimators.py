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


# Columns per step of _diff_in_place. numpy copies an input that overlaps its output
# but is not the output, so each step copies its own columns of every row. The saving
# over np.diff appears only past this many differences: a smaller stack is one step,
# and that step copies the whole stack once.
_DIFF_COLUMNS = 4096


def _diff_in_place(values: np.ndarray) -> np.ndarray:
    """np.diff(values, axis=1), written over values[:, 1:] and returned as that view.
    Steps run last columns first, so each reads its left neighbour before it is written."""
    for stop in range(values.shape[1], 1, -_DIFF_COLUMNS):
        start = max(stop - _DIFF_COLUMNS, 1)
        np.subtract(values[:, start:stop], values[:, start - 1:stop - 1], out=values[:, start:stop])
    return values[:, 1:]


def _mean_logs(errors: dict, values: np.ndarray, keep: np.ndarray, empty, overflow) -> tuple[np.ndarray, np.ndarray]:
    """(mean log, kept count) over each row's keep entries of an (n, k) stack, taking
    the logs in place in values. Only a row that drops entries is counted, alone, as
    numpy sums a mask along an axis through a 64 KiB casting buffer; it is averaged
    compressed, which rounds as a 1-D mean does. Row i records empty() if it keeps
    nothing, and overflow(i) if its mean is not finite."""
    kept = np.full(len(keep), keep.shape[1])
    logs = np.log(values, out=values)
    means = logs.mean(axis=1)
    for i in np.flatnonzero(~keep.all(axis=1)).tolist():
        kept[i] = np.count_nonzero(keep[i])
        means[i] = logs[i][keep[i]].mean() if kept[i] else np.nan
    for i in np.flatnonzero(~np.isfinite(means)).tolist():  # an empty row's mean is NaN
        errors.setdefault(i, overflow(i) if kept[i] else empty())
    return means, kept


def _spacing_stat(errors: dict, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (n, m) stack, which it sorts and overwrites: (entropy estimate,
    number of retained spacings)."""
    values.sort(axis=1)
    lo, hi = values[:, 0].copy(), values[:, -1].copy()  # for the overflow message
    spacings = _diff_in_place(values)
    # Zero spacings are dropped and the divisor shrinks with them; the
    # digamma terms keep the full sample size.
    means, kept = _mean_logs(
        errors, spacings, spacings > 0.0,
        lambda: ConstantInputError("every value is identical"),
        lambda i: DataError(
            "spacing entropy is not finite: a gap between neighbouring sorted values "
            f"overflows float64; the values range from {float(lo[i])!r} to {float(hi[i])!r}"))
    return digamma(values.shape[1]) - digamma(1.0) + means, kept


def spacing_entropy(values) -> float:
    """Differential entropy estimate from consecutive order-statistic gaps."""
    arr = _as_finite_vector(np.array(values, dtype=np.float64), "values")  # one copy, sorted in place
    if arr.size < 2:
        raise DataError(f"need at least 2 values, got {arr.size}")
    return float(_one_row(_spacing_stat, arr[None])[0][0])


def _sort_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sort each row of an (n, m) stack a in place and return b's rows taken in
    that order, a fresh stack: the pairs (a[i, j], b[i, j]) by ascending a, with
    ties in a broken by ascending b. b is never written."""
    order = np.argsort(a, axis=1)
    order += np.arange(0, a.size, a.shape[1])[:, None]  # flat indices into the stack
    np.take(a, order, out=a)  # through a copy of a, freed before b is taken
    b = np.take(b, order)
    del order
    # Tied a must be ordered by ascending b, which argsort does not promise.
    for i in np.flatnonzero((a[:, 1:] == a[:, :-1]).any(axis=1)).tolist():
        b[i] = b[i][np.lexsort((b[i], a[i]))]
    return b


def _slope_stat(errors: dict, dx: np.ndarray, dy: np.ndarray, slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of two (n, m - 1) stacks of differences along sorted x:
    (mean log |dy/dx|, retained count). The slopes are taken into slopes, which may be dy."""
    keep = dx != 0.0
    np.logical_and(keep, dy, out=keep)  # dy != 0.0, cast a block at a time: no second mask
    return _mean_logs(
        errors, np.abs(np.divide(dy, dx, out=slopes), out=slopes), keep,
        lambda: DataError("every consecutive pair had a zero difference"),
        lambda i: DataError(
            "mean log slope is not finite: dy/dx leaves the float range; the smallest "
            f"spacing between sorted values is {float(np.min(dx[i][keep[i]]))!r}"))


def _sorted_slope_stat(errors: dict, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_slope_stat along sorted x of two (n, m) stacks. x is sorted and overwritten;
    y is never written."""
    dy = _diff_in_place(_sort_pairs(x, y))
    return _slope_stat(errors, _diff_in_place(x), dy, dy)


def slope_criterion(x, y) -> float:
    """Mean log absolute slope of y against x along the x-sorted sample.

    Pairs where either difference is exactly zero are skipped and the
    average is taken over the remaining pairs only.
    """
    xa = _as_finite_vector(np.array(x, dtype=np.float64), "x")  # one copy, sorted in place
    ya = _as_finite_vector(y, "y")
    if xa.size != ya.size:
        raise DataError(f"x has {xa.size} rows, y has {ya.size}")
    if xa.size < 2:
        raise DataError(f"need at least 2 paired rows, got {xa.size}")
    return float(_one_row(_sorted_slope_stat, xa[None], ya[None])[0][0])


def _slope_sides(errors: dict, sides, reference: ReferenceFamily) -> tuple[np.ndarray, ...]:
    """(forward, kept_f, backward, kept_b): _slope_stat of each row pair of two
    (n, m) stacks, x's then y's from the iterator sides, mapped onto reference in
    place, along sorted x and along sorted y. Each stack is pulled from sides here,
    not passed in, so no argument keeps y's alive once its pairs are in x order."""
    x = _map_rows(errors, next(sides), reference)[0]
    y = _sort_pairs(x, _map_rows(errors, next(sides), reference)[0])
    dy = np.diff(y, axis=1)
    if (dy > 0.0).all():
        # y rises along x in every row, so the x order sorts y too and the
        # differences swap roles. The slopes get a buffer of their own, since
        # log|dx/dy| and -log|dy/dx| can differ in the last bit.
        del y
        dx = _diff_in_place(x)
        slopes = np.empty_like(dx)
        return *_slope_stat(errors, dx, dy, slopes), *_slope_stat(errors, dy, dx, slopes)
    # The pairs are sorted again by y, so the forward x differences are fresh
    # too, and both are dropped before that sort.
    forward = _slope_stat(errors, np.diff(x, axis=1), dy, dy)
    del dy
    return *forward, *_sorted_slope_stat(errors, y, x)


def _score_stack(errors: dict, sides, reference: ReferenceFamily, estimator: EstimatorKind):
    """(c_xy, m_used) of each row pair of two (n, m) stacks, x's then y's in the
    iterable sides, as igci_score scores one pair. A row's error is the first of
    x preprocessing, y preprocessing, the x side and the y side; its c_xy and
    m_used are void. Each stack is the scoring's working memory: it is mapped,
    sorted and overwritten, so it must share memory with no other. The entropy
    route asks for y only once x is reduced and released, so a lazy sides holds
    one stack at a time; the slope route takes both."""
    sides = iter(sides)
    with np.errstate(all="ignore"):
        if estimator is EstimatorKind.ENTROPY_SPACING:
            # One side at a time, so only one mapped stack is alive. A side fails
            # only on a constant row or a gap beyond float64, which a row that maps
            # cleanly cannot have, so no side error comes before a y mapping error.
            s_x, kept_x = _spacing_stat(errors, _map_rows(errors, next(sides), reference)[0])
            s_y, kept_y = _spacing_stat(errors, _map_rows(errors, next(sides), reference)[0])
            return s_y - s_x, np.minimum(kept_x, kept_y) + 1
        forward, kept_f, backward, kept_b = _slope_sides(errors, sides, reference)
        # Half the difference: the reverse term compensates the divergence
        # both terms share once noise makes the relation non-functional.
        return (forward - backward) / 2.0, np.minimum(kept_f, kept_b) + 1


def _direction(c_xy: float) -> Direction:
    if c_xy < -DECISION_TOL:
        return Direction.X_TO_Y
    return Direction.Y_TO_X if c_xy > DECISION_TOL else Direction.UNDECIDED


def _score_pair(sides, reference: ReferenceFamily, estimator: EstimatorKind) -> IgciReport:
    """The report on the two 1-D float64 samples of one finite pair, x's then
    y's in the iterable sides, as _score_stack scores them, in the samples
    themselves. c_yx is 0.0 - c_xy, which is -c_xy for every nonzero score and
    0.0, not -0.0, for a zero one."""
    # map holds no side it has handed on, so a lazy sides keeps its one-at-a-time promise.
    c_xy, m_used = _one_row(_score_stack, map(np.atleast_2d, sides), reference, estimator)
    c_xy = float(c_xy[0])
    return IgciReport(c_xy, 0.0 - c_xy, _direction(c_xy), int(m_used[0]))


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
    # Each side is copied only when the scoring asks for it, and scored in its copy.
    return _score_pair((np.array(s) for s in (pair.x, pair.y)), reference, estimator)
