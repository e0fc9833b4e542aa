import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igci import (
    ConstantInputError,
    DataError,
    Direction,
    IgciError,
    EstimatorKind,
    ReferenceFamily,
    SamplePair,
    digamma,
    igci_score,
    normalize_uniform,
    slope_criterion,
    spacing_entropy,
    standardize_gaussian,
)
from igci.estimators import _DIFF_COLUMNS, _score_stack, _sort_pairs
from igci.simulation import substream

ENTROPY = EstimatorKind.ENTROPY_SPACING
SLOPE = EstimatorKind.SLOPE_INTEGRAL
UNIFORM = ReferenceFamily.UNIFORM_UNIT
GAUSSIAN = ReferenceFamily.GAUSSIAN

GAUSSIAN_ENTROPY = 1.4189385332046727  # 0.5 * log(2 * pi * e)


# ------------------------------------------------------------ spacing entropy

def test_spacing_entropy_three_point_example():
    # psi(3) - psi(1) + log(1/2) = 1.5 - log 2
    assert spacing_entropy([0.0, 0.5, 1.0]) == pytest.approx(0.8068528194400547, abs=1e-12)


def test_spacing_entropy_drops_zero_spacings_only_from_the_mean():
    # spacings (0, 1): the zero is dropped, the digamma terms keep m = 3
    assert spacing_entropy([0.0, 0.0, 1.0]) == pytest.approx(1.5, abs=1e-12)


def test_spacing_entropy_sort_order_irrelevant():
    rng = substream(21)
    values = rng.standard_normal(500)
    shuffled = values[rng.permutation(500)]
    assert spacing_entropy(values) == spacing_entropy(shuffled)


def test_spacing_entropy_monte_carlo_calibration():
    rng = substream(22)
    uniform = rng.random(20000)
    normal = rng.standard_normal(20000)
    assert abs(spacing_entropy(uniform) - 0.0) <= 0.05
    assert abs(spacing_entropy(normal) - GAUSSIAN_ENTROPY) <= 0.05


def test_spacing_entropy_scale_shift():
    rng = substream(23)
    values = rng.random(300)
    base = spacing_entropy(values)
    assert spacing_entropy(7.5 * values) == pytest.approx(base + math.log(7.5), abs=1e-10)
    assert spacing_entropy(values - 42.0) == pytest.approx(base, abs=1e-8)


def test_spacing_entropy_errors():
    with pytest.raises(ConstantInputError, match="every value is identical"):
        spacing_entropy([3.0, 3.0, 3.0])
    with pytest.raises(DataError, match="need at least 2 values, got 1"):
        spacing_entropy([3.0])
    with pytest.raises(DataError, match=r"^values must be one-dimensional, got shape \(3, 2\)$"):
        spacing_entropy(np.ones((3, 2)))


def test_spacing_entropy_overflowing_spacing_is_a_data_error():
    # the one spacing, 1e308 - (-1e308), overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="spacing entropy is not finite") as info:
            spacing_entropy([-1e308, 1e308])
    assert type(info.value) is DataError


# ------------------------------------------------------------ slope criterion

def test_slope_criterion_three_point_example():
    # slopes 0.5 and 1.5: mean of logs = log(3)/2 - log(2)
    got = slope_criterion([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
    assert got == pytest.approx(-0.14384103622589045, abs=1e-12)


def test_slope_criterion_identity_map_is_zero():
    values = np.linspace(-2.0, 5.0, 50)
    assert slope_criterion(values, values) == 0.0


def test_slope_criterion_tie_break_by_ascending_y():
    # x-ties sorted by y: pairs (0,3), (0,5), (1,1); the first gap has dx = 0
    # and is skipped, the second contributes log |(1 - 5) / 1|
    got = slope_criterion([0.0, 0.0, 1.0], [5.0, 3.0, 1.0])
    assert got == pytest.approx(math.log(4.0), abs=1e-12)


def test_slope_criterion_affine_equivariance():
    rng = substream(24)
    x = rng.random(400)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(400)
    base = slope_criterion(x, y)
    for a in (3.0, -0.25, 1e-3):
        assert slope_criterion(x, a * y + 1.0) == pytest.approx(base + math.log(abs(a)), abs=1e-10)


def test_slope_criterion_errors():
    with pytest.raises(DataError, match="every consecutive pair had a zero difference"):
        slope_criterion([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="x has 2 rows, y has 3"):
        slope_criterion([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="need at least 2 paired rows, got 1"):
        slope_criterion([1.0], [2.0])


# ----------------------------------------------------------------- igci score

def _cbrt_pair(seed: int = 25, m: int = 1000) -> SamplePair:
    x = substream(seed).random(m)
    return SamplePair(x, np.cbrt(x))


@pytest.mark.parametrize("estimator", [ENTROPY, SLOPE])
@pytest.mark.parametrize("reference", [UNIFORM, GAUSSIAN])
def test_igci_score_cube_root_mechanism(estimator, reference):
    report = igci_score(_cbrt_pair(), reference=reference, estimator=estimator)
    assert report.direction is Direction.X_TO_Y
    assert report.c_xy < 0.0
    assert report.c_yx == -report.c_xy
    assert report.m_used == 1000


def test_igci_score_exact_antisymmetry_under_swap():
    pair = _cbrt_pair(seed=26)
    for estimator in (ENTROPY, SLOPE):
        fwd = igci_score(pair, estimator=estimator)
        rev = igci_score(SamplePair(pair.y, pair.x), estimator=estimator)
        assert rev.c_xy == -fwd.c_xy
        assert fwd.direction is Direction.X_TO_Y and rev.direction is Direction.Y_TO_X


def test_igci_score_shuffle_invariance_is_bitwise():
    pair = _cbrt_pair(seed=27, m=500)
    rng = substream(28)
    perm = rng.permutation(500)
    shuffled = SamplePair(pair.x[perm], pair.y[perm])
    for estimator in (ENTROPY, SLOPE):
        assert igci_score(shuffled, estimator=estimator).c_xy == igci_score(pair, estimator=estimator).c_xy


def test_igci_score_linear_map_is_undecided():
    x = substream(29).random(200)
    report = igci_score(SamplePair(x, 2.0 * x))
    assert report.c_xy == 0.0
    assert report.direction is Direction.UNDECIDED


def test_igci_estimator_agreement_on_invertible_mechanisms():
    # noise-free strictly monotone data: entropy and slope routes coincide
    worst = 0.0
    for trial in range(20):
        rng = substream(30, trial)
        x = rng.random(200)
        y = x ** 3 if trial % 2 else np.sqrt(x)
        pair = SamplePair(x, y)
        for reference in (UNIFORM, GAUSSIAN):
            a = igci_score(pair, reference, ENTROPY).c_xy
            b = igci_score(pair, reference, SLOPE).c_xy
            worst = max(worst, abs(a - b))
    assert worst <= 1e-10


def test_igci_score_decreasing_mechanism():
    x = substream(31).random(800)
    report = igci_score(SamplePair(x, -(x ** 3)))
    assert report.direction is Direction.X_TO_Y


def test_igci_slope_symmetrization_tames_noise_divergence():
    rng = substream(32)
    x = rng.random(2000)
    y = x + 5.0 * rng.standard_normal(2000)
    raw_forward = slope_criterion(normalize_uniform(x), normalize_uniform(y))
    sym = igci_score(SamplePair(x, y), estimator=SLOPE).c_xy
    assert raw_forward > 1.0
    assert abs(sym) < 0.5 * raw_forward


def test_igci_score_m_used_counts_retained_spacings():
    x = np.array([0.0, 0.0, 0.25, 0.5, 1.0])
    y = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
    report = igci_score(SamplePair(x, y), estimator=ENTROPY)
    # x keeps 3 of 4 spacings, y keeps all 4: min(3, 4) + 1
    assert report.m_used == 4


@pytest.mark.parametrize("reference", [UNIFORM, GAUSSIAN])
@pytest.mark.parametrize("estimator", [ENTROPY, SLOPE])
def test_igci_score_extreme_range_names_the_overflow(reference, estimator):
    # max - min overflows float64 here; the std, 7.1e307, does not, so the
    # Gaussian reference fails only on a spread whose std is subnormal
    pair = SamplePair([-1e308, 0.0, 1e308, 5.0], [1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if reference is GAUSSIAN:
            assert math.isfinite(igci_score(pair, reference, estimator).c_xy)
            pair = SamplePair([0.0, 5e-324, 1e-323, 2e-323], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="overflows or underflows") as info:
            igci_score(pair, reference, estimator)
    assert type(info.value) is DataError


@pytest.mark.parametrize("swap", [False, True])
def test_igci_score_slope_names_a_subnormal_spacing(swap):
    # 5e-324 survives normalize_uniform, and 0.5 / 5e-324 overflows
    x, y = [0.0, 5e-324, 1.0, 0.5], [0.0, 0.5, 1.0, 0.7]
    pair = SamplePair(y, x) if swap else SamplePair(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="not finite.*5e-324"):
            igci_score(pair, estimator=SLOPE)


def test_rising_rows_score_alike_in_a_rising_and_in_a_mixed_stack():
    # A stack whose rows all rise along x reuses the forward differences for the
    # backward side; a stack with any other row sorts every row again by y.
    rng = substream(34)
    x = rng.random((5, 40))
    x[1] = np.arange(40) // 4  # tied x; y increases along the order that breaks ties by y
    y = np.array([np.sqrt(x[0]), np.arange(40.0), 1.0 - x[2] ** 3, x[3] + 0.3 * rng.standard_normal(40), np.round(x[4], 1)])
    a = x.copy()
    b = _sort_pairs(a, y)
    for i in range(5):
        order = np.lexsort((y[i], x[i]))
        assert np.array_equal(a[i], x[i][order]) and np.array_equal(b[i], y[i][order])
    assert [(np.diff(row) > 0).all() for row in b] == [True, True, False, False, False]
    # y falls along x in row 2, so sorting the pairs by y reverses the x order:
    # each side's differences are the other order's, reversed and negated
    back_y = y.copy()
    back_x = _sort_pairs(back_y, x)
    assert np.array_equal(np.diff(back_y[2]), -np.diff(b[2])[::-1])
    assert np.array_equal(np.diff(back_x[2]), -np.diff(a[2])[::-1])
    for reference in (UNIFORM, GAUSSIAN):
        rising = _score_stack({}, x[:2], y[:2], reference, SLOPE)
        mixed = _score_stack({}, x, y, reference, SLOPE)
        assert all(np.array_equal(r, m[:2]) for r, m in zip(rising, mixed))


def test_igci_score_constant_variable():
    x = substream(33).random(50)
    with pytest.raises(ConstantInputError):
        igci_score(SamplePair(x, np.full(50, 0.5)))


# ------------------------------------------------------------ reference shift

@pytest.mark.parametrize("estimator", [ENTROPY, SLOPE])
def test_reference_shift_matches_two_score_runs(estimator):
    worst = 0.0
    for trial in range(30):
        rng = substream(36, trial)
        x = rng.random(150)
        y = 2.0 * rng.standard_normal(150) + 1.0
        pair = SamplePair(x, y)
        # Gaussian minus uniform score, by affine equivariance of both routes
        # (population std throughout)
        shift = math.log(x.std() / np.ptp(x)) - math.log(y.std() / np.ptp(y))
        gauss = igci_score(pair, GAUSSIAN, estimator).c_xy
        unif = igci_score(pair, UNIFORM, estimator).c_xy
        worst = max(worst, abs((gauss - unif) - shift))
    assert worst <= 1e-10


# ------------------------------------------------------------- stack kernel
#
# Frozen copy of the one-pair scoring path that the stack kernel replaced.
# The kernel must reproduce it row by row: equal scores and counts, or the
# same error type and message.

def _oracle_normalize(arr):
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        raise ConstantInputError("all values identical, the reference mapping is undefined")
    span = hi - lo
    if not 0.0 < span < math.inf:
        raise DataError(f"value range {lo!r} to {hi!r} overflows or underflows float64 in the uniform reference mapping")
    return (arr - lo) / span


def _oracle_standardize(arr):
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        raise ConstantInputError("all values identical, the reference mapping is undefined")
    # The moments of arr / 2**e, where 2**e bounds |arr|: exact scaling, and no square overflows.
    e = math.frexp(max(-lo, hi))[1]
    scaled = np.ldexp(arr, -e)
    mean, std = float(scaled.mean()), float(scaled.std())
    if not math.ldexp(std, e) >= sys.float_info.min:
        raise DataError(f"value range {lo!r} to {hi!r} overflows or underflows float64 in the gaussian reference mapping")
    return (scaled - mean) / std


def _oracle_spacing_stat(values):
    m = values.size
    spacings = np.diff(np.sort(values))
    kept = spacings[spacings > 0.0]
    if kept.size == 0:
        raise ConstantInputError("every value is identical")
    stat = digamma(m) - digamma(1.0) + float(np.mean(np.log(kept)))
    return stat, int(kept.size)


def _oracle_slope_stat(x, y):
    order = np.lexsort((y, x))
    dx = np.diff(x[order])
    dy = np.diff(y[order])
    keep = (dx != 0.0) & (dy != 0.0)
    if not np.any(keep):
        raise DataError("every consecutive pair had a zero difference")
    with np.errstate(all="ignore"):
        stat = float(np.mean(np.log(np.abs(dy[keep] / dx[keep]))))
    if not math.isfinite(stat):
        raise DataError(
            "mean log slope is not finite: dy/dx leaves the float range; the smallest "
            f"spacing between sorted values is {float(np.min(dx[keep]))!r}"
        )
    return stat, int(np.count_nonzero(keep))


def _oracle_score(x, y, reference, estimator):
    prep = _oracle_normalize if reference is UNIFORM else _oracle_standardize
    x, y = prep(x), prep(y)
    if estimator is ENTROPY:
        s_x, kept_x = _oracle_spacing_stat(x)
        s_y, kept_y = _oracle_spacing_stat(y)
        return s_y - s_x, min(kept_x, kept_y) + 1
    forward, kept_f = _oracle_slope_stat(x, y)
    backward, kept_b = _oracle_slope_stat(y, x)
    return (forward - backward) / 2.0, min(kept_f, kept_b) + 1


def _outcome(fn, *args):
    """(value, None) or (None, (error type, message)), with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args), None
        except IgciError as exc:
            return None, (type(exc), str(exc))


_ROW_KINDS = (
    "continuous", "ties_x", "ties_y", "discrete", "decreasing", "noisy",
    "constant_x", "constant_y", "staircase", "subnormal", "huge_range", "huge_values", "subnormal_spread",
)


def _kernel_row(kind, m, rng):
    x = rng.random(m)
    if kind == "continuous":
        return x, np.sqrt(x)
    if kind == "ties_x":
        x = np.floor(x * 4.0)
        return x, rng.random(m)
    if kind == "ties_y":
        return x, np.round(x ** 2, 1)
    if kind == "discrete":
        x = rng.integers(0, 5, m).astype(float)
        return x, x ** 2 + rng.integers(0, 2, m)
    if kind == "decreasing":
        return x, 1.0 - x ** 3
    if kind == "noisy":
        return x, x + 0.3 * rng.standard_normal(m)
    if kind == "constant_x":
        return np.full(m, 0.25), x
    if kind == "constant_y":
        return x, np.full(m, 2.0)
    if kind == "staircase":
        # (i, i), (i, i + 1): every consecutive pair has dx == 0 or dy == 0
        steps = np.arange(m) // 2
        return steps.astype(float), (steps + np.arange(m) % 2).astype(float)
    if kind == "subnormal":
        x[:3] = (0.0, 5e-324, 1.0)
        return x, rng.random(m)
    if kind == "huge_range":
        x[:2] = (-1e308, 1e308)
        return x, rng.random(m)
    if kind == "huge_values":
        return x, 1e160 * x  # the unscaled variance would overflow
    return 5e-324 * np.floor(x * 8.0), x  # the Gaussian reference's std is subnormal


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(3, 300),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=9),
    seed=st.integers(0, 2**32 - 1),
    reference=st.sampled_from([UNIFORM, GAUSSIAN]),
    estimator=st.sampled_from([ENTROPY, SLOPE]),
)
def test_stack_kernel_matches_one_pair_path(m, kinds, seed, reference, estimator):
    rng = np.random.default_rng(seed)
    rows = [_kernel_row(kind, m, rng) for kind in kinds]
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = {}
        c_xy, m_used = _score_stack(errors, x, y, reference, estimator)
    for i, (xi, yi) in enumerate(rows):
        want, want_error = _outcome(_oracle_score, xi, yi, reference, estimator)
        got_error = (type(errors[i]), str(errors[i])) if i in errors else None
        assert got_error == want_error
        if want_error is None:
            assert (c_xy[i], m_used[i]) == want
    # igci_score and the public statistics and mappings are the one-row case
    xi, yi = rows[0]
    report, error = _outcome(igci_score, SamplePair(xi, yi), reference, estimator)
    want, want_error = _outcome(_oracle_score, xi, yi, reference, estimator)
    assert error == want_error
    if want_error is None:
        assert (report.c_xy, report.m_used) == want and type(report.c_xy) is float
    for public, oracle, args in (
        (normalize_uniform, _oracle_normalize, (xi,)),
        (lambda v: standardize_gaussian(v)[0], _oracle_standardize, (xi,)),
        (spacing_entropy, lambda v: _oracle_spacing_stat(v)[0], (xi,)),
        (slope_criterion, lambda a, b: _oracle_slope_stat(a, b)[0], (xi, yi)),
    ):
        got, got_error = _outcome(public, *args)
        want, want_error = _outcome(oracle, *args)
        assert got_error == want_error
        if want_error is None:
            assert np.array_equal(got, want) and type(got) is type(want)


# Sample sizes whose m - 1 differences fall one short of, on, one past and a few
# past two of _diff_in_place's column steps; the hypothesis sizes stay in one step.
_STEP_SIZES = [_DIFF_COLUMNS, _DIFF_COLUMNS + 1, _DIFF_COLUMNS + 2, 2 * _DIFF_COLUMNS + 4]


def _score_rows(x, y, reference, estimator):
    """(c_xy, m_used, errors) of _score_stack, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = {}
        return (*_score_stack(errors, x, y, reference, estimator), errors)


@pytest.mark.parametrize("m", _STEP_SIZES)
@pytest.mark.parametrize("reference", [UNIFORM, GAUSSIAN])
@pytest.mark.parametrize("estimator", [ENTROPY, SLOPE])
def test_stack_kernel_matches_one_pair_path_across_difference_steps(m, reference, estimator):
    rng = substream(37, m)
    rows = [_kernel_row(kind, m, rng) for kind in ("continuous", "ties_y", "noisy", "decreasing", "huge_range")]
    mixed = _score_rows(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), reference, estimator)
    for i, (xi, yi) in enumerate(rows):
        want, want_error = _outcome(_oracle_score, xi, yi, reference, estimator)
        alone = _score_rows(xi[None], yi[None], reference, estimator)  # a rising row alone reuses its order
        for (c_xy, m_used, errors), row in ((mixed, i), (alone, 0)):
            assert ((type(errors[row]), str(errors[row])) if row in errors else None) == want_error
            if want_error is None:
                assert (c_xy[row], m_used[row]) == want
        for public, oracle, args in (
            (spacing_entropy, lambda v: _oracle_spacing_stat(v)[0], (xi,)),
            (spacing_entropy, lambda v: _oracle_spacing_stat(v)[0], (yi,)),
            (slope_criterion, lambda a, b: _oracle_slope_stat(a, b)[0], (xi, yi)),
            (slope_criterion, lambda a, b: _oracle_slope_stat(a, b)[0], (yi, xi)),
        ):
            assert _outcome(public, *args) == _outcome(oracle, *args)
