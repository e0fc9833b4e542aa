import math
import warnings

import numpy as np
import pytest

from igci import (
    ConstantInputError,
    DataError,
    Direction,
    MultiSample,
    NumericError,
    infer_linear_direction,
    trace_gap,
)
from igci.simulation import substream


def _random_spd(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return g @ g.T / d + 1e-3 * np.eye(d)


# ------------------------------------------------------------------ trace gap

def test_trace_gap_hand_value():
    # A = diag(1, 3), Sigma = diag(4, 1):
    # tau(A Sigma A^T) = 6.5, tau(A A^T) = 5, tau(Sigma) = 2.5
    got = trace_gap(np.diag([1.0, 3.0]), np.diag([4.0, 1.0]))
    assert got == pytest.approx(math.log(6.5 / (5.0 * 2.5)), abs=1e-12)


def test_trace_gap_zero_for_isotropic_input():
    for trial in range(20):
        rng = substream(51, trial)
        d = int(rng.integers(2, 8))
        a = rng.standard_normal((d, d))
        sigma = float(rng.random() + 0.5) * np.eye(d)
        assert abs(trace_gap(a, sigma)) <= 1e-12


def test_trace_gap_scale_invariant_in_the_map():
    for trial in range(20):
        rng = substream(52, trial)
        d = int(rng.integers(2, 8))
        a = rng.standard_normal((d, d))
        sigma = _random_spd(rng, d)
        base = trace_gap(a, sigma)
        for c in (1e-3, 2.0, 10.0, 1e4):
            assert abs(trace_gap(c * a, sigma) - base) <= 1e-12


def test_trace_gap_errors():
    with pytest.raises(NumericError, match=r"renormalized trace of a@sigma@a\.T is not positive"):
        trace_gap(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NumericError, match=r"renormalized trace of a@sigma@a\.T is not positive"):
        trace_gap(np.eye(2), -np.eye(2))
    with pytest.raises(DataError, match=r"a is \(2, 2\), sigma_x is \(3, 3\)"):
        trace_gap(np.eye(2), np.eye(3))
    with pytest.raises(DataError, match=r"a must be square and non-empty, got shape \(2, 3\)"):
        trace_gap(np.ones((2, 3)), np.eye(3))
    with pytest.raises(DataError, match=r"a must be square and non-empty, got shape \(2,\)"):
        trace_gap([1.0, 2.0], np.eye(2))
    with pytest.raises(DataError, match=r"a must be square and non-empty, got shape \(0, 0\)"):
        trace_gap(np.empty((0, 0)), np.empty((0, 0)))
    with pytest.raises(DataError) as excinfo:
        trace_gap(np.array([[1.0, np.inf], [0.0, 1.0]]), np.eye(2))
    assert type(excinfo.value) is DataError


@pytest.mark.parametrize("a, sigma", [(1e200 * np.eye(2), np.eye(2)), (np.eye(2), np.diag([1e308, 1e308]))])
def test_trace_gap_overflow_is_a_data_error(a, sigma):
    # Traces that overflow float64 at the given scale are taken at unit scale: the gap is
    # that of the unscaled matrices, 0 for these identities.
    assert trace_gap(a, sigma) == trace_gap(np.eye(2), np.eye(2)) == 0.0


def test_trace_gap_underflow_is_a_data_error():
    # Traces that underflow float64 at the given scale are taken at unit scale too.
    assert trace_gap(1e-200 * np.eye(2), np.eye(2)) == trace_gap(np.eye(2), np.eye(2)) == 0.0


def test_trace_gap_of_a_map_with_a_subnormal_trace_keeps_its_digits():
    # tr(A A^T) of 1e-160 * A is about 1e-320, a subnormal that lost digits (-0.1331063).
    a = np.array([[1.0, 0.5], [0.25, 2.0]])
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert trace_gap(a, sigma) == pytest.approx(-0.1331953, abs=1e-7)
    assert trace_gap(1e-160 * a, sigma) == pytest.approx(trace_gap(a, sigma), abs=1e-15)
    assert trace_gap(2.0 ** -532 * a, sigma) == trace_gap(a, sigma)


def _gap_draw(trial: int):
    rng = substream(53, trial)
    d = int(rng.integers(2, 8))
    a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-50.0, 50.0)
    sigma = _random_spd(rng, d) * 10.0 ** rng.uniform(-50.0, 50.0)
    return a, sigma


def test_trace_gap_is_exactly_invariant_under_power_of_two_scales():
    for trial in range(20):
        a, sigma = _gap_draw(trial)
        a, sigma = a / np.abs(a).max(), sigma / np.abs(sigma).max()  # every 2**k multiple stays normal
        base = trace_gap(a, sigma)
        for k in range(-1000, 1001, 125):
            for j in range(-1000, 1001, 125):
                assert trace_gap(2.0 ** k * a, 2.0 ** j * sigma) == base


def test_trace_gap_agrees_with_the_direct_traces():
    for trial in range(20):
        a, sigma = _gap_draw(trial)
        d = a.shape[0]
        pushed, map_scale, input_scale = (np.trace(m) / d for m in (a @ sigma @ a.T, a @ a.T, sigma))
        direct = float(np.log(pushed) - np.log(map_scale) - np.log(input_scale))
        assert trace_gap(a, sigma) == pytest.approx(direct, abs=1e-13)


# ----------------------------------------------------------- linear direction

def _linear_case(seed: int, d: int = 8, m: int = 4000, noise: float = 0.0):
    rng = substream(seed)
    root = np.linalg.cholesky(_random_spd(rng, d))
    x = rng.standard_normal((m, d)) @ root.T
    a = rng.standard_normal((d, d))
    y = x @ a.T
    if noise:
        y = y + noise * rng.standard_normal((m, d))
    return MultiSample(x), MultiSample(y)


def test_infer_linear_direction_noise_free():
    correct = 0
    forward_gaps = []
    backward_gaps = []
    for trial in range(10):
        x, y = _linear_case(560 + trial)
        result = infer_linear_direction(x, y)
        correct += result.direction is Direction.X_TO_Y
        forward_gaps.append(abs(result.gap_xy))
        backward_gaps.append(abs(result.gap_yx))
    assert correct >= 8
    assert np.mean(forward_gaps) < np.mean(backward_gaps)


def test_infer_linear_direction_swap_flips():
    x, y = _linear_case(57)
    forward = infer_linear_direction(x, y)
    backward = infer_linear_direction(y, x)
    assert forward.direction is Direction.X_TO_Y
    assert backward.direction is Direction.Y_TO_X


def test_infer_linear_direction_refit_reverse_agrees_when_clean():
    x, y = _linear_case(58)
    inv_route = infer_linear_direction(x, y, refit_reverse=False)
    refit_route = infer_linear_direction(x, y, refit_reverse=True)
    assert inv_route.direction is refit_route.direction is Direction.X_TO_Y
    assert refit_route.gap_yx == pytest.approx(inv_route.gap_yx, abs=1e-6)


def test_infer_linear_direction_residual_warning():
    x, y = _linear_case(59, noise=2.0)
    with pytest.warns(UserWarning, match="residual"):
        result = infer_linear_direction(x, y)
    assert result.residual_rel > 0.05


def test_infer_linear_direction_residual_warning_points_at_its_caller():
    x, y = _linear_case(59, noise=2.0)
    with pytest.warns(UserWarning) as caught:
        result = infer_linear_direction(x, y)
    (warning,) = caught
    assert str(warning.message) == (
        f"linear fit residual {result.residual_rel:.3g} exceeds 0.05; "
        "the relation may not be linear enough for this method"
    )
    assert warning.filename == __file__


def test_infer_linear_direction_clean_fit_does_not_warn():
    x, y = _linear_case(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = infer_linear_direction(x, y)
    assert result.residual_rel <= 1e-8


def test_infer_linear_direction_shape_checks():
    rng = substream(61)
    x = MultiSample(rng.standard_normal((50, 2)))
    with pytest.raises(DataError, match="x has 50 rows, y has 40"):
        infer_linear_direction(x, MultiSample(rng.standard_normal((40, 2))))
    with pytest.raises(DataError, match="x is 2-dimensional, y is 3-dimensional"):
        infer_linear_direction(x, MultiSample(rng.standard_normal((50, 3))))


def test_infer_linear_direction_rank_deficient_regressors():
    rng = substream(62)
    col = rng.standard_normal(100)
    x = MultiSample(np.column_stack([col, col]))
    y = MultiSample(rng.standard_normal((100, 2)))
    with pytest.raises(DataError, match="regressor rank 1 < dimension 2"):
        infer_linear_direction(x, y)


def test_infer_linear_direction_constant_y_is_singular():
    x = MultiSample(substream(64).standard_normal((50, 2)))
    with pytest.raises(ConstantInputError, match="y is constant"):
        infer_linear_direction(x, MultiSample(np.full((50, 2), 3.0)))


def test_infer_linear_direction_numerically_singular_map():
    rng = substream(63)
    x = rng.standard_normal((100, 2))
    with pytest.raises(DataError, match="numerically singular"):
        infer_linear_direction(MultiSample(x), MultiSample(x @ np.diag([1.0, 1e-13])))
    # A constant y column beside one 1e-170 as wide: the norm of centred y underflows to 0.
    with pytest.raises(DataError, match="numerically singular"):
        infer_linear_direction(MultiSample(x), MultiSample(np.column_stack([np.ones(100), 1e-170 * x[:, 0]])))


def _scaled_linear_table(scale_x: float, scale_y: float):
    rng = substream(64)
    x = rng.standard_normal((200, 3))
    y = x @ rng.standard_normal((3, 3)).T + 0.01 * rng.standard_normal((200, 3))
    return MultiSample(x * scale_x), MultiSample(y * scale_y)


def _assert_decides_as_at_scale_one(x, y):
    expected = infer_linear_direction(*_scaled_linear_table(1.0, 1.0))
    assert expected.direction is Direction.X_TO_Y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = infer_linear_direction(x, y)
    # 10**k is no power of two, so the scaled data round: equal to that rounding.
    assert found.direction is expected.direction
    assert found.residual_rel == pytest.approx(expected.residual_rel, rel=1e-12)
    assert found.gap_xy == pytest.approx(expected.gap_xy, abs=1e-12)
    assert found.gap_yx == pytest.approx(expected.gap_yx, abs=1e-12)


# These scales were once refused as a DataError, the fit over- or underflowing float64 in
# the means, covariances and norms, a trace gap (1e-160, 1.0) or the Frobenius norm of y
# (1.0, 3.5e152). At unit scale each is decided as at scale 1; the test keeps its name.
@pytest.mark.parametrize(
    "scale_x, scale_y",
    [
        (1.0, 1e200), (1e200, 1.0), (1e-300, 1e300), (1e-250, 1e100), (1e-200, 1e100),
        (1.0, 1e-170), (1e-170, 1e-170),
        (1e-160, 1.0),
        (1.0, 3.5e152),
    ],
)
def test_infer_linear_direction_refuses_scales_float64_cannot_fit(scale_x, scale_y):
    _assert_decides_as_at_scale_one(*_scaled_linear_table(scale_x, scale_y))


def test_infer_linear_direction_refuses_a_column_mean_that_overflows():
    # The column means of x + 1e306 overflowed as a plain sum and were refused; the test
    # keeps its name and now expects the scale-1 answer.
    x, y = _scaled_linear_table(1e306, 1.0)
    _assert_decides_as_at_scale_one(MultiSample(x.data + 1e306), y)


def test_infer_linear_direction_decides_at_large_representable_scales():
    _assert_decides_as_at_scale_one(*_scaled_linear_table(1e150, 1e150))


@pytest.mark.parametrize("refit_reverse", [False, True])
def test_infer_linear_direction_is_the_same_at_every_scale(refit_reverse):
    x, y = _scaled_linear_table(1.0, 1.0)
    expected = infer_linear_direction(x, y, refit_reverse=refit_reverse)
    for k in range(-300, 301, 25):
        for j in (-300, -1, 0, 7, 300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                found = infer_linear_direction(
                    MultiSample(x.data * 10.0 ** k), MultiSample(y.data * 10.0 ** j), refit_reverse
                )
                exact = infer_linear_direction(
                    MultiSample(x.data * 2.0 ** (3 * k)), MultiSample(y.data * 2.0 ** (3 * j)), refit_reverse
                )
            assert found.direction is expected.direction
            assert exact == expected


@pytest.mark.parametrize("refit_reverse", [False, True])
def test_infer_linear_direction_does_not_depend_on_the_input_layout(refit_reverse):
    # The fit's rounding follows the memory order it works in, so it works in one order,
    # `igci tracedir`'s column-major one, whatever the order of the caller's arrays.
    rng = substream(214)
    x = rng.standard_normal((5000, 10))
    y = x @ rng.standard_normal((10, 10)).T + 0.01 * rng.standard_normal((5000, 10))
    table = np.column_stack([x, y])
    layouts = [table, np.asfortranarray(table), np.repeat(table, 2, axis=1)[:, ::2]]
    results = [
        infer_linear_direction(MultiSample(t[:, :10]), MultiSample(t[:, 10:]), refit_reverse) for t in layouts
    ]
    assert results[0] == results[1] == results[2]
