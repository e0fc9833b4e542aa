import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma as scipy_digamma

from igci import (
    DataError,
    DomainError,
    ConstantInputError,
    MultiSample,
    SamplePair,
    digamma,
    discrete_kl,
    kl_additivity_gap,
    normalize_uniform,
    standardize_gaussian,
)
from igci.simulation import substream

EULER_GAMMA = 0.5772156649015329

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- digamma

def test_digamma_known_points():
    # psi(1) = -gamma, psi(2) = 1 - gamma, psi(1/2) = -gamma - 2 log 2
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_against_scipy_sweep():
    xs = np.logspace(-3, 6, 3000)
    worst = max(abs(digamma(float(v)) - float(scipy_digamma(v))) for v in xs)
    assert worst <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=50.0, allow_nan=False))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, float("nan"), float("inf")])
def test_digamma_domain(bad):
    with pytest.raises(DomainError):
        digamma(bad)


# ------------------------------------------------------ range normalization

def test_normalize_uniform_basic():
    out = normalize_uniform([3.0, 5.0, 9.0])
    assert out.tolist() == [0.0, 1.0 / 3.0, 1.0]
    assert out.min() == 0.0 and out.max() == 1.0
    # a range just inside float64 still normalizes
    assert normalize_uniform([-1e307, 0.0, 1e307]).tolist() == [0.0, 0.5, 1.0]


def test_normalize_uniform_idempotent_exact():
    rng = substream(11)
    values = rng.standard_normal(257) * 12.5 - 3.0
    once = normalize_uniform(values)
    twice = normalize_uniform(once)
    assert np.array_equal(once, twice)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=40))
def test_normalize_uniform_bounds(values):
    arr = np.asarray(values)
    if arr.max() == arr.min():
        with pytest.raises(ConstantInputError):
            normalize_uniform(arr)
        return
    out = normalize_uniform(arr)
    assert out.min() == 0.0
    assert out.max() == 1.0
    assert np.array_equal(out, normalize_uniform(out))


def test_normalize_uniform_constant():
    with pytest.raises(ConstantInputError):
        normalize_uniform([2.0, 2.0, 2.0])


@pytest.mark.parametrize("mapping", [normalize_uniform, standardize_gaussian])
def test_reference_mapping_of_an_empty_sample(mapping):
    with pytest.raises(DataError, match="^cannot map an empty sample onto a reference$"):
        mapping([])


# ----------------------------------------------------------- standardization

def test_standardize_population_convention():
    # population (divisor m) std: std([0,2,4]) = sqrt(8/3)
    out, mean, std = standardize_gaussian([0.0, 2.0, 4.0])
    assert mean == pytest.approx(2.0, abs=0.0)
    assert std == pytest.approx(1.632993161855452, abs=1e-15)
    assert out == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-15)

    out2, mean2, std2 = standardize_gaussian([-1.0, 0.0, 1.0])
    assert mean2 == 0.0
    assert std2 == pytest.approx(0.816496580927726, abs=1e-15)
    assert out2 == pytest.approx(out, abs=1e-15)


def test_standardize_moments_and_reconstruction():
    rng = substream(12)
    values = rng.gamma(2.0, 3.0, 4096)
    out, mean, std = standardize_gaussian(values)
    assert abs(float(out.mean())) <= 1e-10
    assert abs(float(out.std()) - 1.0) <= 1e-10
    rebuilt = out * std + mean
    assert np.allclose(rebuilt, values, rtol=1e-10, atol=0.0)


def test_standardize_constant():
    with pytest.raises(ConstantInputError):
        standardize_gaussian([4.0] * 10)


def test_standardize_constant_sample_whose_mean_rounds():
    # the mean of 1000 copies of 1/3 is not 1/3, so the std comes out positive
    with pytest.raises(ConstantInputError, match="all values identical"):
        standardize_gaussian([1.0 / 3.0] * 1000)


def test_standardize_matches_numpy_moments_bit_for_bit():
    # the moments are taken at a power-of-two scale, which is exact for normal data
    rng = substream(13)
    for _ in range(300):
        values = rng.standard_normal(int(rng.integers(2, 200))) * 10.0 ** rng.uniform(-30.0, 30.0)
        out, mean, std = standardize_gaussian(values)
        assert (mean, std) == (float(values.mean()), float(values.std()))
        assert np.array_equal(out, (values - values.mean()) / values.std())


@pytest.mark.parametrize("power", [*range(-300, 301, 20), -161, 155])
def test_standardize_carries_every_scale_float64_holds(power):
    # Squaring unscaled values left the std 0.5% off at 1e-161 and refused 1e155 as a DataError.
    values = substream(14).standard_normal(500)
    unit, _, unit_std = standardize_gaussian(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _, std = standardize_gaussian(10.0 ** power * values)
    assert std == pytest.approx(10.0 ** power * unit_std, rel=1e-12)
    assert np.allclose(out, unit, rtol=0.0, atol=1e-12)


def test_standardize_near_the_float64_maximum():
    out, mean, std = standardize_gaussian([-1.7e308, 1.7e308, 1.7e308])
    assert std == pytest.approx(1.7e308 / 3.0 * math.sqrt(8.0), rel=1e-15)
    assert out == pytest.approx([-math.sqrt(2.0), math.sqrt(0.5), math.sqrt(0.5)], rel=1e-15)


def test_multisample_needs_more_rows_than_dims():
    with pytest.raises(DataError, match="2 observations in 3 dimensions cannot have full-rank covariance"):
        MultiSample(np.zeros((2, 3)))


# --------------------------------------------------------------- discrete KL

def test_discrete_kl_values():
    assert discrete_kl([0.25, 0.75], [0.25, 0.75]) == 0.0
    assert discrete_kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert discrete_kl([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.19274475702175753, abs=1e-12)


def test_discrete_kl_support_rules():
    with pytest.raises(DataError, match="^length 2 vs 3$"):
        discrete_kl([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(DataError, match="p has mass where q has none"):
        discrete_kl([0.5, 0.5], [1.0, 0.0])
    # mass missing from p where q has some is fine
    assert discrete_kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_discrete_kl_rejects_non_distributions():
    with pytest.raises(DataError):
        discrete_kl([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(DataError):
        discrete_kl([-0.1, 1.1], [0.5, 0.5])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=20), st.integers(0, 2**31 - 1))
def test_discrete_kl_nonnegative(raw_p, seed):
    p = np.asarray(raw_p)
    p = p / p.sum()
    q = substream(seed).random(p.size) + 1e-3
    q = q / q.sum()
    assert discrete_kl(p, q) >= 0.0
    assert discrete_kl(p, p) == 0.0


def test_discrete_kl_ratio_beyond_float64():
    # p / q overflows here; the divergence itself is about 367.72
    p, q = [0.5, 0.5], [1.0 - 1e-320, 1e-320]
    expected = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-320))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert discrete_kl(p, q) == pytest.approx(expected, rel=1e-12)
        via, direct = kl_additivity_gap(p, q, p)
    assert via == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(-expected - discrete_kl(q, p), rel=1e-12)


def test_kl_additivity_identity_seeded():
    worst = 0.0
    for trial in range(300):
        rng = substream(81, trial)
        k = int(rng.integers(2, 25))
        q, r, s = (rng.random(k) + 1e-3 for _ in range(3))
        a, b = kl_additivity_gap(q / q.sum(), r / r.sum(), s / s.sum())
        worst = max(worst, abs(a - b))
    assert worst <= 1e-10


def test_kl_additivity_gap_zero_when_q_equals_r():
    rng = substream(82)
    r = rng.random(9) + 0.1
    r /= r.sum()
    s = rng.random(9) + 0.1
    s /= s.sum()
    a, b = kl_additivity_gap(r, r, s)
    assert abs(a) <= 1e-12 and abs(b) <= 1e-12


def test_kl_additivity_gap_support_rule():
    with pytest.raises(DataError, match="^q, r, s must share one support$"):
        kl_additivity_gap([0.5, 0.5], [0.5, 0.5], [0.2, 0.3, 0.5])


# -------------------------------------------------------------------- types

def test_sample_pair_validation():
    with pytest.raises(DataError, match="x has 3 rows, y has 2"):
        SamplePair([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DataError, match="need at least 3 paired rows, got 2"):
        SamplePair([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError):
        SamplePair([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])


def test_sample_pair_is_frozen():
    pair = SamplePair([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert pair.m == 3
    with pytest.raises(ValueError):
        pair.x[0] = 10.0


def test_construction_leaves_callers_arrays_writeable():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = x ** 2
    data = np.arange(12.0).reshape(6, 2) ** 1.5
    pair = SamplePair(x, y)
    sample = MultiSample(data)
    stored = [
        (x, pair.x),
        (y, pair.y),
        (data, sample.data),
    ]
    for callers, kept in stored:
        assert callers.flags.writeable
        assert not kept.flags.writeable
        assert np.shares_memory(callers, kept)  # a view, not a copy


def test_multisample_shape_properties():
    sample = MultiSample(np.arange(12.0).reshape(6, 2) ** 1.5)
    assert sample.m == 6 and sample.d == 2
    with pytest.raises(DataError, match="data must be m x d"):
        MultiSample(np.arange(5.0))
