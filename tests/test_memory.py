"""Caller arrays and working memory.

No public numeric function writes to the arrays it is given, and the scalar
scoring routes and load_pair hold a bounded number of sample-length buffers.
"""

import tracemalloc

import numpy as np
import pytest

from igci import (
    EstimatorKind,
    MechanismKind,
    MultiSample,
    ReferenceFamily,
    SamplePair,
    align_lag,
    apply_mechanism,
    discrete_kl,
    estimate_fisher_information,
    igci_score,
    infer_linear_direction,
    kl_additivity_gap,
    load_pair,
    normalize_uniform,
    random_cdf_mix,
    slope_criterion,
    spacing_entropy,
    standardize_gaussian,
    trace_gap,
    verify_noise_bound,
    write_pair,
)
from igci.simulation import substream

ENTROPY, SLOPE = EstimatorKind.ENTROPY_SPACING, EstimatorKind.SLOPE_INTEGRAL
UNIFORM, GAUSSIAN = ReferenceFamily.UNIFORM_UNIT, ReferenceFamily.GAUSSIAN


def _inputs() -> dict:
    """Fresh writeable arguments; x is unsorted, so a sort in place would show."""
    rng = substream(47)
    x = rng.random(300)
    d = rng.standard_normal((300, 3))
    a = rng.standard_normal((3, 3))
    p = rng.random(6)
    return {
        "x": x,
        "cube_root": np.cbrt(x),  # rises with x
        "noisy": x + 0.3 * rng.standard_normal(300),
        "mix": random_cdf_mix(rng),
        "d": d,
        "e": d @ a.T,
        "a": a,
        "sigma": np.cov(d.T),
        "p": p / p.sum(),
        "q": np.full(6, 1.0 / 6.0),
        "r": np.arange(1.0, 7.0) / 21.0,
    }


_CALLS = {
    "spacing_entropy": lambda v: spacing_entropy(v["x"]),
    "slope_criterion": lambda v: slope_criterion(v["x"], v["noisy"]),
    "normalize_uniform": lambda v: normalize_uniform(v["x"]),
    "standardize_gaussian": lambda v: standardize_gaussian(v["x"]),
    **{
        f"igci_score-{reference.value}-{estimator.value}-{y}": (
            lambda v, reference=reference, estimator=estimator, y=y:
            igci_score(SamplePair(v["x"], v[y]), reference, estimator)
        )
        for reference in (UNIFORM, GAUSSIAN)
        for estimator in (ENTROPY, SLOPE)
        for y in ("cube_root", "noisy")
    },
    **{
        f"apply_mechanism-{kind.value}": (
            lambda v, kind=kind: apply_mechanism(kind, v["x"], v["mix"] if kind is MechanismKind.CDF_MIX else None)
        )
        for kind in MechanismKind
    },
    "align_lag": lambda v: align_lag(v["x"], v["noisy"], 10),
    "infer_linear_direction": lambda v: infer_linear_direction(MultiSample(v["d"]), MultiSample(v["e"])),
    "infer_linear_direction-refit": (
        lambda v: infer_linear_direction(MultiSample(v["d"]), MultiSample(v["e"]), refit_reverse=True)
    ),
    "trace_gap": lambda v: trace_gap(v["a"], v["sigma"]),
    "estimate_fisher_information": lambda v: estimate_fisher_information(v["x"]),
    "verify_noise_bound": lambda v: verify_noise_bound(v["x"]),
    "discrete_kl": lambda v: discrete_kl(v["p"], v["q"]),
    "kl_additivity_gap": lambda v: kl_additivity_gap(v["p"], v["q"], v["r"]),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_no_public_numeric_function_writes_to_its_callers_arrays(name):
    args = _inputs()
    before = {key: arr.tobytes() for key, arr in args.items()}
    _CALLS[name](args)
    assert {key: arr.tobytes() for key, arr in args.items()} == before
    assert all(arr.flags.writeable for arr in args.values())


# Working memory is counted in sample-length float64 buffers of 8 * _M bytes.
_M = 100_000


def _peak_buffers(fn, *args) -> float:
    """Peak bytes fn allocates beyond what was live when it started, in buffers."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - live) / (8 * _M)
    finally:
        tracemalloc.stop()


def _pair(shape: str) -> SamplePair:
    rng = substream(48)
    x = rng.random(_M)
    return SamplePair(x, np.cbrt(x) if shape == "rising" else x + 0.3 * rng.standard_normal(_M))


# The entropy route maps, sorts and reduces one side at a time, writing the
# spacings over the sorted sample; the Gaussian mapping's std takes a second
# buffer. The slope route peaks at four while it takes y in x order beside
# both mapped samples and the order. A pair that does not rise along x keeps
# its x-ordered pairs beside their fresh differences for the forward side,
# then drops the differences and sorts the pairs again by y. Each bound sits
# just above the value reached: 1.13 (uniform entropy: the sample and its
# one-byte keep mask), 2.00 (Gaussian entropy), 4.00 (rising slope) and 4.14
# (noisy slope).
_SCORE_BOUNDS = [
    (UNIFORM, ENTROPY, "rising", 1.15),
    (GAUSSIAN, ENTROPY, "rising", 2.05),
    (UNIFORM, ENTROPY, "noisy", 1.15),
    (GAUSSIAN, ENTROPY, "noisy", 2.05),
    (UNIFORM, SLOPE, "rising", 4.05),
    (GAUSSIAN, SLOPE, "rising", 4.05),
    (UNIFORM, SLOPE, "noisy", 4.15),
    (GAUSSIAN, SLOPE, "noisy", 4.15),
]


@pytest.mark.parametrize("reference, estimator, shape, bound", _SCORE_BOUNDS)
def test_scoring_holds_a_bounded_number_of_sample_buffers(reference, estimator, shape, bound):
    pair = _pair(shape)
    assert _peak_buffers(igci_score, pair, reference, estimator) <= bound


# spacing_entropy copies its sample and works in place: 1.13 buffers.
# slope_criterion copies x and takes y in x order, then works in place: 3.00.
@pytest.mark.parametrize("shape", ["rising", "noisy"])
def test_public_statistics_hold_a_bounded_number_of_sample_buffers(shape):
    pair = _pair(shape)
    assert _peak_buffers(spacing_entropy, pair.y) <= 1.15
    assert _peak_buffers(slope_criterion, pair.x, pair.y) <= 3.05


def test_load_pair_returns_views_of_the_one_table(tmp_path):
    path = tmp_path / "pair.tsv"
    write_pair(path, _pair("noisy"))
    # The two-column table is two buffers; np.loadtxt's own chunks come on top.
    assert _peak_buffers(load_pair, path) <= 2.5
