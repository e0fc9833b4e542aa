"""Caller arrays and working memory.

No public numeric function writes to the arrays it is given, the scalar
scoring routes, the stack kernel, load_pair and `igci infer` hold a bounded
number of sample-length buffers, and the linear fit a bounded share of its input.
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
from igci.cli import main
from igci.core import _discrete_kl
from igci.estimators import _score_stack
from igci.simulation import substream
from igci.trace import _infer_in_place

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
    "discrete_kl": lambda v: _discrete_kl(v["p"], v["q"]),
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


# `igci simulate` hands _score_stack stacks it owns, and the scoring works in them; only
# what it adds counts. Each bound sits just above the value reached: 0.13 (uniform entropy:
# one keep mask), 1.00 (Gaussian entropy: the std's deviations), 2.14 (rising slope: the x
# order and the copy np.take makes) and 3.14 (noisy slope: y in x order, its differences
# and x's). Mapping into fresh copies would add one buffer per stack alive.
_STACK_BOUNDS = [
    (UNIFORM, ENTROPY, "rising", 0.15),
    (GAUSSIAN, ENTROPY, "rising", 1.05),
    (UNIFORM, ENTROPY, "noisy", 0.15),
    (GAUSSIAN, ENTROPY, "noisy", 1.05),
    (UNIFORM, SLOPE, "rising", 2.15),
    (GAUSSIAN, SLOPE, "rising", 2.15),
    (UNIFORM, SLOPE, "noisy", 3.15),
    (GAUSSIAN, SLOPE, "noisy", 3.15),
]


@pytest.mark.parametrize("reference, estimator, shape, bound", _STACK_BOUNDS)
def test_scoring_stacks_the_caller_owns_adds_only_its_working_buffers(reference, estimator, shape, bound):
    pair = _pair(shape)
    x, y = np.array(pair.x)[None], np.array(pair.y)[None]
    assert _peak_buffers(_score_stack, {}, (x, y), reference, estimator) <= bound


# spacing_entropy copies its sample and works in place: 1.13 buffers.
# slope_criterion copies x and takes y in x order, then works in place: 3.00.
@pytest.mark.parametrize("shape", ["rising", "noisy"])
def test_public_statistics_hold_a_bounded_number_of_sample_buffers(shape):
    pair = _pair(shape)
    assert _peak_buffers(spacing_entropy, pair.y) <= 1.15
    assert _peak_buffers(slope_criterion, pair.x, pair.y) <= 3.05


# `igci infer` reads its file into a two-column table, two buffers, and scores the columns
# in the table's own memory. A file's first read only notes it, the second parses it and
# keeps its table column-major, and the third reads the kept columns one at a time. Third-
# read bounds sit just above the values reached: the entropy route holds one column while
# it scores it, plus 0.13 (uniform: one keep mask) or 1.01 (Gaussian: the std's
# deviations); the slope route holds both columns while it takes the pairs in x order,
# plus the order and the copy np.take makes, and drops y's column once that is done:
# 4.01 (rising) and 4.15 (noisy, where y in x order, its differences and x's take the
# freed place). A second read adds np.loadtxt's chunks and the one column that keeping
# the table copies; its entropy bounds are the readings of scoring through copies instead,
# 3.13 and 4.01. Its slope route scores in views of the parsed table, which x's view keeps
# alive to the end, so dropping y frees nothing there: 5.01 (rising) and 6.01 (noisy).
_INFER_BOUNDS = [
    (UNIFORM, ENTROPY, "rising", 3.15, 1.15),
    (GAUSSIAN, ENTROPY, "rising", 4.05, 2.05),
    (UNIFORM, ENTROPY, "noisy", 3.15, 1.15),
    (GAUSSIAN, ENTROPY, "noisy", 4.05, 2.05),
    (UNIFORM, SLOPE, "rising", 5.05, 4.05),
    (GAUSSIAN, SLOPE, "rising", 5.05, 4.05),
    (UNIFORM, SLOPE, "noisy", 6.05, 4.16),
    (GAUSSIAN, SLOPE, "noisy", 6.05, 4.16),
]


@pytest.mark.parametrize("reference, estimator, shape, second, third", _INFER_BOUNDS)
def test_infer_scores_in_the_table_it_reads(tmp_path, capsys, reference, estimator, shape, second, third):
    path = tmp_path / "pair.tsv"
    write_pair(path, _pair(shape))
    argv = ["infer", str(path), "--reference", reference.value, "--estimator", estimator.value]
    peaks = [_peak_buffers(main, argv) for _ in range(3)]
    assert peaks[1] <= second and peaks[2] <= third
    assert len(set(capsys.readouterr().out.splitlines())) == 1


# load_pair reads as `igci infer` does. On a file's first read it returns views of the
# parsed table: two buffers for two columns, with np.loadtxt's own chunks on top.
def test_load_pair_returns_views_of_the_one_table(tmp_path):
    path = tmp_path / "pair.tsv"
    write_pair(path, _pair("noisy"))
    assert _peak_buffers(load_pair, path) <= 2.5


# From a file's third read on, load_pair reads only its two columns from the kept table,
# however wide the file: 2.13 buffers on three columns (the pair and one finite check's
# mask), where loading the whole kept table reads 3.13.
def test_load_pair_reads_only_its_two_columns_from_the_kept_table(tmp_path):
    path = tmp_path / "pair.tsv"
    pair = _pair("noisy")
    np.savetxt(path, np.column_stack([pair.x, pair.y, pair.x]), fmt="%.17g", delimiter="\t")
    peaks = [_peak_buffers(load_pair, path, 2, 1) for _ in range(3)]
    assert peaks[2] <= 2.15


# In input sizes: x and y together are six sample buffers. The in-place fit's one working
# array is the residual, half its input: 0.51 reached. infer_linear_direction adds its copy of
# both inputs: 1.51. np.linalg.lstsq copies both sides into buffers LAPACK works in, but those
# are malloc'ed in numpy's C code outside tracemalloc, so they count here for nothing.
@pytest.mark.parametrize("refit_reverse", [False, True])
def test_the_linear_fit_holds_a_bounded_share_of_its_input(refit_reverse):
    rng = substream(49)
    x = rng.standard_normal((_M, 3))
    y = x @ rng.standard_normal((3, 3)).T + 0.01 * rng.standard_normal((_M, 3))
    table = np.asfortranarray(np.column_stack([x, y]))  # column-major, as `igci tracedir` holds it
    x, y = table[:, :3], table[:, 3:]
    assert _peak_buffers(_infer_in_place, x.copy(order="K"), y.copy(order="K"), refit_reverse) / 6 <= 0.55
    assert _peak_buffers(infer_linear_direction, MultiSample(x), MultiSample(y), refit_reverse) / 6 <= 1.55
