import hashlib
import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from igci import (
    CellTally,
    ConstantInputError,
    DataError,
    Direction,
    DomainError,
    EstimatorKind,
    IgciReport,
    InputDist,
    InputKind,
    LagAlignment,
    LinearDirectionResult,
    MechanismKind,
    MultiSample,
    NoiseBoundCheck,
    NoiseKind,
    NoiseSpec,
    NumericError,
    ReferenceFamily,
    SamplePair,
    align_lag,
    apply_mechanism,
    discrete_kl,
    estimate_fisher_information,
    igci_score,
    infer_linear_direction,
    kl_additivity_gap,
    normalize_uniform,
    random_cdf_mix,
    run_grid,
    run_sine,
    sample_input,
    slope_criterion,
    spacing_entropy,
    standardize_gaussian,
    substream,
    trace_gap,
    verify_noise_bound,
)
import igci._fanout
import igci.simulation as sim
from igci.cli import main

GAUSSIAN_ENTROPY = 1.4189385332046727


# ----------------------------------------------------------------- substreams

def test_substream_is_reproducible_and_path_sensitive():
    a = substream(7, 1, 2).random(8)
    b = substream(7, 1, 2).random(8)
    c = substream(7, 1, 3).random(8)
    d = substream(8, 1, 2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_streams_reject_a_seed_that_is_not_a_nonnegative_integer():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substream(-1, 0, 0, 0)
    with pytest.raises(TypeError):
        substream(2.7, 0, 0, 0)
    with pytest.raises(TypeError):
        run_grid(m=10, repetitions=1, seed=2.7)
    with pytest.raises(TypeError):
        run_sine(m=10, repetitions=1, seed=2.7)


def test_substream_rejects_a_float_seed_or_path_instead_of_truncating_it():
    with pytest.raises(TypeError):
        substream(2.7, 0)
    with pytest.raises(TypeError):
        substream(3, 1.9)


# ------------------------------------------------------------- input sampling

@pytest.mark.parametrize("kind", list(InputKind))
def test_sample_input_truncated_support(kind):
    values = sample_input(InputDist(kind), 2000, substream(71))
    assert values.size == 2000
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert np.array_equal(values, sample_input(InputDist(kind), 2000, substream(71)))


def test_sample_input_untruncated_leaves_support():
    values = sample_input(InputDist(InputKind.GAUSS_AT_ZERO, sigma=1.0), 2000, substream(72), truncate=False)
    assert values.min() < 0.0 < values.max()


def test_sample_input_location_sanity():
    uniform = sample_input(InputDist(InputKind.UNIFORM), 4000, substream(73))
    assert abs(uniform.mean() - 0.5) <= 0.03
    # half-normal mean is sigma * sqrt(2 / pi) = 0.1596 for sigma = 0.2
    at_zero = sample_input(InputDist(InputKind.GAUSS_AT_ZERO), 4000, substream(74))
    assert abs(at_zero.mean() - 0.1596) <= 0.02
    at_one = sample_input(InputDist(InputKind.GAUSS_AT_ONE), 4000, substream(75))
    assert abs(at_one.mean() - (1.0 - 0.1596)) <= 0.02


def test_sample_input_mixture_is_bimodal():
    values = sample_input(InputDist(InputKind.GAUSS_MIXTURE), 6000, substream(76))
    near_mode = np.count_nonzero((values > 0.25) & (values < 0.35))
    valley = np.count_nonzero((values > 0.45) & (values < 0.55))
    assert near_mode > 2 * valley


def test_input_dist_validation():
    with pytest.raises(ValueError):
        InputDist(InputKind.UNIFORM, sigma=0.0)
    with pytest.raises(ValueError):
        InputDist(InputKind.UNIFORM, sigma=float("inf"))
    with pytest.raises(DataError, match="m must be at least 1, got 0"):
        sample_input(InputDist(InputKind.UNIFORM), 0, substream(0))


def test_sampling_stall_is_detected(monkeypatch):
    # a proposal stream that never lands in [0, 1]
    monkeypatch.setattr(sim, "_propose", lambda dist, rng, n: np.full(n, 2.0))
    with pytest.raises(NumericError, match="no acceptances in"):
        sample_input(InputDist(InputKind.GAUSS_AT_ONE), 10, substream(77))


# ------------------------------------------------------------------ mechanisms

def test_apply_mechanism_known_points():
    grid = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
    assert apply_mechanism(MechanismKind.CUBE_ROOT, grid)[1] == 0.5
    assert apply_mechanism(MechanismKind.SQRT, grid)[2] == 0.5
    assert apply_mechanism(MechanismKind.SQUARE, grid)[3] == 0.25
    assert apply_mechanism(MechanismKind.CUBE, grid)[3] == 0.125


def test_apply_mechanism_monotone_into_unit_interval():
    x = np.sort(substream(78).random(500))
    specs = [(k, None) for k in MechanismKind if k is not MechanismKind.CDF_MIX]
    specs += [(MechanismKind.CDF_MIX, random_cdf_mix(substream(79, t))) for t in range(20)]
    for kind, cdf_mix in specs:
        y = apply_mechanism(kind, x, cdf_mix)
        assert np.all(np.diff(y) >= 0.0)
        assert y.min() >= 0.0 and y.max() <= 1.0


def test_apply_mechanism_domain_check():
    with pytest.raises(DomainError):
        apply_mechanism(MechanismKind.SQRT, [-0.1, 0.5])
    with pytest.raises(DomainError):
        apply_mechanism(MechanismKind.SQRT, [0.5, 1.1])
    with pytest.raises(DomainError):
        apply_mechanism(MechanismKind.SQRT, [[0.5], [1.1]])
    with pytest.raises(DataError, match="non-finite"):
        apply_mechanism(MechanismKind.SQRT, [0.5, math.nan])
    with pytest.raises(DataError, match=r"x must be of shape \(m,\) or \(n, m\), got shape \(2, 2, 2\)"):
        apply_mechanism(MechanismKind.SQRT, np.full((2, 2, 2), 0.5))


def test_cdf_mixture_single_component_centre():
    assert apply_mechanism(MechanismKind.CDF_MIX, [0.5], [[1.0], [0.5], [0.05]])[0] == pytest.approx(0.5, abs=1e-12)


def test_cdf_mixture_zero_width_becomes_step():
    out = apply_mechanism(MechanismKind.CDF_MIX, [0.4, 0.5, 0.6], [[1.0], [0.5], [0.0]])
    assert out.tolist() == [0.0, 1.0, 1.0]


def test_cdf_mixture_matches_the_per_component_formula():
    params = np.array([(0.2, 0.5, 0.3), (0.3, 0.5, 0.8), (0.05, 0.0, 0.01)])
    x = np.concatenate([np.linspace(0.0, 1.0, 101), substream(81).random(200)])
    want = np.zeros_like(x)
    for w, mu, sd in zip(*params):
        want += w * ((x >= mu).astype(np.float64) if sd == 0.0 else ndtr((x - mu) / sd))
    assert np.array_equal(apply_mechanism(MechanismKind.CDF_MIX, x, params), want)
    # in a block, only the rows whose component has zero width take the step
    other = np.array([(0.3, 0.3, 0.4), (0.5, 0.1, 0.9), (0.02, 0.05, 0.01)])
    block = np.stack([params, other], axis=1)
    got = apply_mechanism(MechanismKind.CDF_MIX, np.array([x, x]), block)
    assert np.array_equal(got, [want, apply_mechanism(MechanismKind.CDF_MIX, x, other)])
    # one parameter set is shared by every row of a block
    assert np.array_equal(apply_mechanism(MechanismKind.CDF_MIX, np.array([x, x]), params), [want, want])


def test_cdf_mix_params_validation():
    for params in (
        [(0.5, 0.4), (0.2, 0.8), (0.01, 0.01)],  # weights sum 0.9
        [(1.0,), (1.5,), (0.01,)],  # mean outside [0, 1]
        [(1.0,), (0.5,), (0.2,)],  # width above 0.1
        [(0.5, 0.5), (0.5,), (0.01,)],  # length mismatch
        [(0.5, 0.5), (0.5, 0.5)],  # widths missing
        np.empty((3, 0)),  # no components
        np.full((3, 2, 1), 0.5),  # two parameter sets for one row
    ):
        with pytest.raises(DomainError):
            apply_mechanism(MechanismKind.CDF_MIX, [0.5], params)


@pytest.mark.parametrize("weights", [(math.nan,), (0.5, math.nan), (math.inf, 0.5)])
def test_cdf_mix_params_reject_non_finite_weights(weights):
    # A NaN weight passed both checks and the mechanism returned all-NaN values.
    with pytest.raises(DomainError, match="weights"):
        apply_mechanism(MechanismKind.CDF_MIX, [0.5], [weights, (0.5,) * len(weights), (0.05,) * len(weights)])


def test_mechanism_spec_requires_params_exactly_for_cdf_mix():
    with pytest.raises(DomainError):
        apply_mechanism(MechanismKind.CDF_MIX, [0.5])
    with pytest.raises(DomainError):
        apply_mechanism(MechanismKind.SQRT, [0.5], [[1.0], [0.5], [0.05]])


def test_random_cdf_mix_parameter_ranges():
    for trial in range(100):
        weights, means, widths = random_cdf_mix(substream(80, trial))
        assert len(weights) == 5
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= mu <= 1.0 for mu in means)
        assert all(1e-4 <= sd <= 0.1 for sd in widths)


# ----------------------------------------------------------------- noise spec

def test_noise_spec_validation():
    NoiseSpec()  # deterministic default is fine
    NoiseSpec(NoiseKind.UNIFORM_UNIT, lam=0.05)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.NONE, lam=0.05)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.STD_NORMAL, lam=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.STD_NORMAL, lam=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.LAPLACE, lam=0.1, laplace_scale=0.0)
    for scale in (math.nan, math.inf):
        with pytest.raises(ValueError, match="laplace_scale must be finite and positive"):
            NoiseSpec(NoiseKind.LAPLACE, lam=0.1, laplace_scale=scale)


def test_spec_argument_errors_are_domain_errors():
    for make in (
        lambda: InputDist(InputKind.UNIFORM, sigma=0.0),
        lambda: NoiseSpec(NoiseKind.NONE, lam=0.05),
        lambda: NoiseSpec(NoiseKind.STD_NORMAL, lam=-0.1),
        lambda: NoiseSpec(NoiseKind.LAPLACE, lam=0.1, laplace_scale=math.nan),
    ):
        with pytest.raises(DomainError):
            make()


def test_cell_tally_accuracy():
    tally = CellTally(correct=3, wrong=1, undecided=1)
    assert tally.total == 5
    assert tally.accuracy_pct == 60.0
    assert math.isnan(CellTally().accuracy_pct)


# ------------------------------------------------------------- benchmark grid

def test_run_grid_shape_and_determinism():
    result = run_grid(m=60, repetitions=3, seed=5)
    assert len(result) == 25
    assert all(t.total == 3 for t in result.values())
    again = run_grid(m=60, repetitions=3, seed=5)
    assert again == result
    other = run_grid(m=60, repetitions=3, seed=6)
    assert other != result


def test_run_grid_replicates_documented_draw_order():
    # mechanism parameters first, then x, then noise, all on one substream
    noise = NoiseSpec(NoiseKind.UNIFORM_UNIT, lam=0.01)
    result = run_grid(noise=noise, m=200, repetitions=5, seed=90)
    expected = CellTally()
    for rep in range(5):
        rng = substream(90, 0, 4, rep)  # row A, column e
        cdf_mix = random_cdf_mix(rng)
        x = sample_input(InputDist(InputKind.UNIFORM), 200, rng, truncate=True)
        y = apply_mechanism(MechanismKind.CDF_MIX, x, cdf_mix) + 0.01 * rng.random(200)
        report = igci_score(SamplePair(x, y))
        if report.direction is Direction.X_TO_Y:
            expected.correct += 1
        elif report.direction is Direction.Y_TO_X:
            expected.wrong += 1
        else:
            expected.undecided += 1
    got = result[("A", "e")]
    assert (got.correct, got.wrong, got.undecided) == (expected.correct, expected.wrong, expected.undecided)


def _recorded_blocks(monkeypatch, run):
    """(x, y) stacks of every block that run() scores, concatenated in scoring order."""
    blocks = []
    score = sim._score_stack
    # One worker: a forked worker would append to its own copy of blocks.
    monkeypatch.setattr(igci._fanout, "_cpu_count", lambda: 1)

    def recording(errors, x, y, reference, estimator):
        blocks.append((x.copy(), y.copy()))
        return score(errors, x, y, reference, estimator)

    monkeypatch.setattr(sim, "_score_stack", recording)
    run()
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


_NOISE_DRAWS = {
    NoiseKind.UNIFORM_UNIT: lambda rng, m: rng.random(m),
    NoiseKind.STD_NORMAL: lambda rng, m: rng.standard_normal(m),
    NoiseKind.LAPLACE: lambda rng, m: rng.laplace(0.0, 0.2, m),
}


@pytest.mark.parametrize("noise", [NoiseSpec(), *(NoiseSpec(kind, 0.05) for kind in _NOISE_DRAWS)])
def test_block_draws_equal_the_documented_draw(monkeypatch, noise):
    m, reps = 60, 5
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 2 * m)  # blocks of 2, 2 and 1 repetitions
    x, y = _recorded_blocks(monkeypatch, lambda: run_grid(noise, m=m, repetitions=reps, seed=41))
    want_x, want_y = [], []
    for i, (_, dist) in enumerate(sim.GRID_INPUTS):
        for j, (_, kind) in enumerate(sim.GRID_MECHANISMS):
            for rep in range(reps):
                rng = substream(41, i, j, rep)
                cdf_mix = random_cdf_mix(rng) if kind is MechanismKind.CDF_MIX else None
                xr = sample_input(dist, m, rng)
                yr = apply_mechanism(kind, xr, cdf_mix)
                if noise.kind is not NoiseKind.NONE:
                    yr = yr + noise.lam * _NOISE_DRAWS[noise.kind](rng, m)
                want_x.append(xr)
                want_y.append(yr)
    assert np.array_equal(x, want_x) and np.array_equal(y, want_y)


def test_sine_block_draws_equal_the_documented_draw(monkeypatch):
    m, reps = 60, 5
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 2 * m)
    x, y = _recorded_blocks(monkeypatch, lambda: run_sine(m=m, repetitions=reps, seed=42))
    want_x = [
        sample_input(dist, m, substream(42, i, rep), truncate=False)
        for i, (_, dist) in enumerate(sim.SINE_INPUTS)
        for rep in range(reps)
    ]
    assert np.array_equal(x, want_x)
    assert np.array_equal(y, [xr + 0.005 * np.sin(40.0 * xr) for xr in want_x])


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_grid(NoiseSpec(NoiseKind.STD_NORMAL, 0.03), m=60, repetitions=5, seed=43),
        lambda: run_grid(m=60, repetitions=5, seed=43, estimator=EstimatorKind.SLOPE_INTEGRAL),
        lambda: run_sine(m=60, repetitions=5, seed=43, estimator=EstimatorKind.SLOPE_INTEGRAL),
    ],
)
def test_one_row_blocks_give_the_same_records(monkeypatch, run):
    blocked = run()
    monkeypatch.setattr(sim, "_BLOCK_VALUES", 60)
    assert run() == blocked


def test_run_grid_validation():
    with pytest.raises(DataError, match="m must be at least 3, got 2"):
        run_grid(m=2, repetitions=1)
    with pytest.raises(ValueError):
        run_grid(m=10, repetitions=0)


def test_run_grid_slope_estimator_runs():
    result = run_grid(m=80, repetitions=2, seed=91, estimator=EstimatorKind.SLOPE_INTEGRAL)
    assert all(t.total == 2 for t in result.values())


_SLOPE = ["--estimator", "slope"]
_GAUSSIAN = ["--reference", "gaussian"]

# sha256 of `igci simulate <argv>` stdout for small seeded runs.
# Seeded simulate output is part of the reproducibility contract, so these
# digests only change when the draws or the scores are meant to change. The
# m=3 and m=4 runs each hold two repetitions that raise (a saturated CDF
# mixture leaves y constant) and are tallied as undecided.
_GOLDEN_SIMULATE = {
    "grid-entropy-uniform": (
        ["--m", "200", "--reps", "8", "--seed", "3"],
        "7a8b3371ead1075e1c3bc45f20327dc97258c3675a1b6f097ae6e23ddc14d012",
    ),
    "grid-entropy-gaussian": (
        ["--m", "200", "--reps", "8", "--seed", "3", *_GAUSSIAN],
        "699879d4d58f673de31fa0c5b32815c7e6ee83d96cc3657be6162b5d7ce12cad",
    ),
    "grid-slope-uniform": (
        ["--m", "200", "--reps", "8", "--seed", "3", *_SLOPE],
        "503d0e76a01f5d811450650cff6d6462ce8a584e55b7fc49f895780725165832",
    ),
    "grid-slope-gaussian": (
        ["--m", "200", "--reps", "8", "--seed", "3", *_SLOPE, *_GAUSSIAN],
        "c956fb0716264944357e66881ec35156fd7451e32c8e9d24974eb9209b52c852",
    ),
    "grid-normal-noise": (
        ["--noise", "normal", "--lambda", "0.03", "--m", "200", "--reps", "8", "--seed", "4"],
        "a5745b2558378eab6df20a09dc3c1cf514e3c5a723604b010e1b0dcfdc84a880",
    ),
    "grid-uniform-noise": (
        ["--noise", "uniform", "--lambda", "0.05", "--m", "200", "--reps", "8", "--seed", "4", *_SLOPE],
        "c571c714ce995980098d700020a0594202831416d81180c3b8e3b867d3ff2941",
    ),
    "grid-laplace-noise": (
        ["--noise", "laplace", "--lambda", "0.1", "--m", "200", "--reps", "8", "--seed", "4", *_GAUSSIAN],
        "cf60fba7cc23ab54a46e7d5fa4e4a9b50e4138a61e9869268c6a23c45afbb105",
    ),
    "sine-entropy": (
        ["--experiment", "sine", "--m", "200", "--reps", "8", "--seed", "5"],
        "ee13536c36f762d7e2599b78a1944ca835ae3be4ebc5814847b9095da3075342",
    ),
    "sine-slope": (
        ["--experiment", "sine", "--m", "200", "--reps", "8", "--seed", "5", *_SLOPE],
        "e39c83ad6f6488eea4be947e09ee9fce86dd0d316acaa38fa3a7bf0ba288f42b",
    ),
    "grid-m3-entropy": (
        ["--m", "3", "--reps", "8", "--seed", "100"],
        "d7a8deb8feed8fdf30efd977d6bc7d96402d855ccff1f71162b3d7403a761a3b",
    ),
    "grid-m3-slope": (
        ["--m", "3", "--reps", "8", "--seed", "100", *_SLOPE],
        "06bf54bdd8c26703f9e0bf33d29dbc31f8010599cec44982dfb28af3ea070d73",
    ),
    "grid-m4-slope-gaussian": (
        ["--m", "4", "--reps", "8", "--seed", "100", *_SLOPE, *_GAUSSIAN],
        "4d69f0d68aba37ce33ed2c1c275f211bd449cf67e42fdbb65197fd5b993a0edc",
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_SIMULATE))
def test_simulate_records_match_golden_digest(name, capsys, monkeypatch):
    monkeypatch.delenv("IGCI_SEED", raising=False)
    argv, digest = _GOLDEN_SIMULATE[name]
    assert main(["simulate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ------------------------------------------------------------ sine experiment

def test_run_sine_zero_flutter_is_all_undecided():
    result = run_sine(epsilon=0.0, m=50, repetitions=2, seed=14)
    for tally in result.values():
        assert tally.undecided == 2 and tally.correct == 0 and tally.wrong == 0


def test_run_sine_determinism_and_labels():
    result = run_sine(m=120, repetitions=2, seed=15)
    assert list(result) == [
        "normal(0,1)",
        "normal(0,0.04)",
        "normal(0.5,0.04)",
        "normal(1,0.04)",
        "mixture(0.3,0.7)",
    ]
    again = run_sine(m=120, repetitions=2, seed=15)
    assert again == result


def test_run_sine_parameter_guards():
    with pytest.raises(DomainError):
        run_sine(epsilon=0.05, omega=40.0)  # product hits 2
    with pytest.raises(DomainError):
        run_sine(epsilon=-0.001)
    with pytest.raises(DomainError):
        run_sine(omega=0.0)
    with pytest.raises(DomainError):
        run_sine(epsilon=math.nan)
    with pytest.raises(DomainError):
        run_sine(omega=math.nan)
    with pytest.raises(DomainError):
        run_sine(epsilon=0.0, omega=math.inf)
    with pytest.raises(DataError, match="m must be at least 3, got 2"):
        run_sine(m=2)


@pytest.mark.parametrize("run", [run_grid, run_sine])
def test_zero_repetitions_is_a_domain_error(run):
    with pytest.raises(DomainError, match="repetitions must be at least 1, got 0"):
        run(m=10, repetitions=0)


# --------------------------------------------------------- fisher information

def test_fisher_information_gaussian_calibration():
    rng = substream(18)
    standard = rng.standard_normal(40000)
    assert estimate_fisher_information(standard) == pytest.approx(1.0, rel=0.05)
    half = 0.5 * rng.standard_normal(40000)
    assert estimate_fisher_information(half) == pytest.approx(4.0, rel=0.05)


def test_fisher_information_guards():
    with pytest.raises(DataError, match="need at least 16 values, got 10"):
        estimate_fisher_information(np.arange(10.0))
    with pytest.raises(ConstantInputError):
        estimate_fisher_information(np.full(100, 2.0))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_fisher_information_scale_beyond_float64_is_a_data_error(scale):
    x = scale * substream(19).standard_normal(200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"value range -.* to .* gives a Fisher information float64 cannot carry"):
            estimate_fisher_information(x)
        with pytest.raises(DataError, match="gives a Fisher information float64 cannot carry"):
            verify_noise_bound(x)


def test_fisher_information_near_the_float64_maximum_is_a_data_error():
    rng = substream(20)
    x = rng.uniform(9e307, 1e308, 50) * rng.choice([-1.0, 1.0], 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="value range .* to .* gives a Fisher information float64 cannot carry"):
            estimate_fisher_information(x)


@pytest.mark.parametrize("power", [-150, -100, -50, -1, 0, 1, 50, 100, 150])
def test_fisher_information_scales_as_one_over_the_variance(power):
    # J(s * x) = J(x) / s**2, at every scale whose variance float64 carries
    x = substream(21).standard_normal(2000)
    scale = 10.0 ** power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = estimate_fisher_information(x)
        assert estimate_fisher_information(scale * x) == pytest.approx(unit / scale / scale, rel=1e-9)


def _finite_leaves(out) -> bool:
    if isinstance(out, (list, tuple)):
        return all(_finite_leaves(v) for v in out)
    if isinstance(out, (IgciReport, NoiseBoundCheck, LagAlignment, LinearDirectionResult)):
        return _finite_leaves([v for v in vars(out).values() if isinstance(v, float)])
    return bool(np.all(np.isfinite(out)))


def _linear_direction(x, y):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "linear fit residual", UserWarning)
        return infer_linear_direction(MultiSample(x), MultiSample(y))


_SCALE_FREE = (align_lag, _linear_direction, trace_gap)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=40),
    powers=st.tuples(st.integers(-320, 300), st.integers(-320, 300)),
)
def test_finite_inputs_at_any_scale_give_a_finite_result_or_a_data_error(values, powers):
    x, y = (np.array(column) * 10.0 ** power for column, power in zip(zip(*values), powers))
    with np.errstate(all="ignore"):  # a vector that is not a distribution is the callee's DataError
        p, q = np.abs(x) / np.abs(x).sum(), np.abs(y) / np.abs(y).sum()
    scale_x, scale_y = (10.0 ** power for power in powers)
    calls = [
        (normalize_uniform, x),
        (standardize_gaussian, x),
        (spacing_entropy, x),
        (slope_criterion, x, y),
        (estimate_fisher_information, x),
        (verify_noise_bound, x),
        (align_lag, x, y, 1),
        (_linear_direction, np.column_stack([x, y]), np.column_stack([x + y, x - y])),
        (trace_gap, scale_x * np.array([[1.0, 0.5], [0.25, 2.0]]), scale_y * np.array([[2.0, 0.3], [0.3, 1.0]])),
        (discrete_kl, p, q),
        (kl_additivity_gap, p, q, p[::-1]),
    ]
    for reference in ReferenceFamily:
        for estimator in EstimatorKind:
            calls.append((lambda a, b, r=reference, e=estimator: igci_score(SamplePair(a, b), r, e), x, y))
    for fn, *args in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = fn(*args)
            except DataError as exc:
                # A scale-free route refuses data only for what it lacks at every scale,
                # never because a value range leaves float64.
                assert not (fn in _SCALE_FREE and "float64" in str(exc)), (fn, exc)
                continue
        assert _finite_leaves(out), (fn, out)


# ---------------------------------------------------------------- noise bound

def test_verify_noise_bound_gaussian_holds_and_is_tight():
    x = substream(23).standard_normal(30000)
    checks = verify_noise_bound(x, rng_seed=24)
    assert len(checks) == 3
    for check in checks:
        assert check.holds
        assert abs(check.gap) <= 0.1  # equality case up to estimation error
        assert check.bound == pytest.approx(
            check.entropy_base + 0.5 * math.log(check.sigma * check.fisher + 1.0), abs=1e-12
        )


def test_verify_noise_bound_reports_the_plug_in_fisher_and_guards():
    x = substream(25).standard_normal(5000)
    checks = verify_noise_bound(x, rng_seed=26)
    assert all(check.fisher == estimate_fisher_information(x) for check in checks)
    with pytest.raises(DataError, match="x contains non-finite values"):
        verify_noise_bound(np.append(x, math.nan), rng_seed=26)


def test_verify_noise_bound_overflowing_spacing_is_a_data_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="spacing entropy is not finite"):
            verify_noise_bound([-1e308, 1e308])


def test_verify_noise_bound_is_reproducible():
    x = substream(27).standard_normal(5000)
    a = verify_noise_bound(x, rng_seed=28)
    b = verify_noise_bound(x, rng_seed=28)
    assert a == b
