"""Synthetic benchmark harness.

Everything here is driven by one integer seed through Philox counter-based
substreams, so results are bit-reproducible across runs and platforms: the
stream for a grid cell is derived from (seed, row index, column index,
repetition index) and never depends on execution order.

The benchmark grid crosses five input distributions on [0, 1] (uniform,
three truncated Gaussians at 0, 0.5 and 1, and a truncated two-component
Gaussian mixture) with five monotone mechanisms (three power laws, a square
root, and a random convex combination of Gaussian CDFs refreshed every
repetition). Truncation is by rejection, not clamping, so no probability
mass piles up at the interval ends. Additive noise is optional and scaled
by a single multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from ._fanout import fan_out
from .core import Direction, ReferenceFamily, _as_finite_vector, standardize_gaussian
from .errors import DataError, DomainError, NumericError
from .estimators import EstimatorKind, _direction, _score_stack, spacing_entropy

__all__ = [
    "InputKind",
    "InputDist",
    "MechanismKind",
    "NoiseKind",
    "NoiseSpec",
    "CellTally",
    "NoiseBoundCheck",
    "GRID_INPUTS",
    "GRID_MECHANISMS",
    "SINE_INPUTS",
    "substream",
    "sample_input",
    "random_cdf_mix",
    "apply_mechanism",
    "run_grid",
    "run_sine",
    "estimate_fisher_information",
    "verify_noise_bound",
]

_MAX_CONSECUTIVE_REJECTS = 1_000_000
_MIN_CHUNK = 1024


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a coordinate path under one base seed.

    Philox is counter-based, so streams derived from distinct paths are
    statistically independent and identical across platforms and runs.
    A seed or path entry that is not an integer raises TypeError, and a
    negative one raises ValueError.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


class InputKind(Enum):
    UNIFORM = "uniform"
    GAUSS_AT_ZERO = "gauss_at_zero"
    GAUSS_CENTERED = "gauss_centered"
    GAUSS_AT_ONE = "gauss_at_one"
    GAUSS_MIXTURE = "gauss_mixture"


_GAUSS_MEANS = {
    InputKind.GAUSS_AT_ZERO: 0.0,
    InputKind.GAUSS_CENTERED: 0.5,
    InputKind.GAUSS_AT_ONE: 1.0,
}

_MIXTURE_MEANS = (0.3, 0.7)


@dataclass(frozen=True)
class InputDist:
    """Input distribution spec; sigma scales every non-uniform variant."""

    kind: InputKind
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")


def _propose(dist: InputDist, rng: np.random.Generator, n: int) -> np.ndarray:
    if dist.kind is InputKind.UNIFORM:
        return rng.random(n)
    if dist.kind is InputKind.GAUSS_MIXTURE:
        # Equal-weight two-component mixture, component width sigma / 2.
        means = np.where(rng.random(n) < 0.5, _MIXTURE_MEANS[0], _MIXTURE_MEANS[1])
        return rng.normal(means, dist.sigma / 2.0)
    return rng.normal(_GAUSS_MEANS[dist.kind], dist.sigma, n)


def sample_input(dist: InputDist, m: int, rng: np.random.Generator, truncate: bool = True) -> np.ndarray:
    """Draw m values from rng, rejection-truncated to [0, 1] unless truncate=False."""
    if m < 1:
        raise DataError(f"m must be at least 1, got {m}")
    if not truncate:
        return _propose(dist, rng, m)
    out = np.empty(m, dtype=np.float64)
    filled = 0
    consecutive_rejects = 0
    while filled < m:
        chunk = _propose(dist, rng, max(m - filled, _MIN_CHUNK))
        accepted = chunk[(chunk >= 0.0) & (chunk <= 1.0)]
        if accepted.size == 0:
            consecutive_rejects += chunk.size
            if consecutive_rejects >= _MAX_CONSECUTIVE_REJECTS:
                raise NumericError(
                    f"no acceptances in {consecutive_rejects} consecutive draws for {dist}"
                )
            continue
        consecutive_rejects = 0
        take = min(accepted.size, m - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


class MechanismKind(Enum):
    CUBE_ROOT = "cube_root"
    SQRT = "sqrt"
    SQUARE = "square"
    CUBE = "cube"
    CDF_MIX = "cdf_mix"


# Widths below this are floored when drawing random mixture parameters so
# the mechanism stays resolvable at benchmark sample sizes.
_MIN_CDF_WIDTH = 1e-4
# Components of a random CDF mixture.
_CDF_COMPONENTS = 5


def random_cdf_mix(rng: np.random.Generator) -> np.ndarray:
    """Fresh (3, 5) CDF-mixture parameters for apply_mechanism, drawn in this order:
    normalized uniform weights, uniform means, widths uniform on [0, 0.1] floored at 1e-4."""
    raw, means, widths = (rng.random(_CDF_COMPONENTS) for _ in range(3))
    return np.array([raw / raw.sum(), means, np.maximum(widths * 0.1, _MIN_CDF_WIDTH)])


def apply_mechanism(kind: MechanismKind, x, cdf_mix=None) -> np.ndarray:
    """Evaluate a benchmark mechanism on one sample in [0, 1], shape (m,), or on
    each row of a stack, shape (n, m).

    cdf_mix is required exactly for CDF_MIX: the weights, means and widths of a
    convex combination of Gaussian CDFs, shape (3, k) for every row or (3, n, k)
    row by row, as random_cdf_mix draws them. Components are summed in order.
    All mechanisms map [0, 1] into [0, 1] and are monotone nondecreasing
    (strictly increasing except for zero-width CDF components, which act
    as steps).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DataError(f"x must be of shape (m,) or (n, m), got shape {arr.shape}")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        if not np.isfinite(arr).all():
            raise DataError("x contains non-finite values")
        raise DomainError("mechanism inputs must lie in [0, 1]")
    if (kind is MechanismKind.CDF_MIX) != (cdf_mix is not None):
        raise DomainError("cdf_mix parameters are required exactly when kind is CDF_MIX")
    if kind is MechanismKind.CUBE_ROOT:
        return np.cbrt(arr)
    if kind is MechanismKind.SQRT:
        return np.sqrt(arr)
    if kind is MechanismKind.SQUARE:
        return arr * arr
    if kind is MechanismKind.CUBE:
        return arr * arr * arr
    rows = arr if arr.ndim == 2 else arr[None]
    shape_error = f"cdf_mix must be of shape (3, k) or (3, {len(rows)}, k)"
    try:
        params = np.asarray(cdf_mix, dtype=np.float64)
    except ValueError:  # ragged, e.g. fewer means than weights
        raise DomainError(f"{shape_error}, got components of unequal lengths") from None
    if params.ndim == 2:
        params = np.broadcast_to(params[:, None], (len(params), len(rows), params.shape[1]))
    if params.ndim != 3 or params.shape[:2] != (3, len(rows)) or params.shape[2] == 0:
        raise DomainError(f"{shape_error}, got {np.shape(cdf_mix)}")
    w, mu, sd = params
    # A NaN fails every comparison, so each test is written to catch one.
    if not (np.all(w >= 0.0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-8)):
        raise DomainError("weights must be nonnegative and sum to 1")
    if not (np.all((mu >= 0.0) & (mu <= 1.0)) and np.all((sd >= 0.0) & (sd <= 0.1))):
        raise DomainError("means must lie in [0, 1] and widths in [0, 0.1]")
    out = np.zeros_like(rows)
    for w, mu, sd in zip(*params.transpose(0, 2, 1)[..., None]):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = ndtr((rows - mu) / sd)
        steps = sd[:, 0] == 0.0
        if steps.any():
            term[steps] = rows[steps] >= mu[steps]
        out += w * term
    return out.reshape(arr.shape)


class NoiseKind(Enum):
    NONE = "none"
    UNIFORM_UNIT = "uniform"
    STD_NORMAL = "normal"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: y = f(x) + lam * E."""

    kind: NoiseKind = NoiseKind.NONE
    lam: float = 0.0
    laplace_scale: float = 0.2

    def __post_init__(self) -> None:
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite and nonnegative, got {self.lam!r}")
        if not 0.0 < self.laplace_scale < math.inf:
            raise DomainError(f"laplace_scale must be finite and positive, got {self.laplace_scale!r}")
        # A deterministic run is spelled with both fields off, never half.
        if (self.lam == 0.0) != (self.kind is NoiseKind.NONE):
            raise DomainError("lam == 0 exactly when kind is NONE")


def _sample_noise(noise: NoiseSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    if noise.kind is NoiseKind.UNIFORM_UNIT:
        return rng.random(m)
    if noise.kind is NoiseKind.STD_NORMAL:
        return rng.standard_normal(m)
    return rng.laplace(0.0, noise.laplace_scale, m)


@dataclass
class CellTally:
    correct: int = 0
    wrong: int = 0
    undecided: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.wrong + self.undecided

    @property
    def accuracy_pct(self) -> float:
        # Undecided outcomes count against accuracy; they are also
        # reported on their own so the choice is visible.
        return 100.0 * self.correct / self.total if self.total else float("nan")


GRID_INPUTS: tuple = (
    ("A", InputDist(InputKind.UNIFORM)),
    ("B", InputDist(InputKind.GAUSS_AT_ZERO)),
    ("C", InputDist(InputKind.GAUSS_CENTERED)),
    ("D", InputDist(InputKind.GAUSS_AT_ONE)),
    ("E", InputDist(InputKind.GAUSS_MIXTURE)),
)

GRID_MECHANISMS: tuple = (
    ("a", MechanismKind.CUBE_ROOT),
    ("b", MechanismKind.SQRT),
    ("c", MechanismKind.SQUARE),
    ("d", MechanismKind.CUBE),
    ("e", MechanismKind.CDF_MIX),
)

# Inputs for the small-flutter experiment; these are NOT truncated.
SINE_INPUTS: tuple = (
    ("normal(0,1)", InputDist(InputKind.GAUSS_AT_ZERO, sigma=1.0)),
    ("normal(0,0.04)", InputDist(InputKind.GAUSS_AT_ZERO)),
    ("normal(0.5,0.04)", InputDist(InputKind.GAUSS_CENTERED)),
    ("normal(1,0.04)", InputDist(InputKind.GAUSS_AT_ONE)),
    ("mixture(0.3,0.7)", InputDist(InputKind.GAUSS_MIXTURE)),
)


# Values per scoring block: 64 KiB of float64, below glibc's 128 KiB mmap threshold,
# so block arrays reuse heap memory and peak RSS stays where per-pair scoring left it.
_BLOCK_VALUES = 8192


def _run_cells(cells, draw, m, repetitions, estimator, reference, seed) -> dict:
    """Score `repetitions` draws per cell and tally the calls against x -> y.

    cells holds (label, path, spec) triples; repetition rep of a cell draws
    from substream(seed, *path, rep). Repetitions are drawn and scored in
    blocks: draw(spec, streams, x) fills row i of the block x from the i-th
    generator of streams, the substream of the block's i-th repetition, and
    returns the block's y. Every row scores exactly as its pair would alone.
    Estimator errors inside a repetition are tallied as undecided. Cells run
    on forked workers, one per available CPU. Returns {label: CellTally} in
    cell order.
    """
    if m < 3:
        raise DataError(f"m must be at least 3, got {m}")
    if repetitions < 1:
        raise DomainError(f"repetitions must be at least 1, got {repetitions}")
    rows = min(repetitions, max(1, _BLOCK_VALUES // m))
    x = np.empty((rows, m))

    def run_cell(cell) -> tuple:
        label, path, spec = cell
        tally = CellTally()
        for start in range(0, repetitions, rows):
            block = x[: min(rows, repetitions - start)]
            streams = (substream(seed, *path, rep) for rep in range(start, start + len(block)))
            y = draw(spec, streams, block)
            errors = {}
            c_xy, _ = _score_stack(errors, block, y, reference, estimator)
            for row, c in enumerate(c_xy.tolist()):
                direction = Direction.UNDECIDED if row in errors else _direction(c)
                tally.correct += direction is Direction.X_TO_Y
                tally.wrong += direction is Direction.Y_TO_X
                tally.undecided += direction is Direction.UNDECIDED
        return label, tally

    return dict(fan_out(run_cell, cells))


def run_grid(
    noise: NoiseSpec = NoiseSpec(),
    m: int = 1000,
    repetitions: int = 100,
    estimator: EstimatorKind = EstimatorKind.ENTROPY_SPACING,
    reference: ReferenceFamily = ReferenceFamily.UNIFORM_UNIT,
    seed: int = 0,
) -> dict:
    """Run the full 5 x 5 input-by-mechanism benchmark: {(row, col): CellTally}.

    Ground truth is x -> y everywhere. Mixture-of-CDF mechanism parameters
    are redrawn for every repetition; the per-repetition draw order is
    fixed (mechanism parameters, then x, then noise) as part of the
    reproducibility contract. Estimator errors inside a repetition are
    tallied as undecided.
    """

    def draw(spec, streams, x):
        dist, kind = spec
        cdf_mix = np.empty((3, len(x), _CDF_COMPONENTS)) if kind is MechanismKind.CDF_MIX else None
        eps = np.empty_like(x) if noise.kind is not NoiseKind.NONE else None
        for row, rng in enumerate(streams):
            if cdf_mix is not None:
                cdf_mix[:, row] = random_cdf_mix(rng)
            x[row] = sample_input(dist, m, rng)
            if eps is not None:
                eps[row] = _sample_noise(noise, m, rng)
        y = apply_mechanism(kind, x, cdf_mix)
        if eps is not None:
            y += noise.lam * eps
        return y

    cells = [
        ((row_label, col_label), (i, j), (dist, col_kind))
        for i, (row_label, dist) in enumerate(GRID_INPUTS)
        for j, (col_label, col_kind) in enumerate(GRID_MECHANISMS)
    ]
    return _run_cells(cells, draw, m, repetitions, estimator, reference, seed)


def run_sine(
    epsilon: float = 0.005,
    omega: float = 40.0,
    m: int = 1000,
    repetitions: int = 100,
    estimator: EstimatorKind = EstimatorKind.ENTROPY_SPACING,
    reference: ReferenceFamily = ReferenceFamily.UNIFORM_UNIT,
    seed: int = 0,
) -> dict:
    """Score y = x + epsilon * sin(omega * x) per SINE_INPUTS label: {label: CellTally}.

    The flutter keeps the map strictly increasing as long as
    epsilon * omega < 1, which is enforced. Inputs are drawn without
    truncation. epsilon = 0 makes y equal x exactly, so every repetition
    scores 0 and lands in the undecided tally.
    """
    if not (0.0 <= epsilon < math.inf and 0.0 < omega < math.inf):
        raise DomainError(f"need finite epsilon >= 0 and omega > 0, got {epsilon!r} and {omega!r}")
    if epsilon * omega >= 1.0:
        raise DomainError(f"epsilon * omega = {epsilon * omega!r} must stay below 1 to keep the map increasing")

    def draw(dist, streams, x):
        for row, rng in enumerate(streams):
            x[row] = sample_input(dist, m, rng, truncate=False)
        return x + epsilon * np.sin(omega * x)

    cells = [(label, (i,), dist) for i, (label, dist) in enumerate(SINE_INPUTS)]
    return _run_cells(cells, draw, m, repetitions, estimator, reference, seed)


# Bins of the kernel density grid in estimate_fisher_information.
_FISHER_GRID = 4096


def estimate_fisher_information(values) -> float:
    """Plug-in Fisher information of a scalar density from a sample.

    J(x) = J(z) / std**2 for the standardized sample z. A binned Gaussian
    kernel density of z with Silverman's reference bandwidth h supplies the
    score function; the integral of score**2 times density is
    taken on the grid. Kernel smoothing biases the result low by roughly
    the bandwidth variance, and for a Gaussian shape exactly so (1/J grows
    by h**2 under h-smoothing); that term is removed, which is exact in the
    Gaussian case. A sample whose standardization or J float64 cannot
    carry is a DataError naming its value range.
    """
    arr = _as_finite_vector(values, "values")
    m = arr.size
    if m < 16:
        raise DataError(f"need at least 16 values, got {m}")
    z, _, std = standardize_gaussian(arr)
    q25, q75 = np.percentile(z, [25.0, 75.0])
    iqr = float(q75 - q25)
    spread = min(1.0, iqr / 1.349) if iqr > 0.0 else 1.0
    h = 0.9 * spread * m ** (-0.2)
    edges = np.linspace(float(z.min()) - 5.0 * h, float(z.max()) + 5.0 * h, _FISHER_GRID + 1)
    delta = float(edges[1] - edges[0])
    counts, _ = np.histogram(z, bins=edges)
    radius = int(math.ceil(6.0 * h / delta))
    offsets = np.arange(-radius, radius + 1) * delta
    kernel = np.exp(-0.5 * (offsets / h) ** 2)
    kernel /= kernel.sum()
    density = np.convolve(counts / (m * delta), kernel, mode="same")
    slope = np.gradient(density, delta)
    mask = density > density.max() * 1e-12
    info = float(np.sum(slope[mask] ** 2 / density[mask]) * delta)
    if info > 0.0:
        inv = 1.0 / info - h * h
        if inv > 0.0:
            info = 1.0 / inv
    # Python floats, so a J beyond float64 becomes inf or 0.0 without a warning.
    info = info / std / std
    if not 0.0 < info < math.inf:
        raise DataError(
            f"value range {float(arr.min())!r} to {float(arr.max())!r} gives a Fisher information float64 cannot carry"
        )
    return info


# Slack on the noise bound for the error of the spacing entropy estimates.
_NOISE_BOUND_TOL = 0.05
# Noise variances sigma that verify_noise_bound checks, in order.
_SIGMA_LEVELS = (0.01, 0.1, 1.0)


@dataclass(frozen=True)
class NoiseBoundCheck:
    sigma: float
    entropy_base: float
    entropy_noisy: float
    fisher: float
    bound: float
    gap: float
    holds: bool


def verify_noise_bound(x, rng_seed: int = 0, *path: int) -> list:
    """Check S(x + sqrt(sigma) Z) <= S(x) + 0.5 * log(sigma * J(x) + 1).

    Entropies are spacing estimates, J(x) is the plug-in Fisher information.
    The bound is tight when x itself is Gaussian, so the reported gap (bound
    minus noisy entropy) doubles as a tightness probe. holds allows
    _NOISE_BOUND_TOL of slack for estimation error. Returns one check per
    sigma of 0.01, 0.1 and 1.0; the noise Z of the j-th sigma is drawn from
    substream(rng_seed, *path, j).
    """
    arr = _as_finite_vector(x, "x")
    base = spacing_entropy(arr)
    info = estimate_fisher_information(arr)
    checks = []
    for j, sigma in enumerate(_SIGMA_LEVELS):
        rng = substream(rng_seed, *path, j)
        noisy = arr + math.sqrt(sigma) * rng.standard_normal(arr.size)
        noisy_entropy = spacing_entropy(noisy)
        bound = base + 0.5 * math.log(sigma * info + 1.0)
        checks.append(
            NoiseBoundCheck(
                sigma=sigma,
                entropy_base=base,
                entropy_noisy=noisy_entropy,
                fisher=info,
                bound=bound,
                gap=bound - noisy_entropy,
                holds=noisy_entropy <= bound + _NOISE_BOUND_TOL,
            )
        )
    return checks
