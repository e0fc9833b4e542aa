"""Causal direction inference for (nearly) deterministic relations.

The package decides between x -> y and y -> x from observational samples
alone, exploiting the asymmetry that a mechanism independent of its input
distribution leaves different irregularity footprints in the two marginals.
See igci.estimators for scalar pairs, igci.trace for linear multivariate
relations, and igci.simulation for the synthetic benchmark harness.
"""

from .core import (
    Direction,
    MultiSample,
    ReferenceFamily,
    SamplePair,
    digamma,
    discrete_kl,
    kl_additivity_gap,
    normalize_uniform,
    standardize_gaussian,
)
from .errors import (
    AllTiedError,
    ConstantInputError,
    DataError,
    DimensionMismatchError,
    DomainError,
    EmptyManifestError,
    IgciError,
    NoValidSpacingsError,
    NonPositiveTraceError,
    NotPositiveDefiniteError,
    NumericError,
    ParseError,
    SamplingStalledError,
    SingularCovarianceError,
    SingularFitError,
    SupportMismatchError,
    TooFewRowsError,
)
from .estimators import (
    DECISION_TOL,
    EstimatorKind,
    IgciReport,
    igci_score,
    slope_criterion,
    spacing_entropy,
)
from .io import (
    EntryReport,
    LagAlignment,
    ManifestEntry,
    ManifestSummary,
    PairsManifest,
    align_lag,
    evaluate_manifest,
    format_json_lines,
    format_tsv,
    load_manifest,
    load_pair,
    load_table,
    write_pair,
)
from .simulation import (
    CdfMixParams,
    CellTally,
    GRID_INPUTS,
    GRID_MECHANISMS,
    InputDist,
    InputKind,
    MechanismKind,
    MechanismSpec,
    NoiseBoundCheck,
    NoiseKind,
    NoiseSpec,
    SINE_INPUTS,
    SimGridResult,
    SineResult,
    apply_mechanism,
    estimate_fisher_information,
    noise_variance_budget,
    run_grid,
    run_sine,
    sample_input,
    substream,
    verify_noise_bound,
)
from .trace import (
    LinearDirectionResult,
    LinearModel,
    infer_linear_direction,
    kl_to_isotropic,
    renormalized_trace,
    trace_gap,
)

__version__ = "0.1.0"
