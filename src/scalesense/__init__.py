"""Discretized diagnostic scales: quantile binning of continuous risk
scores, threshold selection, refinement monotonicity checks, and Monte
Carlo partition sweeps."""

__version__ = "0.1.0"

import types

from .core import (
    MASS_TOLERANCE,
    Cohort,
    ConditionalPMF,
    DiagnosticSummary,
    Outcome,
    PartitionSpec,
    ScaleAnalysis,
    ThresholdCriterion,
    analyze_cohort,
    discretize,
    estimate_conditional_pmfs,
    roc_points,
    select_threshold,
    sensitivity,
    specificity,
)
from .errors import (
    AlignmentError,
    DegenerateCohortError,
    DimensionMismatchError,
    EmptyExperimentError,
    EmptyGridError,
    EmptyInputError,
    FileIOError,
    InsufficientSamplesError,
    InvalidClassCountError,
    InvalidDeltaError,
    InvariantViolationError,
    NegativeProbabilityError,
    NotCoveredError,
    ParseError,
    ScaleSenseError,
    SchemaError,
    SpecValidationError,
    ThresholdOutOfRangeError,
)
from .refinement import (
    MonotonicityVerdict,
    RefinementWitness,
    VerdictStatus,
    apply_refinement,
    check_mass_control,
    search_counterexample,
    verify_monotonicity,
)
from .simulate import (
    DEFAULT_CLASS_LADDER,
    DEFAULT_REPS,
    CohortSpec,
    ExperimentReport,
    SweepRecord,
    generate_cohort,
    replication_seed,
    run_partition_sweep,
)
from .io import (
    FLAT_CSV_HEADER,
    SCHEMA_VERSION,
    CohortFileSchema,
    Provenance,
    ReportDocument,
    load_cohort,
    read_report,
    write_cohort,
    write_report,
)

# Each name imported above is public: __all__ lists them in import order, submodules aside.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
