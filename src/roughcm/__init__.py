"""Granule-level classifier evaluation on decision tables via confusion matrices.

The package builds attribute-induced partitions from decision tables,
computes lower and upper approximations with their quality indices (all
exact rationals), constructs confusion matrices for granule-level
classifiers, and derives per-class bounds on approximation sizes that can
be read off a confusion matrix alone. An oracle module provides
brute-force verifiers and a seeded instance generator for the property and
fuzz suites, and the `roughcm` command ingests CSV decision tables and
emits deterministic JSON or text reports.
"""

from .classifiers import (
    RoughClassifier,
    TieBreak,
    ValidationReport,
    classifier_from_text,
    classifier_to_text,
    is_row_maximal,
    maximal_row_classifier,
    success_ratio,
    validate_overlap,
)
from .core import (
    Attribute,
    DecisionSystem,
    ObjectSet,
    Partition,
    decision_partition,
    deterministic_region,
    is_definable,
    lower_approximation,
    partition_by_attributes,
    upper_approximation,
)
from .errors import (
    ClassifierFileError,
    CsvFormatError,
    DegenerateDecisionError,
    GeneratorConfigError,
    InstanceTooLargeError,
    OverlapViolationError,
    ReportFormatError,
    RoughAnalysisError,
    ShapeMismatchError,
    UndefinedClassError,
    UniverseMismatchError,
    UnknownAttributeError,
)
from .indices import (
    ApproximationSummary,
    BoundsReport,
    ClassApproximation,
    ClassBounds,
    alpha_from_gamma,
    alpha_hat_overall,
    alpha_hat_per_class,
    approximation_summary,
    confusion_bounds,
    gamma_hat,
    indicator,
)
from .matrices import (
    GranuleFrequencyMatrix,
    RoughConfusionMatrix,
    confusion_matrix,
    granule_frequency_matrix,
    predictor_set,
)
from .oracle import (
    GENERATOR_ID,
    BoundCheck,
    FuzzSummary,
    GeneratorConfig,
    LemmaCheck,
    TheoremReport,
    TrialFailure,
    exhaustive_best_classifier,
    oracle_lower,
    oracle_upper,
    random_decision_system,
    random_overlap_classifier,
    run_fuzz_trials,
    verify_theorems,
)
from .report import (
    AnalysisReport,
    analyze_decision_system,
    fraction_from_triple,
    rational_triple,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ObjectSet",
    "Attribute",
    "DecisionSystem",
    "Partition",
    "partition_by_attributes",
    "decision_partition",
    "lower_approximation",
    "upper_approximation",
    "is_definable",
    "deterministic_region",
    # matrices
    "GranuleFrequencyMatrix",
    "RoughConfusionMatrix",
    "granule_frequency_matrix",
    "predictor_set",
    "confusion_matrix",
    # classifiers
    "TieBreak",
    "RoughClassifier",
    "ValidationReport",
    "validate_overlap",
    "maximal_row_classifier",
    "is_row_maximal",
    "success_ratio",
    "classifier_to_text",
    "classifier_from_text",
    # indices
    "indicator",
    "ClassApproximation",
    "ApproximationSummary",
    "approximation_summary",
    "gamma_hat",
    "alpha_hat_per_class",
    "alpha_hat_overall",
    "alpha_from_gamma",
    "ClassBounds",
    "BoundsReport",
    "confusion_bounds",
    # oracle
    "GENERATOR_ID",
    "GeneratorConfig",
    "random_decision_system",
    "random_overlap_classifier",
    "oracle_lower",
    "oracle_upper",
    "exhaustive_best_classifier",
    "BoundCheck",
    "LemmaCheck",
    "TheoremReport",
    "verify_theorems",
    "TrialFailure",
    "FuzzSummary",
    "run_fuzz_trials",
    # report
    "AnalysisReport",
    "analyze_decision_system",
    "rational_triple",
    "fraction_from_triple",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "render_text",
    # errors
    "RoughAnalysisError",
    "UnknownAttributeError",
    "DegenerateDecisionError",
    "UniverseMismatchError",
    "ShapeMismatchError",
    "UndefinedClassError",
    "GeneratorConfigError",
    "InstanceTooLargeError",
    "CsvFormatError",
    "ClassifierFileError",
    "ReportFormatError",
    "OverlapViolationError",
]
