"""The package's public names: built from the module lists, pinned here."""

from __future__ import annotations

import roughcm
from roughcm import classifiers, core, errors, indices, matrices, oracle, report

PUBLIC = {
    "__version__",
    # core
    "ObjectSet", "Attribute", "DecisionSystem", "Partition",
    "partition_by_attributes", "decision_partition", "lower_approximation",
    "upper_approximation", "is_definable", "deterministic_region",
    # matrices
    "GranuleFrequencyMatrix", "RoughConfusionMatrix", "granule_frequency_matrix",
    "predictor_set", "confusion_matrix",
    # classifiers
    "TieBreak", "RoughClassifier", "ValidationReport", "validate_overlap",
    "maximal_row_classifier", "is_row_maximal", "success_ratio",
    "classifier_to_text", "classifier_from_text",
    # indices
    "indicator", "ClassApproximation", "ApproximationSummary",
    "approximation_summary", "gamma_hat", "alpha_hat_per_class",
    "alpha_hat_overall", "alpha_from_gamma", "ClassBounds", "BoundsReport",
    "confusion_bounds",
    # oracle
    "GENERATOR_ID", "GeneratorConfig", "random_decision_system",
    "random_overlap_classifier", "oracle_lower", "oracle_upper",
    "exhaustive_best_classifier", "BoundCheck", "LemmaCheck", "TheoremReport",
    "verify_theorems", "TrialFailure", "FuzzSummary", "run_fuzz_trials",
    # report
    "AnalysisReport", "analyze_decision_system", "rational_triple",
    "fraction_from_triple", "report_to_dict", "report_from_dict",
    "report_to_json", "render_text",
    # errors
    "RoughAnalysisError", "UnknownAttributeError", "DegenerateDecisionError",
    "UniverseMismatchError", "ShapeMismatchError", "UndefinedClassError",
    "GeneratorConfigError", "InstanceTooLargeError", "CsvFormatError",
    "ClassifierFileError", "ReportFormatError", "OverlapViolationError",
}


def test_the_public_names_are_pinned():
    assert len(roughcm.__all__) == len(PUBLIC) == 70
    assert set(roughcm.__all__) == PUBLIC


def test_every_public_name_is_bound_to_its_module_object():
    modules = (core, matrices, classifiers, indices, oracle, report, errors)
    for module in modules:
        for name in module.__all__:
            assert getattr(roughcm, name) is getattr(module, name)
    assert roughcm.__version__ == "0.1.0"
