"""Exception hierarchy for rough-set classifier analysis."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
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


_SHOWN = 10


def _listed(ids: Sequence[object]) -> str:
    """Name the first ten ids, then how many more there are."""
    listed = ", ".join(map(str, ids[:_SHOWN]))
    rest = len(ids) - _SHOWN
    return f"{listed} and {rest} more" if rest > 0 else listed


class RoughAnalysisError(Exception):
    """Base class for every error raised by this package."""


class UnknownAttributeError(RoughAnalysisError):
    """An attribute name does not occur among the condition attributes."""

    def __init__(self, names: tuple[str, ...]):
        self.names = tuple(names)
        listed = ", ".join(repr(n) for n in self.names)
        super().__init__(f"unknown attribute(s): {listed}")


class DegenerateDecisionError(RoughAnalysisError):
    """The decision attribute takes fewer than two distinct values."""


class UniverseMismatchError(RoughAnalysisError):
    """Object ids fall outside the universe they are checked against."""


class ShapeMismatchError(RoughAnalysisError):
    """Matrix or classifier dimensions disagree."""


class UndefinedClassError(RoughAnalysisError):
    """A per-class accuracy is 0/0: the class is never predicted and never occurs."""

    def __init__(self, class_index: int):
        self.class_index = class_index
        super().__init__(
            f"accuracy is undefined for class {class_index}: "
            "it is never predicted and never occurs"
        )


class GeneratorConfigError(RoughAnalysisError):
    """Invalid random-instance generator configuration."""


class InstanceTooLargeError(RoughAnalysisError):
    """An exhaustive-enumeration guard was exceeded."""


class CsvFormatError(RoughAnalysisError):
    """Malformed decision-table CSV."""


class ClassifierFileError(RoughAnalysisError):
    """Malformed classifier mapping file."""


class ReportFormatError(RoughAnalysisError):
    """Malformed or self-contradictory analysis report dict."""


class OverlapViolationError(RoughAnalysisError):
    """A classifier maps some granule to a class it does not intersect."""

    def __init__(self, violations: tuple[int, ...]):
        self.violations = tuple(violations)
        listed = _listed(self.violations)
        super().__init__(f"classifier violates the overlap rule at granule(s) {listed}")
