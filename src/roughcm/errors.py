"""Exception hierarchy for rough-set classifier analysis."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

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


def _type_names(types: set[type]) -> str:
    return " or ".join(sorted("null" if t is type(None) else t.__name__ for t in types))


def _require_types(*rules: tuple[str, set[type], Iterable[object]]) -> None:
    """Raise TypeError at the first (what, allowed types, values) rule broken."""
    for what, allowed, values in rules:
        wrong = set(map(type, values)) - allowed
        if wrong:
            raise TypeError(f"{what} must be {_type_names(allowed)}, not {_type_names(wrong)}")


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
