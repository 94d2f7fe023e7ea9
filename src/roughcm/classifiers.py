"""Granule-level classifiers, the overlap rule, and the maximal row classifier.

A rough classifier is a total map from granules to decision classes. It
cannot distinguish objects inside a granule, so it predicts one class for
the whole block. The overlap rule demands that every granule intersect the
class it is mapped to, i.e. at least one member of the granule is
classified correctly. The maximal row classifier picks, for each granule,
a class with the highest frequency count; it satisfies the overlap rule by
construction and maximizes the success ratio among all rough classifiers.
It takes one maximum per distinct frequency row; the row-maximality test
shares no code with it and takes one per distinct (row, class) pair.

classifier_from_text reads a mapping file in one of two ways. A file whose
lines are all blank or two indices apart is checked whole, a rule to a
pass over all its numbers; any other file, or one that a rule refuses, is
read line by line, which names its first faulty line.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import filterfalse
from operator import itemgetter

from .errors import ClassifierFileError, _listed, _require_types
from .matrices import GranuleFrequencyMatrix, RoughConfusionMatrix, _require_shapes

__all__ = [
    "TieBreak",
    "RoughClassifier",
    "ValidationReport",
    "validate_overlap",
    "maximal_row_classifier",
    "is_row_maximal",
    "success_ratio",
    "classifier_to_text",
    "classifier_from_text",
]


class TieBreak(Enum):
    """How the maximal row classifier resolves ties between equal counts."""

    LOWEST = "lowest"
    HIGHEST = "highest"
    RANDOM = "random"


@dataclass(frozen=True)
class RoughClassifier:
    """Total assignment of granules to decision classes, both 1-based.

    `assignment[i]` is the class index chosen for granule i + 1; granules
    are numbered in the canonical order of the partition the classifier
    was built against, which is also the row order of its frequency matrix.
    """

    assignment: tuple[int, ...]
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if not self.assignment:
            raise ValueError("a classifier needs at least one granule")
        # a bool or a float passes the range check, but JSON writes neither as a class
        _require_types(
            ("class indices", {int}, self.assignment), ("n_classes", {int}, [self.n_classes])
        )
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        bad = [cls for cls in self.assignment if not 1 <= cls <= self.n_classes]
        if bad:
            raise ValueError(
                f"class indices out of range 1..{self.n_classes}: {sorted(set(bad))}"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the overlap-rule check; violations list 1-based granules."""

    violations: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def satisfies_rule(self) -> bool:
        return not self.violations


def validate_overlap(
    f: RoughClassifier, gfm: GranuleFrequencyMatrix
) -> ValidationReport:
    """Check that every granule meets the class it is mapped to.

    Granule i violates the rule when cell (i, f(i)) of the frequency
    matrix is zero: no member of the granule belongs to the predicted
    class, so the prediction is wrong for every single object in it.
    """
    _require_shapes(f, gfm)
    return ValidationReport(
        tuple(
            i
            for i, cls in enumerate(f.assignment, start=1)
            if gfm.cells[i - 1][cls - 1] == 0
        )
    )


def maximal_row_classifier(
    gfm: GranuleFrequencyMatrix,
    tie_break: TieBreak | str = TieBreak.LOWEST,
    seed: int = 0,
) -> RoughClassifier:
    """Assign each granule a class with the maximal row count.

    Ties are resolved by `tie_break`, a TieBreak or its value string: the
    lowest tied class index, the highest, or a seeded uniform draw. The
    random policy consumes one draw per granule from random.Random(seed),
    so a (matrix, policy, seed) triple always produces the same
    classifier. Any other `tie_break` raises ValueError.
    """
    tie_break = TieBreak(tie_break)
    if tie_break is TieBreak.RANDOM:
        pick = random.Random(seed).choice
    else:
        pick = itemgetter(0 if tie_break is TieBreak.LOWEST else -1)
    maxima = {
        row: tuple([j for j, count in enumerate(row, start=1) if count == top])
        for row, top in zip(gfm._distinct, map(max, gfm._distinct))
    }
    return RoughClassifier([pick(maxima[row]) for row in gfm.cells], gfm.k)


def is_row_maximal(f: RoughClassifier, gfm: GranuleFrequencyMatrix) -> bool:
    """True iff `f` picks a maximal cell in every frequency row.

    Any classifier with this property behaves like a maximal row
    classifier under some tie-break, which is exactly the precondition of
    the sharper confusion-matrix bounds.
    """
    _require_shapes(f, gfm)
    return all(row[j - 1] == max(row) for row, j in set(zip(gfm.cells, f.assignment)))


def success_ratio(cm: RoughConfusionMatrix) -> Fraction:
    """Fraction of objects whose predicted class equals their true class."""
    return Fraction(sum(cm.diagonal), cm.total)


def classifier_to_text(f: RoughClassifier) -> str:
    """Render the mapping-file form: one `granule_index class_index` per line."""
    lines = ["# granule_index class_index"]
    lines += [f"{i} {cls}" for i, cls in enumerate(f.assignment, start=1)]
    return "\n".join(lines) + "\n"


_COMMENT = re.compile("#[^\n]*")
_INDEX = "-?[0-9]+"
# The whole-file test passes indices of at most _DIGITS digits, which int()
# converts under any digit limit (the least it can be set to is 640), and a
# message echoes at most _DIGITS characters of an index.
_DIGITS = 20
# A line that is neither blank nor two short indices apart; spacing other
# than ASCII space, tab and CR also matches, and is then judged line by line.
_SHORT_INDEX = f"-?[0-9]{{1,{_DIGITS}}}"
_ODD_LINE = re.compile(
    rf"^(?![ \t\r]*(?:{_SHORT_INDEX}[ \t\r]+{_SHORT_INDEX}[ \t\r]*)?$)", re.MULTILINE
)


def classifier_from_text(text: str, n_granules: int, n_classes: int) -> RoughClassifier:
    """Parse a mapping file; `#` starts a comment, blank lines are ignored.

    Lines end at `\\n` (a `\\r` before it is whitespace), indices are ASCII
    decimal integers, and the file must assign every granule 1..n_granules
    exactly once to a class in 1..n_classes. An error names the first
    faulty line and the first rule it breaks.
    """
    body = _COMMENT.sub("", text)
    assigned = None
    if _ODD_LINE.search(body) is None:
        numbers = list(map(int, body.split()))
        granules, classes = numbers[0::2], numbers[1::2]
        if (
            1 <= min(granules, default=1)
            and max(granules, default=0) <= n_granules
            and 1 <= min(classes, default=1)
            and max(classes, default=0) <= n_classes
            and len(set(granules)) == len(granules)
        ):
            assigned = dict(zip(granules, classes))
    if assigned is None:
        # line by line, each line's rules in order, to name the first fault
        assigned = {}
        for lineno, fields in enumerate(map(str.split, body.split("\n")), start=1):
            if not fields:
                continue
            if len(fields) != 2:
                fault = f"expected two fields, got {len(fields)}"
            elif not all(re.fullmatch(_INDEX, field) for field in fields):
                fault = "indices must be integers"
            else:
                (granule, granule_text), (cls, cls_text) = map(_index, fields)
                if not 1 <= granule <= n_granules:
                    fault = f"granule index {granule_text} out of range 1..{n_granules}"
                elif not 1 <= cls <= n_classes:
                    fault = f"class index {cls_text} out of range 1..{n_classes}"
                elif granule in assigned:
                    fault = f"granule {granule} assigned twice"
                else:
                    assigned[granule] = cls
                    continue
            raise ClassifierFileError(f"line {lineno}: {fault}")
    missing = list(filterfalse(assigned.__contains__, range(1, n_granules + 1)))
    if missing:
        raise ClassifierFileError(f"no assignment for granule(s) {_listed(missing)}")
    return RoughClassifier(
        tuple(map(assigned.__getitem__, range(1, n_granules + 1))), n_classes
    )


def _index(field: str) -> tuple[int, str]:
    """The value of a `-?[0-9]+` field and its text in a message.

    The text is str(value), cut after _DIGITS characters and then counted.
    A value with more digits than int() converts under the interpreter's
    limit (sys.get_int_max_str_digits()) lies beyond every 1..n range, so
    it reads as 0, which is out of range too.
    """
    digits = field.lstrip("-").lstrip("0") or "0"
    text = "-" + digits if field[0] == "-" and digits != "0" else digits
    shown = text if len(text) <= _DIGITS else f"{text[:_DIGITS]}... ({len(digits)} digits)"
    try:
        return int(text), shown
    except ValueError:
        return 0, shown
