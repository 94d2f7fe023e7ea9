"""Granule-level classifiers, the overlap rule, and the maximal row classifier.

A rough classifier is a total map from granules to decision classes. It
cannot distinguish objects inside a granule, so it predicts one class for
the whole block. The overlap rule demands that every granule intersect the
class it is mapped to, i.e. at least one member of the granule is
classified correctly. The maximal row classifier picks, for each granule,
a class with the highest frequency count; it satisfies the overlap rule by
construction and maximizes the success ratio among all rough classifiers.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count, filterfalse, repeat
from operator import eq, itemgetter, not_

from .errors import ClassifierFileError, _listed
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
    random policy consumes one draw per row from random.Random(seed), so a
    (matrix, policy, seed) triple always produces the same classifier.
    Any other `tie_break` raises ValueError.
    """
    tie_break = TieBreak(tie_break)
    k = gfm.k
    if tie_break is TieBreak.LOWEST:
        assignment = [row.index(max(row)) + 1 for row in gfm.cells]
    elif tie_break is TieBreak.HIGHEST:
        assignment = [k - row[::-1].index(max(row)) for row in gfm.cells]
    else:
        rng = random.Random(seed)
        assignment = []
        for row in gfm.cells:
            top = max(row)
            candidates = [j for j, count in enumerate(row, start=1) if count == top]
            assignment.append(rng.choice(candidates))
    return RoughClassifier(tuple(assignment), k)


def is_row_maximal(f: RoughClassifier, gfm: GranuleFrequencyMatrix) -> bool:
    """True iff `f` picks a maximal cell in every frequency row.

    Any classifier with this property behaves like a maximal row
    classifier under some tie-break, which is exactly the precondition of
    the sharper confusion-matrix bounds.
    """
    _require_shapes(f, gfm)
    return all(
        row[cls - 1] == max(row) for row, cls in zip(gfm.cells, f.assignment)
    )


def success_ratio(cm: RoughConfusionMatrix) -> Fraction:
    """Fraction of objects whose predicted class equals their true class."""
    return Fraction(sum(cm.diagonal), cm.total)


def classifier_to_text(f: RoughClassifier) -> str:
    """Render the mapping-file form: one `granule_index class_index` per line."""
    lines = ["# granule_index class_index"]
    lines += [f"{i} {cls}" for i, cls in enumerate(f.assignment, start=1)]
    return "\n".join(lines) + "\n"


_COMMENT = re.compile("#[^\n]*")
_MAX_DIGITS = 4300  # int() refuses longer digit strings by default
_INDEX = rf"-?[0-9]{{1,{_MAX_DIGITS}}}"
_INDEX_PAIR = re.compile(rf"{_INDEX} {_INDEX}")
# A line that is neither blank nor two indices apart; spacing other than
# ASCII space, tab and CR also matches, and is then judged line by line.
_ODD_LINE = re.compile(
    rf"^(?![ \t\r]*(?:{_INDEX}[ \t\r]+{_INDEX}[ \t\r]*)?$)", re.MULTILINE
)


def _first_fault(flags: Iterable[object]) -> int | None:
    """Index of the first falsy flag, None if there is none."""
    return next(compress(count(), map(not_, flags)), None)


def classifier_from_text(text: str, n_granules: int, n_classes: int) -> RoughClassifier:
    """Parse a mapping file; `#` starts a comment, blank lines are ignored.

    Lines end at `\\n` (a `\\r` before it is whitespace), indices are ASCII
    decimal integers, and the file must assign every granule 1..n_granules
    exactly once to a class in 1..n_classes. An error names the first
    faulty line and the first rule it breaks.
    """
    body = _COMMENT.sub("", text)
    # Each rule is tested on the whole file at once and line by line only
    # where that test fails, on the lines before the first fault found so
    # far; rules run in the order a line-by-line reader checks them, so the
    # fault left standing is the first faulty line's first broken rule.
    fault = None
    if _ODD_LINE.search(body) is None:
        tokens = body.split()
    else:
        rows = list(filter(None, map(str.split, body.split("\n"))))
        at = _first_fault(map(eq, map(len, rows), repeat(2)))
        if at is not None:
            fault = f"expected two fields, got {len(rows[at])}"
            del rows[at:]
        at = _first_fault(map(_INDEX_PAIR.fullmatch, map(" ".join, rows)))
        if at is not None:
            fault = "indices must be integers"
            del rows[at:]
        tokens = list(chain.from_iterable(rows))
    numbers = list(map(int, tokens))
    granules, classes = numbers[0::2], numbers[1::2]
    for name, values, size in (
        ("granule", granules, n_granules),
        ("class", classes, n_classes),
    ):
        if not (1 <= min(values, default=1) and max(values, default=0) <= size):
            at = _first_fault(map(range(1, size + 1).__contains__, values))
            fault = f"{name} index {values[at]} out of range 1..{size}"
            del granules[at:], classes[at:]
    if len(set(granules)) < len(granules):
        # setdefault hands back the row a granule first appeared in
        at = _first_fault(map(eq, map({}.setdefault, granules, count()), count()))
        fault = f"granule {granules[at]} assigned twice"
        del granules[at:], classes[at:]
    if fault is not None:
        fields = map(str.split, body.split("\n"))
        lineno = list(compress(count(1), fields))[len(granules)]
        raise ClassifierFileError(f"line {lineno}: {fault}")
    assigned = dict(zip(granules, classes))
    missing = list(filterfalse(assigned.__contains__, range(1, n_granules + 1)))
    if missing:
        raise ClassifierFileError(f"no assignment for granule(s) {_listed(missing)}")
    return RoughClassifier(
        tuple(map(assigned.__getitem__, range(1, n_granules + 1))), n_classes
    )
