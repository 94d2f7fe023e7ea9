"""Granule frequency matrices and rough confusion matrices.

The granule frequency matrix cross-classifies a granule partition against
the decision classes: cell (i, j) counts the members of granule i lying in
decision class j. A rough classifier assigns every granule to one class;
its confusion matrix aggregates the frequency rows by assigned class, so
cell (i, j) counts objects predicted to be class i whose true class is j.
Classes that no granule is mapped to keep an all-zero row, and rows are
emitted in class order. Column sums therefore always equal the decision
class sizes, whatever the classifier does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from .core import ObjectSet, Partition, _require_same_universe
from .errors import ShapeMismatchError

if TYPE_CHECKING:
    from .classifiers import RoughClassifier

__all__ = [
    "GranuleFrequencyMatrix",
    "RoughConfusionMatrix",
    "granule_frequency_matrix",
    "predictor_set",
    "confusion_matrix",
]


@dataclass(frozen=True)
class GranuleFrequencyMatrix:
    """Cross-classification counts of granules (rows) by decision classes.

    Row sums equal granule sizes and column sums equal class sizes; both
    are checked on construction, so a value of this type is always a
    faithful contingency table of its two partitions, and its margins are
    read off the partitions.
    """

    cells: tuple[tuple[int, ...], ...]
    granules: Partition
    decisions: Partition

    def __post_init__(self) -> None:
        cells = tuple(map(tuple, self.cells))
        object.__setattr__(self, "cells", cells)
        _require_same_universe(self.granules, self.decisions)
        m, k = len(self.granules.blocks), len(self.decisions.blocks)
        if len(cells) != m or set(map(len, cells)) != {k}:
            raise ShapeMismatchError(f"expected a {m}x{k} count matrix")
        if min(map(min, cells)) < 0:
            raise ValueError("counts must be non-negative")
        if tuple(map(sum, cells)) != self.granule_sizes:
            raise ValueError("row sums must equal granule sizes")
        column_sums = (sum(map(itemgetter(j), cells)) for j in range(k))
        if tuple(column_sums) != self.class_sizes:
            raise ValueError("column sums must equal decision class sizes")

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return len(self.decisions.blocks)

    @property
    def granule_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.granules.blocks))

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.decisions.blocks))

    @property
    def total(self) -> int:
        return len(self.granules.block_index)


@dataclass(frozen=True)
class RoughConfusionMatrix:
    """Square count matrix: rows are predicted classes, columns true classes."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        k = len(cells)
        if k < 2:
            raise ShapeMismatchError("a confusion matrix needs at least two classes")
        if any(len(row) != k for row in cells):
            raise ShapeMismatchError("confusion matrix must be square")
        if any(c < 0 for row in cells for c in row):
            raise ValueError("counts must be non-negative")
        if all(c == 0 for row in cells for c in row):
            raise ValueError("a confusion matrix must count at least one object")

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.cells) for j in range(self.k))

    @property
    def total(self) -> int:
        return sum(self.row_sums)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.cells[i][i] for i in range(self.k))


def granule_frequency_matrix(
    granules: Partition, decisions: Partition
) -> GranuleFrequencyMatrix:
    """Count, for every granule, how many members fall in each class.

    One counting pass: every granule tallies its members by the class
    index the decision partition maps them to. The universes are compared
    first, so a granule member without a class is refused, not looked up.
    """
    _require_same_universe(granules, decisions)
    class_of = decisions.block_index
    cells = []
    for block in granules.blocks:
        row = [0] * len(decisions.blocks)
        for x in block:
            row[class_of[x]] += 1
        cells.append(tuple(row))
    return GranuleFrequencyMatrix(tuple(cells), granules, decisions)


def _require_shapes(f: RoughClassifier, gfm: GranuleFrequencyMatrix) -> None:
    if len(f.assignment) != gfm.m:
        raise ShapeMismatchError(
            f"classifier assigns {len(f.assignment)} granules, matrix has {gfm.m}"
        )
    if f.n_classes != gfm.k:
        raise ShapeMismatchError(
            f"classifier uses {f.n_classes} classes, matrix has {gfm.k}"
        )


def predictor_set(
    f: RoughClassifier, class_index: int, granules: Partition
) -> ObjectSet:
    """Union of the granules that `f` maps to the given class (1-based).

    The predictor set is this classifier's stand-in for the class: every
    object inside it receives that prediction.
    """
    if len(f.assignment) != len(granules.blocks):
        raise ShapeMismatchError(
            f"classifier assigns {len(f.assignment)} granules, "
            f"partition has {len(granules.blocks)}"
        )
    if not 1 <= class_index <= f.n_classes:
        raise IndexError(f"class index {class_index} out of range 1..{f.n_classes}")
    picked = [
        block
        for block, cls in zip(granules.blocks, f.assignment)
        if cls == class_index
    ]
    return frozenset().union(*picked)


def confusion_matrix(
    gfm: GranuleFrequencyMatrix, f: RoughClassifier
) -> RoughConfusionMatrix:
    """Aggregate the granule frequency rows by the class `f` assigns them.

    Row i of the result is the sum of the frequency rows of all granules
    mapped to class i; classes with an empty preimage keep an all-zero
    row. Because every granule row lands in exactly one result row, the
    column margins remain the decision class sizes.
    """
    _require_shapes(f, gfm)
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(gfm.k)]
    for source, cls in zip(gfm.cells, f.assignment):
        groups[cls - 1].append(source)
    return RoughConfusionMatrix(
        tuple(
            tuple(sum(map(itemgetter(j), group)) for j in range(gfm.k))
            for group in groups
        )
    )
