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

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, eq, itemgetter, mul
from typing import TYPE_CHECKING

from .core import ObjectSet, Partition, _require_same_universe
from .errors import ShapeMismatchError, _require_types

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

    Row sums equal granule sizes and column sums equal class sizes; only
    these margins are checked on construction, so the public constructor
    accepts cells that keep every margin but not the objects (a 2x2 swap of
    counts). granule_frequency_matrix always builds the faithful table, and
    the margins are read off the partitions. The verifier reads its truths
    from the partitions' objects, never from the cells, so the estimators
    drawn from such cells are held to the objects. The constructor counts
    the distinct rows once (`_distinct`, each distinct row with the number
    of granules that have it); the count checks, the approximation summary,
    the report writers and the maximal row classifier read it. The count
    types are checked on every row object, so (1.0, 0) after (1, 0) is
    refused; granule_frequency_matrix makes equal rows one tuple, which is
    checked once.
    """

    cells: tuple[tuple[int, ...], ...]
    granules: Partition
    decisions: Partition
    _distinct: Counter[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = tuple(map(tuple, self.cells))
        object.__setattr__(self, "cells", cells)
        _require_same_universe(self.granules, self.decisions)
        m, k = len(self.granules), len(self.decisions)
        if len(cells) != m or set(map(len, cells)) != {k}:
            raise ShapeMismatchError(f"expected a {m}x{k} count matrix")
        # each distinct row, by value and in order of first occurrence, with
        # its multiplicity; the count and column-sum checks read it
        distinct = Counter(cells)
        # the types are read off each row object once, not off the distinct
        # rows: (1.0, 0) is equal to (1, 0) but not an int row
        rows = dict(zip(map(id, cells), cells)).values()
        _require_types(("counts", {int}, chain.from_iterable(rows)))
        if min(chain.from_iterable(distinct)) < 0:
            raise ValueError("counts must be non-negative")
        if not all(map(eq, map(sum, cells), map(len, self.granules._members))):
            raise ValueError("row sums must equal granule sizes")
        times = list(distinct.values())
        column_sums = (sum(map(mul, column, times)) for column in zip(*distinct))
        if not all(map(eq, column_sums, map(len, self.decisions._members))):
            raise ValueError("column sums must equal decision class sizes")
        object.__setattr__(self, "_distinct", distinct)

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return len(self.decisions)

    @property
    def granule_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.granules._members))

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.decisions._members))

    @property
    def total(self) -> int:
        return len(self.granules._ids)


@dataclass(frozen=True)
class RoughConfusionMatrix:
    """Square count matrix: rows are predicted classes, columns true classes."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(map(tuple, self.cells))
        object.__setattr__(self, "cells", cells)
        k = len(cells)
        if k < 2:
            raise ShapeMismatchError("a confusion matrix needs at least two classes")
        if set(map(len, cells)) != {k}:
            raise ShapeMismatchError("confusion matrix must be square")
        _require_types(("counts", {int}, chain.from_iterable(cells)))
        if min(map(min, cells)) < 0:
            raise ValueError("counts must be non-negative")
        if not any(map(any, cells)):
            raise ValueError("a confusion matrix must count at least one object")

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self.cells))

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.cells)))

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

    One counting pass over the objects: each object's granule label i and
    class label j, read from the two partitions' labels, name the flat
    cell i * k + j it adds to, in range even if the universes differ (the
    constructor compares them first). The cells are counted in place: a
    Counter keyed by cell takes twice the time and, on a fine table, a
    dict entry and an int per nonzero cell. Equal rows are one tuple: a
    fine table has far fewer distinct rows than granules.
    """
    k = len(decisions)
    flat = [0] * (len(granules) * k)
    for cell in map(add, map(mul, granules._labels, repeat(k)), decisions._labels):
        flat[cell] += 1
    # k consecutive cells per granule row
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    cells = tuple([shared.setdefault(row, row) for row in zip(*[iter(flat)] * k)])
    return GranuleFrequencyMatrix(cells, granules, decisions)


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
    if len(f.assignment) != len(granules):
        raise ShapeMismatchError(
            f"classifier assigns {len(f.assignment)} granules, "
            f"partition has {len(granules)}"
        )
    if not 1 <= class_index <= f.n_classes:
        raise IndexError(f"class index {class_index} out of range 1..{f.n_classes}")
    return frozenset().union(
        *(block for block, cls in zip(granules._members, f.assignment) if cls == class_index)
    )


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
