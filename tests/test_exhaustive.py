"""Bounded-exhaustive verification: every small table, not a sample.

Every granule frequency matrix with at most six objects and two to four
classes is listed up to row order: the multisets of nonzero count vectors
whose total is at most six and that leave no class empty. Each is realised
canonically (granule i gets cell (i, j) fresh object ids of class j) and
paired with every classifier that obeys the overlap rule. The verifier's
outcome does not change when objects, granules or classes are renamed
(tests/test_metamorphic.py), so this covers every decision table of that
size and every overlap-respecting classifier on it.
"""

from __future__ import annotations

from itertools import count, islice, product
from operator import itemgetter

import pytest

from roughcm import (
    Partition,
    RoughClassifier,
    confusion_bounds,
    confusion_matrix,
    exhaustive_best_classifier,
    granule_frequency_matrix,
    is_row_maximal,
    maximal_row_classifier,
    success_ratio,
    validate_overlap,
    verify_theorems,
)

MAX_OBJECTS = 6

# (frequency matrices, classifier pairs) per class count
SIZES = {2: (216, 398), 3: (671, 1_796), 4: (1_007, 3_543)}


def _multisets(vectors, budget, start=0):
    """Every multiset of vectors[start:] whose entries sum to at most budget."""
    yield ()
    for i in range(start, len(vectors)):
        size = sum(vectors[i])
        if size <= budget:
            for rest in _multisets(vectors, budget - size, i):
                yield (vectors[i], *rest)


def _realise(rows):
    ids = count(1)
    granules, classes = [], [[] for _ in rows[0]]
    for row in rows:
        block = []
        for members, cell in zip(classes, row):
            drawn = list(islice(ids, cell))
            block += drawn
            members += drawn
        granules.append(frozenset(block))
    return granule_frequency_matrix(
        Partition(tuple(granules)), Partition(tuple(map(frozenset, classes)))
    )


def _frequency_matrices(k):
    cells = product(range(MAX_OBJECTS + 1), repeat=k)
    vectors = [v for v in cells if 0 < sum(v) <= MAX_OBJECTS]
    for rows in _multisets(vectors, MAX_OBJECTS):
        if rows and all(map(any, zip(*rows))):
            yield _realise(rows)


@pytest.mark.parametrize("k", sorted(SIZES))
def test_every_small_table_and_overlap_classifier_passes(k):
    matrices = pairs = 0
    failures = []
    for gfm in _frequency_matrices(k):
        matrices += 1
        options = [[j for j, c in enumerate(row, start=1) if c] for row in gfm.cells]
        for assignment in product(*options):
            pairs += 1
            f = RoughClassifier(assignment, k)
            cm = confusion_matrix(gfm, f)
            validation = validate_overlap(f, gfm)
            bounds = confusion_bounds(cm, validation, is_row_maximal(f, gfm))
            report = verify_theorems(gfm, f, cm, bounds)
            failed = [
                f"theorem {c.theorem}, class {c.class_index}: {c.chain}"
                for c in report.bound_checks
                if not c.passed
            ] + [
                f"lemma part {c.part}, subject {c.subject}"
                for c in report.lemma_checks
                if not c.passed
            ]
            if not report.applicable or failed:
                failures.append((gfm.total, gfm.m, gfm.cells, assignment, failed))
        best = exhaustive_best_classifier(gfm)[1]
        if success_ratio(confusion_matrix(gfm, maximal_row_classifier(gfm))) != best:
            failures.append((gfm.total, gfm.m, gfm.cells, None, ["mrc below the best"]))
    smallest = min(failures, key=itemgetter(0, 1), default=None)
    assert not failures, f"{len(failures)} failures; the smallest (n, m): {smallest}"
    assert (matrices, pairs) == SIZES[k]
