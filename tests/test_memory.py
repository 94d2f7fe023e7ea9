"""Deterministic gates on what one analysis keeps and peaks at in memory.

The analysis of a table is the peak of `roughcm analyze`, so the bytes its
report retains, counted by `tracemalloc`, are bounded per object. The
count repeats to the byte from run to run, unlike a process's RSS.

Basis of the retained bound, on a fine table (20,000 rows, 4 attributes
of 20 values, 5 classes, 18,804 granules), measured in this test:
10,635,968 bytes (532 per object) while every partition block was kept as
a frozenset, 6,989,708 bytes (349 per object) with the blocks kept as
member tuples. 450 bytes per object lies between the two.

A second gate on the same table: 6,160,402 bytes (308 per object) while
the theorem record kept one LemmaCheck per check and the frequency matrix
one tuple per row, 2,476,853 bytes (124 per object) with the checks kept
as columns and equal rows sharing one tuple. 220 bytes per object lies
between the two.

On a coarse table (20,000 rows, 4 attributes of 6 values, 5 classes,
1,296 granules) the theorem verifier sets the analysis's peak above its
start. Measured as this test measures: 1,923,500 bytes (96 per object)
while the verifier built the granules' id-keyed map and one lower
approximation per class, 1,139,558 bytes (57 per object) with the truths
read from the partitions' labels. 75 bytes per object lies between the
two.
"""

from __future__ import annotations

import random
import tracemalloc

from conftest import build_system

from roughcm import analyze_decision_system

BYTES_PER_OBJECT = 450
COLUMNAR_BYTES_PER_OBJECT = 220
PEAK_BYTES_PER_OBJECT = 75


def _table(seed, n, n_attributes, n_values, n_classes):
    """Uniform attribute tokens; three in ten attribute combinations are
    pure, the rest draw a decision per row (perfbench's generator)."""
    rng = random.Random(seed)
    header = [f"a{a}" for a in range(1, n_attributes + 1)] + ["d"]
    tokens = [f"v{v}" for v in range(1, n_values + 1)]
    labels = [f"c{c}" for c in range(1, n_classes + 1)]
    fixed = {}
    rows = []
    for _ in range(n):
        key = tuple(rng.choice(tokens) for _ in range(n_attributes))
        if key not in fixed:
            fixed[key] = rng.choice(labels) if rng.random() < 0.3 else None
        rows.append((*key, fixed[key] or rng.choice(labels)))
    return header, rows


def test_an_analysis_retains_at_most_450_bytes_per_object():
    header, rows = _table(7, 20_000, 4, 20, 5)
    ds = build_system(header, rows)
    del rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = analyze_decision_system(ds, ds.condition_names)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = report.n_objects
    assert n == 20_000
    assert retained <= BYTES_PER_OBJECT * n, f"{retained:,} bytes, {retained / n:.0f} per object"


def test_an_analysis_with_a_columnar_theorem_record_retains_at_most_220_bytes_per_object():
    header, rows = _table(7, 20_000, 4, 20, 5)
    ds = build_system(header, rows)
    del rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = analyze_decision_system(ds, ds.condition_names)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = report.n_objects
    assert n == 20_000
    limit = COLUMNAR_BYTES_PER_OBJECT * n
    assert retained <= limit, f"{retained:,} bytes, {retained / n:.0f} per object"


def test_a_coarse_analysis_peaks_at_most_75_bytes_per_object_above_its_start():
    header, rows = _table(7, 20_000, 4, 6, 5)
    ds = build_system(header, rows)
    del rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = analyze_decision_system(ds, ds.condition_names)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = report.n_objects
    assert n == 20_000
    assert peak <= PEAK_BYTES_PER_OBJECT * n, f"{peak:,} bytes, {peak / n:.0f} per object"
