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

Saving and loading a report peak on its text and its blocks. On a fine
table of 40,000 rows (35,377 granules, 8,550,011 characters of JSON),
report_to_json peaked 2.02 times the text's length above its start while
it joined the text's parts, which keeps every part beside the joined
text, and 1.25 times once it grows one str by pieces of about 1 MiB.
1.3 lies between the two. On 20,000 shuffled ids in blocks of two,
Partition(blocks) peaked at 204 bytes per object while it kept a list of
one set per block, and at 91 with each block's set dropped once its
member tuple is made. 150 bytes per object lies between the two.

Loading a report peaks while it rebuilds the stages from the facts. On
the fine table of 20,000 rows, report_from_dict of the parsed JSON
peaked at 4,746,092 bytes (237 per object) above its start while the
load compared every row list through a generic type pass, and at
4,745,628 once the row lists were declared. 250 bytes per object lies
just above both.
"""

from __future__ import annotations

import json
import random
import tracemalloc

from conftest import build_system, random_table

from roughcm import Partition, analyze_decision_system, report_from_dict, report_to_json

BYTES_PER_OBJECT = 450
COLUMNAR_BYTES_PER_OBJECT = 220
PEAK_BYTES_PER_OBJECT = 75
SAVE_PEAK_PER_CHARACTER = 1.3
PARTITION_PEAK_BYTES_PER_OBJECT = 150
LOAD_PEAK_BYTES_PER_OBJECT = 250


def test_an_analysis_retains_at_most_450_bytes_per_object():
    header, rows = random_table(7, 20_000, 4, 20, 5)
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
    header, rows = random_table(7, 20_000, 4, 20, 5)
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
    header, rows = random_table(7, 20_000, 4, 6, 5)
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


def test_saving_a_report_peaks_at_most_1_3_times_its_text_above_its_start():
    header, rows = random_table(7, 40_000, 4, 20, 5)
    report = analyze_decision_system(build_system(header, rows), header[:-1])
    del rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(text) > 8_000_000
    limit = SAVE_PEAK_PER_CHARACTER * len(text)
    assert peak <= limit, f"{peak:,} bytes, {peak / len(text):.2f} per character"


def test_loading_a_report_peaks_at_most_250_bytes_per_object_above_its_start():
    header, rows = random_table(7, 20_000, 4, 20, 5)
    report = analyze_decision_system(build_system(header, rows), header[:-1])
    del rows
    data = json.loads(report_to_json(report))
    del report
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = report_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = loaded.n_objects
    assert n == 20_000
    limit = LOAD_PEAK_BYTES_PER_OBJECT * n
    assert peak <= limit, f"{peak:,} bytes, {peak / n:.0f} per object"


def test_a_partition_of_small_blocks_peaks_below_150_bytes_per_object():
    ids = list(range(1, 20_001))
    random.Random(3).shuffle(ids)
    blocks = [ids[i : i + 2] for i in range(0, len(ids), 2)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = Partition(blocks)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = len(ids)
    assert len(p) == n // 2
    limit = PARTITION_PEAK_BYTES_PER_OBJECT * n
    assert peak <= limit, f"{peak:,} bytes, {peak / n:.0f} per object"
