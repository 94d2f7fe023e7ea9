"""The writers lay out long lists of rows with one %-template per row shape
and the gfm rows a distinct row at a time; the output must be what laying
out each row by itself gives, and a saved report must load and save again
byte for byte.

The table has the benchmark's shape in small: many granules but few
distinct gfm rows, granules of 1 to 14 members and two of 120, ids of one
to four digits, and counts wider than their column labels.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import roughcm.report as report_module
from conftest import build_system, random_table
from roughcm import (
    ReportFormatError,
    RoughClassifier,
    analyze_decision_system,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
)
from roughcm.report import _json_parts, _parts, _Rows

# gfm rows over 5 classes; the two big granules come last
POOL = [
    (1, 0, 0, 0, 0),
    (0, 0, 0, 2, 0),
    (1, 1, 0, 0, 1),
    (0, 3, 0, 0, 0),
    (2, 0, 1, 0, 3),
    (0, 0, 7, 0, 0),
    (4, 1, 0, 5, 2),
    (0, 2, 0, 0, 12),
]
BIG = [(100, 0, 0, 20, 0), (0, 0, 120, 0, 0)]


def _system(seed):
    """300 granules of pool rows and the two big ones, ids shuffled."""
    rng = random.Random(seed)
    rows = [rng.choice(POOL) for _ in range(300)] + BIG
    cells = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) for _ in range(c)]
    rng.shuffle(cells)
    return build_system(("a", "d"), [(f"g{i}", f"c{j}") for i, j in cells])


def _meeting(gfm):
    """Each granule to the last class it meets: not row-maximal."""
    return RoughClassifier(
        tuple(max(j for j, c in enumerate(row, 1) if c) for row in gfm.cells), gfm.k
    )


def _grid(prefix, margin, rows, col_sums, total):
    """A count grid laid out row by row, each line with str.format."""
    labels = [*(f"Y{j}" for j in range(1, len(col_sums) + 1)), margin]
    widths = [max(len(label), len(str(s))) for label, s in zip(labels, (*col_sums, total))]
    first = max(len(f"{prefix}{len(rows)}"), len(margin))

    def line(label, values):
        return f"  {label:<{first}}" + "".join(f"  {v:>{w}}" for v, w in zip(values, widths))

    lines = [line("", labels)]
    lines += [line(f"{prefix}{i}", (*row, sum(row))) for i, row in enumerate(rows, 1)]
    lines.append(line(margin, (*col_sums, total)))
    return "\n".join(lines)


def _reference_head(report):
    """render_text up to its quality indices, a row and an id at a time."""
    gfm, cm = report.frequency, report.confusion
    granules = "\n".join(
        f"  X{i} = {{{', '.join(map(str, block))}}}"
        for i, block in enumerate(report.granules._members, 1)
    )
    classes = "".join(
        f"\n  Y{j} = {{{', '.join(map(str, block))}}}"
        for j, block in enumerate(report.decisions._members, 1)
    )
    pairs = enumerate(report.classifier.assignment, 1)
    assignment = ", ".join(f"X{i} -> Y{c}" for i, c in pairs)
    if report.classifier_kind == "mrc":
        classifier = f"mrc (tie-break: {report.tie_break}, seed: {report.seed})"
    else:
        classifier = "custom mapping"
    return (
        f"Input: {report.source}\n"
        f"  objects: {report.n_objects}   granules: {report.n_granules}"
        f"   classes: {report.n_classes}\n"
        f"  attributes: {', '.join(report.attribute_names)}"
        f"   decision: {report.decision_name}\n"
        f"\nGranules\n{granules}\nDecision classes{classes}"
        "\n\nGranule frequency matrix\n"
        f"{_grid('X', 'size', gfm.cells, gfm.class_sizes, gfm.total)}"
        f"\n\nClassifier: {classifier}\n  assignment: {assignment}"
        "\n  overlap rule: satisfied"
        f"\n  row-maximal: {'yes' if report.row_maximal else 'no'}"
        "\n\nConfusion matrix (rows: predicted, columns: true)\n"
        f"{_grid('Y', 'sum', cm.cells, cm.col_sums, cm.total)}"
    )


@pytest.fixture(scope="module", params=[None, _meeting], ids=["mrc", "custom"])
def report(request):
    return analyze_decision_system(_system(seed=11), classifier=request.param)


def test_the_table_has_the_benchmark_shape(report):
    gfm = report.frequency
    assert gfm.m == 302 and len(gfm._distinct) == len(POOL) + len(BIG)
    sizes = set(gfm.granule_sizes)
    assert min(sizes) == 1 and max(sizes - {120}) > 10
    assert {len(str(x)) for x in report.granules._ids} == {1, 2, 3, 4}
    # every class size is wider than its two-character label
    assert min(gfm.class_sizes) >= 100


@pytest.mark.parametrize("chunk", [None, 4, 64], ids=["default", "4", "64"])
def test_the_writers_equal_a_row_by_row_layout(monkeypatch, report, chunk):
    if chunk is not None:
        monkeypatch.setattr(report_module, "_CHUNK", chunk)
    text = render_text(report)
    head, tail = text.split("\n\nQuality indices\n")
    assert head == _reference_head(report)
    assert tail.startswith("  gamma (approximation quality): ")
    as_json = report_to_json(report)
    assert as_json == json.dumps(report_to_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("chunk", [4, 64])
def test_a_json_part_of_ints_holds_at_most_a_chunk_of_them(monkeypatch, report, chunk):
    monkeypatch.setattr(report_module, "_CHUNK", chunk)
    parts = list(_json_parts(report))
    rows = [part for part in parts if re.fullmatch(r"[\d\s\[\],]*\d[\d\s\[\],]*", part)]
    # the gfm rows, the partitions, the sizes and the assignment
    assert sum(map(len, rows)) > len("".join(parts)) / 2
    assert max(len(re.findall(r"\d+", part)) for part in rows) <= chunk


# rows drawn from a pool of at most four, so they repeat; up to 7 ints a row
_repeating_rows = st.lists(
    st.tuples(*[st.integers(-(2**70), 2**70)] * 3) | st.lists(st.integers(), max_size=7).map(tuple),
    min_size=1,
    max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20))


@pytest.mark.parametrize("chunk", [1, 2, 3, 512])
@given(rows=_repeating_rows)
def test_declared_rows_are_written_as_json_dumps_writes_them(chunk, rows):
    expected = json.dumps(list(map(list, rows)), indent=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "_CHUNK", chunk)
        for value in (_Rows(rows), _Rows(iter(rows), Counter(rows)), _Rows(rows, fact=True)):
            parts = list(_parts(value, ""))
            assert "".join(parts) == expected
            assert max(len(re.findall(r"\d+", part)) for part in parts) <= chunk
        nested = {"cells": _Rows(rows, Counter(rows)), "after": 1}
        as_dict = {"cells": list(map(list, rows)), "after": 1}
        assert "".join(_parts(nested, "")) == json.dumps(as_dict, indent=2)


def _long_rows():
    """More classes than _CHUNK: each gfm row is longer than a part."""
    k = report_module._CHUNK + 8
    return analyze_decision_system(
        build_system(("a", "d"), [(f"g{i % 3}", f"c{i % k}") for i in range(2 * k + 60)])
    )


def _repeated_rows():
    """Every distinct gfm row belongs to at least two granules."""
    pool = [(1, 1, 0), (2, 0, 0), (0, 1, 3)]
    rows = [pool[i % 3] for i in range(30)]
    cells = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) for _ in range(c)]
    random.Random(5).shuffle(cells)
    table = [(f"g{i}", f"c{j}") for i, j in cells]
    report = analyze_decision_system(build_system(("a", "d"), table))
    assert min(report.frequency._distinct.values()) > 1
    return report


def _coarse():
    """Few granules, many members each, nearly all gfm rows distinct."""
    header, rows = random_table(7, 2_000, 3, 4, 3)
    return analyze_decision_system(build_system(header, rows))


@pytest.mark.parametrize("chunk", [3, None], ids=["3", "default"])
@pytest.mark.parametrize("build", [_long_rows, _repeated_rows, _coarse])
def test_a_saved_report_loads_and_saves_byte_for_byte(monkeypatch, build, chunk):
    if chunk is not None:
        monkeypatch.setattr(report_module, "_CHUNK", chunk)
    report = build()
    text = report_to_json(report)
    assert text == json.dumps(report_to_dict(report), indent=2) + "\n"
    loaded = report_from_dict(json.loads(text))
    assert loaded == report
    assert report_to_json(loaded) == text


def test_a_stored_row_that_is_not_a_json_list_is_refused(report):
    # a list subclass equals the list it holds, but a save writes a list
    data = report_to_dict(report)
    cells = data["granule_matrix"]["cells"]
    cells[0] = type("Row", (list,), {})(cells[0])
    with pytest.raises(ReportFormatError, match=r"^malformed report: granule_matrix\.cells\.0 is \["):
        report_from_dict(data)
