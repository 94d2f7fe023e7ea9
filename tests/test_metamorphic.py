"""Metamorphic properties of the indices: how they move when the table changes.

* Adding an attribute never shrinks a lower approximation and never grows
  an upper one, so gamma cannot fall.
* Merging one class into another never shrinks the lower approximation
  of their union below the two lower approximations together and never
  grows its upper one past the two upper ones, so gamma cannot fall.
* Permuting the rows, or renaming tokens consistently, changes no index.
* Duplicating every row doubles every count and keeps every ratio.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    RoughClassifier,
    analyze_decision_system,
    approximation_summary,
    decision_partition,
    granule_frequency_matrix,
    partition_by_attributes,
)

from conftest import build_system

VALUES = ("v0", "v1", "v2", "v3")
CLASSES = ("c0", "c1", "c2")


@st.composite
def tables(draw, max_rows=16):
    """(header, rows) of a decision table whose last column takes >= 2 values."""
    n_attributes = draw(st.integers(1, 4))
    header = tuple(f"a{i}" for i in range(n_attributes)) + ("d",)
    n = draw(st.integers(2, max_rows))
    row = st.tuples(*[st.sampled_from(VALUES)] * n_attributes, st.sampled_from(CLASSES))
    rows = draw(
        st.lists(row, min_size=n, max_size=n).filter(lambda rs: len({r[-1] for r in rs}) >= 2)
    )
    return header, tuple(rows)


def _summary(ds, attributes):
    granules = partition_by_attributes(ds, attributes)
    return approximation_summary(granule_frequency_matrix(granules, decision_partition(ds)))


def _most_frequent_then_smallest_token(ds):
    """A row-maximal classifier whose choice ignores row order: ties go to
    the class with the smallest decision token."""

    def build(gfm):
        token = [ds.decision_attribute.values[min(cls)] for cls in gfm.decisions.blocks]
        assignment = tuple(
            min(range(gfm.k), key=lambda j: (-row[j], token[j])) + 1 for row in gfm.cells
        )
        return RoughClassifier(assignment, gfm.k)

    return build


def _by_token(ds, report):
    tokens = [ds.decision_attribute.values[min(cls)] for cls in report.decisions.blocks]
    return {
        token: (approx, bounds)
        for token, approx, bounds in zip(
            tokens, report.approximation.classes, report.bounds.classes, strict=True
        )
    }


@given(table=tables(), data=st.data())
def test_adding_an_attribute_never_loosens_the_approximations(table, data):
    header, rows = table
    ds = build_system(header, rows)
    names = ds.condition_names
    fewer = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    extra = data.draw(st.sampled_from(names))
    coarse, fine = _summary(ds, fewer), _summary(ds, {*fewer, extra})
    for before, after in zip(coarse.classes, fine.classes, strict=True):
        assert before.size == after.size
        assert after.lower_size >= before.lower_size
        assert after.upper_size <= before.upper_size
    assert fine.gamma >= coarse.gamma


@given(table=tables().filter(lambda table: {row[-1] for row in table[1]} == set(CLASSES)))
def test_merging_two_classes_never_loosens_their_approximations(table):
    header, rows = table
    merged_rows = tuple((*row[:-1], "c0" if row[-1] == "c1" else row[-1]) for row in rows)
    ds, merged_ds = build_system(header, rows), build_system(header, merged_rows)
    apart, merged = analyze_decision_system(ds), analyze_decision_system(merged_ds)
    classes = _by_token(ds, apart)
    (c0, _), (c1, _) = classes["c0"], classes["c1"]
    union, _ = _by_token(merged_ds, merged)["c0"]
    assert union.size == c0.size + c1.size
    assert union.lower_size >= c0.lower_size + c1.lower_size
    assert union.upper_size <= c0.upper_size + c1.upper_size
    assert merged.approximation.gamma >= apart.approximation.gamma


@given(table=tables(), data=st.data())
def test_permuting_rows_changes_no_index(table, data):
    header, rows = table
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = tuple(rows[i] for i in order)
    results = []
    for table_rows in (rows, shuffled):
        ds = build_system(header, table_rows)
        report = analyze_decision_system(ds, classifier=_most_frequent_then_smallest_token(ds))
        results.append((_by_token(ds, report), report.approximation.gamma, report.success))
    assert results[0] == results[1]


@given(table=tables(), data=st.data())
def test_renaming_tokens_consistently_changes_nothing(table, data):
    header, rows = table
    renames = [
        dict(zip(alphabet, data.draw(st.permutations(alphabet))))
        for alphabet in [VALUES] * (len(header) - 1) + [CLASSES]
    ]
    renamed = tuple(
        tuple(rename[token] for rename, token in zip(renames, row, strict=True))
        for row in rows
    )
    report = analyze_decision_system(build_system(header, rows))
    assert analyze_decision_system(build_system(header, renamed)) == report


def _doubled(cells):
    return tuple(tuple(2 * c for c in row) for row in cells)


@given(table=tables())
def test_duplicating_every_row_doubles_counts_and_keeps_ratios(table):
    header, rows = table
    once = analyze_decision_system(build_system(header, rows))
    twice = analyze_decision_system(build_system(header, rows + rows))
    assert twice.frequency.cells == _doubled(once.frequency.cells)
    assert twice.confusion.cells == _doubled(once.confusion.cells)
    assert twice.approximation.gamma == once.approximation.gamma
    assert twice.success == once.success
    assert twice.alpha_hat == once.alpha_hat
    assert twice.alpha_overall == once.alpha_overall
    for a, b in zip(once.approximation.classes, twice.approximation.classes, strict=True):
        assert (a.lower_coverage, a.upper_precision, a.accuracy) == (
            b.lower_coverage,
            b.upper_precision,
            b.accuracy,
        )
