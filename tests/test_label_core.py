"""The columnar label core against the grouping it replaced.

A decision system keeps each attribute as a column aligned with its ids in
ascending order, and partitions and the gfm are built from integer labels.
The reference below is the earlier route, kept here only as the judge: one
dict of id lists per key (`setdefault`), blocks sorted by their smallest
member, the object-to-block map read off the sorted blocks, and the gfm
counted one object at a time. Ingested tables expose their columns through
read-only views, which must answer exactly as the per-column dicts did.
"""

from __future__ import annotations

import csv
import tempfile
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    DecisionSystem,
    GeneratorConfig,
    decision_partition,
    granule_frequency_matrix,
    partition_by_attributes,
    random_decision_system,
)
from roughcm.cli import ingest_csv

from conftest import TV_HEADER, TV_ROWS, build_system


def _reference_partition(ids, keys):
    groups: dict[object, list[int]] = {}
    for x, key in zip(ids, keys):
        groups.setdefault(key, []).append(x)
    blocks = tuple(sorted(map(frozenset, groups.values()), key=min))
    index = {x: i for i, block in enumerate(blocks) for x in block}
    return blocks, index


def _reference_gfm(granules, decisions):
    (blocks, index), (classes, class_of) = granules, decisions
    cells = [[0] * len(classes) for _ in blocks]
    for x, i in index.items():
        cells[i][class_of[x]] += 1
    return tuple(map(tuple, cells))


def _reference(ds, names):
    ids = ds.object_ids
    columns = [
        [a.values[x] for x in ids] for a in ds.condition_attributes if a.name in names
    ]
    granules = _reference_partition(ids, zip(*columns))
    decisions = _reference_partition(
        ids, [ds.decision_attribute.values[x] for x in ids]
    )
    return granules, decisions, _reference_gfm(granules, decisions)


def _assert_matches_reference(ds, names):
    granules = partition_by_attributes(ds, names)
    decisions = decision_partition(ds)
    gfm = granule_frequency_matrix(granules, decisions)
    (blocks, index), (classes, class_of), cells = _reference(ds, names)
    assert granules.blocks == blocks
    assert decisions.blocks == classes
    assert dict(granules.block_index) == index
    assert dict(decisions.block_index) == class_of
    assert gfm.cells == cells
    return granules, decisions, gfm


@st.composite
def hand_built_systems(draw):
    """Distinct int ids in drawn order, negatives included, dict attributes
    over few tokens, a decision with at least two values, and a subset."""
    ids = draw(
        st.lists(
            st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70)),
            min_size=2,
            max_size=30,
            unique=True,
        )
    )
    n_attributes = draw(st.integers(1, 4))
    tokens = st.sampled_from(["a", "b", "c", "1", "01"])
    column = st.lists(tokens, min_size=len(ids), max_size=len(ids))
    conditions = tuple(
        Attribute(f"q{a}", dict(zip(ids, draw(column)))) for a in range(n_attributes)
    )
    decisions = st.sampled_from(["yes", "no", "maybe"])
    decided = draw(
        st.lists(decisions, min_size=len(ids), max_size=len(ids)).filter(
            lambda column: len(set(column)) >= 2
        )
    )
    ds = DecisionSystem(tuple(ids), conditions, Attribute("d", dict(zip(ids, decided))))
    names = draw(
        st.lists(st.sampled_from(ds.condition_names), min_size=1, unique=True)
    )
    return ds, tuple(names)


class TestAgainstTheReference:
    @given(hand_built_systems())
    def test_partitions_and_gfm_equal_the_reference(self, case):
        ds, names = case
        _assert_matches_reference(ds, names)

    @given(hand_built_systems())
    def test_id_order_changes_nothing(self, case):
        ds, names = case
        flipped = DecisionSystem(
            tuple(reversed(ds.object_ids)),
            ds.condition_attributes,
            ds.decision_attribute,
        )
        assert partition_by_attributes(flipped, names) == partition_by_attributes(
            ds, names
        )
        assert decision_partition(flipped) == decision_partition(ds)

    @given(st.integers(0, 2**64 - 1), st.integers(2, 40), st.integers(1, 5))
    def test_generated_systems_equal_their_dict_copies(self, seed, n, values):
        ds = random_decision_system(GeneratorConfig(n, 3, values, 2, seed))
        copy = DecisionSystem(
            ds.object_ids,
            tuple(Attribute(a.name, dict(a.values)) for a in ds.condition_attributes),
            Attribute("d", dict(ds.decision_attribute.values)),
        )
        for names in (("a1",), ("a2", "a3"), ds.condition_names):
            _assert_matches_reference(ds, names)
            assert partition_by_attributes(ds, names) == partition_by_attributes(
                copy, names
            )
        assert decision_partition(ds) == decision_partition(copy)


def _write_table(directory: Path, header, rows) -> Path:
    path = directory / "table.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
    return path


@st.composite
def tables(draw):
    width = draw(st.integers(2, 5))
    header = [f"c{p}" for p in range(width)]
    # commas, quotes and spaces make the writer quote, so the reader unquotes
    token = st.sampled_from(["x", "y", "z z", "a,b", '"q"', "1", "1.0"])
    row = st.lists(token, min_size=width, max_size=width)
    rows = draw(
        st.lists(row, min_size=2, max_size=25).filter(
            lambda rows: len({row[-1] for row in rows}) >= 2
        )
    )
    names = draw(st.lists(st.sampled_from(header[:-1]), min_size=1, unique=True))
    return header, rows, tuple(names)


class TestIngest:
    @given(tables())
    def test_ingest_gives_the_partitions_of_the_dict_built_table(self, table):
        header, rows, names = table
        with tempfile.TemporaryDirectory() as directory:
            ingested = ingest_csv(_write_table(Path(directory), header, rows))
        built = build_system(header, [tuple(row) for row in rows])
        assert ingested == built
        granules, decisions, gfm = _assert_matches_reference(ingested, names)
        assert granules == partition_by_attributes(built, names)
        assert decisions == decision_partition(built)
        assert gfm == granule_frequency_matrix(
            partition_by_attributes(built, names), decision_partition(built)
        )

    def test_equal_tokens_share_one_string(self, tv_csv):
        ds = ingest_csv(tv_csv)
        column = [ds.condition_attributes[2].values[x] for x in ds.object_ids]
        assert column.count("Stereo") == 5
        assert all(token is column[0] for token in column if token == "Stereo")


# Keys a lookup can be handed: ids in and out of range, a string id, and
# keys that hash and compare equal to an id.
PROBES = [1, 6, 0, 7, -1, "1", True, False, 1.0, 6.0, 2.5, None, (1,)]


@pytest.fixture
def views(tv_csv):
    """Each ingested column's view, with the dict the table gives it."""
    ds = ingest_csv(tv_csv)
    attributes = (*ds.condition_attributes, ds.decision_attribute)
    columns = dict(zip(TV_HEADER, zip(*TV_ROWS)))
    return [
        (a.values, dict(zip(range(1, 7), columns[a.name]))) for a in attributes
    ]


class TestColumnViews:
    def test_views_equal_the_dicts(self, views):
        for values, expected in views:
            assert isinstance(values, Mapping)
            assert values == expected and expected == values
            assert not values != expected
            assert values != {**expected, 1: "other"}
            assert values != list(expected)
            assert len(values) == len(expected) == 6
            assert list(values) == list(expected)
            assert list(values.keys()) == list(expected.keys())
            assert list(values.values()) == list(expected.values())
            assert list(values.items()) == list(expected.items())
            assert values.keys() == expected.keys() == frozenset(range(1, 7))
            assert repr(values) == repr(expected)

    @pytest.mark.parametrize("key", PROBES, ids=repr)
    def test_lookups_answer_as_the_dict_does(self, views, key):
        for values, expected in views:
            assert (key in values) == (key in expected)
            assert values.get(key) == expected.get(key)
            assert values.get(key, "none") == expected.get(key, "none")
            if key in expected:
                assert values[key] == expected[key]
            else:
                with pytest.raises(KeyError) as raised:
                    values[key]
                assert raised.value.args == (key,)

    def test_unhashable_keys_raise_as_the_dict_does(self, views):
        for values, _ in views:
            with pytest.raises(TypeError):
                [] in values
            with pytest.raises(TypeError):
                values.get([])

    def test_views_are_read_only_and_unhashable(self, views):
        for values, _ in views:
            with pytest.raises(TypeError):
                values[1] = "x"
            with pytest.raises(TypeError):
                hash(values)
