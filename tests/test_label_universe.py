"""Partition labels kept beside the ascending universe, and the id checks.

A `Partition` keeps its universe as an ascending tuple (`_ids`) and each
object's 0-based block index aligned with it (`_labels`); the gfm, the
universe comparison and `deterministic_region` read those two sequences.
`block_index`, the id-keyed map, is built from them the first time it is
read: the per-element oracles read it, and nothing on the analysis path
does, the verifier and the range check of the public approximations
included, so an analysis, its writers, a load and a fuzz trial build
neither map. A decision system checks that its ids are unique by their
order, without a set, and keeps ids that already ascend as its own
ascending universe.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    DecisionSystem,
    Partition,
    UniverseMismatchError,
    analyze_decision_system,
    decision_partition,
    deterministic_region,
    granule_frequency_matrix,
    is_definable,
    lower_approximation,
    oracle,
    partition_by_attributes,
    random_overlap_classifier,
    render_text,
    report_from_dict,
    report_to_json,
    run_fuzz_trials,
    upper_approximation,
)
from roughcm.cli import ingest_csv

from conftest import TV_HEADER, TV_ROWS, build_system


def _system(ids):
    """Two alternating condition tokens and two alternating classes."""
    a = Attribute("a", {x: f"v{i % 2}" for i, x in enumerate(ids)})
    d = Attribute("d", {x: f"c{i % 2}" for i, x in enumerate(ids)})
    return DecisionSystem(tuple(ids), (a,), d)


class TestObjectIds:
    @pytest.mark.parametrize(
        "ids",
        [
            pytest.param((1, 2, 2, 3), id="ascending"),
            pytest.param((5, 7, 9, 9), id="ascending-at-end"),
            pytest.param((3, 1, 2, 1), id="shuffled"),
            pytest.param((9, -4, 9), id="shuffled-at-ends"),
            pytest.param((1, True), id="1-then-True"),
            pytest.param((True, 1), id="True-then-1"),
            pytest.param((2, True, 0, 1), id="True-among-others"),
        ],
    )
    def test_duplicate_ids_are_refused(self, ids):
        a = Attribute("a", dict.fromkeys(ids, "x"))
        d = Attribute("d", dict.fromkeys(ids, "y"))
        with pytest.raises(ValueError, match=r"^object ids must be unique$"):
            DecisionSystem(ids, (a,), d)

    @pytest.mark.parametrize(
        "ids,names",
        [
            pytest.param((1.0, 2.0, 3.0), "float", id="floats"),
            pytest.param(("a", "b", "c"), "str", id="strs"),
            pytest.param((False, True, 2), "bool", id="bools"),
            pytest.param((2, 0.5, False), "bool or float", id="mixed"),
            # these do not sort: refused before the uniqueness check sorts them
            pytest.param((3, 2.5, "x"), "float or str", id="unsortable"),
        ],
    )
    def test_ids_that_are_not_ints_are_refused(self, ids, names):
        # a report of such ids could not be saved, or saved but not loaded
        a = Attribute("a", dict.fromkeys(ids, "x"))
        d = Attribute("d", dict(zip(ids, "yzy")))
        with pytest.raises(TypeError, match=rf"^object ids must be int, not {names}$"):
            DecisionSystem(ids, (a,), d)

    def test_duplicate_ids_are_reported_before_duplicate_names(self):
        a = Attribute("a", {1: "x", 2: "y"})
        with pytest.raises(ValueError, match=r"^object ids must be unique$"):
            DecisionSystem((2, 1, 2), (a,), Attribute("a", {1: "x", 2: "y"}))

    def test_ascending_ids_are_kept_as_the_universe(self):
        ids = (-5, 0, 3, 10**20)
        ds = _system(ids)
        assert ds._ids is ds.object_ids
        for p in (partition_by_attributes(ds, ["a"]), decision_partition(ds)):
            assert p._ids is ds.object_ids

    def test_shuffled_ids_are_sorted_once_and_columns_follow(self):
        ids = (10, -3, 7, 0)
        ds = _system(ids)
        assert ds.object_ids == ids
        assert ds._ids == (-3, 0, 7, 10)
        assert ds._columns["a"] == ("v1", "v1", "v0", "v0")
        assert ds.universe == frozenset(ids)

    def test_an_ingested_table_shares_one_id_tuple(self, tv_csv):
        ds = ingest_csv(tv_csv)
        columns = (*ds.condition_attributes, ds.decision_attribute)
        assert all(a.values.ids is ds._ids for a in columns)
        assert ds._ids is ds.object_ids


@st.composite
def sparse_blocks(draw):
    """Disjoint nonempty blocks over arbitrary distinct ints, in drawn order."""
    ids = draw(st.lists(st.integers(-(2**40), 2**64), min_size=1, max_size=40, unique=True))
    labels = draw(st.lists(st.integers(0, 7), min_size=len(ids), max_size=len(ids)))
    groups: dict[int, list[int]] = {}
    for x, label in zip(ids, labels):
        groups.setdefault(label, []).append(x)
    return list(groups.values())


@st.composite
def labelled_ids(draw):
    """Ascending distinct ids and one key per id, for `Partition._from_labels`."""
    ids = draw(st.lists(st.integers(-(2**40), 2**64), min_size=1, max_size=40, unique=True))
    keys = draw(st.lists(st.integers(0, 7), min_size=len(ids), max_size=len(ids)))
    return tuple(sorted(ids)), keys


def _check_labels(p):
    assert "block_index" not in vars(p)
    index = p.block_index
    assert "block_index" in vars(p)
    assert p.block_index is index
    assert dict(zip(p._ids, p._labels)) == index
    assert all(map(int.__lt__, p._ids, p._ids[1:]))
    assert len(p._labels) == len(p._ids) == sum(map(len, p._members))
    assert all(x in p._members[i] for x, i in index.items())


class TestLabels:
    @given(sparse_blocks())
    def test_constructor_labels_are_the_map(self, blocks):
        _check_labels(Partition(blocks))

    @given(labelled_ids())
    def test_built_labels_are_the_map(self, labelled):
        ids, keys = labelled
        p = Partition._from_labels(ids, keys)
        assert p._ids is ids
        _check_labels(p)

    @given(labelled_ids())
    def test_both_routes_give_equal_universes_and_labels(self, labelled):
        p = Partition._from_labels(*labelled)
        groups: dict[int, list[int]] = {}
        for x, key in zip(*labelled):
            groups.setdefault(key, []).append(x)
        q = Partition(reversed(list(groups.values())))
        assert p == q
        assert (p._ids, list(p._labels)) == (q._ids, list(q._labels))
        assert p.universe == q.universe == frozenset(p._ids)

    def test_gfm_and_region_read_no_map(self):
        ds = build_system(TV_HEADER, TV_ROWS)
        granules = partition_by_attributes(ds, ["Price", "Sound"])
        decisions = decision_partition(ds)
        loaded = Partition(granules._members), Partition(reversed(decisions._members))
        for g, d in ((granules, decisions), loaded):
            gfm = granule_frequency_matrix(g, d)
            assert gfm.total == 6
            assert deterministic_region(g, d) == frozenset({2, 3, 4, 5})
            assert "block_index" not in vars(g)
            assert "block_index" not in vars(d)


@pytest.mark.parametrize("kind", ["mrc", "custom"])
def test_analysis_writers_and_load_never_build_either_map(tmp_path, kind):
    rng = random.Random(9)
    rows = [
        ",".join((f"v{rng.randrange(4)}", f"w{rng.randrange(3)}", f"c{rng.randrange(3)}"))
        for _ in range(300)
    ]
    path = tmp_path / "t.csv"
    path.write_text("a,b,d\n" + "\n".join(rows) + "\n", encoding="utf-8")
    ds = ingest_csv(path)
    custom = (lambda gfm: random_overlap_classifier(gfm, 3)) if kind == "custom" else None
    report = analyze_decision_system(ds, ds.condition_names, classifier=custom)
    assert report.classifier_kind == kind
    assert report.theorems.applicable
    text = report_to_json(report)
    assert render_text(report)
    loaded = report_from_dict(json.loads(text))
    assert report_to_json(loaded) == text
    assert render_text(loaded)
    # the verifier reads the labels, so neither partition builds its map
    for analysis in (report, loaded):
        assert "block_index" not in vars(analysis.granules)
        assert "block_index" not in vars(analysis.decisions)


def test_the_public_approximations_check_ranges_without_the_map():
    ds = build_system(TV_HEADER, TV_ROWS)
    granules = partition_by_attributes(ds, ["Price", "Sound"])
    outside = r"object id\(s\) outside the universe: 0, 7$"
    for route in (lower_approximation, upper_approximation, is_definable):
        # True is hash-equal to the id 1, as a dict key would be
        route(granules, {True, 2, 3})
        with pytest.raises(UniverseMismatchError, match=outside):
            route(granules, {0, 2, 7})
    assert "block_index" not in vars(granules)


def test_a_fuzz_trial_builds_neither_map(monkeypatch):
    verified = []
    original = oracle.verify_theorems

    def verify(gfm, *args):
        report = original(gfm, *args)
        verified.append(report.applicable)
        assert "block_index" not in vars(gfm.granules)
        assert "block_index" not in vars(gfm.decisions)
        return report

    monkeypatch.setattr(oracle, "verify_theorems", verify)
    assert run_fuzz_trials(trials=20, base_seed=3).failures == 0
    assert verified == [True] * 40
