"""The object-to-block map a partition builds on first read, and the routes
checked against it.

`Partition.block_index` sends each object to the 0-based index of its block
in canonical order. Only the per-element oracles, `oracle_lower` and
`oracle_upper`, read it; `lower_approximation`/`upper_approximation` do
not, so comparing them with the oracles compares two routes.

A partition stores each block once, as the ascending tuple of its members
(`_members`), and builds `blocks`, the frozensets, only when it is read;
the public surface is pinned here, and the analysis and both writers are
checked never to build them.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Partition,
    analyze_decision_system,
    approximation_summary,
    deterministic_region,
    granule_frequency_matrix,
    lower_approximation,
    oracle_lower,
    oracle_upper,
    random_overlap_classifier,
    render_text,
    report_from_dict,
    report_to_json,
    upper_approximation,
)
from roughcm.cli import ingest_csv


@st.composite
def sparse_blocks(draw):
    """Disjoint nonempty blocks over arbitrary distinct ints, in drawn order."""
    ids = draw(
        st.lists(
            st.one_of(st.integers(-(2**40), 2**40), st.integers(2**31, 2**64)),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    labels = draw(st.lists(st.integers(0, 7), min_size=len(ids), max_size=len(ids)))
    groups: dict[int, list[int]] = {}
    for x, label in zip(ids, labels):
        groups.setdefault(label, []).append(x)
    return [frozenset(group) for group in groups.values()]


class TestBlockIndex:
    @given(sparse_blocks())
    def test_every_object_sits_in_the_block_it_is_mapped_to(self, blocks):
        p = Partition(tuple(blocks))
        assert all(x in p.blocks[i] for x, i in p.block_index.items())
        assert p.block_index.keys() == frozenset().union(*blocks) == p.universe

    @given(sparse_blocks(), st.randoms(use_true_random=False))
    def test_input_order_changes_neither_equality_nor_hash(self, blocks, rng):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        p, q = Partition(tuple(blocks)), Partition(tuple(shuffled))
        assert p == q
        assert hash(p) == hash(q)
        assert p.block_index == q.block_index

    @given(sparse_blocks())
    def test_repr_omits_the_map(self, blocks):
        p = Partition(tuple(blocks))
        assert "block_index" not in repr(p)
        assert repr(p) == f"Partition(blocks={p.blocks!r})"

    def test_indices_follow_the_canonical_order(self):
        p = Partition((frozenset({9, 4}), frozenset({-3}), frozenset({5, 7})))
        assert p.blocks == (frozenset({-3}), frozenset({4, 9}), frozenset({5, 7}))
        assert dict(p.block_index) == {-3: 0, 4: 1, 9: 1, 5: 2, 7: 2}


@st.composite
def labelled_ids(draw):
    """Ascending distinct ids and one key per id, for `Partition._from_labels`."""
    ids = draw(st.lists(st.integers(-(2**40), 2**64), min_size=1, max_size=40, unique=True))
    keys = draw(st.lists(st.integers(0, 7), min_size=len(ids), max_size=len(ids)))
    return tuple(sorted(ids)), keys


def _blocks_of(ids, keys):
    groups: dict[int, list[int]] = {}
    for x, key in zip(ids, keys):
        groups.setdefault(key, []).append(x)
    return [frozenset(group) for group in groups.values()]


class TestMemberTuples:
    @given(sparse_blocks(), labelled_ids())
    def test_members_are_the_blocks_in_ascending_order(self, blocks, labelled):
        for p in (Partition(tuple(blocks)), Partition._from_labels(*labelled)):
            assert p._members == tuple(tuple(sorted(b)) for b in p.blocks)
            assert all(type(block) is frozenset for block in p.blocks)
            assert len(p) == len(p._members) == len(p.blocks)

    @given(labelled_ids(), st.randoms(use_true_random=False))
    def test_labels_agree_with_the_constructor_on_shuffled_blocks(self, labelled, rng):
        p = Partition._from_labels(*labelled)
        shuffled = _blocks_of(*labelled)
        rng.shuffle(shuffled)
        q = Partition(shuffled)
        assert p == q
        assert hash(p) == hash(q)
        assert repr(p) == repr(q) == f"Partition(blocks={q.blocks!r})"
        assert p.block_index == q.block_index

    @given(sparse_blocks(), st.randoms(use_true_random=False))
    def test_repr_is_the_same_for_any_input_order(self, blocks, rng):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        assert repr(Partition(tuple(blocks))) == repr(Partition(tuple(shuffled)))

    def test_frozensets_are_built_on_first_read_and_kept(self):
        p = Partition(([9, 4, 4], (-3,), {5, 7}))
        assert "blocks" not in vars(p)
        assert p._members == ((-3,), (4, 9), (5, 7))
        assert p.blocks is p.blocks
        assert p.blocks == (frozenset({-3}), frozenset({4, 9}), frozenset({5, 7}))

    def test_instances_stay_immutable(self):
        p = Partition(({1, 2}, {3}))
        for name in ("blocks", "_members", "block_index"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, ())
        assert p._members == ((1, 2), (3,))


@pytest.mark.parametrize("kind", ["mrc", "custom"])
def test_analysis_writers_and_load_never_build_the_frozensets(tmp_path, kind):
    rng = random.Random(5)
    rows = [
        ",".join((f"v{rng.randrange(4)}", f"w{rng.randrange(3)}", f"c{rng.randrange(3)}"))
        for _ in range(300)
    ]
    path = tmp_path / "t.csv"
    path.write_text("a,b,d\n" + "\n".join(rows) + "\n", encoding="utf-8")
    ds = ingest_csv(path)
    custom = (lambda gfm: random_overlap_classifier(gfm, 11)) if kind == "custom" else None
    report = analyze_decision_system(ds, ds.condition_names, classifier=custom)
    text = report_to_json(report)
    assert render_text(report)
    assert report.classifier_kind == kind
    loaded = report_from_dict(json.loads(text))
    for p in (report.granules, report.decisions, loaded.granules, loaded.decisions):
        assert "blocks" not in vars(p)


def _medium_system(n_granules: int, seed: int) -> tuple[Partition, Partition]:
    """3,000 sparse, shuffled object ids in random granules and 4 classes."""
    rng = random.Random(seed)
    ids = rng.sample(range(-(10**6), 10**6), 3_000)
    granules: dict[int, set[int]] = {}
    classes: dict[int, set[int]] = {}
    for x in ids:
        g = rng.randrange(n_granules)
        granules.setdefault(g, set()).add(x)
        # a third of the granules are pure, so lower approximations are nonempty
        c = g % 4 if g % 3 == 0 else rng.randrange(4)
        classes.setdefault(c, set()).add(x)
    return (
        Partition(tuple(map(frozenset, granules.values()))),
        Partition(tuple(map(frozenset, classes.values()))),
    )


@pytest.mark.parametrize("n_granules", [40, 2_400], ids=["coarse", "fine"])
def test_every_route_agrees_on_a_medium_table(n_granules):
    granules, decisions = _medium_system(n_granules, seed=n_granules)
    assert len(granules.block_index) == 3_000
    summary = approximation_summary(granule_frequency_matrix(granules, decisions))
    lowers = []
    for cls, approx in zip(decisions.blocks, summary.classes):
        lower = lower_approximation(granules, cls)
        upper = upper_approximation(granules, cls)
        assert oracle_lower(granules, cls) == lower
        assert oracle_upper(granules, cls) == upper
        assert (approx.lower_size, approx.upper_size) == (len(lower), len(upper))
        lowers.append(lower)
    region = deterministic_region(granules, decisions)
    assert region == frozenset().union(*lowers)
    # both pure and mixed granules occur, so neither side is trivial
    assert region and region != granules.universe
