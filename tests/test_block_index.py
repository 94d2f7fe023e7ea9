"""The object-to-block map a partition builds once, and every route that reads it.

`Partition.block_index` sends each object to the 0-based index of its block
in canonical order. The gfm count, the oracle and `deterministic_region`
read it; `lower_approximation`/`upper_approximation` do not, so comparing
them with the oracle compares two routes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Partition,
    approximation_summary,
    deterministic_region,
    granule_frequency_matrix,
    lower_approximation,
    oracle_lower,
    oracle_upper,
    upper_approximation,
)


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
