"""Decision systems, attribute partitions, and rough approximations."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    DecisionSystem,
    DegenerateDecisionError,
    Partition,
    UniverseMismatchError,
    UnknownAttributeError,
    decision_partition,
    deterministic_region,
    is_definable,
    lower_approximation,
    partition_by_attributes,
    upper_approximation,
)

from conftest import (
    TV_HEADER,
    TV_ROWS,
    build_system,
    partition_and_subset,
    partition_from_labels,
    partition_pairs,
    partitions,
)


def blocks(*groups):
    return tuple(frozenset(g) for g in groups)


class TestDecisionSystem:
    def test_basic_properties(self, tv_system):
        assert tv_system.n == 6
        assert tv_system.universe == frozenset(range(1, 7))
        assert tv_system.condition_names == ("Price", "Guarantee", "Sound", "Screen")
        assert tv_system.decision_attribute.name == "d"

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError, match="at least one object"):
            DecisionSystem((), (), Attribute("d", {}))

    def test_rejects_duplicate_ids(self):
        a = Attribute("a", {1: "x"})
        d = Attribute("d", {1: "x"})
        with pytest.raises(ValueError, match="unique"):
            DecisionSystem((1, 1), (a,), d)

    def test_rejects_duplicate_attribute_names(self):
        a = Attribute("a", {1: "x", 2: "y"})
        with pytest.raises(ValueError, match="names must be unique"):
            DecisionSystem((1, 2), (a,), Attribute("a", {1: "x", 2: "y"}))

    def test_rejects_partial_attribute(self):
        a = Attribute("a", {1: "x"})
        d = Attribute("d", {1: "x", 2: "y"})
        with pytest.raises(ValueError, match="'a' must map exactly"):
            DecisionSystem((1, 2), (a,), d)

    def test_rejects_constant_decision(self):
        a = Attribute("a", {1: "x", 2: "y"})
        d = Attribute("d", {1: "same", 2: "same"})
        with pytest.raises(DegenerateDecisionError):
            DecisionSystem((1, 2), (a,), d)


class TestPartition:
    def test_blocks_sorted_by_smallest_member(self):
        p = Partition(blocks({4, 5}, {2}, {1, 6}, {3}))
        assert p.blocks == blocks({1, 6}, {2}, {3}, {4, 5})
        assert len(p) == 4
        assert p.universe == frozenset(range(1, 7))

    def test_supply_order_is_irrelevant(self):
        assert Partition(blocks({2}, {1, 3})) == Partition(blocks({1, 3}, {2}))

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="at least one block"):
            Partition(())

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition(blocks({1}, set()))

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition(blocks({1, 2}, {2, 3}))

    def test_repeated_ids_inside_a_block_are_dropped(self):
        p = Partition([[4, 2, 4], [1, 1]])
        assert p == Partition(blocks({1}, {2, 4}))
        assert p.universe == frozenset({1, 2, 4})

    def test_blocks_given_as_generators(self):
        supplied = (iter(block) for block in ([3, 5], [1], [4, 2]))
        assert Partition(supplied) == Partition(blocks({1}, {2, 4}, {3, 5}))

    def test_an_unhashable_member_raises_the_set_error(self):
        with pytest.raises(TypeError, match=r"^unhashable type: 'list'$"):
            Partition([[1], [2, [3]]])

    @pytest.mark.parametrize(
        "supplied,message",
        [
            (iter(()), "at least one block"),
            ([[1, 2], [], [2, 3]], "nonempty"),
            ([[2, 3], [1, 2], []], "nonempty"),
            ([[2, 3], [1, 2]], "disjoint"),
        ],
    )
    def test_errors_keep_their_order(self, supplied, message):
        with pytest.raises(ValueError, match=message):
            Partition(supplied)


class TestAttributePartitions:
    def test_two_attributes_give_four_granules(self, tv_system):
        p = partition_by_attributes(tv_system, ("Price", "Screen"))
        assert p.blocks == blocks({1, 6}, {2}, {3}, {4, 5})

    def test_all_attributes_separate_every_object(self, tv_system):
        p = partition_by_attributes(tv_system, tv_system.condition_names)
        assert p.blocks == tuple(frozenset({x}) for x in range(1, 7))

    def test_single_attribute(self, tv_system):
        p = partition_by_attributes(tv_system, ("Price",))
        assert p.blocks == blocks({1, 6}, {2, 3}, {4, 5})

    def test_duplicate_names_collapse(self, tv_system):
        once = partition_by_attributes(tv_system, ("Price", "Screen"))
        twice = partition_by_attributes(tv_system, ("Price", "Screen", "Price"))
        assert once == twice

    def test_adding_attributes_only_splits(self, tv_system):
        coarse = partition_by_attributes(tv_system, ("Price",))
        fine = partition_by_attributes(tv_system, ("Price", "Screen"))
        for small in fine.blocks:
            assert any(small <= big for big in coarse.blocks)

    def test_tokens_compare_as_text_not_numbers(self):
        rows = (("1", "x"), ("1.0", "x"), ("01", "y"))
        ds = build_system(("a", "d"), rows)
        assert len(partition_by_attributes(ds, ("a",))) == 3

    def test_unknown_attribute(self, tv_system):
        with pytest.raises(UnknownAttributeError, match="'Bogus', 'Zed'") as info:
            partition_by_attributes(tv_system, ("Price", "Zed", "Bogus"))
        assert info.value.names == ("Bogus", "Zed")

    def test_empty_request(self, tv_system):
        with pytest.raises(ValueError, match="at least one attribute"):
            partition_by_attributes(tv_system, ())

    def test_decision_partition(self, tv_system):
        assert decision_partition(tv_system).blocks == blocks({1, 4, 5}, {2, 3, 6})


class TestApproximations:
    @pytest.fixture
    def granules(self, tv_system):
        return partition_by_attributes(tv_system, ("Price", "Screen"))

    def test_worked_lower_and_upper(self, granules):
        assert lower_approximation(granules, {1, 4, 5}) == {4, 5}
        assert upper_approximation(granules, {1, 4, 5}) == {1, 4, 5, 6}
        assert lower_approximation(granules, {2, 3, 6}) == {2, 3}
        assert upper_approximation(granules, {2, 3, 6}) == {1, 2, 3, 6}

    def test_empty_and_full_sets(self, granules):
        assert lower_approximation(granules, ()) == frozenset()
        assert upper_approximation(granules, ()) == frozenset()
        assert lower_approximation(granules, granules.universe) == granules.universe
        assert upper_approximation(granules, granules.universe) == granules.universe

    def test_foreign_members_rejected(self, granules):
        with pytest.raises(UniverseMismatchError, match="7, 9"):
            lower_approximation(granules, {1, 7, 9})
        with pytest.raises(UniverseMismatchError):
            upper_approximation(granules, {0})

    def test_foreign_ids_past_ten_are_counted_not_listed(self, granules):
        with pytest.raises(UniverseMismatchError) as raised:
            lower_approximation(granules, range(4, 100_004))
        message = str(raised.value)
        assert len(message.encode()) < 1024
        assert message == (
            "object id(s) outside the universe: "
            "7, 8, 9, 10, 11, 12, 13, 14, 15, 16 and 99987 more"
        )

    def test_ten_foreign_ids_are_all_listed(self, granules):
        with pytest.raises(UniverseMismatchError) as raised:
            upper_approximation(granules, range(7, 17))
        assert str(raised.value).endswith(": 7, 8, 9, 10, 11, 12, 13, 14, 15, 16")

    def test_definability(self, granules):
        assert is_definable(granules, {2, 3, 4, 5})
        assert is_definable(granules, {1, 6})
        assert is_definable(granules, ())
        assert not is_definable(granules, {1, 4, 5})
        assert not is_definable(granules, {1})

    def test_deterministic_region_worked(self, tv_system, granules):
        decisions = decision_partition(tv_system)
        assert deterministic_region(granules, decisions) == {2, 3, 4, 5}

    def test_deterministic_region_can_be_empty(self):
        p = Partition(blocks({1, 2}, {3, 4}))
        d = Partition(blocks({1, 3}, {2, 4}))
        assert deterministic_region(p, d) == frozenset()

    def test_deterministic_region_needs_shared_universe(self):
        p = Partition(blocks({1, 2}))
        d = Partition(blocks({1}, {2}, {3}))
        with pytest.raises(UniverseMismatchError):
            deterministic_region(p, d)


class TestApproximationProperties:
    @given(data=partition_and_subset())
    def test_lower_inside_target_inside_upper(self, data):
        p, members = data
        low = lower_approximation(p, members)
        upp = upper_approximation(p, members)
        assert low <= members <= upp

    @given(data=partition_and_subset())
    def test_approximations_are_definable(self, data):
        p, members = data
        assert is_definable(p, lower_approximation(p, members))
        assert is_definable(p, upper_approximation(p, members))

    @given(data=partition_and_subset())
    def test_duality(self, data):
        p, members = data
        complement = p.universe - members
        assert upper_approximation(p, members) == p.universe - lower_approximation(
            p, complement
        )

    @given(data=partition_and_subset(), extra=st.data())
    def test_monotone_in_the_set(self, data, extra):
        p, larger = data
        if larger:
            smaller = extra.draw(st.sets(st.sampled_from(sorted(larger))))
        else:
            smaller = frozenset()
        assert lower_approximation(p, smaller) <= lower_approximation(p, larger)
        assert upper_approximation(p, smaller) <= upper_approximation(p, larger)

    @given(
        n=st.integers(2, 15),
        seed_labels=st.data(),
    )
    def test_refining_the_partition_tightens_both_bounds(self, n, seed_labels):
        coarse_labels = seed_labels.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
        extra = seed_labels.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        members = seed_labels.draw(st.sets(st.integers(1, n)))
        coarse = partition_from_labels(coarse_labels)
        fine = partition_from_labels(list(zip(coarse_labels, extra)))
        assert lower_approximation(coarse, members) <= lower_approximation(fine, members)
        assert upper_approximation(fine, members) <= upper_approximation(coarse, members)

    @given(pair=partition_pairs())
    def test_deterministic_region_is_union_of_lower_approximations(self, pair):
        p, d = pair
        union = frozenset().union(
            *(lower_approximation(p, cls) for cls in d.blocks)
        )
        assert deterministic_region(p, d) == union

    @given(p=partitions())
    def test_blocks_are_their_own_approximations(self, p):
        for block in p.blocks:
            assert lower_approximation(p, block) == block
            assert upper_approximation(p, block) == block
