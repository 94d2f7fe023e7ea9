"""Granule frequency matrices, predictor sets, and confusion matrices."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    DecisionSystem,
    GeneratorConfig,
    GranuleFrequencyMatrix,
    Partition,
    RoughClassifier,
    RoughConfusionMatrix,
    ShapeMismatchError,
    UniverseMismatchError,
    confusion_matrix,
    decision_partition,
    granule_frequency_matrix,
    maximal_row_classifier,
    partition_by_attributes,
    predictor_set,
    random_decision_system,
)

from conftest import partitions_from_counts


@pytest.fixture
def tv_parts(tv_system):
    granules = partition_by_attributes(tv_system, ("Price", "Screen"))
    decisions = decision_partition(tv_system)
    return granules, decisions


@pytest.fixture
def tv_gfm(tv_parts):
    return granule_frequency_matrix(*tv_parts)


MRC_TV = RoughClassifier((1, 2, 2, 1), 2)


class TestGranuleFrequencyMatrix:
    def test_worked_example_counts(self, tv_gfm):
        assert tv_gfm.cells == ((1, 1), (0, 1), (0, 1), (2, 0))
        assert tv_gfm.m == 4
        assert tv_gfm.k == 2
        assert tv_gfm.granule_sizes == (2, 1, 1, 2)
        assert tv_gfm.class_sizes == (3, 3)
        assert tv_gfm.total == 6

    def test_singleton_granules_give_unit_rows(self, tv_system):
        granules = partition_by_attributes(tv_system, tv_system.condition_names)
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        assert all(sorted(row) == [0, 1] for row in gfm.cells)
        assert gfm.class_sizes == (3, 3)

    def test_rejects_mismatched_universes(self):
        p = Partition((frozenset({1, 2}),))
        d = Partition((frozenset({1}), frozenset({2}), frozenset({3})))
        with pytest.raises(UniverseMismatchError):
            granule_frequency_matrix(p, d)

    def test_rejects_a_granule_member_without_a_class(self):
        p = Partition((frozenset({1, 2}), frozenset({3})))
        d = Partition((frozenset({1}), frozenset({2})))
        with pytest.raises(UniverseMismatchError):
            granule_frequency_matrix(p, d)

    def test_rejects_wrong_shape(self, tv_parts):
        granules, decisions = tv_parts
        with pytest.raises(ShapeMismatchError, match="4x2"):
            GranuleFrequencyMatrix(((1, 1), (0, 1)), granules, decisions)

    def test_rejects_wrong_row_margin(self, tv_parts):
        granules, decisions = tv_parts
        cells = ((1, 0), (0, 1), (0, 2), (2, 0))
        with pytest.raises(ValueError, match="row sums"):
            GranuleFrequencyMatrix(cells, granules, decisions)

    def test_rejects_equal_rows_of_granules_of_different_sizes(self):
        # granules {1, 2} and {3, 4, 5}, classes {1, 3, 5} and {2, 4}: the rows
        # are (1, 1) and (2, 1); given as two equal rows, separate tuples that
        # count as one distinct row, the second row's sum is not its size
        granules = Partition([[1, 2], [3, 4, 5]])
        decisions = Partition([[1, 3, 5], [2, 4]])
        cells = (tuple([1, 1]), tuple([1, 1]))
        assert cells[0] is not cells[1]
        with pytest.raises(ValueError, match="row sums"):
            GranuleFrequencyMatrix(cells, granules, decisions)

    def test_rejects_wrong_column_margin(self, tv_parts):
        granules, decisions = tv_parts
        cells = ((2, 0), (0, 1), (0, 1), (2, 0))
        with pytest.raises(ValueError, match="column sums"):
            GranuleFrequencyMatrix(cells, granules, decisions)

    def test_rejects_negative_counts(self, tv_parts):
        granules, decisions = tv_parts
        cells = ((3, -1), (0, 1), (0, 1), (2, 0))
        with pytest.raises(ValueError, match="non-negative"):
            GranuleFrequencyMatrix(cells, granules, decisions)

    def test_counts_fixture_round_trip(self):
        counts = [[1, 1, 1], [0, 5, 5], [2, 0, 1]]
        granules, decisions, gfm = partitions_from_counts(counts)
        assert gfm.granule_sizes == (3, 10, 3)
        assert gfm.class_sizes == (3, 6, 7)


class TestPredictorSet:
    def test_worked_example(self, tv_parts):
        granules, _ = tv_parts
        assert predictor_set(MRC_TV, 1, granules) == {1, 4, 5, 6}
        assert predictor_set(MRC_TV, 2, granules) == {2, 3}

    def test_sets_partition_the_universe(self, tv_parts):
        granules, _ = tv_parts
        union = predictor_set(MRC_TV, 1, granules) | predictor_set(MRC_TV, 2, granules)
        assert union == granules.universe

    def test_unassigned_class_gets_empty_set(self, tv_parts):
        granules, _ = tv_parts
        f = RoughClassifier((1, 1, 1, 1), 2)
        assert predictor_set(f, 2, granules) == frozenset()

    def test_class_index_out_of_range(self, tv_parts):
        granules, _ = tv_parts
        with pytest.raises(IndexError, match="1..2"):
            predictor_set(MRC_TV, 3, granules)
        with pytest.raises(IndexError):
            predictor_set(MRC_TV, 0, granules)

    def test_granule_count_mismatch(self, tv_parts):
        granules, _ = tv_parts
        with pytest.raises(ShapeMismatchError):
            predictor_set(RoughClassifier((1, 2), 2), 1, granules)


class TestRoughConfusionMatrix:
    def test_worked_example(self, tv_gfm):
        cm = confusion_matrix(tv_gfm, MRC_TV)
        assert cm.cells == ((3, 1), (0, 2))
        assert cm.row_sums == (4, 2)
        assert cm.col_sums == (3, 3)
        assert cm.total == 6
        assert cm.diagonal == (3, 2)

    def test_collapsing_classifier_keeps_zero_row(self, tv_gfm):
        cm = confusion_matrix(tv_gfm, RoughClassifier((1, 1, 1, 1), 2))
        assert cm.cells == ((3, 3), (0, 0))
        assert cm.col_sums == tv_gfm.class_sizes

    def test_classifier_shape_must_match(self, tv_gfm):
        with pytest.raises(ShapeMismatchError, match="granules"):
            confusion_matrix(tv_gfm, RoughClassifier((1, 2, 2), 2))
        with pytest.raises(ShapeMismatchError, match="classes"):
            confusion_matrix(tv_gfm, RoughClassifier((1, 2, 2, 3), 3))

    def test_constructor_validation(self):
        with pytest.raises(ShapeMismatchError, match="two classes"):
            RoughConfusionMatrix(((5,),))
        with pytest.raises(ShapeMismatchError, match="square"):
            RoughConfusionMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError, match="non-negative"):
            RoughConfusionMatrix(((1, -2), (0, 1)))
        with pytest.raises(ValueError, match="at least one object"):
            RoughConfusionMatrix(((0, 0), (0, 0)))


def _random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    config = GeneratorConfig(
        n_objects=n,
        n_attributes=rng.randint(1, 4),
        values_per_attribute=rng.randint(1, 4),
        n_decision_values=rng.randint(2, min(4, n)),
        seed=rng.getrandbits(64),
    )
    ds = random_decision_system(config)
    granules = partition_by_attributes(ds, ds.condition_names)
    gfm = granule_frequency_matrix(granules, decision_partition(ds))
    return rng, ds, granules, gfm


class TestStructuralInvariants:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_columns_are_class_sizes_for_any_classifier(self, seed):
        rng, ds, _, gfm = _random_instance(seed)
        assignment = tuple(rng.randint(1, gfm.k) for _ in range(gfm.m))
        cm = confusion_matrix(gfm, RoughClassifier(assignment, gfm.k))
        assert cm.col_sums == gfm.class_sizes
        assert cm.total == ds.n

    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_sums_aggregate_granule_sizes(self, seed):
        rng, _, _, gfm = _random_instance(seed)
        assignment = tuple(rng.randint(1, gfm.k) for _ in range(gfm.m))
        cm = confusion_matrix(gfm, RoughClassifier(assignment, gfm.k))
        for cls in range(1, gfm.k + 1):
            expected = sum(
                size
                for size, assigned in zip(gfm.granule_sizes, assignment)
                if assigned == cls
            )
            assert cm.row_sums[cls - 1] == expected

    @given(seed=st.integers(0, 2**32 - 1))
    def test_predictor_set_sizes_are_row_sums(self, seed):
        rng, _, granules, gfm = _random_instance(seed)
        assignment = tuple(rng.randint(1, gfm.k) for _ in range(gfm.m))
        f = RoughClassifier(assignment, gfm.k)
        cm = confusion_matrix(gfm, f)
        for cls in range(1, gfm.k + 1):
            assert len(predictor_set(f, cls, granules)) == cm.row_sums[cls - 1]


def _relabeled(ds, mapping):
    ids = tuple(mapping[x] for x in ds.object_ids)
    conditions = tuple(
        Attribute(a.name, {mapping[x]: v for x, v in a.values.items()})
        for a in ds.condition_attributes
    )
    decided = Attribute(
        ds.decision_attribute.name,
        {mapping[x]: v for x, v in ds.decision_attribute.values.items()},
    )
    return DecisionSystem(ids, conditions, decided)


@given(seed=st.integers(0, 2**32 - 1))
def test_relabeling_objects_permutes_both_matrices(seed):
    """Renaming object ids must only reorder rows/columns, never change counts."""
    rng, ds, granules, gfm = _random_instance(seed)
    targets = rng.sample(range(1, 10 * ds.n), ds.n)
    mapping = dict(zip(ds.object_ids, targets))
    other = _relabeled(ds, mapping)
    granules2 = partition_by_attributes(other, other.condition_names)
    decisions2 = decision_partition(other)
    gfm2 = granule_frequency_matrix(granules2, decisions2)

    image = lambda block: frozenset(mapping[x] for x in block)
    rho = {
        i: granules2.blocks.index(image(block))
        for i, block in enumerate(granules.blocks)
    }
    decisions = decision_partition(ds)
    sigma = {
        j: decisions2.blocks.index(image(cls))
        for j, cls in enumerate(decisions.blocks)
    }
    for i, row in enumerate(gfm.cells):
        for j, count in enumerate(row):
            assert gfm2.cells[rho[i]][sigma[j]] == count

    f = maximal_row_classifier(gfm)
    permuted = [0] * gfm.m
    for i, cls in enumerate(f.assignment):
        permuted[rho[i]] = sigma[cls - 1] + 1
    f2 = RoughClassifier(tuple(permuted), gfm.k)
    cm = confusion_matrix(gfm, f)
    cm2 = confusion_matrix(gfm2, f2)
    for a in range(gfm.k):
        for b in range(gfm.k):
            assert cm2.cells[sigma[a]][sigma[b]] == cm.cells[a][b]
