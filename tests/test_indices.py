"""Quality indices, accuracy estimates, and confusion-matrix bounds."""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from roughcm import (
    BoundsReport,
    ClassApproximation,
    ClassBounds,
    DegenerateDecisionError,
    GeneratorConfig,
    GranuleFrequencyMatrix,
    Partition,
    RoughClassifier,
    RoughConfusionMatrix,
    TieBreak,
    UndefinedClassError,
    ValidationReport,
    alpha_from_gamma,
    alpha_hat_overall,
    alpha_hat_per_class,
    approximation_summary,
    confusion_bounds,
    confusion_matrix,
    decision_partition,
    gamma_hat,
    granule_frequency_matrix,
    indicator,
    lower_approximation,
    maximal_row_classifier,
    oracle_lower,
    oracle_upper,
    partition_by_attributes,
    random_decision_system,
    random_overlap_classifier,
    success_ratio,
    upper_approximation,
    validate_overlap,
)

from conftest import partition_pairs, partitions_from_counts

TV_CM = RoughConfusionMatrix(((3, 1), (0, 2)))


def test_indicator():
    assert indicator(0) == 0
    assert indicator(1) == 1
    assert indicator(37) == 1


class TestApproximationSummary:
    def test_worked_example(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        summary = approximation_summary(gfm)
        assert summary.gamma == Fraction(2, 3)
        for approx in summary.classes:
            assert approx.size == 3
            assert approx.lower_size == 2
            assert approx.upper_size == 4
            assert approx.lower_coverage == Fraction(2, 3)
            assert approx.upper_precision == Fraction(3, 4)
            assert approx.accuracy == Fraction(1, 2)

    def test_deterministic_system_scores_one(self, tv_system):
        granules = partition_by_attributes(tv_system, tv_system.condition_names)
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        summary = approximation_summary(gfm)
        assert summary.gamma == 1
        for approx in summary.classes:
            assert approx.lower_size == approx.size == approx.upper_size
            assert approx.accuracy == 1

    def test_rejects_single_class(self):
        p = Partition((frozenset({1}), frozenset({2})))
        d = Partition((frozenset({1, 2}),))
        with pytest.raises(DegenerateDecisionError):
            approximation_summary(granule_frequency_matrix(p, d))

    def test_class_record_consistency_is_enforced(self):
        with pytest.raises(ValueError, match="lower_size <= size <= upper_size"):
            ClassApproximation(size=3, lower_size=4, upper_size=4)

    def test_an_empty_class_is_refused(self):
        with pytest.raises(ValueError, match="decision classes are nonempty"):
            ClassApproximation(0, 0, 0)

    @given(pair=partition_pairs())
    def test_matches_the_set_approximations(self, pair):
        granules, decisions = pair
        assume(len(decisions) >= 2)
        summary = approximation_summary(granule_frequency_matrix(granules, decisions))
        for approx, cls in zip(summary.classes, decisions.blocks, strict=True):
            assert approx.size == len(cls)
            assert approx.lower_size == len(lower_approximation(granules, cls))
            assert approx.upper_size == len(upper_approximation(granules, cls))


@st.composite
def repeated_row_systems(draw, distinct):
    """Granule and class partitions whose count rows come from a pool of
    one to three rows (`distinct=False`) or are all different, with the
    object ids shuffled so no granule is a run of ids."""
    k = draw(st.integers(2, 4))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    if distinct:
        rows = draw(st.lists(row, min_size=1, max_size=12, unique_by=tuple))
    else:
        pool = draw(st.lists(row, min_size=1, max_size=3))
        rows = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=30))
    cells = [
        (i, j) for i, counts in enumerate(rows) for j, c in enumerate(counts) for _ in range(c)
    ]
    ids = draw(st.permutations(range(1, len(cells) + 1)))
    granules, classes = defaultdict(set), defaultdict(set)
    for x, (i, j) in zip(ids, cells):
        granules[i].add(x)
        classes[j].add(x)
    return Partition(granules.values()), Partition(classes.values())


class TestDistinctRowSummary:
    """approximation_summary reads each distinct gfm row once; its sizes
    must still be those of the per-element oracles, class by class."""

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "all-distinct"])
    @given(data=st.data())
    def test_matches_the_oracles(self, distinct, data):
        granules, decisions = data.draw(repeated_row_systems(distinct))
        assume(len(decisions) >= 2)
        gfm = granule_frequency_matrix(granules, decisions)
        assert list(gfm._distinct) == list(dict.fromkeys(gfm.cells))
        assert (len(gfm._distinct) == gfm.m) is distinct
        assert sum(gfm._distinct.values()) == gfm.m
        summary = approximation_summary(gfm)
        for approx, cls in zip(summary.classes, decisions._members, strict=True):
            assert approx.size == len(cls)
            assert approx.lower_size == len(oracle_lower(granules, cls))
            assert approx.upper_size == len(oracle_upper(granules, cls))

    def test_equal_rows_that_are_different_tuples_count_as_one(self):
        # granules {1, 2}, {3, 4}, {5}; classes {1, 3}, {2, 4, 5}
        granules = Partition([[1, 2], [3, 4], [5]])
        decisions = Partition([[1, 3], [2, 4, 5]])
        gfm = GranuleFrequencyMatrix([[1, 1], [1, 1], [0, 1]], granules, decisions)
        assert gfm.cells[0] == gfm.cells[1] and gfm.cells[0] is not gfm.cells[1]
        assert gfm._distinct == {(1, 1): 2, (0, 1): 1}
        summary = approximation_summary(gfm)
        assert [(c.lower_size, c.upper_size) for c in summary.classes] == [(0, 4), (1, 5)]


class TestConfusionIndices:
    def test_gamma_hat_worked_example(self):
        assert gamma_hat(TV_CM) == Fraction(5, 6)

    def test_alpha_hat_worked_example(self):
        assert alpha_hat_per_class(TV_CM) == (Fraction(3, 4), Fraction(2, 3))
        assert alpha_hat_overall(TV_CM) == Fraction(5, 7)

    def test_alpha_hat_undefined_for_silent_absent_class(self):
        cm = RoughConfusionMatrix(((1, 0), (0, 0)))
        with pytest.raises(UndefinedClassError) as info:
            alpha_hat_per_class(cm)
        assert info.value.class_index == 2

    def test_perfect_classifier_scores_one(self):
        cm = RoughConfusionMatrix(((4, 0), (0, 2)))
        assert gamma_hat(cm) == 1
        assert alpha_hat_per_class(cm) == (1, 1)
        assert alpha_hat_overall(cm) == 1


class TestAlphaFromGamma:
    @pytest.mark.parametrize(
        "quality,expected",
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(5, 6), Fraction(5, 7)),
            (Fraction(2, 3), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 3)),
        ],
    )
    def test_known_values(self, quality, expected):
        assert alpha_from_gamma(quality) == expected

    @pytest.mark.parametrize("quality", [Fraction(-1, 10), Fraction(11, 10), 2])
    def test_rejects_out_of_range(self, quality):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            alpha_from_gamma(quality)

    @given(
        a=st.integers(0, 400),
        b=st.integers(0, 400),
        den=st.integers(1, 400),
    )
    def test_monotone_and_dominated(self, a, b, den):
        lo, hi = sorted((min(a, den), min(b, den)))
        g1, g2 = Fraction(lo, den), Fraction(hi, den)
        assert alpha_from_gamma(g1) <= alpha_from_gamma(g2)
        assert alpha_from_gamma(g2) <= g2


def _random_confusion(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 25)
    config = GeneratorConfig(
        n_objects=n,
        n_attributes=rng.randint(1, 4),
        values_per_attribute=rng.randint(1, 5),
        n_decision_values=rng.randint(2, min(5, n)),
        seed=rng.getrandbits(64),
    )
    ds = random_decision_system(config)
    granules = partition_by_attributes(ds, ds.condition_names)
    decisions = decision_partition(ds)
    gfm = granule_frequency_matrix(granules, decisions)
    if rng.random() < 0.5:
        f = maximal_row_classifier(gfm, rng.choice(tuple(TieBreak)), rng.getrandbits(32))
    else:
        f = random_overlap_classifier(gfm, rng.getrandbits(64))
    return granules, decisions, gfm, f, confusion_matrix(gfm, f)


class TestAggregateIdentity:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overall_alpha_is_a_function_of_the_success_ratio(self, seed):
        *_, cm = _random_confusion(seed)
        assert alpha_hat_overall(cm) == alpha_from_gamma(gamma_hat(cm))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_success_ratio_and_gamma_hat_agree(self, seed):
        *_, cm = _random_confusion(seed)
        assert gamma_hat(cm) == success_ratio(cm)


class TestConfusionBounds:
    def test_worked_example_values(self):
        validation = ValidationReport(())
        report = confusion_bounds(TV_CM, validation, is_mrc=True)
        assert report.rule_validated and report.mrc_classifier
        first, second = report.classes
        assert (first.class_size, first.nl_star, first.nl_star2) == (3, 3, 2)
        assert (first.nu_star, first.nu_star2) == (4, 4)
        assert (first.nl_m, first.nu_m) == (2, 4)
        assert (second.class_size, second.nl_star, second.nl_star2) == (3, 2, 2)
        assert (second.nu_star, second.nu_star2) == (3, 4)
        assert (second.nl_m, second.nu_m) == (2, 4)
        assert not any(cb.clamped for cb in report.classes)

    def test_without_row_maximality_the_sharp_estimators_are_absent(self):
        report = confusion_bounds(TV_CM, ValidationReport(()), is_mrc=False)
        assert all(cb.nl_m is None and cb.nu_m is None for cb in report.classes)

    def test_negative_raw_estimates_are_clamped(self):
        """A rule-breaking classifier can push nl** below zero; it is clamped."""
        granules, decisions, gfm = partitions_from_counts([[1, 0], [0, 1], [2, 0]])
        f = RoughClassifier((1, 1, 2), 2)
        validation = validate_overlap(f, gfm)
        assert validation.violations == (2, 3)
        cm = confusion_matrix(gfm, f)
        assert cm.cells == ((1, 1), (2, 0))
        report = confusion_bounds(cm, validation, is_mrc=False)
        assert not report.rule_validated
        first, second = report.classes
        assert not first.clamped
        assert second.clamped
        assert second.nl_star2 == 0

    def test_chain_holds_on_random_validated_instances(self):
        for seed in range(200):
            *_, f, cm = _random_confusion(seed)
            report = confusion_bounds(cm, ValidationReport(()), is_mrc=False)
            for cb in report.classes:
                assert cb.nl_star2 <= cb.nl_star <= cb.class_size
                assert cb.class_size <= cb.nu_star <= cb.nu_star2


def _reference_bounds(cm, validation, is_mrc):
    """confusion_bounds cell by cell, straight from the module docstring."""
    rows, k = cm.cells, cm.k
    row_sums = [sum(rows[j]) for j in range(k)]
    col_sums = [sum(rows[i][j] for i in range(k)) for j in range(k)]
    classes = []
    for j in range(k):
        diag = rows[j][j]
        row_off = row_sums[j] - diag
        col_off = col_sums[j] - diag
        raw_star2 = diag - indicator(row_off)
        nu_star = diag + row_off + col_off
        nu_star2 = nu_star + sum(indicator(rows[i][j]) for i in range(k) if i != j)
        clamped = raw_star2 < 0
        nl_m = nu_m = None
        if is_mrc:
            raw_m = diag - max(rows[j][t] for t in range(k) if t != j)
            clamped = clamped or raw_m < 0
            nl_m = max(0, raw_m)
            nu_m = diag + row_off + 2 * col_off
        nl_star2 = max(0, raw_star2)
        classes.append(
            ClassBounds(col_sums[j], diag, nl_star2, nu_star, nu_star2, nl_m, nu_m, clamped)
        )
    return BoundsReport(tuple(classes), validation.satisfies_rule, is_mrc)


def _reference_alpha(cm):
    rows, k = cm.cells, cm.k
    margins = [
        sum(rows[j]) + sum(rows[i][j] for i in range(k)) - rows[j][j] for j in range(k)
    ]
    per_class = tuple(Fraction(rows[j][j], margins[j]) for j in range(k) if margins[j])
    overall = Fraction(sum(rows[j][j] for j in range(k)), sum(margins))
    return per_class, overall


square_counts = st.integers(2, 8).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 4) | st.just(0), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
).filter(lambda rows: any(map(any, rows)))

# zero diagonals with off-diagonal mass: nl** and nl^m go negative and clamp
CLAMPING = [[0, 2, 1], [3, 0, 0], [0, 1, 0]]


class TestConfusionBoundsReference:
    @given(rows=square_counts, is_mrc=st.booleans(), validated=st.booleans())
    @example(rows=CLAMPING, is_mrc=True, validated=False)
    @example(rows=CLAMPING, is_mrc=False, validated=False)
    @example(rows=[[0, 0], [0, 5]], is_mrc=True, validated=True)
    def test_matches_the_cellwise_formulas(self, rows, is_mrc, validated):
        cm = RoughConfusionMatrix(rows)
        validation = ValidationReport(() if validated else (1,))
        expected = _reference_bounds(cm, validation, is_mrc)
        assert confusion_bounds(cm, validation, is_mrc) == expected

    def test_the_clamping_example_clamps(self):
        cm = RoughConfusionMatrix(CLAMPING)
        report = confusion_bounds(cm, ValidationReport((1,)), is_mrc=True)
        assert [cb.clamped for cb in report.classes] == [True, True, True]
        assert [cb.nl_star2 for cb in report.classes] == [0, 0, 0]
        assert [cb.nl_m for cb in report.classes] == [0, 0, 0]

    @given(rows=square_counts)
    def test_alpha_estimates_match_the_cellwise_formulas(self, rows):
        cm = RoughConfusionMatrix(rows)
        per_class, overall = _reference_alpha(cm)
        assert alpha_hat_overall(cm) == overall
        if len(per_class) == cm.k:
            assert alpha_hat_per_class(cm) == per_class
        else:
            with pytest.raises(UndefinedClassError):
                alpha_hat_per_class(cm)


class TestBoundsReportInvariants:
    def test_a_report_needs_a_class(self):
        with pytest.raises(ValueError, match="a bounds report needs at least one class"):
            BoundsReport((), True, False)

    def test_mrc_flag_requires_sharp_estimators(self):
        cb = ClassBounds(3, 3, 2, 4, 4, None, None, False)
        with pytest.raises(ValueError, match="estimators missing"):
            BoundsReport((cb,), rule_validated=True, mrc_classifier=True)

    def test_sharp_estimators_require_the_flag(self):
        cb = ClassBounds(3, 3, 2, 4, 4, 2, 4, False)
        with pytest.raises(ValueError, match="without the flag"):
            BoundsReport((cb,), rule_validated=True, mrc_classifier=False)

    def test_unvalidated_reports_may_break_the_chain(self):
        cb = ClassBounds(3, 2, 3, 4, 4, None, None, True)
        report = BoundsReport((cb,), rule_validated=False, mrc_classifier=False)
        assert report.classes[0].nl_star2 == 3

    def test_negative_estimators_rejected(self):
        with pytest.raises(ValueError, match="clamped at zero"):
            ClassBounds(3, 3, -1, 4, 4, None, None, True)
