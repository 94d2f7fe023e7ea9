"""Random instance generation, independent oracles, and theorem fuzzing."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    GENERATOR_ID,
    GeneratorConfig,
    GeneratorConfigError,
    InstanceTooLargeError,
    RoughClassifier,
    ShapeMismatchError,
    TheoremReport,
    TieBreak,
    ValidationReport,
    confusion_bounds,
    confusion_matrix,
    decision_partition,
    exhaustive_best_classifier,
    granule_frequency_matrix,
    is_row_maximal,
    lower_approximation,
    maximal_row_classifier,
    oracle_lower,
    oracle_upper,
    partition_by_attributes,
    random_decision_system,
    random_overlap_classifier,
    run_fuzz_trials,
    success_ratio,
    upper_approximation,
    validate_overlap,
    verify_theorems,
)

from conftest import build_system, partition_and_subset, partitions_from_counts


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"n_objects": 1}, "n_objects"),
            ({"n_objects": 101}, "n_objects"),
            ({"n_attributes": 0}, "n_attributes"),
            ({"n_attributes": 9}, "n_attributes"),
            ({"values_per_attribute": 0}, "values_per_attribute"),
            ({"values_per_attribute": 7}, "values_per_attribute"),
            ({"n_decision_values": 1}, "n_decision_values"),
            ({"n_decision_values": 9}, "n_decision_values"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
        ],
    )
    def test_range_validation(self, overrides, message):
        settings = dict(
            n_objects=10,
            n_attributes=2,
            values_per_attribute=3,
            n_decision_values=2,
            seed=0,
        )
        settings.update(overrides)
        with pytest.raises(GeneratorConfigError, match=message):
            GeneratorConfig(**settings)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("n_objects", 2.5),
            ("n_objects", 10.0),
            ("n_attributes", True),
            ("values_per_attribute", "3"),
            ("n_decision_values", 2.0),
            ("seed", 0.0),
            ("seed", False),
        ],
    )
    def test_sizes_and_seed_must_be_ints(self, name, value):
        settings = dict(
            n_objects=10,
            n_attributes=2,
            values_per_attribute=3,
            n_decision_values=2,
            seed=0,
        )
        settings[name] = value
        with pytest.raises(GeneratorConfigError, match=f"^{name} must be an int"):
            GeneratorConfig(**settings)

    def test_more_classes_than_objects_rejected(self):
        with pytest.raises(GeneratorConfigError, match="cannot exceed"):
            GeneratorConfig(
                n_objects=3,
                n_attributes=1,
                values_per_attribute=2,
                n_decision_values=4,
                seed=0,
            )


class TestRandomDecisionSystem:
    CONFIG = GeneratorConfig(
        n_objects=12,
        n_attributes=3,
        values_per_attribute=4,
        n_decision_values=3,
        seed=20240817,
    )

    def test_shape_and_naming(self):
        ds = random_decision_system(self.CONFIG)
        assert ds.n == 12
        assert ds.object_ids == tuple(range(1, 13))
        assert ds.condition_names == ("a1", "a2", "a3")
        assert ds.decision_attribute.name == "d"
        tokens = {v for a in ds.condition_attributes for v in a.values.values()}
        assert tokens <= {"v1", "v2", "v3", "v4"}
        decided = set(ds.decision_attribute.values.values())
        assert decided <= {"c1", "c2", "c3"}
        assert len(decided) >= 2

    def test_same_config_same_system(self):
        assert random_decision_system(self.CONFIG) == random_decision_system(self.CONFIG)

    def test_different_seeds_differ(self):
        other = GeneratorConfig(
            n_objects=12,
            n_attributes=3,
            values_per_attribute=4,
            n_decision_values=3,
            seed=20240818,
        )
        assert random_decision_system(self.CONFIG) != random_decision_system(other)

    @given(seed=st.integers(0, 2**64 - 1))
    def test_two_classes_guaranteed_even_for_tiny_systems(self, seed):
        config = GeneratorConfig(
            n_objects=2,
            n_attributes=1,
            values_per_attribute=1,
            n_decision_values=2,
            seed=seed,
        )
        ds = random_decision_system(config)
        assert len(set(ds.decision_attribute.values.values())) == 2


class TestOracles:
    @given(data=partition_and_subset())
    def test_lower_matches_blockwise_route(self, data):
        p, members = data
        assert oracle_lower(p, members) == lower_approximation(p, members)

    @given(data=partition_and_subset())
    def test_upper_matches_blockwise_route(self, data):
        p, members = data
        assert oracle_upper(p, members) == upper_approximation(p, members)

    @given(data=partition_and_subset())
    def test_empty_and_full_extremes(self, data):
        p, _ = data
        assert oracle_lower(p, ()) == frozenset()
        assert oracle_upper(p, ()) == frozenset()
        assert oracle_lower(p, p.universe) == p.universe
        assert oracle_upper(p, p.universe) == p.universe


class TestRandomOverlapClassifier:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_always_satisfies_the_rule(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        config = GeneratorConfig(
            n_objects=n,
            n_attributes=rng.randint(1, 4),
            values_per_attribute=rng.randint(1, 4),
            n_decision_values=rng.randint(2, min(5, n)),
            seed=rng.getrandbits(64),
        )
        ds = random_decision_system(config)
        granules = partition_by_attributes(ds, ds.condition_names)
        gfm = granule_frequency_matrix(granules, decision_partition(ds))
        f = random_overlap_classifier(gfm, rng.getrandbits(64))
        assert validate_overlap(f, gfm).satisfies_rule

    def test_seed_determinism(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        for seed in (0, 1, 99):
            assert random_overlap_classifier(gfm, seed) == random_overlap_classifier(
                gfm, seed
            )


class TestExhaustiveBestClassifier:
    def test_worked_example(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        best, ratio = exhaustive_best_classifier(gfm)
        assert best.assignment == (1, 2, 2, 1)
        assert ratio == Fraction(5, 6)

    def test_score_agrees_with_the_pipeline(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        best, ratio = exhaustive_best_classifier(gfm)
        assert ratio == success_ratio(confusion_matrix(gfm, best))
        rng = random.Random(5)
        for _ in range(30):
            assignment = tuple(rng.randint(1, gfm.k) for _ in range(gfm.m))
            f = RoughClassifier(assignment, gfm.k)
            assert success_ratio(confusion_matrix(gfm, f)) <= ratio

    def test_enumeration_guard(self):
        counts = [[1, 1, 1, 1]] + [[1, 0, 0, 0] for _ in range(9)]
        _, _, gfm = partitions_from_counts(counts)
        assert gfm.m == 10 and gfm.k == 4
        with pytest.raises(InstanceTooLargeError, match=r"4\^10"):
            exhaustive_best_classifier(gfm)


def verify_on(ds, attributes, f, context=None):
    """Build the stages the verifier checks, as the pipeline does, and verify."""
    granules = partition_by_attributes(ds, attributes)
    gfm = granule_frequency_matrix(granules, decision_partition(ds))
    cm = confusion_matrix(gfm, f)
    bounds = confusion_bounds(cm, validate_overlap(f, gfm), is_row_maximal(f, gfm))
    return verify_theorems(gfm, f, cm, bounds, context)


class TestVerifyTheorems:
    def test_worked_example_report(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        f = maximal_row_classifier(gfm)
        report = verify_on(tv_system, ("Price", "Screen"), f)
        assert report.applicable
        assert report.overall_pass
        assert report.context["row_maximal"] == "yes"
        chains = {
            (c.theorem, c.class_index): c.chain for c in report.bound_checks
        }
        assert chains[(1, 1)] == (2, 2, 3, 3)
        assert chains[(2, 1)] == (3, 4, 4, 4)
        assert chains[(3, 1)] == (2, 2, 2)
        assert chains[(4, 1)] == (2, 4, 4)
        assert chains[(1, 2)] == (2, 2, 2, 3)
        assert chains[(2, 2)] == (3, 3, 4, 4)
        assert chains[(3, 2)] == (2, 2, 2)
        assert chains[(4, 2)] == (2, 4, 4)
        parts = sorted((c.part, c.subject) for c in report.lemma_checks)
        assert parts == [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2)]

    def test_non_row_maximal_classifier_skips_the_sharp_chains(self, tv_system):
        # every tv granule forces its valid choice, so mix the rows instead
        rows = (("p", "x"), ("p", "x"), ("p", "y"), ("q", "x"), ("q", "y"), ("q", "y"))
        ds = build_system(("a", "d"), rows)
        anti = RoughClassifier((2, 1), 2)
        report = verify_on(ds, ("a",), anti)
        assert report.applicable
        assert report.context["row_maximal"] == "no"
        assert {c.theorem for c in report.bound_checks} == {1, 2}
        assert report.overall_pass
        full = verify_on(tv_system, ("Price", "Screen"), RoughClassifier((1, 2, 2, 1), 2))
        assert {c.theorem for c in full.bound_checks} == {1, 2, 3, 4}

    def test_rule_breaking_classifier_is_not_applicable(self, tv_system):
        f = RoughClassifier((1, 2, 2, 2), 2)
        report = verify_on(tv_system, ("Price", "Screen"), f)
        assert not report.applicable
        assert report.bound_checks == ()
        assert report.lemma_checks == ()
        assert report.overall_pass
        assert "not-applicable" in report.context["status"]

    def test_deterministic_system_collapses_every_chain(self, tv_system):
        names = tv_system.condition_names
        granules = partition_by_attributes(tv_system, names)
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        report = verify_on(tv_system, names, maximal_row_classifier(gfm))
        assert report.applicable and report.overall_pass
        for check in report.bound_checks:
            assert len(set(check.chain)) == 1

    def test_context_is_carried_through(self, tv_system):
        granules = partition_by_attributes(tv_system, ("Price",))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        f = maximal_row_classifier(gfm)
        report = verify_on(tv_system, ("Price",), f, context={"label": "smoke"})
        assert report.context["label"] == "smoke"

    def test_a_record_keeps_its_own_copy_of_the_context(self, tv_system):
        """Neither the verifier nor the constructor, and so not
        dataclasses.replace, shares the caller's mapping with a record."""
        granules = partition_by_attributes(tv_system, ("Price",))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        caller = {"label": "smoke"}
        report = verify_on(tv_system, ("Price",), maximal_row_classifier(gfm), caller)
        assert caller == {"label": "smoke"}
        caller["label"] = "edited"
        assert report.context == {"label": "smoke", "row_maximal": "yes"}
        other = {"label": "other"}
        for record in (
            dataclasses.replace(report, context=other),
            TheoremReport(True, report.bound_checks, report.lemma_checks, other),
        ):
            other["label"] = "edited"
            assert record.context == {"label": "other"}
            other["label"] = "other"
            assert record.bound_checks == report.bound_checks

    @pytest.mark.parametrize(
        "assignment,failed_lemmas",
        [
            ((1, 2, 2, 1), [(1, 2), (1, 4), (2, 1), (2, 2)]),
            ((2, 2, 1, 2), [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]),
        ],
    )
    def test_a_rule_breaking_classifier_fails_the_checks_it_breaks(
        self, assignment, failed_lemmas
    ):
        # granules {1, 2}, {3, 4}, {5}, {6}; classes p = {1, 3, 4}, q = {2, 5, 6}
        ds = build_system(("a", "d"), list(zip("xxyyzw", "pqppqq")))
        granules = partition_by_attributes(ds, ("a",))
        gfm = granule_frequency_matrix(granules, decision_partition(ds))
        assert gfm.cells == ((1, 1), (2, 0), (0, 1), (0, 1))
        f = RoughClassifier(assignment, 2)
        cm = confusion_matrix(gfm, f)
        # bounds that claim the rule holds, so that every check applies
        bounds = confusion_bounds(cm, ValidationReport(()), is_mrc=False)
        report = verify_theorems(gfm, f, cm, bounds)
        assert report.applicable and not report.overall_pass
        failed = [(c.part, c.subject) for c in report.lemma_checks if not c.passed]
        assert failed == failed_lemmas
        failed = [(c.theorem, c.class_index) for c in report.bound_checks if not c.passed]
        assert failed == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_a_classifier_of_the_wrong_length_is_refused_where_checks_apply(
        self, tv_system
    ):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
        f = maximal_row_classifier(gfm)
        cm = confusion_matrix(gfm, f)
        short = RoughClassifier(f.assignment[:-1], gfm.k)
        skipped = confusion_bounds(cm, ValidationReport((1,)), is_mrc=False)
        assert not verify_theorems(gfm, short, cm, skipped).applicable
        bounds = confusion_bounds(cm, ValidationReport(()), is_mrc=True)
        with pytest.raises(ShapeMismatchError, match="classifier assigns 3 granules"):
            verify_theorems(gfm, short, cm, bounds)

    def test_a_matrix_or_bounds_of_another_class_count_is_refused_where_checks_apply(self):
        """Every class of the frequency matrix is checked: a confusion
        matrix or bounds of fewer or more classes are not cut to fit."""
        stages = {}
        for counts in ([[2, 0], [1, 1]], [[2, 0, 0], [1, 1, 0], [0, 1, 2]]):
            _, _, gfm = partitions_from_counts(counts)
            f = maximal_row_classifier(gfm)
            cm = confusion_matrix(gfm, f)
            bounds = confusion_bounds(cm, validate_overlap(f, gfm), is_row_maximal(f, gfm))
            assert verify_theorems(gfm, f, cm, bounds).overall_pass
            stages[gfm.k] = gfm, f, cm, bounds
        for k, other in ((2, 3), (3, 2)):
            gfm, f, cm, bounds = stages[k]
            other_cm, other_bounds = stages[other][2:]
            message = f"has {other} classes, matrix has {k}"
            with pytest.raises(ShapeMismatchError, match=f"^bounds {message}$"):
                verify_theorems(gfm, f, cm, other_bounds)
            with pytest.raises(ShapeMismatchError, match=f"^confusion matrix {message}$"):
                verify_theorems(gfm, f, other_cm, bounds)
            with pytest.raises(ShapeMismatchError, match=f"^confusion matrix {message}$"):
                verify_theorems(gfm, f, other_cm, other_bounds)
            skipped = confusion_bounds(other_cm, ValidationReport((1,)), is_mrc=False)
            assert not verify_theorems(gfm, f, other_cm, skipped).applicable


class TestFuzzTrials:
    def test_smoke_run_is_clean(self):
        summary = run_fuzz_trials(trials=60, base_seed=11)
        assert summary.trials == 60
        assert summary.checks == 120
        assert summary.failures == 0
        assert summary.first_failure is None
        assert summary.classifier_kinds == ("mrc", "random")
        assert summary.generator == GENERATOR_ID

    def test_single_kind_counts_one_check_per_trial(self):
        summary = run_fuzz_trials(trials=25, base_seed=3, classifier_kinds=("mrc",))
        assert summary.checks == 25

    def test_same_seed_reproduces_the_summary(self):
        first = run_fuzz_trials(trials=40, base_seed=99, max_objects=12)
        second = run_fuzz_trials(trials=40, base_seed=99, max_objects=12)
        assert first == second

    def test_zero_trials(self):
        summary = run_fuzz_trials(trials=0, base_seed=0)
        assert summary.checks == 0
        assert summary.failures == 0

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(trials=-1, base_seed=0), "non-negative"),
            (dict(trials=1, base_seed=0, max_objects=1), "max_objects"),
            (dict(trials=1, base_seed=0, max_objects=101), "max_objects"),
            (dict(trials=1, base_seed=0, max_classes=1), "max_classes"),
            (dict(trials=1, base_seed=0, max_classes=9), "max_classes"),
            (dict(trials=1, base_seed=0, classifier_kinds=()), "kinds"),
            (dict(trials=1, base_seed=0, classifier_kinds=("best",)), "kinds"),
        ],
    )
    def test_flag_validation(self, kwargs, message):
        with pytest.raises(GeneratorConfigError, match=message):
            run_fuzz_trials(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(trials=2.5, base_seed=0), "trials"),
            (dict(trials=True, base_seed=0), "trials"),
            (dict(trials=2, base_seed=0.0), "base_seed"),
            (dict(trials=2, base_seed=0, max_objects=2.5), "max_objects"),
            (dict(trials=2, base_seed=0, max_objects=30.0), "max_objects"),
            (dict(trials=2, base_seed=0, max_classes=True), "max_classes"),
        ],
    )
    def test_counts_and_seed_must_be_ints(self, kwargs, name):
        with pytest.raises(GeneratorConfigError, match=f"^{name} must be an int"):
            run_fuzz_trials(**kwargs)
