"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every criterion is exact: rationals are compared as fractions and counts as
integers, never through floats. The randomized criteria use fixed base
seeds, so this module is fully deterministic.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from roughcm import (
    GeneratorConfig,
    RoughClassifier,
    TieBreak,
    alpha_from_gamma,
    analyze_decision_system,
    confusion_matrix,
    decision_partition,
    exhaustive_best_classifier,
    gamma_hat,
    granule_frequency_matrix,
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
from roughcm.cli import ingest_csv, main

from conftest import partition_from_labels


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def _random_instance(rng, max_objects=25, max_classes=5):
    n = rng.randint(2, max_objects)
    config = GeneratorConfig(
        n_objects=n,
        n_attributes=rng.randint(1, 4),
        values_per_attribute=rng.randint(1, 5),
        n_decision_values=rng.randint(2, min(max_classes, n)),
        seed=rng.getrandbits(64),
    )
    ds = random_decision_system(config)
    granules = partition_by_attributes(ds, ds.condition_names)
    decisions = decision_partition(ds)
    return ds, granules, decisions, granule_frequency_matrix(granules, decisions)


def test_criterion_1_worked_example_reproduction(tv_csv):
    with criterion(1, "worked example reproduction"):
        started = time.perf_counter()
        ds = ingest_csv(tv_csv)
        report = analyze_decision_system(
            ds, attributes=("Price", "Screen"), source=str(tv_csv)
        )
        elapsed = time.perf_counter() - started
        assert report.granules.blocks == (
            frozenset({1, 6}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4, 5}),
        )
        assert report.frequency.cells == ((1, 1), (0, 1), (0, 1), (2, 0))
        assert report.classifier.assignment == (1, 2, 2, 1)
        assert report.classifier_kind == "mrc" and report.tie_break == "lowest"
        assert report.confusion.cells == ((3, 1), (0, 2))
        assert report.approximation.gamma == Fraction(2, 3)
        assert report.success == Fraction(5, 6)
        assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"


def test_criterion_2_bound_estimator_values(tv_system):
    with criterion(2, "bound estimator values"):
        granules = partition_by_attributes(tv_system, ("Price", "Screen"))
        decisions = decision_partition(tv_system)
        gfm = granule_frequency_matrix(granules, decisions)
        f = maximal_row_classifier(gfm)
        report = analyze_decision_system(tv_system, attributes=("Price", "Screen"))
        per_class = report.bounds.classes
        assert tuple(cb.nl_star for cb in per_class) == (3, 2)
        assert tuple(cb.nl_star2 for cb in per_class) == (2, 2)
        assert tuple(cb.nl_m for cb in per_class) == (2, 2)
        assert tuple(cb.nu_star for cb in per_class) == (4, 3)
        assert tuple(cb.nu_star2 for cb in per_class) == (4, 4)
        assert tuple(cb.nu_m for cb in per_class) == (4, 4)
        true_nl = tuple(len(oracle_lower(granules, cls)) for cls in decisions.blocks)
        true_nu = tuple(len(oracle_upper(granules, cls)) for cls in decisions.blocks)
        assert true_nl == (2, 2)
        assert true_nu == (4, 4)
        theorems = verify_theorems(gfm, f, report.confusion, report.bounds)
        assert theorems.applicable
        assert len(theorems.bound_checks) == 8
        assert all(check.passed for check in theorems.bound_checks)
        assert theorems.overall_pass


def test_criterion_3_theorem_fuzz_suite():
    with criterion(3, "theorem fuzz suite"):
        started = time.perf_counter()
        mrc_run = run_fuzz_trials(
            trials=10_000, base_seed=42, classifier_kinds=("mrc",)
        )
        random_run = run_fuzz_trials(
            trials=10_000, base_seed=42, classifier_kinds=("random",)
        )
        elapsed = time.perf_counter() - started
        assert mrc_run.checks == 10_000
        assert mrc_run.failures == 0, mrc_run.first_failure
        assert random_run.checks == 10_000
        assert random_run.failures == 0, random_run.first_failure
        assert elapsed < 60.0, f"fuzz batches took {elapsed:.1f}s"


def test_criterion_4_aggregate_accuracy_identity():
    with criterion(4, "aggregate accuracy identity"):
        rng = random.Random(20240401)
        for trial in range(1_000):
            _, _, _, gfm = _random_instance(rng)
            if trial % 2 == 0:
                f = maximal_row_classifier(
                    gfm, rng.choice(tuple(TieBreak)), seed=rng.getrandbits(32)
                )
            else:
                f = random_overlap_classifier(gfm, rng.getrandbits(64))
            cm = confusion_matrix(gfm, f)
            # independent right-hand side, straight off the matrix cells
            k = cm.k
            diagonal = sum(cm.cells[j][j] for j in range(k))
            denominator = sum(
                sum(cm.cells[j]) + sum(cm.cells[i][j] for i in range(k)) - cm.cells[j][j]
                for j in range(k)
            )
            assert alpha_from_gamma(gamma_hat(cm)) == Fraction(diagonal, denominator)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence"):
        rng = random.Random(20240402)
        for pair in range(1_000):
            n = rng.randint(2, 24)
            labels = [rng.randint(0, 5) for _ in range(n)]
            p = partition_from_labels(labels)
            if pair == 0:
                members = frozenset()
            elif pair == 1:
                members = p.universe
            else:
                members = frozenset(
                    x for x in p.universe if rng.random() < 0.4
                )
            assert lower_approximation(p, members) == oracle_lower(p, members)
            assert upper_approximation(p, members) == oracle_upper(p, members)


def test_criterion_6_mrc_optimality():
    with criterion(6, "mrc optimality"):
        rng = random.Random(20240403)
        policies = tuple(TieBreak)
        for trial in range(500):
            while True:
                n = rng.randint(2, 10)
                config = GeneratorConfig(
                    n_objects=n,
                    n_attributes=rng.randint(1, 2),
                    values_per_attribute=rng.randint(2, 3),
                    n_decision_values=rng.randint(2, min(3, n)),
                    seed=rng.getrandbits(64),
                )
                ds = random_decision_system(config)
                granules = partition_by_attributes(ds, ds.condition_names)
                decisions = decision_partition(ds)
                gfm = granule_frequency_matrix(granules, decisions)
                if gfm.k**gfm.m <= 100_000:
                    break
            _, best = exhaustive_best_classifier(gfm)
            f = maximal_row_classifier(
                gfm, policies[trial % len(policies)], seed=rng.getrandbits(32)
            )
            assert success_ratio(confusion_matrix(gfm, f)) == best


def test_criterion_7_validator_behavior(capsys, tv_csv, tmp_path):
    with criterion(7, "validator behavior"):
        granules_to_classes = "1 1\n2 2\n3 2\n4 2\n"
        mapping = tmp_path / "variant.txt"
        mapping.write_text(granules_to_classes, encoding="utf-8")
        code = main(
            [
                "analyze",
                "--input",
                str(tv_csv),
                "--attributes",
                "Price,Screen",
                "--classifier",
                str(mapping),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "granule(s) 4" in captured.err

        ds = ingest_csv(tv_csv)
        granules = partition_by_attributes(ds, ("Price", "Screen"))
        gfm = granule_frequency_matrix(granules, decision_partition(ds))
        report = validate_overlap(RoughClassifier((1, 2, 2, 2), 2), gfm)
        assert not report.satisfies_rule
        assert report.violations == (4,)


def test_criterion_8_determinism(capsys, tv_csv):
    with criterion(8, "determinism"):
        analyze_argv = [
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
        ]
        assert main(analyze_argv) == 0
        first = capsys.readouterr().out
        assert main(analyze_argv) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)

        fuzz_argv = ["fuzz", "--trials", "200", "--seed", "7"]
        assert main(fuzz_argv) == 0
        first_fuzz = capsys.readouterr().out
        assert main(fuzz_argv) == 0
        second_fuzz = capsys.readouterr().out
        assert first_fuzz == second_fuzz
        assert run_fuzz_trials(trials=200, base_seed=7) == run_fuzz_trials(
            trials=200, base_seed=7
        )
