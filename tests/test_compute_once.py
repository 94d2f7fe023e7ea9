"""Each pipeline stage is built once per analysis, per report load and
per fuzz trial.

The counters replace every binding of a stage builder in every loaded
roughcm module, so a stage rebuilt by any module, the verifier included,
shows up in the counts.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter

import pytest

import roughcm
from roughcm import (
    RoughClassifier,
    TieBreak,
    analyze_decision_system,
    confusion_bounds,
    confusion_matrix,
    decision_partition,
    granule_frequency_matrix,
    is_row_maximal,
    maximal_row_classifier,
    oracle,
    partition_by_attributes,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
    run_fuzz_trials,
    validate_overlap,
    verify_theorems,
)
import roughcm.classifiers as classifiers_module
import roughcm.indices as indices_module
import roughcm.matrices as matrices_module
import roughcm.report as report_module
from roughcm.cli import main

from conftest import partitions_from_counts

STAGES = ("partition_by_attributes", "decision_partition", "granule_frequency_matrix")
LOAD_STAGES = (
    "granule_frequency_matrix",
    "confusion_matrix",
    "confusion_bounds",
    "verify_theorems",
    "maximal_row_classifier",
)
ORACLES = ("oracle_lower", "oracle_upper")


@pytest.fixture
def calls(monkeypatch):
    """Count calls to the stage builders, the verifier and the two
    per-element oracles."""
    counts: Counter[str] = Counter()
    for name in {*STAGES, *LOAD_STAGES, *ORACLES}:
        original = getattr(roughcm, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        bound = [
            module
            for key, module in sys.modules.items()
            if key.split(".")[0] == "roughcm" and getattr(module, name, None) is original
        ]
        for module in bound:
            monkeypatch.setattr(module, name, counted)
    return counts


def stage_counts(counts):
    return [counts[name] for name in STAGES]


@pytest.mark.parametrize(
    "classifier", [None, RoughClassifier((2, 2, 2, 1), 2)], ids=["mrc", "custom"]
)
def test_analyze_builds_each_stage_once(calls, tv_system, classifier):
    report = analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), classifier=classifier
    )
    assert report.theorems.applicable
    assert stage_counts(calls) == [1, 1, 1]
    assert [calls[name] for name in ORACLES] == [0, 0]


@pytest.mark.parametrize(
    "classifier", [None, RoughClassifier((2, 2, 2, 1), 2)], ids=["mrc", "custom"]
)
def test_a_report_load_builds_each_stage_and_verifies_once(calls, tv_system, classifier):
    report = analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), classifier=classifier
    )
    data = report_to_dict(report)
    calls.clear()
    assert report_from_dict(data) == report
    mrc_builds = 1 if classifier is None else 0
    assert [calls[name] for name in LOAD_STAGES] == [1, 1, 1, 1, mrc_builds]
    assert stage_counts(calls)[:2] == [0, 0]


def test_analyze_and_the_load_share_one_assembly(monkeypatch, tv_system):
    seen = []
    original = report_module._assemble

    def assemble(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(report_module, "_assemble", assemble)
    report = analyze_decision_system(tv_system, attributes=("Price", "Screen"))
    assert report_from_dict(report_to_dict(report)) == report
    assert len(seen) == 2 and seen[0] == seen[1]


@pytest.mark.parametrize(
    "classifier", [None, RoughClassifier((2, 2, 2, 1), 2)], ids=["mrc", "custom"]
)
def test_the_distinct_rows_are_counted_once_per_matrix(monkeypatch, tv_system, classifier):
    counted = []

    class Counting(Counter):
        """Records each count of a matrix's rows, the tuple of its cells."""

        def __init__(self, items=None, /):
            if type(items) is tuple:
                counted.append(items)
            super().__init__(items)

    monkeypatch.setattr(matrices_module, "Counter", Counting)
    report = analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), classifier=classifier
    )
    render_text(report)
    data = json.loads(report_to_json(report))
    assert len(counted) == 1 and counted[0] is report.frequency.cells
    loaded = report_from_dict(data)
    render_text(loaded)
    report_to_json(loaded)
    assert len(counted) == 2 and counted[1] is loaded.frequency.cells


@pytest.mark.parametrize("policy", list(TieBreak), ids=lambda policy: policy.value)
def test_the_row_maxima_are_taken_once_per_distinct_row(monkeypatch, policy):
    """Five granules, two distinct rows: the maximal row classifier takes
    one maximum per distinct row, and the row-maximality test one maximum
    per distinct (row, class) pair, two each, not five."""
    _, _, gfm = partitions_from_counts([[2, 1], [2, 1], [1, 2], [2, 1], [1, 2]])
    taken = []

    def counted(*args, **kwargs):
        taken.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(classifiers_module, "max", counted, raising=False)
    f = maximal_row_classifier(gfm, policy)
    assert f.assignment == (1, 1, 2, 1, 2)
    assert len(taken) == len(gfm._distinct) == 2
    taken.clear()
    assert is_row_maximal(f, gfm)
    assert len(taken) == 2


def test_cli_analyze_with_a_mapping_builds_each_stage_once(calls, capsys, tv_csv, tmp_path):
    mapping = tmp_path / "map.txt"
    mapping.write_text("1 1\n2 2\n3 2\n4 1\n", encoding="utf-8")
    argv = ["analyze", "--input", str(tv_csv), "--attributes", "Price,Screen"]
    assert main([*argv, "--classifier", str(mapping)]) == 0
    capsys.readouterr()
    assert stage_counts(calls) == [1, 1, 1]


def test_fuzz_builds_each_stage_once_per_trial(calls, monkeypatch):
    applicable_classes = []
    original = oracle.verify_theorems

    def verify(gfm, f, cm, bounds, context=None):
        report = original(gfm, f, cm, bounds, context)
        if report.applicable:
            applicable_classes.append(gfm.k)
        return report

    monkeypatch.setattr(oracle, "verify_theorems", verify)
    summary = run_fuzz_trials(trials=40, base_seed=5)
    assert summary.checks == 80 and summary.failures == 0
    assert stage_counts(calls) == [40, 40, 40]
    assert len(applicable_classes) == 80
    assert [calls[name] for name in ORACLES] == [0, 0]


@pytest.mark.parametrize(
    "assignment,applicable",
    [((1, 2, 2, 1), True), ((1, 2, 2, 2), False)],
    ids=["applicable", "rule-broken"],
)
def test_the_verifier_calls_neither_oracle(calls, tv_system, assignment, applicable):
    granules = partition_by_attributes(tv_system, ("Price", "Screen"))
    gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
    f = RoughClassifier(assignment, 2)
    cm = confusion_matrix(gfm, f)
    bounds = confusion_bounds(cm, validate_overlap(f, gfm), is_row_maximal(f, gfm))
    report = verify_theorems(gfm, f, cm, bounds)
    assert report.applicable == applicable
    assert [calls[name] for name in ORACLES] == [0, 0]


@pytest.fixture
def records(monkeypatch):
    """Every ClassBounds record built, by any module."""
    built = []
    original = indices_module.ClassBounds.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(indices_module.ClassBounds, "__post_init__", counted)
    return built


@pytest.mark.parametrize(
    "classifier", [None, RoughClassifier((2, 2, 2, 1), 2)], ids=["mrc", "custom"]
)
def test_no_bounds_record_is_built_by_fuzz_an_analysis_a_save_or_a_load(
    records, tv_system, classifier
):
    run_fuzz_trials(trials=40, base_seed=5)
    assert records == []
    report = analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), classifier=classifier
    )
    render_text(report)
    loaded = report_from_dict(json.loads(report_to_json(report)))
    render_text(loaded)
    report_to_json(loaded)
    assert records == []
    # the record view builds them, one per class on each read
    assert len(loaded.bounds.classes) == len(records) == 2


def test_the_bounds_build_their_records_on_each_read(tv_system):
    granules = partition_by_attributes(tv_system, ("Price", "Screen"))
    gfm = granule_frequency_matrix(granules, decision_partition(tv_system))
    f = maximal_row_classifier(gfm)
    cm, validation = confusion_matrix(gfm, f), validate_overlap(f, gfm)
    bounds = confusion_bounds(cm, validation, True)
    assert bounds.classes is not bounds.classes
    assert bounds.classes == bounds.classes
    assert dataclasses.replace(bounds) == bounds
    blunt = [dataclasses.replace(cb, nl_m=None, nu_m=None) for cb in bounds.classes]
    blunt_bounds = dataclasses.replace(bounds, classes=blunt, mrc_classifier=False)
    assert blunt_bounds == confusion_bounds(cm, validation, False)
    with pytest.raises(ValueError, match="row-maximal estimators missing"):
        dataclasses.replace(bounds, classes=blunt)
