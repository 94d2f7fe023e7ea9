"""The theorem record kept as columns, and the forms that read them.

TheoremReport holds its checks as columns and builds BoundCheck and
LemmaCheck records only when they are read; the JSON writer lays the lemma
checks out with one %-template per chunk; a report load compares them
column by column; the frequency matrix shares one tuple between equal
rows. Each is held here to a plain reference written in this file.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

import roughcm.oracle as oracle_module
import roughcm.report as report_module
from conftest import build_system
from roughcm import (
    BoundCheck,
    GeneratorConfig,
    LemmaCheck,
    ReportFormatError,
    RoughClassifier,
    TheoremReport,
    ValidationReport,
    analyze_decision_system,
    confusion_bounds,
    confusion_matrix,
    decision_partition,
    granule_frequency_matrix,
    is_row_maximal,
    maximal_row_classifier,
    oracle_lower,
    oracle_upper,
    partition_by_attributes,
    predictor_set,
    random_decision_system,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
    validate_overlap,
    verify_theorems,
)
from roughcm.cli import main
from roughcm.report import _CHUNK, _json_parts, _parts, _Table, _text_parts


def _reference_checks(gfm, f, cm, bounds):
    """The records verify_theorems gives, built one record at a time from
    the per-element approximations and the predictor sets."""
    checks = []
    for j, (cb, block) in enumerate(zip(bounds.classes, gfm.decisions._members), start=1):
        nl = len(oracle_lower(gfm.granules, block))
        nu = len(oracle_upper(gfm.granules, block))
        checks.append(BoundCheck(1, j, (nl, cb.nl_star2, cb.nl_star, cb.class_size)))
        checks.append(BoundCheck(2, j, (cb.class_size, cb.nu_star, cb.nu_star2, nu)))
        if bounds.mrc_classifier:
            checks.append(BoundCheck(3, j, (nl, cb.nl_m, cb.nl_star2)))
            checks.append(BoundCheck(4, j, (cb.nl_star2, cb.nu_m, nu)))
    lemmas = []
    for i, (row, cls) in enumerate(zip(gfm.cells, f.assignment), start=1):
        if sum(row) in row:
            lemmas.append(LemmaCheck(1, i, cls == row.index(sum(row)) + 1))
    for j, block in enumerate(gfm.decisions._members, start=1):
        lower = oracle_lower(gfm.granules, block)
        lemmas.append(LemmaCheck(2, j, lower <= predictor_set(f, j, gfm.granules)))
    for i, row in enumerate(cm.cells):
        if row[i] == 0:
            lemmas.append(LemmaCheck(3, i + 1, not any(row)))
    return tuple(checks), tuple(lemmas)


def _random_stages(seed):
    """A seeded system, its frequency matrix, and a classifier that may or
    may not keep the overlap rule."""
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    sizes = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, min(5, n)))
    config = GeneratorConfig(n, *sizes, seed)
    ds = random_decision_system(config)
    gfm = granule_frequency_matrix(
        partition_by_attributes(ds, ds.condition_names), decision_partition(ds)
    )
    if seed % 3 == 0:
        f = maximal_row_classifier(gfm)
    else:
        f = RoughClassifier(tuple(rng.randint(1, gfm.k) for _ in gfm.cells), gfm.k)
    return gfm, f


@pytest.mark.parametrize("seed", range(60))
def test_the_records_read_from_the_columns_equal_a_record_by_record_build(seed):
    gfm, f = _random_stages(seed)
    cm = confusion_matrix(gfm, f)
    # bounds that claim the rule holds, so that every check applies and a
    # rule-breaking classifier fails some of them
    bounds = confusion_bounds(cm, ValidationReport(()), is_row_maximal(f, gfm))
    report = verify_theorems(gfm, f, cm, bounds)
    checks, lemmas = _reference_checks(gfm, f, cm, bounds)
    assert report.bound_checks == checks
    assert report.lemma_checks == lemmas
    assert all(type(c.passed) is bool for c in report.lemma_checks)
    assert report.overall_pass is all(c.passed for c in (*checks, *lemmas))
    # the records are built on each read, not kept
    assert report.lemma_checks is not report.lemma_checks
    if validate_overlap(f, gfm).satisfies_rule:
        assert report.overall_pass


def test_a_report_built_from_records_reads_them_back():
    bounds = (BoundCheck(1, 1, [1, 2, 2]), BoundCheck(2, 1, (3, 2)))
    lemmas = (LemmaCheck(1, 4, True), LemmaCheck(2, 1, False))
    report = TheoremReport(True, iter(bounds), lemmas, {"a": "b"})
    assert report.bound_checks == bounds
    assert report.bound_checks[0].chain == (1, 2, 2)
    assert report.lemma_checks == lemmas
    assert not report.overall_pass
    assert report._failures() == ([(2, 1, (3, 2))], [(2, 1)])
    assert TheoremReport(True, bounds[:1], lemmas[:1], {}).overall_pass
    assert TheoremReport(False, (), (), {}).overall_pass


def _lemma_dicts(n, failing=()):
    return [
        {"part": 1 + (i >= n - 2), "subject": i * 7919 + 1, "passed": i not in failing}
        for i in range(n)
    ]


def _lemma_table(dicts):
    return _Table((key, [d[key] for d in dicts]) for key in ("part", "subject", "passed"))


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("failing", [(), (0,), (_CHUNK,)])
def test_the_template_lemma_writer_matches_json_dumps(n, failing):
    dicts = _lemma_dicts(n, failing)
    assert "".join(_parts(_lemma_table(dicts), "")) == json.dumps(dicts, indent=2)
    nested = {"theorems": {"lemma_checks": _lemma_table(dicts), "after": 1}}
    expected = {"theorems": {"lemma_checks": dicts, "after": 1}}
    assert "".join(_parts(nested, "")) == json.dumps(expected, indent=2)


def test_equal_frequency_rows_are_one_tuple():
    rows = [(f"v{i % 40}", f"w{i % 3}", "yz"[i % 5 == 0]) for i in range(400)]
    ds = build_system(("a", "b", "d"), rows)
    granules, decisions = partition_by_attributes(ds, ("a", "b")), decision_partition(ds)
    gfm = granule_frequency_matrix(granules, decisions)
    counted = Counter(
        (granules.block_index[x], decisions.block_index[x]) for x in ds.universe
    )
    assert gfm.cells == tuple(
        tuple(counted[i, j] for j in range(gfm.k)) for i in range(gfm.m)
    )
    distinct = set(gfm.cells)
    assert len(distinct) < gfm.m
    assert len(set(map(id, gfm.cells))) == len(distinct)


@pytest.fixture
def data():
    """A saved report whose first two lemma checks are granules 1 and 2:
    granules {1, 2}, {3, 4}, {5, 6}; classes {1, 2, 5} and {3, 4, 6}."""
    report = analyze_decision_system(build_system(("a", "d"), list(zip("xxyyzz", "ppqqpq"))))
    return report_to_dict(report)


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda checks: checks[0].update(subject=True),
            "theorems.lemma_checks.0.subject is True, the report derives 1",
        ),
        (
            lambda checks: checks[0].update(note="x"),
            "theorems.lemma_checks.0: unknown keys 'note', missing keys none",
        ),
        (
            lambda checks: checks[0].update(part=1.0),
            "theorems.lemma_checks.0.part is 1.0, the report derives 1",
        ),
        (
            lambda checks: checks.insert(0, checks.pop(1)),
            "theorems.lemma_checks.0.subject is 2, the report derives 1",
        ),
        (
            lambda checks: checks[-1].update(passed=1),
            "theorems.lemma_checks.3.passed is 1, the report derives True",
        ),
    ],
)
def test_the_column_compare_names_lemma_differences_as_the_item_walk_does(
    data, edit, message
):
    edit(data["theorems"]["lemma_checks"])
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    assert str(info.value) == f"malformed report: {message}"


def test_parts_hold_at_most_a_chunk_of_ints(monkeypatch):
    # 2 classes of 300 ids and 3 granules of 200: each row is longer than a
    # chunk of 64 ints
    rows = [(f"v{i % 3}", "yz"[i % 2]) for i in range(600)]
    report = analyze_decision_system(build_system(("a", "d"), rows))
    text = report_to_json(report)
    monkeypatch.setattr(report_module, "_CHUNK", 64)
    parts = list(_json_parts(report))
    assert "".join(parts) == text == json.dumps(report_to_dict(report), indent=2) + "\n"
    # at most 64 ints of 3 digits with their separators, or a section of
    # fixed size written whole
    assert max(map(len, parts)) <= 64 * 30
    assert len(text) > 8 * 64 * 30
    # the text of 150 granules goes out at most 64 lines a part
    rows = [(f"v{i % 150}", "yz"[i % 2]) for i in range(600)]
    report = analyze_decision_system(build_system(("a", "d"), rows))
    parts = list(_text_parts(report))
    assert "".join(parts) == render_text(report)
    lines = [part.count("\n") + 1 for part in parts]
    assert max(lines) <= 64 and sum(lines) > 4 * 64


def _fixed_failing_stages(monkeypatch):
    """Every trial gets the six-object system of granules {1, 2}, {3, 4},
    {5}, {6} and classes {1, 3, 4}, {2, 5, 6}, an mrc stage that breaks
    the overlap rule, and a validation that claims the rule holds."""
    fixed = build_system(("a", "d"), list(zip("xxyyzw", "pqppqq")))
    monkeypatch.setattr(oracle_module, "random_decision_system", lambda config: fixed)
    monkeypatch.setattr(
        oracle_module,
        "maximal_row_classifier",
        lambda gfm, policy, seed: RoughClassifier((2, 2, 1, 2), 2),
    )
    monkeypatch.setattr(oracle_module, "validate_overlap", lambda f, gfm: ValidationReport(()))


FAILED_CHECKS = [
    "theorem1/class1",
    "theorem2/class1",
    "theorem1/class2",
    "theorem2/class2",
    "lemma1.1/2",
    "lemma1.1/3",
    "lemma1.2/1",
    "lemma1.2/2",
    "lemma1.3/1",
]


def test_a_failing_fuzz_trial_lists_theorems_then_lemmas(monkeypatch, capsys):
    _fixed_failing_stages(monkeypatch)
    assert main(["fuzz", "--trials", "2", "--seed", "3"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert (summary["checks"], summary["failures"], summary["result"]) == (4, 2, "fail")
    assert summary["first_failure"] == {
        "trial": 0,
        "classifier_kind": "mrc",
        "config": {
            "n_objects": 25,
            "n_attributes": 4,
            "values_per_attribute": 1,
            "n_decision_values": 2,
            "seed": 5507703767120788757,
        },
        "attributes": ["a"],
        "failed_checks": FAILED_CHECKS,
    }
    assert main(["fuzz", "--trials", "2", "--seed", "3", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  trials: 2   checks: 4   failures: 2   result: fail"
    assert lines[5:] == [
        "  first failure: trial 0 (mrc)",
        "    config: n_objects=25 n_attributes=4 values_per_attribute=1"
        " n_decision_values=2 seed=5507703767120788757",
        "    attributes: a",
        f"    failed checks: {', '.join(FAILED_CHECKS)}",
    ]
