"""One judgement per (frequency matrix, classifier) pair.

The stages that follow the classifier (the overlap validation, the
confusion matrix, its bounds and the theorem record) are built by
`oracle._judge` alone, and the analysis, the report load and every fuzz
trial take them from it, so the chain cannot fork into two orders again.
The bounds keep one plain row per class: the verifier and both report
writers read the rows, and only the bounds' record view builds records.
The structural checks read the package with the standard library's `ast`,
as tests/test_no_orphans.py does. A trial whose record is not applicable
is pinned here too.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import roughcm.oracle as oracle_module
from roughcm import ValidationReport, run_fuzz_trials
from roughcm.cli import main

SOURCES = sorted((Path(__file__).parents[1] / "src" / "roughcm").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
STAGES = (
    "validate_overlap",
    "confusion_matrix",
    "is_row_maximal",
    "confusion_bounds",
    "verify_theorems",
)
JUDGE = ("oracle.py", "_judge")


def _readers(name: str) -> set[tuple[str, str]]:
    """(module file, dotted function) of each place in the package that
    reads `name` as a bare name or an attribute; "<module>" is top-level
    code. Defining or importing a name does not read it."""
    readers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            read = getattr(child, "id", None) or getattr(child, "attr", None)
            if read == name and isinstance(child.ctx, ast.Load):
                readers.add((module, ".".join(scope) or "<module>"))
            visit(child, module, scope)

    for module, tree in TREES.items():
        visit(tree, module, [])
    return readers


def test_the_package_sources_are_found():
    assert "oracle.py" in TREES and "report.py" in TREES


def test_only_the_judgement_builds_the_stages_after_the_classifier():
    assert {name: _readers(name) for name in STAGES} == {name: {JUDGE} for name in STAGES}


def test_the_analysis_the_load_and_fuzz_share_the_judgement():
    # an analysis and a report load both assemble through report._assemble
    # every fuzz trial, whichever process runs its shard, through the one trial loop
    assert _readers("_judge") == {("report.py", "_assemble"), ("oracle.py", "_fuzz_shard")}
    assert _readers("_assemble") == {
        ("report.py", "analyze_decision_system"),
        ("report.py", "_rebuild"),
    }


def test_only_the_bounds_record_view_reads_the_record_class():
    # the module-level field list, then BoundsReport's record view: the
    # field's annotation, the constructor that takes records and the
    # property that builds them
    assert _readers("ClassBounds") == {
        ("indices.py", "<module>"),
        ("indices.py", "BoundsReport"),
        ("indices.py", "BoundsReport.__init__"),
        ("indices.py", "BoundsReport.classes"),
    }


def test_the_verifier_and_both_writers_read_the_bound_rows():
    assert _readers("_rows") == {
        ("indices.py", "BoundsReport.classes"),
        ("oracle.py", "verify_theorems"),
        ("report.py", "_sections"),
        ("report.py", "_text_parts"),
    }


def test_only_the_maximal_row_classifier_builds_row_maxima():
    """The row-maximality test checks each (row, class) pair itself: in
    classifiers.py only the mrc reads the distinct rows, and no shared
    row-maxima map is left for the two to read."""
    assert {reader for reader in _readers("_distinct") if reader[0] == "classifiers.py"} == {
        ("classifiers.py", "maximal_row_classifier")
    }
    defined = {
        node.name
        for node in ast.walk(TREES["classifiers.py"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert "maximal_row_classifier" in defined and "_row_maxima" not in defined


def _rule_always_broken(monkeypatch):
    """Every classifier is judged to break the overlap rule at granule 1,
    so every theorem record is not applicable."""
    monkeypatch.setattr(oracle_module, "validate_overlap", lambda f, gfm: ValidationReport((1,)))


FIRST_FAILURE = {
    "trial": 0,
    "classifier_kind": "mrc",
    "config": {
        "n_objects": 25,
        "n_attributes": 4,
        "values_per_attribute": 1,
        "n_decision_values": 2,
        "seed": 5507703767120788757,
    },
    "attributes": ["a1"],
    "failed_checks": ["not-applicable"],
}


def test_a_not_applicable_record_is_a_failure(monkeypatch):
    _rule_always_broken(monkeypatch)
    summary = run_fuzz_trials(trials=3, base_seed=3)
    assert (summary.checks, summary.failures) == (6, 6)
    assert summary.first_failure.failed_checks == ("not-applicable",)
    assert summary.first_failure.attributes == tuple(FIRST_FAILURE["attributes"])


def test_a_not_applicable_record_is_written_as_the_first_failure(monkeypatch, capsys):
    _rule_always_broken(monkeypatch)
    assert main(["fuzz", "--trials", "2", "--seed", "3"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert (summary["checks"], summary["failures"], summary["result"]) == (4, 4, "fail")
    assert summary["first_failure"] == FIRST_FAILURE
    assert main(["fuzz", "--trials", "2", "--seed", "3", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  trials: 2   checks: 4   failures: 4   result: fail"
    assert lines[5:] == [
        "  first failure: trial 0 (mrc)",
        "    config: n_objects=25 n_attributes=4 values_per_attribute=1"
        " n_decision_values=2 seed=5507703767120788757",
        "    attributes: a1",
        "    failed checks: not-applicable",
    ]
