"""One assembly builds every report.

`report._assemble` checks the provenance and name rules, then builds the
frequency matrix, the classifier and the report; the analysis and the
report load both call it, so neither can build a report the other would
refuse. Every report an analysis returns saves and loads back equal, and
an analysis refuses, with the load's message, what a load refuses. The
structural check reads report.py with the standard library's `ast`, as
tests/test_one_judgement.py does.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from roughcm import (
    ReportFormatError,
    RoughClassifier,
    TieBreak,
    analyze_decision_system,
    report_from_dict,
    report_to_dict,
    report_to_json,
)

from conftest import TV_HEADER, TV_ROWS, build_system

REPORT = Path(__file__).parents[1] / "src" / "roughcm" / "report.py"
BUILDERS = ("maximal_row_classifier", "granule_frequency_matrix", "AnalysisReport")
ATTRIBUTES = ("Price", "Screen")


def _callers(tree: ast.Module) -> dict[str, set[str]]:
    """Each builder called in the module, as a bare name or an attribute,
    with the top-level functions whose bodies call it ("<module>" for
    top-level code)."""
    callers: dict[str, set[str]] = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in BUILDERS:
                    callers.setdefault(called, set()).add(getattr(top, "name", "<module>"))
    return callers


def test_only_the_assembly_builds_a_report():
    tree = ast.parse(REPORT.read_text(encoding="utf-8"))
    assert _callers(tree) == {name: {"_assemble"} for name in BUILDERS}


def _round_trip(report):
    text = report_to_json(report)
    loaded = report_from_dict(json.loads(text))
    assert loaded == report
    assert report_to_json(loaded) == text


@pytest.mark.parametrize("seed", [-3, 0, 2**70])
@pytest.mark.parametrize("tie_break", list(TieBreak))
def test_every_mrc_report_saves_and_loads_back_equal(tv_system, tie_break, seed):
    report = analyze_decision_system(
        tv_system, attributes=ATTRIBUTES, tie_break=tie_break, seed=seed
    )
    assert (report.classifier_kind, report.tie_break, report.seed) == (
        "mrc",
        tie_break.value,
        seed,
    )
    _round_trip(report)


def test_a_custom_classifier_ignores_the_seed_and_round_trips(tv_system):
    report = analyze_decision_system(
        tv_system,
        attributes=ATTRIBUTES,
        classifier=RoughClassifier((2, 2, 2, 1), 2),
        seed=1.5,
    )
    assert (report.classifier_kind, report.tie_break, report.seed) == ("custom", None, None)
    _round_trip(report)


def test_an_empty_attribute_name_round_trips():
    ds = build_system(("", "d"), [("a", "x"), ("b", "y"), ("a", "y")])
    report = analyze_decision_system(ds)
    assert report.attribute_names == ("",)
    _round_trip(report)


def _renamed(old, new):
    """The TV table with one attribute renamed; the decision stays last."""
    return build_system(tuple(new if name == old else name for name in TV_HEADER), TV_ROWS)


def _load_error(edit_path, value):
    """The message report_from_dict gives for the TV report's dict with one
    provenance value replaced."""
    data = report_to_dict(analyze_decision_system(build_system(TV_HEADER, TV_ROWS)))
    *parents, last = edit_path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    return str(info.value).removeprefix("malformed report: ")


@pytest.mark.parametrize(
    "analysis,edit_path,value",
    [
        *(
            ({"seed": seed}, ("classifier", "seed"), seed)
            for seed in (1.5, True, None, "7")
        ),
        ({"source": 5}, ("input", "source"), 5),
        ({"ds": _renamed("Price", 5)}, ("input", "attributes"), [5, "Guarantee"]),
        ({"ds": _renamed("d", 5)}, ("input", "decision"), 5),
    ],
    ids=["seed-1.5", "seed-True", "seed-None", "seed-str", "source", "condition", "decision"],
)
def test_the_analysis_refuses_what_the_load_refuses(analysis, edit_path, value):
    analysis = dict(analysis)
    ds = analysis.pop("ds", build_system(TV_HEADER, TV_ROWS))
    with pytest.raises(TypeError) as info:
        analyze_decision_system(ds, **analysis)
    assert str(info.value) == _load_error(edit_path, value)


@pytest.mark.parametrize(
    "attributes", [[], ["Price", "Price"], ["Price", "d"]], ids=["none", "repeated", "decision"]
)
def test_the_load_refuses_attributes_no_analysis_records(tv_system, attributes):
    data = report_to_dict(analyze_decision_system(tv_system, attributes=ATTRIBUTES))
    data["input"]["attributes"] = attributes
    with pytest.raises(ReportFormatError, match="input.attributes must be distinct"):
        report_from_dict(data)


def test_a_rewritten_mrc_assignment_is_named_where_it_differs(tv_system):
    data = report_to_dict(analyze_decision_system(tv_system, attributes=ATTRIBUTES))
    data["classifier"]["assignment"][2] = [3, 1]
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    assert str(info.value) == (
        "malformed report: classifier.assignment.2.1 is 1, the report derives 2"
    )
