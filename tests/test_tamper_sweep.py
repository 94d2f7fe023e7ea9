"""A report dict loads exactly when it is what a save would write.

The golden analyze reports load and save back byte for byte. Every edit of
one of their values, keys or list entries is then refused, except edits of
the free-text provenance (source, attributes, decision), which is stored
as read. Consistent tampers, where every copy of a value is rewritten
together, are refused too: the theorem record and its context are derived
on load, not read.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from roughcm import (
    ReportFormatError,
    TieBreak,
    analyze_decision_system,
    report_from_dict,
    report_to_dict,
    report_to_json,
)

GOLDEN = Path(__file__).parent / "golden"
REPORTS = ["analyze_mrc.json", "analyze_custom.json"]
FREE_TEXT = {("input", "source"), ("input", "attributes"), ("input", "decision")}


def _walk(value, path=()):
    """Every (path, value) pair below and including `value`."""
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from _walk(item, (*path, key))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _walk(item, (*path, index))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _leaf_edits(value):
    """The replacements tried for one leaf value."""
    if type(value) is bool:
        return [not value]
    if type(value) is int:
        return [value + 1, value - 1, float(value)]
    if type(value) is str:
        return [value + "x"]
    return [0]  # null


def _edits(text, kind):
    """(description, edited dict) for each edit of one kind."""
    for path, value in _walk(json.loads(text)):
        if path[:2] in FREE_TEXT:
            continue
        if kind == "leaf" and type(value) not in (dict, list):
            for replacement in _leaf_edits(value):
                data = json.loads(text)
                _at(data, path[:-1])[path[-1]] = replacement
                yield f"{path} = {replacement!r}", data
        elif kind == "add key" and type(value) is dict:
            data = json.loads(text)
            _at(data, path)["extra"] = 0
            yield f"{path} + 'extra'", data
        elif kind == "drop key" and type(value) is dict:
            for key in value:
                data = json.loads(text)
                del _at(data, path)[key]
                yield f"{path} - {key!r}", data
        elif kind == "drop entry" and type(value) is list:
            for index in range(len(value)):
                data = json.loads(text)
                del _at(data, path)[index]
                yield f"{path} - [{index}]", data


@pytest.mark.parametrize("golden", REPORTS)
def test_a_golden_report_loads_and_saves_back_byte_for_byte(golden):
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    assert report_to_json(report_from_dict(json.loads(text))) == text


@pytest.mark.parametrize("kind", ["leaf", "add key", "drop key", "drop entry"])
@pytest.mark.parametrize("golden", REPORTS)
def test_every_edit_of_a_golden_report_is_refused(golden, kind):
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    loaded = []
    tried = 0
    for description, data in _edits(text, kind):
        tried += 1
        try:
            report_from_dict(data)
        except ReportFormatError as exc:
            assert str(exc).startswith("malformed report: ")
        else:
            loaded.append(description)
    assert tried > 0
    assert loaded == []


@pytest.fixture
def mrc_text():
    return (GOLDEN / "analyze_mrc.json").read_text(encoding="utf-8")


def _chain(data):
    data["theorems"]["bound_checks"][0]["chain"] = [1, 1, 1, 1]


def _flag(data):
    data["theorems"]["lemma_checks"][0]["passed"] = False
    data["theorems"]["overall_pass"] = False


def _no_lemma(data):
    del data["theorems"]["lemma_checks"][0]


def _not_applicable(data):
    data["theorems"].update(applicable=False, bound_checks=[], lemma_checks=[])


def _context(data):
    data["theorems"]["context"] = {"classifier": "mrc", "note": "edited"}


def _unsorted_block(data):
    data["granules"][0].reverse()


def _reordered_blocks(data):
    data["granules"].reverse()


def _extra_key(data):
    data["comment"] = "edited"


@pytest.mark.parametrize(
    "edit,path",
    [
        (_chain, "theorems.bound_checks.0.chain.0"),
        (_flag, "theorems.overall_pass"),
        (_no_lemma, "theorems.lemma_checks"),
        (_not_applicable, "theorems.applicable"),
        (_context, "theorems.context: unknown keys 'note', missing keys 'row_maximal', "),
        (_unsorted_block, "granules.0.0 is 6, the report derives 1"),
        (_reordered_blocks, "granules.0.0"),
        (_extra_key, "top level: unknown keys 'comment', missing keys none"),
    ],
)
def test_a_consistent_tamper_is_refused(mrc_text, edit, path):
    data = json.loads(mrc_text)
    edit(data)
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    assert str(info.value).startswith(f"malformed report: {path}")


class TestProvenance:
    """The classifier's kind, tie-break and seed are checked the way
    analyze_decision_system records them."""

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"kind": "bogus"}, "classifier.kind must be 'mrc' or 'custom'"),
            ({"kind": None}, "classifier.kind must be 'mrc' or 'custom'"),
            ({"tie_break": "bogus"}, "classifier.tie_break of an mrc classifier"),
            ({"tie_break": None}, "classifier.tie_break of an mrc classifier"),
            ({"tie_break": ["lowest"]}, "classifier.tie_break of an mrc classifier"),
            ({"seed": None}, "classifier.seed of an mrc classifier must be int"),
            ({"seed": 0.0}, "classifier.seed of an mrc classifier must be int"),
            ({"seed": False}, "classifier.seed of an mrc classifier must be int"),
            ({"kind": "custom"}, "classifier.tie_break and classifier.seed of a custom"),
        ],
    )
    def test_bogus_mrc_provenance_is_refused(self, mrc_text, changes, message):
        data = json.loads(mrc_text)
        data["classifier"].update(changes)
        with pytest.raises(ReportFormatError, match=f"^malformed report: {message}"):
            report_from_dict(data)

    @pytest.mark.parametrize(
        "changes",
        [{"kind": "mrc"}, {"tie_break": "lowest"}, {"seed": 0}],
    )
    def test_bogus_custom_provenance_is_refused(self, changes):
        data = json.loads((GOLDEN / "analyze_custom.json").read_text(encoding="utf-8"))
        data["classifier"].update(changes)
        with pytest.raises(ReportFormatError, match="^malformed report: classifier"):
            report_from_dict(data)

    def test_an_mrc_assignment_must_be_the_one_its_tie_break_gives(self, tv_system):
        # tie-break "highest" sends the tied granule 1 to class 2; relabel
        # every copy of the tie-break as "lowest", which sends it to class 1
        data = report_to_dict(
            analyze_decision_system(
                tv_system, attributes=("Price", "Screen"), tie_break=TieBreak.HIGHEST
            )
        )
        data["classifier"]["tie_break"] = "lowest"
        data["theorems"]["context"]["tie_break"] = "lowest"
        with pytest.raises(ReportFormatError) as info:
            report_from_dict(data)
        assert str(info.value) == (
            "malformed report: classifier.assignment.0.1 is 2, the report derives 1"
        )

    @pytest.mark.parametrize("tie_break", list(TieBreak))
    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_every_mrc_provenance_round_trips(self, tv_system, tie_break, seed):
        report = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), tie_break=tie_break, seed=seed
        )
        text = report_to_json(report)
        assert report_from_dict(json.loads(text)) == report


@pytest.mark.parametrize(
    "index,message",
    [
        (0, "has 4 entries, the report derives 5; they first differ at entry 0"),
        (2, "has 4 entries, the report derives 5; they first differ at entry 2"),
        (-1, "has 4 entries, the report derives 5; they first differ at entry 4"),
    ],
)
def test_a_missing_list_entry_is_named_by_its_index(mrc_text, index, message):
    data = json.loads(mrc_text)
    del data["theorems"]["lemma_checks"][index]
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    assert str(info.value) == f"malformed report: theorems.lemma_checks {message}"


def test_an_extra_list_entry_is_named_by_its_index(mrc_text):
    data = json.loads(mrc_text)
    data["theorems"]["bound_checks"].insert(1, data["theorems"]["bound_checks"][3])
    with pytest.raises(ReportFormatError) as info:
        report_from_dict(data)
    assert str(info.value) == (
        "malformed report: theorems.bound_checks has 9 entries, "
        "the report derives 8; they first differ at entry 1"
    )
