"""Report assembly, JSON round-tripping, and text rendering."""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

import pytest

from roughcm import (
    AnalysisReport,
    ApproximationSummary,
    BoundCheck,
    ClassApproximation,
    OverlapViolationError,
    ReportFormatError,
    RoughAnalysisError,
    RoughClassifier,
    TheoremReport,
    TieBreak,
    ValidationReport,
    analyze_decision_system,
    fraction_from_triple,
    rational_triple,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
)


class TestRationalTriple:
    @pytest.mark.parametrize(
        "value,decimal",
        [
            (Fraction(2, 3), "0.666667"),
            (Fraction(1, 2), "0.500000"),
            (Fraction(5, 7), "0.714286"),
            (Fraction(0), "0.000000"),
            (Fraction(1), "1.000000"),
            (Fraction(5, 6), "0.833333"),
            # six-place rounding is round-half-even on the exact rational
            (Fraction(1, 2_000_000), "0.000000"),
            (Fraction(3, 2_000_000), "0.000002"),
        ],
    )
    def test_decimal_rendering(self, value, decimal):
        triple = rational_triple(value)
        assert triple["decimal"] == decimal
        assert triple["num"] == value.numerator
        assert triple["den"] == value.denominator

    def test_round_trip_ignores_decimal(self):
        triple = rational_triple(Fraction(22, 7))
        triple["decimal"] = "nonsense"
        assert fraction_from_triple(triple) == Fraction(22, 7)


@pytest.fixture
def tv_report(tv_system):
    return analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), source="tv.csv"
    )


class TestAnalyze:
    def test_worked_example_summary(self, tv_report):
        assert tv_report.source == "tv.csv"
        assert tv_report.attribute_names == ("Price", "Screen")
        assert tv_report.decision_name == "d"
        assert (tv_report.n_objects, tv_report.n_granules, tv_report.n_classes) == (6, 4, 2)
        assert tv_report.classifier.assignment == (1, 2, 2, 1)
        assert tv_report.classifier_kind == "mrc"
        assert tv_report.tie_break == "lowest"
        assert tv_report.seed == 0
        assert tv_report.row_maximal
        assert tv_report.confusion.cells == ((3, 1), (0, 2))
        assert tv_report.approximation.gamma == Fraction(2, 3)
        assert tv_report.success == Fraction(5, 6)
        assert tv_report.alpha_hat == (Fraction(3, 4), Fraction(2, 3))
        assert tv_report.alpha_overall == Fraction(5, 7)
        assert tv_report.theorems.overall_pass

    def test_attribute_order_follows_the_table(self, tv_system):
        report = analyze_decision_system(tv_system, attributes=("Screen", "Price"))
        assert report.attribute_names == ("Price", "Screen")

    def test_default_attributes_use_every_condition(self, tv_system):
        report = analyze_decision_system(tv_system)
        assert report.attribute_names == tv_system.condition_names
        assert report.n_granules == 6
        assert report.approximation.gamma == 1

    def test_custom_classifier(self, tv_system):
        f = RoughClassifier((2, 2, 2, 1), 2)
        report = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), classifier=f
        )
        assert report.classifier_kind == "custom"
        assert report.tie_break is None and report.seed is None
        assert report.confusion.cells == ((2, 0), (1, 3))
        assert report.success == Fraction(5, 6)

    def test_classifier_built_from_the_frequency_matrix(self, tv_system):
        f = RoughClassifier((2, 2, 2, 1), 2)
        seen = []

        def build(gfm):
            seen.append(gfm)
            return f

        report = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), classifier=build
        )
        assert seen == [report.frequency]
        assert report == analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), classifier=f
        )

    def test_rule_breaking_classifier_is_rejected(self, tv_system):
        f = RoughClassifier((1, 2, 2, 2), 2)
        with pytest.raises(OverlapViolationError, match=r"granule\(s\) 4") as info:
            analyze_decision_system(
                tv_system, attributes=("Price", "Screen"), classifier=f
            )
        assert info.value.violations == (4,)

    def test_tie_break_highest(self, tv_system):
        report = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), tie_break=TieBreak.HIGHEST
        )
        assert report.classifier.assignment == (2, 2, 2, 1)
        assert report.confusion.cells == ((2, 0), (1, 3))


class TestSerialization:
    def test_dict_layout(self, tv_report):
        data = report_to_dict(tv_report)
        assert list(data) == [
            "input",
            "granules",
            "decision_classes",
            "granule_matrix",
            "classifier",
            "confusion_matrix",
            "indices",
            "bounds",
            "theorems",
        ]
        assert data["granules"] == [[1, 6], [2], [3], [4, 5]]
        assert data["decision_classes"] == [[1, 4, 5], [2, 3, 6]]
        assert data["granule_matrix"]["cells"] == [[1, 1], [0, 1], [0, 1], [2, 0]]
        assert data["classifier"]["assignment"] == [[1, 1], [2, 2], [3, 2], [4, 1]]
        assert data["confusion_matrix"]["cells"] == [[3, 1], [0, 2]]
        assert data["indices"]["gamma"] == {"num": 2, "den": 3, "decimal": "0.666667"}
        assert data["indices"]["success_ratio"]["decimal"] == "0.833333"
        bounds = data["bounds"]["classes"]
        assert [row["nl_star"] for row in bounds] == [3, 2]
        assert [row["nl_star2"] for row in bounds] == [2, 2]
        assert [row["nu_star"] for row in bounds] == [4, 3]
        assert [row["nu_star2"] for row in bounds] == [4, 4]
        assert [row["nl_m"] for row in bounds] == [2, 2]
        assert [row["nu_m"] for row in bounds] == [4, 4]
        assert data["theorems"]["overall_pass"] is True

    def test_round_trip_is_lossless(self, tv_report):
        rebuilt = report_from_dict(report_to_dict(tv_report))
        assert rebuilt == tv_report

    def test_round_trip_through_json_text(self, tv_report):
        rebuilt = report_from_dict(json.loads(report_to_json(tv_report)))
        assert rebuilt == tv_report

    def test_json_is_byte_stable(self, tv_system):
        first = report_to_json(
            analyze_decision_system(tv_system, attributes=("Price", "Screen"))
        )
        second = report_to_json(
            analyze_decision_system(tv_system, attributes=("Price", "Screen"))
        )
        assert first == second
        assert first.endswith("\n")

    def test_custom_classifier_round_trip(self, tv_system):
        report = analyze_decision_system(
            tv_system,
            attributes=("Price", "Screen"),
            classifier=RoughClassifier((2, 2, 2, 1), 2),
        )
        assert report_from_dict(report_to_dict(report)) == report


class TestRenderText:
    def test_worked_example_sections(self, tv_report):
        text = render_text(tv_report)
        assert "Input: tv.csv" in text
        assert "X1 = {1, 6}" in text
        assert "Y2 = {2, 3, 6}" in text
        assert "Granule frequency matrix" in text
        assert "Confusion matrix (rows: predicted, columns: true)" in text
        assert "gamma (approximation quality): 2/3 (0.666667)" in text
        assert "success ratio: 5/6 (0.833333)" in text
        assert "alpha (aggregate accuracy): 5/7 (0.714286)" in text
        assert "X1 -> Y1, X2 -> Y2, X3 -> Y2, X4 -> Y1" in text
        assert "overlap rule: satisfied" in text
        assert "row-maximal: yes" in text
        assert "nl^m" in text and "nu^m" in text
        assert "Theorem checks: 8/8 bound chains, 5/5 lemma checks -> PASS" in text
        assert "FAILED" not in text

    def test_custom_classifier_header(self, tv_system):
        report = analyze_decision_system(
            tv_system,
            attributes=("Price", "Screen"),
            classifier=RoughClassifier((1, 2, 2, 1), 2),
        )
        text = render_text(report)
        assert "Classifier: custom mapping" in text
        assert "tie-break" not in text

    def test_matrix_margins_present(self, tv_report):
        text = render_text(tv_report)
        gfm_block = text.split("Granule frequency matrix")[1].split("\n\n")[0]
        assert "size" in gfm_block
        cm_block = text.split("Confusion matrix")[1].split("\n\n")[0]
        assert "sum" in cm_block


def _drop(*path):
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        del data[last]

    return edit


def _put(value, *path):
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value

    return edit


def _both(*edits):
    def edit(data):
        for one in edits:
            one(data)

    return edit


class TestMalformedReports:
    """Every malformed report dict fails with ReportFormatError, never a bare error."""

    @pytest.mark.parametrize(
        "edit",
        [
            _drop("input"),
            _drop("input", "source"),
            _drop("input", "objects"),
            _drop("granules"),
            _drop("granule_matrix", "cells"),
            _drop("classifier", "assignment"),
            _drop("indices", "success_ratio"),
            _drop("bounds", "classes", 0, "nl_m"),
            _drop("theorems", "context"),
        ],
    )
    def test_missing_key(self, tv_report, edit):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError, match="missing key|malformed"):
            report_from_dict(data)

    @pytest.mark.parametrize(
        "edit",
        [
            _put(5, "granules"),
            _put("oops", "granule_matrix", "cells"),
            _put([[3, "1"], [0, 2]], "confusion_matrix", "cells"),
            _put([[1]], "classifier", "assignment"),
            _put([2, 3], "indices", "gamma"),
            _put({"num": 5, "den": 0, "decimal": "-"}, "indices", "alpha_overall"),
            _put("3", "bounds", "classes", 0, "nl_star"),
            _put(None, "theorems", "lemma_checks"),
        ],
    )
    def test_wrongly_typed_value(self, tv_report, edit):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError, match="malformed"):
            report_from_dict(data)

    def test_not_a_dict(self):
        with pytest.raises(RoughAnalysisError, match="malformed"):
            report_from_dict([])

    @pytest.mark.parametrize(
        "edit",
        [
            _put([2, 0], "granule_matrix", "cells", 0),
            _put([[3, 1, 0], [0, 2, 0]], "confusion_matrix", "cells"),
            _put(rational_triple(Fraction(1, 2)), "indices", "gamma"),
            _put(1, "bounds", "classes", 0, "nu_star"),
            _put(False, "theorems", "bound_checks", 0, "passed"),
            _put([[1, 1], [2, 2], [3, 2], [4, 3]], "classifier", "assignment"),
        ],
    )
    def test_invariant_violation(self, tv_report, edit):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError, match="malformed"):
            report_from_dict(data)

    @pytest.mark.parametrize(
        "edit,name",
        [
            (_put(99, "input", "objects"), "input.objects"),
            (_put(99, "input", "granules"), "input.granules"),
            (_put(3, "input", "classes"), "input.classes"),
            (
                _put(rational_triple(Fraction(1, 2)), "indices", "success_ratio"),
                "indices.success_ratio",
            ),
        ],
    )
    def test_stored_value_disagrees_with_the_derived_one(self, tv_report, edit, name):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError, match=name):
            report_from_dict(data)

    def test_derived_fields_follow_the_stages(self, tv_report):
        assert tv_report.n_objects == len(tv_report.granules.universe) == 6
        assert tv_report.n_granules == tv_report.frequency.m == 4
        assert tv_report.n_classes == tv_report.frequency.k == 2
        assert tv_report.granules is tv_report.frequency.granules
        assert tv_report.decisions is tv_report.frequency.decisions


class TestTamperedCopies:
    """A stored copy that disagrees with the value derived from the facts is
    rejected, and the message names its dotted path."""

    @pytest.mark.parametrize(
        "edit,path",
        [
            (
                _put([[2, 0], [0, 1], [0, 1], [1, 1]], "granule_matrix", "cells"),
                "granule_matrix.cells.0",
            ),
            (
                _put([[1, 2], [2, 2], [3, 2], [4, 1]], "classifier", "assignment"),
                "confusion_matrix.cells.0",
            ),
            (_put(False, "classifier", "row_maximal"), "classifier.row_maximal"),
            (_put(99, "granule_matrix", "total"), "granule_matrix.total"),
            (_put([3, 3], "confusion_matrix", "row_sums"), "confusion_matrix.row_sums.0"),
            (
                _put(rational_triple(Fraction(1, 2)), "indices", "classes", 0, "alpha_hat"),
                "indices.classes.0.alpha_hat",
            ),
            (
                _put(rational_triple(Fraction(1, 2)), "indices", "alpha_overall"),
                "indices.alpha_overall",
            ),
            (_put(9, "bounds", "classes", 0, "nl_star"), "bounds.classes.0.nl_star"),
            (
                _both(
                    _put(False, "classifier", "satisfies_overlap"),
                    _put([2], "classifier", "violations"),
                ),
                "classifier.satisfies_overlap",
            ),
        ],
    )
    def test_tampered_copy_is_rejected(self, tv_report, edit, path):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError) as info:
            report_from_dict(data)
        assert str(info.value).startswith(f"malformed report: {path}")

    def test_granule_index_of_the_assignment_is_checked(self, tv_report):
        data = report_to_dict(tv_report)
        data["classifier"]["assignment"][1][0] = 7
        with pytest.raises(ReportFormatError, match=r"classifier\.assignment\.1\.0 is 7"):
            report_from_dict(data)

    def test_a_missing_class_row_is_rejected(self, tv_report):
        data = report_to_dict(tv_report)
        del data["indices"]["classes"][1]
        with pytest.raises(ReportFormatError, match="^malformed report:"):
            report_from_dict(data)

    @pytest.mark.parametrize(
        "cls,names",
        [
            (ValidationReport, ["satisfies_rule"]),
            (BoundCheck, ["passed"]),
            (TheoremReport, ["overall_pass"]),
            (ClassApproximation, ["lower_coverage", "upper_precision", "accuracy"]),
            (ApproximationSummary, ["gamma"]),
            (AnalysisReport, ["row_maximal", "alpha_hat", "alpha_overall"]),
        ],
    )
    def test_derived_values_are_properties(self, cls, names):
        stored = {field.name for field in fields(cls)}
        for name in names:
            assert name not in stored
            assert isinstance(getattr(cls, name), property)

    def test_derived_values_follow_their_sources(self, tv_report):
        assert tv_report.row_maximal is tv_report.bounds.mrc_classifier
        assert tv_report.alpha_hat == (Fraction(3, 4), Fraction(2, 3))
        assert tv_report.alpha_overall == Fraction(5, 7)
        assert tv_report.validation.satisfies_rule
        first = tv_report.approximation.classes[0]
        assert (first.lower_coverage, first.upper_precision, first.accuracy) == (
            Fraction(2, 3), Fraction(3, 4), Fraction(1, 2)
        )
        assert BoundCheck(1, 1, (2, 3, 3)).passed
        assert not BoundCheck(1, 1, (3, 2)).passed
