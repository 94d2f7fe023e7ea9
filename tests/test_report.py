"""Report assembly, JSON round-tripping, and text rendering."""

from __future__ import annotations

import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    confusion_bounds,
    confusion_matrix,
    fraction_from_triple,
    is_row_maximal,
    rational_triple,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
    validate_overlap,
    verify_theorems,
)
import roughcm.report as report_module
from roughcm.report import _parts

from conftest import build_system


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

    @given(st.fractions())
    def test_every_written_triple_loads(self, value):
        assert fraction_from_triple(rational_triple(value)) == value

    @pytest.mark.parametrize(
        "triple,message",
        [
            ({"num": 1, "den": 0}, "1/0 is not in lowest terms with den > 0"),
            ({"num": 1.5, "den": 2}, "num and den must be int, not float"),
            ({"num": 1}, "num and den must be int, not null"),
            ({"num": True, "den": 2}, "num and den must be int, not bool"),
            ({"num": 2, "den": -4}, "2/-4 is not in lowest terms with den > 0"),
            ({"num": 2, "den": 4}, "2/4 is not in lowest terms with den > 0"),
            ([1, 2], "a rational triple must be dict, not list"),
            (None, "a rational triple must be dict, not null"),
            ("1/2", "a rational triple must be dict, not str"),
        ],
        ids=[
            "zero-den", "float-num", "missing-den", "bool-num", "negative-den", "unreduced",
            "list", "null", "str",
        ],
    )
    def test_a_triple_rational_triple_cannot_write_is_refused(self, triple, message):
        with pytest.raises(ReportFormatError, match=f"^malformed rational triple: {message}$"):
            fraction_from_triple(triple)


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

    def test_tie_break_value_string(self, tv_system):
        by_value = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), tie_break="highest"
        )
        by_member = analyze_decision_system(
            tv_system, attributes=("Price", "Screen"), tie_break=TieBreak.HIGHEST
        )
        assert by_value == by_member
        assert by_value.tie_break == "highest"

    @pytest.mark.parametrize("tie_break", ["HIGHEST", "best", None])
    def test_an_unknown_tie_break_is_rejected(self, tv_system, tie_break):
        with pytest.raises(ValueError, match="is not a valid TieBreak"):
            analyze_decision_system(tv_system, tie_break=tie_break)


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


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**70), 2**70)
    | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


def _lazy(value):
    """`value` with every list that a dict holds given as an iterator."""
    if type(value) is not dict:
        return value
    return {k: iter(v) if type(v) is list else _lazy(v) for k, v in value.items()}


class TestJsonWriter:
    """report_to_json's writer lays values out exactly as json.dumps(indent=2)."""

    @given(st.one_of(_json_values, st.lists(st.lists(st.integers()), min_size=1)))
    @example([[1, -2], [3]])
    @example([[1], []])
    def test_matches_json_dumps(self, value):
        assert "".join(_parts(value, "")) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, (1, 2), {1: 2}, [1, 2.5], [[1], [2.5]], {"a": [(1,)]}]
    )
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            "".join(_parts(value, ""))

    @given(st.dictionaries(st.text(), _json_values), st.integers(1, 3))
    @example({"a": [], "b": {"c": [[1], [2, 3], [4]]}, "d": {}}, 2)
    def test_lists_given_as_iterators_are_written_in_chunks(self, value, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "_CHUNK", chunk)
            parts = _parts(_lazy(value), "")
            assert "".join(parts) == json.dumps(value, indent=2)


def _medium_table(n_values: int, seed: int):
    """3,000 seeded rows over 3 attributes and 4 decisions."""
    rng = random.Random(seed)
    header = ("a", "b", "c", "d")
    # a third of the attribute combinations decide the class
    fixed: dict[tuple[str, ...], str | None] = {}
    rows = []
    for _ in range(3_000):
        key = tuple(f"v{rng.randrange(n_values)}" for _ in range(3))
        if key not in fixed:
            fixed[key] = f"y{rng.randrange(4)}" if rng.random() < 1 / 3 else None
        rows.append((*key, fixed[key] or f"y{rng.randrange(4)}"))
    return build_system(header, rows)


def _meeting_classifier(seed: int):
    """A seeded classifier that gives each granule a class it meets."""

    def build(gfm):
        rng = random.Random(seed)
        return RoughClassifier(
            tuple(
                rng.choice([j for j, count in enumerate(row, start=1) if count])
                for row in gfm.cells
            ),
            gfm.k,
        )

    return build


def _row_grid(corner, col_labels, row_labels, rows):
    """Row-by-row table layout, kept here as an independent reference for
    render_text: widths per column over every row, labels left-aligned."""
    table = [[corner, *col_labels]]
    for label, row in zip(row_labels, rows):
        table.append([label, *(str(v) for v in row)])
    widths = [max(len(line[c]) for line in table) for c in range(len(table[0]))]
    lines = []
    for line in table:
        first = line[0].ljust(widths[0])
        rest = "  ".join(v.rjust(w) for v, w in zip(line[1:], widths[1:]))
        lines.append(f"  {first}  {rest}".rstrip())
    return lines


_MEDIUM = pytest.mark.parametrize(
    "n_values,classifier,granules,row_maximal",
    [
        (4, None, range(1, 65), True),
        (30, _meeting_classifier(7), range(2_500, 3_001), False),
    ],
    ids=["coarse-mrc", "fine-mapping"],
)


class TestMediumReports:
    """Reports far larger than the worked example, one m << n and one m ~ n;
    the second classifier is not row-maximal, so its sharp bounds are null."""

    @_MEDIUM
    def test_json_matches_json_dumps_and_round_trips(
        self, n_values, classifier, granules, row_maximal
    ):
        report = analyze_decision_system(
            _medium_table(n_values, seed=n_values), classifier=classifier
        )
        assert report.n_granules in granules
        assert report.row_maximal is row_maximal
        text = report_to_json(report)
        assert text == json.dumps(report_to_dict(report), indent=2) + "\n"
        assert report_to_json(report_from_dict(json.loads(text))) == text

    @_MEDIUM
    def test_text_layout_matches_a_row_by_row_grid(
        self, n_values, classifier, granules, row_maximal
    ):
        report = analyze_decision_system(
            _medium_table(n_values, seed=n_values), classifier=classifier
        )
        _assert_tables_row_by_row(report)

    def test_ten_or_more_classes_are_laid_out_row_by_row(self):
        """Y10 and up are wider than Y1: some columns are as wide as their
        label, others as their widest entry, which Y12, the largest class,
        holds in the index and bound tables."""
        labels = [f"y{j:02d}" for j in range(12)]
        weights = [3, 3, 3, *[40] * 8, 1_200]
        rng = random.Random(5)
        # a row of each class first numbers the classes in this order
        rows = [("v0", "w0", label) for label in labels]
        # three in ten attribute pairs decide the class
        fixed = {}
        for _ in range(2_000):
            key = (f"v{rng.randrange(12)}", f"w{rng.randrange(12)}")
            if key not in fixed:
                fixed[key] = rng.choices(labels, weights)[0] if rng.random() < 0.3 else None
            rows.append((*key, fixed[key] or rng.choices(labels, weights)[0]))
        report = analyze_decision_system(build_system(("a", "b", "d"), rows))
        sizes = report.frequency.class_sizes
        assert len(sizes) == 12 and max(sizes) == sizes[-1]
        label_wider = [len(f"Y{j}") > len(str(size)) for j, size in enumerate(sizes, 1)]
        assert True in label_wider and False in label_wider
        _assert_tables_row_by_row(report)


def _assert_tables_row_by_row(report):
    """Hold the four tables of the report's text to _row_grid."""
    text = render_text(report)
    gfm, cm = report.frequency, report.confusion
    ys = [f"Y{j}" for j in range(1, gfm.k + 1)]
    xs = [f"X{i}" for i in range(1, gfm.m + 1)]
    gfm_rows = [[*row, size] for row, size in zip(gfm.cells, gfm.granule_sizes)]
    gfm_rows.append([*gfm.class_sizes, gfm.total])
    cm_rows = [[*row, size] for row, size in zip(cm.cells, cm.row_sums)]
    cm_rows.append([*cm.col_sums, cm.total])

    def frac(value):
        return f"{value} ({rational_triple(value)['decimal']})"

    index_rows = [
        [a.size, a.lower_size, a.upper_size, frac(a.lower_coverage),
         frac(a.upper_precision), frac(a.accuracy), frac(alpha)]
        for a, alpha in zip(report.approximation.classes, report.alpha_hat)
    ]
    bound_rows = [
        [cb.class_size, cb.nl_star, cb.nl_star2, "-" if cb.nl_m is None else cb.nl_m,
         cb.nu_star, cb.nu_star2, "-" if cb.nu_m is None else cb.nu_m,
         "yes" if cb.clamped else "no"]
        for cb in report.bounds.classes
    ]
    tables = [
        ("Granule frequency matrix", _row_grid("", ys + ["size"], xs + ["size"], gfm_rows)),
        (
            "Confusion matrix (rows: predicted, columns: true)",
            _row_grid("", ys + ["sum"], ys + ["sum"], cm_rows),
        ),
        (
            # the index table follows the gamma, success ratio and alpha lines
            "  alpha (aggregate accuracy): ",
            _row_grid(
                "class",
                ["size", "lower", "upper", "coverage", "precision", "accuracy", "alpha_hat"],
                ys,
                index_rows,
            ),
        ),
        (
            "Confusion-matrix bounds (",
            _row_grid(
                "class",
                ["|Y|", "nl*", "nl**", "nl^m", "nu*", "nu**", "nu^m", "clamped"],
                ys,
                bound_rows,
            ),
        ),
    ]
    for heading, lines in tables:
        # the lines below the heading's line, up to the next blank line
        block = text.split(f"\n{heading}", 1)[1].split("\n", 1)[1].split("\n\n")[0]
        assert block.split("\n") == lines


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


class TestChunkBoundaries:
    """The writers lay out _CHUNK lines or list items at a time; with 4 to a
    chunk, m = 1..5 granules put the member lines, the assignment line, the
    gfm grid's m + 2 lines and each of the report's lists one short of, at
    and one past a chunk boundary."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_chunked_output_equals_one_chunk(self, monkeypatch, m):
        # granule {i, i + m} for i <= m; classes {1..m} and {m+1..2m}
        rows = [(f"v{i % m}", "y" if i <= m else "z") for i in range(1, 2 * m + 1)]
        report = analyze_decision_system(build_system(("a", "d"), rows))
        assert report.n_granules == m
        text, as_json = render_text(report), report_to_json(report)
        monkeypatch.setattr(report_module, "_CHUNK", 4)
        assert render_text(report) == text
        assert report_to_json(report) == as_json
        assert as_json == json.dumps(report_to_dict(report), indent=2) + "\n"


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


def _ids(convert):
    """Convert every object id in both partitions, keeping the blocks."""

    def edit(data):
        for key in ("granules", "decision_classes"):
            data[key] = [[convert(x) for x in block] for block in data[key]]

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
            _ids(float),
            _ids(str),
            _ids(lambda x: True if x == 1 else x),
            _put(True, "classifier", "assignment", 0, 1),
            _put(0.5, "classifier", "seed"),
            _put(7, "input", "source"),
            _put(["mrc"], "classifier", "kind"),
            _put(1.5, "classifier", "tie_break"),
            _put("yes", "theorems", "applicable"),
            _put(1, "theorems", "lemma_checks", 0, "passed"),
            _put(0.5, "theorems", "bound_checks", 0, "chain", 0),
            _put([1.5], "theorems", "context", "classifier"),
            _put("ab", "input", "attributes"),
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
                "classifier.assignment.0.1",
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
            # equal under ==, but a save would write back another JSON type
            (_put(6.0, "input", "objects"), "input.objects is 6.0"),
            (_put(6.0, "granule_matrix", "total"), "granule_matrix.total is 6.0"),
            (
                _put(2.0, "granule_matrix", "granule_sizes", 0),
                "granule_matrix.granule_sizes.0 is 2.0",
            ),
            (_put(1, "classifier", "row_maximal"), "classifier.row_maximal is 1,"),
            (
                _put(1, "theorems", "bound_checks", 0, "passed"),
                "theorems.bound_checks.0.passed is 1,",
            ),
            (
                _put(1.0, "granule_matrix", "cells", 0, 0),
                "granule_matrix.cells.0.0 is 1.0",
            ),
            (
                _put(3.0, "confusion_matrix", "cells", 0, 0),
                "confusion_matrix.cells.0.0 is 3.0",
            ),
            (
                _put(True, "granule_matrix", "cells", 0, 1),
                "granule_matrix.cells.0.1 is True",
            ),
        ],
    )
    def test_tampered_copy_is_rejected(self, tv_report, edit, path):
        data = report_to_dict(tv_report)
        edit(data)
        with pytest.raises(ReportFormatError) as info:
            report_from_dict(data)
        assert str(info.value).startswith(f"malformed report: {path}")

    def test_consistent_tamper_of_an_approximation_size_is_rejected(self, tv_report):
        # class 1 has size 3, lower 2, upper 4; claim lower 1 with every
        # ratio that depends on it rewritten to match
        data = report_to_dict(tv_report)
        row = data["indices"]["classes"][0]
        row["lower_size"] = 1
        row["lower_coverage"] = rational_triple(Fraction(1, 3))
        row["accuracy"] = rational_triple(Fraction(1, 4))
        lower_total = 1 + data["indices"]["classes"][1]["lower_size"]
        data["indices"]["gamma"] = rational_triple(Fraction(lower_total, 6))
        with pytest.raises(ReportFormatError) as info:
            report_from_dict(data)
        assert str(info.value).startswith("malformed report: indices.")

    def test_consistent_report_of_a_rule_breaking_classifier_is_rejected(
        self, tv_report
    ):
        gfm = tv_report.frequency
        f = RoughClassifier((1, 2, 2, 2), gfm.k)
        validation = validate_overlap(f, gfm)
        cm = confusion_matrix(gfm, f)
        bounds = confusion_bounds(cm, validation, is_row_maximal(f, gfm))
        report = replace(
            tv_report,
            classifier_kind="custom",
            tie_break=None,
            seed=None,
            classifier=f,
            validation=validation,
            confusion=cm,
            bounds=bounds,
            theorems=verify_theorems(gfm, f, cm, bounds),
        )
        data = report_to_dict(report)
        assert data["classifier"]["violations"] == [4]
        assert data["theorems"]["applicable"] is False
        expected = (
            "malformed report: classifier violates the overlap rule at granule(s) 4"
        )
        with pytest.raises(ReportFormatError) as info:
            report_from_dict(data)
        assert str(info.value) == expected

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
