"""End-to-end command line behavior, including exit codes."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tracemalloc

import pytest

from roughcm import (
    ClassifierFileError,
    CsvFormatError,
    analyze_decision_system,
    render_text,
    report_to_json,
)
from roughcm import cli
from roughcm.cli import ingest_csv, main, write_report

from conftest import TV_HEADER, TV_ROWS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# csv.reader refuses a field over its limit of 131,072 characters
LONG_FIELD = "x" * 131_073 + ",y"


def write_csv(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_latin1(tmp_path, name, text):
    """A file written in Latin-1: each é is the lone byte 0xe9, which UTF-8
    cannot decode before a comma or a newline."""
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return path


# the TV table's Price,Screen granules mapped as an equivalent classifier
TV_MAPPING = "1 1\n2 2\n3 2\n4 1\n"


class TestIngestCsv:
    def test_tv_table(self, tv_csv):
        ds = ingest_csv(tv_csv)
        assert ds.n == 6
        assert ds.condition_names == ("Price", "Guarantee", "Sound", "Screen")
        assert ds.decision_attribute.name == "d"
        assert ds.decision_attribute.values[1] == "high"

    def test_decision_column_override(self, tv_csv):
        ds = ingest_csv(tv_csv, decision_column="Price")
        assert ds.decision_attribute.name == "Price"
        assert "d" in ds.condition_names

    def test_utf8_bom_is_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("a,d\nx,p\ny,q\n", encoding="utf-8-sig")
        assert ingest_csv(path).condition_names == ("a",)

    def test_utf8_bom_is_stripped_from_a_mapping_file(self, capsys, tv_csv, tmp_path):
        mapping = tmp_path / "bom_map.txt"
        mapping.write_text("1 1\n2 2\n3 2\n4 1\n", encoding="utf-8-sig")
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--classifier",
            str(mapping),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["classifier"]["assignment"] == [[1, 1], [2, 2], [3, 2], [4, 1]]

    @pytest.mark.parametrize(
        "lines,message",
        [
            ([], "empty file"),
            (["justone", "x"], "at least two columns"),
            (["a,,d", "x,y,z"], "empty column name"),
            (["a,a,d", "x,y,z"], "duplicate column name"),
            (["a,d"], "no data rows"),
            (["a,d", "x,y", "only"], "row 2 has 1 cells, expected 2"),
            (["a,d", "x,"], "row 1, column 'd' is empty"),
            (["a,b,d", "x,y,z", "x,,"], "row 2, column 'b' is empty"),
        ],
    )
    def test_malformed_tables(self, tmp_path, lines, message):
        path = write_csv(tmp_path, "bad.csv", lines) if lines else tmp_path / "bad.csv"
        if not lines:
            path.write_text("", encoding="utf-8")
        with pytest.raises(CsvFormatError, match=message):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "lines,message",
        [
            # a line the csv module refuses wins over every later check,
            # wherever it sits; it cannot share a file with no lines (2)
            (["justone", "x", LONG_FIELD], "line 3: field larger"),
            ([",d", "x,y", LONG_FIELD], "line 3: field larger"),
            (["a,a", "x,y", LONG_FIELD], "line 3: field larger"),
            (["a,a", LONG_FIELD], "line 2: field larger"),
            (["a,d", "x", "y,z", "w,", LONG_FIELD], "line 5: field larger"),
            # an empty file (2) has no header to fault (3)
            (['""', "x"], "at least two columns"),
            (["a", "x,y"], "at least two columns"),
            ([",a,a", "x,y,z"], "empty column name"),
            ([",d", "x"], "empty column name"),
            (["a,a"], "duplicate column name"),
            (["a,a", "x"], "duplicate column name"),
            # no data rows (6) leaves no row to be ragged (7)
            (["a,d", "x,y", "x,y", "z", "w,"], "row 3 has 1 cells, expected 2"),
        ],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 8192])
    def test_faults_keep_their_precedence(
        self, monkeypatch, tmp_path, lines, message, chunk
    ):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = write_csv(tmp_path, "bad.csv", lines)
        with pytest.raises(CsvFormatError, match=message):
            ingest_csv(path)

    @pytest.mark.parametrize("number", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "cells,message",
        [
            ("z", "row {} has 1 cells, expected 2"),
            ("z,", "row {}, column 'd' is empty"),
            (",z", "row {}, column 'a' is empty"),
        ],
    )
    def test_a_bad_row_is_named_on_either_side_of_a_chunk_boundary(
        self, monkeypatch, tmp_path, number, cells, message
    ):
        # three rows to a chunk: rows 3 and 4 sit on either side of a boundary
        monkeypatch.setattr(cli, "_CHUNK", 3)
        rows = [f"x{i},y{i % 2}" for i in range(1, 9)]
        rows[number - 1] = cells
        rows[number] = "later,"  # a second fault after the first one
        path = write_csv(tmp_path, "bad.csv", ["a,d", *rows])
        with pytest.raises(CsvFormatError, match=message.format(number)):
            ingest_csv(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7])
    def test_the_chunk_size_changes_nothing(self, monkeypatch, tv_csv, chunk):
        whole = ingest_csv(tv_csv)
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        chunked = ingest_csv(tv_csv)
        assert chunked == whole
        assert chunked.decision_attribute.values[6] == "low"

    @pytest.mark.parametrize("rows", [0, 10_000])
    def test_a_table_that_is_not_utf8_is_an_error_naming_the_file(self, tmp_path, rows):
        # the byte sits in the first block the reader decodes, or far past it
        path = write_latin1(tmp_path, "latin.csv", "a,d\n" + "x,y\n" * rows + "café,y\n")
        with pytest.raises(CsvFormatError) as raised:
            ingest_csv(path)
        assert str(raised.value) == f"{path}: not UTF-8 text: invalid continuation byte"

    def test_unknown_decision_column(self, tv_csv):
        with pytest.raises(CsvFormatError, match="unknown decision column 'nope'"):
            ingest_csv(tv_csv, decision_column="nope")


class TestAnalyzeCommand:
    def test_worked_example_json(self, capsys, tv_csv):
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
        )
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["input"]["objects"] == 6
        assert data["granules"] == [[1, 6], [2], [3], [4, 5]]
        assert data["granule_matrix"]["cells"] == [[1, 1], [0, 1], [0, 1], [2, 0]]
        assert data["classifier"]["assignment"] == [[1, 1], [2, 2], [3, 2], [4, 1]]
        assert data["confusion_matrix"]["cells"] == [[3, 1], [0, 2]]
        assert data["indices"]["gamma"] == {"num": 2, "den": 3, "decimal": "0.666667"}
        assert data["indices"]["success_ratio"]["num"] == 5
        assert data["indices"]["success_ratio"]["den"] == 6
        assert data["theorems"]["overall_pass"] is True

    def test_all_attributes_by_default(self, capsys, tv_csv):
        code, out, _ = run_cli(capsys, "analyze", "--input", str(tv_csv))
        assert code == 0
        data = json.loads(out)
        assert data["input"]["granules"] == 6
        assert data["indices"]["gamma"] == {"num": 1, "den": 1, "decimal": "1.000000"}

    def test_explicit_decision_column(self, capsys, tv_csv):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(tv_csv), "--decision", "d"
        )
        assert code == 0
        assert json.loads(out)["input"]["decision"] == "d"

    def test_text_format_matches_json_numbers(self, capsys, tv_csv):
        code, text, _ = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--format",
            "text",
        )
        assert code == 0
        assert "success ratio: 5/6 (0.833333)" in text
        assert "gamma (approximation quality): 2/3 (0.666667)" in text

    def test_tie_break_highest(self, capsys, tv_csv):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--tie-break",
            "highest",
        )
        assert code == 0
        data = json.loads(out)
        assert data["classifier"]["assignment"] == [[1, 2], [2, 2], [3, 2], [4, 1]]
        assert data["confusion_matrix"]["cells"] == [[2, 0], [1, 3]]

    def test_repeated_runs_are_byte_identical(self, capsys, tv_csv):
        argv = ("analyze", "--input", str(tv_csv), "--attributes", "Price,Screen")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "extra",
        [
            ("--attributes", "Price,Bogus"),
            ("--attributes", ""),
            ("--decision", "nope"),
        ],
    )
    def test_bad_requests_exit_one(self, capsys, tv_csv, extra):
        code, out, err = run_cli(capsys, "analyze", "--input", str(tv_csv), *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("roughcm: error:")

    def test_missing_input_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(tmp_path / "absent.csv")
        )
        assert code == 1
        assert err.startswith("roughcm: error:")

    def test_malformed_csv_exits_one(self, capsys, tmp_path):
        path = write_csv(tmp_path, "ragged.csv", ["a,d", "x,y", "z"])
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "row 2" in err

    def test_field_the_csv_reader_refuses_exits_one(self, capsys, tmp_path):
        # csv.reader refuses a field over its limit of 131,072 characters
        path = write_csv(tmp_path, "long.csv", ["a,d", "x,y", "x" * 131_073 + ",y"])
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"roughcm: error: {path}: line 3: field larger than field limit (131072)\n"
        )


    def test_a_table_that_is_not_utf8_exits_one(self, capsys, tmp_path):
        path = write_latin1(tmp_path, "latin.csv", "a,d\ncafé,y\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"roughcm: error: {path}: not UTF-8 text: invalid continuation byte\n"


class _Discard:
    """A text sink that keeps only the count of what it is given."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)


class TestWriteReport:
    @pytest.fixture(scope="class")
    def fine_report(self, tmp_path_factory):
        """20,000 rows shaped like the benchmark's fine table: four
        attributes of 20 values and 5 classes, about 18,800 granules."""
        rng = random.Random(20)
        lines = ["a1,a2,a3,a4,d"]
        for _ in range(20_000):
            values = [f"v{rng.randrange(20)}" for _ in range(4)]
            lines.append(",".join([*values, f"c{rng.randrange(5)}"]))
        path = tmp_path_factory.mktemp("fine") / "fine.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return analyze_decision_system(ingest_csv(path))

    @pytest.mark.parametrize("fmt,whole", [("json", report_to_json), ("text", render_text)])
    def test_the_writer_holds_a_small_share_of_the_output(self, fine_report, fmt, whole):
        length = len(whole(fine_report))
        sink = _Discard()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_report(fine_report, fmt, sink)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sink.written == length
        assert peak <= length / 4


class TestClassifierFiles:
    def test_equivalent_mapping_file(self, capsys, tv_csv, tmp_path):
        mapping = tmp_path / "map.txt"
        mapping.write_text("# granule class\n1 1\n2 2\n3 2\n4 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--classifier",
            str(mapping),
        )
        assert code == 0
        data = json.loads(out)
        assert data["classifier"]["kind"] == "custom"
        assert data["classifier"]["tie_break"] is None
        assert data["confusion_matrix"]["cells"] == [[3, 1], [0, 2]]

    def test_rule_breaking_mapping_exits_two(self, capsys, tv_csv, tmp_path):
        mapping = tmp_path / "bad_map.txt"
        mapping.write_text("1 1\n2 2\n3 2\n4 2\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--classifier",
            str(mapping),
        )
        assert code == 2
        assert out == ""
        assert "granule(s) 4" in err

    @pytest.mark.parametrize(
        "content",
        ["1 1\n2 2\n3 2\n", "1 1\n2 2\n3 2\n4 9\n", "1 1\n1 2\n2 1\n3 2\n4 1\n", "not numbers\n"],
    )
    def test_malformed_mapping_exits_one(self, capsys, tv_csv, tmp_path, content):
        mapping = tmp_path / "map.txt"
        mapping.write_text(content, encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--classifier",
            str(mapping),
        )
        assert code == 1
        assert err.startswith("roughcm: error:")

    def test_a_mapping_file_that_is_not_utf8_is_an_error_naming_the_file(self, tv_csv, tmp_path):
        mapping = write_latin1(tmp_path, "latin_map.txt", "# café\n" + TV_MAPPING)
        argv = ["analyze", "--input", str(tv_csv), "--attributes", "Price,Screen"]
        args = cli._build_parser().parse_args([*argv, "--classifier", str(mapping)])
        with pytest.raises(ClassifierFileError) as raised:
            cli.run_analyze(args)
        assert str(raised.value) == f"{mapping}: not UTF-8 text: invalid continuation byte"

    def test_a_mapping_file_that_is_not_utf8_exits_one(self, capsys, tv_csv, tmp_path):
        mapping = write_latin1(tmp_path, "latin_map.txt", TV_MAPPING + "# café\n")
        code, out, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--attributes",
            "Price,Screen",
            "--classifier",
            str(mapping),
        )
        assert (code, out) == (1, "")
        assert err == f"roughcm: error: {mapping}: not UTF-8 text: invalid continuation byte\n"

    def test_missing_mapping_file_exits_one(self, capsys, tv_csv, tmp_path):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "--input",
            str(tv_csv),
            "--classifier",
            str(tmp_path / "nowhere.txt"),
        )
        assert code == 1
        assert err.startswith("roughcm: error:")


class TestFuzzCommand:
    def test_small_clean_run(self, capsys):
        code, out, err = run_cli(
            capsys, "fuzz", "--trials", "20", "--seed", "5", "--max-objects", "12"
        )
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["trials"] == 20
        assert data["checks"] == 40
        assert data["failures"] == 0
        assert data["result"] == "pass"
        assert data["classifier_kinds"] == ["mrc", "random"]
        assert data["generator"] == "python-random-mt19937"
        assert data["first_failure"] is None

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--trials", "5", "--seed", "1", "--format", "text"
        )
        assert code == 0
        assert "fuzz summary" in out
        assert "failures: 0" in out

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "0")
        assert code == 0
        assert json.loads(out)["checks"] == 0

    def test_same_seed_same_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "fuzz", "--trials", "15", "--seed", "9")
        code2, out2, _ = run_cli(capsys, "fuzz", "--trials", "15", "--seed", "9")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("fuzz", "--trials", "-3"),
            ("fuzz", "--max-classes", "1"),
            ("fuzz", "--max-objects", "1"),
        ],
    )
    def test_bad_flags_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("roughcm: error:")


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("analyze",),
            ("analyze", "--no-such-flag"),
            ("analyze", "--input", "x.csv", "--tie-break", "sideways"),
            ("explode",),
        ],
    )
    def test_usage_problems_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert "error" in captured.err


def test_module_entry_point(tv_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "roughcm", "analyze", "--input", str(tv_csv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["input"]["objects"] == 6
