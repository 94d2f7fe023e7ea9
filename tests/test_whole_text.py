"""The saved report's text is grown once, never joined beside its parts.

report_to_json and render_text make their text through report._whole,
which adds pieces of about report._PIECE characters to one str that
CPython grows in place. Joining the whole stream of parts instead keeps
every part alive beside the joined text, so the text is held twice; the
structural check reads the package with the standard library's `ast`, as
tests/test_one_judgement.py does. Per-part `+=` copies the text on every
part under a profile or trace hook; on a 2-vCPU host, 4,000 parts of
1,000 characters took 0.8-0.9 s that way under a no-op profile function,
and 7-15 ms through _whole, so the time bound of 0.25 s lies between the
two.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import time
from pathlib import Path

import pytest
from conftest import build_system, random_table

from roughcm import analyze_decision_system, render_text, report_to_dict, report_to_json
from roughcm.cli import write_report
from roughcm.report import _PIECE, _json_parts, _text_parts, _whole

SOURCES = sorted((Path(__file__).parents[1] / "src" / "roughcm").glob("*.py"))
WRITERS = {"_json_parts", "_text_parts"}


def test_the_helper_stays_linear_under_a_profile_hook():
    parts = [str(i % 10) * 1_000 for i in range(4_000)]
    sys.setprofile(lambda *args: None)
    try:
        began = time.perf_counter()
        text = _whole(parts)
        elapsed = time.perf_counter() - began
    finally:
        sys.setprofile(None)
    assert text == "".join(parts)
    assert elapsed < 0.25, f"{elapsed:.3f} s"


@pytest.fixture(scope="module")
def large_report():
    """A fine table of 40,000 rows: its JSON and its text each span
    several pieces."""
    header, rows = random_table(11, 40_000, 4, 20, 5)
    return analyze_decision_system(build_system(header, rows), header[:-1])


def test_the_json_is_the_join_of_its_parts(large_report):
    text = report_to_json(large_report)
    assert len(text) > 4 * _PIECE
    assert text == "".join(_json_parts(large_report))
    assert text == json.dumps(report_to_dict(large_report), indent=2) + "\n"


def test_the_text_is_the_join_of_its_parts(large_report):
    text = render_text(large_report)
    assert len(text) > 2 * _PIECE
    assert text == "".join(_text_parts(large_report))


@pytest.mark.parametrize("fmt,whole", [("json", report_to_json), ("text", render_text)])
def test_the_command_line_writes_the_same_text(large_report, fmt, whole):
    out = io.StringIO()
    write_report(large_report, fmt, out)
    assert out.getvalue() == whole(large_report)


def _joins_of_writer_parts() -> list[str]:
    """file:line of each `.join(...)` call in the package whose arguments
    call _json_parts or _text_parts."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "join"):
                continue
            called = {
                getattr(inner.func, "id", None) or getattr(inner.func, "attr", None)
                for arg in node.args
                for inner in ast.walk(arg)
                if isinstance(inner, ast.Call)
            }
            if called & WRITERS:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_function_joins_the_writers_parts():
    assert len(SOURCES) > 5
    assert _joins_of_writer_parts() == []
