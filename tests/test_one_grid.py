"""One table writer for the text report.

`report._grid` lays out all four tables of `render_text`: the granule
frequency matrix, the confusion matrix, and the per-class index and bound
tables, so the layout rule is written once. The check reads report.py with
the standard library's `ast`, as tests/test_one_assembly.py does: no other
function pads a string with `ljust` or `rjust`, which would be a second
table layout.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPORT = Path(__file__).parents[1] / "src" / "roughcm" / "report.py"
PADDING = ("ljust", "rjust")


def _callers(tree: ast.Module, names: tuple[str, ...]) -> list[tuple[str, str]]:
    """(called name, top-level function) for each call of one of `names`,
    as a bare name or an attribute ("<module>" for top-level code)."""
    calls = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in names:
                    calls.append((called, getattr(top, "name", "<module>")))
    return calls


def test_only_the_table_writer_pads():
    tree = ast.parse(REPORT.read_text(encoding="utf-8"))
    assert {caller for _, caller in _callers(tree, PADDING)} <= {"_grid"}


def test_the_text_writer_lays_out_its_four_tables_through_it():
    tree = ast.parse(REPORT.read_text(encoding="utf-8"))
    assert _callers(tree, ("_grid",)) == [("_grid", "_text_parts")] * 4
