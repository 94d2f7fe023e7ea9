"""Each thing the text report states, it states once.

In `report.py` every list of ids goes out through `_filled`, every text
entry that is not an int (a rational, a yes/no flag, a missing `-`)
through the one cell rule `_cell`, and the per-class indices come from
`_class_indices`, which the JSON form lists too. The check reads
report.py with the standard library's `ast`, as tests/test_one_grid.py
does: the helpers those replaced are gone, the text writer spells no
yes, no or `-` itself, and both writers draw the per-class indices from
the one generator.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPORT = Path(__file__).parents[1] / "src" / "roughcm" / "report.py"


def _functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(REPORT.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _called(function: ast.FunctionDef) -> set[str]:
    """The names `function` calls, as bare names or attributes."""
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
    }


def test_the_restating_helpers_are_gone():
    assert not {"_joined", "_frac_text"} & _functions().keys()


def test_the_text_writer_spells_no_cell_itself():
    literals = {
        node.value
        for node in ast.walk(_functions()["_text_parts"])
        if isinstance(node, ast.Constant) and type(node.value) is str
    }
    assert not {"yes", "no", "-"} & literals


def test_both_writers_list_the_per_class_indices_from_one_generator():
    functions = _functions()
    assert "_class_indices" in _called(functions["_sections"])
    assert "_class_indices" in _called(functions["_text_parts"])
