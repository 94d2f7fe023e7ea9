"""One walk over the lines of a mapping file.

`classifiers.classifier_from_text` reads a mapping file through one loop
over its lines, and each line rule is written once, with its message. The
check reads classifiers.py with the standard library's `ast`, as
tests/test_one_grid.py does: the module defines no whole-file pattern
(`_ODD_LINE`), the parser has one loop, each of the five line-fault
messages appears in one string of it, and it splits nothing but a line's
fields, so it holds no list of the file's lines or tokens.
"""

from __future__ import annotations

import ast
from pathlib import Path

CLASSIFIERS = Path(__file__).parents[1] / "src" / "roughcm" / "classifiers.py"
TREE = ast.parse(CLASSIFIERS.read_text(encoding="utf-8"))
# a fragment of each line-fault message, in the order the rules are checked
FAULTS = (
    "expected two fields, got ",
    "indices must be integers",
    "granule index ",
    "class index ",
    " assigned twice",
)


def _parser() -> ast.FunctionDef:
    (parser,) = (
        node
        for node in TREE.body
        if isinstance(node, ast.FunctionDef) and node.name == "classifier_from_text"
    )
    return parser


def _nodes(kind):
    """The nodes of one kind in the parser's body, its docstring left out."""
    return [
        node for statement in _parser().body[1:] for node in ast.walk(statement)
        if isinstance(node, kind)
    ]


def test_the_module_defines_no_whole_file_pattern():
    defined = {
        target.id
        for node in TREE.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert "_LINE" in defined and "_ODD_LINE" not in defined


def test_the_parser_reads_the_lines_in_one_loop():
    assert len(_nodes((ast.For, ast.While))) == 1


def test_each_line_fault_message_is_written_once():
    strings = [
        node.value for node in _nodes(ast.Constant) if isinstance(node.value, str)
    ]
    assert [sum(fault in string for string in strings) for fault in FAULTS] == [1] * 5


def test_the_parser_splits_only_a_lines_fields():
    splits = [
        node for node in _nodes(ast.Call)
        if getattr(node.func, "attr", None) in ("split", "splitlines")
    ]
    assert [(node.func.attr, node.args) for node in splits] == [("split", [])]
