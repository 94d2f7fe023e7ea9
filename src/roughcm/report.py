"""Analysis report assembly, JSON serialization, and text rendering.

The JSON form is the canonical machine format: rationals appear as
{num, den, decimal} triples where the num/den pair is exact and the
decimal field is a six-place string rendering for human eyes only.
Serialization round-trips losslessly through report_to_dict and
report_from_dict, and identical inputs produce byte-identical JSON.

The form is described once, by _sections: the top-level (key, value)
sections in order (input, granules, decision_classes, granule_matrix,
classifier, confusion_matrix, indices, bounds, theorems). Each list of int
rows that grows with the table (the partitions, the gfm rows, the
assignment) is declared a _Rows, the lemma checks are a _Table of the
theorem record's columns, and the granule sizes an iterator.
report_to_dict draws the sections into one dict. report_to_json writes
exactly json.dumps(report_to_dict(r), indent=2) and a newline through
one writer, _parts, at most _CHUNK items or row members a part, and
render_text its text _CHUNK lines or ids a part: its ids through _filled,
its four tables (the gfm, the confusion matrix, the index and the bound
table) through one table writer, _grid, each entry that is not an int
through one cell rule, _cell, and the per-class indices from
_class_indices, as the JSON lists them. Both grow one string through
_whole, and the command line writes the parts as they come, so neither
the whole dict nor the whole text is ever held.

Rows are laid out with no Python step and no type pass per row: a part
of rows is one %-template, one shape per row length, filled from one flat
tuple of their values (_fill); %s writes each id as str() does. The gfm
rows repeat, so both writers make each distinct row's text once, and a
granule's entry or line is a lookup of that text.

Every report comes from one assembly, _assemble, which ends in the
oracle's _judge, as each fuzz trial does: analyze_decision_system passes
it the partitions it built, report_from_dict only the facts it read. The
stored dict must then equal the rebuilt report's sections; one walk,
_difference, compares them with type passes over the stored side only.
A dict loads exactly when it is what saving its report writes.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_right
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, count, islice, repeat, starmap
from json.encoder import encode_basestring_ascii as _escape
from operator import add, attrgetter, eq, itemgetter
from typing import TypeVar

from .classifiers import (
    RoughClassifier,
    TieBreak,
    ValidationReport,
    maximal_row_classifier,
    success_ratio,
)
from .core import (
    DecisionSystem,
    Partition,
    _collector_paused,
    decision_partition,
    partition_by_attributes,
)
from .errors import (
    OverlapViolationError,
    ReportFormatError,
    RoughAnalysisError,
    _require_types,
)
from .indices import (
    ApproximationSummary,
    BoundsReport,
    _BOUND_FIELDS,
    alpha_hat_overall,
    alpha_hat_per_class,
    approximation_summary,
)
from .matrices import GranuleFrequencyMatrix, RoughConfusionMatrix, granule_frequency_matrix
from .oracle import TheoremReport, _judge

__all__ = [
    "AnalysisReport",
    "analyze_decision_system",
    "rational_triple",
    "fraction_from_triple",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "render_text",
]


def _decimal6(value: Fraction) -> str:
    scaled = round(value * 1_000_000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def rational_triple(value: Fraction) -> dict[str, object]:
    """Serialize an exact rational as {num, den, decimal}."""
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": _decimal6(value),
    }


def fraction_from_triple(data: dict[str, object]) -> Fraction:
    """Rebuild the exact rational; the decimal field is ignored. A triple that
    rational_triple cannot write raises ReportFormatError."""
    try:
        _require_types(("a rational triple", {dict}, [data]))
        num, den = data.get("num"), data.get("den")
        _require_types(("num and den", {int}, [num, den]))
        if den < 1 or Fraction(num, den).denominator != den:
            raise ValueError(f"{num}/{den} is not in lowest terms with den > 0")
    except (TypeError, ValueError) as exc:
        raise ReportFormatError(f"malformed rational triple: {exc}") from exc
    return Fraction(num, den)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze pipeline produces for one decision table.

    Partitions, sizes, row-maximality, the success ratio and the accuracy
    estimates are derived from the stages.
    """

    source: str
    attribute_names: tuple[str, ...]
    decision_name: str
    frequency: GranuleFrequencyMatrix
    classifier_kind: str
    tie_break: str | None
    seed: int | None
    classifier: RoughClassifier
    validation: ValidationReport
    confusion: RoughConfusionMatrix
    approximation: ApproximationSummary
    bounds: BoundsReport
    theorems: TheoremReport

    @property
    def granules(self) -> Partition:
        return self.frequency.granules

    @property
    def decisions(self) -> Partition:
        return self.frequency.decisions

    @property
    def n_objects(self) -> int:
        return self.frequency.total

    @property
    def n_granules(self) -> int:
        return self.frequency.m

    @property
    def n_classes(self) -> int:
        return self.frequency.k

    @property
    def success(self) -> Fraction:
        return success_ratio(self.confusion)

    @property
    def row_maximal(self) -> bool:
        return self.bounds.mrc_classifier

    @property
    def alpha_hat(self) -> tuple[Fraction, ...]:
        return alpha_hat_per_class(self.confusion)

    @property
    def alpha_overall(self) -> Fraction:
        return alpha_hat_overall(self.confusion)


@_collector_paused
def analyze_decision_system(
    ds: DecisionSystem,
    attributes: Iterable[str] | None = None,
    classifier: (
        RoughClassifier | Callable[[GranuleFrequencyMatrix], RoughClassifier] | None
    ) = None,
    tie_break: TieBreak | str = TieBreak.LOWEST,
    seed: int = 0,
    source: str = "<memory>",
) -> AnalysisReport:
    """Run the whole pipeline on one decision system and assemble a report.

    Every stage is built once and handed on, the verifier included. With
    `classifier=None` a maximal row classifier is built from the frequency
    matrix using `tie_break` (a TieBreak or its value string; anything
    else raises ValueError before any stage is built) and `seed`. An
    explicit classifier, or a function building one from the frequency
    matrix, must satisfy the overlap rule; OverlapViolationError names the
    offending granules otherwise. `attributes=None` uses every condition
    attribute. A report load refuses no report this returns: an mrc seed
    that is not an int (a bool included), or a source or attribute name
    that is not a str, raises TypeError before the frequency matrix is built.
    """
    tie_break = TieBreak(tie_break)
    names = tuple(attributes) if attributes is not None else ds.condition_names
    selected = tuple(filter(set(names).__contains__, ds.condition_names))
    provenance = (tie_break.value, seed) if classifier is None else (None, None)
    return _assemble(
        partition_by_attributes(ds, names), decision_partition(ds), classifier,
        source, selected, ds.decision_attribute.name, *provenance,
    )


def _assemble(
    granules: Partition,
    decisions: Partition,
    classifier: RoughClassifier | Callable[[GranuleFrequencyMatrix], RoughClassifier] | None,
    source: str,
    attribute_names: tuple[str, ...],
    decision_name: str,
    tie_break: str | None,
    seed: int | None,
) -> AnalysisReport:
    """Build a report, as an analysis and a report load both do: check the
    provenance and name rules, build the frequency matrix and the classifier
    (None gives the maximal row classifier of `tie_break` and `seed`), then
    the stages _judge builds; OverlapViolationError follows if the
    classifier breaks the overlap rule."""
    kind = "mrc" if classifier is None else "custom"
    _require_types(
        ("input.source", {str}, [source]),
        ("input.decision", {str}, [decision_name]),
        ("input.attributes entries", {str}, attribute_names),
    )
    # partition_by_attributes needs a name, and DecisionSystem keeps them unique
    unique = set(attribute_names)
    if not unique or len(unique) < len(attribute_names) or decision_name in unique:
        raise ValueError(
            "input.attributes must be distinct, at least one, and not the decision "
            f"{decision_name!r}, not {reprlib.repr(list(attribute_names))}"
        )
    if kind == "mrc" and tie_break not in _TIE_BREAKS:
        raise ValueError(
            f"classifier.tie_break of an mrc classifier must be one of "
            f"{', '.join(_TIE_BREAKS)}, not {tie_break!r}"
        )
    if kind == "mrc" and type(seed) is not int:
        raise TypeError(f"classifier.seed of an mrc classifier must be int, not {seed!r}")
    if kind == "custom" and (tie_break is not None or seed is not None):
        raise ValueError(
            "classifier.tie_break and classifier.seed of a custom classifier "
            f"must be null, not {tie_break!r} and {seed!r}"
        )
    gfm = granule_frequency_matrix(granules, decisions)
    if classifier is None:
        f = maximal_row_classifier(gfm, tie_break, seed)
    else:
        f = classifier(gfm) if callable(classifier) else classifier
    seed_text = "-" if seed is None else str(seed)
    context = {"classifier": kind, "tie_break": tie_break or "-", "seed": seed_text}
    validation, cm, bounds, theorems = _judge(gfm, f, context)
    if not validation.satisfies_rule:
        raise OverlapViolationError(validation.violations)
    return AnalysisReport(
        source=source,
        attribute_names=attribute_names,
        decision_name=decision_name,
        frequency=gfm,
        classifier_kind=kind,
        tie_break=tie_break,
        seed=seed,
        classifier=f,
        validation=validation,
        confusion=cm,
        approximation=approximation_summary(gfm),
        bounds=bounds,
        theorems=theorems,
    )


def report_to_dict(report: AnalysisReport) -> dict[str, object]:
    """Plain-dict form of the report, ready for json.dumps."""
    return _drawn(dict(_sections(report)))


class _Table(dict):
    """A list of dicts that share their keys, given as a dict of columns,
    each an iterable of JSON scalars: the lemma checks as the theorem
    record keeps them. _parts and _difference take it a column or _CHUNK
    rows at a time, with a dict per row only to name a difference."""


class _Rows:
    """A list of int rows that grows with the table, as an iterable of int
    sequences; `distinct` holds each row once where they repeat (the gfm
    rows), and `fact` marks rows whose ints _rebuild checks. _parts lays
    them out and _difference compares them without a type pass over them."""

    __slots__ = ("rows", "distinct", "fact")

    def __init__(
        self, rows: Iterable[Sequence[int]], distinct: Iterable | None = None, fact: bool = False
    ) -> None:
        self.rows, self.distinct, self.fact = rows, distinct, fact


def _sections(report: AnalysisReport) -> Iterator[tuple[str, object]]:
    """The report's JSON form, one top-level (key, value) section at a time.

    The only description of that form: report_to_dict draws it whole,
    _parts writes it and _difference compares a stored dict against it,
    each in one walk. A list that grows with the table is a _Rows, a
    _Table or an iterator, so a section is cheap until it is drawn or written.
    """
    gfm = report.frequency
    cm = report.confusion
    yield "input", {
        "source": report.source,
        "objects": report.n_objects,
        "granules": report.n_granules,
        "classes": report.n_classes,
        "attributes": list(report.attribute_names),
        "decision": report.decision_name,
    }
    yield "granules", _Rows(report.granules._members, fact=True)
    yield "decision_classes", _Rows(report.decisions._members, fact=True)
    yield "granule_matrix", {
        "cells": _Rows(gfm.cells, gfm._distinct),
        "granule_sizes": map(len, report.granules._members),
        "class_sizes": list(map(len, report.decisions._members)),
        "total": gfm.total,
    }
    yield "classifier", {
        "kind": report.classifier_kind,
        "tie_break": report.tie_break,
        "seed": report.seed,
        "assignment": _Rows(enumerate(report.classifier.assignment, start=1), fact=True),
        "row_maximal": report.row_maximal,
        "satisfies_overlap": report.validation.satisfies_rule,
        "violations": list(report.validation.violations),
    }
    yield "confusion_matrix", {
        "cells": list(map(list, cm.cells)),
        "row_sums": list(cm.row_sums),
        "col_sums": list(cm.col_sums),
        "total": cm.total,
    }
    yield "indices", {
        "gamma": rational_triple(report.approximation.gamma),
        "success_ratio": rational_triple(report.success),
        "alpha_overall": rational_triple(report.alpha_overall),
        "classes": [
            {"class": j, **{
                key: rational_triple(v) if type(v) is Fraction else v
                for key, v in zip(_INDEX_KEYS, values)
            }}
            for j, values in enumerate(_class_indices(report), start=1)
        ],
    }
    yield "bounds", {
        "rule_validated": report.bounds.rule_validated,
        "mrc_classifier": report.bounds.mrc_classifier,
        "classes": [
            {"class": j, **dict(zip(_BOUND_FIELDS, row))}
            for j, row in enumerate(report.bounds._rows, start=1)
        ],
    }
    theorems = report.theorems
    parts, subjects = theorems._lemma_columns()
    passed = map(bool, theorems._lemmas_passed)
    yield "theorems", {
        "applicable": theorems.applicable,
        "overall_pass": theorems.overall_pass,
        "bound_checks": [
            {"theorem": theorem, "class": j, "chain": list(links), "passed": bool(holds)}
            for theorem, j, links, holds in zip(*theorems._bounds, theorems._bounds_passed)
        ],
        "lemma_checks": _Table(part=parts, subject=subjects, passed=passed),
        "context": dict(theorems.context),
    }


_INDEX_KEYS = (
    "size", "lower_size", "upper_size", "lower_coverage", "upper_precision", "accuracy", "alpha_hat"
)
_APPROXIMATION = attrgetter(*_INDEX_KEYS[:-1])


def _class_indices(report: AnalysisReport) -> Iterator[tuple[int | Fraction, ...]]:
    """Each decision class's per-class indices, in _INDEX_KEYS order: its
    size, lower and upper size, lower coverage, upper precision, accuracy
    and alpha_hat. Both the JSON and the text index table list them."""
    for approx, alpha in zip(report.approximation.classes, report.alpha_hat):
        yield (*_APPROXIMATION(approx), alpha)


def _drawn(value: object) -> object:
    """A section value with its iterators drawn into lists: plain JSON data."""
    if isinstance(value, Iterator):
        return list(value)
    if type(value) is _Rows:
        return list(map(list, value.rows))
    if type(value) is _Table:
        return list(map(dict, map(zip, repeat(list(value)), zip(*value.values()))))
    if type(value) is dict:
        return {key: _drawn(item) for key, item in value.items()}
    return value


@_collector_paused
def report_from_dict(data: dict[str, object]) -> AnalysisReport:
    """Rebuild a report from its dict form; inverse of report_to_dict.

    Only facts are read: the partitions, the provenance and a custom
    classifier's assignment. The rest, an mrc assignment and the theorem
    record included, is rebuilt by _assemble, the assembly
    analyze_decision_system uses, and the whole dict must equal the rebuilt
    report's dict, JSON type for JSON type (key order aside): a dict loads
    exactly when saving its report writes it back. Malformed input raises
    ReportFormatError: a missing key, a value of the wrong type, a part
    whose invariants fail, a classifier that breaks the overlap rule, or a
    stored value that differs from the rebuilt one, named by its dotted
    path.
    """
    try:
        report = _rebuild(data)
        difference = _difference(data, dict(_sections(report)))
    except KeyError as exc:
        raise ReportFormatError(f"malformed report: missing key {exc}") from exc
    except (ArithmeticError, LookupError, TypeError, ValueError, RoughAnalysisError) as exc:
        raise ReportFormatError(f"malformed report: {exc}") from exc
    if difference is not None:
        raise ReportFormatError(f"malformed report: {difference}")
    return report


_SCALARS = {int, bool, str, type(None)}


def _difference(stored: object, derived: object, path: str = "") -> str | None:
    """Name the first item, by dotted path, where a stored JSON value
    differs from the derived one; None when they are the same.

    The JSON types are told apart: 1, 1.0 and true differ. Lists of
    different lengths are named with both lengths and the index of their
    first differing entry. A derived list is drawn only when the walk
    reaches it, and first compared whole, with one `==` and type passes
    over the stored side only: a list of one scalar type; a _Rows, whose
    stored rows must be lists and their members ints, unless _rebuild has
    checked those; a _Table column by column, drawn into dicts only to name
    a difference. A list is walked item by item only when these find a
    difference or do not apply.
    """
    if isinstance(derived, Iterator):
        derived = list(derived)
    elif type(derived) is _Rows:
        fact, derived = derived.fact, _drawn(derived)
        if (
            stored == derived
            and _types(stored) == {list}
            and (fact or _types(chain.from_iterable(stored)) <= {int})
        ):
            return None
    elif type(derived) is _Table:
        derived = _Table(zip(derived, map(list, derived.values())))
        columns = (list(map(itemgetter(key), stored)) for key in derived)
        if (
            type(stored) is list
            and {len(stored)} == set(map(len, derived.values()))
            and _types(stored) == {dict}
            and all(map(eq, map(dict.keys, stored), repeat(derived.keys())))
            and not any(starmap(_difference, zip(columns, derived.values())))
        ):
            return None
        # drawn only to name the difference
        derived = _drawn(derived)
    kind = type(derived)
    where = path or "top level"
    if type(stored) is not kind or kind not in (dict, list):
        if type(stored) is kind and stored == derived:
            return None
        return (
            f"{where} is {reprlib.repr(stored)}, "
            f"the report derives {reprlib.repr(_drawn(derived))}"
        )
    if kind is dict:
        if stored.keys() != derived.keys():
            unknown = _key_list(stored.keys() - derived.keys())
            missing = _key_list(derived.keys() - stored.keys())
            return f"{where}: unknown keys {unknown}, missing keys {missing}"
        entries = zip(derived, map(stored.__getitem__, derived), derived.values())
    else:
        if len(stored) == len(derived):
            types = _types(derived)
            if len(types) < 2 and types <= _SCALARS:
                if stored == derived and _types(stored) <= types:
                    return None
        entries = zip(count(), stored, derived)
    prefix = f"{path}." if path else ""
    difference = None
    for key, stored_item, derived_item in entries:
        difference = _difference(stored_item, derived_item, f"{prefix}{key}")
        if difference is not None:
            break
    else:
        # past the shorter list's end when it is a prefix of the other
        key = min(len(stored), len(derived))
    if len(stored) != len(derived):
        return (
            f"{where} has {len(stored)} entries, the report derives "
            f"{len(derived)}; they first differ at entry {key}"
        )
    return difference


def _key_list(keys: Iterable[object]) -> str:
    return ", ".join(sorted(map(repr, keys))) or "none"


def _types(values: Iterable[object]) -> set[type]:
    return set(map(type, values))


_TIE_BREAKS = [t.value for t in TieBreak]


def _rebuild(data: dict[str, object]) -> AnalysisReport:
    """Read the facts and assemble the report they give."""
    meta, cls_data = data["input"], data["classifier"]
    pairs, kind = cls_data["assignment"], cls_data["kind"]
    if set(map(len, pairs)) - {2}:
        raise ValueError("classifier.assignment entries must be [granule, class] pairs")
    # Facts are written back as read, so each must have the type its JSON
    # form needs: a float id or a bool class would load (1.0 == True == 1).
    _require_types(
        ("granule members", {int}, chain.from_iterable(data["granules"])),
        ("decision class members", {int}, chain.from_iterable(data["decision_classes"])),
        ("classifier.assignment entries", {int}, chain.from_iterable(pairs)),
        ("input.attributes", {list}, [meta["attributes"]]),
    )
    if kind not in ("mrc", "custom"):
        raise ValueError(f"classifier.kind must be 'mrc' or 'custom', not {kind!r}")
    return _assemble(
        Partition(data["granules"]),
        Partition(data["decision_classes"]),
        # an mrc assignment is derived, then compared like any other stage
        None if kind == "mrc" else lambda gfm: RoughClassifier(tuple(c for _, c in pairs), gfm.k),
        meta["source"], tuple(meta["attributes"]), meta["decision"],
        cls_data["tie_break"], cls_data["seed"],
    )


_CHUNK = 512  # list items or lines the writers lay out at a time
_PIECE = 1 << 20  # characters _whole adds to its text at a time
_T = TypeVar("_T")


def _whole(parts: Iterable[str]) -> str:
    """`"".join(parts)` without the parts held beside the text: CPython
    grows in place a str only this frame holds. It grows by pieces of
    about _PIECE characters, as a str is copied on each `+=` under a
    profile or trace hook."""
    text, piece, size = "", [], 0
    for part in parts:
        piece.append(part)
        size += len(part)
        if size >= _PIECE:
            text += "".join(piece)
            piece, size = [], 0
    text += "".join(piece)
    return text


@_collector_paused
def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON rendering: stable key order, two-space indent.

    The text is exactly `json.dumps(report_to_dict(report), indent=2) + "\\n"`.
    """
    return _whole(_json_parts(report))


def _json_parts(report: AnalysisReport) -> Iterator[str]:
    """report_to_json's text in parts, a section value at a time."""
    yield from _parts(dict(_sections(report)), "")
    yield "\n"


def _parts(value: object, pad: str) -> Iterator[str]:
    """`json.dumps(value, indent=2)` in parts, for the values _sections
    gives: a dict a value at a time; a list, an iterator, a _Rows or a
    _Table in groups of at most _CHUNK items or row members; a scalar
    through _scalar, so any other type raises TypeError instead of changing
    the layout. json.dumps runs a pure-Python encoder whenever it indents;
    here no Python call is made per int in a list, row or _Table row.
    """
    inner = pad + "  "
    kind = type(value)
    if kind is dict:
        lead = "{"
        for key, item in value.items():
            yield f"{lead}\n{inner}{_escape(key)}: "
            lead = ","
            yield from _parts(item, inner)
        yield "{}" if lead == "{" else f"\n{pad}}}"
    elif kind is list or kind is _Rows or kind is _Table or isinstance(value, Iterator):
        lead = "["
        groups = _row_groups if kind is _Rows else _template_rows if kind is _Table else _groups
        for group in groups(value, inner):
            yield f"{lead}\n{inner}"
            yield from group
            lead = ","
        yield "[]" if lead == "[" else f"\n{pad}]"
    else:
        yield _scalar(value)


def _groups(items: Iterable[object], inner: str) -> Iterator[Iterable[str]]:
    """The entries of the list of `items` in groups of parts, drawing
    _CHUNK items at a time: a chunk of ints is one part, and any other
    item is a group of its own."""
    sep = ",\n" + inner
    for chunk in _chunks(items):
        if _types(chunk) == {int}:
            yield [sep.join(map(int.__repr__, chunk))]
        else:
            yield from map(_parts, chunk, repeat(inner))


def _row_groups(rows: _Rows, inner: str) -> Iterator[Iterable[str]]:
    """The entries of a _Rows list in groups of whole rows of at most
    _CHUNK members, drawing _CHUNK rows at a time: one %-template filled
    with the rows' values, or the join of each distinct row's text, made
    once. A longer row goes out alone, _CHUNK ints a part."""
    sep = ",\n" + inner
    template = partial(_row_template, inner=inner)
    texts = {row: template(len(row)) % row for row in rows.distinct or () if len(row) <= _CHUNK}
    for chunk in _chunks(rows.rows):
        ends = list(accumulate(map(len, chunk)))
        start = 0
        while start < len(chunk):
            stop = bisect_right(ends, (ends[start - 1] if start else 0) + _CHUNK, start)
            if stop == start:
                yield _parts(list(chunk[start]), inner)
                stop += 1
            elif not texts:
                yield [_fill(chunk[start:stop], sep, template)]
            else:
                yield [sep.join(map(texts.__getitem__, chunk[start:stop]))]
            start = stop


def _row_template(n: int, inner: str) -> str:
    """The %-template of a list of n ints as `_parts` lays it out at `inner`."""
    if not n:
        return "[]"
    row_pad = f"\n{inner}  "
    return "[" + ",".join(repeat(f"{row_pad}%s", n)) + f"\n{inner}]"


def _template_rows(table: _Table, inner: str) -> Iterator[list[str]]:
    """The entries of a _Table's list, _CHUNK rows a part, each part one
    %-template filled with the rows' values."""
    field_pad = inner + "  "
    fields = (f"\n{field_pad}{_escape(key).replace('%', '%%')}: %s" for key in table)
    item = "{" + ",".join(fields) + f"\n{inner}}}"
    sep = f",\n{inner}"
    for columns in zip(*map(_chunks, table.values())):
        values = chain.from_iterable(zip(*map(_scalar_texts, columns)))
        yield [sep.join(repeat(item, len(columns[0]))) % tuple(values)]


def _scalar_texts(column: list[object]) -> list[object]:
    """A chunk of a _Table column as %s writes it: ints as they are, the
    rest (the theorem record's bools) as _scalar writes them."""
    return column if _types(column) == {int} else list(map(_scalar, column))


def _scalar(value: object) -> str:
    """The JSON text of None, a bool, an int or a str; any other type
    raises TypeError."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _escape(value)
    raise TypeError(f"report JSON cannot hold a {kind.__name__}")


def _chunks(items: Iterable[_T]) -> Iterator[list[_T]]:
    """Consecutive lists of up to _CHUNK items."""
    items = iter(items)
    return iter(lambda: list(islice(items, _CHUNK)), [])


def _fill(rows: list[Sequence[object]], sep: str, template: str | Callable[[int], str]) -> str:
    """`sep.join(shape % tuple(row) for row in rows)` as one %-template
    filled from one flat tuple of the rows' values. Each row's shape is
    `template`, or `template(len(row))` where rows differ in length."""
    values = tuple(chain.from_iterable(rows))
    if type(template) is str:
        return sep.join(repeat(template, len(rows))) % values
    lengths = list(map(len, rows))
    shapes = {n: template(n) for n in set(lengths)}
    return sep.join(map(shapes.__getitem__, lengths)) % values


def _filled(
    rows: Iterable[Sequence[object]], sep: str, template: str | Callable[[int], str]
) -> Iterator[str]:
    """The rows as _fill lays them out, _CHUNK rows a part, with each `sep`
    between two parts a part of its own."""
    chunks = _chunks(rows)
    yield _fill(next(chunks, []), sep, template)
    for chunk in chunks:
        yield sep
        yield _fill(chunk, sep, template)


def _grid(
    corner: str, col_labels: list[str], prefix: str, rows: Sequence[Hashable],
    entries: dict[Hashable, tuple], last: tuple | None = None,
) -> Iterator[str]:
    """Lay out a table of the text report in parts, the one layout of all
    four: a line of `corner` and the column labels, a line per row of
    `rows` labelled {prefix}1.., then `last`, a label and its entries, if
    given. Labels are left-aligned and entries right-aligned, each column
    as wide as its label and its widest entry, two spaces from the next.
    `entries` maps each distinct row to its entries, whose text is made
    once with the table's one %-template; a line is its label and that
    text."""
    tail = [last] if last else []
    widest = f"{prefix}{len(rows)}"  # the widest row label
    columns = zip((corner, *col_labels), *tail, *((widest, *row) for row in entries.values()))
    width, *widths = (max(map(len, map(str, column))) for column in columns)
    row_text = "  ".join(map("%{}s".format, widths))
    texts = {row: row_text % values for row, values in entries.items()}
    line = f"  %-{width}s  {row_text}"
    yield line % (corner, *col_labels) + "\n"
    labelled = zip(range(1, len(rows) + 1), map(texts.__getitem__, rows))
    yield from _filled(labelled, "\n", f"  {prefix}%-{width - len(prefix)}s  %s")
    if last:
        yield "\n" + line % last


def _cell(value: object) -> object:
    """A text report entry: a Fraction as its value and its six-place
    decimal, a bool as yes or no, None as -, anything else as it is."""
    if type(value) is Fraction:
        return f"{value} ({_decimal6(value)})"
    if type(value) is bool:
        return "yes" if value else "no"
    return "-" if value is None else value


# the bound table lists nl^m beside nl**, not in the rows' _BOUND_FIELDS order
_BOUND_COLUMNS = itemgetter(0, 1, 2, 5, 3, 4, 6, 7)


@_collector_paused
def render_text(report: AnalysisReport) -> str:
    """Human-oriented rendering with the two matrices laid out as tables."""
    return _whole(_text_parts(report))


def _text_parts(report: AnalysisReport) -> Iterator[str]:
    """render_text's text in parts; lines that grow with the table go out
    _CHUNK at a time. _grid, the one table writer, lays out its four tables."""
    gfm = report.frequency
    cm = report.confusion
    m, k = report.n_granules, report.n_classes
    class_labels = list(map("Y{}".format, range(1, k + 1)))
    yield (
        f"Input: {report.source}\n"
        f"  objects: {report.n_objects}   granules: {m}   classes: {k}\n"
        f"  attributes: {', '.join(report.attribute_names)}"
        f"   decision: {report.decision_name}\n"
    )
    yield "\nGranules\n"
    # a granule's row: its number, then its members
    members = map(add, zip(range(1, m + 1)), report.granules._members)
    yield from _filled(
        members, "\n", lambda n: "  X%s = {" + ", ".join(repeat("%s", n - 1)) + "}"
    )
    yield "\nDecision classes"
    for label, block in zip(class_labels, report.decisions._members):
        # a class line holds a share of all objects, so its ids go out in parts
        yield f"\n  {label} = {{"
        yield from _filled(zip(block), ", ", "%s")
        yield "}"
    yield "\n\nGranule frequency matrix\n"
    rows = {row: (*row, sum(row)) for row in gfm._distinct}
    last = ("size", *gfm.class_sizes, gfm.total)
    yield from _grid("", [*class_labels, "size"], "X", gfm.cells, rows, last)

    if report.classifier_kind == "mrc":
        classifier = f"mrc (tie-break: {report.tie_break}, seed: {report.seed})"
    else:
        classifier = "custom mapping"
    yield f"\n\nClassifier: {classifier}\n  assignment: "
    pairs = zip(range(1, m + 1), report.classifier.assignment)
    yield from _filled(pairs, ", ", "X%s -> Y%s")
    yield (
        "\n  overlap rule: "
        + ("satisfied" if report.validation.satisfies_rule else "violated")
        + f"\n  row-maximal: {_cell(report.row_maximal)}"
        + "\n\nConfusion matrix (rows: predicted, columns: true)\n"
    )
    rows = {row: (*row, sum(row)) for row in cm.cells}
    last = ("sum", *cm.col_sums, cm.total)
    yield from _grid("", [*class_labels, "sum"], "Y", cm.cells, rows, last)

    yield (
        "\n\nQuality indices\n"
        f"  gamma (approximation quality): {_cell(report.approximation.gamma)}\n"
        f"  success ratio: {_cell(report.success)}\n"
        f"  alpha (aggregate accuracy): {_cell(report.alpha_overall)}\n"
    )
    index_rows = [tuple(map(_cell, values)) for values in _class_indices(report)]
    columns = ["size", "lower", "upper", "coverage", "precision", "accuracy", "alpha_hat"]
    yield from _grid("class", columns, "Y", index_rows, dict(zip(index_rows, index_rows)))

    validated, maximal = map(_cell, (report.bounds.rule_validated, report.bounds.mrc_classifier))
    yield f"\n\nConfusion-matrix bounds (rule validated: {validated}, row-maximal: {maximal})\n"
    bound_rows = [tuple(map(_cell, _BOUND_COLUMNS(row))) for row in report.bounds._rows]
    columns = ["|Y|", "nl*", "nl**", "nl^m", "nu*", "nu**", "nu^m", "clamped"]
    yield from _grid("class", columns, "Y", bound_rows, dict(zip(bound_rows, bound_rows)))
    yield "\n\n"

    thm = report.theorems
    if not thm.applicable:
        yield "Theorem checks: not applicable (overlap rule violated)\n"
        return
    failed_bounds, failed_lemmas = thm._failures()
    n_bounds = len(thm._bounds_passed)
    n_lemmas = len(thm._lemmas_passed)
    verdict = "FAIL" if failed_bounds or failed_lemmas else "PASS"
    yield (
        f"Theorem checks: {n_bounds - len(failed_bounds)}/{n_bounds} bound chains, "
        f"{n_lemmas - len(failed_lemmas)}/{n_lemmas} lemma checks -> {verdict}\n"
    )
    for theorem, j, links in failed_bounds:
        yield f"  FAILED theorem {theorem}, class {j}: {' <= '.join(map(str, links))}\n"
    for part, subject in failed_lemmas:
        yield f"  FAILED lemma part {part}, subject {subject}\n"
