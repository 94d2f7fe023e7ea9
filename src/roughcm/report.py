"""Analysis report assembly, JSON serialization, and text rendering.

The JSON form is the canonical machine format: rationals appear as
{num, den, decimal} triples where the num/den pair is exact and the
decimal field is a six-place string rendering for human eyes only.
Serialization round-trips losslessly through report_to_dict and
report_from_dict, and identical inputs produce byte-identical JSON:
report_to_json writes exactly json.dumps(report_to_dict(r), indent=2)
and a newline, with its own writer that handles only the JSON types the
dict holds. report_from_dict reads only the facts, requires each to have
its JSON type (ids, classes, chain entries and lemma numbers int; flags
bool; provenance and context str), and derives the rest.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, repeat, starmap, zip_longest
from json.encoder import encode_basestring_ascii as _escape
from operator import eq, itemgetter

from .classifiers import (
    RoughClassifier,
    TieBreak,
    ValidationReport,
    is_row_maximal,
    maximal_row_classifier,
    success_ratio,
    validate_overlap,
)
from .core import (
    DecisionSystem,
    Partition,
    decision_partition,
    partition_by_attributes,
)
from .errors import OverlapViolationError, ReportFormatError, RoughAnalysisError
from .indices import (
    ApproximationSummary,
    BoundsReport,
    alpha_hat_overall,
    alpha_hat_per_class,
    approximation_summary,
    confusion_bounds,
)
from .matrices import (
    GranuleFrequencyMatrix,
    RoughConfusionMatrix,
    confusion_matrix,
    granule_frequency_matrix,
)
from .oracle import BoundCheck, LemmaCheck, TheoremReport, verify_theorems

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
    """Rebuild the exact rational; the decimal field is ignored."""
    return Fraction(data["num"], data["den"])


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


def analyze_decision_system(
    ds: DecisionSystem,
    attributes: Iterable[str] | None = None,
    classifier: (
        RoughClassifier | Callable[[GranuleFrequencyMatrix], RoughClassifier] | None
    ) = None,
    tie_break: TieBreak = TieBreak.LOWEST,
    seed: int = 0,
    source: str = "<memory>",
) -> AnalysisReport:
    """Run the whole pipeline on one decision system and assemble a report.

    Every stage is built once and handed on, the verifier included. With
    `classifier=None` a maximal row classifier is built from the frequency
    matrix using `tie_break` and `seed`. An explicit classifier, or a
    function building one from the frequency matrix, must satisfy the
    overlap rule; OverlapViolationError names the offending granules
    otherwise. `attributes=None` uses every condition attribute.
    """
    names = tuple(attributes) if attributes is not None else ds.condition_names
    granules = partition_by_attributes(ds, names)
    selected = tuple(n for n in ds.condition_names if n in set(names))
    decisions = decision_partition(ds)
    gfm = granule_frequency_matrix(granules, decisions)
    if classifier is None:
        kind = "mrc"
        f = maximal_row_classifier(gfm, tie_break, seed)
        tb_value: str | None = tie_break.value
        seed_value: int | None = seed
    else:
        kind = "custom"
        f = classifier(gfm) if callable(classifier) else classifier
        tb_value = seed_value = None
    validation = validate_overlap(f, gfm)
    if not validation.satisfies_rule:
        raise OverlapViolationError(validation.violations)
    cm = confusion_matrix(gfm, f)
    bounds = confusion_bounds(cm, validation, is_mrc=is_row_maximal(f, gfm))
    context = {
        "classifier": kind,
        "tie_break": tb_value if tb_value is not None else "-",
        "seed": str(seed_value) if seed_value is not None else "-",
    }
    theorems = verify_theorems(gfm, f, cm, bounds, context)
    return AnalysisReport(
        source=source,
        attribute_names=selected,
        decision_name=ds.decision_attribute.name,
        frequency=gfm,
        classifier_kind=kind,
        tie_break=tb_value,
        seed=seed_value,
        classifier=f,
        validation=validation,
        confusion=cm,
        approximation=approximation_summary(gfm),
        bounds=bounds,
        theorems=theorems,
    )


def _derived(report: AnalysisReport) -> dict[str, object]:
    """JSON form of every stored value that derives from the report's facts.

    Keys are dotted paths into the report dict: report_to_dict writes these
    values there, and report_from_dict checks the stored ones against them.
    The two lists of rows that grow with the granule count are iterators,
    so the check compares them row by row without building a copy.
    """
    gfm = report.frequency
    cm = report.confusion
    index_rows = [
        {
            "class": j,
            "size": approx.size,
            "lower_size": approx.lower_size,
            "upper_size": approx.upper_size,
            "lower_coverage": rational_triple(approx.lower_coverage),
            "upper_precision": rational_triple(approx.upper_precision),
            "accuracy": rational_triple(approx.accuracy),
            "alpha_hat": rational_triple(alpha),
        }
        for j, (approx, alpha) in enumerate(
            zip(report.approximation.classes, report.alpha_hat), start=1
        )
    ]
    return {
        "input.objects": report.n_objects,
        "input.granules": report.n_granules,
        "input.classes": report.n_classes,
        "granule_matrix.cells": map(list, gfm.cells),
        "granule_matrix.granule_sizes": list(gfm.granule_sizes),
        "granule_matrix.class_sizes": list(gfm.class_sizes),
        "granule_matrix.total": gfm.total,
        "classifier.assignment": map(
            list, enumerate(report.classifier.assignment, start=1)
        ),
        "classifier.row_maximal": report.row_maximal,
        "classifier.satisfies_overlap": report.validation.satisfies_rule,
        "classifier.violations": list(report.validation.violations),
        "confusion_matrix": {
            "cells": [list(row) for row in cm.cells],
            "row_sums": list(cm.row_sums),
            "col_sums": list(cm.col_sums),
            "total": cm.total,
        },
        "indices": {
            "gamma": rational_triple(report.approximation.gamma),
            "success_ratio": rational_triple(report.success),
            "alpha_overall": rational_triple(report.alpha_overall),
            "classes": index_rows,
        },
        "bounds": {
            "rule_validated": report.bounds.rule_validated,
            "mrc_classifier": report.bounds.mrc_classifier,
            # ClassBounds declares its fields in the order the rows list them
            "classes": [
                {"class": j, **asdict(cb)}
                for j, cb in enumerate(report.bounds.classes, start=1)
            ],
        },
        "theorems.overall_pass": report.theorems.overall_pass,
        "theorems.bound_checks": [
            {
                "theorem": c.theorem,
                "class": c.class_index,
                "chain": list(c.chain),
                "passed": c.passed,
            }
            for c in report.theorems.bound_checks
        ],
    }


def report_to_dict(report: AnalysisReport) -> dict[str, object]:
    """Plain-dict form of the report, ready for json.dumps."""
    derived = _derived(report)
    return {
        "input": {
            "source": report.source,
            "objects": derived["input.objects"],
            "granules": derived["input.granules"],
            "classes": derived["input.classes"],
            "attributes": list(report.attribute_names),
            "decision": report.decision_name,
        },
        "granules": [sorted(block) for block in report.granules.blocks],
        "decision_classes": [sorted(block) for block in report.decisions.blocks],
        "granule_matrix": {
            "cells": list(derived["granule_matrix.cells"]),
            "granule_sizes": derived["granule_matrix.granule_sizes"],
            "class_sizes": derived["granule_matrix.class_sizes"],
            "total": derived["granule_matrix.total"],
        },
        "classifier": {
            "kind": report.classifier_kind,
            "tie_break": report.tie_break,
            "seed": report.seed,
            "assignment": list(derived["classifier.assignment"]),
            "row_maximal": derived["classifier.row_maximal"],
            "satisfies_overlap": derived["classifier.satisfies_overlap"],
            "violations": derived["classifier.violations"],
        },
        "confusion_matrix": derived["confusion_matrix"],
        "indices": derived["indices"],
        "bounds": derived["bounds"],
        "theorems": {
            "applicable": report.theorems.applicable,
            "overall_pass": derived["theorems.overall_pass"],
            "bound_checks": derived["theorems.bound_checks"],
            "lemma_checks": [
                {"part": c.part, "subject": c.subject, "passed": c.passed}
                for c in report.theorems.lemma_checks
            ],
            "context": dict(report.theorems.context),
        },
    }


def report_from_dict(data: dict[str, object]) -> AnalysisReport:
    """Rebuild a report from its dict form; inverse of report_to_dict.

    Only facts are read: the partitions, the classifier assignment, the
    provenance and the theorem record. Everything else is derived by the
    analysis stages, and every stored copy is checked against its derived
    value. Malformed input raises ReportFormatError: a missing key, a value
    of the wrong type, a part whose invariants fail, a classifier that
    breaks the overlap rule, or a stored copy that disagrees with the
    derived value, named by its dotted path.
    """
    try:
        report = _rebuild(data)
        stale = next(
            (
                path
                for path, derived in _derived(report).items()
                if not _same(_at(data, path), derived)
            ),
            None,
        )
    except KeyError as exc:
        raise ReportFormatError(f"malformed report: missing key {exc}") from exc
    except (
        ArithmeticError, LookupError, TypeError, ValueError, RoughAnalysisError
    ) as exc:
        raise ReportFormatError(f"malformed report: {exc}") from exc
    if stale is not None:
        derived = _derived(report)[stale]
        if isinstance(derived, Iterator):
            derived = list(derived)
        path, stored, derived = _first_difference(stale, _at(data, stale), derived)
        raise ReportFormatError(
            f"malformed report: {path} is {reprlib.repr(stored)}, "
            f"the report derives {reprlib.repr(derived)}"
        )
    return report


_END = object()


def _same(stored: object, derived: object) -> bool:
    if isinstance(derived, Iterator):
        return isinstance(stored, list) and all(
            starmap(eq, zip_longest(stored, derived, fillvalue=_END))
        )
    return stored == derived


def _at(data: object, path: str) -> object:
    for key in path.split("."):
        data = data[key]
    return data


def _first_difference(
    path: str, stored: object, derived: object
) -> tuple[str, object, object]:
    """Descend two unequal JSON values to the first item where they differ."""
    while True:
        if isinstance(stored, dict) and isinstance(derived, dict):
            if stored.keys() != derived.keys():
                return path, stored, derived
            key = next(key for key in derived if stored[key] != derived[key])
        elif isinstance(stored, list) and isinstance(derived, list):
            if len(stored) != len(derived):
                return path, stored, derived
            key = next(i for i, (a, b) in enumerate(zip(stored, derived)) if a != b)
        else:
            return path, stored, derived
        path, stored, derived = f"{path}.{key}", stored[key], derived[key]


def _types(values: Iterable[object]) -> set[type]:
    return set(map(type, values))


def _type_names(types: set[type]) -> str:
    return " or ".join(sorted("null" if t is type(None) else t.__name__ for t in types))


def _rebuild(data: dict[str, object]) -> AnalysisReport:
    meta, cls_data, thm = data["input"], data["classifier"], data["theorems"]
    pairs, lemmas = cls_data["assignment"], thm["lemma_checks"]
    if set(map(len, pairs)) - {2}:
        raise ValueError("classifier.assignment entries must be [granule, class] pairs")
    # Facts are written back as read, so each must have the type its JSON
    # form needs: a float id or a bool class would load (1.0 == True == 1).
    for what, allowed, values in (
        ("granule members", {int}, chain.from_iterable(data["granules"])),
        ("decision class members", {int}, chain.from_iterable(data["decision_classes"])),
        ("classifier.assignment entries", {int}, chain.from_iterable(pairs)),
        ("input.source", {str}, [meta["source"]]),
        ("input.decision", {str}, [meta["decision"]]),
        ("input.attributes", {list}, [meta["attributes"]]),
        ("input.attributes entries", {str}, meta["attributes"]),
        ("classifier.kind", {str}, [cls_data["kind"]]),
        ("classifier.tie_break", {str, type(None)}, [cls_data["tie_break"]]),
        ("classifier.seed", {int, type(None)}, [cls_data["seed"]]),
        ("theorems.applicable", {bool}, [thm["applicable"]]),
        (
            "bound check theorems, classes and chains",
            {int},
            chain.from_iterable(
                (c["theorem"], c["class"], *c["chain"]) for c in thm["bound_checks"]
            ),
        ),
        (
            "lemma check parts and subjects",
            {int},
            chain.from_iterable(map(itemgetter("part", "subject"), lemmas)),
        ),
        ("lemma check flags", {bool}, map(itemgetter("passed"), lemmas)),
        (
            "theorems.context keys and values",
            {str},
            chain.from_iterable(dict.items(thm["context"])),
        ),
    ):
        wrong = _types(values) - allowed
        if wrong:
            raise TypeError(
                f"{what} must be {_type_names(allowed)}, not {_type_names(wrong)}"
            )
    gfm = granule_frequency_matrix(
        Partition(tuple(frozenset(block) for block in data["granules"])),
        Partition(tuple(frozenset(block) for block in data["decision_classes"])),
    )
    f = RoughClassifier(tuple(cls for _, cls in pairs), gfm.k)
    validation = validate_overlap(f, gfm)
    if not validation.satisfies_rule:
        raise OverlapViolationError(validation.violations)
    cm = confusion_matrix(gfm, f)
    theorems = TheoremReport(
        applicable=thm["applicable"],
        bound_checks=tuple(
            BoundCheck(c["theorem"], c["class"], tuple(c["chain"]))
            for c in thm["bound_checks"]
        ),
        lemma_checks=tuple(
            LemmaCheck(c["part"], c["subject"], c["passed"])
            for c in lemmas
        ),
        context=dict(thm["context"]),
    )
    return AnalysisReport(
        source=meta["source"],
        attribute_names=tuple(meta["attributes"]),
        decision_name=meta["decision"],
        frequency=gfm,
        classifier_kind=cls_data["kind"],
        tie_break=cls_data["tie_break"],
        seed=cls_data["seed"],
        classifier=f,
        validation=validation,
        confusion=cm,
        approximation=approximation_summary(gfm),
        bounds=confusion_bounds(cm, validation, is_row_maximal(f, gfm)),
        theorems=theorems,
    )


def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON rendering: stable key order, two-space indent.

    The text is exactly `json.dumps(report_to_dict(report), indent=2) + "\\n"`.
    """
    return _json(report_to_dict(report), "") + "\n"


def _json(value: object, pad: str) -> str:
    """`json.dumps(value, indent=2)` for the values report_to_dict emits.

    Dicts with str keys, lists, str, int, bool and None; any other type
    raises TypeError instead of changing the layout. json.dumps runs a
    pure-Python encoder whenever it indents; here each container is one
    str.join, and a list of ints, or of nonempty lists of ints (the rows
    that grow with the granule count), is laid out without a Python call
    per item or row.
    """
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
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list:
        if not value:
            return "[]"
        types = _types(value)
        if types == {int}:
            body = sep.join(map(int.__repr__, value))
        elif types == {list} and all(value) and _types(chain.from_iterable(value)) == {int}:
            row_pad = inner + "  "
            rows = map(f",\n{row_pad}".join, map(map, repeat(int.__repr__), value))
            body = f"\n{inner}]{sep}[\n{row_pad}".join(rows)
            body = f"[\n{row_pad}{body}\n{inner}]"
        else:
            body = sep.join([_json(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        body = sep.join([f"{_escape(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"report JSON cannot hold a {kind.__name__}")


def _grid(corner: str, col_labels: list[str], row_labels: list[str], rows: list[list[object]]) -> list[str]:
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


def _frac_text(value: Fraction) -> str:
    return f"{value} ({_decimal6(value)})"


def render_text(report: AnalysisReport) -> str:
    """Human-oriented rendering with the two matrices laid out as tables."""
    gfm = report.frequency
    cm = report.confusion
    class_labels = [f"Y{j}" for j in range(1, report.n_classes + 1)]
    granule_labels = [f"X{i}" for i in range(1, report.n_granules + 1)]

    lines: list[str] = []
    lines.append(f"Input: {report.source}")
    lines.append(
        f"  objects: {report.n_objects}   granules: {report.n_granules}"
        f"   classes: {report.n_classes}"
    )
    lines.append(
        f"  attributes: {', '.join(report.attribute_names)}"
        f"   decision: {report.decision_name}"
    )
    lines.append("")
    lines.append("Granules")
    for label, block in zip(granule_labels, report.granules.blocks):
        members = ", ".join(str(x) for x in sorted(block))
        lines.append(f"  {label} = {{{members}}}")
    lines.append("Decision classes")
    for label, block in zip(class_labels, report.decisions.blocks):
        members = ", ".join(str(x) for x in sorted(block))
        lines.append(f"  {label} = {{{members}}}")
    lines.append("")

    lines.append("Granule frequency matrix")
    gfm_rows = [list(row) + [size] for row, size in zip(gfm.cells, gfm.granule_sizes)]
    gfm_rows.append(list(gfm.class_sizes) + [gfm.total])
    lines += _grid("", class_labels + ["size"], granule_labels + ["size"], gfm_rows)
    lines.append("")

    if report.classifier_kind == "mrc":
        lines.append(
            f"Classifier: mrc (tie-break: {report.tie_break}, seed: {report.seed})"
        )
    else:
        lines.append("Classifier: custom mapping")
    pairs = ", ".join(
        f"X{i} -> Y{cls}"
        for i, cls in enumerate(report.classifier.assignment, start=1)
    )
    lines.append(f"  assignment: {pairs}")
    lines.append(
        "  overlap rule: "
        + ("satisfied" if report.validation.satisfies_rule else "violated")
    )
    lines.append("  row-maximal: " + ("yes" if report.row_maximal else "no"))
    lines.append("")

    lines.append("Confusion matrix (rows: predicted, columns: true)")
    cm_rows = [list(row) + [s] for row, s in zip(cm.cells, cm.row_sums)]
    cm_rows.append(list(cm.col_sums) + [cm.total])
    lines += _grid("", class_labels + ["sum"], class_labels + ["sum"], cm_rows)
    lines.append("")

    lines.append("Quality indices")
    lines.append(f"  gamma (approximation quality): {_frac_text(report.approximation.gamma)}")
    lines.append(f"  success ratio: {_frac_text(report.success)}")
    lines.append(f"  alpha (aggregate accuracy): {_frac_text(report.alpha_overall)}")
    index_rows = [
        [
            approx.size,
            approx.lower_size,
            approx.upper_size,
            _frac_text(approx.lower_coverage),
            _frac_text(approx.upper_precision),
            _frac_text(approx.accuracy),
            _frac_text(alpha),
        ]
        for approx, alpha in zip(report.approximation.classes, report.alpha_hat)
    ]
    lines += _grid(
        "class",
        ["size", "lower", "upper", "coverage", "precision", "accuracy", "alpha_hat"],
        class_labels,
        index_rows,
    )
    lines.append("")

    validated = "yes" if report.bounds.rule_validated else "no"
    maximal = "yes" if report.bounds.mrc_classifier else "no"
    lines.append(
        f"Confusion-matrix bounds (rule validated: {validated}, row-maximal: {maximal})"
    )
    bound_rows = [
        [
            cb.class_size,
            cb.nl_star,
            cb.nl_star2,
            "-" if cb.nl_m is None else cb.nl_m,
            cb.nu_star,
            cb.nu_star2,
            "-" if cb.nu_m is None else cb.nu_m,
            "yes" if cb.clamped else "no",
        ]
        for cb in report.bounds.classes
    ]
    lines += _grid(
        "class",
        ["|Y|", "nl*", "nl**", "nl^m", "nu*", "nu**", "nu^m", "clamped"],
        class_labels,
        bound_rows,
    )
    lines.append("")

    thm = report.theorems
    if not thm.applicable:
        lines.append("Theorem checks: not applicable (overlap rule violated)")
    else:
        n_bounds = len(thm.bound_checks)
        n_lemmas = len(thm.lemma_checks)
        ok_bounds = sum(1 for c in thm.bound_checks if c.passed)
        ok_lemmas = sum(1 for c in thm.lemma_checks if c.passed)
        verdict = "PASS" if thm.overall_pass else "FAIL"
        lines.append(
            f"Theorem checks: {ok_bounds}/{n_bounds} bound chains, "
            f"{ok_lemmas}/{n_lemmas} lemma checks -> {verdict}"
        )
        for c in thm.bound_checks:
            if not c.passed:
                chain = " <= ".join(str(v) for v in c.chain)
                lines.append(
                    f"  FAILED theorem {c.theorem}, class {c.class_index}: {chain}"
                )
        for c in thm.lemma_checks:
            if not c.passed:
                lines.append(f"  FAILED lemma part {c.part}, subject {c.subject}")
    return "\n".join(lines) + "\n"
