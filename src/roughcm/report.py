"""Analysis report assembly, JSON serialization, and text rendering.

The JSON form is the canonical machine format: rationals appear as
{num, den, decimal} triples where the num/den pair is exact and the
decimal field is a six-place string rendering for human eyes only.
Serialization round-trips losslessly through report_to_dict and
report_from_dict, and identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from fractions import Fraction

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
    ClassApproximation,
    ClassBounds,
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

    Partitions, sizes and the success ratio are derived from the stages.
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
    row_maximal: bool
    confusion: RoughConfusionMatrix
    approximation: ApproximationSummary
    alpha_hat: tuple[Fraction, ...]
    alpha_overall: Fraction
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
        return len(self.granules.universe)

    @property
    def n_granules(self) -> int:
        return self.frequency.m

    @property
    def n_classes(self) -> int:
        return self.frequency.k

    @property
    def success(self) -> Fraction:
        return success_ratio(self.confusion)


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
    row_maximal = is_row_maximal(f, gfm)
    cm = confusion_matrix(gfm, f)
    summary = approximation_summary(granules, decisions)
    bounds = confusion_bounds(cm, validation, is_mrc=row_maximal)
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
        row_maximal=row_maximal,
        confusion=cm,
        approximation=summary,
        alpha_hat=alpha_hat_per_class(cm),
        alpha_overall=alpha_hat_overall(cm),
        bounds=bounds,
        theorems=theorems,
    )


def report_to_dict(report: AnalysisReport) -> dict[str, object]:
    """Plain-dict form of the report, ready for json.dumps."""
    gfm = report.frequency
    cm = report.confusion
    index_rows = []
    for j, (approx, alpha) in enumerate(
        zip(report.approximation.classes, report.alpha_hat), start=1
    ):
        index_rows.append(
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
        )
    # ClassBounds declares its fields in the order the rows list them
    bound_rows = [
        {"class": j, **asdict(cb)}
        for j, cb in enumerate(report.bounds.classes, start=1)
    ]
    return {
        "input": {
            "source": report.source,
            "objects": report.n_objects,
            "granules": report.n_granules,
            "classes": report.n_classes,
            "attributes": list(report.attribute_names),
            "decision": report.decision_name,
        },
        "granules": [sorted(block) for block in report.granules.blocks],
        "decision_classes": [sorted(block) for block in report.decisions.blocks],
        "granule_matrix": {
            "cells": [list(row) for row in gfm.cells],
            "granule_sizes": list(gfm.granule_sizes),
            "class_sizes": list(gfm.class_sizes),
            "total": gfm.total,
        },
        "classifier": {
            "kind": report.classifier_kind,
            "tie_break": report.tie_break,
            "seed": report.seed,
            "assignment": [
                [i, cls] for i, cls in enumerate(report.classifier.assignment, start=1)
            ],
            "row_maximal": report.row_maximal,
            "satisfies_overlap": report.validation.satisfies_rule,
            "violations": list(report.validation.violations),
        },
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
            "classes": bound_rows,
        },
        "theorems": {
            "applicable": report.theorems.applicable,
            "overall_pass": report.theorems.overall_pass,
            "bound_checks": [
                {
                    "theorem": c.theorem,
                    "class": c.class_index,
                    "chain": list(c.chain),
                    "passed": c.passed,
                }
                for c in report.theorems.bound_checks
            ],
            "lemma_checks": [
                {"part": c.part, "subject": c.subject, "passed": c.passed}
                for c in report.theorems.lemma_checks
            ],
            "context": dict(report.theorems.context),
        },
    }


def report_from_dict(data: dict[str, object]) -> AnalysisReport:
    """Rebuild a report from its dict form; inverse of report_to_dict.

    Malformed input raises ReportFormatError: a missing key, a value of the
    wrong type, a part whose invariants fail, or a stored object, granule
    or class count or success ratio that disagrees with the value derived
    from the partitions and matrices.
    """
    try:
        report = _rebuild(data)
        meta, success = data["input"], data["indices"]["success_ratio"]
        stored = {
            "input.objects": (meta["objects"], report.n_objects),
            "input.granules": (meta["granules"], report.n_granules),
            "input.classes": (meta["classes"], report.n_classes),
            "indices.success_ratio": (fraction_from_triple(success), report.success),
        }
    except KeyError as exc:
        raise ReportFormatError(f"malformed report: missing key {exc}") from exc
    except (
        ArithmeticError, LookupError, TypeError, ValueError, RoughAnalysisError
    ) as exc:
        raise ReportFormatError(f"malformed report: {exc}") from exc
    for name, (value, derived) in stored.items():
        if value != derived:
            raise ReportFormatError(
                f"inconsistent report: {name} is {value}, the report derives {derived}"
            )
    return report


def _rebuild(data: dict[str, object]) -> AnalysisReport:
    gfm = GranuleFrequencyMatrix(
        tuple(tuple(row) for row in data["granule_matrix"]["cells"]),
        Partition(tuple(frozenset(block) for block in data["granules"])),
        Partition(tuple(frozenset(block) for block in data["decision_classes"])),
    )
    meta = data["input"]
    cls_data = data["classifier"]
    classifier = RoughClassifier(tuple(cls for _, cls in cls_data["assignment"]), gfm.k)
    validation = ValidationReport(
        cls_data["satisfies_overlap"], tuple(cls_data["violations"])
    )
    cm = RoughConfusionMatrix(
        tuple(tuple(row) for row in data["confusion_matrix"]["cells"])
    )
    idx = data["indices"]
    per_class = tuple(
        ClassApproximation(
            size=row["size"],
            lower_size=row["lower_size"],
            upper_size=row["upper_size"],
            lower_coverage=fraction_from_triple(row["lower_coverage"]),
            upper_precision=fraction_from_triple(row["upper_precision"]),
            accuracy=fraction_from_triple(row["accuracy"]),
        )
        for row in idx["classes"]
    )
    summary = ApproximationSummary(per_class, fraction_from_triple(idx["gamma"]))
    alpha_hat = tuple(fraction_from_triple(row["alpha_hat"]) for row in idx["classes"])
    bounds_data = data["bounds"]
    bounds = BoundsReport(
        tuple(
            ClassBounds(**{key: value for key, value in row.items() if key != "class"})
            for row in bounds_data["classes"]
        ),
        bounds_data["rule_validated"],
        bounds_data["mrc_classifier"],
    )
    thm = data["theorems"]
    theorems = TheoremReport(
        applicable=thm["applicable"],
        bound_checks=tuple(
            BoundCheck(c["theorem"], c["class"], tuple(c["chain"]), c["passed"])
            for c in thm["bound_checks"]
        ),
        lemma_checks=tuple(
            LemmaCheck(c["part"], c["subject"], c["passed"])
            for c in thm["lemma_checks"]
        ),
        overall_pass=thm["overall_pass"],
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
        classifier=classifier,
        validation=validation,
        row_maximal=cls_data["row_maximal"],
        confusion=cm,
        approximation=summary,
        alpha_hat=alpha_hat,
        alpha_overall=fraction_from_triple(idx["alpha_overall"]),
        bounds=bounds,
        theorems=theorems,
    )


def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON rendering: stable key order, two-space indent."""
    return json.dumps(report_to_dict(report), indent=2) + "\n"


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
