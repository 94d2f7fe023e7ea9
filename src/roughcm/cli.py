"""Command line front end: CSV ingestion, analysis, and fuzz verification.

Exit codes: 0 on success, 2 when a supplied classifier violates the
overlap rule, 1 for any input or configuration error (including bad
flags). The fuzz subcommand exits 0 only when no check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence
from dataclasses import asdict
from itertools import chain, islice
from pathlib import Path
from typing import TextIO

from .classifiers import RoughClassifier, TieBreak, classifier_from_text
from .core import Attribute, DecisionSystem, _collector_paused, _Column
from .errors import ClassifierFileError, CsvFormatError, OverlapViolationError, RoughAnalysisError
from .matrices import GranuleFrequencyMatrix
from .oracle import FuzzSummary, run_fuzz_trials
from .report import AnalysisReport, _json_parts, _text_parts, analyze_decision_system

__all__ = ["ingest_csv", "run_analyze", "write_report", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that status is reserved
    # for overlap-rule violations, so downgrade flag problems to 1.
    def error(self, message: str) -> None:
        self.exit(1, f"{self.prog}: error: {message}\n")


_CHUNK = 8192  # csv rows read, interned and checked at a time


@_collector_paused
def ingest_csv(path: str | Path, decision_column: str | None = None) -> DecisionSystem:
    """Read a decision table: one header row, one object per data row.

    Objects are numbered 1..n in row order. `decision_column` names the
    decision attribute (default: the last column); every other column
    becomes a condition attribute. Cells are opaque tokens; empty cells,
    ragged rows, and duplicate or empty header names are rejected. Equal
    tokens are interned to one string and each column is kept as one
    tuple, which the attribute values view.

    Rows are read _CHUNK at a time, so only one chunk's row lists are
    alive. The whole file is read before any check fails, so a line the
    csv module refuses wins over every other fault, and the header faults
    win over a bad data row wherever it sits.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            width = len(header or ())
            columns: list[list[str]] = [[] for _ in range(width)]
            n, fault = 0, None
            for rows in iter(lambda: list(islice(reader, _CHUNK)), []):
                if fault is None:
                    cells = list(map(sys.intern, chain.from_iterable(rows)))
                    if set(map(len, rows)) != {width} or "" in cells:
                        fault = _first_bad_row(path, header, rows, n + 1)
                    for position, column in enumerate(columns):
                        column.extend(cells[position::width])
                n += len(rows)
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if header is None:
        raise CsvFormatError(f"{path}: empty file")
    if width < 2:
        raise CsvFormatError(
            f"{path}: need at least two columns (conditions plus decision), "
            f"got {width}"
        )
    if any(not name for name in header):
        raise CsvFormatError(f"{path}: header has an empty column name")
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise CsvFormatError(
            f"{path}: duplicate column name(s): {', '.join(duplicates)}"
        )
    if n == 0:
        raise CsvFormatError(f"{path}: no data rows")
    if fault is not None:
        raise CsvFormatError(fault)
    ids = tuple(range(1, n + 1))
    # each list goes as soon as its tuple is built
    values = {name: _Column(ids, tuple(columns.pop(0))) for name in header}
    if decision_column is None:
        decision_column = header[-1]
    if decision_column not in header:
        raise CsvFormatError(f"{path}: unknown decision column {decision_column!r}")
    conditions = tuple(
        Attribute(name, values[name]) for name in header if name != decision_column
    )
    return DecisionSystem(ids, conditions, Attribute(decision_column, values[decision_column]))


def _first_bad_row(
    path: str | Path, header: list[str], rows: list[list[str]], start: int
) -> str | None:
    """The message for the first row that is ragged or has an empty cell;
    `rows` start at data row `start`."""
    for number, row in enumerate(rows, start=start):
        if len(row) != len(header):
            return f"{path}: row {number} has {len(row)} cells, expected {len(header)}"
        if "" in row:
            name = header[row.index("")]
            return f"{path}: row {number}, column {name!r} is empty"
    return None


def run_analyze(args: argparse.Namespace) -> AnalysisReport:
    """Ingest the table and produce the full analysis report."""
    ds = ingest_csv(args.input, args.decision)
    attributes: tuple[str, ...] | None = None
    if args.attributes is not None:
        attributes = tuple(args.attributes.split(","))
        if attributes == ("",):
            raise ValueError("the attribute list must name at least one attribute")

    def parse_mapping(gfm: GranuleFrequencyMatrix) -> RoughClassifier:
        # read once the analysis has built the granules the file numbers
        try:
            text = Path(args.classifier).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ClassifierFileError(f"{args.classifier}: not UTF-8 text: {exc.reason}") from None
        return classifier_from_text(text, gfm.m, gfm.k)

    return analyze_decision_system(
        ds,
        attributes=attributes,
        classifier=None if args.classifier == "mrc" else parse_mapping,
        tie_break=args.tie_break,
        seed=args.seed,
        source=str(args.input),
    )


@_collector_paused
def write_report(report: AnalysisReport, fmt: str, out: TextIO) -> None:
    """Write the report to `out` in `fmt`, "json" or "text", exactly as
    report_to_json or render_text gives it, a part at a time: no more of
    the text than one part is held."""
    for part in _json_parts(report) if fmt == "json" else _text_parts(report):
        out.write(part)


def _fuzz_to_dict(summary: FuzzSummary) -> dict[str, object]:
    failure = summary.first_failure
    return {
        "trials": summary.trials,
        "checks": summary.checks,
        "failures": summary.failures,
        "result": "pass" if summary.failures == 0 else "fail",
        "base_seed": summary.base_seed,
        "max_objects": summary.max_objects,
        "max_classes": summary.max_classes,
        "classifier_kinds": list(summary.classifier_kinds),
        "generator": summary.generator,
        # TrialFailure and GeneratorConfig declare their fields in JSON order
        "first_failure": asdict(failure) if failure is not None else None,
    }


def _render_fuzz(summary: FuzzSummary, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_fuzz_to_dict(summary), indent=2) + "\n"
    result = "pass" if summary.failures == 0 else "fail"
    lines = [
        "fuzz summary",
        f"  trials: {summary.trials}   checks: {summary.checks}"
        f"   failures: {summary.failures}   result: {result}",
        f"  base seed: {summary.base_seed}   max objects: {summary.max_objects}"
        f"   max classes: {summary.max_classes}",
        f"  classifier kinds: {', '.join(summary.classifier_kinds)}",
        f"  generator: {summary.generator}",
    ]
    if summary.first_failure is not None:
        failure = summary.first_failure
        cfg = failure.config
        lines.append(
            f"  first failure: trial {failure.trial} ({failure.classifier_kind})"
        )
        lines.append(
            f"    config: n_objects={cfg.n_objects} n_attributes={cfg.n_attributes}"
            f" values_per_attribute={cfg.values_per_attribute}"
            f" n_decision_values={cfg.n_decision_values} seed={cfg.seed}"
        )
        lines.append(f"    attributes: {', '.join(failure.attributes)}")
        lines.append(f"    failed checks: {', '.join(failure.failed_checks)}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughcm",
        description=(
            "Granule-level classifier evaluation on decision tables: rough "
            "approximations, confusion matrices, and exact quality indices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a decision-table CSV")
    analyze.add_argument("--input", required=True, help="decision table CSV path")
    analyze.add_argument(
        "--decision", default=None, help="decision column name (default: last column)"
    )
    analyze.add_argument(
        "--attributes",
        default=None,
        help="comma-separated condition attributes (default: all)",
    )
    analyze.add_argument(
        "--classifier",
        default="mrc",
        help="'mrc' or the path of a granule-to-class mapping file",
    )
    analyze.add_argument(
        "--tie-break",
        choices=[policy.value for policy in TieBreak],
        default=TieBreak.LOWEST.value,
        dest="tie_break",
        help="tie handling for the maximal row classifier",
    )
    analyze.add_argument("--seed", type=int, default=0, help="seed for random ties")
    analyze.add_argument("--format", choices=["json", "text"], default="json")

    fuzz = sub.add_parser("fuzz", help="randomized verification of the bound theorems")
    fuzz.add_argument("--trials", type=int, default=1000)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-objects", type=int, default=30, dest="max_objects")
    fuzz.add_argument("--max-classes", type=int, default=5, dest="max_classes")
    fuzz.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            write_report(run_analyze(args), args.format, sys.stdout)
            return 0
        # with both classifier kinds, the default
        summary = run_fuzz_trials(args.trials, args.seed, args.max_objects, args.max_classes)
        sys.stdout.write(_render_fuzz(summary, args.format))
        return 0 if summary.failures == 0 else 1
    except OverlapViolationError as exc:
        print(f"roughcm: {exc}", file=sys.stderr)
        return 2
    except (RoughAnalysisError, OSError, ValueError) as exc:
        print(f"roughcm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
