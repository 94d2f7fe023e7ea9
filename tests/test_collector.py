"""The cyclic garbage collector is paused while the O(n) entries run.

ingest_csv, analyze_decision_system, render_text, report_to_json and
report_from_dict build or walk containers that grow with the table. They
run with the collector paused and give back its prior state on every
exit; a paused entry called from another one keeps the pause. The fuzz
entries are not paused.
"""

from __future__ import annotations

import gc
import json
import random

import pytest

from roughcm import (
    CsvFormatError,
    OverlapViolationError,
    ReportFormatError,
    RoughClassifier,
    analyze_decision_system,
    render_text,
    report_from_dict,
    report_to_dict,
    report_to_json,
)
from roughcm.cli import ingest_csv, main


@pytest.fixture(autouse=True)
def restore_collector():
    collecting = gc.isenabled()
    yield
    _set_collector(collecting)


def _set_collector(collecting: bool) -> None:
    (gc.enable if collecting else gc.disable)()


COLLECTING = pytest.mark.parametrize(
    "collecting", [True, False], ids=["enabled", "disabled"]
)


@pytest.fixture
def entries(tv_csv, tv_system):
    """One successful call of each paused entry on the worked example."""
    report = analyze_decision_system(tv_system, attributes=("Price", "Screen"))
    data = report_to_dict(report)
    return {
        "ingest_csv": lambda: ingest_csv(tv_csv),
        "analyze_decision_system": lambda: analyze_decision_system(tv_system),
        "render_text": lambda: render_text(report),
        "report_to_json": lambda: report_to_json(report),
        "report_from_dict": lambda: report_from_dict(data),
    }


@pytest.fixture
def failures(tmp_path, tv_system):
    """One failing call of a paused entry per error it raises."""
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,d\nx,y\nonly\n", encoding="utf-8")
    tampered = report_to_dict(analyze_decision_system(tv_system))
    tampered["granule_matrix"]["total"] += 1
    return {
        "report_from_dict": (
            ReportFormatError, lambda: report_from_dict(tampered)
        ),
        "ingest_csv": (CsvFormatError, lambda: ingest_csv(ragged)),
        "analyze_decision_system-mapping": (
            OverlapViolationError,
            lambda: analyze_decision_system(
                tv_system,
                attributes=("Price", "Screen"),
                classifier=RoughClassifier((1, 2, 2, 2), 2),
            ),
        ),
        "analyze_decision_system-tie_break": (
            ValueError, lambda: analyze_decision_system(tv_system, tie_break="bogus")
        ),
    }


@COLLECTING
@pytest.mark.parametrize(
    "name",
    [
        "ingest_csv",
        "analyze_decision_system",
        "render_text",
        "report_to_json",
        "report_from_dict",
    ],
)
def test_the_collector_state_is_restored_on_return(entries, name, collecting):
    _set_collector(collecting)
    entries[name]()
    assert gc.isenabled() is collecting


@COLLECTING
@pytest.mark.parametrize(
    "name",
    [
        "report_from_dict",
        "ingest_csv",
        "analyze_decision_system-mapping",
        "analyze_decision_system-tie_break",
    ],
)
def test_the_collector_state_is_restored_on_raise(failures, name, collecting):
    error, call = failures[name]
    _set_collector(collecting)
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collecting


def test_a_nested_entry_keeps_the_pause(tv_system):
    data = report_to_dict(analyze_decision_system(tv_system))
    tampered = json.loads(json.dumps(data))
    tampered["input"]["objects"] = 7
    seen = []

    def build(gfm):
        # a classifier callable runs inside analyze_decision_system's pause
        seen.append(gc.isenabled())
        f = report_from_dict(data).classifier
        seen.append(gc.isenabled())
        with pytest.raises(ReportFormatError):
            report_from_dict(tampered)
        seen.append(gc.isenabled())
        return f

    gc.enable()
    report = analyze_decision_system(tv_system, classifier=build)
    assert seen == [False, False, False]
    assert gc.isenabled()
    assert report.classifier == report_from_dict(data).classifier


def _collections(run) -> list[int]:
    """The generation of every collection that starts while `run()` runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.enable()
    # a full collection zeroes the allocation counts, so only what run()
    # allocates can start one
    gc.collect()
    gc.callbacks.append(record)
    try:
        run()
    finally:
        gc.callbacks.remove(record)
    return started


def _write_medium_table(path, n_values: int, seed: int) -> None:
    """3,000 seeded rows over 3 attributes and 4 decisions, as CSV."""
    rng = random.Random(seed)
    lines = ["a,b,c,d"]
    for _ in range(3_000):
        values = [f"v{rng.randrange(n_values)}" for _ in range(3)]
        lines.append(",".join([*values, f"y{rng.randrange(4)}"]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(params=[4, 30], ids=["coarse-mrc", "fine-mapping"])
def medium(request, tmp_path):
    """A medium table and the analyze flags for it: the maximal row
    classifier on the coarse table, a mapping file on the fine one."""
    table = tmp_path / "medium.csv"
    _write_medium_table(table, request.param, seed=request.param)
    argv = ["analyze", "--input", str(table)]
    if request.param == 30:
        # the highest class each granule meets satisfies the overlap rule
        gfm = analyze_decision_system(ingest_csv(table)).frequency
        mapping = tmp_path / "map.txt"
        mapping.write_text(
            "".join(
                f"{i} {max(j for j, count in enumerate(row, 1) if count)}\n"
                for i, row in enumerate(gfm.cells, 1)
            ),
            encoding="utf-8",
        )
        argv += ["--classifier", str(mapping)]
    return table, argv


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_starts_no_collection(capsys, medium, fmt):
    _, argv = medium
    codes = []
    assert _collections(lambda: codes.append(main([*argv, "--format", fmt]))) == []
    captured = capsys.readouterr()
    assert codes == [0] and captured.err == ""
    assert captured.out.startswith("Input: " if fmt == "text" else "{\n")


def test_a_report_load_and_save_start_no_collection(medium):
    table, _ = medium
    report = analyze_decision_system(ingest_csv(table))
    text = report_to_json(report)
    data = json.loads(text)
    loaded = []
    assert _collections(lambda: loaded.append(report_from_dict(data))) == []
    saved = []
    assert _collections(lambda: saved.append(report_to_json(loaded[0]))) == []
    assert saved == [text]
