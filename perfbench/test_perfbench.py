"""Tests of the benchmark: its output checker, its child runner and BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
The outputs come from the real roughcm command line on a small seeded table.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import check
import gen
import run


def roughcm(tmp_path, *args: str) -> bytes:
    done = subprocess.run(
        [sys.executable, "-m", "roughcm", *args],
        cwd=tmp_path, env=run.child_env(), capture_output=True, check=True,
    )
    return done.stdout


@pytest.fixture(params=[None, "custom"], ids=["mrc", "custom"])
def table(request, tmp_path):
    header, rows = gen.make_table(7, 400, 3, 3, 4)
    gen.write_table(tmp_path / "T.csv", header, rows)
    cells = check.tally(rows)
    args = ["analyze", "--input", "T.csv"]
    mapping = None
    if request.param == "custom":
        mapping = gen.random_mapping(7, cells)
        gen.write_mapping(tmp_path / "MAP.txt", mapping)
        args += ["--classifier", "MAP.txt"]
    return args, check.expected(cells, mapping)


def test_json_report_passes_and_alterations_fail(tmp_path, table):
    args, exp = table
    out = roughcm(tmp_path, *args)
    assert check.check_analyze_json(out, exp) == []

    data = json.loads(out)
    data["indices"]["gamma"]["num"] += 1
    assert check.check_analyze_json(json.dumps(data).encode(), exp)

    data = json.loads(out)
    data["granule_matrix"]["cells"][-1][0] += 1
    assert check.check_analyze_json(json.dumps(data).encode(), exp)

    assert check.check_analyze_json(out[: len(out) // 2], exp)


def test_text_report_passes_and_alterations_fail(tmp_path, table):
    args, exp = table
    text = roughcm(tmp_path, *args, "--format", "text").decode()
    assert check.check_analyze_text(text.encode(), exp) == []

    def bump_gamma(match: re.Match) -> str:
        return f"{match[1]}{Fraction(match[2]) + Fraction(1, exp.n)}"

    altered = re.sub(r"(gamma \(approximation quality\): )(\S+)", bump_gamma, text)
    assert altered != text
    assert check.check_analyze_text(altered.encode(), exp)

    lines = text.split("\n")
    row = lines.index("Granule frequency matrix") + 2
    label, first, *rest = lines[row].split()
    lines[row] = "  " + "  ".join([label, str(int(first) + 1), *rest])
    assert check.check_analyze_text("\n".join(lines).encode(), exp)

    assert check.check_analyze_text(text.replace("-> PASS", "-> FAIL").encode(), exp)


def test_fuzz_summary_check(tmp_path):
    out = roughcm(tmp_path, "fuzz", "--trials", "50", "--seed", "3", "--format", "json")
    assert check.check_fuzz_json(out, 50, 3) == []
    data = json.loads(out)
    data["failures"] = 1
    assert check.check_fuzz_json(json.dumps(data).encode(), 50, 3)
    assert check.check_fuzz_json(out, run.FUZZ_TRIALS, 3)


def test_identical_check():
    assert check.check_identical(b"abc", b"abc") == []
    assert check.check_identical(b"abd", b"abc")


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    _, peak_mb, problem = run.run_child(["-c", "pass"], tmp_path / "out")
    assert problem is None
    assert peak_mb < 100, "the child reported the benchmark's own peak RSS"


def test_child_timeout_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1)
    wall, _, problem = run.run_child(["-c", "import time; time.sleep(30)"], tmp_path / "out")
    assert problem == "timed out after 1 s"
    assert wall < 10
