"""Byte-for-byte CLI output on fixed inputs, against committed golden files.

The golden files hold the exact stdout of `roughcm analyze` on the worked
example (maximal row classifier and a custom mapping, JSON and text) and
of `roughcm fuzz --trials 200 --seed 42` in both formats. Any change to
the rendered bytes fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from roughcm.cli import main

GOLDEN = Path(__file__).parent / "golden"

MAPPING = "# granule_index class_index\n1 2\n2 2\n3 2\n4 1\n"

ANALYZE = ["analyze", "--input", "tv.csv", "--attributes", "Price,Screen"]


@pytest.mark.parametrize(
    "argv,golden",
    [
        (ANALYZE + ["--format", "json"], "analyze_mrc.json"),
        (ANALYZE + ["--format", "text"], "analyze_mrc.txt"),
        (ANALYZE + ["--classifier", "map.txt", "--format", "json"], "analyze_custom.json"),
        (ANALYZE + ["--classifier", "map.txt", "--format", "text"], "analyze_custom.txt"),
        (["fuzz", "--trials", "200", "--seed", "42", "--format", "json"], "fuzz_200_seed42.json"),
        (["fuzz", "--trials", "200", "--seed", "42", "--format", "text"], "fuzz_200_seed42.txt"),
    ],
)
def test_stdout_matches_the_golden_file(tv_csv, monkeypatch, capsysbinary, argv, golden):
    monkeypatch.chdir(tv_csv.parent)
    (tv_csv.parent / "map.txt").write_text(MAPPING, encoding="utf-8")
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == (GOLDEN / golden).read_bytes()
