"""render_text's theorem verdict on crafted theorem records.

analyze_decision_system only builds passing, applicable records, so the
failure and not-applicable lines are reached by replacing the record of
the worked-example report.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from roughcm import analyze_decision_system, render_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def tv_report(tv_system):
    return analyze_decision_system(
        tv_system, attributes=("Price", "Screen"), source="tv.csv"
    )


@pytest.fixture
def head():
    """The golden text up to its verdict line."""
    text = (GOLDEN / "analyze_mrc.txt").read_text(encoding="utf-8")
    return text[: text.index("Theorem checks: ")]


def _verdict(tv_report, head, **changes):
    text = render_text(replace(tv_report, theorems=replace(tv_report.theorems, **changes)))
    assert text.startswith(head)
    return text[len(head):]


def test_a_failing_bound_chain_is_listed(tv_report, head):
    checks = list(tv_report.theorems.bound_checks)
    # theorem 2, class 1 holds as 3 <= 4 <= 4 <= 4
    checks[1] = replace(checks[1], chain=(3, 5, 4, 4))
    assert _verdict(tv_report, head, bound_checks=checks) == (
        "Theorem checks: 7/8 bound chains, 5/5 lemma checks -> FAIL\n"
        "  FAILED theorem 2, class 1: 3 <= 5 <= 4 <= 4\n"
    )


def test_a_failing_lemma_check_is_listed(tv_report, head):
    checks = list(tv_report.theorems.lemma_checks)
    checks[3] = replace(checks[3], passed=False)
    assert _verdict(tv_report, head, lemma_checks=checks) == (
        "Theorem checks: 8/8 bound chains, 4/5 lemma checks -> FAIL\n"
        "  FAILED lemma part 2, subject 1\n"
    )


def test_failed_bounds_are_listed_before_failed_lemmas(tv_report, head):
    bounds = list(tv_report.theorems.bound_checks)
    bounds[7] = replace(bounds[7], chain=(4, 2))
    lemmas = list(tv_report.theorems.lemma_checks)
    lemmas[0] = replace(lemmas[0], passed=False)
    lemmas[4] = replace(lemmas[4], passed=False)
    assert _verdict(tv_report, head, bound_checks=bounds, lemma_checks=lemmas) == (
        "Theorem checks: 7/8 bound chains, 3/5 lemma checks -> FAIL\n"
        "  FAILED theorem 4, class 2: 4 <= 2\n"
        "  FAILED lemma part 1, subject 2\n"
        "  FAILED lemma part 2, subject 2\n"
    )


def test_an_inapplicable_record_says_so(tv_report, head):
    assert _verdict(
        tv_report, head, applicable=False, bound_checks=(), lemma_checks=()
    ) == "Theorem checks: not applicable (overlap rule violated)\n"
