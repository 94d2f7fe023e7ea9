"""Overlap-rule validation, the maximal row classifier, and mapping files."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    ClassifierFileError,
    DecisionSystem,
    GeneratorConfig,
    GranuleFrequencyMatrix,
    OverlapViolationError,
    RoughClassifier,
    TieBreak,
    ValidationReport,
    classifier_from_text,
    classifier_to_text,
    confusion_matrix,
    decision_partition,
    exhaustive_best_classifier,
    granule_frequency_matrix,
    is_row_maximal,
    lower_approximation,
    maximal_row_classifier,
    partition_by_attributes,
    predictor_set,
    random_decision_system,
    random_overlap_classifier,
    success_ratio,
    validate_overlap,
)

from conftest import partitions_from_counts


@pytest.fixture
def tv_gfm(tv_system):
    granules = partition_by_attributes(tv_system, ("Price", "Screen"))
    return granule_frequency_matrix(granules, decision_partition(tv_system))


class TestRoughClassifier:
    def test_rejects_empty_assignment(self):
        with pytest.raises(ValueError, match="at least one granule"):
            RoughClassifier((), 2)

    def test_rejects_nonpositive_class_count(self):
        with pytest.raises(ValueError, match="positive"):
            RoughClassifier((1,), 0)

    def test_rejects_out_of_range_classes(self):
        with pytest.raises(ValueError, match=r"1\.\.2: \[0, 3\]"):
            RoughClassifier((1, 3, 0), 2)

    @pytest.mark.parametrize(
        "assignment, n_classes, message",
        [
            ((True, 1), 2, "class indices must be int, not bool"),
            ((1.0, 1), 2, "class indices must be int, not float"),
            ((1, 2), True, "n_classes must be int, not bool"),
        ],
    )
    def test_rejects_class_indices_that_are_not_ints(self, assignment, n_classes, message):
        # a bool or a float compares as a number, so the range check alone
        # lets a bool class reach the JSON report as `true` and a float one
        # reach validate_overlap as a tuple index
        with pytest.raises(TypeError, match=f"^{message}$"):
            RoughClassifier(assignment, n_classes)


class TestValidateOverlap:
    def test_worked_example_passes(self, tv_gfm):
        report = validate_overlap(RoughClassifier((1, 2, 2, 1), 2), tv_gfm)
        assert report == ValidationReport(())
        assert report.satisfies_rule

    def test_variant_mapping_last_granule_to_other_class_fails(self, tv_gfm):
        report = validate_overlap(RoughClassifier((1, 2, 2, 2), 2), tv_gfm)
        assert not report.satisfies_rule
        assert report.violations == (4,)

    def test_all_violations_are_listed(self, tv_gfm):
        report = validate_overlap(RoughClassifier((1, 1, 1, 2), 2), tv_gfm)
        assert report.violations == (2, 3, 4)


class TestMaximalRowClassifier:
    def test_worked_example_lowest(self, tv_gfm):
        f = maximal_row_classifier(tv_gfm)
        assert f.assignment == (1, 2, 2, 1)
        assert f.n_classes == 2

    def test_worked_example_highest(self, tv_gfm):
        f = maximal_row_classifier(tv_gfm, TieBreak.HIGHEST)
        assert f.assignment == (2, 2, 2, 1)

    def test_tie_break_policies_on_a_wide_tie(self):
        _, _, gfm = partitions_from_counts([[1, 1, 1], [0, 5, 5]])
        assert maximal_row_classifier(gfm, TieBreak.LOWEST).assignment == (1, 2)
        assert maximal_row_classifier(gfm, TieBreak.HIGHEST).assignment == (3, 3)

    def test_random_tie_break_is_seed_deterministic(self):
        _, _, gfm = partitions_from_counts([[1, 1, 1], [0, 5, 5]])
        picks = {
            maximal_row_classifier(gfm, TieBreak.RANDOM, seed=s).assignment
            for s in range(40)
        }
        assert picks <= {(a, b) for a in (1, 2, 3) for b in (2, 3)}
        assert len(picks) > 1
        for s in (0, 7, 123):
            first = maximal_row_classifier(gfm, TieBreak.RANDOM, seed=s)
            second = maximal_row_classifier(gfm, TieBreak.RANDOM, seed=s)
            assert first == second

    def test_highest_success_among_tie_breaks(self, tv_gfm):
        for policy in TieBreak:
            f = maximal_row_classifier(tv_gfm, policy, seed=3)
            assert success_ratio(confusion_matrix(tv_gfm, f)) == Fraction(5, 6)

    def test_a_policy_value_string_selects_that_policy(self):
        _, _, gfm = partitions_from_counts([[1, 1], [2, 2]])
        for policy in TieBreak:
            for seed in (0, 1, 5):
                by_value = maximal_row_classifier(gfm, policy.value, seed)
                assert by_value == maximal_row_classifier(gfm, policy, seed)
        assert maximal_row_classifier(gfm, "lowest", seed=0).assignment == (1, 1)
        assert maximal_row_classifier(gfm, "highest", seed=0).assignment == (2, 2)

    @pytest.mark.parametrize("tie_break", ["LOWEST", "first", "", None, 0])
    def test_an_unknown_tie_break_is_rejected(self, tie_break):
        _, _, gfm = partitions_from_counts([[1, 1], [2, 2]])
        with pytest.raises(ValueError, match="is not a valid TieBreak"):
            maximal_row_classifier(gfm, tie_break)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_policy_picks_its_tied_maximum(self, seed):
        """Reference: the tied maxima listed per row, as the policies define them.

        The second matrix comes from the public constructor with its equal,
        tied rows as separate tuples: RANDOM draws once per granule, not once
        per distinct row.
        """
        granules, decisions, _ = partitions_from_counts([[1, 1, 1]] * 6 + [[0, 2, 1]])
        twins = GranuleFrequencyMatrix(
            tuple(tuple([1, 1, 1]) for _ in range(6)) + ((0, 2, 1),), granules, decisions
        )
        assert twins.cells[0] == twins.cells[1] and twins.cells[0] is not twins.cells[1]
        for gfm in (_seeded_instance(seed)[-1], twins):
            tied = [
                [j for j, count in enumerate(row, start=1) if count == max(row)]
                for row in gfm.cells
            ]
            draws = random.Random(seed)
            expected = {
                TieBreak.LOWEST: tuple(t[0] for t in tied),
                TieBreak.HIGHEST: tuple(t[-1] for t in tied),
                TieBreak.RANDOM: tuple(draws.choice(t) for t in tied),
            }
            for policy, assignment in expected.items():
                assert maximal_row_classifier(gfm, policy, seed).assignment == assignment


class TestRowMaximality:
    def test_worked_example(self, tv_gfm):
        assert is_row_maximal(RoughClassifier((1, 2, 2, 1), 2), tv_gfm)
        assert is_row_maximal(RoughClassifier((2, 2, 2, 1), 2), tv_gfm)
        assert not is_row_maximal(RoughClassifier((1, 2, 2, 2), 2), tv_gfm)
        assert not is_row_maximal(RoughClassifier((1, 1, 2, 1), 2), tv_gfm)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_row_by_row_reference(self, seed):
        """Any tied maximum per row, and in half the cases one granule moved
        to a class drawn from all of them."""
        rng, *_, gfm = _seeded_instance(seed)
        assignment = [
            rng.choice([j for j, count in enumerate(row, start=1) if count == max(row)])
            for row in gfm.cells
        ]
        if rng.random() < 0.5:
            assignment[rng.randrange(gfm.m)] = rng.randint(1, gfm.k)
        reference = all(row[c - 1] == max(row) for row, c in zip(gfm.cells, assignment))
        assert is_row_maximal(RoughClassifier(assignment, gfm.k), gfm) == reference


class TestSuccessRatio:
    def test_worked_example(self, tv_gfm):
        assert success_ratio(confusion_matrix(tv_gfm, RoughClassifier((1, 2, 2, 1), 2))) == Fraction(5, 6)
        assert success_ratio(confusion_matrix(tv_gfm, RoughClassifier((1, 1, 1, 1), 2))) == Fraction(1, 2)

    def test_exact_fraction_not_float(self, tv_gfm):
        ratio = success_ratio(confusion_matrix(tv_gfm, RoughClassifier((1, 2, 2, 1), 2)))
        assert isinstance(ratio, Fraction)
        assert ratio == Fraction(5, 6)


def _seeded_instance(seed, max_objects=25):
    rng = random.Random(seed)
    n = rng.randint(2, max_objects)
    config = GeneratorConfig(
        n_objects=n,
        n_attributes=rng.randint(1, 4),
        values_per_attribute=rng.randint(1, 5),
        n_decision_values=rng.randint(2, min(5, n)),
        seed=rng.getrandbits(64),
    )
    ds = random_decision_system(config)
    granules = partition_by_attributes(ds, ds.condition_names)
    decisions = decision_partition(ds)
    gfm = granule_frequency_matrix(granules, decisions)
    return rng, ds, granules, decisions, gfm


class TestOverlapRuleConsequences:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mrc_is_row_maximal_and_satisfies_the_rule(self, seed):
        rng, _, _, _, gfm = _seeded_instance(seed)
        policy = rng.choice(tuple(TieBreak))
        f = maximal_row_classifier(gfm, policy, seed=rng.getrandbits(32))
        assert is_row_maximal(f, gfm)
        assert validate_overlap(f, gfm).satisfies_rule

    @given(seed=st.integers(0, 2**32 - 1))
    def test_pure_granules_force_the_assignment(self, seed):
        """A granule entirely inside one class must be mapped to that class."""
        rng, _, _, _, gfm = _seeded_instance(seed)
        f = random_overlap_classifier(gfm, rng.getrandbits(64))
        for row, size, cls in zip(gfm.cells, gfm.granule_sizes, f.assignment):
            for j, count in enumerate(row, start=1):
                if count == size:
                    assert cls == j

    @given(seed=st.integers(0, 2**32 - 1))
    def test_lower_approximations_sit_inside_predictor_sets(self, seed):
        rng, _, granules, decisions, gfm = _seeded_instance(seed)
        f = random_overlap_classifier(gfm, rng.getrandbits(64))
        for j, cls in enumerate(decisions.blocks, start=1):
            assert lower_approximation(granules, cls) <= predictor_set(f, j, granules)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_zero_diagonal_forces_zero_row(self, seed):
        rng, _, _, _, gfm = _seeded_instance(seed)
        f = random_overlap_classifier(gfm, rng.getrandbits(64))
        cm = confusion_matrix(gfm, f)
        for i in range(cm.k):
            if cm.cells[i][i] == 0:
                assert all(value == 0 for value in cm.cells[i])


def _replicate_system(ds, factor):
    """Clone every object `factor` times, preserving the block order.

    Object x becomes (x-1)*factor+1 .. x*factor, a strictly monotone id
    mapping, so canonical block sorting is unaffected.
    """
    clones = {x: range((x - 1) * factor + 1, x * factor + 1) for x in ds.object_ids}
    ids = tuple(new for x in ds.object_ids for new in clones[x])

    def spread(attribute):
        values = {
            new: attribute.values[x] for x in ds.object_ids for new in clones[x]
        }
        return Attribute(attribute.name, values)

    return DecisionSystem(
        ids,
        tuple(spread(a) for a in ds.condition_attributes),
        spread(ds.decision_attribute),
    )


class TestMrcOptimality:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_exhaustive_maximum(self, seed):
        rng, _, _, _, gfm = _seeded_instance(seed, max_objects=7)
        _, best = exhaustive_best_classifier(gfm)
        policy = rng.choice(tuple(TieBreak))
        f = maximal_row_classifier(gfm, policy, seed=rng.getrandbits(32))
        assert success_ratio(confusion_matrix(gfm, f)) == best

    @given(seed=st.integers(0, 2**32 - 1))
    def test_replicating_every_object_keeps_the_assignment(self, seed):
        """Row maxima depend on proportions, so uniform replication is invisible."""
        rng = random.Random(seed)
        factor = rng.randint(2, 4)
        _, ds, _, _, gfm = _seeded_instance(rng.getrandbits(32))
        big = _replicate_system(ds, factor)
        granules = partition_by_attributes(big, big.condition_names)
        scaled = granule_frequency_matrix(granules, decision_partition(big))
        assert scaled.cells == tuple(
            tuple(factor * c for c in row) for row in gfm.cells
        )
        for policy in (TieBreak.LOWEST, TieBreak.HIGHEST):
            assert (
                maximal_row_classifier(gfm, policy).assignment
                == maximal_row_classifier(scaled, policy).assignment
            )


_ATOMS = [
    "1", "2", "3", "4", "0", "-1", "01", "+1", "x", "\u0661",
    " ", "\t", "\xa0", "\x0c", "\u2028", "\n", "\n", "\r\n", "# c",
]


def _read_lines(text, n_granules, n_classes):
    """A mapping file read one line at a time: the rules and messages of
    classifier_from_text, checked in order on each line."""
    seen = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            return f"line {lineno}: expected two fields, got {len(parts)}"
        if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
            return f"line {lineno}: indices must be integers"
        granule, cls = map(int, parts)
        if not 1 <= granule <= n_granules:
            return f"line {lineno}: granule index {granule} out of range 1..{n_granules}"
        if not 1 <= cls <= n_classes:
            return f"line {lineno}: class index {cls} out of range 1..{n_classes}"
        if granule in seen:
            return f"line {lineno}: granule {granule} assigned twice"
        seen[granule] = cls
    missing = [i for i in range(1, n_granules + 1) if i not in seen]
    if missing:
        return f"no assignment for granule(s) {', '.join(map(str, missing))}"
    return tuple(seen[i] for i in range(1, n_granules + 1))


class TestMappingFiles:
    def test_round_trip(self, tv_gfm):
        f = maximal_row_classifier(tv_gfm)
        text = classifier_to_text(f)
        assert text.splitlines()[0].startswith("#")
        assert classifier_from_text(text, tv_gfm.m, tv_gfm.k) == f

    def test_comments_blanks_and_spacing_are_tolerated(self):
        text = "\n# mapping\n  1   2  # granule one\n\n2 1\n"
        f = classifier_from_text(text, 2, 2)
        assert f.assignment == (2, 1)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 2 3\n2 1\n", "expected two fields"),
            ("1 two\n2 1\n", "must be integers"),
            ("0 1\n", "granule index 0 out of range"),
            ("3 1\n1 1\n2 1\n", "granule index 3 out of range"),
            ("1 5\n2 1\n", "class index 5 out of range"),
            ("1 1\n1 2\n2 1\n", "granule 1 assigned twice"),
            ("1 1\n", r"no assignment for granule\(s\) 2"),
            ("", r"no assignment for granule\(s\) 1, 2"),
        ],
    )
    def test_malformed_files(self, text, message):
        with pytest.raises(ClassifierFileError, match=message):
            classifier_from_text(text, 2, 2)

    def test_line_numbers_reported(self):
        with pytest.raises(ClassifierFileError, match="line 3"):
            classifier_from_text("# header\n1 1\n2\n", 2, 2)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0_1 1\n2 1\n", "line 1: indices must be integers"),
            ("+1 1\n2 1\n", "line 1: indices must be integers"),
            ("\u0661 1\n2 1\n", "line 1: indices must be integers"),
            ("1 1\x0c2 2\n", "line 1: expected two fields, got 4"),
            ("1 1\u20282 2\n", "line 1: expected two fields, got 4"),
        ],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "form-feed", "line-sep"],
    )
    def test_only_ascii_digits_and_newlines_count(self, text, message):
        with pytest.raises(ClassifierFileError) as raised:
            classifier_from_text(text, 2, 2)
        assert str(raised.value) == message

    def test_crlf_line_ends_are_tolerated(self):
        text = "# mapping\r\n1 2\r\n\r\n2 1\r\n"
        assert classifier_from_text(text, 2, 2).assignment == (2, 1)
        with pytest.raises(ClassifierFileError, match="^line 3: expected two"):
            classifier_from_text("1 1\r\n\r\n2\r\n", 2, 2)

    def test_first_faulty_line_wins_over_earlier_rules(self):
        # line 2 breaks the range rule before line 3 breaks the field rule
        with pytest.raises(ClassifierFileError, match="^line 2: granule index 5"):
            classifier_from_text("1 1\n5 1\n2\n", 2, 2)
        with pytest.raises(ClassifierFileError, match="^line 2: indices must be"):
            classifier_from_text("1 1\n-x 1\n1 1\n", 2, 2)

    @given(st.lists(st.sampled_from(_ATOMS), max_size=16), st.integers(1, 4))
    def test_parse_equals_a_line_by_line_reading(self, atoms, n_granules):
        text = "".join(atoms)
        expected = _read_lines(text, n_granules, 3)
        try:
            got = classifier_from_text(text, n_granules, 3).assignment
        except ClassifierFileError as exc:
            got = str(exc)
        assert got == expected

    def test_missing_granules_past_ten_are_counted_not_listed(self):
        with pytest.raises(ClassifierFileError) as raised:
            classifier_from_text("# nothing assigned\n", 74_424, 5)
        message = str(raised.value)
        assert len(message.encode()) < 1024
        assert message == (
            "no assignment for granule(s) 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and 74414 more"
        )

    # each file as it is and with a faulty last line: the long index is
    # judged on its own line before any later line (the ids name the two
    # routes of an earlier parser, which the tail used to choose between)
    _LONG_INDEX_FILES = pytest.mark.parametrize(
        "tail", ["", "x\n"], ids=["whole-file", "line-by-line"]
    )

    @_LONG_INDEX_FILES
    def test_long_indices_are_echoed_cut_and_counted(self, tail):
        cases = [
            ("1 " + "1" * 700, "class index 11111111111111111111... (700 digits)"),
            ("-" + "9" * 5000 + " 1", "granule index -9999999999999999999... (5000 digits)"),
            ("0" * 30 + "12345678901234567890123 1",
             "granule index 12345678901234567890... (23 digits)"),
            ("1 " + "7" * 20, "class index 77777777777777777777"),
        ]
        for line, echoed in cases:
            with pytest.raises(ClassifierFileError) as raised:
                classifier_from_text(f"{line}\n2 1\n{tail}", 2, 2)
            assert str(raised.value) == f"line 1: {echoed} out of range 1..2"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit"
    )
    @_LONG_INDEX_FILES
    def test_indices_int_refuses_get_the_default_limits_message(self, tail):
        files = [
            f"1 {'1' * 700}\n2 1\n{tail}",
            f"{'-' + '3' * 641} 1\n2 1\n{tail}",
            f"{'0' * 700}2 1\n1 2\n{tail}",
        ]

        def read(text):
            try:
                return classifier_from_text(text, 2, 2).assignment
            except ClassifierFileError as exc:
                return str(exc)

        expected = list(map(read, files))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert list(map(read, files)) == expected
        finally:
            sys.set_int_max_str_digits(limit)
        assert expected[0] == (
            "line 1: class index 11111111111111111111... (700 digits) out of range 1..2"
        )
        assert expected[1].startswith("line 1: granule index -3333333333333333333... ")
        assert expected[2] == ("line 3: expected two fields, got 1" if tail else (2, 1))


def test_overlap_violations_past_ten_are_counted_not_listed():
    error = OverlapViolationError(tuple(range(1, 70_001)))
    assert len(str(error).encode()) < 1024
    assert str(error) == (
        "classifier violates the overlap rule at granule(s) "
        "1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and 69990 more"
    )
    assert error.violations == tuple(range(1, 70_001))
