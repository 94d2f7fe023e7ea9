"""The verifier's truth is read from the objects' labels, not from the gfm.

`verify_theorems` finds each class's true lower and upper approximation
sizes from the granules each class meets, gathered in one pass over the
two partitions' aligned labels, and checks lemma part 2 object by object.
Here those truths are compared with the per-element oracles and the
blockwise approximations on random partition pairs, and a frequency
matrix whose cells no longer match the objects is shown to fail.
"""

from __future__ import annotations

from hypothesis import assume, given
from hypothesis import strategies as st

from roughcm import (
    GranuleFrequencyMatrix,
    RoughClassifier,
    ValidationReport,
    confusion_bounds,
    confusion_matrix,
    granule_frequency_matrix,
    lower_approximation,
    oracle_lower,
    oracle_upper,
    upper_approximation,
    validate_overlap,
    verify_theorems,
)

from conftest import partition_pairs, partitions_from_counts


def truths(report):
    """Each class's true (nl, nu), read off the theorem 1 and 2 chains."""
    chains = {(c.theorem, c.class_index): c.chain for c in report.bound_checks}
    k = len(chains) // 2
    return [(chains[1, j][0], chains[2, j][-1]) for j in range(1, k + 1)]


@given(pair=partition_pairs(), data=st.data())
def test_true_sizes_and_lemma_two_match_the_per_element_routes(pair, data):
    granules, decisions = pair
    assume(len(decisions) >= 2)
    gfm = granule_frequency_matrix(granules, decisions)
    # any assignment at all, with bounds that claim the rule holds, so
    # that every check applies and lemma part 2 can fail
    classes = st.integers(1, gfm.k)
    assignment = data.draw(st.lists(classes, min_size=gfm.m, max_size=gfm.m))
    f = RoughClassifier(tuple(assignment), gfm.k)
    cm = confusion_matrix(gfm, f)
    bounds = confusion_bounds(cm, ValidationReport(()), False)
    report = verify_theorems(gfm, f, cm, bounds)
    assert report.applicable
    expected = []
    for cls in decisions.blocks:
        lower, upper = oracle_lower(granules, cls), oracle_upper(granules, cls)
        assert lower == lower_approximation(granules, cls)
        assert upper == upper_approximation(granules, cls)
        expected.append((len(lower), len(upper)))
    assert truths(report) == expected
    lemma_two = [c.passed for c in report.lemma_checks if c.part == 2]
    mapped = [
        {assignment[granules.block_index[x]] for x in oracle_lower(granules, cls)}
        for cls in decisions.blocks
    ]
    assert lemma_two == [seen <= {j} for j, seen in enumerate(mapped, start=1)]


def test_a_gfm_that_no_longer_matches_the_objects_fails():
    # granules {1, 2, 3} inside class 1 and {4, 5} across both classes
    granules, decisions, gfm = partitions_from_counts(((3, 0), (1, 1)))
    # a 2 x 2 swap of one object keeps every row and column sum
    tampered = GranuleFrequencyMatrix(((2, 1), (2, 0)), granules, decisions)
    f = RoughClassifier((2, 1), 2)
    assert validate_overlap(f, tampered).satisfies_rule
    assert not validate_overlap(f, gfm).satisfies_rule
    cm = confusion_matrix(tampered, f)
    bounds = confusion_bounds(cm, ValidationReport(()), False)
    report = verify_theorems(tampered, f, cm, bounds)
    assert report.applicable and not report.overall_pass
    # the objects' sizes, not the tampered rows' (which give nl_1 = 2, nu_2 = 3)
    assert truths(report) == [(3, 5), (0, 2)]
    failed = [(c.theorem, c.class_index) for c in report.bound_checks if not c.passed]
    assert failed == [(1, 1), (2, 2)]
    # f sends the objects of class 1's own granule to class 2
    failed = [(c.part, c.subject) for c in report.lemma_checks if not c.passed]
    assert failed == [(2, 1)]
