"""The verifier's truth is read from the objects' labels, not from the gfm.

`verify_theorems` finds each class's true lower and upper approximation
sizes from the granules each class meets, gathered in one pass over the
two partitions' aligned labels, takes lemma part 1's subjects from the
granules one class alone meets, pivots chains 1 and 2 on each class's
member count, and checks lemma part 2 object by object. Here those truths
are compared with the per-element oracles and the blockwise
approximations on random partition pairs, a frequency matrix whose cells
keep their margins but not the objects is shown to leave lemma parts 1
and 2 unchanged and to fail, and a confusion matrix whose column sums are
not the class sizes is shown not to move the chains' pivots.
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given
from hypothesis import strategies as st

from roughcm import (
    GranuleFrequencyMatrix,
    RoughClassifier,
    RoughConfusionMatrix,
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
    # granule 1 lies inside class 1 and f sends it, and with it the objects
    # of class 1's lower approximation, to class 2
    failed = [(c.part, c.subject) for c in report.lemma_checks if not c.passed]
    assert failed == [(1, 1), (2, 1)]


def lemmas(report, parts=(1, 2)):
    """The (part, subject, passed) of each lemma check of the given parts."""
    return [(c.part, c.subject, c.passed) for c in report.lemma_checks if c.part in parts]


@given(pair=partition_pairs(), data=st.data())
def test_a_swap_that_keeps_the_margins_leaves_lemma_parts_one_and_two(pair, data):
    granules, decisions = pair
    assume(len(granules) >= 2 and len(decisions) >= 2)
    gfm = granule_frequency_matrix(granules, decisions)
    classes = st.integers(1, gfm.k)
    assignment = data.draw(st.lists(classes, min_size=gfm.m, max_size=gfm.m))
    f = RoughClassifier(tuple(assignment), gfm.k)
    # move one object's worth of count from cells (i1, j1) and (i2, j2) to
    # (i1, j2) and (i2, j1); some such swap exists for m, k >= 2
    swaps = [
        (i1, j1, i2, j2)
        for i1, i2 in itertools.permutations(range(gfm.m), 2)
        for j1, j2 in itertools.permutations(range(gfm.k), 2)
        if gfm.cells[i1][j1] and gfm.cells[i2][j2]
    ]
    i1, j1, i2, j2 = data.draw(st.sampled_from(swaps))
    cells = [list(row) for row in gfm.cells]
    for i, j, step in ((i1, j1, -1), (i2, j2, -1), (i1, j2, 1), (i2, j1, 1)):
        cells[i][j] += step
    tampered = GranuleFrequencyMatrix(cells, granules, decisions)
    reports = []
    for matrix in (gfm, tampered):
        cm = confusion_matrix(matrix, f)
        bounds = confusion_bounds(cm, ValidationReport(()), False)
        reports.append(verify_theorems(matrix, f, cm, bounds))
    assert lemmas(reports[1]) == lemmas(reports[0])
    # part 1's subjects are the granules the per-element oracle puts inside a class
    lower = [oracle_lower(granules, cls) for cls in decisions.blocks]
    inside = {granules.block_index[x] + 1 for x in itertools.chain(*lower)}
    assert [subject for _, subject, _ in lemmas(reports[1], (1,))] == sorted(inside)


def test_chains_one_and_two_pivot_on_the_class_sizes_not_the_column_sums():
    # classes of sizes 4 and 1, a confusion matrix whose columns sum to 1 and 1
    granules, decisions, gfm = partitions_from_counts(((3, 0), (1, 1)))
    f = RoughClassifier((1, 1), 2)
    cm = RoughConfusionMatrix(((1, 0), (0, 1)))
    bounds = confusion_bounds(cm, ValidationReport(()), False)
    assert [cb.class_size for cb in bounds.classes] == [1, 1]
    report = verify_theorems(gfm, f, cm, bounds)
    chains = {(c.theorem, c.class_index): c.chain for c in report.bound_checks}
    assert [chains[1, j][-1] for j in (1, 2)] == [4, 1]
    assert [chains[2, j][0] for j in (1, 2)] == [4, 1]
    assert not report.overall_pass
