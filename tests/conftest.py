"""Shared fixtures: the six-row TV-set demo table and small builders."""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import strategies as st

from roughcm import (
    Attribute,
    DecisionSystem,
    Partition,
    granule_frequency_matrix,
)

TV_HEADER = ("Price", "Guarantee", "Sound", "Screen", "d")
TV_ROWS = (
    ("high", "24 months", "Stereo", "51", "high"),
    ("low", "6 months", "Mono", "66", "low"),
    ("low", "12 months", "Stereo", "36", "low"),
    ("medium", "12 months", "Stereo", "51", "high"),
    ("medium", "18 months", "Stereo", "51", "high"),
    ("high", "12 months", "Stereo", "51", "low"),
)


def build_system(header, rows, decision=None):
    """Build a DecisionSystem from header names and row tuples (ids 1..n)."""
    decision = decision if decision is not None else header[-1]
    ids = tuple(range(1, len(rows) + 1))
    columns = {
        name: {i: row[position] for i, row in zip(ids, rows)}
        for position, name in enumerate(header)
    }
    conditions = tuple(
        Attribute(name, columns[name]) for name in header if name != decision
    )
    return DecisionSystem(ids, conditions, Attribute(decision, columns[decision]))


def random_table(seed, n, n_attributes, n_values, n_classes):
    """Uniform attribute tokens; three in ten attribute combinations are
    pure, the rest draw a decision per row (perfbench's generator)."""
    rng = random.Random(seed)
    header = [f"a{a}" for a in range(1, n_attributes + 1)] + ["d"]
    tokens = [f"v{v}" for v in range(1, n_values + 1)]
    labels = [f"c{c}" for c in range(1, n_classes + 1)]
    fixed = {}
    rows = []
    for _ in range(n):
        key = tuple(rng.choice(tokens) for _ in range(n_attributes))
        if key not in fixed:
            fixed[key] = rng.choice(labels) if rng.random() < 0.3 else None
        rows.append((*key, fixed[key] or rng.choice(labels)))
    return header, rows


def partitions_from_counts(counts):
    """Build (granules, decisions, gfm) realizing the given count matrix.

    Ids are handed out row-major, so the intended layout survives canonical
    sorting only when class j's first appearance precedes class j+1's; the
    trailing assert guards against accidentally reordered fixtures.
    """
    granule_blocks = []
    class_members = defaultdict(list)
    next_id = 1
    for row in counts:
        block = []
        for j, count in enumerate(row):
            for _ in range(count):
                block.append(next_id)
                class_members[j].append(next_id)
                next_id += 1
        granule_blocks.append(frozenset(block))
    granules = Partition(tuple(granule_blocks))
    decisions = Partition(
        tuple(frozenset(class_members[j]) for j in sorted(class_members))
    )
    gfm = granule_frequency_matrix(granules, decisions)
    assert gfm.cells == tuple(tuple(row) for row in counts)
    return granules, decisions, gfm


def partition_from_labels(labels):
    """Partition 1..len(labels) by label equality."""
    groups = defaultdict(set)
    for x, label in enumerate(labels, start=1):
        groups[label].add(x)
    return Partition(tuple(frozenset(g) for g in groups.values()))


@st.composite
def partitions(draw, max_n=18, max_groups=6):
    n = draw(st.integers(2, max_n))
    labels = draw(st.lists(st.integers(0, max_groups - 1), min_size=n, max_size=n))
    return partition_from_labels(labels)


@st.composite
def partition_and_subset(draw, max_n=18, max_groups=6):
    p = draw(partitions(max_n, max_groups))
    members = draw(st.sets(st.sampled_from(sorted(p.universe))))
    return p, frozenset(members)


@st.composite
def partition_pairs(draw, max_n=15):
    """Two partitions of the same universe, e.g. granules and decisions."""
    n = draw(st.integers(2, max_n))
    first = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    second = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return partition_from_labels(first), partition_from_labels(second)


@pytest.fixture
def tv_system():
    return build_system(TV_HEADER, TV_ROWS)


@pytest.fixture
def tv_csv(tmp_path):
    path = tmp_path / "tv.csv"
    lines = [",".join(TV_HEADER)] + [",".join(row) for row in TV_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
