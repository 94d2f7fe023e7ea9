"""A deterministic gate on the memory a decision system takes to build.

An ingested table hands `DecisionSystem` its ids in ascending order and
each attribute as a column view over those same ids, so the constructor
needs no per-object structure of its own: uniqueness follows from the
order and the columns are taken as they are. The peak it adds above what
it is given, counted by `tracemalloc`, repeats to the byte from run to
run, unlike a process's RSS.

Basis of the bound, on the table below (20,000 objects, 4 condition
columns, 5 classes), measured in this test: 2,622,024 bytes (131 per
object) while the constructor built a frozenset of the ids to test their
uniqueness and a sorted copy of them, 1,160 bytes (under 1 per object)
with the ids checked by their order and kept. 32 bytes per object lies
between the two.
"""

from __future__ import annotations

import tracemalloc

from roughcm import Attribute, DecisionSystem
from roughcm.core import _Column

BYTES_PER_OBJECT = 32


def test_building_an_ascending_system_peaks_at_most_32_bytes_per_object():
    n = 20_000
    ids = tuple(range(1, n + 1))
    conditions = tuple(
        Attribute(f"a{a}", _Column(ids, tuple(f"v{x * (a + 3) % 7}" for x in ids)))
        for a in range(4)
    )
    decision = Attribute("d", _Column(ids, tuple(f"c{x % 5}" for x in ids)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = DecisionSystem(ids, conditions, decision)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ds.n == n
    assert peak <= BYTES_PER_OBJECT * n, f"{peak:,} bytes, {peak / n:.0f} per object"
