"""Seeded inputs for the benchmark: decision tables and classifier mappings.

Everything here is a pure function of the workload seed, so one seed always
gives byte-identical input files. Nothing here imports roughcm.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

# Share of attribute combinations whose rows all get one decision value.
# Pure granules give every class a non-empty lower approximation, so gamma
# and nl_j are not all zero and the checker compares real values.
PURE_SHARE = 0.3


def make_table(
    seed: int, n: int, n_attributes: int, n_values: int, n_classes: int
) -> tuple[list[str], list[tuple[str, ...]]]:
    """Draw a decision table: uniform attribute tokens, mixed-purity decisions."""
    rng = random.Random(seed)
    header = [f"a{a}" for a in range(1, n_attributes + 1)] + ["d"]
    tokens = [f"v{v}" for v in range(1, n_values + 1)]
    labels = [f"c{c}" for c in range(1, n_classes + 1)]
    fixed: dict[tuple[str, ...], str | None] = {}
    rows = []
    for _ in range(n):
        key = tuple(rng.choice(tokens) for _ in range(n_attributes))
        if key not in fixed:
            fixed[key] = rng.choice(labels) if rng.random() < PURE_SHARE else None
        label = fixed[key] or rng.choice(labels)
        rows.append((*key, label))
    if len({row[-1] for row in rows}) < 2:
        raise ValueError("generated table has a single decision class")
    return header, rows


def write_table(path: Path, header: list[str], rows: list[tuple[str, ...]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def random_mapping(seed: int, cells: list[list[int]]) -> list[int]:
    """Per granule, a seeded random 1-based class that the granule meets.

    The mapping obeys the overlap rule and, on tables with mixed granules,
    is not row-maximal; a draw that happens to be row-maximal is rejected.
    """
    rng = random.Random(seed ^ 0x5EED)
    mapping = [
        rng.choice([j for j, count in enumerate(row, start=1) if count > 0])
        for row in cells
    ]
    if all(row[j - 1] == max(row) for row, j in zip(cells, mapping)):
        raise ValueError("the drawn mapping is row-maximal")
    return mapping


def write_mapping(path: Path, mapping: list[int]) -> None:
    lines = ["# granule_index class_index"]
    lines += [f"{i} {j}" for i, j in enumerate(mapping, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
