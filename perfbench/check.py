"""Independent output checks: recompute every expected value from the rows.

The expected values come from plain dict counting over the generated rows,
never from roughcm, so a defect in roughcm cannot hide itself here. Each
check returns a list of mismatch descriptions; an empty list is a pass.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Expected:
    """What a correct analyze report of one table and classifier contains.

    Granules and classes are numbered in order of first occurrence, which
    is roughcm's canonical order (blocks sorted by smallest object id).
    """

    n: int
    cells: list[list[int]]
    assignment: list[int]
    nl: list[int]
    nu: list[int]
    gamma: Fraction
    success: Fraction

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return len(self.nl)

    @property
    def nonzero_cells(self) -> int:
        return sum(1 for row in self.cells for c in row if c)


def tally(rows: list[tuple[str, ...]]) -> list[list[int]]:
    """Granule frequency matrix of the rows: all columns but the last form the key."""
    granule: dict[tuple[str, ...], int] = {}
    label: dict[str, int] = {}
    counts: list[dict[int, int]] = []
    for row in rows:
        i = granule.setdefault(row[:-1], len(granule))
        j = label.setdefault(row[-1], len(label))
        if i == len(counts):
            counts.append({})
        counts[i][j] = counts[i].get(j, 0) + 1
    return [[row.get(j, 0) for j in range(len(label))] for row in counts]


def expected(cells: list[list[int]], assignment: list[int] | None = None) -> Expected:
    """Derive the indices; `assignment=None` means the mrc with lowest tie-break."""
    sizes = [sum(row) for row in cells]
    k = len(cells[0])
    if assignment is None:
        assignment = [row.index(max(row)) + 1 for row in cells]
    n = sum(sizes)
    nl = [sum(s for row, s in zip(cells, sizes) if row[j] == s) for j in range(k)]
    nu = [sum(s for row, s in zip(cells, sizes) if row[j] > 0) for j in range(k)]
    hits = sum(row[j - 1] for row, j in zip(cells, assignment))
    return Expected(n, cells, assignment, nl, nu, Fraction(sum(nl), n), Fraction(hits, n))


def _compare(errors: list[str], what: str, got: object, want: object) -> None:
    if got != want:
        errors.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:77]}..."


def check_analyze_json(out: bytes, exp: Expected) -> list[str]:
    errors: list[str] = []
    try:
        data = json.loads(out)
        meta, idx, thm = data["input"], data["indices"], data["theorems"]
        _compare(errors, "objects", meta["objects"], exp.n)
        _compare(errors, "granules", meta["granules"], exp.m)
        _compare(errors, "classes", meta["classes"], exp.k)
        _compare(errors, "gfm cells", data["granule_matrix"]["cells"], exp.cells)
        _compare(
            errors,
            "assignment",
            [j for _, j in data["classifier"]["assignment"]],
            exp.assignment,
        )
        _compare(errors, "gamma", _triple(idx["gamma"]), exp.gamma)
        _compare(errors, "success ratio", _triple(idx["success_ratio"]), exp.success)
        _compare(errors, "nl", [row["lower_size"] for row in idx["classes"]], exp.nl)
        _compare(errors, "nu", [row["upper_size"] for row in idx["classes"]], exp.nu)
        _compare(errors, "verdict", (thm["applicable"], thm["overall_pass"]), (True, True))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        errors.append(f"malformed JSON report: {exc!r}")
    return errors


def _triple(value: dict[str, int]) -> Fraction:
    return Fraction(value["num"], value["den"])


_SIZES = re.compile(r"^  objects: (\d+)   granules: (\d+)   classes: (\d+)$", re.M)
_GAMMA = re.compile(r"^  gamma \(approximation quality\): (\S+) \(", re.M)
_SUCCESS = re.compile(r"^  success ratio: (\S+) \(", re.M)
_VERDICT = re.compile(r"^Theorem checks: .* -> (\w+)$", re.M)


def check_analyze_text(out: bytes, exp: Expected) -> list[str]:
    errors: list[str] = []
    try:
        text = out.decode("utf-8")
        lines = text.split("\n")
        sizes = _SIZES.search(text)
        _compare(
            errors, "objects/granules/classes",
            tuple(map(int, sizes.groups())) if sizes else None,
            (exp.n, exp.m, exp.k),
        )
        # Granule frequency matrix: a header, then one "Xi c1 .. ck size" row per granule.
        top = lines.index("Granule frequency matrix") + 2
        cells = [
            [int(v) for v in line.split()[1:-1]] for line in lines[top : top + exp.m]
        ]
        _compare(errors, "gfm cells", cells, exp.cells)
        pairs = next(line for line in lines if line.startswith("  assignment: "))
        assignment = [
            int(pair.split(" -> Y")[1]) for pair in pairs[len("  assignment: "):].split(", ")
        ]
        _compare(errors, "assignment", assignment, exp.assignment)
        gamma, success = _GAMMA.search(text), _SUCCESS.search(text)
        _compare(errors, "gamma", Fraction(gamma[1]) if gamma else None, exp.gamma)
        _compare(errors, "success ratio", Fraction(success[1]) if success else None, exp.success)
        # Quality index table: a header after the alpha line, then "Yj size lower upper ..." rows.
        top = next(i for i, line in enumerate(lines) if line.startswith("  alpha (")) + 2
        rows = [line.split() for line in lines[top : top + exp.k]]
        _compare(errors, "nl", [int(row[2]) for row in rows], exp.nl)
        _compare(errors, "nu", [int(row[3]) for row in rows], exp.nu)
        verdict = _VERDICT.search(text)
        _compare(errors, "verdict", verdict[1] if verdict else None, "PASS")
    except (ValueError, IndexError, StopIteration, ZeroDivisionError) as exc:
        errors.append(f"malformed text report: {exc!r}")
    return errors


def check_fuzz_json(out: bytes, trials: int, seed: int) -> list[str]:
    errors: list[str] = []
    try:
        data = json.loads(out)
        _compare(errors, "trials", data["trials"], trials)
        _compare(errors, "checks", data["checks"], 2 * trials)
        _compare(errors, "failures", data["failures"], 0)
        _compare(errors, "base seed", data["base_seed"], seed)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"malformed fuzz summary: {exc!r}")
    return errors


def check_identical(out: bytes, want: bytes) -> list[str]:
    if out == want:
        return []
    return [f"output differs from the expected {len(want)} bytes (got {len(out)} bytes)"]
