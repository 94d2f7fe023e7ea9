"""Check that two checkouts of roughcm write the same bytes.

Usage, from anywhere:

    python3 tools/same_stdout.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of the repository (a directory holding src/roughcm
and perfbench/). In a temporary directory the script makes the benchmark's
seed-1 and seed-2 fine tables, each with its classifier mapping, and coarse
tables, with perfbench/gen.py at the shapes perfbench/run.py names. Then,
with each root's src alone on PYTHONPATH and no bytecode written, it runs:

- `python -m roughcm analyze` on every table, in text and in JSON;
- three more analyses of the seed-1 coarse table in JSON, one per entry
  of VARIANTS: the mrc's highest and seeded random tie-breaks, which
  change its assignment and so the confusion matrix and the theorem 3-4
  chains, and a granule partition from attributes a1 and a3 alone, which
  changes the granules and so lemma part 1's subjects;
- the root's perfbench/roundtrip.py on the parent's JSON report of each
  fine table;
- `python -m roughcm fuzz --trials 10000 --seed 42`, in JSON and in text,
  and the benchmark's `fuzz --trials 4000 --seed 1 --format json`; each
  fuzz case runs twice, once as it comes and once with the change root's
  child pinned to one CPU (os.sched_setaffinity in that child alone), so
  the change's sharded run and its one-process run are each held to the
  parent's bytes;
- three refused inputs: a ragged CSV (exit 1), a mapping file that breaks
  the overlap rule on a small table (exit 2), and the parent's JSON
  report of that table with `bounds.classes.0.nl_star` changed, loaded by
  a `-c` snippet that writes the ReportFormatError message to stderr
  rather than a traceback, whose paths would differ between roots;
- `analyze` of that small table with each mapping file of MAPPINGS: one
  that breaks each line rule in turn (three fields, `+1`, granule 0,
  class 3, a 25-digit class index, a granule assigned twice), one that
  leaves a granule out, and one that is accepted although it spaces a
  line with U+00A0 and zero-pads an index to 25 digits.

It prints one line per case, `same` or `DIFFERENT`, with both exit codes
and stdout and stderr sizes, and exits 1 if any case differs in its exit
code, its stdout bytes or its stderr bytes. Standard library only; it
takes about 40 seconds on two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SEEDS = (1, 2)
FORMATS = ("text", "json")
FUZZ = (
    ["fuzz", "--trials", "10000", "--seed", "42", "--format", "json"],
    ["fuzz", "--trials", "10000", "--seed", "42", "--format", "text"],
    ["fuzz", "--trials", "4000", "--seed", "1", "--format", "json"],
)
ROUNDTRIP = Path("perfbench", "roundtrip.py")
SMALL = ["-m", "roughcm", "analyze", "--input", "small.csv"]
VARIANTS = (
    ["--tie-break", "highest"],
    ["--tie-break", "random", "--seed", "3"],
    ["--attributes", "a1,a3"],
)
# mapping files of the small table, which has 2 granules and 2 classes;
# mapping both granules to class 2 satisfies the overlap rule
MAPPINGS = {
    "three fields": "1 2 2\n2 2\n",
    "plus sign": "+1 2\n2 2\n",
    "granule 0": "1 2\n0 2\n",
    "class 3": "1 3\n2 2\n",
    "25-digit class index": f"1 {'1' * 25}\n2 2\n",
    "granule assigned twice": "1 2\n1 2\n2 2\n",
    "granule missing": "# one line\n1 2\n",
    "accepted, U+00A0 spacing and a 25-digit index": f"1\xa02\n{'0' * 24}2 2\n",
}
LOAD = """
import json, sys
from roughcm import ReportFormatError, report_from_dict
try:
    report_from_dict(json.load(open(sys.argv[1], encoding="utf-8")))
except ReportFormatError as exc:
    raise SystemExit(f"ReportFormatError: {exc}")
"""


def write_tables(work: Path, seed: int) -> dict[str, list[str]]:
    """Write the seed's fine table with its mapping and its coarse table
    into `work`; return each table's analyze arguments."""
    tables = {}
    for grain, shape, custom in (("fine", run.FINE, True), ("coarse", run.COARSE, False)):
        header, rows = gen.make_table(seed, *shape)
        table = work / f"{grain}{seed}.csv"
        gen.write_table(table, header, rows)
        tables[grain] = ["-m", "roughcm", "analyze", "--input", table.name]
        if custom:
            mapping = work / f"{grain}{seed}-map.txt"
            gen.write_mapping(mapping, gen.random_mapping(seed, check.tally(rows)))
            tables[grain] += ["--classifier", mapping.name]
    return tables


def _one_cpu() -> None:
    """Pin the calling process, a child about to exec, to its lowest usable CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_python(
    root: Path, args: list[str | Path], work: Path, one_cpu: bool = False
) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python ARGS` in `work`, importing
    roughcm from the root's src, pinned to one CPU if asked; a Path among
    ARGS names a file of the root."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [str(root / a) if isinstance(a, Path) else a for a in args]
    done = subprocess.run(
        [sys.executable, *args], cwd=work, env=env, capture_output=True, check=False,
        preexec_fn=_one_cpu if one_cpu else None,
    )
    return done.returncode, done.stdout, done.stderr


def compare(
    name: str, roots: tuple[Path, Path], args: list[str | Path], work: Path,
    change_on_one_cpu: bool = False,
) -> tuple[bool, bytes]:
    """Run one case on both roots, the change's pinned to one CPU if asked,
    and print its line; return whether the two agree, and the parent's
    stdout."""
    parent = run_python(roots[0], args, work)
    change = run_python(roots[1], args, work, change_on_one_cpu)
    same = parent == change
    print(
        f"{'same' if same else 'DIFFERENT':9}  {name}: exit {parent[0]} / {change[0]}, "
        f"stdout {len(parent[1])} / {len(change[1])} bytes, "
        f"stderr {len(parent[2])} / {len(change[2])} bytes",
        flush=True,
    )
    return same, parent[1]


def refused_inputs(roots: tuple[Path, Path], work: Path) -> list[bool]:
    """Compare the three refused inputs and the small table's mapping
    files; return whether each agreed."""
    (work / "ragged.csv").write_text("a,b,d\n1,2,x\n1,2\n", encoding="utf-8")
    (work / "small.csv").write_text("a,d\n1,x\n1,y\n2,y\n", encoding="utf-8")
    # granule 2 holds class y alone, so mapping it to x breaks the overlap rule
    (work / "small-map.txt").write_text("1 1\n2 1\n", encoding="utf-8")
    report = json.loads(run_python(roots[0], [*SMALL, "--format", "json"], work)[1])
    report["bounds"]["classes"][0]["nl_star"] += 1
    (work / "small-tampered.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    cases = (
        ("refused: ragged CSV", ["-m", "roughcm", "analyze", "--input", "ragged.csv"]),
        ("refused: mapping breaks the overlap rule", [*SMALL, "--classifier", "small-map.txt"]),
        ("refused: report with a changed bound", ["-c", LOAD, "small-tampered.json"]),
    )
    agreed = [compare(name, roots, args, work)[0] for name, args in cases]
    for n, (name, text) in enumerate(MAPPINGS.items()):
        mapping = work / f"small-map{n}.txt"
        mapping.write_text(text, encoding="utf-8")
        args = [*SMALL, "--classifier", mapping.name, "--format", "text"]
        agreed.append(compare(f"mapping file: {name}", roots, args, work)[0])
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    for root in roots:
        if not (root / "src" / "roughcm" / "__init__.py").is_file():
            parser.error(f"no roughcm sources under {root / 'src'}")
    agreed = []
    with tempfile.TemporaryDirectory(prefix="same-stdout-") as tmp:
        work = Path(tmp)
        for seed in SEEDS:
            tables = write_tables(work, seed)
            for grain, analyze in tables.items():
                for fmt in FORMATS:
                    name = f"analyze {grain} table, seed {seed}, {fmt}"
                    same, out = compare(name, roots, [*analyze, "--format", fmt], work)
                    agreed.append(same)
                    if grain == "fine" and fmt == "json":
                        report = work / f"fine{seed}-parent.json"
                        report.write_bytes(out)
                        name = f"roundtrip of the parent's fine report, seed {seed}"
                        agreed.append(compare(name, roots, [ROUNDTRIP, report.name], work)[0])
            if seed == 1:
                for variant in VARIANTS:
                    name = f"analyze coarse table, seed 1, json, {' '.join(variant)}"
                    args = [*tables["coarse"], *variant, "--format", "json"]
                    agreed.append(compare(name, roots, args, work)[0])
        for fuzz in FUZZ:
            for one_cpu in (False, True):
                name = " ".join(fuzz) + (", change on one CPU" if one_cpu else "")
                args = ["-m", "roughcm", *fuzz]
                agreed.append(compare(name, roots, args, work, one_cpu)[0])
        agreed += refused_inputs(roots, work)
    print(f"{sum(agreed)} of {len(agreed)} cases the same")
    return 0 if all(agreed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
