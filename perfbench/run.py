"""End-to-end and per-layer benchmark of the roughcm command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-coarse --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed inside a work directory of the
checkout, so one seed always gives the same inputs and the program sees
only the generated files. The load is a closed loop from one client: one
child process at a time, each started after the previous one exited.

--trace 0 runs the real entry points as child processes and reports the
end-to-end metrics: the median wall time of one operation, the child's own
peak resident set (os.wait4 in launch.py, never RUSAGE_CHILDREN, which is a
running maximum over all children reaped so far) and the start-up cost of
`import roughcm.cli`. --trace 1 drives the same operations in this process,
alternating untraced and traced runs, and reports per-operation medians of
every layer's spans. Every output is checked against an independent
recomputation (check.py) or against the first checked output; a mismatch,
non-zero exit or timeout counts as a failed operation.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. `--workload all` runs every workload in turn and prefixes each
metric with its workload name. Per-run details (input facts, samples,
every span summary) go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
ROUNDTRIP = Path(__file__).resolve().parent / "roundtrip.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

MIN_OPS = 3
OP_TIMEOUT_S = 40
SETUP_PER_OP = 3
FUZZ_TRIALS = 4000

# Table shapes: rows, condition attributes, values per attribute, classes.
COARSE = (100_000, 4, 6, 5)  # m = 6**4 = 1,296 granules: verifier-bound
FINE = (100_000, 4, 20, 5)  # m ~ 74,400 of 160,000 cells: partition/gfm/render-bound

# BENCHMARK.json records why each workload was chosen.
WORKLOADS = ("analyze-coarse", "analyze-fine", "fuzz", "report-roundtrip")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYERS = ("cli", "core", "matrices", "classifiers", "indices", "oracle", "report")

_FUNCTIONS = {
    "oracle.verify_theorems": ("s", "self_s", "calls"),
    "oracle.oracle_upper": ("s", "self_s", "calls"),
    "oracle.oracle_lower": ("s", "calls"),
    "core.partition_by_attributes": ("s", "calls"),
    "core.decision_partition": ("s", "calls"),
    "matrices.granule_frequency_matrix": ("s", "calls"),
    "matrices.confusion_matrix": ("s",),
    "cli.ingest_csv": ("s",),
    "classifiers.classifier_from_text": ("s",),
    "classifiers.validate_overlap": ("s",),
    "classifiers.is_row_maximal": ("s",),
    "classifiers.maximal_row_classifier": ("s",),
    "indices.approximation_summary": ("s",),
    "indices.confusion_bounds": ("s",),
    "oracle.random_decision_system": ("s",),
    "oracle.random_overlap_classifier": ("s",),
    "oracle.run_fuzz_trials": ("self_s",),
    "report.analyze_decision_system": ("self_s",),
    "report.report_to_json": ("s",),
    "report.render_text": ("s",),
    "report.report_from_dict": ("s",),
}
PER_LAYER = {
    f"{name}.{kind}": "count" if kind == "calls" else "s"
    for name, kinds in _FUNCTIONS.items()
    for kind in kinds
}
PER_LAYER |= {
    f"{layer}.{kind}": "count" if kind == "calls" else "s"
    for layer in LAYERS
    for kind in ("self_s", "calls")
}
PER_LAYER |= {
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.self_sum_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace_overhead": "s",
}


@dataclass
class Case:
    """One prepared workload: how to run it, and how to check an output."""

    argv: list[str]
    inproc: Callable[[], str]
    verify: Callable[[bytes], list[str]]
    facts: dict[str, object]


@dataclass
class Tally:
    """Operation outcomes; the first checked-correct output is the reference."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    reference: bytes | None = None

    def record(self, case: Case, out: bytes, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is None:
            if self.reference is None:
                errors = case.verify(out)
                if not errors:
                    self.reference = out
            else:
                errors = check.check_identical(out, self.reference)
        else:
            errors = [problem]
        if errors:
            self.failed += 1
            self.errors.append(f"operation {self.attempted}: " + "; ".join(errors))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], out_path: Path) -> tuple[float, float, str | None]:
    """Run one child to completion: (wall s, its own peak RSS MB, problem or None).

    launch.py starts the child, times it from spawn to exit (all output
    written) and reads its rusage with os.wait4, from a process small
    enough not to raise the child's ru_maxrss.
    """
    err_path = out_path.with_suffix(".err")
    report = subprocess.run(
        [sys.executable, "-I", "-S", str(LAUNCH), str(OP_TIMEOUT_S), str(out_path),
         str(err_path), sys.executable, *argv],
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.split()
    wall_s, maxrss_kb, code, timed_out = report
    problem = None
    if timed_out == "1":
        problem = f"timed out after {OP_TIMEOUT_S} s"
    elif code != "0":
        stderr = err_path.read_text(errors="replace").strip()
        problem = f"exit code {code}: {stderr[-300:]}"
    return float(wall_s), int(maxrss_kb) / 1024, problem


def run_cli_inproc(args: list[str]) -> str:
    from roughcm import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"roughcm {args[0]} returned exit code {code}")
    return buffer.getvalue()


def run_roundtrip_inproc() -> str:
    import roundtrip

    return roundtrip.roundtrip("R.json")


def prepare_table(seed: int, shape: tuple[int, int, int, int], custom: bool):
    """Write T.csv (and MAP.txt) into the current directory; return the expectation."""
    header, rows = gen.make_table(seed, *shape)
    gen.write_table(Path("T.csv"), header, rows)
    cells = check.tally(rows)
    mapping = gen.random_mapping(seed, cells) if custom else None
    if mapping is not None:
        gen.write_mapping(Path("MAP.txt"), mapping)
    exp = check.expected(cells, mapping)
    facts = {"n": exp.n, "m": exp.m, "k": exp.k, "nonzero_gfm_cells": exp.nonzero_cells}
    return exp, facts


def cli_case(args: list[str], verify: Callable[[bytes], list[str]], facts: dict) -> Case:
    return Case(["-m", "roughcm", *args], lambda: run_cli_inproc(args), verify, facts)


def prepare(workload: str, seed: int) -> Case:
    if workload == "analyze-coarse":
        exp, facts = prepare_table(seed, COARSE, custom=False)
        args = ["analyze", "--input", "T.csv"]
        return cli_case(args, lambda out: check.check_analyze_json(out, exp), facts)
    if workload == "analyze-fine":
        exp, facts = prepare_table(seed, FINE, custom=True)
        args = ["analyze", "--input", "T.csv", "--classifier", "MAP.txt", "--format", "text"]
        return cli_case(args, lambda out: check.check_analyze_text(out, exp), facts)
    if workload == "fuzz":
        args = ["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(seed), "--format", "json"]
        return cli_case(
            args, lambda out: check.check_fuzz_json(out, FUZZ_TRIALS, seed), {"trials": FUZZ_TRIALS}
        )
    if workload == "report-roundtrip":
        exp, facts = prepare_table(seed, FINE, custom=True)
        argv = ["-m", "roughcm", "analyze", "--input", "T.csv", "--classifier", "MAP.txt"]
        _, _, problem = run_child(argv, Path("R.json"))
        report = Path("R.json").read_bytes()
        errors = [problem] if problem else check.check_analyze_json(report, exp)
        if errors:
            raise RuntimeError("could not make the report to load: " + "; ".join(errors))
        facts["report_bytes"] = len(report)
        return Case(
            [str(ROUNDTRIP), "R.json"],
            run_roundtrip_inproc,
            lambda out: check.check_identical(out, report),
            facts,
        )
    raise ValueError(f"unknown workload {workload!r}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def measure_children(case: Case, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop of child runs for `seconds` (at least MIN_OPS).

    SETUP_PER_OP import-only children follow each operation, so the set-up
    samples spread over the same window as the operations.
    """
    def start_up() -> float:
        wall, _, problem = run_child(["-c", "import roughcm.cli"], Path("setup.out"))
        if problem:
            raise RuntimeError(f"import roughcm.cli failed: {problem}")
        return wall

    start_up()  # the first start compiles the bytecode caches
    setup, walls, rss = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        wall, peak, problem = run_child(case.argv, Path("op.out"))
        walls.append(wall)
        rss.append(peak)
        tally.record(case, Path("op.out").read_bytes(), problem)
        setup += [start_up() for _ in range(SETUP_PER_OP)]
    samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup}
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    return metrics, samples


def measure_traced(
    case: Case, seconds: float, tally: Tally, tracer: spans.Tracer
) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process runs; per-operation span medians."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    def timed(run: Callable[[], str]) -> float:
        problem, out = None, ""
        began = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - began
        tally.record(case, out.encode("utf-8"), problem)
        return wall

    timed(case.inproc)  # the first run in a process also pays for imports and heap growth
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_OPS or time.perf_counter() - start < seconds:
        untraced.append(timed(case.inproc))
        tracer.install()
        try:
            traced.append(timed(lambda: tracer.call("bench.op", case.inproc)))
        finally:
            tracer.uninstall()
    medians = spans.per_op_medians(tracer.spans)
    medians["trace.traced_s"] = statistics.median(traced)
    medians["trace.untraced_s"] = statistics.median(untraced)
    medians["trace_overhead"] = medians["trace.traced_s"] - medians["trace.untraced_s"]
    metrics = {name: medians.get(name, 0.0) for name in PER_LAYER}
    return metrics, {"traced_s": traced, "untraced_s": untraced, "all_medians": medians}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[Tally, dict]:
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    here = Path.cwd()
    tally = Tally()
    try:
        os.chdir(work)
        case = prepare(workload, seed)
        if traced:
            tracer = spans.Tracer()
            metrics, samples = measure_traced(case, seconds, tally, tracer)
        else:
            metrics, samples = measure_children(case, seconds, tally)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    case.facts["stdout_bytes"] = len(tally.reference or b"")
    case.facts |= {"seed": seed, "python": platform.python_version()}
    units = PER_LAYER if traced else END_TO_END
    print(f"workload {workload}, seed {seed}, trace {int(traced)}")
    print(f"  facts: {json.dumps(case.facts)}")
    for name, value in metrics.items():
        spread = quartiles(samples[name]) if name in samples else ""
        print(f"  {name:<42} {value:12.4f} {units[name]:<6} {spread}")
    rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<42} {rate:12.4f} share  ({tally.failed} of {tally.attempted})")
    for error in tally.errors[:5]:
        print(f"  FAILED {error[:400]}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    record = {"facts": case.facts, "metrics": metrics, "samples": samples,
              "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz", {"workload": workload, "seed": seed})
    return tally, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "roughcm" / "__init__.py").is_file():
        print(f"error: no roughcm sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        tally, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics |= {prefix + key: value for key, value in result.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
