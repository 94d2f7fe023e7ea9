"""Span recording around roughcm's layer boundaries, owned by the benchmark.

roughcm modules call one another through module-global names (`from .core
import partition_by_attributes` binds `roughcm.oracle.partition_by_attributes`).
Rebinding each such name to a recording wrapper therefore puts a span at
every call between layers without editing the program. The layer of a span
is the module that defines the function, so `oracle.oracle_upper` is one
name whichever module called it.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Keeps spans in memory: (op, span id, parent id or -1, name, start ns, end ns).

    Spans of one operation share the op id. Spans are appended when they
    end, so children come before their parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))

        return recorded

    def install(self) -> None:
        """Wrap every public roughcm function under each module-global name."""
        wrappers: dict[object, object] = {}
        for module in [m for key, m in sys.modules.items() if key.startswith("roughcm.")]:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("roughcm.")
                    and not attr.startswith("_")
                ):
                    if value not in wrappers:
                        layer = value.__module__.rpartition(".")[2]
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run `fn` as a new operation whose root span is `name`."""
        self.op += 1
        return self._wrap(name, fn)(*args)

    def write(self, path: Path, header: dict[str, object]) -> None:
        """Write the header, then one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            out.writelines(json.dumps(span) + "\n" for span in self.spans)


def summarize(spans: list[tuple[int, int, int, str, int, int]]) -> dict[str, float]:
    """Per-operation totals: `<name>.{s,self_s,calls}` and `<layer>.{self_s,calls}`.

    Self time is a span's duration minus the time its direct children
    cover; spans nest strictly in single-threaded code, so that is the sum
    of the children's durations. `s` sums a function's spans, which is its
    inclusive time because no roughcm function calls itself.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for _, sid, _, name, start, end in spans:
        duration = end - start
        self_ns = duration - covered[sid]
        layer = name.partition(".")[0]
        out[f"{name}.s"] += duration / 1e9
        out[f"{name}.self_s"] += self_ns / 1e9
        out[f"{name}.calls"] += 1
        out[f"{layer}.self_s"] += self_ns / 1e9
        out[f"{layer}.calls"] += 1
        out["trace.self_sum_s"] += self_ns / 1e9
        out["trace.spans"] += 1
    return dict(out)


def per_op_medians(spans: list[tuple[int, int, int, str, int, int]]) -> dict[str, float]:
    """Median over operations of each summarized value; absent counts as 0."""
    by_op: dict[int, list] = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    summaries = [summarize(group) for _, group in sorted(by_op.items())]
    keys = set().union(*summaries)
    return {key: statistics.median(s.get(key, 0.0) for s in summaries) for key in keys}
