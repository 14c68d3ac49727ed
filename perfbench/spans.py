"""Outside-in tracing for the benchmark.

The tracer swaps named module- or class-level attributes of the program for
wrappers that record one span per call: (name, start, end, parent span, op
id). Spans stay in memory while the workload runs; self time and counts are
aggregated afterwards, and the spans are written out once at the end. No
file of the program changes: only the names its own code looks up at call
time are replaced, and every one is put back when the tracer closes.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import defaultdict


class Tracer:
    """Context manager that installs timing wrappers and restores them on exit.

    `op` is the id of the op in progress. A wrapper's `op_of(args)` may name a
    new op when the call starts; every other span takes the current one.
    `count(args, result)` yields (counter, amount) pairs credited to the op.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (op, counter) -> amount
        self.op = 0
        self.saved: list = []  # (owner, attr, original) per replaced name, until close
        self._stack: list = []

    def wrap(self, owner, attr: str, name: str, count=None, op_of=None) -> None:
        # class attributes are read from __dict__ so methods come back unbound
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if op_of is not None:
                named = op_of(args)
                if named is not None:
                    self.op = named
            op = self.op
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if count is not None:
                for key, amount in count(args, result):
                    counts[op, key] += amount
            return result

        setattr(owner, attr, traced)
        self.saved.append((owner, attr, original))

    def close(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def self_ms(self, keep_op) -> dict:
        """Total self time in ms per span name over the ops `keep_op` accepts.
        Self time is a span's duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if keep_op(op):
                totals[name] += (end - start - child[i]) * 1e3
        return totals

    def counted(self, keep_op) -> dict:
        totals: dict = defaultdict(float)
        for (op, key), amount in self.counts.items():
            if keep_op(op):
                totals[key] += amount
        return totals

    def write(self, path) -> None:
        """Write every span as one gzipped CSV row, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["span", "name", "start_us", "end_us", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([i, name, round((start - origin) * 1e6, 3),
                                 round((end - origin) * 1e6, 3), parent, op])
