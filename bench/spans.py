"""Spans recorded by the benchmark around its own calls into coxhull.

A span has a name, a start and an end (perf_counter nanoseconds), the
index of its parent span and the id of the operation (the triple) it
belongs to.  Spans stay in memory and are written out when the worker
ends.  Nothing inside the program is traced.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter_ns

# Spans whose chamber counts are the base of the per-chamber hull time.
HULL_SPANS = ("convexity.pair_hull", "convexity.triple_hull")


class Tracer:
    """Records spans when enabled; otherwise `call` is a plain call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans = []          # [name, start, end, parent, op, chambers]
        self._stack = []
        self.current_op = None

    def call(self, name: str, fn, *args, chambers=None):
        """fn(*args) inside a span; `chambers(result)` is stored with it."""
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, _clock(), None, parent, self.current_op, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args)
        finally:
            span[2] = _clock()
            self._stack.pop()
        if chambers is not None:
            span[5] = chambers(result)
        return result

    def op(self, op_id, fn):
        """Run fn() as one operation: the root span that its calls share."""
        self.current_op = op_id
        try:
            return self.call("op", fn)
        finally:
            self.current_op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, chambers in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "chambers": chambers}) + "\n")


def self_times(spans):
    """{name: [(self_ns, chambers), ...]}.  Self time is a span's duration
    minus the part of it that its child spans cover."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent].append((start, end))
    out = {}
    for (name, start, end, _, _, chambers), kids in zip(spans, covered):
        busy, reach = 0, start
        for s, e in sorted(kids):
            s = max(s, reach)
            if e > s:
                busy += e - s
                reach = e
        out.setdefault(name, []).append((end - start - busy, chambers))
    return out
