"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of the program's modules from outside:
it replaces a module attribute or a class method with a wrapper that records
a span (name, start, end, parent) and one work count, and puts the original
back on exit.  The program itself is never edited, and untraced runs never
construct a Tracer, so they pay nothing for it.

Cyclic-GC pauses are recorded as `tensor.gc` spans through `gc.callbacks`,
with the number of objects freed as their count; they nest under whatever
span was open when the collector ran, so the self time of that span excludes
them.
"""
from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict

# span record columns
NAME, START, END, PARENT, ROOT, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name_id, start_ns, end_ns, parent, root, count]
        self.missing: list[str] = []  # entry points that were not found to wrap
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._gc_start = 0
        self._gc_id = self._name_id("tensor.gc")
        self.t0 = time.perf_counter_ns()

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        # the index is read after the append: allocating the record can run
        # the collector, whose callback appends a GC span first
        parent = self._stack[-1] if self._stack else -1
        rec = [self._name_id(name), 0, 0, parent, -1, 0]
        self.spans.append(rec)
        idx = len(self.spans) - 1
        rec[ROOT] = self.spans[parent][ROOT] if parent >= 0 else idx
        self._stack.append(idx)
        rec[START] = time.perf_counter_ns()
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, result) gives the span's work count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx][COUNT] = count(args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, count=None, wrapper=None):
        """Replace owner.attr by its traced version until uninstall()."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper(fn) if wrapper is not None else self.wrap(name, fn, count))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([self._gc_id, self._gc_start, time.perf_counter_ns(),
                           parent, root, info.get("collected", 0)])

    def install_gc(self):
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def table(self) -> dict:
        """name -> {calls, total_ms, self_ms, count} over all spans.

        Self time is a span's duration minus the durations of its direct
        children (GC pauses included), so self times add up to the traced
        wall time without double counting.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        rows = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "count": 0.0})
        for i, s in enumerate(self.spans):
            row = rows[self.names[s[NAME]]]
            dur = s[END] - s[START]
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[i]) / 1e6
            row["count"] += s[COUNT]
        return dict(rows)

    def breakdown(self, scopes) -> dict:
        """(scope, name) -> {calls, total_ms, count}, where scope is the name of
        the nearest enclosing span whose name is in `scopes` (None if none)."""
        scope_ids = {self._name_ids[n] for n in scopes if n in self._name_ids}
        nearest = [None] * len(self.spans)
        out = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "count": 0.0})
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            if p >= 0:  # parents are always recorded before their children
                nearest[i] = p if self.spans[p][NAME] in scope_ids else nearest[p]
            scope = self.names[self.spans[nearest[i]][NAME]] if nearest[i] is not None else None
            row = out[(scope, self.names[s[NAME]])]
            row["calls"] += 1
            row["total_ms"] += (s[END] - s[START]) / 1e6
            row["count"] += s[COUNT]
        return out

    def write(self, path, extra: dict):
        """Spans (times in microseconds from tracer start) plus the self-time
        table and whatever the caller adds, as one JSON document."""
        doc = dict(extra)
        doc["self_time"] = self.table()
        doc["span_columns"] = ["name", "start_us", "end_us", "parent", "root", "count"]
        doc["span_names"] = self.names
        doc["spans"] = [[s[NAME], (s[START] - self.t0) // 1000, (s[END] - self.t0) // 1000,
                         s[PARENT], s[ROOT], s[COUNT]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
