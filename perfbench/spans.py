"""Spans recorded by the benchmark around its calls into each layer.

A span holds a name, start, end, parent and input id.  Spans stay in
memory and are written out once, at the end of a run.  The untraced run
uses ``NULL`` so the workload code is the same in both runs.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL_SPAN = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str, input_id: str | None = None):
        return _NULL_SPAN


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, input id]
        self._stack: list = []

    def span(self, name: str, input_id: str | None = None):
        return _Span(self, name, input_id)

    def self_times(self, slowdown=None) -> dict:
        """Seconds per span name: each span's duration minus the time its
        direct children cover, divided by ``slowdown(start, end)`` when
        given (see speed.py)."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _iid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _parent, _iid) in enumerate(self.spans):
            t = end - start - child_time[k]
            out[name] += t / slowdown(start, end) if slowdown else t
        return dict(out)

    def counts(self) -> dict:
        out: dict = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "input": i} for n, s, e, p, i in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class _Span:
    __slots__ = ("tracer", "name", "input_id", "rec")

    def __init__(self, tracer: Tracer, name: str, input_id):
        self.tracer, self.name, self.input_id = tracer, name, input_id

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        if self.input_id is None and parent is not None:
            self.input_id = tr.spans[parent][4]
        self.rec = [self.name, perf_counter(), None, parent, self.input_id]
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer._stack.pop()
        return False
