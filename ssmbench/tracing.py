"""
Span recorder for the traced run. Spans are kept in memory and written
out once at the end. Layers are traced from outside: `wrap` replaces a
module attribute (the name the CLI calls through) with a timing shim and
`restore` puts the original back, so nothing under src/ changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []
        self._patched = []

    def begin(self, name) -> int:
        """Open a span; a span with no parent starts a new run id, which
        every span it causes shares."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.run += 1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, count=None):
        """Trace every call made through `module.attr` as span `name`.
        `count(result, args)` adds to counts[name] when given."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.counts[name] += count(result, args)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Per span index: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def self_by_name(self, lo, hi, runs=None):
        """Summed self time per span name over spans[lo:hi], optionally only
        spans whose run id is in `runs`."""
        own = self.self_times()
        out: dict = defaultdict(float)
        for i in range(lo, hi):
            if runs is None or self.spans[i].run in runs:
                out[self.spans[i].name] += own[i]
        return out

    def window(self, lo, hi):
        """Run ids and summed root-span time of spans[lo:hi] (one session)."""
        spans = self.spans[lo:hi]
        runs = sorted({s.run for s in spans})
        roots = sum(s.end - s.start for s in spans if s.parent is None)
        return runs, roots

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
