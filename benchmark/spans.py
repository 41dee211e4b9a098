"""Span tracing from outside the package.

The tracer replaces functions by timing wrappers at every place a
``minorsep`` module has bound them (the defining module and each module
that imported the name), so calls that cross a module boundary open a
span.  ``Patches.restore`` puts the original objects back.  Nothing in
``minorsep`` itself is edited or needs to know about tracing.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` at the top) and ``op`` the id of the benchmark
op it ran under.  Spans stay in memory until ``write_jsonl`` at the end of
the run.  Self time is a span's duration minus the part of it covered by
its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper around fn; hook(counts, args, kwargs, result) runs
        after the span closes, so its cost is not charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced


class Patches:
    """Record of (module, attribute, original) replacements, undone in reverse."""

    def __init__(self):
        self.items: list = []

    def restore(self) -> None:
        while self.items:
            module, attr, original = self.items.pop()
            setattr(module, attr, original)


def install(tracer: Tracer, targets: dict, package: str = "minorsep") -> Patches:
    """Wrap each target at every import site inside `package`.

    `targets` maps span name -> (defining module, attribute, hook or None).
    Every loaded module of the package whose namespace binds the original
    function object gets the wrapper under the same attribute name.
    """
    patches = Patches()
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    try:
        for span_name, (mod_name, attr, hook) in targets.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = tracer.wrap(span_name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.items.append((mod, key, original))
                        setattr(mod, key, wrapper)
    except BaseException:
        patches.restore()
        raise
    return patches


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict:
    """name -> {"calls": int, "self_s": float}."""
    table: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
    return table


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "op": s.op,
            }, separators=(",", ":")) + "\n")
