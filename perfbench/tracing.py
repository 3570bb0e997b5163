"""In-memory spans and counters recorded around calls into sitcarpet modules.

The benchmark wraps module attributes from its own files (nothing inside the
package changes).  A span records its name, start, end, parent span and the
operation it belongs to; a counter adds up calls or quantities taken from a
call's arguments or result.  Spans stay in memory until the run ends.

A hook whose target no longer exists is skipped and reported as missing, so a
later refactor that removes or renames a function turns the metrics that
depend on it into absent metrics instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

PACKAGE = "sitcarpet"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; one operation id groups a whole operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str, float, Optional[int]]] = []
        self._next_id = 0
        self.op = -1

    def begin(self, name: str) -> None:
        """Open a span; spans nest, so `end` closes the innermost one."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, time.perf_counter(), parent))

    def end(self) -> None:
        t1 = time.perf_counter()
        sid, name, t0, parent = self._stack.pop()
        self.spans.append(Span(sid, name, t0, t1, parent, self.op))

    @contextmanager
    def operation(self, name: str):
        """One operation: a new op id and a root span named `name`."""
        self.op += 1
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, k=1) -> None:
        self.counts[name] += k


@dataclass(frozen=True)
class Hook:
    """Wrap `target` ("module.attribute").

    kind "span" records a span named `name` around every call; kind "count"
    only adds one to the counter `name`.  With `everywhere`, every binding of
    the same function object in any sitcarpet module is wrapped (this catches
    `from .x import f` copies); otherwise only the named binding is.
    `on_call(tracer, args, kwargs, result)` may add further counts.
    """

    target: str
    name: str
    kind: str = "span"
    everywhere: bool = True
    on_call: Optional[Callable] = None


def _wrap(fn, hook: Hook, tracer: Tracer):
    if hook.kind == "span":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(hook.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook.on_call is not None:
                hook.on_call(tracer, args, kwargs, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(hook.name)
            result = fn(*args, **kwargs)
            if hook.on_call is not None:
                hook.on_call(tracer, args, kwargs, result)
            return result
    return wrapper


def install(tracer: Tracer, hooks) -> tuple[Callable[[], None], list[str]]:
    """Install hooks; returns (restore, names of hooks whose target is missing)."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for hook in hooks:
        mod_name, attr = hook.target.rsplit(".", 1)
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            missing.append(hook.name)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(hook.name)
            continue
        wrapper = _wrap(original, hook, tracer)
        if hook.everywhere:
            owners = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE
                                            or n.startswith(PACKAGE + "."))]
        else:
            owners = [module]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore, missing


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        out[s.id] = s.duration - _union_length(kids)
    return out


class SpanSummary:
    """Totals per span name over the spans of several operations."""

    def __init__(self, spans):
        self._self = self_times(spans)
        self._by_name: dict[str, list[Span]] = {}
        for s in spans:
            self._by_name.setdefault(s.name, []).append(s)

    def calls(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def busy(self, name: str) -> float:
        """Wall time inside spans of `name`, nested same-name calls counted once."""
        per_op: dict[int, list] = {}
        for s in self._by_name.get(name, ()):
            per_op.setdefault(s.op, []).append((s.start, s.end))
        return sum(_union_length(v) for v in per_op.values())

    def self_time(self, name: str) -> float:
        return sum(self._self[s.id] for s in self._by_name.get(name, ()))


def write_spans(path, spans) -> None:
    """Write spans as CSV: id, name, start, end, parent, op (times in s)."""
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,op\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{parent},{s.op}\n")
