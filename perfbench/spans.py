"""The one timer and span recorder of the benchmark.

The harness times each command process with it, and the traced child
process records a span around every wrapped vccsat call with it, so the
timing code exists once.  A span holds its name, start, end, parent span,
thread and a few counts.  Spans are kept in memory and written out once,
when the run ends.

Self time and busy time are computed per thread: a span only loses the part
of its interval that spans on its own thread cover, so a pool task running
on another thread never hides the wait of the span that submitted it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

now_ns = time.perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans from any number of threads.

    The parent of a span is the innermost open span on the same thread,
    unless the caller names one (a pool task names the span that submitted
    it).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        s = Span(next(self._ids), name, now_ns(), 0, parent, threading.get_ident(), attrs)
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end_ns = now_ns()
            stack.pop()
            self.spans.append(s)

    def dump(self, path: Path, **extra) -> None:
        payload = dict(extra, spans=[asdict(s) for s in self.spans])
        Path(path).write_text(json.dumps(payload))


def load_spans(path: Path) -> tuple[list[Span], dict]:
    payload = json.loads(Path(path).read_text())
    spans = [Span(**s) for s in payload.pop("spans")]
    return spans, payload


def union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered_ns(window: tuple[int, int], intervals) -> int:
    """Part of `window` covered by the union of `intervals`."""
    lo, hi = window
    return union_ns((max(s, lo), min(e, hi)) for s, e in intervals if s < hi and e > lo)


def busy_ns(spans) -> int:
    """Busy time summed over threads: per thread, the union of the spans'
    intervals, so nested spans of one layer are not counted twice."""
    by_thread: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append((s.start_ns, s.end_ns))
    return sum(union_ns(iv) for iv in by_thread.values())


def self_ns(span: Span, spans) -> int:
    """Duration of `span` minus what its children on the same thread cover."""
    children = [
        (c.start_ns, c.end_ns) for c in spans if c.parent == span.id and c.thread == span.thread
    ]
    return span.duration_ns - covered_ns((span.start_ns, span.end_ns), children)
