"""Spans around public vortexfront calls, held in memory until the run ends.

A span records its name, start, end, parent span and op id.  Sub-stages of
a composite call are replayed on the same inputs after the real call and
recorded as its children with ``replay`` set; the replay's wall time is
kept apart so the traced op time covers the real calls only.  In the
memory pass each span also records its tracemalloc peak above the traced
memory at entry; timings from that pass are not used.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    replay: bool
    end: float = 0.0
    failed: bool = False
    alloc_peak: int | None = None
    attrs: dict = field(default_factory=dict)
    base_mem: int = 0
    peak_mem: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run: calls go straight through and nothing is kept."""

    active = False
    replay_s = 0.0
    op = -1

    def call(self, name, fn, *args, replay=None, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield {}


class Tracer:
    active = True

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op = -1
        self.replay_s = 0.0
        self.last: int | None = None   # index of the span closed last
        self._stack: list[int] = []
        self._replaying = False
        # Module globals routed through spans (see workloads.wrap_globals):
        # span name -> the globals found, and the globals not found.
        self.wrapped: dict[str, set[str]] = {}
        self.missing: set[str] = set()

    def call(self, name, fn, *args, replay=None, **kwargs):
        """fn(*args, **kwargs) in a span; then replay(result) as its children."""
        with self.span(name):
            result = fn(*args, **kwargs)
        if replay is not None:
            with self.replaying(self.last):
                replay(result)
        return result

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, 0.0, parent, self.op, self._replaying, attrs=attrs)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                up = self.spans[parent]
                up.peak_mem = max(up.peak_mem, peak)
            tracemalloc.reset_peak()
            rec.base_mem = rec.peak_mem = current
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec.attrs
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self.last = self._stack.pop()
            if self.memory:
                rec.peak_mem = max(rec.peak_mem, tracemalloc.get_traced_memory()[1])
                rec.alloc_peak = rec.peak_mem - rec.base_mem
                if parent is not None:
                    up = self.spans[parent]
                    up.peak_mem = max(up.peak_mem, rec.peak_mem)

    @contextlib.contextmanager
    def replaying(self, parent: int):
        """Record the spans opened inside as replayed children of parent."""
        outer = self._replaying
        self._replaying = True
        self._stack.append(parent)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if not outer:
                self.replay_s += time.perf_counter() - t0
            self._stack.pop()
            self._replaying = outer

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's, floored at zero.

        Replayed children run after their parent's real call, so their
        durations are subtracted rather than intersected with its interval.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [max(0.0, s.duration - c) for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "replay": s.replay,
                 "failed": s.failed, "alloc_peak": s.alloc_peak, **s.attrs}
                for s in self.spans]
