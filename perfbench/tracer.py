"""In-memory spans and counters for the traced benchmark run.

A span records its name, parent, start and end (perf_counter_ns) and a few
attributes.  Spans are opened only by the benchmark's own code, around calls
into chevorbit's public functions, so a layer's time is measured from
outside the program.  When tracing is off, ``span`` hands back one shared
no-op object and ``add`` returns at once, so the untraced run pays almost
nothing for the hooks.
"""

from __future__ import annotations

import time
from collections import defaultdict

_now = time.perf_counter_ns


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        self.index = len(tracer.spans)
        # [name, parent, start, end, attrs]; end is filled on exit
        tracer.spans.append([name, parent, 0, 0, attrs])
        stack.append(self.index)

    def __enter__(self):
        self.tracer.spans[self.index][2] = _now()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][3] = _now()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans and counters; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, attrs)

    def add(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds of self time per span name, and per ``<name>.<case>``.

        Self time is a span's duration minus the part its child spans
        cover.  Spans carrying a ``case`` attribute are also summed per case.
        """
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        by_case: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, attrs) in enumerate(self.spans):
            own = (end - start - child[i]) / 1e9
            by_name[name] += own
            case = attrs.get("case")
            if case is not None:
                by_case[f"{name}.{case}"] += own
        return dict(by_name), dict(by_case)

    def export(self) -> list[dict]:
        return [
            {"id": i, "parent": parent, "name": name,
             "start_ns": start, "end_ns": end, **attrs}
            for i, (name, parent, start, end, attrs) in enumerate(self.spans)
        ]
