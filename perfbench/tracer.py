"""In-memory spans around calls into the program's layers.

The benchmark traces from its own files: :meth:`Tracer.wrap` replaces a
public function or method of the program with a wrapper that records a
span (name, start, end, parent, trace id) around every call, and
:meth:`Tracer.restore` puts the original back. Spans stay in memory and
are written once, as Chrome trace-event JSON, when the run ends.

The current span lives in a :class:`contextvars.ContextVar`, so nesting
follows asyncio tasks as well as plain calls; work handed to another
thread links to its caller only when the executor copies the context
(see ``serve_host.ContextThreadPool``).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int
    trace_id: str
    tid: int
    pid: int = field(default_factory=os.getpid)
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans; ``enabled=False`` makes every hook a plain call."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, trace_id: str | None):
        parent = self._current.get()
        span = Span(name=name, start_ns=0, end_ns=0, span_id=next(self._ids),
                    parent_id=parent.span_id if parent else 0,
                    trace_id=(trace_id if trace_id is not None
                              else parent.trace_id if parent else ""),
                    tid=threading.get_ident())
        token = self._current.set(span)
        span.start_ns = time.perf_counter_ns()
        return span, token

    def _close(self, span: Span, token) -> None:
        span.end_ns = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(span)

    def span(self, name: str, trace_id: str | None = None, **attrs):
        """Context manager recording one span (used around whole passes)."""
        return _SpanContext(self, name, trace_id, attrs)

    def wrap(self, owner, attr: str, name: str, *, trace_id=None,
             on_result=None) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``trace_id(args, kwargs)`` names the job a call belongs to;
        ``on_result(span, result, args, kwargs)`` copies counts from the
        call's result into the span's attributes.
        """
        if not self.enabled:
            return
        func = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                tid = trace_id(args, kwargs) if trace_id else None
                span, token = tracer._open(name, tid)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if on_result is not None:
                    on_result(span, result, args, kwargs)
                return result
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                tid = trace_id(args, kwargs) if trace_id else None
                span, token = tracer._open(name, tid)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if on_result is not None:
                    on_result(span, result, args, kwargs)
                return result

        self._patches.append((owner, attr, func))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_s(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name(name))

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus the part of its interval
        covered by its child spans (children clipped to the parent and
        overlapping children counted once).
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id:
                children.setdefault(s.parent_id, []).append(s)
        table: dict[str, dict] = {}
        for s in self.spans:
            covered = 0
            cur_end = s.start_ns
            for c in sorted(children.get(s.span_id, ()),
                            key=lambda c: c.start_ns):
                lo = max(c.start_ns, cur_end)
                hi = min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cur_end = hi
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += (s.end_ns - s.start_ns - covered) / 1e9
        return table

    def chrome_trace(self) -> list[dict]:
        """The spans as Chrome trace-event "complete" events (µs)."""
        return [{"name": s.name, "cat": s.name.rsplit(".", 1)[0], "ph": "X",
                 "ts": s.start_ns / 1e3, "dur": (s.end_ns - s.start_ns) / 1e3,
                 "pid": s.pid, "tid": s.tid,
                 "args": {"span_id": s.span_id, "parent_id": s.parent_id,
                          "trace_id": s.trace_id, **s.attrs}}
                for s in self.spans]

    def add_spans(self, records: list[dict]) -> None:
        """Append spans another process recorded (``Span`` field dicts)."""
        offset = max((s.span_id for s in self.spans), default=0)
        for d in records:
            d = dict(d, span_id=d["span_id"] + offset,
                     parent_id=d["parent_id"] + offset if d["parent_id"]
                     else 0)
            self.spans.append(Span(**d))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, trace_id, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self):
        if self._tracer.enabled:
            self.span, self._token = self._tracer._open(self._name,
                                                        self._trace_id)
            self.span.attrs.update(self._attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        if self.span is not None:
            self._tracer._close(self.span, self._token)
