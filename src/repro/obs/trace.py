"""Hierarchical spans and the per-sweep :class:`Trace`.

The tracing model is deliberately small:

* a **span** is a named, attributed interval measured on the monotonic
  clock.  ``with span("cache.read", experiment=eid): ...`` records one
  :class:`SpanRecord` (name, start, duration, pid/tid, nesting depth,
  parent span name, attributes) into the active trace;
* a **trace** is the thread-safe collection of finished spans plus a
  :class:`~repro.obs.counters.Counters` instance, created per sweep by
  whoever wants observability (the ``repro trace`` CLI, a benchmark, a
  test) and installed with :func:`activate` / :func:`tracing`;
* when **no trace is active** -- the default -- :func:`span` returns a
  shared no-op context manager and :func:`add_counter` /
  :func:`record_span` return immediately after one global ``is None``
  check, so instrumented hot paths cost effectively nothing.

Thread safety: threads share the active trace; each thread keeps its
own span stack (``threading.local``) for parent/depth bookkeeping, and
finished spans are appended under the trace's lock.

Process safety: worker processes never share a ``Trace`` object.  The
engine's worker entry point builds a fresh child trace, runs the
experiment, and ships ``Trace.to_payload()`` (plain picklable dicts)
back over the result pipe; the parent folds it in with
:meth:`Trace.merge_payload`, preserving the child's pid/tid so the
Chrome export shows one lane per worker.  Monotonic readings are
comparable across processes on one machine (``CLOCK_MONOTONIC`` is
system-wide on Linux), so child spans line up with parent spans.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.clock import wall_now
from repro.obs.context import context_fields
from repro.obs.counters import Counters
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    start_s: float        # monotonic-clock reading at __enter__
    duration_s: float
    pid: int
    tid: int
    depth: int            # 0 = top level within its thread
    parent: str | None    # enclosing span's name, if any
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "parent": self.parent,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=str(payload["name"]),
            start_s=float(payload["start_s"]),
            duration_s=float(payload["duration_s"]),
            pid=int(payload["pid"]),
            tid=int(payload["tid"]),
            depth=int(payload.get("depth", 0)),
            parent=payload.get("parent"),
            attributes=dict(payload.get("attributes") or {}),
        )


class _Span:
    """Live span context manager bound to one trace."""

    __slots__ = ("_trace", "name", "attributes", "start_s")

    def __init__(self, trace: "Trace", name: str,
                 attributes: dict[str, Any]) -> None:
        self._trace = trace
        self.name = name
        self.attributes = attributes
        self.start_s = 0.0

    def set(self, **attributes: Any) -> "_Span":
        """Attach attributes discovered mid-span (e.g. matrix size)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_Span":
        self._trace._stack().append(self.name)
        self.start_s = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_s = time.monotonic() - self.start_s
        stack = self._trace._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        parent = stack[-1] if stack else None
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._trace._append(SpanRecord(
            name=self.name, start_s=self.start_s,
            duration_s=duration_s, pid=os.getpid(),
            tid=threading.get_ident(), depth=len(stack),
            parent=parent, attributes=self.attributes))
        return False


class _NoopSpan:
    """Shared do-nothing span for when tracing is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Trace:
    """All spans and counters observed during one traced region."""

    def __init__(self, name: str = "trace", *,
                 span_histograms: bool = True,
                 max_spans: int | None = None) -> None:
        self.name = name
        self.epoch_s = wall_now()            # wall anchor for export
        self.start_monotonic_s = time.monotonic()
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.counters
        #: With span_histograms on (the default), every finished span
        #: also lands its duration in the ``span.<name>`` histogram,
        #: so ``repro stats`` gets p50/p90/p99 per instrumented site
        #: without a second clock read anywhere.
        self.span_histograms = span_histograms
        self._lock = threading.Lock()
        #: ``max_spans`` keeps only the newest spans (a long-running
        #: daemon); each one pushed out counts as
        #: ``trace.spans_dropped``.  ``None`` keeps every span.
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._local = threading.local()

    # -- recording ----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _Span:
        return _Span(self, name, attributes)

    def record(self, name: str, start_s: float, duration_s: float,
               **attributes: Any) -> None:
        """Append an already-measured interval (no context manager).

        Used where the start and end of a phase are observed in
        different stack frames, e.g. the scheduler's launch/collect
        pair around a worker process.
        """
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else None
        self._append(SpanRecord(
            name=name, start_s=start_s,
            duration_s=max(0.0, duration_s), pid=os.getpid(),
            tid=threading.get_ident(),
            depth=len(stack) if stack else 0, parent=parent,
            attributes=attributes))

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord, observe: bool = True) -> None:
        if observe:
            # Stamp the thread's correlation context (trace_id/job_id/
            # tenant) so filters like ``repro trace --job`` work.
            # setdefault: explicit span attributes win.  Merged worker
            # payloads arrive with observe=False and keep the fields
            # their own process stamped.
            for key, value in context_fields().items():
                record.attributes.setdefault(key, value)
        with self._lock:
            full = len(self._spans) == self._spans.maxlen
            self._spans.append(record)
        if full:
            self.counters.add("trace.spans_dropped")
        if observe and self.span_histograms:
            self.metrics.observe(f"span.{record.name}",
                                 record.duration_s,
                                 buckets=DURATION_BUCKETS)

    # -- reading ------------------------------------------------------

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    @property
    def duration_s(self) -> float:
        """Earliest span start to latest span end (0 when empty)."""
        spans = self.spans
        if not spans:
            return 0.0
        return (max(s.end_s for s in spans)
                - min(s.start_s for s in spans))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- cross-process shipping ---------------------------------------

    def to_payload(self) -> dict:
        """Picklable snapshot for shipping across a process pipe.

        Carries the spans plus the full metrics state (counters,
        gauges, histograms) so a worker's distributions merge into the
        parent sweep exactly.
        """
        payload = self.metrics.to_payload()
        payload["spans"] = [s.to_json_dict() for s in self.spans]
        return payload

    def merge_payload(self, payload: dict | None) -> None:
        """Fold a worker's :meth:`to_payload` snapshot into this trace."""
        if not payload:
            return
        self.metrics.merge_payload(
            {key: payload.get(key) for key in ("counters", "gauges",
                                               "histograms")})
        # observe=False: the worker already observed these spans into
        # its own span histograms, shipped in the metrics payload above.
        for span_dict in payload.get("spans", ()):
            self._append(SpanRecord.from_json_dict(span_dict),
                         observe=False)


# -- the active trace -------------------------------------------------

_ACTIVE: Trace | None = None


def activate(trace: Trace) -> Trace:
    """Install ``trace`` as the process-wide active trace."""
    global _ACTIVE
    _ACTIVE = trace
    return trace


def deactivate() -> Trace | None:
    """Remove the active trace; returns what was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def reset_tracing() -> None:
    """Drop any active trace -- e.g. one inherited across ``fork``."""
    global _ACTIVE
    _ACTIVE = None


def current_trace() -> Trace | None:
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def tracing(trace: Trace) -> Iterator[Trace]:
    """Activate ``trace`` for a ``with`` block, restoring the previous
    active trace (if any) on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = trace
    try:
        yield trace
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: Any) -> _Span | _NoopSpan:
    """A span on the active trace, or the shared no-op when disabled."""
    trace = _ACTIVE
    if trace is None:
        return _NOOP_SPAN
    return trace.span(name, **attributes)


def record_span(name: str, start_s: float, duration_s: float,
                **attributes: Any) -> None:
    """Record a pre-measured interval on the active trace (no-op when
    disabled)."""
    trace = _ACTIVE
    if trace is not None:
        trace.record(name, start_s, duration_s, **attributes)


def add_counter(name: str, value: float = 1) -> None:
    """Increment a counter on the active trace (no-op when disabled)."""
    trace = _ACTIVE
    if trace is not None:
        trace.counters.add(name, value)


def observe(name: str, value: float,
            buckets: Any = None, **labels: Any) -> None:
    """Record ``value`` into a histogram on the active trace's metrics
    registry (no-op when disabled)."""
    trace = _ACTIVE
    if trace is not None:
        trace.metrics.observe(name, value, buckets, **labels)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active trace's metrics registry (no-op when
    disabled)."""
    trace = _ACTIVE
    if trace is not None:
        trace.metrics.set_gauge(name, value)


def current_metrics() -> MetricsRegistry | None:
    """The active trace's metrics registry, or ``None`` when disabled."""
    trace = _ACTIVE
    return None if trace is None else trace.metrics
