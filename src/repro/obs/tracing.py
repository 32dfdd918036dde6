"""Contextvar-propagated tracing with JSONL export.

One request = one *trace*; every instrumented stage inside it (service
dispatch, cache lookup, pool restart, solver run, evaluator seeding,
job simulation) is a *span* — a named interval with a parent.  Span
context rides a :class:`contextvars.ContextVar`, so nesting works
automatically across ``await`` points and two interleaved asyncio
requests can never contaminate each other's trace.

Span *context* (trace id + span id) is always maintained — it is a few
object allocations per span, and spans only exist at request/solve/job
granularity, never per solver iteration.  Span *recording* into the
in-memory ring collector can be switched off (``REPRO_OBS_TRACE=0``)
for zero bookkeeping beyond the context itself.

Crossing a process boundary is explicit: the parent captures
:func:`current_context` into the task payload, the worker runs the
task under :func:`use_context` (or opens its root span with
``span(..., context=ctx)``), and the worker's finished
spans travel back in the result (see :func:`capture_spans`) to be
:func:`ingested <ingest>` into the parent collector — ids are globally
unique, so adoption is append-only.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "SpanRecord",
    "TraceCollector",
    "span",
    "capture_spans",
    "current_context",
    "use_context",
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
    "trace_collector",
    "recording_enabled",
    "set_recording",
    "ingest",
    "add_jsonl_sink",
    "remove_jsonl_sink",
]

#: Environment switch: ``REPRO_OBS_TRACE=0`` disables span recording
#: (context propagation still works — responses keep their trace ids).
TRACE_ENV = "REPRO_OBS_TRACE"

#: Finished spans the in-memory collector retains (ring buffer).
DEFAULT_CAPACITY = 8192


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class SpanRecord:
    """One finished span."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_s: float  # wall-clock epoch seconds
    duration_s: float
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready form."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict` (cross-process adoption)."""
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            name=str(data["name"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            status=str(data.get("status", "ok")),
            attrs=dict(data.get("attrs", {})),
        )


class TraceCollector:
    """Bounded ring of finished spans plus streaming sinks."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: Deque[SpanRecord] = deque(maxlen=self.capacity)
        self._sinks: Dict[str, Callable[[SpanRecord], None]] = {}
        self.dropped = 0

    def add(self, record: SpanRecord) -> None:
        """Record one finished span and fan it out to the sinks."""
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(record)
            sinks = list(self._sinks.values())
        for sink in sinks:
            try:
                sink(record)
            except Exception:  # pragma: no cover - defensive
                import logging

                logging.getLogger(__name__).exception("trace sink failed")

    def records(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        """Retained spans, optionally filtered to one trace."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def clear(self) -> None:
        """Drop retained spans (sinks stay registered)."""
        with self._lock:
            self._spans.clear()

    def export_jsonl(self, trace_id: Optional[str] = None) -> str:
        """Retained spans as JSON lines (one span per line)."""
        return "".join(
            json.dumps(s.to_dict(), sort_keys=True) + "\n"
            for s in self.records(trace_id)
        )

    def dump_jsonl(self, path: str, trace_id: Optional[str] = None) -> int:
        """Write :meth:`export_jsonl` to ``path``; returns span count."""
        records = self.records(trace_id)
        with open(path, "w") as fh:
            for s in records:
                fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")
        return len(records)

    def add_sink(self, key: str, fn: Callable[[SpanRecord], None]) -> None:
        """(Re-)register a per-span callback under ``key``."""
        with self._lock:
            self._sinks[key] = fn

    def remove_sink(self, key: str) -> None:
        """Remove the ``key`` sink (no-op when absent)."""
        with self._lock:
            self._sinks.pop(key, None)


_COLLECTOR = TraceCollector()

_RECORDING = os.environ.get(TRACE_ENV, "").strip().lower() not in ("0", "false")

#: (trace_id, span_id) of the innermost open span in this context.
_CURRENT: "ContextVar[Optional[Dict[str, str]]]" = ContextVar(
    "repro_obs_span", default=None
)

#: Divert target installed by :func:`capture_spans` (worker processes).
_CAPTURE: "ContextVar[Optional[List[SpanRecord]]]" = ContextVar(
    "repro_obs_capture", default=None
)


def trace_collector() -> TraceCollector:
    """The process-wide span collector."""
    return _COLLECTOR


def recording_enabled() -> bool:
    """Whether finished spans are being recorded."""
    return _RECORDING


def set_recording(enabled: bool) -> None:
    """Turn span recording on/off (context propagation is unaffected)."""
    global _RECORDING
    _RECORDING = bool(enabled)


def current_trace_id() -> Optional[str]:
    """Trace id of the innermost open span (None outside any span)."""
    ctx = _CURRENT.get()
    return ctx["trace_id"] if ctx else None


def current_span_id() -> Optional[str]:
    """Span id of the innermost open span (None outside any span)."""
    ctx = _CURRENT.get()
    return ctx["span_id"] if ctx else None


def current_context() -> Optional[Dict[str, str]]:
    """The JSON-able context to hand a worker across a process boundary."""
    ctx = _CURRENT.get()
    return dict(ctx) if ctx else None


@contextmanager
def use_context(context: Optional[Mapping[str, str]]) -> Iterator[None]:
    """Run the block under ``context`` (a :func:`current_context` dict
    from another thread or process): spans opened inside nest under
    that remote parent.  ``None`` runs the block outside any span."""
    token = _CURRENT.set(dict(context) if context else None)
    try:
        yield
    finally:
        _CURRENT.reset(token)


class _OpenSpan:
    """Handle yielded by :func:`span` — mutate ``attrs``, read ids."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, attrs: Dict[str, Any]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs


@contextmanager
def span(
    name: str,
    attrs: Optional[Mapping[str, Any]] = None,
    context: Optional[Mapping[str, str]] = None,
) -> Iterator[_OpenSpan]:
    """Open a span named ``name`` for the duration of the block.

    Nesting derives from the ambient contextvar; pass ``context`` (a
    :func:`current_context` dict captured in another process) to
    graft this span under a remote parent instead.  Exceptions mark
    the span ``status="error"`` and propagate.
    """
    parent = dict(context) if context is not None else _CURRENT.get()
    trace_id = parent["trace_id"] if parent else new_trace_id()
    parent_id = parent["span_id"] if parent else None
    open_span = _OpenSpan(trace_id, _new_span_id(), parent_id, name,
                          dict(attrs or {}))
    token = _CURRENT.set({"trace_id": trace_id, "span_id": open_span.span_id})
    start_wall = time.time()
    start = time.perf_counter()
    status = "ok"
    try:
        yield open_span
    except BaseException as exc:
        status = "error"
        open_span.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _CURRENT.reset(token)
        if _RECORDING:
            record = SpanRecord(
                trace_id=trace_id,
                span_id=open_span.span_id,
                parent_id=parent_id,
                name=name,
                start_s=start_wall,
                duration_s=time.perf_counter() - start,
                status=status,
                attrs=open_span.attrs,
            )
            sink = _CAPTURE.get()
            if sink is not None:
                sink.append(record)
            else:
                _COLLECTOR.add(record)


@contextmanager
def capture_spans() -> Iterator[List[SpanRecord]]:
    """Divert spans finished in this context into the yielded list.

    Worker processes wrap their task body with this so finished spans
    ship home in the result payload instead of rotting in a collector
    nobody will ever read.
    """
    captured: List[SpanRecord] = []
    token = _CAPTURE.set(captured)
    try:
        yield captured
    finally:
        _CAPTURE.reset(token)


def ingest(spans: Any) -> int:
    """Adopt spans recorded elsewhere (dicts or records); returns count.

    The cross-process return path: a pool worker's captured spans come
    home as plain dicts inside the result payload and are appended to
    this process's collector.
    """
    count = 0
    for item in spans or ():
        record = item if isinstance(item, SpanRecord) else SpanRecord.from_dict(item)
        _COLLECTOR.add(record)
        count += 1
    return count


def add_jsonl_sink(path: str, key: str = "jsonl") -> None:
    """Stream every finished span to ``path`` as JSON lines (append)."""
    fh = open(path, "a", buffering=1)

    def sink(record: SpanRecord) -> None:
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    _COLLECTOR.add_sink(key, sink)


def remove_jsonl_sink(key: str = "jsonl") -> None:
    """Detach a sink installed by :func:`add_jsonl_sink`."""
    _COLLECTOR.remove_sink(key)
