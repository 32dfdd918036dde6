"""Flight recorder: recent-request ring buffer + postmortem bundles.

A :class:`FlightRecorder` sits in every serving surface's dispatch
loop and keeps two things, both bounded:

* a **ring buffer** of the last N request records — op, tenant, shard,
  latency, cache hit, outcome, ``trace_id`` — cheap enough to leave on
  in production (one deque append and a small heap update per
  request);
* per-op **slowest-K exemplars**, attached to the latency histogram
  series in the JSON metrics exposition so "p99 spiked" comes with
  trace ids to chase instead of a bare number.

:func:`build_bundle` assembles a single JSONL postmortem bundle —
metrics snapshot (with exemplars attached), recent flight records,
recent trace spans, the server's config, an environment stamp — and
:func:`dump_bundle`/:func:`load_bundle` round-trip it to disk.  The
server writes one automatically on every SLO ``page`` transition
(:mod:`repro.obs.slo`), and ``cast-plan debug-dump`` fetches one from
a live daemon on demand.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, field
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..errors import ObservabilityError
from .metrics import MetricsRegistry
from .slo import LATENCY_METRIC
from .tracing import trace_collector

__all__ = [
    "FlightRecord",
    "FlightRecorder",
    "build_bundle",
    "dump_bundle",
    "load_bundle",
    "env_stamp",
]

#: Bundle schema version, stamped into the meta line.
BUNDLE_SCHEMA = 1

#: Spans included in a bundle (newest first in the collector ring).
BUNDLE_SPAN_LIMIT = 256


@dataclass(frozen=True)
class FlightRecord:
    """One served request, as remembered by the recorder."""

    op: str
    latency_s: float
    ok: bool = True
    cached: bool = False
    tenant: Optional[str] = None
    shard: Optional[str] = None
    error: Optional[str] = None
    trace_id: Optional[str] = None
    t: float = 0.0
    seq: int = field(default=0, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "latency_s": self.latency_s,
            "ok": self.ok,
            "cached": self.cached,
            "tenant": self.tenant,
            "shard": self.shard,
            "error": self.error,
            "trace_id": self.trace_id,
            "t": self.t,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightRecord":
        return cls(
            op=str(data["op"]),
            latency_s=float(data["latency_s"]),
            ok=bool(data.get("ok", True)),
            cached=bool(data.get("cached", False)),
            tenant=data.get("tenant"),
            shard=data.get("shard"),
            error=data.get("error"),
            trace_id=data.get("trace_id"),
            t=float(data.get("t", 0.0)),
            seq=int(data.get("seq", 0)),
        )


class FlightRecorder:
    """Bounded ring of recent requests with slowest-K exemplars.

    Thread-safe: the asyncio dispatch loop records from the event
    loop thread while exposition/bundling may read from worker
    threads; one lock covers both structures.  Records count into
    ``registry`` (a private one when omitted).
    """

    def __init__(
        self,
        capacity: int = 512,
        exemplars: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        if exemplars < 1:
            raise ObservabilityError(f"exemplars must be >= 1, got {exemplars}")
        self.capacity = int(capacity)
        self.exemplar_k = int(exemplars)
        self._lock = threading.Lock()
        self._ring: Deque[FlightRecord] = deque(maxlen=self.capacity)
        # Per-op min-heaps of (latency, seq, record): the root is the
        # *fastest* of the slowest-K, so replacement is O(log K).
        self._slowest: Dict[str, List[Tuple[float, int, FlightRecord]]] = {}
        self._seq = itertools.count(1)
        registry = registry if registry is not None else MetricsRegistry()
        self._records_total = registry.counter(
            "cast_flightrec_records_total",
            "Requests recorded by the flight recorder",
        )
        self._records_total.inc(0)
        registry.register_collector("flightrec", self._collect)

    def record(
        self,
        *,
        op: str,
        latency_s: float,
        ok: bool = True,
        cached: bool = False,
        tenant: Optional[str] = None,
        shard: Optional[str] = None,
        error: Optional[str] = None,
        trace_id: Optional[str] = None,
        t: Optional[float] = None,
    ) -> FlightRecord:
        """Append one request record (the dispatch-loop hot path)."""
        self._records_total.inc()
        with self._lock:
            rec = FlightRecord(
                op=op,
                latency_s=float(latency_s),
                ok=bool(ok),
                cached=bool(cached),
                tenant=tenant,
                shard=shard,
                error=error,
                trace_id=trace_id,
                t=time.time() if t is None else float(t),
                seq=next(self._seq),
            )
            self._ring.append(rec)
            heap = self._slowest.setdefault(op, [])
            item = (rec.latency_s, rec.seq, rec)
            if len(heap) < self.exemplar_k:
                heapq.heappush(heap, item)
            elif rec.latency_s > heap[0][0]:
                heapq.heapreplace(heap, item)
            return rec

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def records(
        self, n: Optional[int] = None, op: Optional[str] = None
    ) -> List[FlightRecord]:
        """The most recent records, oldest first (filtered by ``op``)."""
        with self._lock:
            recs: List[FlightRecord] = list(self._ring)
        if op is not None:
            recs = [r for r in recs if r.op == op]
        if n is not None:
            recs = recs[-n:]
        return recs

    def slowest(
        self, k: Optional[int] = None, op: Optional[str] = None
    ) -> List[FlightRecord]:
        """Slowest requests, slowest first (one op or across all)."""
        with self._lock:
            if op is not None:
                items = list(self._slowest.get(op, ()))
            else:
                items = [x for heap in self._slowest.values() for x in heap]
        items.sort(key=lambda x: (-x[0], x[1]))
        if k is not None:
            items = items[:k]
        return [rec for _, _, rec in items]

    def exemplars(self) -> Dict[str, List[Dict[str, Any]]]:
        """Per-op slowest-K exemplar dicts, slowest first."""
        with self._lock:
            ops = list(self._slowest)
        return {op: [r.to_dict() for r in self.slowest(op=op)] for op in ops}

    def attach_exemplars(
        self,
        metrics_json: Dict[str, Any],
        metric: str = LATENCY_METRIC,
    ) -> Dict[str, Any]:
        """Stamp slowest-K exemplars onto each latency histogram series.

        Mutates (and returns) ``metrics_json`` — the ``metrics`` op's
        JSON payload — adding an ``exemplars`` list next to each
        series' quantiles, keyed by the series' ``op`` label.
        """
        entry = metrics_json.get(metric)
        if not entry:
            return metrics_json
        by_op = self.exemplars()
        for sample in entry.get("values", ()):
            op = sample.get("labels", {}).get("op")
            if op in by_op:
                sample["exemplars"] = [
                    {
                        "trace_id": ex["trace_id"],
                        "latency_s": ex["latency_s"],
                        "tenant": ex["tenant"],
                        "t": ex["t"],
                    }
                    for ex in by_op[op]
                ]
        return metrics_json

    def _collect(self, reg: MetricsRegistry) -> None:
        size = reg.gauge(
            "cast_flightrec_ring", "Flight-recorder ring state",
            labelnames=("stat",),
        )
        size.set(len(self), stat="size")
        size.set(self.capacity, stat="capacity")

    def stats(self) -> Dict[str, int]:
        """Counters for the ``stats`` payload (``recorded`` keeps counting
        once the ring wraps)."""
        return {
            "recorded": int(self._records_total.value()),
            "size": len(self),
            "capacity": self.capacity,
            "exemplar_k": self.exemplar_k,
        }


# ---------------------------------------------------------------------------
# Postmortem bundles
# ---------------------------------------------------------------------------


def env_stamp() -> Dict[str, Any]:
    """Where/when this bundle was produced (mirrors the BENCH stamps)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "created_unix": time.time(),
    }


def build_bundle(
    *,
    registry: Optional[MetricsRegistry] = None,
    recorder: Optional[FlightRecorder] = None,
    slo_report: Optional[Mapping[str, Any]] = None,
    config: Optional[Mapping[str, Any]] = None,
    reason: str = "request",
    span_limit: int = BUNDLE_SPAN_LIMIT,
) -> Dict[str, Any]:
    """Assemble one JSON-able postmortem bundle.

    Sections: ``meta`` (schema, reason, env stamp), ``config`` (caller
    supplied — server limits, SLO spec), ``metrics`` (JSON exposition
    with exemplars attached), ``slo`` (last report), ``exemplars``
    (per-op slowest-K), ``records`` (the flight ring), ``spans`` (the
    newest trace spans).
    """
    metrics = registry.to_json() if registry is not None else {}
    if recorder is not None:
        recorder.attach_exemplars(metrics)
    spans = [r.to_dict() for r in trace_collector().records()[-span_limit:]]
    return {
        "meta": {
            "schema": BUNDLE_SCHEMA,
            "reason": reason,
            "env": env_stamp(),
        },
        "config": dict(config or {}),
        "metrics": metrics,
        "slo": dict(slo_report) if slo_report is not None else None,
        "exemplars": recorder.exemplars() if recorder is not None else {},
        "records": [r.to_dict() for r in recorder.records()]
        if recorder is not None else [],
        "spans": spans,
    }


def dump_bundle(path: str, bundle: Mapping[str, Any]) -> str:
    """Write one bundle as a single JSONL file; returns ``path``.

    One line per section, plus one line per flight record and span —
    the file greps and streams like any other JSONL artifact, and a
    truncated dump still parses line by line.
    """
    def line(section: str, data: Any) -> str:
        return json.dumps({"section": section, "data": data},
                          sort_keys=True, separators=(",", ":"))

    parts = [
        line("meta", bundle.get("meta", {})),
        line("config", bundle.get("config", {})),
        line("metrics", bundle.get("metrics", {})),
        line("slo", bundle.get("slo")),
        line("exemplars", bundle.get("exemplars", {})),
    ]
    parts.extend(line("record", rec) for rec in bundle.get("records", ()))
    parts.extend(line("span", sp) for sp in bundle.get("spans", ()))
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    """Parse a :func:`dump_bundle` file back into its bundle dict."""
    bundle: Dict[str, Any] = {
        "meta": {},
        "config": {},
        "metrics": {},
        "slo": None,
        "exemplars": {},
        "records": [],
        "spans": [],
    }
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: bad bundle line: {exc}"
                ) from None
            section = obj.get("section")
            data = obj.get("data")
            if section == "record":
                bundle["records"].append(data)
            elif section == "span":
                bundle["spans"].append(data)
            elif section in bundle:
                bundle[section] = data
            else:
                raise ObservabilityError(
                    f"{path}:{lineno}: unknown bundle section {section!r}"
                )
    schema = bundle["meta"].get("schema") if bundle["meta"] else None
    if schema != BUNDLE_SCHEMA:
        raise ObservabilityError(
            f"{path}: unsupported bundle schema {schema!r} "
            f"(supported: {BUNDLE_SCHEMA})"
        )
    return bundle
