"""Bounded LRU plan cache.

Solved plans are pure functions of their request fingerprint (the
solver is deterministic per seed), so caching them is semantically
free: a hit returns byte-identical results to a re-solve.  The cache
is a plain ``OrderedDict`` LRU — the server is single-threaded
asyncio, so no locking — counting hits, misses and evictions as
``cast_plan_cache_events_total{event=...}`` in its metrics registry;
the ``stats`` op reads them back.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

from ..errors import ServiceError
from ..obs.metrics import MetricsRegistry

__all__ = ["PlanCache"]


class PlanCache:
    """Least-recently-used mapping of fingerprint → solved result dict,
    counting into ``registry`` (a private one when omitted)."""

    def __init__(
        self, capacity: int = 128, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        registry = registry if registry is not None else MetricsRegistry()
        self._events = registry.counter(
            "cast_plan_cache_events_total",
            "Plan-cache lookups by outcome",
            labelnames=("event",),
        )
        for event in ("hit", "miss", "eviction"):
            self._events.inc(0, event=event)
        registry.register_collector("plan_cache", self._collect)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result, refreshed to most-recently-used; ``None`` on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._events.inc(event="miss")
            return None
        self._entries.move_to_end(key)
        self._events.inc(event="hit")
        return entry

    def put(self, key: str, value: Dict[str, Any]) -> None:
        """Insert (or refresh) an entry, evicting the LRU when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._events.inc(event="eviction")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for the ``stats`` op and the benchmarks."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": int(self._events.value(event="hit")),
            "misses": int(self._events.value(event="miss")),
            "evictions": int(self._events.value(event="eviction")),
        }

    def _collect(self, reg: MetricsRegistry) -> None:
        reg.gauge("cast_plan_cache_size", "Entries in the plan cache").set(
            len(self._entries)
        )
        reg.gauge("cast_plan_cache_capacity", "Plan cache capacity").set(self.capacity)
