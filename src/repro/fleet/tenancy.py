"""Per-tenant admission control: weighted fair queueing at the router.

Each shard already has its own ``max_inflight`` backpressure, but that
is tenant-blind: one hot tenant replaying a parameter sweep can fill
every shard queue and starve everybody else.  The router therefore
runs admission **per tenant** in front of routing:

* a global budget of ``max_inflight`` forwards runs concurrently;
* excess requests wait in a single priority queue ordered by
  **virtual finish time** (classic WFQ): tenant ``t``'s next request
  is tagged ``max(vclock, last_tag[t]) + cost / weight[t]``, so a
  tenant that keeps the queue full accumulates large tags while a
  light tenant's occasional request slots in near the current virtual
  clock — bounded delay regardless of how deep the hog's backlog is;
* per-tenant queue depth is capped (``max_queue_per_tenant``); beyond
  it the request is shed with :class:`ServiceBusyError`, so one tenant
  can fill only its own queue, never the router's memory.

Weights are optional (default 1.0 per tenant); a weight-2 tenant gets
twice the dispatch share of a weight-1 tenant while both are
backlogged, and an idle tenant's unused share redistributes
automatically (work-conserving).

Single-event-loop discipline: the scheduler mutates its state only
from the router's loop, so no locks — mirrors the server's cache.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import FleetError, ServiceBusyError
from ..obs.metrics import MetricsRegistry

__all__ = ["WeightedFairScheduler"]

DEFAULT_TENANT = "default"


class WeightedFairScheduler:
    """Work-conserving WFQ admission gate, one slot per forwarded solve.

    Admission outcomes count into ``registry`` (a private one when
    omitted) as ``cast_fleet_admission_total{outcome=...}``."""

    def __init__(
        self,
        max_inflight: int = 16,
        max_queue_per_tenant: int = 64,
        weights: Optional[Mapping[str, float]] = None,
        default_weight: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight < 1:
            raise FleetError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue_per_tenant < 0:
            raise FleetError(
                f"max_queue_per_tenant must be >= 0, got {max_queue_per_tenant}"
            )
        if default_weight <= 0:
            raise FleetError(f"default_weight must be > 0, got {default_weight}")
        self.max_inflight = int(max_inflight)
        self.max_queue_per_tenant = int(max_queue_per_tenant)
        self.default_weight = float(default_weight)
        self._weights: Dict[str, float] = {}
        for tenant, weight in dict(weights or {}).items():
            self.set_weight(tenant, weight)
        self._free = self.max_inflight
        # (finish_tag, seq, tenant, future) — seq breaks tag ties FIFO.
        self._heap: List[Tuple[float, int, str, "asyncio.Future[None]"]] = []
        self._seq = itertools.count()
        self._vclock = 0.0
        self._last_tag: Dict[str, float] = {}
        self._queued: Dict[str, int] = {}
        self._inflight: Dict[str, int] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._outcomes = registry.counter(
            "cast_fleet_admission_total", "WFQ admission outcomes",
            labelnames=("outcome",),
        )
        self._outcomes.inc(0, outcome="admitted")
        self._outcomes.inc(0, outcome="shed")
        registry.register_collector("fleet_tenancy", self._collect)

    # -- configuration -------------------------------------------------------

    def set_weight(self, tenant: str, weight: float) -> None:
        """Give ``tenant`` a dispatch share proportional to ``weight``."""
        weight = float(weight)
        if weight <= 0:
            raise FleetError(f"tenant weight must be > 0, got {weight}")
        self._weights[str(tenant)] = weight

    def weight(self, tenant: str) -> float:
        """The tenant's configured weight (``default_weight`` if unset)."""
        return self._weights.get(tenant, self.default_weight)

    # -- admission -----------------------------------------------------------

    async def acquire(self, tenant: str = DEFAULT_TENANT) -> None:
        """Wait for a forward slot, in weighted-fair order.

        Raises :class:`ServiceBusyError` immediately when the tenant's
        queue is already at capacity (never blocks on a full queue —
        shedding fast is the point of admission control).
        """
        tenant = str(tenant)
        if self._free > 0 and not self._heap:
            self._free -= 1
            self._start(tenant)
            return
        if self._queued.get(tenant, 0) >= self.max_queue_per_tenant:
            self._outcomes.inc(outcome="shed")
            raise ServiceBusyError(
                f"tenant {tenant!r} at queue capacity "
                f"({self.max_queue_per_tenant} waiting)"
            )
        tag = max(self._vclock, self._last_tag.get(tenant, 0.0)) + 1.0 / self.weight(
            tenant
        )
        self._last_tag[tenant] = tag
        future: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (tag, next(self._seq), tenant, future))
        self._queued[tenant] = self._queued.get(tenant, 0) + 1
        try:
            await future
        except asyncio.CancelledError:
            if future.cancelled() or not future.done():
                # Still queued: the dispatcher will skip the dead entry.
                future.cancel()
            else:
                # Dispatched, then the waiter was cancelled before it
                # could run: hand the slot straight to the next waiter.
                self.release(tenant)
            raise

    def _start(self, tenant: str) -> None:
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._outcomes.inc(outcome="admitted")

    def release(self, tenant: str = DEFAULT_TENANT) -> None:
        """Return a slot and dispatch the fairest waiter, if any."""
        tenant = str(tenant)
        count = self._inflight.get(tenant, 0)
        if count <= 1:
            self._inflight.pop(tenant, None)
        else:
            self._inflight[tenant] = count - 1
        self._free += 1
        self._dispatch()

    def _dispatch(self) -> None:
        while self._free > 0 and self._heap:
            tag, _, tenant, future = heapq.heappop(self._heap)
            self._queued[tenant] -= 1
            if self._queued[tenant] <= 0:
                self._queued.pop(tenant, None)
            if future.done():  # cancelled while waiting
                continue
            self._vclock = max(self._vclock, tag)
            self._free -= 1
            self._start(tenant)
            future.set_result(None)

    # -- introspection -------------------------------------------------------

    @property
    def queued_total(self) -> int:
        """Waiters currently queued across every tenant."""
        return sum(self._queued.values())

    @property
    def inflight_total(self) -> int:
        """Slots currently held."""
        return self.max_inflight - self._free

    def queue_depths(self) -> Dict[str, int]:
        """Waiting requests per tenant (live view for metrics/stats)."""
        return dict(self._queued)

    def inflight_by_tenant(self) -> Dict[str, int]:
        """Held slots per tenant."""
        return dict(self._inflight)

    def stats(self) -> Dict[str, Any]:
        """Counters for the router's ``stats`` payload."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue_per_tenant": self.max_queue_per_tenant,
            "inflight": self.inflight_total,
            "queued": self.queued_total,
            "admitted": int(self._outcomes.value(outcome="admitted")),
            "shed": int(self._outcomes.value(outcome="shed")),
            "weights": dict(self._weights),
            "queue_depths": self.queue_depths(),
        }

    def _collect(self, reg: MetricsRegistry) -> None:
        """Publish queue/inflight depths per tenant."""
        queued = reg.gauge(
            "cast_fleet_tenant_queued",
            "Requests waiting in the WFQ per tenant",
            labelnames=("tenant",),
        )
        inflight = reg.gauge(
            "cast_fleet_tenant_inflight",
            "Forward slots held per tenant",
            labelnames=("tenant",),
        )
        for tenant, depth in self.queue_depths().items():
            queued.set(depth, tenant=tenant)
        for tenant, count in self.inflight_by_tenant().items():
            inflight.set(count, tenant=tenant)
