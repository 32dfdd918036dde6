"""The fleet orchestrator: a consistent-hashing router over planner shards.

Topology::

    clients ──▶ FleetRouter ──▶ shard planner-1 (PlannerServer)
                   │       └──▶ shard planner-2
                   │       └──▶ shard planner-N
                   └── health checks, failover, fleet metrics roll-up

The router speaks the same JSON-lines protocol as a single
:class:`~repro.service.server.PlannerServer`, so every existing client
(``cast-plan submit``, :class:`~repro.service.client.PlannerClient`)
works against a fleet unchanged.  Per solve request it:

1. normalizes the params and computes the canonical request
   fingerprint (:func:`repro.service.fingerprint.request_fingerprint`)
   — routing never perturbs the solve inputs, so fleet results are
   bit-identical to a single server's;
2. answers from the **router L1 plan cache** if any shard ever solved
   this fingerprint through us — a hit on any shard serves the fleet;
3. joins the **router-level single-flight**: identical requests
   arriving on any connection while one is being forwarded collapse to
   one shard solve, fleet-wide;
4. waits for a forward slot under **per-tenant weighted fair
   queueing** (:class:`~repro.fleet.tenancy.WeightedFairScheduler`) —
   a saturating tenant queues behind itself, not in front of others;
5. routes the fingerprint on the **consistent hash ring** of healthy
   shards and forwards over a pooled connection.  A connection-level
   failure marks the shard down, rebalances the ring, and fails over
   to the next ring successor — the retried solve is byte-identical
   (deterministic + fingerprint-cached), so mid-solve shard death
   costs one extra solve, never a wrong answer.

Shard membership is dynamic: the ``register``/``deregister`` ops (used
by :class:`~repro.fleet.supervisor.FleetSupervisor`) add and remove
shards at runtime, and a background health checker pings every
registered shard, taking it out of the ring after
``health_failures`` consecutive misses and restoring it on recovery.

Streaming sessions (``session_open``/``session_delta``/``session_close``)
are *stateful*, so they bypass the L1 cache, single-flight and fair
queueing and instead pin to a shard by hashing ``session:<id>`` on the
same ring.  The router keeps a per-session event log (the open params
plus every delta); when the pinned shard dies — or ring churn moves the
session's key — the log replays against the new owner before the
current request forwards, rebuilding the session's state there.
Replayed re-plans are deterministic, so the rebuilt incumbent is the
plan the dead shard held.

Observability: the ``metrics`` op gains a ``scope`` param.
``scope="router"`` exposes the router's own registry;
``scope="fleet"`` (the default here) scrapes every healthy shard's
registry and merges them — stamped with a ``shard`` label — into one
exposition, so fleet-wide totals are one scrape and per-shard
breakdowns are one label away.

The connection loop, dispatch, steps 2–3 and the operational layer
(flight recorder, SLO engine, page → dump, ``profile``/``debug_dump``)
are the daemon's own, shared through
:class:`~repro.service.base.OpServer`; the router's ``slo`` op also
rolls every shard's report up (worst shard state wins, per op).
"""

from __future__ import annotations

import asyncio
import logging
import time
import uuid
from typing import Any, Awaitable, Callable, Dict, List, Mapping, Optional, Set

from ..errors import (
    CastError,
    FleetError,
    NoHealthyShardsError,
    ProtocolError,
    ServiceTimeoutError,
)
from ..obs.metrics import MetricsRegistry
from ..obs.slo import rollup_reports
from ..obs.tracing import span
from ..service.base import OpServer, metrics_format
from ..service.client import PlannerClient, ping
from ..service.pool import DEFAULT_RESTARTS
from ..service.protocol import exception_from_payload
from ..service.sessions import normalize_delta_params, normalize_open_params
from .hashring import ConsistentHashRing
from .tenancy import WeightedFairScheduler

__all__ = ["FleetRouter", "ShardInfo"]

logger = logging.getLogger(__name__)


class ShardInfo:
    """One registered shard: address plus live health state."""

    __slots__ = (
        "shard_id", "host", "port", "healthy", "consecutive_failures",
        "registered_at",
    )

    def __init__(self, shard_id: str, host: str, port: int) -> None:
        self.shard_id = str(shard_id)
        self.host = str(host)
        self.port = int(port)
        self.healthy = True
        self.consecutive_failures = 0
        self.registered_at = time.monotonic()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
        }


class _ShardLink:
    """A small pool of persistent connections to one shard.

    The protocol is strict request/response per connection, so a
    connection serves one forward at a time; concurrent forwards to the
    same shard each take (or open) their own connection and return it
    to the free list afterwards.  Any transport error closes the
    connection — a socket that failed mid-exchange carries unknowable
    framing state.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._free: List[PlannerClient] = []
        self._busy: Set[PlannerClient] = set()

    async def request(
        self, op: str, params: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """One round-trip, pooled: the response envelope."""
        client = self._free.pop() if self._free else PlannerClient(self.host, self.port)
        self._busy.add(client)
        try:
            response = await asyncio.wait_for(
                client.exchange(op, params), timeout=timeout
            )
        except BaseException:
            client.abort()
            raise
        finally:
            self._busy.discard(client)
        self._free.append(client)
        return response

    def close(self) -> None:
        """Abort every connection, in-flight forwards included.

        Closing a busy connection feeds EOF to its pending read, so a
        forward stuck on a shard that died without ever sending a FIN
        (SIGKILL with the socket fd leaked into a forked solver worker,
        a vanished VM, a dropped network) fails over as soon as the
        health checker marks the shard down, instead of hanging until
        ``forward_timeout_s``.
        """
        for client in self._free + list(self._busy):
            client.abort()
        self._free.clear()
        self._busy.clear()


class FleetRouter(OpServer):
    """Orchestrator/router tier in front of N planner shards.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    cache_size:
        Router L1 plan-cache capacity (fingerprint → result).
    max_inflight / max_queue_per_tenant / tenant_weights:
        The :class:`WeightedFairScheduler` admission knobs.
    default_restarts:
        Restart count pinned onto forwarded solves that don't specify
        one — must match the shards' configured default so the
        router-side fingerprint equals the shard-side one.
    health_interval_s / health_timeout_s / health_failures:
        Background ping cadence, per-ping deadline, and how many
        consecutive misses take a shard out of the ring.
    forward_timeout_s:
        Deadline for one forwarded request (should exceed the shards'
        own ``request_timeout_s`` so shard timeouts surface typed).
    serving:
        :class:`~repro.service.base.OpServer`'s keywords (``registry``,
        the SLO and flight-recorder knobs, ``dump_dir``).
    """

    ROLE = "fleet-router"
    METRIC_PREFIX = "cast_fleet"
    METRIC_HELP = {
        "requests": "Request lines received by the router",
        "events": "Router lifecycle events by kind",
        "ops": "Router requests by op",
        "tenant_requests": "Solve requests through the router by tenant",
        "solve_seconds": "End-to-end router wall time of non-L1-cached solves",
    }
    REQUEST_SPAN = "fleet.request"
    INTERNAL_ERROR = FleetError
    INTERNAL_ERROR_EVENT = "internal_errors"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = 256,
        max_inflight: int = 16,
        max_queue_per_tenant: int = 64,
        tenant_weights: Optional[Mapping[str, float]] = None,
        default_restarts: int = DEFAULT_RESTARTS,
        vnodes: int = 64,
        health_interval_s: float = 1.0,
        health_timeout_s: float = 2.0,
        health_failures: int = 2,
        forward_timeout_s: float = 660.0,
        **serving: Any,
    ) -> None:
        super().__init__(host, port, cache_size=cache_size, **serving)
        self.scheduler = WeightedFairScheduler(
            max_inflight=max_inflight,
            max_queue_per_tenant=max_queue_per_tenant,
            weights=tenant_weights,
            registry=self.metrics,
        )
        self.default_restarts = int(default_restarts)
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.health_interval_s = float(health_interval_s)
        self.health_timeout_s = float(health_timeout_s)
        self.health_failures = int(health_failures)
        self.forward_timeout_s = float(forward_timeout_s)
        self._shards: Dict[str, ShardInfo] = {}
        self._links: Dict[str, _ShardLink] = {}
        # Streaming-session state: per-session replay log
        # ({"open": params, "deltas": [params...], "home": shard_id})
        # and a lock serializing ops per session.
        self._session_logs: Dict[str, Dict[str, Any]] = {}
        self._session_locks: Dict[str, asyncio.Lock] = {}

        self._routed = self.metrics.counter(
            "cast_fleet_routed_total",
            "Solves forwarded per shard",
            labelnames=("shard",),
        )
        self.metrics.register_collector("fleet_shards", self._mirror_shards)

    def _mirror_shards(self, reg: MetricsRegistry) -> None:
        states = reg.gauge(
            "cast_fleet_shards", "Registered shards by health state",
            labelnames=("state",),
        )
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        states.set(healthy, state="healthy")
        states.set(len(self._shards) - healthy, state="down")

    # -- membership ----------------------------------------------------------

    def add_shard(self, shard_id: str, host: str, port: int) -> ShardInfo:
        """Register (or re-register) a shard and put it in the ring.

        Re-registering an existing id updates the address and restores
        it to the ring — the supervisor's restart path.
        """
        shard_id = str(shard_id)
        existing = self._shards.get(shard_id)
        if existing is not None and (existing.host, existing.port) != (host, int(port)):
            # Address changed: drop the stale connection pool.
            link = self._links.pop(shard_id, None)
            if link is not None:
                link.close()
        info = ShardInfo(shard_id, host, port)
        self._shards[shard_id] = info
        self.ring.add(shard_id)
        self._events.inc(event="shard_registered")
        logger.info("shard %s registered at %s:%d", shard_id, info.host, info.port)
        return info

    def remove_shard(self, shard_id: str) -> bool:
        """Deregister a shard entirely (ring, registry, connections)."""
        shard_id = str(shard_id)
        info = self._shards.pop(shard_id, None)
        self.ring.remove(shard_id)
        link = self._links.pop(shard_id, None)
        if link is not None:
            link.close()
        if info is not None:
            self._events.inc(event="shard_deregistered")
            logger.info("shard %s deregistered", shard_id)
        return info is not None

    def _mark_down(self, shard_id: str, reason: str) -> None:
        info = self._shards.get(shard_id)
        if info is None or not info.healthy:
            return
        info.healthy = False
        self.ring.remove(shard_id)
        link = self._links.pop(shard_id, None)
        if link is not None:
            link.close()
        self._events.inc(event="shard_down")
        logger.warning(
            "shard %s marked down (%s); ring now %s",
            shard_id, reason, self.ring.shards(),
        )

    def _mark_up(self, shard_id: str) -> None:
        info = self._shards.get(shard_id)
        if info is None:
            return
        info.consecutive_failures = 0
        if info.healthy:
            return
        info.healthy = True
        self.ring.add(shard_id)
        self._events.inc(event="shard_up")
        logger.info("shard %s back up; ring now %s", shard_id, self.ring.shards())

    def _link(self, shard_id: str) -> _ShardLink:
        link = self._links.get(shard_id)
        if link is None:
            info = self._shards[shard_id]
            link = self._links[shard_id] = _ShardLink(info.host, info.port)
        return link

    @property
    def healthy_shards(self) -> List[str]:
        """Ids of shards currently in the ring."""
        return self.ring.shards()

    # -- health checking -----------------------------------------------------

    async def _probe(self, info: ShardInfo) -> bool:
        """One ping round-trip on a throwaway connection."""
        try:
            await asyncio.wait_for(
                ping(info.host, info.port), timeout=self.health_timeout_s
            )
        except (OSError, asyncio.TimeoutError, CastError):
            return False
        return True

    async def check_health(self) -> None:
        """Probe every registered shard once, updating ring membership."""
        for info in list(self._shards.values()):
            alive = await self._probe(info)
            if alive:
                self._mark_up(info.shard_id)
            else:
                info.consecutive_failures += 1
                if info.healthy and info.consecutive_failures >= self.health_failures:
                    self._mark_down(
                        info.shard_id,
                        f"{info.consecutive_failures} failed health checks",
                    )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting connections, start the health loop."""
        await super().start()
        self._every(self.health_interval_s, self.check_health, "health sweep")

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain forwards, drop links."""
        await super().stop()
        for link in self._links.values():
            link.close()
        self._links.clear()

    # -- router ops ----------------------------------------------------------

    async def _op_register(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        shard_id = params.get("shard_id")
        host = params.get("host")
        port = params.get("port")
        if not shard_id or not host or port is None:
            raise ProtocolError(
                "register params need shard_id, host and port"
            )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ProtocolError(f"register port must be an int, got {port!r}") from None
        info = self.add_shard(str(shard_id), str(host), port)
        return {"shard": info.to_dict(), "ring": self.ring.shards()}

    async def _op_deregister(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        shard_id = str(params.get("shard_id", ""))
        return {"shard_id": shard_id, "removed": self.remove_shard(shard_id)}

    async def _scrape(self, op: str, params: Mapping[str, Any]) -> Dict[str, Any]:
        """``op`` on every healthy shard: shard id → result.

        A shard failing its scrape is skipped (and counted) — a dying
        shard must not take the fleet scrape down with it.
        """
        results: Dict[str, Any] = {}

        async def scrape(shard_id: str) -> None:
            try:
                response = await self._link(shard_id).request(
                    op, params, timeout=self.health_timeout_s
                )
            except (OSError, asyncio.TimeoutError, ProtocolError):
                self._events.inc(event="scrape_failed")
                return
            if response.get("ok"):
                results[shard_id] = response["result"]

        await asyncio.gather(*(scrape(s) for s in self.healthy_shards))
        return results

    async def _op_metrics(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """``metrics`` with a ``scope``: ``router`` (own registry) or
        ``fleet`` (the default): every healthy shard's registry merged
        with a ``shard=<id>`` label (the router's own series as
        ``shard="router"``), so the sum over the label is the fleet-wide
        total."""
        fmt = metrics_format(params)
        scope = str(params.get("scope", "fleet")).lower()
        if scope == "router":
            registry = self.metrics
        elif scope == "fleet":
            registry = MetricsRegistry()
            registry.merge(self.metrics.snapshot(), extra_labels={"shard": "router"})
            scraped = await self._scrape("metrics", {"format": "json"})
            for shard_id, result in scraped.items():
                registry.merge(result["metrics"], extra_labels={"shard": shard_id})
        else:
            raise ProtocolError(
                f"unknown metrics scope {scope!r} (expected 'fleet' or 'router')"
            )
        # Fleet-scope series carry shard labels the router's exemplars
        # don't know about; only the router's own series get them.
        return dict(
            self._exposition(registry, fmt, exemplars=scope == "router"),
            scope=scope,
        )

    async def _op_slo(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The fleet ``slo`` op: worst-shard roll-up.

        Evaluates the router's own engine (over its wire-level
        counters) and scrapes every healthy shard's ``slo`` op, then
        combines the reports pessimistically — per op, the fleet state
        is the **worst shard state**.  ``scope="router"`` skips the
        scrape and answers with the router's own report only.
        """
        scope = str(params.get("scope", "fleet")).lower()
        own = self.slo.evaluate(registry=self.metrics)
        if scope == "router":
            return dict(own, scope="router")
        if scope != "fleet":
            raise ProtocolError(
                f"unknown slo scope {scope!r} (expected 'fleet' or 'router')"
            )
        rollup = rollup_reports({"router": own, **await self._scrape("slo", {})})
        rollup["policy"] = self.slo.policy.to_dict()
        return rollup

    # -- cached ops: fair queue → ring forward -------------------------------

    async def _run_leader(
        self, op: str, normalized: Dict[str, Any], fingerprint: str
    ) -> Dict[str, Any]:
        """Wait for a forward slot under the tenant's fair share, then
        forward to the fingerprint's ring owner.

        A sweep is deliberately NOT split across shards: its
        amortization (shared catalog tensors, warm-start donors) lives
        inside one engine, so one shard runs the whole grid.
        """
        tenant = normalized["tenant"]
        params = {k: v for k, v in normalized.items() if k != "op"}
        await self.scheduler.acquire(tenant)
        try:
            started = time.monotonic()
            result = await self._forward(op, params, fingerprint)
            self._solve_seconds.observe(time.monotonic() - started)
        finally:
            self.scheduler.release(tenant)
        self._events.inc(event="solves_ok")
        return result

    async def _forward(
        self,
        op: str,
        params: Mapping[str, Any],
        key: str,
        prepare: Optional[Callable[[str], Awaitable[None]]] = None,
    ) -> Dict[str, Any]:
        """Forward to ``ring.route(key)``, walking successors on shard death.

        ``prepare(shard_id)`` runs first on the chosen shard, inside
        the same failover handling.  Only *transport* failures fail
        over — a typed error response (bad workload, shard busy, solve
        timeout) is an answer about this request, deterministic on any
        shard, and propagates as-is.
        """
        attempts = 0
        max_attempts = max(1, len(self._shards))
        while True:
            if len(self.ring) == 0:
                raise NoHealthyShardsError(
                    f"no healthy shards to route {op!r} "
                    f"({len(self._shards)} registered, all down)"
                )
            shard_id = self.ring.route(key)
            with span(
                "fleet.forward", attrs={"op": op, "shard": shard_id}
            ):
                try:
                    if prepare is not None:
                        await prepare(shard_id)
                    response = await self._link(shard_id).request(
                        op, params, timeout=self.forward_timeout_s
                    )
                except asyncio.TimeoutError:
                    raise ServiceTimeoutError(
                        f"forward to shard {shard_id} exceeded "
                        f"{self.forward_timeout_s:.0f}s"
                    ) from None
                except (ConnectionError, OSError) as exc:
                    attempts += 1
                    self._mark_down(shard_id, f"forward failed: {exc!r}")
                    self._events.inc(event="failovers")
                    if attempts >= max_attempts:
                        raise NoHealthyShardsError(
                            f"every shard failed while routing {op!r} "
                            f"(last: {shard_id}: {exc!r})"
                        ) from exc
                    continue
            self._routed.inc(shard=shard_id)
            if response.get("ok"):
                result = dict(response["result"])
                result["shard"] = shard_id
                return result
            raise exception_from_payload(response["error"])

    # -- streaming sessions --------------------------------------------------
    #
    # Sessions bypass the L1 cache / single-flight / fair queue: a delta
    # is stateful, milliseconds of shard work, and never equivalent to
    # another request.  Each pins to ``ring.route("session:<id>")``.

    def _session_lock(self, session_id: str) -> asyncio.Lock:
        lock = self._session_locks.get(session_id)
        if lock is None:
            lock = self._session_locks[session_id] = asyncio.Lock()
        return lock

    async def _op_session_open(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        normalized = normalize_open_params(params)
        session_id = normalized["session_id"] or f"session-{uuid.uuid4().hex[:12]}"
        forward = {k: v for k, v in normalized.items() if v is not None}
        forward["session_id"] = session_id
        async with self._session_lock(session_id):
            # Opening an existing id replaces the session — start a
            # fresh log either way.
            log = self._session_logs[session_id] = {
                "open": dict(forward), "deltas": [], "home": None,
            }
            result = await self._forward(
                "session_open", forward, f"session:{session_id}"
            )
            log["home"] = result["shard"]
            return result

    async def _op_session_delta(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        normalized = normalize_delta_params(params)
        session_id = normalized["session_id"]
        forward = {k: v for k, v in normalized.items() if v is not None}
        async with self._session_lock(session_id):
            result = await self._forward_session("session_delta", forward, session_id)
            log = self._session_logs.get(session_id)
            if log is not None:
                log["deltas"].append(dict(forward))
        return result

    async def _op_session_close(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        session_id = str(params.get("session_id") or "")
        if not session_id:
            raise ProtocolError("session_close params need a 'session_id'")
        async with self._session_lock(session_id):
            result = await self._forward_session(
                "session_close", {"session_id": session_id}, session_id
            )
            self._session_logs.pop(session_id, None)
        self._session_locks.pop(session_id, None)
        return result

    async def _forward_session(
        self, op: str, params: Mapping[str, Any], session_id: str
    ) -> Dict[str, Any]:
        """Forward a delta or close to the session's ring owner.

        When the owner is not the shard holding the session's state
        (first contact after a failover or ring churn), the session log
        replays there first.
        """
        log = self._session_logs.get(session_id)

        async def replay_if_moved(shard_id: str) -> None:
            if log is not None and log["home"] != shard_id:
                await self._replay_session(shard_id, session_id, log)

        result = await self._forward(
            op, params, f"session:{session_id}", prepare=replay_if_moved
        )
        if log is not None:
            log["home"] = result["shard"]
        return result

    async def _replay_session(
        self, shard_id: str, session_id: str, log: Mapping[str, Any]
    ) -> None:
        """Rebuild a session on ``shard_id`` from the router's log.

        Raises transport errors (``ConnectionError``/``OSError``) to the
        failover loop; typed shard errors propagate to the caller — a
        delta the old shard accepted cannot fail on a replay, so a typed
        error here means the log itself is bad.
        """
        self._events.inc(event="session_replays")
        link = self._link(shard_id)
        steps = [("session_open", dict(log["open"]))]
        steps.extend(("session_delta", dict(d)) for d in log["deltas"])
        for step_op, step_params in steps:
            step_params["include_plan"] = False
            response = await link.request(
                step_op, step_params, timeout=self.forward_timeout_s
            )
            if not response.get("ok"):
                raise exception_from_payload(response["error"])
        logger.info(
            "session %s replayed onto shard %s (%d deltas)",
            session_id, shard_id, len(log["deltas"]),
        )

    # -- introspection -------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Router event counters, from ``cast_fleet_events_total``."""
        return {
            labels["event"]: int(value)
            for labels, value in self._events.samples()
        }

    def _limits(self) -> Dict[str, Any]:
        return {
            "forward_timeout_s": self.forward_timeout_s,
            "health_interval_s": self.health_interval_s,
            "health_failures": self.health_failures,
        }

    def _config_payload(self) -> Dict[str, Any]:
        shards = [s.to_dict() for s in self._shards.values()]
        return dict(super()._config_payload(), shards=shards)

    def stats(self) -> Dict[str, Any]:
        """The router's ``stats`` op payload."""
        return dict(
            super().stats(),
            role=self.ROLE,
            tenancy=self.scheduler.stats(),
            shards=[s.to_dict() for s in self._shards.values()],
            ring=self.ring.describe(),
            routed={
                labels["shard"]: int(value)
                for labels, value in self._routed.samples()
            },
            sessions={
                sid: {
                    "home": log.get("home"),
                    "deltas_logged": len(log["deltas"]),
                }
                for sid, log in self._session_logs.items()
            },
        )
