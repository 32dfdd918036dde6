"""The op-serving core shared by the planner daemon and the fleet router.

:class:`OpServer` owns everything both roles do with a request::

    read line → parse → dispatch on OP_TABLE[op].kind
        cached      → normalize → fingerprint → cache hit?
                      → identical request inflight? → await it (single-flight)
                      → _admit → _run_leader → cache + fan out to every waiter
        other kinds → the role's ``_op_<name>`` coroutine
    → time it into ``cast_op_latency_seconds{op}`` and the flight recorder
    → answer on the same connection

plus the listening socket, the SLO engine with its background tick and
its page → postmortem-dump callback, and the ``catalog``, ``profile``
and ``debug_dump`` ops.  A subclass supplies what differs:
``_run_leader`` (the daemon solves on its pool, the router forwards to
a shard), its own ``stats``/config sections and ops, and the class
constants that name its metrics, spans and errors.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from typing import Any, Awaitable, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..cloud import resolve_provider
from ..errors import CastError, ProtocolError
from ..obs.flightrec import FlightRecorder, build_bundle, dump_bundle
from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.sampler import SamplingProfiler
from ..obs.slo import BurnPolicy, Objective, SLOEngine, Transition
from ..obs.tracing import current_trace_id, span
from .cache import PlanCache
from .protocol import (
    CACHED,
    MAX_LINE_BYTES,
    MONITORING,
    OP_TABLE,
    error_response,
    ok_response,
    parse_request,
    read_message,
    send_message,
)

__all__ = ["OpServer"]

logger = logging.getLogger(__name__)

#: ``profile`` op duration ceiling — the op blocks a worker thread for
#: its whole duration, so an unbounded request would be a free DoS.
MAX_PROFILE_S = 30.0


def metrics_format(params: Mapping[str, Any]) -> str:
    """The ``metrics`` op's ``format`` param, validated."""
    fmt = str(params.get("format", "prometheus")).lower()
    if fmt not in ("prometheus", "json"):
        raise ProtocolError(
            f"unknown metrics format {fmt!r} (expected 'prometheus' or 'json')"
        )
    return fmt


class OpServer:
    """A JSON-lines op server: connection loop, dispatch, caching, SLOs.

    Not used directly — see :class:`~repro.service.server.PlannerServer`
    and :class:`~repro.fleet.router.FleetRouter`.  Both pass through
    these keywords: ``registry`` (a fresh one when omitted), the
    :class:`~repro.obs.slo.SLOEngine`'s ``slo_objectives`` /
    ``slo_policy`` / ``slo_clock``, ``slo_eval_interval_s`` (<= 0:
    evaluate only on the ``slo`` op), ``dump_dir`` (where a ``page``
    writes its postmortem bundle; None: no automatic dumps) and the
    flight recorder's ``flight_capacity`` / ``flight_exemplars``.
    """

    # Set by each role:
    #: ``role`` in stats/config payloads and log lines.
    ROLE: str
    #: Prefix of the role-owned metric names (``<prefix>_requests_total``...).
    METRIC_PREFIX: str
    #: Help text of the role-owned metrics, by suffix.
    METRIC_HELP: Mapping[str, str]
    #: Name of the span every request runs in.
    REQUEST_SPAN: str
    #: Error raised (and event counted) when a handler fails unexpectedly.
    INTERNAL_ERROR: type
    INTERNAL_ERROR_EVENT: str
    # ... and ``default_restarts`` (the restart count pinned onto solves
    # that don't name one), ``counters`` and ``_limits()``.

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cache_size: int,
        registry: Optional[MetricsRegistry] = None,
        slo_objectives: Optional[Sequence[Objective]] = None,
        slo_policy: Optional[BurnPolicy] = None,
        slo_clock: Optional[Any] = None,
        slo_eval_interval_s: float = 5.0,
        dump_dir: Optional[str] = None,
        flight_capacity: int = 512,
        flight_exemplars: int = 8,
    ) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._background: List["asyncio.Task[None]"] = []

        self.metrics = registry if registry is not None else MetricsRegistry()
        prefix, help_ = self.METRIC_PREFIX, self.METRIC_HELP
        self._requests_total = self.metrics.counter(
            f"{prefix}_requests_total", help_["requests"]
        )
        self._events = self.metrics.counter(
            f"{prefix}_events_total", help_["events"], labelnames=("event",)
        )
        self._ops = self.metrics.counter(
            f"{prefix}_ops_total", help_["ops"], labelnames=("op",)
        )
        self._tenant_requests = self.metrics.counter(
            f"{prefix}_tenant_requests_total",
            help_["tenant_requests"],
            labelnames=("tenant",),
        )
        self._solve_seconds = self.metrics.histogram(
            f"{prefix}_solve_seconds", help_["solve_seconds"]
        )
        self._op_latency = self.metrics.histogram(
            "cast_op_latency_seconds",
            "Wire-level request latency by op",
            labelnames=("op",),
        )
        self._op_requests = self.metrics.counter(
            "cast_op_requests_total",
            "Wire-level requests by op and outcome",
            labelnames=("op", "outcome"),
        )
        self.cache = PlanCache(capacity=cache_size, registry=self.metrics)

        self.recorder = FlightRecorder(
            capacity=flight_capacity, exemplars=flight_exemplars,
            registry=self.metrics,
        )
        self.dump_dir = dump_dir
        self.slo_eval_interval_s = float(slo_eval_interval_s)
        self.slo = SLOEngine(
            slo_objectives, policy=slo_policy, clock=slo_clock, registry=self.metrics
        )
        self.slo.on_transition(self._on_slo_transition)
        self._started_at = time.monotonic()

    def _reset_stats(self) -> None:
        """Restart the uptime clock (on :meth:`start`)."""
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reset_stats()
        # Evaluate even when idle: states must decay back to ``ok``
        # without traffic forcing an evaluation.
        self._every(
            self.slo_eval_interval_s,
            lambda: self.slo.evaluate(registry=self.metrics),
            "SLO evaluation",
        )
        logger.info("%s listening on %s:%d", self.ROLE, self.host, self.port)

    def _every(self, interval_s: float, tick: Callable[[], Any], what: str) -> None:
        """Run ``tick`` (sync or async) every ``interval_s`` until :meth:`stop`;
        an interval <= 0 disables it."""
        if interval_s <= 0:
            return

        async def loop() -> None:
            while True:
                await asyncio.sleep(interval_s)
                try:
                    result = tick()
                    if asyncio.iscoroutine(result):
                        await result
                except asyncio.CancelledError:
                    raise
                except Exception:  # pragma: no cover - defensive
                    logger.exception("%s failed; continuing", what)

        self._background.append(asyncio.create_task(loop()))

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved after :meth:`start`."""
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop`-ped."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop the background ticks and accepting, drain inflight work."""
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        self._background.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        for writer in list(self._connections):
            writer.close()
        logger.info("%s stopped", self.ROLE)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await read_message(reader)
                    if line is None:
                        break
                    if not line.strip():
                        continue
                    request = parse_request(line)
                except ProtocolError as exc:
                    # A malformed or over-long line answers a typed error
                    # on the same connection; the line framing is still
                    # intact, so the session continues.
                    self._requests_total.inc()
                    self._events.inc(event="bad_requests")
                    logger.debug("bad request line: %s", exc)
                    await send_message(writer, error_response(None, exc))
                    continue
                self._requests_total.inc()
                response = await self._dispatch(request)
                await send_message(writer, response)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler mid-read; the
            # socket closes below — nothing to propagate to the loop.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        req_id = request.get("id")
        params = request["params"]
        self._ops.inc(op=op)
        # The op's own recording (and its to_thread work, which copies
        # this context) lands in this server's registry.
        with use_registry(self.metrics), span(self.REQUEST_SPAN, attrs={"op": op}) as sp:
            started = time.monotonic()
            try:
                if OP_TABLE[op].kind == CACHED:
                    result, cached = await self._serve_cached(op, params)
                    response = ok_response(req_id, result, cached=cached)
                else:
                    response = ok_response(req_id, await self._handler(op)(params))
            except asyncio.CancelledError:
                raise
            except CastError as exc:
                response = error_response(req_id, exc)
            except Exception as exc:  # the server must outlive any one request
                self._events.inc(event=self.INTERNAL_ERROR_EVENT)
                logger.exception("internal error handling op %r", op)
                response = error_response(
                    req_id, self.INTERNAL_ERROR(f"internal error: {exc!r}")
                )
            response["trace_id"] = sp.trace_id
            self._record_request(
                op, params, response, time.monotonic() - started, sp.trace_id
            )
            return response

    def _handler(self, op: str) -> Callable[[Mapping[str, Any]], Awaitable[Dict[str, Any]]]:
        """The role's ``_op_<op>`` coroutine method."""
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            # Only the router-only ops lack a handler on a planner shard.
            raise ProtocolError(
                f"op {op!r} is served by the fleet router, not a planner "
                f"shard — point the registration at 'cast-plan fleet'"
            )
        return handler

    def _record_request(
        self,
        op: str,
        params: Mapping[str, Any],
        response: Mapping[str, Any],
        latency_s: float,
        trace_id: Optional[str],
    ) -> None:
        """Per-op latency/outcome metrics + one flight-recorder record.

        A routed response also names the shard that served it — a fleet
        postmortem needs the culprit, not just the symptom.
        """
        ok = bool(response.get("ok"))
        self._op_latency.observe(latency_s, op=op)
        self._op_requests.inc(op=op, outcome="ok" if ok else "error")
        if OP_TABLE[op].kind == MONITORING:
            return
        error = None
        if not ok:
            error = str(response.get("error", {}).get("type", "error"))
        result = response.get("result")
        shard = result.get("shard") if isinstance(result, Mapping) else None
        tenant = params.get("tenant")
        self.recorder.record(
            op=op,
            latency_s=latency_s,
            ok=ok,
            cached=bool(response.get("cached", False)),
            tenant=str(tenant) if tenant is not None else None,
            shard=str(shard) if shard is not None else None,
            error=error,
            trace_id=trace_id,
        )

    # -- cached ops ----------------------------------------------------------

    async def _serve_cached(
        self, op: str, params: Mapping[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        """Cache → single-flight → :meth:`_run_leader` → cache, for every
        ``cached`` op.

        Single-flight dedup means a burst of identical requests costs
        one run; everyone else awaits the leader's future.  Failures
        propagate to every waiter but are *not* cached, so a transient
        failure doesn't poison the fingerprint.
        """
        spec = OP_TABLE[op]
        normalized = spec.normalize(op, params)
        if normalized.get("restarts", 1) is None:
            # Pin the default so the fingerprint names the restarts that run.
            normalized["restarts"] = self.default_restarts
        self._tenant_requests.inc(tenant=normalized["tenant"])
        fingerprint = spec.fingerprint(op, normalized)

        cached = self.cache.get(fingerprint)
        if cached is not None:
            # Re-stamp with *this* request's trace id — the cached dict
            # remembers the trace that originally produced it.
            return dict(
                cached, fingerprint=fingerprint, trace_id=current_trace_id()
            ), True

        leader = self._inflight.get(fingerprint)
        if leader is not None:
            self._events.inc(event="dedup_joined")
            result = await asyncio.shield(leader)
            return dict(
                result, fingerprint=fingerprint, trace_id=current_trace_id()
            ), False

        self._admit(op)
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[fingerprint] = future
        try:
            result = await self._run_leader(op, normalized, fingerprint)
            self.cache.put(fingerprint, result)
            future.set_result(result)
        except BaseException as exc:
            if isinstance(exc, CastError):
                self._events.inc(event="solve_errors")
            future.set_exception(exc)
            # The dedup waiters consume the exception; don't warn when
            # nobody else was waiting.
            future.exception()
            raise
        finally:
            self._inflight.pop(fingerprint, None)
        return dict(result, fingerprint=fingerprint), False

    def _admit(self, op: str) -> None:
        """Raise to shed a new leader; cache hits and dedup joiners
        never get here."""

    async def _run_leader(
        self, op: str, normalized: Dict[str, Any], fingerprint: str
    ) -> Dict[str, Any]:
        """Produce the result of a cache miss (it is cached as returned)."""
        raise NotImplementedError

    # -- ops answered the same by every role ---------------------------------

    async def _op_ping(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "uptime_s": self.uptime_s}

    async def _op_stats(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return self.stats()

    async def _op_catalog(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        provider = resolve_provider(str(params.get("provider", "google")))
        tiers = []
        for tier in provider.tiers:
            svc = provider.service(tier)
            tiers.append(
                {
                    "tier": tier.value,
                    "persistent": bool(svc.persistent),
                    "price_gb_month": svc.price_gb_month,
                    "price_gb_hr": provider.storage_price_gb_hr(tier),
                }
            )
        return {
            "provider": provider.name,
            "tiers": tiers,
            "vm": {
                "name": provider.default_vm.name,
                "price_per_hour_usd": provider.prices.vm_price_per_min * 60,
            },
        }

    def _exposition(
        self, registry: MetricsRegistry, fmt: str, exemplars: bool
    ) -> Dict[str, Any]:
        """``registry`` in ``fmt``; ``exemplars`` stamps the flight
        recorder's slowest-K trace ids onto the per-op latency series."""
        if fmt == "prometheus":
            return {"format": "prometheus", "body": registry.to_prometheus()}
        body = registry.to_json()
        if exemplars:
            self.recorder.attach_exemplars(body)
        return {"format": "json", "metrics": body}

    async def _op_metrics(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``metrics`` op: the registry in Prometheus text or JSON."""
        return self._exposition(self.metrics, metrics_format(params), True)

    async def _op_slo(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``slo`` op: evaluate the engine on a fresh snapshot.

        Transitions fire synchronously here (the same path the
        background tick uses), so a ``page`` entered during this very
        evaluation has already written its dump by the time the
        response leaves.
        """
        return self.slo.evaluate(registry=self.metrics)

    async def _op_profile(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``profile`` op: sample *this* process, return the profile."""
        try:
            duration_s = float(params.get("duration_s", 1.0))
            interval_s = float(params.get("interval_s", 0.005))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad profile params: {exc}") from None
        if not 0.0 < duration_s <= MAX_PROFILE_S:
            raise ProtocolError(
                f"profile duration_s must be in (0, {MAX_PROFILE_S:g}], "
                f"got {duration_s}"
            )
        if interval_s <= 0:
            raise ProtocolError(
                f"profile interval_s must be > 0, got {interval_s}"
            )
        profiler = SamplingProfiler(interval_s=interval_s)
        # The sampler sleeps for the whole duration — park it on a
        # worker thread so the event loop keeps serving (and shows up
        # in its own samples).
        return await asyncio.to_thread(profiler.run_for, duration_s)

    async def _op_debug_dump(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``debug_dump`` op: one postmortem bundle, over the wire."""
        return self._build_bundle(reason=str(params.get("reason", "request")))

    # -- postmortems ---------------------------------------------------------

    def _build_bundle(self, reason: str) -> Dict[str, Any]:
        return build_bundle(
            registry=self.metrics,
            recorder=self.recorder,
            slo_report=self.slo.last_report,
            config=self._config_payload(),
            reason=reason,
        )

    def _config_payload(self) -> Dict[str, Any]:
        """The bundle's ``config`` section; roles add their own keys."""
        return {
            "role": self.ROLE,
            "host": self.host,
            "port": self.port,
            "limits": self._limits(),
            "cache_capacity": self.cache.capacity,
            "slo": self.slo.config(),
            "dump_dir": self.dump_dir,
        }

    def _on_slo_transition(self, edge: Transition) -> None:
        """Engine callback: auto-dump a bundle on every page entry."""
        logger.warning("SLO %s: %s -> %s", edge.op, edge.old, edge.new)
        if edge.new != "page":
            return
        path = self._write_dump(reason=f"page-{edge.op}")
        if path is not None:
            logger.warning("SLO page on %s: wrote debug dump %s", edge.op, path)

    def _write_dump(self, reason: str) -> Optional[str]:
        """Write one bundle into ``dump_dir`` (None = dumping disabled)."""
        if not self.dump_dir:
            return None
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            stamp = int(time.time() * 1000)
            path = os.path.join(
                self.dump_dir, f"castdump-{stamp}-{reason}.jsonl"
            )
            dump_bundle(path, self._build_bundle(reason=reason))
            self._events.inc(event="debug_dumps")
            return path
        except OSError:
            logger.exception("failed to write debug dump; continuing")
            return None

    # -- introspection -------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start`."""
        return time.monotonic() - self._started_at

    @property
    def op_counts(self) -> Dict[str, int]:
        """Requests per op, from ``<prefix>_ops_total``."""
        return {
            labels["op"]: int(value) for labels, value in self._ops.samples()
        }

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload; roles add their own sections."""
        return {
            "uptime_s": self.uptime_s,
            "requests": self.op_counts,
            "counters": self.counters,
            "cache": self.cache.stats(),
            "flight_recorder": self.recorder.stats(),
            "slo": self.slo.states,
            "inflight": len(self._inflight),
            "limits": self._limits(),
        }
