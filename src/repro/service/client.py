"""Clients for the planner daemon and the fleet router.

:class:`PlannerClient` is the native asyncio client — one connection,
sequential request/response over it.  :class:`SyncPlannerClient` wraps
it for synchronous callers (the CLI's ``submit``, benchmarks, REPL
use): each call opens a connection, runs a private event loop, and
tears both down, trading a little latency for zero lifecycle
bookkeeping.

Error handling mirrors in-process semantics: an ``ok: false`` response
re-raises the server's typed exception (``WorkloadError``,
``ServiceBusyError``...) via
:func:`repro.service.protocol.exception_from_payload`.

Reconnect: by default a lost connection surfaces immediately
(``ConnectionRefusedError`` on connect, ``ServiceUnavailableError`` on
EOF mid-request).  ``retries=N`` turns on a bounded
exponential-backoff reconnect loop with jitter so fleet clients ride
out a shard failover or router restart: each retry closes the dead
socket, sleeps ``backoff_base * 2**attempt`` (capped at
``backoff_max``, ±``jitter`` fraction randomized to de-synchronize
herds), reconnects, and re-sends the request.  Solve requests are safe
to re-send — they are deterministic and cached by fingerprint, so a
duplicate costs at most one cache lookup on the far side.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import random
from typing import Any, Dict, Mapping, Optional, Sequence

from ..errors import ServiceUnavailableError
from .protocol import (
    MAX_LINE_BYTES,
    exception_from_payload,
    make_request,
    parse_response,
    read_message,
    send_message,
)

__all__ = ["PlannerClient", "PlannerSessionHandle", "SyncPlannerClient", "ping"]


def _as_job_dict(job: Any) -> Dict[str, Any]:
    """Accept a schema-v1 job dict or a JobSpec-like object."""
    if isinstance(job, Mapping):
        return dict(job)
    from ..workloads.io import job_to_dict

    return job_to_dict(job)


def _as_reuse_set_dict(rs: Any) -> Dict[str, Any]:
    if isinstance(rs, Mapping):
        return dict(rs)
    from ..workloads.io import reuse_set_to_dict

    return reuse_set_to_dict(rs)


def _params(**fields: Any) -> Dict[str, Any]:
    """Request params; a ``None`` field is left out, so the server's
    default applies."""
    return {k: v for k, v in fields.items() if v is not None}


class PlannerClient:
    """Async client: ``async with PlannerClient(host, port) as c: ...``.

    Parameters
    ----------
    host / port:
        The daemon (or fleet router) address.
    retries:
        Reconnect attempts after a connection-level failure (refused,
        reset, EOF mid-request).  0 — the default — preserves the
        historical fail-fast behaviour.
    backoff_base / backoff_max:
        Exponential backoff schedule: attempt ``i`` sleeps
        ``min(backoff_max, backoff_base * 2**i)`` seconds.
    jitter:
        Fractional randomization of each sleep (0.1 → ±10%), breaking
        up reconnect herds when many clients lose the same shard.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4815,
        *,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.1,
    ) -> None:
        self.host = host
        self.port = port
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.jitter = float(jitter)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 0
        self._rng = random.Random()

    async def connect(self) -> "PlannerClient":
        """Open the connection (idempotent)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        return self

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        writer = self._writer
        self.abort()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def abort(self) -> None:
        """Close the socket now, without waiting; a pending read sees EOF."""
        if self._writer is not None:
            self._writer.close()
            self._reader = self._writer = None

    async def __aenter__(self) -> "PlannerClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- raw request/response ------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        delay = min(self.backoff_max, self.backoff_base * (2.0 ** attempt))
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    async def exchange(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """One round-trip, no retries: the validated response envelope,
        error envelopes included."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        self._next_id += 1
        req = make_request(op, params, req_id=f"c{self._next_id}")
        await send_message(self._writer, req)
        line = await read_message(self._reader)
        if line is None:
            raise ServiceUnavailableError("server closed the connection mid-request")
        return parse_response(line)

    async def request(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Send one request, return the full validated response envelope.

        Raises the server's typed exception on an error response.
        Connection-level failures reconnect and re-send up to
        ``retries`` times before propagating.
        """
        attempt = 0
        while True:
            try:
                response = await self.exchange(op, params)
                break
            except (ConnectionError, OSError):
                # Covers refused/reset/broken-pipe and the typed
                # mid-request EOF (ServiceUnavailableError is a
                # ConnectionError too).  A dead socket never carries
                # state worth keeping — drop it either way.
                await self.close()
                if attempt >= self.retries:
                    raise
                await asyncio.sleep(self._backoff_s(attempt))
                attempt += 1
        if not response["ok"]:
            exc = exception_from_payload(response["error"])
            # Error envelopes carry the server-side trace id too —
            # stamp it on the exception so callers (and the CLI) can
            # print something grep-able against a debug dump.
            trace = response.get("trace_id")
            exc.trace_id = str(trace) if trace is not None else None
            raise exc
        return response

    async def _result(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        return dict((await self.request(op, params))["result"])

    async def _cached_result(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        response = await self.request(op, params)
        result = dict(response["result"])
        result["cached"] = bool(response.get("cached", False))
        return result

    # -- typed ops -----------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Liveness probe."""
        return await self._result("ping")

    async def stats(self) -> Dict[str, Any]:
        """Server counters (cache, pool, single-flight, limits)."""
        return await self._result("stats")

    async def metrics(
        self, format: str = "prometheus", scope: Optional[str] = None
    ) -> Dict[str, Any]:
        """The server's metrics registry.

        ``format="prometheus"`` → ``{"format": ..., "body": <text>}``;
        ``format="json"`` → ``{"format": ..., "metrics": {...}}`` with
        p50/p95/p99 per histogram series.  Against a fleet router,
        ``scope="fleet"`` (its default) scrapes every healthy shard and
        rolls the registries up with per-shard labels;
        ``scope="router"`` returns only the router's own instruments.
        """
        return await self._result("metrics", _params(format=format, scope=scope))

    async def slo(self, scope: Optional[str] = None) -> Dict[str, Any]:
        """The server's SLO report (burn rates + ok/warning/page per op).

        Against a fleet router the default scope rolls every shard's
        report up (worst shard state wins); ``scope="router"`` returns
        the router's own report only.
        """
        return await self._result("slo", _params(scope=scope))

    async def profile(
        self, duration_s: float = 1.0, interval_s: float = 0.005
    ) -> Dict[str, Any]:
        """Run the server's sampling profiler for ``duration_s`` seconds.

        Returns the subsystem self-time table plus folded stacks (see
        :mod:`repro.obs.sampler`).  The call blocks for the whole
        duration.
        """
        return await self._result(
            "profile", {"duration_s": duration_s, "interval_s": interval_s}
        )

    async def debug_dump(self, reason: str = "request") -> Dict[str, Any]:
        """Fetch a flight-recorder postmortem bundle from the server."""
        return await self._result("debug_dump", {"reason": reason})

    async def catalog(self, provider: str = "google") -> Dict[str, Any]:
        """The provider's storage catalog and prices."""
        return await self._result("catalog", {"provider": provider})

    async def register(
        self, shard_id: str, host: str, port: int
    ) -> Dict[str, Any]:
        """Register a planner shard with the fleet router."""
        return await self._result(
            "register", {"shard_id": shard_id, "host": host, "port": int(port)}
        )

    async def deregister(self, shard_id: str) -> Dict[str, Any]:
        """Remove a planner shard from the fleet router."""
        return await self._result("deregister", {"shard_id": shard_id})

    async def plan(
        self,
        workload: Mapping[str, Any],
        provider: str = "google",
        n_vms: int = 25,
        iterations: int = 3000,
        seed: int = 42,
        use_castpp: bool = True,
        restarts: Optional[int] = None,
        backend: Optional[str] = None,
        replicas: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Solve a workload; result carries ``cached`` and ``fingerprint``.

        ``backend="tempering"`` selects the parallel-tempering annealer
        with ``replicas`` coupled chains (see
        :mod:`repro.core.tempering`); both default to the server's
        ``"anneal"`` single-chain when omitted.  ``tenant`` labels the
        request for the fleet's fair queueing and metrics; it never
        changes the plan (plans are tenant-independent pure functions
        of the request).
        """
        return await self._cached_result(
            "plan",
            _params(
                spec=dict(workload), provider=provider, n_vms=n_vms,
                iterations=iterations, seed=seed, use_castpp=use_castpp,
                restarts=restarts, backend=backend, replicas=replicas,
                tenant=tenant,
            ),
        )

    async def whatif(
        self,
        workload: Mapping[str, Any],
        *,
        plan: Optional[Mapping[str, Any]] = None,
        tier: Optional[str] = None,
        provider: str = "google",
        n_vms: int = 25,
        fast: bool = True,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Measure a fixed tiering on the server's simulated cluster.

        Exactly one of ``plan`` (a tiering-plan dict, e.g. from
        ``plan --out``) or ``tier`` (a uniform tier name) selects the
        tiering.  ``fast=True`` (the default) measures over the
        vectorized wave-model fast path; ``fast=False`` forces the
        exact event engine.  No solver runs — the result carries the
        measured makespan/cost/utility plus per-job phase times, and is
        cached by its own fingerprint (``fast`` included, since the two
        paths agree only within the documented tolerance).
        """
        return await self._cached_result(
            "whatif",
            _params(
                spec=dict(workload), plan=None if plan is None else dict(plan),
                tier=tier, provider=provider, n_vms=n_vms, fast=fast,
                tenant=tenant,
            ),
        )

    async def sweep(
        self,
        workloads: "Sequence[Mapping[str, Any]] | Mapping[str, Any]",
        *,
        providers: Sequence[str] = ("google",),
        reps: int = 1,
        n_vms: int = 25,
        iterations: int = 3000,
        seed: int = 42,
        use_castpp: bool = True,
        backend: str = "anneal",
        replicas: int = 8,
        warm: bool = True,
        workers: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Solve a (catalog × workload × rep) grid on the server.

        Runs the amortized :class:`~repro.sweep.SweepEngine` server-side
        — warm-start transfer between neighboring grid points, CRN-paired
        seeds across catalogs, per-point bit parity — and returns its
        ``to_dict()`` payload (points, per-workload catalog ranking,
        mode counts).  Cached and single-flighted by the sweep
        fingerprint; ``workers`` fans engine waves over a server-side
        process pool.
        """
        if isinstance(workloads, Mapping):
            workloads = [workloads]
        return await self._cached_result(
            "sweep",
            _params(
                specs=[dict(w) for w in workloads], providers=list(providers),
                reps=reps, n_vms=n_vms, iterations=iterations, seed=seed,
                use_castpp=use_castpp, backend=backend, replicas=replicas,
                warm=warm, workers=workers, tenant=tenant,
            ),
        )

    async def plan_workflow(
        self,
        workflow: Mapping[str, Any],
        provider: str = "google",
        n_vms: int = 25,
        iterations: int = 3000,
        seed: int = 42,
        restarts: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Deadline-optimize a workflow DAG."""
        return await self._cached_result(
            "plan_workflow",
            _params(
                spec=dict(workflow), provider=provider, n_vms=n_vms,
                iterations=iterations, seed=seed, use_castpp=True,
                restarts=restarts, tenant=tenant,
            ),
        )

    # -- streaming sessions --------------------------------------------------

    async def session_open(
        self,
        workload: Optional[Mapping[str, Any]] = None,
        *,
        session_id: Optional[str] = None,
        provider: str = "google",
        n_vms: int = 25,
        iterations: int = 3000,
        seed: int = 42,
        use_castpp: bool = True,
        backend: Optional[str] = None,
        replicas: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        include_plan: bool = False,
    ) -> Dict[str, Any]:
        """Open a streaming planning session (see :mod:`repro.session`).

        The optional ``workload`` (schema-v1 dict) is solved at full
        budget as the session's opening plan; subsequent
        :meth:`session_delta` calls re-plan by warm start in
        milliseconds.  Returns at least ``session_id``.
        """
        return await self._result(
            "session_open",
            _params(
                spec=None if workload is None else dict(workload),
                session_id=session_id, provider=provider, n_vms=n_vms,
                iterations=iterations, seed=seed, use_castpp=use_castpp,
                backend=backend, replicas=replicas,
                config=None if config is None else dict(config),
                include_plan=include_plan,
            ),
        )

    async def session_delta(
        self,
        session_id: str,
        *,
        add_jobs: Any = None,
        reuse_sets: Any = None,
        remove: Any = None,
        include_plan: bool = False,
    ) -> Dict[str, Any]:
        """Admit a delta (departures and/or arrivals) to a session.

        ``add_jobs``/``reuse_sets`` accept schema-v1 dicts or the
        in-process :class:`~repro.workloads.spec.JobSpec` /
        ``ReuseSet`` objects.  Removals apply before additions.
        """
        params: Dict[str, Any] = {
            "session_id": session_id,
            "include_plan": include_plan,
        }
        if remove:
            params["remove"] = [str(jid) for jid in remove]
        if add_jobs or reuse_sets:
            params["add"] = {
                "jobs": [_as_job_dict(j) for j in (add_jobs or [])],
                "reuse_sets": [
                    _as_reuse_set_dict(rs) for rs in (reuse_sets or [])
                ],
            }
        return await self._result("session_delta", params)

    async def session_close(self, session_id: str) -> Dict[str, Any]:
        """Close a session; returns its final plan and counters."""
        return await self._result("session_close", {"session_id": session_id})

    def session(
        self,
        workload: Optional[Mapping[str, Any]] = None,
        **open_kwargs: Any,
    ) -> "PlannerSessionHandle":
        """Context-managed streaming session::

            async with client.session(workload_dict) as sess:
                await sess.add_jobs([...])
                await sess.remove_jobs(["job-3"])

        The session opens on ``__aenter__`` and closes (server-side)
        on ``__aexit__``; the handle's :attr:`~PlannerSessionHandle.summary`
        holds the close payload afterwards.
        """
        return PlannerSessionHandle(self, workload, open_kwargs)


class PlannerSessionHandle:
    """One open streaming session bound to a :class:`PlannerClient`."""

    def __init__(
        self,
        client: PlannerClient,
        workload: Optional[Mapping[str, Any]],
        open_kwargs: Dict[str, Any],
    ) -> None:
        self._client = client
        self._workload = workload
        self._open_kwargs = open_kwargs
        self.session_id: Optional[str] = None
        #: Result payload of the most recent open/delta op.
        self.last: Optional[Dict[str, Any]] = None
        #: The ``session_close`` payload, set on ``__aexit__``/:meth:`close`.
        self.summary: Optional[Dict[str, Any]] = None

    async def __aenter__(self) -> "PlannerSessionHandle":
        result = await self._client.session_open(
            self._workload, **self._open_kwargs
        )
        self.session_id = str(result["session_id"])
        self.last = result
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        if self.session_id is not None and self.summary is None:
            try:
                await self.close()
            except Exception:
                # Best-effort close on unwind: the original exception
                # (if any) matters more than a dead session id.
                if exc_info[0] is None:
                    raise

    def _require_open(self) -> str:
        if self.session_id is None:
            raise ServiceUnavailableError("session is not open")
        return self.session_id

    async def add_jobs(
        self,
        jobs: Any,
        reuse_sets: Any = None,
        include_plan: bool = False,
    ) -> Dict[str, Any]:
        """Admit arriving jobs; returns the re-plan result payload."""
        self.last = await self._client.session_delta(
            self._require_open(),
            add_jobs=jobs, reuse_sets=reuse_sets, include_plan=include_plan,
        )
        return self.last

    async def remove_jobs(
        self, job_ids: Any, include_plan: bool = False
    ) -> Dict[str, Any]:
        """Retire departing jobs; returns the re-plan result payload."""
        self.last = await self._client.session_delta(
            self._require_open(), remove=job_ids, include_plan=include_plan,
        )
        return self.last

    async def close(self) -> Dict[str, Any]:
        """Close the session server-side (idempotent client-side)."""
        sid = self._require_open()
        self.summary = await self._client.session_close(sid)
        self.session_id = None
        return self.summary


async def ping(host: str, port: int) -> Dict[str, Any]:
    """One ``ping`` on a throwaway connection (health/readiness probes)."""
    async with PlannerClient(host, port) as client:
        return await client.ping()


class SyncPlannerClient:
    """Blocking facade over :class:`PlannerClient` (one connection per call).

    Every public coroutine of :class:`PlannerClient` (``ping``, ``plan``,
    ``session_delta``...) is mirrored here as a blocking method with the
    same signature.  Session state lives server-side, keyed by the
    returned ``session_id``, so sessions work across calls too.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4815,
        *,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.1,
    ) -> None:
        self.host = host
        self.port = port
        self._client_kwargs = {
            "retries": retries,
            "backoff_base": backoff_base,
            "backoff_max": backoff_max,
            "jitter": jitter,
        }

    def _run(self, method: str, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        async def call() -> Dict[str, Any]:
            async with PlannerClient(
                self.host, self.port, **self._client_kwargs
            ) as client:
                return await getattr(client, method)(*args, **kwargs)

        return asyncio.run(call())


def _blocking(name: str, coro_fn: Any) -> Any:
    @functools.wraps(coro_fn)
    def method(self: SyncPlannerClient, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        return self._run(name, *args, **kwargs)

    return method


for _name, _fn in inspect.getmembers(PlannerClient, inspect.iscoroutinefunction):
    if not _name.startswith("_") and _name not in ("connect", "close"):
        setattr(SyncPlannerClient, _name, _blocking(_name, _fn))
del _name, _fn
