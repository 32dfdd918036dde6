"""The planner daemon: an asyncio TCP server over the solver pool.

Request lifecycle for the solve ops (``plan`` / ``plan_workflow``)::

    parse → normalize params → fingerprint
          → cache hit?            → answer from the LRU, no solver work
          → identical solve inflight? → await it (single-flight dedup)
          → admission check       → reject with ServiceBusyError when
                                    inflight + queued > the limits
          → multi-start solve on the pool, under a per-request timeout
          → cache + fan the result out to every waiter

The connection loop, dispatch, cache and single-flight path and the
operational layer below live in :class:`~repro.service.base.OpServer`,
shared with the fleet router; this module adds the solver pool,
admission control and the streaming sessions.

The server is one asyncio loop; all heavy work happens in the pool's
worker processes, so the loop stays responsive for ``ping``/``stats``
even while solves run.  ``stop()`` drains: no new connections, inflight
solves finish, then the pool shuts down.

Observability: every server owns a :class:`~repro.obs.metrics.MetricsRegistry`
into which all its moving parts report — service request/event counters,
a solve-latency histogram, the plan cache, the solver pool (including
deltas shipped home by process workers), the simulation cache and the
evaluator totals.  It is bound as the ambient registry for every op,
so sweeps, what-ifs and session re-plans on worker threads record into
it too.  The ``metrics`` op exposes it (Prometheus text or
JSON); the legacy ``stats`` payload is now *derived* from the registry,
byte-compatible with the old hand-rolled dicts.  Each request runs
inside a ``service.request`` span and every response carries its
``trace_id``.

On top of the raw registry sits the operational layer: the dispatch
loop times every request into ``cast_op_latency_seconds{op}`` /
``cast_op_requests_total{op,outcome}`` and the flight recorder's ring
(:mod:`repro.obs.flightrec`), an :class:`~repro.obs.slo.SLOEngine`
evaluates burn rates from those series (the ``slo`` op; a background
tick when ``slo_eval_interval_s`` > 0), a ``page`` transition
auto-writes a JSONL postmortem bundle into ``dump_dir``, the
``profile`` op runs the sampling profiler, and ``debug_dump`` returns
a bundle over the wire.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Dict, Mapping, Optional

from ..cloud import resolve_provider
from ..errors import ServiceBusyError, ServiceError, ServiceTimeoutError
from ..obs.tracing import span
from ..simulator.cache import register_metrics as register_sim_cache_metrics
from ..simulator.vectorized import register_fastpath_metrics
from .base import OpServer
from .pool import SolverPool
from .sessions import SessionManager

__all__ = ["PlannerServer"]

logger = logging.getLogger(__name__)

#: Event-counter keys, in the order the legacy ``stats`` payload listed
#: them (after ``requests``, which is a separate unlabeled counter).
_EVENT_KEYS = (
    "bad_requests",
    "dedup_joined",
    "solves_ok",
    "solve_errors",
    "timeouts",
    "rejected",
)


def _run_sweep(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Solve the sweep grid (blocking; runs on a worker thread).

    The engine does its own fan-out: with ``workers`` set, waves go
    through a process-pool :class:`~repro.experiments.runner.ExperimentRunner`
    owned by the engine, so the solves never touch the server's solver
    pool — a sweep is one admission-controlled unit of work.  The
    worker thread runs under the server's registry and the request's
    trace, so the engine's and its workers' counters and spans land
    there.
    """
    from ..errors import WorkloadError
    from ..sweep import SweepConfig, SweepEngine
    from ..workloads.io import workload_from_dict

    workloads = []
    for spec in request["specs"]:
        if spec.get("kind") != "workload":
            raise WorkloadError("sweep wants workload specs (kind='workload')")
        workloads.append(workload_from_dict(dict(spec)))
    if request["reps"] < 1:
        raise WorkloadError(f"sweep reps must be >= 1, got {request['reps']}")
    engine = SweepEngine(
        request["providers"],
        workloads,
        knobs=[{"rep": r} for r in range(request["reps"])],
        config=SweepConfig(
            n_vms=request["n_vms"],
            iterations=request["iterations"],
            seed=request["seed"],
            use_castpp=request["use_castpp"],
            backend=request["backend"],
            replicas=request["replicas"],
            warm=request["warm"],
        ),
        workers=request["workers"],
    )
    return engine.run().to_dict()


def _run_whatif(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure the requested tiering on the simulator (blocking).

    Runs on a worker thread via :func:`asyncio.to_thread` — the
    measurement is simulation-bound (milliseconds on the fast path,
    seconds on the exact engine), not solver-bound, so it never goes
    through the solver pool.
    """
    from ..cloud.storage import Tier
    from ..core.plan import TieringPlan
    from ..errors import WorkloadError
    from ..experiments.measure import measure_plan
    from ..experiments.runner import ExperimentRunner
    from ..workloads.io import workload_from_dict

    spec = request["spec"]
    if spec.get("kind") != "workload":
        raise WorkloadError("whatif wants a workload spec (kind='workload')")
    workload = workload_from_dict(dict(spec))
    prov = resolve_provider(request["provider"])
    cluster = prov.cluster(request["n_vms"])
    if request["plan"] is not None:
        plan = TieringPlan.from_dict(dict(request["plan"]))
    else:
        try:
            tier = Tier(request["tier"])
        except ValueError:
            raise WorkloadError(f"unknown tier {request['tier']!r}") from None
        plan = TieringPlan.uniform(workload, tier)
    fast = bool(request["fast"])
    with ExperimentRunner(0, fast_path=fast) as runner:
        measured = measure_plan(
            workload, plan, cluster, prov, runner=runner if fast else None
        )
    return {
        "makespan_s": measured.makespan_s,
        "makespan_min": measured.makespan_min,
        "cost_total_usd": measured.cost.total_usd,
        "cost_vm_usd": measured.cost.vm_usd,
        "cost_storage_usd": measured.cost.storage_usd,
        "utility": measured.utility,
        "n_jobs": workload.n_jobs,
        "fast": fast,
        "per_job": {
            job_id: {
                "download_s": r.download_s,
                "map_s": r.map_s,
                "reduce_s": r.reduce_s,
                "upload_s": r.upload_s,
                "total_s": r.total_s,
            }
            for job_id, r in measured.per_job.items()
        },
    }


#: Cached ops a leader runs on a worker thread instead of the solver
#: pool: op → (blocking function, elapsed-seconds result key, success
#: event).  Any other cached op is an admission-controlled pool solve.
_THREAD_OPS = {
    "whatif": (_run_whatif, "measure_seconds", "whatifs_ok"),
    "sweep": (_run_sweep, "sweep_seconds", "sweeps_ok"),
}


class PlannerServer(OpServer):
    """Long-lived planning daemon with caching and single-flight dedup.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    pool:
        A :class:`SolverPool`; built from ``pool_processes``/``restarts``
        when omitted.
    cache_size:
        LRU plan-cache capacity (entries).
    max_inflight:
        Solves running on the pool concurrently; further solves queue.
    max_queue:
        Queued solves beyond ``max_inflight`` before new unique requests
        are shed with :class:`ServiceBusyError` (dedup'd and cached
        requests are never shed — they cost no solver work).
    request_timeout_s:
        Per-solve deadline; breaches answer :class:`ServiceTimeoutError`.
    solver_fn:
        Test seam: ``async (request_dict) -> result_dict`` replacing the
        pool solve.
    serving:
        :class:`~repro.service.base.OpServer`'s keywords (``registry``,
        the SLO and flight-recorder knobs, ``dump_dir``).  Each server
        gets its own fresh registry when omitted, so per-server counters
        always start at zero.
    """

    ROLE = "server"
    METRIC_PREFIX = "cast_service"
    METRIC_HELP = {
        "requests": "Request lines received",
        "events": "Service lifecycle events by kind",
        "ops": "Requests by op",
        "tenant_requests": "Solve requests by tenant",
        "solve_seconds": "End-to-end wall time of non-cached solves",
    }
    REQUEST_SPAN = "service.request"
    INTERNAL_ERROR = ServiceError
    INTERNAL_ERROR_EVENT = "solve_errors"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool: Optional[SolverPool] = None,
        pool_processes: Optional[int] = None,
        restarts: Optional[int] = None,
        cache_size: int = 128,
        max_inflight: int = 4,
        max_queue: int = 64,
        request_timeout_s: float = 600.0,
        solver_fn: Optional[Any] = None,
        **serving: Any,
    ) -> None:
        if max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {max_inflight}")
        super().__init__(host, port, cache_size=cache_size, **serving)
        if pool is None:
            kwargs: Dict[str, Any] = {"processes": pool_processes}
            if restarts is not None:
                kwargs["restarts"] = restarts
            pool = SolverPool(**kwargs)
        self.pool = pool
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.request_timeout_s = float(request_timeout_s)
        self._solver_fn = solver_fn
        self._solve_sem = asyncio.Semaphore(self.max_inflight)
        self._admitted = 0  # solves admitted but not yet finished
        self._evaluator_events = self.metrics.counter(
            "cast_evaluator_events_total",
            "Incremental-evaluator cache counters, summed over solves",
            labelnames=("counter",),
        )
        self.sessions = SessionManager(registry=self.metrics)
        self.pool.bind_metrics(self.metrics)
        register_sim_cache_metrics(self.metrics)
        register_fastpath_metrics(self.metrics)
        self._reset_stats()

    def _reset_stats(self) -> None:
        """Zero the uptime clock and every counter: the registry owns
        them all (service, plan cache, pool, flight recorder, SLO,
        simulator and worker deltas), so one reset zeroes them."""
        super()._reset_stats()
        self.metrics.reset()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain solves, close the pool."""
        await super().stop()
        self.pool.shutdown(wait=True)

    @property
    def default_restarts(self) -> int:
        """Restarts of a solve that doesn't name a count: the pool's."""
        return self.pool.restarts

    # -- ops -----------------------------------------------------------------

    async def _op_session_open(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.open(params)

    async def _op_session_delta(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.delta(params)

    async def _op_session_close(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return await self.sessions.close(params)

    def _admit(self, op: str) -> None:
        """Shed a new pool solve once ``max_inflight + max_queue`` are admitted."""
        if op in _THREAD_OPS or self._admitted < self.max_inflight + self.max_queue:
            return
        self._events.inc(event="rejected")
        logger.warning(
            "shedding %s request: %d solves admitted "
            "(limit %d inflight + %d queued)",
            op, self._admitted, self.max_inflight, self.max_queue,
        )
        raise ServiceBusyError(
            f"server at capacity ({self._admitted} solves admitted, "
            f"limit {self.max_inflight} inflight + {self.max_queue} queued)"
        )

    async def _run_leader(
        self, op: str, normalized: Dict[str, Any], fingerprint: str
    ) -> Dict[str, Any]:
        """A pool solve, or a whatif/sweep on a worker thread — a
        simulation pass or a sweep engine with its own process fan-out,
        so the loop stays live and the pool stays free for solves."""
        if op not in _THREAD_OPS:
            return await self._solve(op, normalized)
        fn, seconds_key, event = _THREAD_OPS[op]
        started = time.monotonic()
        with span(f"service.{op}") as op_span:
            result = dict(await asyncio.to_thread(fn, normalized))
        result[seconds_key] = time.monotonic() - started
        result["trace_id"] = op_span.trace_id
        self._events.inc(event=event)
        return result

    async def _solve(self, op: str, normalized: Dict[str, Any]) -> Dict[str, Any]:
        """Multi-start solve on the pool, under the per-request timeout."""
        request = {
            k: v for k, v in normalized.items() if k not in ("tenant", "restarts")
        }
        restarts = normalized.get("restarts", self.default_restarts)
        self._admitted += 1
        try:
            async with self._solve_sem:
                started = time.monotonic()
                with span(
                    "service.solve", attrs={"op": op, "restarts": restarts}
                ) as solve_span:
                    try:
                        result = await asyncio.wait_for(
                            self._run_solver(request, restarts),
                            timeout=self.request_timeout_s,
                        )
                    except asyncio.TimeoutError:
                        self._events.inc(event="timeouts")
                        logger.warning(
                            "%s solve exceeded %.0fs deadline",
                            op, self.request_timeout_s,
                        )
                        raise ServiceTimeoutError(
                            f"solve exceeded {self.request_timeout_s:.0f}s deadline"
                        ) from None
        finally:
            self._admitted -= 1
        elapsed = time.monotonic() - started
        result = dict(result)
        result["solve_seconds"] = elapsed
        result["trace_id"] = solve_span.trace_id
        self._solve_seconds.observe(elapsed)
        self._events.inc(event="solves_ok")
        ev = result.get("evaluator")
        if isinstance(ev, dict):
            for key, value in ev.items():
                self._evaluator_events.inc(int(value), counter=key)
        return result

    async def _run_solver(
        self, request: Dict[str, Any], restarts: int
    ) -> Dict[str, Any]:
        if self._solver_fn is not None:
            return await self._solver_fn(dict(request, restarts=restarts))
        return await self.pool.solve(request, restarts=restarts)

    # -- introspection ---------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Legacy counters dict, derived from the metrics registry.

        Same keys and ordering as the pre-registry hand-rolled dict;
        kept as a read-only view for the ``stats`` payload and tests.
        """
        out = {"requests": int(self._requests_total.value())}
        for event in _EVENT_KEYS:
            out[event] = int(self._events.value(event=event))
        return out

    @property
    def evaluator_totals(self) -> Dict[str, int]:
        """Incremental-evaluator cache counters, summed over every solve
        this server completed (cache hits/misses, jobs skipped, ...)."""
        return {
            labels["counter"]: int(value)
            for labels, value in self._evaluator_events.samples()
        }

    def _limits(self) -> Dict[str, Any]:
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "request_timeout_s": self.request_timeout_s,
        }

    def _config_payload(self) -> Dict[str, Any]:
        pool = {"processes": self.pool.processes, "restarts": self.pool.restarts}
        return dict(super()._config_payload(), pool=pool)

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload."""
        return dict(
            super().stats(),
            evaluator=self.evaluator_totals,
            pool=self.pool.stats(),
            sessions=self.sessions.stats(),
        )
