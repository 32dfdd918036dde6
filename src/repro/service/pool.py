"""Multi-start solver pool on a ``ProcessPoolExecutor``.

Simulated annealing is a stochastic local search: one restart can stall
in a utility basin.  The pool runs N restarts *in parallel* — same
request, different RNG seeds — and keeps the best-utility plan, which
both raises plan quality and cuts wall-clock versus running a bigger
single-start budget serially.

Determinism: restart seeds derive from the request seed via
``np.random.SeedSequence(seed).spawn()``, with restart 0 pinned to the
request seed itself.  Consequences the tests assert:

* the same (request, restarts) pair always yields the identical plan,
  regardless of pool size or completion order;
* the multi-start winner's utility is ≥ the single-start result for
  the same seed (restart 0 *is* that run, and selection only improves).

Workers call the pure module-level entry points
(:func:`repro.core.solver.solve_workload_request`,
:func:`repro.core.castpp.solve_workflow_request`), so every task
pickles as plain dicts and the child processes share no state with the
server.  ``processes=0`` swaps in threads — no fork, handy for
in-process servers in tests and examples.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ServiceError
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing

__all__ = ["DEFAULT_RESTARTS", "SolverPool", "restart_seeds", "solve_restart"]

logger = logging.getLogger(__name__)

#: Restart count used when a request does not ask for one.
DEFAULT_RESTARTS = 4


def restart_seeds(seed: int, restarts: int) -> List[int]:
    """Per-restart RNG seeds, deterministic for a given request seed.

    Restart 0 reuses the request seed unchanged (so the multi-start
    winner can never fall below the single-start plan for that seed);
    restarts 1..N-1 come from ``SeedSequence(seed).spawn``, giving
    well-separated independent streams rather than ad-hoc offsets.
    """
    if restarts < 1:
        raise ServiceError(f"restarts must be >= 1, got {restarts}")
    seeds = [int(seed)]
    if restarts > 1:
        children = np.random.SeedSequence(int(seed)).spawn(restarts - 1)
        seeds.extend(int(child.generate_state(1)[0]) for child in children)
    return seeds


def _dispatch_restart(task: Mapping[str, Any]) -> Dict[str, Any]:
    op = task.get("op")
    if op == "plan":
        from ..core.solver import solve_workload_request

        return solve_workload_request(
            task["spec"],
            provider=task.get("provider", "google"),
            n_vms=task.get("n_vms", 25),
            iterations=task.get("iterations", 3000),
            seed=task.get("seed", 42),
            use_castpp=task.get("use_castpp", True),
            backend=task.get("backend", "anneal"),
            replicas=task.get("replicas", 8),
        )
    if op == "plan_workflow":
        from ..core.castpp import solve_workflow_request

        return solve_workflow_request(
            task["spec"],
            provider=task.get("provider", "google"),
            n_vms=task.get("n_vms", 25),
            iterations=task.get("iterations", 3000),
            seed=task.get("seed", 42),
        )
    raise ServiceError(f"pool cannot solve op {op!r}")


def solve_restart(task: Mapping[str, Any]) -> Dict[str, Any]:
    """Solve one restart of one request (the picklable worker body).

    ``task`` is ``{"op", "spec", "provider", "n_vms", "iterations",
    "seed", "use_castpp", "backend", "replicas"}`` — all JSON
    primitives — plus two optional observability keys injected by
    :class:`SolverPool`:

    * ``_trace``: the parent's span context
      (:func:`repro.obs.tracing.current_context`), so the restart span
      nests under the pool's ``pool.solve`` even across a process
      boundary;
    * ``_metrics``: a live :class:`~repro.obs.metrics.MetricsRegistry`
      — thread mode only (registries don't pickle, and don't need to:
      threads share the parent's memory), bound as the ambient
      registry for the restart.

    In a *process* worker, metrics recorded by the solver land in that
    worker's process-global registry; this body snapshots around the
    solve and ships the delta (plus any spans finished inside) home in
    ``result["obs"]`` for the pool to merge — the cross-process
    roll-up half of the snapshot/merge protocol.
    """
    task = dict(task)
    ctx = task.pop("_trace", None)
    registry = task.pop("_metrics", None)
    op = task.get("op")

    def _run() -> Dict[str, Any]:
        with obs_tracing.span(
            "pool.restart",
            attrs={"op": op, "seed": task.get("seed")},
            context=ctx,
        ):
            return _dispatch_restart(task)

    if registry is not None:
        # Thread mode: record straight into the server's registry.
        with obs_metrics.use_registry(registry):
            return _run()
    if multiprocessing.parent_process() is None:
        # Direct call (tests, benchmarks): nothing to ship anywhere.
        return _run()

    # Process worker: capture what this restart did and send it home.
    from ..simulator.cache import register_metrics as _register_sim_cache

    reg = obs_metrics.get_registry()
    _register_sim_cache(reg)
    before = reg.snapshot()
    with obs_tracing.capture_spans() as spans:
        result = _run()
    delta = obs_metrics.snapshot_delta(before, reg.snapshot())
    obs: Dict[str, Any] = {}
    if delta:
        obs["metrics"] = delta
    if spans:
        obs["spans"] = [s.to_dict() for s in spans]
    if obs:
        result = dict(result, obs=obs)
    return result


def _select_best(results: List[Dict[str, Any]], seeds: List[int]) -> Dict[str, Any]:
    """Best-utility restart, first index winning ties (deterministic)."""
    best_i = 0
    for i in range(1, len(results)):
        if results[i]["utility"] > results[best_i]["utility"]:
            best_i = i
    best = dict(results[best_i])
    best["restarts"] = len(results)
    best["best_restart"] = best_i
    best["restart_seeds"] = list(seeds)
    best["restart_utilities"] = [r["utility"] for r in results]
    best["seed"] = int(seeds[0])
    # Evaluator cache counters, summed across restarts (each restart
    # runs its own incremental PlanEvaluator in its own worker).
    totals: Dict[str, int] = {}
    for r in results:
        ev = r.get("evaluator")
        if isinstance(ev, dict):
            for key, value in ev.items():
                totals[key] = totals.get(key, 0) + int(value)
    if totals:
        best["evaluator"] = totals
    return best


class SolverPool:
    """Parallel multi-start solves over a process (or thread) executor.

    Parameters
    ----------
    processes:
        Worker processes.  ``None`` → ``min(DEFAULT, cpu_count)``;
        ``0`` → a thread executor (no fork; workers share the GIL but
        tests and small demos don't care).
    restarts:
        Default restart count for requests that don't specify one.
    """

    def __init__(
        self, processes: Optional[int] = None, restarts: int = DEFAULT_RESTARTS
    ) -> None:
        if restarts < 1:
            raise ServiceError(f"restarts must be >= 1, got {restarts}")
        self.restarts = int(restarts)
        if processes is None:
            processes = max(1, min(self.restarts, os.cpu_count() or 1))
        self.processes = int(processes)
        self._executor: Optional[Executor] = None
        self._metrics: Optional[obs_metrics.MetricsRegistry] = None
        self.tasks_started = 0
        self.tasks_completed = 0
        self.solves_completed = 0

    def bind_metrics(
        self, registry: obs_metrics.MetricsRegistry, key: str = "solver_pool"
    ) -> None:
        """Roll this pool's activity up into ``registry``.

        Two effects: a keyed collector mirrors the pool's own plain-int
        counters (``cast_pool_tasks_total{stage=...}``,
        ``cast_pool_solves_total``), and future solves merge worker-side
        metric deltas and spans into ``registry`` instead of the global
        one (thread workers record into it directly).
        """
        self._metrics = registry

        def _mirror(reg: obs_metrics.MetricsRegistry) -> None:
            tasks = reg.counter(
                "cast_pool_tasks_total",
                "Restart tasks by lifecycle stage",
                labelnames=("stage",),
            )
            tasks.set_total(self.tasks_started, stage="started")
            tasks.set_total(self.tasks_completed, stage="completed")
            reg.counter(
                "cast_pool_solves_total", "Multi-start solves completed"
            ).set_total(self.solves_completed)

        registry.register_collector(key, _mirror)

    # -- executor lifecycle --------------------------------------------------

    @property
    def executor(self) -> Executor:
        """The lazily-created backing executor."""
        if self._executor is None:
            if self.processes == 0:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(1, min(self.restarts, os.cpu_count() or 1)),
                    thread_name_prefix="cast-solver",
                )
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """Drain and release the executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    # -- solving -------------------------------------------------------------

    def _tasks(
        self, request: Mapping[str, Any], restarts: Optional[int]
    ) -> Tuple[List[Dict[str, Any]], List[int]]:
        n = self.restarts if restarts is None else int(restarts)
        seeds = restart_seeds(int(request.get("seed", 42)), n)
        tasks = [dict(request, seed=s) for s in seeds]
        ctx = obs_tracing.current_context()
        thread_metrics = self._metrics if self.processes == 0 else None
        for task in tasks:
            task["_trace"] = ctx
            if thread_metrics is not None:
                task["_metrics"] = thread_metrics
        return tasks, seeds

    def _absorb(self, results: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Merge worker-shipped ``result["obs"]`` payloads, stripping them.

        Process workers attach a metrics snapshot-delta and their
        finished spans (see :func:`solve_restart`); both are folded into
        the bound registry (or the global one) here, in the parent.
        Thread workers recorded directly, so they ship nothing.
        """
        absorbed: List[Dict[str, Any]] = []
        for result in results:
            obs = result.get("obs")
            if obs is not None:
                result = dict(result)
                obs = result.pop("obs")
                metrics = obs.get("metrics")
                if metrics:
                    (self._metrics or obs_metrics.get_registry()).merge(metrics)
                spans = obs.get("spans")
                if spans:
                    obs_tracing.ingest(spans)
            absorbed.append(result)
        return absorbed

    def solve_sync(
        self, request: Mapping[str, Any], restarts: Optional[int] = None
    ) -> Dict[str, Any]:
        """Blocking :meth:`solve`, for callers without an event loop."""
        return asyncio.run(self.solve(request, restarts))

    async def solve(
        self, request: Mapping[str, Any], restarts: Optional[int] = None
    ) -> Dict[str, Any]:
        """Async multi-start solve: restarts fan out across workers."""
        loop = asyncio.get_running_loop()
        with obs_tracing.span(
            "pool.solve", attrs={"op": request.get("op")}
        ) as sp:
            tasks, seeds = self._tasks(request, restarts)
            sp.attrs["restarts"] = len(tasks)
            self.tasks_started += len(tasks)
            results = await asyncio.gather(
                *(loop.run_in_executor(self.executor, solve_restart, t) for t in tasks)
            )
            results = self._absorb(list(results))
            self.tasks_completed += len(results)
            self.solves_completed += 1
            return _select_best(results, seeds)

    def stats(self) -> Dict[str, int]:
        """Counters for the ``stats`` op."""
        return {
            "processes": self.processes,
            "default_restarts": self.restarts,
            "tasks_started": self.tasks_started,
            "tasks_completed": self.tasks_completed,
            "solves_completed": self.solves_completed,
        }
