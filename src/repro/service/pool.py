"""Multi-start solver pool on the program's one worker pool.

Simulated annealing is a stochastic local search: one restart can stall
in a utility basin.  The pool runs N restarts *in parallel* — same
request, different RNG seeds — and keeps the best-utility plan, which
both raises plan quality and cuts wall-clock versus running a bigger
single-start budget serially.

Determinism: restart seeds are :func:`~repro.workers.spawn_seeds` of
the request seed (``restart_seeds`` is the same function), so restart
0 *is* the request seed.  Consequences the tests assert:

* the same (request, restarts) pair always yields the identical plan,
  regardless of pool size or completion order;
* the multi-start winner's utility is ≥ the single-start result for
  the same seed (restart 0 *is* that run, and selection only improves).

Workers call the pure module-level entry points
(:func:`repro.core.solver.solve_workload_request`,
:func:`repro.core.castpp.solve_workflow_request`), so every task
pickles as plain dicts and the child processes share no state with the
server.  The fan-out itself — executor, trace context, shipping worker
metrics and spans home — is :class:`~repro.workers.WorkerPool`'s;
``processes=0`` swaps in threads (no fork, handy for in-process
servers in tests and examples).
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ServiceError
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..workers import WorkerPool, spawn_seeds

__all__ = ["DEFAULT_RESTARTS", "SolverPool", "restart_seeds", "solve_restart"]

#: Restart count used when a request does not ask for one.
DEFAULT_RESTARTS = 4

#: Per-restart RNG seeds: the one seed rule, under the pool's name.
restart_seeds = spawn_seeds


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
    primitives.  The ``pool.restart`` span nests under the pool's
    ``pool.solve``: the worker pool runs the task under the parent's
    trace context, in a thread or across a process boundary.
    """
    with obs_tracing.span(
        "pool.restart", attrs={"op": task.get("op"), "seed": task.get("seed")}
    ):
        return _dispatch_restart(task)


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


def _counters(
    registry: obs_metrics.MetricsRegistry,
) -> Tuple[obs_metrics.Counter, obs_metrics.Counter]:
    """The pool's two counters in ``registry``, declared with their series at zero."""
    tasks = registry.counter(
        "cast_pool_tasks_total", "Restart tasks by lifecycle stage",
        labelnames=("stage",),
    )
    solves = registry.counter("cast_pool_solves_total", "Multi-start solves completed")
    tasks.inc(0, stage="started")
    tasks.inc(0, stage="completed")
    solves.inc(0)
    return tasks, solves


class SolverPool(WorkerPool):
    """Parallel multi-start solves over a process (or thread) worker pool.

    Parameters
    ----------
    processes:
        Worker processes.  ``None`` → ``min(DEFAULT, cpu_count)``;
        ``0`` → threads (no fork; workers share the GIL but tests and
        small demos don't care).
    restarts:
        Default restart count for requests that don't specify one.
    """

    def __init__(
        self, processes: Optional[int] = None, restarts: int = DEFAULT_RESTARTS
    ) -> None:
        if restarts < 1:
            raise ServiceError(f"restarts must be >= 1, got {restarts}")
        self.restarts = int(restarts)
        workers = max(1, min(self.restarts, os.cpu_count() or 1))
        super().__init__(workers if processes is None else processes, threads=workers)
        self._task_counts, self._solves = _counters(obs_metrics.MetricsRegistry())

    def bind_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Count into ``registry`` from now on (bind once).

        The pool's counters (``cast_pool_tasks_total{stage=...}``,
        ``cast_pool_solves_total``) move there with the counts made so
        far, and future solves record worker metrics into ``registry``
        instead of the ambient one.
        """
        self.registry = registry
        old = (self._task_counts, self._solves)
        self._task_counts, self._solves = _counters(registry)
        for before, after in zip(old, (self._task_counts, self._solves)):
            for labels, value in before.samples():
                after.inc(value, **labels)

    #: The server's name for :meth:`~repro.workers.WorkerPool.close`.
    shutdown = WorkerPool.close

    def solve_sync(
        self, request: Mapping[str, Any], restarts: Optional[int] = None
    ) -> Dict[str, Any]:
        """Blocking :meth:`solve`, for callers without an event loop."""
        return asyncio.run(self.solve(request, restarts))

    async def solve(
        self, request: Mapping[str, Any], restarts: Optional[int] = None
    ) -> Dict[str, Any]:
        """Async multi-start solve: restarts fan out across workers."""
        with obs_tracing.span(
            "pool.solve", attrs={"op": request.get("op")}
        ) as sp:
            n = self.restarts if restarts is None else int(restarts)
            if n < 1:
                raise ServiceError(f"restarts must be >= 1, got {n}")
            sp.attrs["restarts"] = n
            seeds = restart_seeds(int(request.get("seed", 42)), n)
            self._task_counts.inc(n, stage="started")
            results = await self.map_async(
                solve_restart, [dict(request, seed=s) for s in seeds]
            )
            self._task_counts.inc(len(results), stage="completed")
            self._solves.inc()
            return _select_best(results, seeds)

    def stats(self) -> Dict[str, int]:
        """Counters for the ``stats`` op."""
        return {
            "processes": self.processes,
            "default_restarts": self.restarts,
            "tasks_started": int(self._task_counts.value(stage="started")),
            "tasks_completed": int(self._task_counts.value(stage="completed")),
            "solves_completed": int(self._solves.value()),
        }
