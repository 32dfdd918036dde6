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
from typing import Any, Dict, List, Mapping, Optional

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
        self.solves_completed = 0

    def bind_metrics(
        self, registry: obs_metrics.MetricsRegistry, key: str = "solver_pool"
    ) -> None:
        """Roll this pool's activity up into ``registry``.

        Two effects: a keyed collector mirrors the pool's own plain-int
        counters (``cast_pool_tasks_total{stage=...}``,
        ``cast_pool_solves_total``), and future solves record worker
        metrics into ``registry`` instead of the ambient one.
        """
        self.registry = registry

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
            results = await self.map_async(
                solve_restart, [dict(request, seed=s) for s in seeds]
            )
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
