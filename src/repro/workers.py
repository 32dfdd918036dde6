"""The one worker pool: ordered fan-out that ships observability home.

Every parallel part of the program — the planner's multi-start solves
(:class:`~repro.service.pool.SolverPool`), the §5 simulations and the
sweep engine's waves (:class:`~repro.experiments.runner.ExperimentRunner`)
— fans a module-level function over payloads through
:class:`WorkerPool`:

* the executor is created on first use: threads for ``processes=0``
  (no fork, for in-process servers, tests and examples), worker
  processes otherwise;
* :meth:`WorkerPool.map` (blocking) and :meth:`WorkerPool.map_async`
  (for an event loop) return results in submission order;
* every task runs through :func:`run_task`, which re-enters the
  parent's trace context, so worker spans nest under the span that
  fanned them out.  A thread worker records metrics straight into the
  pool's registry.  A process worker records into a task-local
  registry and ships its delta and the finished spans home; the
  parent merges the delta into the pool's registry (the ambient one
  when none is bound) and ingests the spans.

Seeds for anything that fans out derive from :func:`spawn_seeds`: slot
0 is the request seed itself, so the first worker always reproduces
the matching serial run.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .obs import metrics as obs_metrics
from .obs import tracing as obs_tracing

__all__ = ["WorkerPool", "run_task", "spawn_seeds"]

#: One dispatched task: (function, payload, parent trace context,
#: registry to record into — thread mode only; None in a process).
Task = Tuple[
    Callable[[Any], Any], Any, Optional[Dict[str, str]],
    Optional[obs_metrics.MetricsRegistry],
]


def spawn_seeds(seed: int, n: int) -> List[int]:
    """``n`` deterministic, well-separated seeds derived from ``seed``.

    Slot 0 is ``seed`` unchanged; slots 1..n-1 are the first n-1
    children spawned by a ``SeedSequence`` of ``seed``, giving
    independent streams rather than ad-hoc offsets.  Growing ``n`` appends seeds and never changes
    the earlier ones.
    """
    if n < 1:
        raise ValueError(f"need at least one seed, got n={n}")
    seeds = [int(seed)]
    if n > 1:
        children = np.random.SeedSequence(int(seed)).spawn(n - 1)
        seeds.extend(int(child.generate_state(1)[0]) for child in children)
    return seeds


def run_task(task: Task) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one task in a worker; returns ``(result, obs)``.

    ``obs`` is None from a thread worker (it recorded into the bound
    registry directly).  From a process worker it is ``{"metrics":
    <snapshot delta>, "spans": [<span dicts>]}`` — what this task
    recorded (including its simulation-cache traffic) and the spans it
    finished, for the parent to absorb.
    """
    fn, payload, context, registry = task
    with obs_tracing.use_context(context):
        if registry is not None:
            with obs_metrics.use_registry(registry):
                return fn(payload), None
        # A task-local registry: a forked worker may inherit the parent's
        # ambient registry, whose every series would be snapshotted twice.
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg), obs_tracing.capture_spans() as spans:
            result = fn(payload)
        delta = obs_metrics.snapshot_delta({}, reg.snapshot())
        return result, {"metrics": delta, "spans": [s.to_dict() for s in spans]}


class WorkerPool:
    """Ordered fan-out over a lazily created thread or process executor.

    Parameters
    ----------
    processes:
        Worker processes; ``0`` runs tasks on ``threads`` threads.
    threads:
        Thread count of a ``processes=0`` pool.

    ``registry`` (None: the ambient :func:`~repro.obs.metrics.get_registry`
    at dispatch time) receives what the workers record.  Use as a
    context manager or call :meth:`close` to release the executor.
    """

    def __init__(self, processes: int, threads: int = 1) -> None:
        self.processes = int(processes)
        self.threads = max(1, int(threads))
        self.registry: Optional[obs_metrics.MetricsRegistry] = None
        self._executor: Optional[Executor] = None

    @property
    def executor(self) -> Executor:
        """The backing executor, created on first use."""
        if self._executor is None:
            if self.processes == 0:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="cast-worker"
                )
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def close(self, wait: bool = True) -> None:
        """Drain and release the executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _tasks(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Task]:
        context = obs_tracing.current_context()
        registry = None
        if self.processes == 0:
            # Executor threads don't inherit contextvars: hand the
            # registry over explicitly.
            registry = self.registry or obs_metrics.get_registry()
        return [(fn, p, context, registry) for p in payloads]

    def _absorb(
        self, outcomes: Sequence[Tuple[Any, Optional[Dict[str, Any]]]]
    ) -> List[Any]:
        """Merge process workers' shipped metrics and spans; return results."""
        results = []
        for result, obs in outcomes:
            if obs is not None:
                if obs["metrics"]:
                    (self.registry or obs_metrics.get_registry()).merge(obs["metrics"])
                obs_tracing.ingest(obs["spans"])
            results.append(result)
        return results

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """``[fn(p) for p in payloads]`` on the workers, in order.

        ``fn`` must be module-level (picklable) for a process pool.
        """
        tasks = self._tasks(fn, payloads)
        return self._absorb(list(self.executor.map(run_task, tasks)))

    async def map_async(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """:meth:`map` for a running event loop (the loop stays free)."""
        loop = asyncio.get_running_loop()
        tasks = self._tasks(fn, payloads)
        outcomes = await asyncio.gather(
            *(loop.run_in_executor(self.executor, run_task, t) for t in tasks)
        )
        return self._absorb(outcomes)
