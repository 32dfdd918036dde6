"""Parallel experiment runner: process fan-out over independent sims.

Every ground-truth number in the Fig. 1–9 experiments comes from
simulating independent (configuration, job) or (configuration,
workflow) pairs — an embarrassingly parallel workload.
:class:`ExperimentRunner` fans these out over the program's one
:class:`~repro.workers.WorkerPool` (worker processes) while keeping the
reported numbers *identical* to a serial run:

* results come back in submission order, so every downstream sum
  replays the serial accumulation order (bit-exactness rule from
  ``docs/PERFORMANCE.md``);
* job batches are deduplicated through the content-addressed
  :mod:`simulator cache <repro.simulator.cache>` *before* dispatch —
  shape-duplicate SWIM jobs are simulated once, in one process, and
  the parent cache learns every fresh result;
* workers inherit the parent's ``REPRO_SIM_CACHE`` setting through the
  task payload, so a flip made *after* the pool spawned still applies;
* worker spans and metric deltas come home through the pool, like the
  solver pool's restarts;
* seeds for randomized studies derive via
  :func:`~repro.workers.spawn_seeds`, the program's one seed rule
  (slot 0 pinned to the request seed).

``workers=None`` (or 0/1) is the serial mode: no pool, no pickling,
just the plain loop — the default everywhere, so nothing changes for
callers that don't opt in.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..simulator.cache import (
    CACHE_ENV,
    SimKey,
    cache_enabled,
    job_sim_fingerprint,
    record_events,
    sim_key_context,
    simulation_cache,
)
from ..simulator.engine import (
    ANALYTIC_KEY_PREFIX,
    resolve_sim_inputs,
    simulate_batch,
    simulate_job,
    simulate_workflow,
)
from ..simulator.metrics import JobSimResult, WorkloadSimResult
from ..workers import WorkerPool
from ..workloads.spec import JobSpec
from ..workloads.workflow import Workflow

__all__ = [
    "ExperimentRunner",
    "SimReport",
    "sim_report",
    "simulate_job_task",
    "simulate_batch_task",
    "simulate_workflow_task",
    "simulate_workflow_chunk_task",
]

logger = logging.getLogger(__name__)

#: A job-simulation request: (job, input tier, per-VM caps or None).
JobSim = Tuple[JobSpec, Tier, Optional[Mapping[Tier, float]]]


def _sim_env() -> Dict[str, str]:
    """The simulation-relevant environment to replay inside workers."""
    return {CACHE_ENV: os.environ[CACHE_ENV]} if CACHE_ENV in os.environ else {}


def _apply_env(env: Mapping[str, str]) -> None:
    if CACHE_ENV in env:
        os.environ[CACHE_ENV] = env[CACHE_ENV]
    else:
        os.environ.pop(CACHE_ENV, None)


def _chunked(seq: Sequence[Any], n_chunks: int) -> List[List[Any]]:
    """Split ``seq`` into at most ``n_chunks`` contiguous, even chunks."""
    seq = list(seq)
    if not seq:
        return []
    n = max(1, min(int(n_chunks), len(seq)))
    size = -(-len(seq) // n)
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def simulate_job_task(payload: Tuple[Any, ...]) -> JobSimResult:
    """Picklable worker body for one job simulation."""
    job, tier, caps, cluster_spec, provider, env = payload
    _apply_env(env)
    return simulate_job(job, tier, cluster_spec, provider, per_vm_capacity_gb=caps)


def simulate_batch_task(payload: Tuple[Any, ...]) -> List[JobSimResult]:
    """Picklable worker body for a whole chunk of job simulations.

    Routes through :func:`~repro.simulator.engine.simulate_batch`, so a
    fast-path runner evaluates its chunk in one NumPy pass while a
    plain runner (``fast_path=False``) reproduces per-job engine runs
    bit-exactly — one task submission either way.
    """
    chunk, cluster_spec, provider, env, fast = payload
    _apply_env(env)
    return simulate_batch(
        chunk, cluster_spec, provider, fast_path=bool(fast)
    )


def simulate_workflow_task(payload: Tuple[Any, ...]) -> WorkloadSimResult:
    """Picklable worker body for one end-to-end workflow simulation."""
    workflow, tier_of, caps, cluster_spec, provider, env = payload
    _apply_env(env)
    return simulate_workflow(
        workflow, tier_of, cluster_spec, provider, per_vm_capacity_gb=caps
    )


def simulate_workflow_chunk_task(payload: Tuple[Any, ...]) -> List[WorkloadSimResult]:
    """Picklable worker body for a chunk of workflow simulations."""
    chunk, cluster_spec, provider, env, fast = payload
    _apply_env(env)
    return [
        simulate_workflow(
            wf, tier_of, cluster_spec, provider,
            per_vm_capacity_gb=caps, fast_path=bool(fast),
        )
        for wf, tier_of, caps in chunk
    ]


class ExperimentRunner(WorkerPool):
    """Ordered fan-out of independent simulations over worker processes.

    Parameters
    ----------
    workers:
        Process count.  ``None``/``0``/``1`` run serially in-process
        (no executor is ever created).  Use as a context manager or
        call :meth:`close` to release the pool.
    fast_path:
        Opt in to the vectorized wave model for :meth:`simulate_jobs`
        (``simulate_batch(..., fast_path=True)``): eligible jobs are
        evaluated analytically within
        :data:`~repro.simulator.vectorized.ANALYTIC_RTOL` of the
        engine.  Off by default — the default runner remains
        bit-identical to serial engine runs, which the throughput
        benchmarks assert.
    """

    def __init__(self, workers: Optional[int] = None, fast_path: bool = False) -> None:
        self.workers = int(workers or 0)
        super().__init__(self.workers)
        self.fast_path = bool(fast_path)
        self.tasks_run = 0
        self.tasks_deduped = 0
        self.batches = 0

    @property
    def parallel(self) -> bool:
        """Whether this runner dispatches to worker processes."""
        return self.workers > 1

    def _fan(self, fn: Callable[[Any], Any], payloads: List[Any]) -> List[Any]:
        """Ordered results: in-process unless there is work to spread."""
        if not self.parallel or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        logger.debug(
            "dispatching %d tasks to %d workers", len(payloads), self.workers
        )
        return super().map(fn, payloads)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every payload, results in submission order.

        ``fn`` must be a module-level (picklable) callable when the
        runner is parallel.
        """
        payloads = list(payloads)
        self.batches += 1
        self.tasks_run += len(payloads)
        return self._fan(fn, payloads)

    # -- simulation fan-out ------------------------------------------------

    def simulate_jobs(
        self,
        items: Sequence[JobSim],
        cluster_spec: ClusterSpec,
        provider: CloudProvider,
    ) -> List[JobSimResult]:
        """Simulate a batch of jobs; results align with ``items``.

        Parallel mode deduplicates by simulation fingerprint before
        dispatch (the cache key excludes the job id, so shape-duplicate
        jobs collapse to one request), consults/feeds the parent-side
        cache, and ships the surviving requests to workers as whole
        chunks through :func:`simulate_batch_task` — one submission per
        chunk instead of one per job.  Serial mode defers to
        :func:`simulate_job` (or one :func:`simulate_batch` call when
        ``fast_path`` is on), whose internal cache does the same —
        without the fast path the numbers are bit-identical to a
        serial loop either way.
        """
        env = _sim_env()
        items = list(items)
        if not self.parallel:
            self.batches += 1
            self.tasks_run += len(items)
            if self.fast_path:
                return simulate_batch(
                    items, cluster_spec, provider, fast_path=True
                )
            return [
                simulate_job(job, tier, cluster_spec, provider, per_vm_capacity_gb=caps)
                for job, tier, caps in items
            ]

        if not cache_enabled():
            # No fingerprints to dedupe on; ship raw chunks.
            self.batches += 1
            self.tasks_run += len(items)
            return self._run_chunks(items, cluster_spec, provider, env, self.fast_path)

        cache = simulation_cache()
        context = sim_key_context(cluster_spec, provider)
        known: Dict[SimKey, Optional[JobSimResult]] = {}
        item_keys: List[SimKey] = []
        pending_items: List[JobSim] = []
        pending: Dict[SimKey, int] = {}
        lookups = hits = evictions = 0
        for job, tier, caps in items:
            rcaps, placement, out_tier = resolve_sim_inputs(
                job, tier, cluster_spec, provider, per_vm_capacity_gb=caps
            )
            key = job_sim_fingerprint(
                job, tier, cluster_spec, provider, rcaps, out_tier,
                stage_in=True, stage_out=True,
                placement_tiers=None if placement is None else tuple(placement.tiers),
                context=context,
            )
            item_keys.append(key)
            if key in known or key in pending:
                continue
            # Engine results first (always authoritative); analytic
            # results only satisfy a fast-path runner.
            hit = cache.get(key)
            lookups += 1
            if hit is None and self.fast_path:
                hit = cache.get(ANALYTIC_KEY_PREFIX + key)
                lookups += 1
            if hit is not None:
                hits += 1
                known[key] = hit
                continue
            pending[key] = len(pending_items)
            pending_items.append((job, tier, caps))

        self.tasks_deduped += len(items) - len(pending_items)
        self.batches += 1
        self.tasks_run += len(pending_items)
        fresh = self._run_chunks(pending_items, cluster_spec, provider, env, self.fast_path)
        for key, idx in pending.items():
            res = fresh[idx]
            # Analytic results (events == 0 marks them) must never sit
            # under an engine key; engine fallbacks keep the bare key.
            store_key = ANALYTIC_KEY_PREFIX + key if res.events == 0 else key
            evictions += cache.put(store_key, res)
            known[key] = res
        record_events(hits, lookups - hits, evictions)

        results: List[JobSimResult] = []
        for (job, _tier, _caps), key in zip(items, item_keys):
            res = known[key]
            assert res is not None
            results.append(res.for_job(job.job_id))
        return results

    def _run_chunks(
        self,
        items: Sequence[JobSim],
        cluster_spec: ClusterSpec,
        provider: CloudProvider,
        env: Mapping[str, str],
        fast: bool,
    ) -> List[JobSimResult]:
        """Fan chunks of job requests over the pool, in order."""
        if not items:
            return []
        payloads = [
            (chunk, cluster_spec, provider, env, fast)
            for chunk in _chunked(items, self.workers)
        ]
        results: List[JobSimResult] = []
        for part in self._fan(simulate_batch_task, payloads):
            results.extend(part)
        return results

    def simulate_workflows(
        self,
        items: Sequence[Tuple[Workflow, Mapping[str, Tier], Optional[Mapping[Tier, float]]]],
        cluster_spec: ClusterSpec,
        provider: CloudProvider,
    ) -> List[WorkloadSimResult]:
        """Simulate (workflow, tier-map, caps) batches in order.

        A ``fast_path`` runner routes each workflow's jobs through
        :func:`~repro.simulator.engine.simulate_batch`; eligibility
        stays per request, and DAG jobs are phased (staging partially
        disabled), so they fall back to the exact event engine and the
        results match a plain runner bit-for-bit.  Parallel mode ships
        whole chunks per worker submission like :meth:`simulate_jobs`.
        """
        env = _sim_env()
        normalized = [(wf, dict(tier_of), caps) for wf, tier_of, caps in items]
        self.batches += 1
        self.tasks_run += len(normalized)
        results: List[WorkloadSimResult] = []
        for part in self._fan(
            simulate_workflow_chunk_task,
            [(chunk, cluster_spec, provider, env, self.fast_path)
             for chunk in _chunked(normalized, self.workers)],
        ):
            results.extend(part)
        return results

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Runner counters (``workers``/``tasks_run``/``deduped``/...)."""
        return {
            "workers": self.workers,
            "fast_path": self.fast_path,
            "tasks_run": self.tasks_run,
            "tasks_deduped": self.tasks_deduped,
            "batches": self.batches,
        }


@dataclass(frozen=True)
class SimReport:
    """One snapshot of the simulation cache's and the runner's counters."""

    cache: Mapping[str, int]
    runner: Mapping[str, int]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``BENCH_sim.json`` embeds these)."""
        return {
            "cache": dict(self.cache),
            "runner": dict(self.runner),
        }


def sim_report(runner: Optional[ExperimentRunner] = None) -> SimReport:
    """Snapshot the cache and runner counters."""
    return SimReport(
        cache=simulation_cache().stats(),
        runner=runner.stats() if runner is not None else {},
    )
