"""Streaming planning sessions: warm-start delta-solves under churn.

A :class:`PlanningSession` holds a *resident* workload and its current
best tiering plan.  Jobs arrive (:meth:`PlanningSession.add_jobs`) and
depart (:meth:`PlanningSession.remove_jobs`) continuously; each delta
triggers an incremental re-plan instead of a batch solve:

* **Warm start.**  :meth:`~repro.core.solver.CastSolver.warm_solve`
  seeds the annealer with the incumbent plan rebased onto the resident
  workload (:func:`~repro.core.solver.rebase_plan`: departed jobs
  dropped, arrivals co-placed with a reuse mate or given their Table 2
  tier, Constraint 7 repaired for CAST++) and runs a short, adaptive
  budget (a few iterations per changed job) at low temperature.
  Successive optimal plans are near-neighbors, so this recovers
  batch-solve quality at a tiny fraction of the work.
* **Delta-scoped evaluation.**  One persistent
  :class:`~repro.core.evaluator.PlanEvaluator` survives across deltas
  via :meth:`~repro.core.evaluator.PlanEvaluator.apply_workload_delta`:
  its bandwidth-identity memo and per-job runtime caches stay hot, so
  the warm re-plan's baseline re-scores only the arrivals and the
  contended tiers, and each annealing step re-scores only the tiers
  the move touched.
  Parity is inherited, not approximated — every reported utility is
  bit-identical to a cold :func:`~repro.core.utility.evaluate_plan`
  re-score of the same plan (:meth:`PlanningSession.verify_parity`).
* **Drift escalation.**  A :class:`~repro.session.drift.DriftDetector`
  fingerprints the resident application mix; when it drifts past a
  threshold from the mix the incumbent was solved for (a phase boundary
  in the :mod:`repro.core.dynamic` sense), or every
  ``full_solve_every`` warm re-plans as a background quality bound, the
  session escalates to a full-budget cold re-solve — identical, by
  construction, to the batch solve of the resident workload.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..cloud import CloudProvider, google_cloud_2015
from ..core import AnnealingSchedule, CastPlusPlus, CastSolver
from ..core.evaluator import PlanEvaluator
from ..core.plan import TieringPlan
from ..core.utility import evaluate_plan
from ..errors import SessionError
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.tracing import span
from ..profiler import build_model_matrix
from ..workloads.spec import JobSpec, ReuseSet, WorkloadSpec
from .drift import DriftDetector
from .log import SessionLog

__all__ = ["SessionConfig", "ReplanResult", "PlanningSession",
           "SESSION_REPLAN_BUCKETS"]

#: Finer-than-default histogram buckets: warm re-plans land in
#: single-digit milliseconds, below the default 1 ms floor.
SESSION_REPLAN_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Warm re-plans refine a near-optimal incumbent, so they run cool
#: (mostly greedy) and cool fast.  The budget scales with the jobs the
#: delta touched: ``WARM_ITERATIONS_PER_CHANGE`` per changed job,
#: clamped to ``[WARM_ITERATIONS_MIN, WARM_SCHEDULE.iter_max]``.
WARM_SCHEDULE = AnnealingSchedule(temp_init=0.02, cooling_rate=0.9, iter_max=96)
WARM_ITERATIONS_PER_CHANGE = 6
WARM_ITERATIONS_MIN = 4


@dataclass(frozen=True)
class SessionConfig:
    """Escalation and verification policy knobs.

    Attributes
    ----------
    drift_threshold / drift_window:
        Mix-fingerprint escalation policy (see
        :class:`~repro.session.drift.DriftDetector`).
    full_solve_every:
        Background quality bound: force a full-budget re-solve after
        this many consecutive warm re-plans even without drift.
    parity_check_every:
        Every Nth re-plan, re-score the returned plan through the
        canonical :func:`~repro.core.utility.evaluate_plan` path and
        require bit-equality (0 disables; the check runs outside the
        re-plan latency measurement).
    """

    drift_threshold: float = 0.25
    drift_window: int = 8
    full_solve_every: int = 64
    parity_check_every: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.drift_threshold <= 1.0:
            raise SessionError("drift_threshold must be in (0, 1]")
        if self.drift_window < 1:
            raise SessionError("drift_window must be >= 1")
        if self.full_solve_every < 1:
            raise SessionError("full_solve_every must be >= 1")
        if self.parity_check_every < 0:
            raise SessionError("parity_check_every must be >= 0")


@dataclass(frozen=True)
class ReplanResult:
    """One delta's outcome: the new incumbent plan and how it was won."""

    seq: int
    kind: str                      # "open" | "add" | "remove" | ...
    mode: str                      # "warm" | "full" | "empty"
    plan: Optional[TieringPlan]
    utility: float
    makespan_s: float
    cost_total_usd: float
    replan_s: float
    iterations: int
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    resident_jobs: int
    drift_distance: float
    escalated: bool
    parity_ok: Optional[bool]      # None when the check did not run

    def to_dict(self, include_plan: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "mode": self.mode,
            "utility": self.utility,
            "makespan_s": self.makespan_s,
            "cost_total_usd": self.cost_total_usd,
            "replan_s": self.replan_s,
            "iterations": self.iterations,
            "added": list(self.added),
            "removed": list(self.removed),
            "resident_jobs": self.resident_jobs,
            "drift_distance": self.drift_distance,
            "escalated": self.escalated,
            "parity_ok": self.parity_ok,
        }
        if include_plan:
            out["plan"] = self.plan.to_dict() if self.plan is not None else None
        return out


class PlanningSession:
    """A long-lived planning context over a churning workload.

    Not thread-safe: the planner service serializes deltas per session.
    """

    def __init__(
        self,
        workload: Optional[WorkloadSpec] = None,
        *,
        provider: Optional[CloudProvider] = None,
        n_vms: int = 25,
        use_castpp: bool = True,
        iterations: int = 3000,
        seed: int = 42,
        backend: str = "anneal",
        replicas: int = 8,
        config: Optional[SessionConfig] = None,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name or f"session-{uuid.uuid4().hex[:8]}"
        self.provider = provider or google_cloud_2015()
        self.n_vms = int(n_vms)
        self.use_castpp = bool(use_castpp)
        self.iterations = int(iterations)
        self.seed = int(seed)
        self.backend = str(backend)
        self.replicas = int(replicas)
        self.config = config or SessionConfig()
        self._registry = registry
        self._drift = DriftDetector(
            threshold=self.config.drift_threshold,
            window=self.config.drift_window,
        )
        self.log = SessionLog()
        self._jobs: Dict[str, JobSpec] = {}
        self._reuse_sets: List[ReuseSet] = []
        # Incrementally maintained neighbor-closure inputs (footprints
        # and reuse groups) — rebuilding them per re-plan costs O(N) in
        # property chains, a visible slice of a millisecond budget.
        self._fp: Dict[str, float] = {}
        self._groups: Dict[str, List[str]] = {}
        self._evaluator: Optional[PlanEvaluator] = None
        self.plan: Optional[TieringPlan] = None
        self.last_result: Optional[ReplanResult] = None
        self.closed = False
        self._seq = 0
        self._warm_since_full = 0
        self.counters: Dict[str, int] = {
            "deltas": 0, "warm_replans": 0, "full_replans": 0,
            "drift_escalations": 0, "parity_checks": 0,
        }
        self._rebuild_solver()
        if workload is not None and workload.jobs:
            for job in workload.jobs:
                self._jobs[job.job_id] = job
                self._fp[job.job_id] = job.footprint_gb
                self._groups[job.job_id] = [job.job_id]
            self._reuse_sets = list(workload.reuse_sets)
            for rs in self._reuse_sets:
                members = sorted(rs.job_ids)
                for jid in members:
                    self._groups[jid] = members
            self.log.append("open", {
                "jobs": [j.job_id for j in workload.jobs],
                "n_vms": self.n_vms, "iterations": self.iterations,
                "seed": self.seed, "backend": self.backend,
            })
            self._replan("open", added=tuple(self._jobs), removed=(),
                         workload=self._workload(), force_full=True)

    # -- deployment context ------------------------------------------------

    def _rebuild_solver(self) -> None:
        self.cluster_spec = self.provider.cluster(self.n_vms)
        self.matrix = build_model_matrix(
            provider=self.provider, cluster_spec=self.cluster_spec
        )
        solver_cls = CastPlusPlus if self.use_castpp else CastSolver
        self._solver = solver_cls(
            cluster_spec=self.cluster_spec,
            matrix=self.matrix,
            provider=self.provider,
            schedule=AnnealingSchedule(iter_max=self.iterations),
            seed=self.seed,
            backend=self.backend,
            replicas=self.replicas,
        )
        self._evaluator = None

    # -- resident workload -------------------------------------------------

    def _workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            jobs=tuple(self._jobs.values()),
            reuse_sets=tuple(self._reuse_sets),
            name=self.name,
        )

    @property
    def resident_job_ids(self) -> Tuple[str, ...]:
        return tuple(self._jobs)

    @property
    def n_resident_jobs(self) -> int:
        return len(self._jobs)

    @property
    def workload(self) -> Optional[WorkloadSpec]:
        """The resident workload (None while the session is empty)."""
        return self._workload() if self._jobs else None

    def _check_open(self) -> None:
        if self.closed:
            raise SessionError(f"session {self.name!r} is closed")

    # -- deltas ------------------------------------------------------------

    def add_jobs(
        self, jobs: Iterable[JobSpec], reuse_sets: Iterable[ReuseSet] = ()
    ) -> ReplanResult:
        """Admit arriving jobs (optionally sharing new reuse sets)."""
        self._check_open()
        arriving = list(jobs)
        reuse_sets = list(reuse_sets)
        ids = [j.job_id for j in arriving]
        if len(set(ids)) != len(ids):
            raise SessionError(f"duplicate job ids in delta: {sorted(ids)}")
        clashes = [i for i in ids if i in self._jobs]
        if clashes:
            raise SessionError(f"jobs already resident: {sorted(clashes)}")
        new_jobs = dict(self._jobs)
        for job in arriving:
            new_jobs[job.job_id] = job
        new_sets = self._reuse_sets + list(reuse_sets)
        # Validate the post-delta workload *before* committing anything
        # (WorkloadSpec enforces reuse-set integrity at construction).
        workload = WorkloadSpec(
            jobs=tuple(new_jobs.values()), reuse_sets=tuple(new_sets),
            name=self.name,
        )
        self._jobs = new_jobs
        self._reuse_sets = new_sets
        for job in arriving:
            self._fp[job.job_id] = job.footprint_gb
            self._groups[job.job_id] = [job.job_id]
        for rs in reuse_sets:
            members = sorted(rs.job_ids)
            for jid in members:
                self._groups[jid] = members
        self.log.append("add", {"job_ids": ids})
        return self._replan("add", added=tuple(ids), removed=(),
                            workload=workload)

    def remove_jobs(self, job_ids: Iterable[str]) -> ReplanResult:
        """Retire departing jobs (pruning them from reuse sets)."""
        self._check_open()
        departing = list(job_ids)
        if len(set(departing)) != len(departing):
            raise SessionError(f"duplicate job ids in delta: {sorted(departing)}")
        unknown = [i for i in departing if i not in self._jobs]
        if unknown:
            raise SessionError(f"jobs not resident: {sorted(unknown)}")
        gone = set(departing)
        new_jobs = {i: j for i, j in self._jobs.items() if i not in gone}
        new_sets: List[ReuseSet] = []
        regroup: List[List[str]] = []
        for rs in self._reuse_sets:
            remaining = rs.job_ids - gone
            if remaining:
                if remaining == rs.job_ids:
                    new_sets.append(rs)
                else:
                    new_sets.append(replace(rs, job_ids=frozenset(remaining)))
                    regroup.append(sorted(remaining))
        workload = (
            WorkloadSpec(jobs=tuple(new_jobs.values()),
                         reuse_sets=tuple(new_sets), name=self.name)
            if new_jobs else None
        )
        self._jobs = new_jobs
        self._reuse_sets = new_sets
        for jid in departing:
            del self._fp[jid]
            del self._groups[jid]
        for members in regroup:
            for jid in members:
                self._groups[jid] = members
        self.log.append("remove", {"job_ids": departing})
        return self._replan("remove", added=(), removed=tuple(departing),
                            workload=workload)

    def update_catalog(self, provider: CloudProvider) -> ReplanResult:
        """Swap the storage catalog; forces a full re-solve."""
        self._check_open()
        self.provider = provider
        self._rebuild_solver()
        self.log.append("catalog", {
            "provider": getattr(provider, "name", provider.__class__.__name__)
        })
        return self._replan("catalog", added=(), removed=(),
                            workload=self.workload, force_full=True)

    def replan(self, force_full: bool = False) -> ReplanResult:
        """Re-plan without a delta (manual refresh)."""
        self._check_open()
        self.log.append("replan", {"force_full": force_full})
        return self._replan("replan", added=(), removed=(),
                            workload=self.workload, force_full=force_full)

    def close(self) -> Dict[str, Any]:
        """Close the session; returns a summary with the final plan."""
        self._check_open()
        self.closed = True
        self._gauge().set(0, session=self.name)
        last = self.last_result
        return {
            "session": self.name,
            "events": len(self.log),
            "resident_jobs": len(self._jobs),
            "counters": dict(self.counters),
            "drift_escalations": self._drift.escalations,
            "utility": last.utility if last is not None else None,
            "plan": self.plan.to_dict() if self.plan is not None else None,
        }

    # -- re-planning -------------------------------------------------------

    def _replan(
        self,
        kind: str,
        added: Tuple[str, ...],
        removed: Tuple[str, ...],
        workload: Optional[WorkloadSpec],
        force_full: bool = False,
    ) -> ReplanResult:
        cfg = self.config
        seq = self._seq
        self._seq += 1
        self.counters["deltas"] += 1

        if workload is None:
            # Session drained empty: no plan to maintain.
            self.plan = None
            self._evaluator = None
            result = ReplanResult(
                seq=seq, kind=kind, mode="empty", plan=None,
                utility=float("nan"), makespan_s=float("nan"),
                cost_total_usd=float("nan"), replan_s=0.0, iterations=0,
                added=added, removed=removed, resident_jobs=0,
                drift_distance=0.0, escalated=False, parity_ok=None,
            )
            self._record(result)
            return result

        drift_distance, drifted = 0.0, False
        if self.plan is not None:
            drift_distance, drifted = self._drift.observe(workload.jobs)
            if drifted:
                self.counters["drift_escalations"] += 1

        full = (
            force_full
            or self.plan is None
            or self._evaluator is None
            or drifted
            or self._warm_since_full >= cfg.full_solve_every
        )
        mode = "full" if full else "warm"

        with span(
            "session.replan",
            attrs={"session": self.name, "kind": kind, "mode": mode,
                   "jobs": workload.n_jobs},
        ):
            started = time.perf_counter()
            if full:
                # Cold path: identical to the batch solve of the
                # resident workload (fresh evaluator, Algorithm 2 seed,
                # full budget) — the quality anchor warm re-plans are
                # measured against.
                result_sa = self._solver.solve(workload)
                evaluator = self._solver.last_evaluator
                if evaluator is None:  # non-incremental/tempering path
                    evaluator = self._solver.make_evaluator(workload)
                # Warm re-plans are feasible by construction; skip the
                # O(N) plan re-validation on their baseline resets.
                evaluator.validate_resets = False
                evaluator.promote(result_sa.best_state)
                self._evaluator = evaluator
                self._drift.rearm(workload.jobs)
                self._warm_since_full = 0
                self.counters["full_replans"] += 1
            else:
                evaluator = self._evaluator
                iters = WARM_ITERATIONS_PER_CHANGE * max(1, len(added) + len(removed))
                sched = replace(WARM_SCHEDULE, iter_max=min(
                    WARM_SCHEDULE.iter_max, max(WARM_ITERATIONS_MIN, iters)
                ))
                _, result_sa = self._solver.warm_solve(
                    workload, self.plan, evaluator, sched,
                    neighbor_fn=self._solver.neighbor_moves(
                        workload, fp=self._fp, groups=self._groups
                    ),
                )
                self._warm_since_full += 1
                self.counters["warm_replans"] += 1
            best = result_sa.best_state
            replan_s = time.perf_counter() - started

        self.plan = best
        utility = evaluator.base_utility
        cost = evaluator.base_cost

        parity_ok: Optional[bool] = None
        if cfg.parity_check_every and seq % cfg.parity_check_every == 0:
            parity_ok = self.verify_parity()
            if not parity_ok:
                raise SessionError(
                    f"session {self.name!r} parity violation at seq {seq}: "
                    "incremental utility diverged from evaluate_plan"
                )

        result = ReplanResult(
            seq=seq, kind=kind, mode=mode, plan=best,
            utility=utility,
            makespan_s=evaluator.base_makespan_s,
            cost_total_usd=cost.total_usd if cost is not None else float("nan"),
            replan_s=replan_s,
            iterations=result_sa.iterations,
            added=added, removed=removed,
            resident_jobs=workload.n_jobs,
            drift_distance=drift_distance,
            escalated=drifted,
            parity_ok=parity_ok,
        )
        self.last_result = result
        self._record(result)
        return result

    def verify_parity(self) -> bool:
        """Bit-exact check of the incumbent against the reference path.

        Re-scores the current plan through the canonical, from-scratch
        :func:`~repro.core.utility.evaluate_plan` and compares the
        utility for *equality* — the incremental machinery guarantees
        bit-identity, not mere closeness.  Runs outside the re-plan
        latency window (it is a verification pass, not planning work).
        """
        if self.plan is None or self._evaluator is None:
            return True
        self.counters["parity_checks"] += 1
        reference = evaluate_plan(
            self._workload(), self.plan, self.cluster_spec, self.matrix,
            self.provider, reuse_aware=self._solver._reuse_aware,
        )
        incumbent = self._evaluator.base_utility
        return (
            reference.utility == incumbent
            and reference.makespan_s == self._evaluator.base_makespan_s
        )

    # -- observability -----------------------------------------------------

    def _reg(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _gauge(self):
        return self._reg().gauge(
            "cast_session_resident_jobs",
            "Jobs resident in a planning session",
            labelnames=("session",),
        )

    def _record(self, result: ReplanResult) -> None:
        reg = self._reg()
        reg.counter(
            "cast_session_events_total", "Session deltas admitted",
            labelnames=("kind",),
        ).inc(kind=result.kind)
        reg.counter(
            "cast_session_replans_total", "Session re-plans by mode",
            labelnames=("mode",),
        ).inc(mode=result.mode)
        if result.escalated:
            reg.counter(
                "cast_session_drift_escalations_total",
                "Warm re-plans escalated to full solves by workload drift",
            ).inc()
        if result.mode != "empty":
            reg.histogram(
                "cast_session_replan_seconds",
                "Wall time of one session re-plan",
                labelnames=("mode",),
                buckets=SESSION_REPLAN_BUCKETS,
            ).observe(result.replan_s, mode=result.mode)
        self._gauge().set(result.resident_jobs, session=self.name)

    def stats(self) -> Dict[str, Any]:
        """Session counters for the service ``stats`` op and tests."""
        out: Dict[str, Any] = {
            "session": self.name,
            "resident_jobs": len(self._jobs),
            "reuse_sets": len(self._reuse_sets),
            "events": len(self.log),
            "warm_since_full": self._warm_since_full,
            "drift_recent_max": self._drift.recent_max,
            **self.counters,
        }
        if self._evaluator is not None:
            out["evaluator"] = dict(self._evaluator.stats())
        return out
